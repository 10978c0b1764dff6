import math
import time

import pytest

from arcforge import bounds, greedy
from arcforge.arc import Coverage, verify_arc, verify_complete
from arcforge.gf import field_of_order
from arcforge.greedy import (
    SearchConfig, _plane_for, default_seed_cycle, greedy_trial, search,
    trial_rng,
)
from arcforge.plane import build_plane


def plane_of(q):
    return build_plane(field_of_order(q))


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(q=5, trials=0)
    with pytest.raises(ValueError):
        SearchConfig(q=5, candidate_policy="anneal")


def test_seed_cycle_defaults():
    cyc = default_seed_cycle(11)   # tabulated size 7
    assert cyc == (5, 6)
    cfg = SearchConfig(q=11)
    assert [cfg.seed_size_for(i) for i in range(4)] == [5, 6, 5, 6]


def test_seed_cycle_does_not_hide_a_bad_table(tmp_path, monkeypatch):
    # an untabulated q is already None; a broken table is an error
    assert default_seed_cycle(10007) == tuple(range(5, 13))
    monkeypatch.setenv(bounds.TABLE_ENV_VAR, str(tmp_path / "absent.txt"))
    with pytest.raises(bounds.TableError):
        default_seed_cycle(11)


def test_target_resolution():
    assert SearchConfig(q=13).resolved_target() == 8
    assert SearchConfig(q=13, target_size=None).resolved_target() is None
    assert SearchConfig(q=13, target_size=9).resolved_target() == 9


def test_search_rejects_non_prime_power():
    with pytest.raises(ValueError):
        search(SearchConfig(q=6))


# ---------------------------------------------------------------------------
# greedy_trial
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 8, 13])
def test_trials_complete_and_verify(q):
    pl = plane_of(q)
    cfg = SearchConfig(q=q)
    for i in range(5):
        arc = greedy_trial(pl, cfg, trial_rng(11, i), i)
        assert verify_arc(arc)
        ok, unc = verify_complete(arc)
        assert ok and unc == []


def test_trial_q2_size_four():
    # no complete arc below 4 points exists in the Fano plane
    pl = plane_of(2)
    cfg = SearchConfig(q=2)
    for i in range(10):
        arc = greedy_trial(pl, cfg, trial_rng(0, i), i)
        assert len(arc.points) == 4


def test_trial_matches_incremental_coverage():
    pl = plane_of(9)
    cfg = SearchConfig(q=9)
    arc = greedy_trial(pl, cfg, trial_rng(4, 2), 2)
    cov = Coverage(pl)
    for pid in arc.points:
        cov.add(pid)
    assert cov.is_complete()


def test_trials_equal_with_and_without_tables():
    # every search on these planes reads the tables, under either policy
    for q in (7, 11, 16):
        for kwargs in ({}, {"candidate_policy": "sample", "sample_size": 32}):
            cfg = SearchConfig(q=q, **kwargs)
            bare, tabled = _plane_for(cfg), _plane_for(cfg)
            tabled.incidence_tables()
            for i in range(9):
                computed = greedy_trial(bare, cfg, trial_rng(0, i), i)
                looked_up = greedy_trial(tabled, cfg, trial_rng(0, i), i)
                assert computed.points == looked_up.points


def test_sample_policy_trials_verify():
    cfg = SearchConfig(q=17, candidate_policy="sample", sample_size=32)
    pl = _plane_for(cfg)
    arc = greedy_trial(pl, cfg, trial_rng(5, 0), 0)
    ok, unc = verify_complete(arc)
    assert ok and unc == []


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def test_search_deterministic_summary():
    cfg = SearchConfig(q=13, trials=150, master_seed=7, target_size=None)
    a = search(cfg)
    b = search(cfg)
    assert a.summary() == b.summary()
    assert a.best_points == b.best_points


def test_search_examples_small():
    rep = search(SearchConfig(q=13, trials=10_000, master_seed=1))
    assert rep.best_size == 8
    rep = search(SearchConfig(q=9, trials=1_000, master_seed=1))
    assert rep.best_size == 6


def test_search_histogram_and_bounds():
    cfg = SearchConfig(q=11, trials=60, master_seed=3, target_size=None)
    rep = search(cfg)
    assert sum(rep.histogram.values()) == rep.trials_run == 60
    assert min(rep.histogram) == rep.best_size
    assert rep.best_size > math.sqrt(2 * 11) + 1
    assert rep.best_size > math.sqrt(3 * 11) + 0.5


def test_search_early_stop_merge_rule():
    cfg = SearchConfig(q=13, trials=5_000, master_seed=1)  # target auto = 8
    rep = search(cfg)
    assert rep.best_size == 8
    assert rep.trials_run < 5_000
    assert rep.best_trial == rep.trials_run - 1  # first hit ends the run
    assert rep.histogram[8] == 1


def test_search_jobs_equivalence():
    cfg = SearchConfig(q=9, trials=70, master_seed=2, target_size=None)
    seq = search(cfg, jobs=1)
    par = search(cfg, jobs=2)
    assert seq.best_size == par.best_size
    assert seq.summary() == par.summary()


def test_search_jobs_early_stop_matches_serial():
    # per-trial engine: the worker holding the first hit stops there while
    # the other runs on, so the merge sees a gap above the hit
    cfg = SearchConfig(q=13, trials=5_000, master_seed=1,
                       candidate_policy="sample")
    seq = search(cfg, jobs=1)
    par = search(cfg, jobs=2)
    assert seq.trials_run < 2 * 64  # the hit lands inside the first block
    assert par.summary() == seq.summary()
    assert par.best_points == seq.best_points


@pytest.mark.parametrize("trials", [1000, 128])
def test_search_hit_on_a_block_boundary(trials):
    # trial 127 is the first hit (target 7) and the last index of a block for
    # jobs = 1 and 2; the loop must stop there, and at trials = 128 it is the
    # last allowed trial, which is a hit and not a spent budget
    cfg = SearchConfig(q=11, trials=trials, master_seed=389)
    seq = search(cfg, jobs=1)
    assert (seq.best_trial, seq.trials_run) == (127, 128)
    assert not seq.budget_exhausted
    assert "histogram 7:1 8:127\n" in seq.summary()
    assert search(cfg, jobs=2).summary() == seq.summary()


def test_search_jobs_respects_time_budget():
    # one worker's share of a block (64 sampled trials at q = 256, which
    # has no tables, about 0.07 s each) takes seconds; the workers must stop
    # at the deadline, not at the block end
    budget = 0.5
    cfg = SearchConfig(q=256, trials=10**6, master_seed=0,
                       candidate_policy="sample", target_size=None,
                       time_budget=budget)
    t0 = time.monotonic()
    rep = search(cfg, jobs=2)
    elapsed = time.monotonic() - t0
    assert rep.budget_exhausted
    assert 1 <= rep.trials_run < 64
    assert elapsed < budget + 2.0


def test_search_jobs_capped_at_usable_cpus(monkeypatch):
    # the pool forks every worker on its first submit, so --jobs 5000 must
    # not ask for 5000; an inline stand-in records the request and starts
    # no process
    import concurrent.futures

    asked = []

    class InlinePool:
        def __init__(self, max_workers, initializer, initargs):
            asked.append(max_workers)
            initializer(*initargs)

        def submit(self, fn, *args):
            fut = concurrent.futures.Future()
            fut.set_result(fn(*args))
            return fut

        def shutdown(self):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(greedy, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(greedy, "_worker_plane", None)
    cfg = SearchConfig(q=9, trials=300, master_seed=2, target_size=None)
    par = search(cfg, jobs=5000)
    assert asked == [3]
    assert par.summary() == search(cfg, jobs=1).summary()


def test_search_jobs_shares_the_tables():
    # the parent builds the q = 101 tables before the clock starts and the
    # workers inherit them, so no worker spends the budget on its own copy
    rep = search(SearchConfig(q=101, trials=10**6, target_size=None,
                              time_budget=0.5), jobs=2)
    assert rep.budget_exhausted
    assert rep.elapsed < 1.0


def test_search_time_budget():
    from arcforge.greedy import BudgetExhausted
    # dead before any trial: the hard error
    with pytest.raises(BudgetExhausted):
        search(SearchConfig(q=13, trials=10**6, master_seed=0,
                            target_size=None, time_budget=0.0))
    # dead mid-run: best-so-far comes back flagged
    rep = search(SearchConfig(q=13, trials=10**6, master_seed=0,
                              target_size=None, time_budget=0.5))
    assert rep.budget_exhausted
    assert rep.trials_run >= 1


@pytest.mark.parametrize("budget", [float("nan"), -0.5, float("-inf")])
def test_config_rejects_bad_time_budget(budget):
    with pytest.raises(ValueError, match="time_budget"):
        SearchConfig(q=13, time_budget=budget)


def test_config_accepts_zero_and_infinite_budget():
    assert SearchConfig(q=13, time_budget=0.0).time_budget == 0.0
    assert SearchConfig(q=13, time_budget=float("inf")).time_budget == float("inf")


def test_search_time_budget_with_tables():
    # exact policy at q = 49 reads the dense tables; the deadline is
    # checked after every trial, not after a block of them
    t0 = time.monotonic()
    rep = search(SearchConfig(q=49, trials=10**6, target_size=None,
                              time_budget=0.5))
    assert time.monotonic() - t0 < 1.5
    assert rep.budget_exhausted


def test_search_time_budget_excludes_table_build():
    # the q = 101 tables take longer to build than the budget; they are
    # built before the clock starts, so trials still run inside it
    rep = search(SearchConfig(q=101, trials=10**6, target_size=None,
                              time_budget=0.5), plane=plane_of(101))
    assert rep.elapsed < 1.0
    assert rep.budget_exhausted


def test_config_rejects_empty_sample():
    with pytest.raises(ValueError):
        SearchConfig(q=7, sample_size=0)

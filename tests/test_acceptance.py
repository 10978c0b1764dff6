"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion
pass/fail lines.  The search criteria are randomized but seeded, and every
tolerance and trial budget is pinned here.
"""

import math
import time

import numpy as np
import pytest

from arcforge import bounds
from arcforge.arc import Arc, Coverage, verify_arc, verify_complete
from arcforge.certify import read_and_verify, write_certificate
from arcforge.cli import main
from arcforge.gf import field_of_order, is_prime
from arcforge.greedy import SearchConfig, search, trial_rng, _plane_for
from arcforge.plane import build_plane

EXACT_SMALL_Q = {2: 4, 3: 4, 4: 6, 5: 6, 7: 6, 8: 6, 9: 6, 11: 7, 13: 8,
                 16: 9, 17: 10, 19: 10, 23: 10, 25: 12, 27: 12, 29: 13,
                 31: 14, 32: 14}
MID_Q = {37: 15, 49: 18, 64: 22, 81: 26, 101: 30}

_found_sizes: dict[int, int] = {}  # every search output, for criterion 7


@pytest.fixture(scope="module")
def table():
    return bounds.default_table()


def test_criterion_1_exact_small_q_reproduction():
    """Dotted q <= 32: search finds the exact size, zero tolerance, <2 min."""
    t0 = time.monotonic()
    for q, t2 in EXACT_SMALL_Q.items():
        rep = search(SearchConfig(q=q, trials=100_000, master_seed=1))
        assert rep.best_size == t2, f"q={q}: found {rep.best_size}, want {t2}"
        _found_sizes[q] = rep.best_size
    elapsed = time.monotonic() - t0
    print(f"criterion 1: all {len(EXACT_SMALL_Q)} exact sizes in {elapsed:.1f}s")
    assert elapsed < 120


def test_criterion_2_mid_q_quality():
    """q in 37..101: within +2 of the tabulated size, <10 min."""
    t0 = time.monotonic()
    for q, t2 in MID_Q.items():
        rep = search(SearchConfig(q=q, trials=100_000, master_seed=1,
                                  target_size=t2 + 2))
        assert rep.best_size <= t2 + 2, f"q={q}: {rep.best_size} > {t2 + 2}"
        _found_sizes[q] = rep.best_size
    elapsed = time.monotonic() - t0
    print(f"criterion 2: five mid-q searches in {elapsed:.1f}s")
    assert elapsed < 600


def test_criterion_3_table_bit_exactness(table):
    """Recomputed A_q/B_q match 30 published rows bit-for-bit."""
    rows = [
        (2, 4, 1, 283), (3, 4, 2, 231), (4, 6, 2, 300), (9, 6, 6, 200),
        (32, 14, 8, 248), (101, 30, 10, 299), (256, 55, 9, 344),
        (625, 96, 4, 384), (661, 90, 12, 351), (841, 112, 4, 387),
        (853, 117, 14, 401), (857, 117, 0, 400), (961, 120, 4, 388),
        (1024, 124, 4, 388), (1369, 144, 4, 390), (2048, 199, 4, 440),
        (2187, 207, 3, 443), (2401, 192, 4, 392), (2621, 230, 0, 450),
        (2633, 231, 25, 451), (2693, 233, 0, 449), (2801, 238, 0, 450),
        (4096, 300, 20, 469), (5399, 352, 15, 480), (5407, 353, 14, 481),
        (6561, 395, 10, 488), (6859, 405, 9, 490), (8192, 449, 3, 497),
        (8353, 454, 2, 497), (9067, 476, 0, 500),
    ]
    assert len(rows) == 30
    for q, t2, big_a, b100 in rows:
        assert table.t2(q) == t2, q
        assert bounds.a_q_column(q, t2) == big_a, q
        assert bounds.b_q_hundredths(q, t2) == b100, q
    print("criterion 3: 30 spot rows bit-exact")


def test_criterion_4_theorem_bands(table):
    """Every inequality family holds over the full dataset, <1 s."""
    t0 = time.monotonic()
    violations = bounds.check_theorem_bands(table)
    elapsed = time.monotonic() - t0
    assert violations == []
    assert bounds.check_conjecture(table, "ln075") == []
    assert bounds.check_conjecture(table, "five_sqrt") == []
    print(f"criterion 4: zero violations in {elapsed:.3f}s")
    assert elapsed < 1.0


def test_criterion_5_observation_bands(table):
    """D/delta/P bands hold row-wise; recomputed average within 5e-4."""
    assert bounds.check_observations(table) == []
    avg = bounds.average_d(table)
    assert abs(avg - 0.95579) < 0.0005
    print(f"criterion 5: bands hold, average D = {avg:.5f}")


def test_criterion_6_oracle_equivalence():
    """Incremental coverage == scratch recomputation on 10^3 sequences;
    addable <=> uncovered, exhaustively, for q <= 8."""
    qs = [2, 3, 4, 5, 7, 8]
    per_q = 1000 // len(qs) + 1
    checked = 0
    for q in qs:
        pl = build_plane(field_of_order(q))
        n = pl.n_points
        tri = pl.triples_of_ids(np.arange(n))
        inc = pl.dot_triples(tri[:, None, :], tri[None, :, :]) == 0
        rng = np.random.default_rng(q)
        for _ in range(per_q):
            cov = Coverage(pl)
            while not cov.is_complete():
                cov.add(int(rng.choice(cov.uncovered_ids())))
                pts = cov.arc_points
                # scratch recomputation from the raw incidence relation
                scratch = np.zeros(n, dtype=bool)
                scratch[pts] = True
                per_line = inc[pts, :].sum(axis=0)
                for l in np.flatnonzero(per_line >= 2):
                    scratch[inc[:, l]] = True
                assert (cov.covered == scratch).all()
                assert cov.covered_count == int(scratch.sum())
                # uncovered count on every line through an arc point
                lines = np.flatnonzero(per_line >= 1)
                assert (cov.uncov_on_line[lines]
                        == (inc[:, lines] & ~scratch[:, None]).sum(axis=0)).all()
                # gains: scratch coverage of each one-point extension
                cands = np.flatnonzero(~scratch)
                if len(cands):
                    ext_sec = (per_line[None, :] + inc[cands, :]) >= 2
                    ext = (ext_sec.astype(np.int64) @ inc.T.astype(np.int64)) > 0
                    ext[:, pts] = True
                    ext[np.arange(len(cands)), cands] = True
                    assert (cov.gains(cands)
                            == ext.sum(axis=1) - cov.covered_count).all()
                # addable exactly when uncovered (exhaustive)
                for pid in range(n):
                    addable = (pid not in pts
                               and int(inc[[*pts, pid], :].sum(axis=0)
                                       .max()) <= 2)
                    assert addable == (not cov.covered[pid])
            checked += 1
    assert checked >= 1000
    print(f"criterion 6: {checked} sequences agree with scratch recomputation")


def test_criterion_7_conic_suite():
    """Conics are complete arcs for all odd prime q <= 101; every search
    output beats the lower bound."""
    for q in range(3, 102, 2):
        if not is_prime(q):
            continue
        pl = build_plane(field_of_order(q))
        f = pl.field
        ids = [pl.point_id([1, t, f.mul(t, t)]) for t in range(q)]
        ids.append(pl.point_id([0, 0, 1]))
        conic = Arc(pl, ids)
        assert verify_arc(conic), q
        ok, unc = verify_complete(conic)
        assert ok and unc == [], q
    if not _found_sizes:  # standalone run: produce some search outputs
        for q in (8, 13, 27, 49):
            rep = search(SearchConfig(q=q, trials=500, master_seed=3))
            _found_sizes[q] = rep.best_size
    for q, size in _found_sizes.items():
        assert size > bounds.lower_bound(q), q
        assert bounds.exceeds_lower_bound(q, size), q
    print(f"criterion 7: conics complete for odd prime q <= 101; "
          f"{len(_found_sizes)} search outputs beat the lower bound")


def test_criterion_8_q1024_certificate(tmp_path):
    """One verified search output at q = 1024 with size <= 135, <1 h."""
    t0 = time.monotonic()
    cfg = SearchConfig(q=1024, trials=24, master_seed=1,
                       candidate_policy="sample", sample_size=4096,
                       target_size=135, time_budget=3000)
    rep = search(cfg)
    assert rep.best_size <= 135, f"found {rep.best_size} > 135"
    _found_sizes[1024] = rep.best_size
    path = tmp_path / "q1024.arc"
    plane = _plane_for(cfg)
    write_certificate(Arc(plane, rep.best_points), path, complete=True)
    verdict = read_and_verify(path)
    assert verdict.is_arc and verdict.is_complete
    assert verdict.size == rep.best_size and verdict.q == 1024
    elapsed = time.monotonic() - t0
    print(f"criterion 8: size {rep.best_size} verified in {elapsed:.0f}s")
    assert elapsed < 3600


def test_criterion_9_determinism(capsys):
    """Byte-identical reports for repeated seeded runs; jobs=4 matches."""
    argv = ["search", "--q", "49", "--trials", "1000", "--seed", "7",
            "--jobs", "1"]
    assert main(argv) == 0
    out1 = capsys.readouterr().out
    assert main(argv) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2 and out1
    cfg = SearchConfig(q=49, trials=1000, master_seed=7)
    seq = search(cfg, jobs=1)
    par = search(cfg, jobs=4)
    assert par.best_size == seq.best_size
    assert par.summary() == seq.summary()
    assert f"best_size {seq.best_size}" in out1
    print(f"criterion 9: deterministic reports, best_size {seq.best_size}")

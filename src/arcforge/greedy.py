"""Randomized greedy search with restarts for small complete arcs.

Each trial seeds an arc with a few uniformly random (mutually legal) points,
then repeatedly adds the uncovered point covering the most new points, ties
broken uniformly at random, until no uncovered point remains.  Coverage
strictly grows, so every trial ends in a complete arc.  Restarts explore
independent per-trial RNG streams; the smallest verified arc wins.

Until an arc has five points every candidate covers exactly the same number
of new points (the first asymmetry comes from the diagonal points of a
quadrilateral of arc points), so the greedy objective only starts
discriminating at size five; the random seed prefix is therefore the main
diversity knob, and restarts cycle its length (``default_seed_cycle``) to
sweep both shallow and deep randomization.

A trial's randomness is a pure function of (master_seed, trial_index): each
step draws exactly one integer to pick from a canonically ordered candidate
pool, and ``search`` merges trials by index alone (its docstring states the
rule), so a search reports the same under any ``jobs``.  A time budget is
checked before every added point, so it holds inside a trial too: a trial
it interrupts yields no arc, and a search that has finished none raises
``BudgetExhausted``.  Without a budget nothing changes.

Scoring is exact but incremental.  A trial is the coverage kernel
``arc.Coverage`` plus an RNG and a candidate policy: the kernel counts the
uncovered points on every line through the current arc, one count per arc
point and pencil slot, so a candidate's gain is one plus the sum over the
lines joining it to each arc point (all tangents, pairwise meeting only at
the candidate) of their uncovered counts minus one.  The kernel finds those
lines' slots in a slot row it keeps for each arc point (computed from
coordinates where the rows do not fit), so scoring is mostly lookups.
There is one engine at every q and one table rule: a search on a plane
small enough for the dense incidence tables (q <= 109, any candidate policy)
builds them once, before the clock starts and before any worker process
forks, and the kernel then copies its slot rows from them instead of
translating them, with the same results.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import bounds
from .arc import Arc, Coverage, _covered
from .gf import factor_prime_power, field_of_order
from .plane import PlaneIndex, build_plane

_BLOCK_TRIALS = 64      # trials per worker between merges and checks


class BudgetExhausted(RuntimeError):
    """Wall-clock budget expired before any trial completed."""


def default_seed_cycle(q: int) -> tuple[int, ...]:
    """Restart schedule for the random-prefix length.

    Below five points every candidate covers the same number of new points
    (the first asymmetry needs the diagonal points of a quadrilateral), so
    prefixes shorter than 5 all act alike and the schedule starts there.
    Deep prefixes, up to one below the smallest tabulated size, reach the
    rare minimal arcs; the cap keeps the schedule from diluting large-q
    searches, where the deep end is useless.
    """
    row = bounds.default_table().get(q)
    top = row.t2 - 1 if row is not None else 12
    return tuple(range(5, max(min(top, 12), 5) + 1))


@dataclass
class SearchConfig:
    """Knobs for one search run."""

    q: int
    trials: int = 1
    master_seed: int = 0
    candidate_policy: str = "exact"  # "exact" scores all uncovered, "sample" a subset
    sample_size: int = 4096
    time_budget: float | None = None
    target_size: int | str | None = "auto"  # "auto": embedded table value for q

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.sample_size < 1:
            raise ValueError("sample_size must be >= 1")
        if self.time_budget is not None and not self.time_budget >= 0:
            raise ValueError("time_budget must be a number of seconds >= 0")
        if self.candidate_policy not in ("exact", "sample"):
            raise ValueError(f"unknown candidate policy {self.candidate_policy!r}")

    def seed_size_for(self, trial_index: int) -> int:
        cycle = default_seed_cycle(self.q)
        return cycle[trial_index % len(cycle)]

    def resolved_target(self) -> int | None:
        if self.target_size == "auto":
            row = bounds.default_table().get(self.q)
            return row.t2 if row is not None else None
        return self.target_size


@dataclass
class SearchReport:
    """Best verified complete arc found by a search, with provenance."""

    q: int
    best_size: int
    best_points: list[int]
    best_trial: int
    trials_run: int
    master_seed: int
    histogram: dict[int, int]
    elapsed: float
    budget_exhausted: bool = False

    def summary(self) -> str:
        """Stable text block: identical for identical (config, seed)."""
        hist = " ".join(f"{s}:{c}" for s, c in sorted(self.histogram.items()))
        lines = [
            f"q {self.q}",
            f"best_size {self.best_size}",
            f"best_trial {self.best_trial}",
            f"trials_run {self.trials_run}",
            f"seed {self.master_seed}",
            f"histogram {hist}",
        ]
        if self.budget_exhausted:
            lines.append("budget_exhausted 1")
        return "\n".join(lines) + "\n"


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Counter-based per-trial stream: identical under any scheduling."""
    return np.random.default_rng(np.random.SeedSequence([master_seed, trial_index]))


# ---------------------------------------------------------------------------
# one greedy trial (any q, exact or sampled candidates)
# ---------------------------------------------------------------------------

class _Trial(Coverage):
    """One greedy run: the coverage kernel plus its RNG and candidate policy."""

    def __init__(self, plane: PlaneIndex, cfg: SearchConfig,
                 rng: np.random.Generator, trial_index: int):
        super().__init__(plane)
        self.rng = rng
        self.cfg = cfg
        self.seed_arc_size = cfg.seed_size_for(trial_index)

    def select(self) -> int:
        cands = self._unc[:self._m]  # the kernel's own list, not copied
        size = self.cfg.sample_size
        if self.cfg.candidate_policy == "sample" and len(cands) > size:
            cands = np.sort(self.rng.choice(cands, size=size, replace=False))
        if len(self.arc_points) < self.seed_arc_size:
            pool = cands
        else:
            g = self.gains(cands)
            pool = cands[g == g.max()]
        return int(pool[self.rng.integers(len(pool))])

    def run(self, deadline: float | None) -> list[int] | None:
        """The complete arc's points, or None once ``deadline`` has passed."""
        while not self.is_complete():
            if deadline is not None and time.monotonic() > deadline:
                return None
            self.add(self.select())
        return self.arc_points


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def greedy_trial(plane: PlaneIndex, cfg: SearchConfig,
                 rng: np.random.Generator, trial_index: int = 0,
                 deadline: float | None = None) -> Arc | None:
    """One randomized greedy run; the result is complete by construction.

    The deadline (a ``time.monotonic()`` value) is checked before every
    added point; a trial it interrupts yields None.
    """
    points = _Trial(plane, cfg, rng, trial_index).run(deadline)
    return None if points is None else Arc(plane, points)


def _plane_for(cfg: SearchConfig) -> PlaneIndex:
    if factor_prime_power(cfg.q) is None:
        raise ValueError(f"q = {cfg.q} is not a prime power")
    return build_plane(field_of_order(cfg.q))


def _run_batch(plane: PlaneIndex, cfg: SearchConfig, indices: list[int],
               stop_at: int | None = None,
               deadline: float | None = None) -> list[list[int]]:
    """Points of the complete arcs of the given trials, in index order.

    ``stop_at`` ends the loop after the trial that lands a small-enough arc
    and ``deadline`` ends it inside the trial that runs out the clock,
    which yields no result; later indices are simply not computed, which
    the merge rule in ``search`` tolerates.
    """
    results = []
    for i in indices:
        rng = trial_rng(cfg.master_seed, i)
        points = _Trial(plane, cfg, rng, i).run(deadline)
        if points is None:
            break
        results.append(points)
        if stop_at is not None and len(points) <= stop_at:
            break
    return results


_worker_plane: PlaneIndex | None = None


def _init_worker(plane: PlaneIndex) -> None:
    """Pool initializer: under fork the worker inherits the plane and tables."""
    global _worker_plane
    _worker_plane = plane


def _worker_run(cfg: SearchConfig, indices: list[int], stop_at: int | None,
                deadline: float | None) -> list[list[int]]:
    """Process-pool entry point: one share of a block on the parent's plane."""
    return _run_batch(_worker_plane, cfg, indices, stop_at=stop_at,
                      deadline=deadline)


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, where there is one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def search(cfg: SearchConfig, jobs: int = 1,
           plane: PlaneIndex | None = None) -> SearchReport:
    """Run independent greedy trials and keep the smallest verified arc.

    Merge rule: trials count in index order, up to the first index that did
    not finish (the time budget ran out) or the first that reaches the
    target, whichever comes first; the best arc is the smallest of those,
    ties going to the lowest index.  Trial streams derive from (master_seed,
    index), so any ``jobs`` level yields the same report.  Each block of
    ``jobs * _BLOCK_TRIALS`` indices is dealt round-robin to the workers
    (run inline when ``jobs`` is 1).

    This is the one place a search is set up: the plane and, when they fit
    (``has_tables``), its dense tables are built here once, and with
    ``jobs > 1`` every worker starts from them.  The tables change a
    search's speed, not its arcs.  ``time_budget`` and ``elapsed`` count
    from after that build.  ``jobs`` is capped at the CPUs the process may
    use, since the pool starts all its workers at once.
    """
    if plane is None:
        plane = _plane_for(cfg)
    if plane.has_tables():
        plane.incidence_tables()
    jobs = min(max(jobs, 1), _usable_cpus())
    t0 = time.monotonic()
    target = cfg.resolved_target()
    block = jobs * _BLOCK_TRIALS
    deadline = None if cfg.time_budget is None else t0 + cfg.time_budget

    results: list[list[int]] = []
    hit = False
    pool = None
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=jobs, initializer=_init_worker,
                                   initargs=(plane,))
    try:
        for lo in range(0, cfg.trials, block):
            idxs = range(lo, min(lo + block, cfg.trials))
            chunks = [list(idxs[w::jobs]) for w in range(min(jobs, len(idxs)))]
            if pool is None:
                outs = [_run_batch(plane, cfg, chunks[0], stop_at=target,
                                   deadline=deadline)]
            else:
                futs = [pool.submit(_worker_run, cfg, c, target, deadline)
                        for c in chunks]
                outs = [f.result() for f in futs]
            for k in range(len(idxs)):
                out, j = outs[k % jobs], k // jobs  # index lo + k
                if j == len(out):  # its worker stopped before it
                    break
                results.append(out[j])
                hit = target is not None and len(out[j]) <= target
                if hit:
                    break
            if hit or len(results) < idxs.stop:
                break
    finally:
        if pool is not None:
            pool.shutdown()

    if not results:
        raise BudgetExhausted("time budget expired before any trial completed")
    # min keeps the first of equals: ties go to the lowest index
    best_trial = min(range(len(results)), key=lambda i: len(results[i]))
    best_points = results[best_trial]
    ok_complete, _ = _covered(Arc(plane, best_points))  # raises NotAnArc
    if not ok_complete:
        raise AssertionError("search produced an incomplete arc")

    return SearchReport(
        q=cfg.q, best_size=len(best_points), best_points=best_points,
        best_trial=best_trial, trials_run=len(results),
        master_seed=cfg.master_seed,
        histogram=dict(Counter(len(points) for points in results)),
        elapsed=time.monotonic() - t0,
        budget_exhausted=not hit and len(results) < cfg.trials,
    )

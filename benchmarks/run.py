"""End-to-end benchmark of ``arcforge search`` and ``arcforge verify``.

Usage (from the repository root):

    python3 benchmarks/run.py --workload search-table-q49 --seed 1 \
        --seconds 30 --trace 0

One process runs one workload as a closed loop with a single client: each
operation (one search or one verify) starts after the previous one ends, and
``--jobs`` stays 1.  The package is imported from ``src/`` next to this
directory, so nothing needs installing.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` is a separate run that wraps the layer entry points
(see ``tracing.py``) and prints the per-layer metrics.  Both print one line
per metric with its unit, then a single JSON object as the last line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


@dataclass(frozen=True)
class Workload:
    name: str
    q: int
    search_trials: int = 0        # trials of the fixed-count search; 0: verify
    policy: str = "exact"
    target_offset: int = 0        # time-to-target goal is t2 + offset
    target_seeds: int = 0         # consecutive seeds summed for time_to_target_s
    target_cap: int = 0           # trials a target search may use
    cert: str | None = None       # committed certificate, relative to HERE
    cert_sha256: str | None = None
    setup_probes: int = 7

    @property
    def is_search(self) -> bool:
        return self.search_trials > 0


WORKLOADS = {w.name: w for w in [
    # table engine: the table build dominates set-up, trials are lookups
    Workload("search-table-q49", 49, search_trials=256, target_offset=1,
             target_seeds=4, target_cap=4096, setup_probes=3),
    # per-trial engine on a characteristic-2 extension, the add-step regime
    Workload("search-exact-q256", 256, search_trials=3, target_offset=2,
             target_seeds=1, target_cap=16),
    # independent verifier only, no greedy work
    Workload("verify-q1024", 1024, cert="data/verify_q1024.arc",
             cert_sha256="116ac00038606d79b439f1fca10855ae2b74e2b6d07a0fa0525f81a289997990"),
    # tiny versions of the three, for the harness smoke test
    Workload("smoke-table-q7", 7, search_trials=16, target_offset=1,
             target_seeds=2, target_cap=256, setup_probes=1),
    Workload("smoke-trial-q8", 8, search_trials=4, policy="sample",
             target_offset=1, target_seeds=1, target_cap=64, setup_probes=1),
    Workload("smoke-verify-q7", 7, cert="data/smoke_q7.arc",
             cert_sha256="bbc615e12268452a61f23c4bad286d3b0a68abe2e230746afdfc3499595d65e5",
             setup_probes=1),
]}

# Every end-to-end metric is measured on every workload (the JSON result).
END_TO_END = {"setup_s": "s", "op_s": "s", "best_size": "count",
              "peak_rss_mb": "MB"}
# Metrics that only some workloads have; printed by name, "n/a" elsewhere.
REPORTED = {"trials_per_s": "1/s", "time_to_target_s": "s", "verify_s": "s",
            "failed_ratio": "ratio"}

PER_LAYER = {
    "gf.field_build_s": "s", "gf.mul_arr.elems": "count",
    "gf.mul_arr.self_s": "s", "gf.mul_arr.ns_per_elem": "ns",
    "gf.inv_arr.elems": "count", "gf.inv_arr.self_s": "s",
    "plane.incidence_tables_s": "s", "plane.tables_mb": "MB",
    "plane.join_ids.pairs": "count", "plane.join_ids.self_s": "s",
    "plane.points_on_lines_arr.lines": "count",
    "plane.points_on_lines_arr.self_s": "s",
    "arc.verify_complete_s": "s", "arc.verify_complete.lines": "count",
    "greedy.trials": "count", "greedy.steps": "count",
    "greedy.select.self_s": "s", "greedy.gains.self_s": "s",
    "greedy.gains.candidates": "count", "greedy.add.self_s": "s",
    "greedy.run_batch.self_s": "s", "greedy.run_batch.calls": "count",
    "greedy.target_hit_ratio": "ratio",
    "certify.read_certificate_s": "s", "certify.write_certificate_s": "s",
    "bounds.default_table_s": "s", "bounds.lower_bound_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s", "trace.overhead_ratio": "ratio",
}


class CheckFailed(RuntimeError):
    """An operation returned a wrong or unverifiable result."""


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def import_arcforge():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "arcforge" / "__init__.py").is_file():
        sys.exit(f"error: no arcforge package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import arcforge
    if Path(arcforge.__file__).resolve().parent != SRC / "arcforge":
        sys.exit(f"error: imported arcforge from {arcforge.__file__}")
    return arcforge


def setup(wl: Workload) -> dict:
    """Everything before the first timed operation."""
    import_arcforge()
    from arcforge import bounds, greedy
    state = {"table": bounds.default_table()}
    if wl.is_search:
        cfg = greedy.SearchConfig(q=wl.q, candidate_policy=wl.policy)
        plane = greedy._plane_for(cfg)
        if wl.policy == "exact" and plane.has_tables():
            plane.incidence_tables()
        state["plane"] = plane
        state["target"] = state["table"].t2(wl.q) + wl.target_offset
    else:
        path = HERE / wl.cert
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if digest != wl.cert_sha256:
            raise CheckFailed(f"{wl.cert}: sha256 {digest} does not match")
        state["cert"] = path
    return state


def probe_setup(wl: Workload) -> float:
    """Wall seconds from starting a fresh interpreter to the end of set-up."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload", wl.name,
         "--setup-probe"], stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.read()
    if proc.wait() != 0 or line.strip() != "ready":
        raise CheckFailed(f"set-up probe exited with {proc.returncode}")
    return elapsed


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def cli_verify(path: Path) -> tuple[float, dict[str, str]]:
    """One in-process ``arcforge verify``; returns (seconds, parsed stdout)."""
    from arcforge import cli
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["verify", str(path)])
    dt = time.perf_counter() - t0
    fields = dict(line.split(": ", 1) for line in buf.getvalue().splitlines())
    if rc != 0 or fields.get("arc") != "yes" or fields.get("complete") != "yes":
        raise CheckFailed(f"verify {path.name}: exit {rc}, output {fields}")
    return dt, fields


def run_search(wl: Workload, state: dict, seed: int, trials: int,
               target: int | None):
    from arcforge import greedy
    cfg = greedy.SearchConfig(q=wl.q, trials=trials, master_seed=seed,
                              candidate_policy=wl.policy, target_size=target)
    t0 = time.perf_counter()
    report = greedy.search(cfg, plane=state["plane"])
    return time.perf_counter() - t0, report


def check_search(wl: Workload, state: dict, report, seed: int) -> float:
    """Write the best arc's certificate and verify it from scratch."""
    from arcforge import certify
    from arcforge.arc import Arc
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{wl.name}-seed{seed}.arc"
    certify.write_certificate(Arc(state["plane"], report.best_points), path,
                              complete=True)
    dt, fields = cli_verify(path)
    if int(fields["size"]) != report.best_size:
        raise CheckFailed(f"verified size {fields['size']} != {report.best_size}")
    if state.setdefault("summary", report.summary()) != report.summary():
        raise CheckFailed("repeat of one seed gave a different summary")
    return dt


class Loop:
    """Counts operations; a failed one is reported and the run goes on."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    @contextlib.contextmanager
    def op(self):
        self.attempted += 1
        try:
            yield
        except Exception:
            self.failed += 1
            traceback.print_exc()


def cycle(wl: Workload, state: dict, seed: int, loop: Loop, samples: dict):
    """One timed operation plus its output check."""
    with loop.op():
        if wl.is_search:
            dt, report = run_search(wl, state, seed, wl.search_trials, None)
            samples["op_s"].append(dt)
            samples["best_size"].append(report.best_size)
            samples["reports"].append(report)
            samples["verify_s"].append(check_search(wl, state, report, seed))
        else:
            dt, fields = cli_verify(state["cert"])
            samples["op_s"].append(dt)
            samples["verify_s"].append(dt)
            samples["best_size"].append(int(fields["size"]))


def measure(wl: Workload, state: dict, seed: int, seconds: float, loop: Loop,
            samples: dict) -> None:
    """Time-to-target searches, then repeated operations until time is up."""
    t_start = time.perf_counter()
    if wl.is_search:
        total = 0.0
        for s in range(seed, seed + wl.target_seeds):
            with loop.op():
                dt, report = run_search(wl, state, s, wl.target_cap,
                                        state["target"])
                if report.best_size > state["target"]:
                    raise CheckFailed(f"seed {s} missed target "
                                      f"{state['target']} in {wl.target_cap} trials")
                total += dt
        samples["time_to_target_s"].append(total)
    while True:
        t0 = time.perf_counter()
        cycle(wl, state, seed, loop, samples)
        last = time.perf_counter() - t0
        if time.perf_counter() - t_start + last > seconds:
            break


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def provenance(seed: int) -> dict:
    import numpy
    cpu = platform.machine() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": git_commit(), "seed": seed}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(wl: Workload, samples: dict, setup_s: list[float],
               loop: Loop) -> tuple[dict, dict]:
    if not samples["op_s"]:
        raise CheckFailed("no operation completed")
    op_s = statistics.median(samples["op_s"])
    metrics = {"setup_s": statistics.median(setup_s), "op_s": op_s,
               "best_size": min(samples["best_size"]),
               "peak_rss_mb": peak_rss_mb()}
    reported = {
        "trials_per_s": wl.search_trials / op_s if wl.is_search else None,
        "time_to_target_s": (samples["time_to_target_s"][0]
                             if samples["time_to_target_s"] else None),
        "verify_s": (statistics.median(samples["verify_s"])
                     if samples["verify_s"] else None),
        "failed_ratio": loop.failed / loop.attempted,
    }
    return metrics, reported


def per_layer(tracer, reports: list, target: int | None, n_cycles: int,
              overhead: tuple[float, float]) -> dict:
    """Set-up spans once plus the mean over traced operations."""
    setup = tracer.totals(setup=True)
    ops = tracer.totals(setup=False)

    def get(name, key):
        return (setup.get(name, {}).get(key, 0)
                + ops.get(name, {}).get(key, 0) / n_cycles)

    mul_elems = get("gf.mul_arr", "n")
    trials = sum(r.trials_run for r in reports) / n_cycles
    steps = sum(s * c for r in reports for s, c in r.histogram.items()) / n_cycles
    hits = sum(c for r in reports for s, c in r.histogram.items()
               if target is not None and s <= target) / n_cycles
    tables = max(setup.get("plane.incidence_tables", {}).get("n_max", 0),
                 ops.get("plane.incidence_tables", {}).get("n_max", 0))
    traced, untraced = overhead
    return {
        "gf.field_build_s": get("gf.Field.__init__", "wall_s"),
        "gf.mul_arr.elems": mul_elems,
        "gf.mul_arr.self_s": get("gf.mul_arr", "self_s"),
        "gf.mul_arr.ns_per_elem": (get("gf.mul_arr", "self_s") / mul_elems * 1e9
                                   if mul_elems else 0.0),
        "gf.inv_arr.elems": get("gf.inv_arr", "n"),
        "gf.inv_arr.self_s": get("gf.inv_arr", "self_s"),
        "plane.incidence_tables_s": get("plane.incidence_tables", "wall_s"),
        "plane.tables_mb": tables / 1e6,
        "plane.join_ids.pairs": get("plane.join_ids", "n"),
        "plane.join_ids.self_s": get("plane.join_ids", "self_s"),
        "plane.points_on_lines_arr.lines": get("plane.points_on_lines_arr", "n"),
        "plane.points_on_lines_arr.self_s": get("plane.points_on_lines_arr",
                                                "self_s"),
        "arc.verify_complete_s": get("arc.verify_complete", "wall_s"),
        "arc.verify_complete.lines": get("arc.verify_complete", "n"),
        "greedy.trials": trials,
        "greedy.steps": steps,
        "greedy.select.self_s": get("greedy.select", "self_s"),
        "greedy.gains.self_s": get("greedy.gains", "self_s"),
        "greedy.gains.candidates": get("greedy.gains", "n"),
        "greedy.add.self_s": get("greedy.add", "self_s"),
        "greedy.run_batch.self_s": get("greedy.run_batch", "self_s"),
        "greedy.run_batch.calls": get("greedy.run_batch", "calls"),
        "greedy.target_hit_ratio": hits / trials if trials else 0.0,
        "certify.read_certificate_s": get("certify.read_certificate", "wall_s"),
        "certify.write_certificate_s": get("certify.write_certificate", "wall_s"),
        "bounds.default_table_s": get("bounds.default_table", "wall_s"),
        "bounds.lower_bound_s": get("bounds.lower_bound", "wall_s"),
        "cli.main.self_s": get("cli.main", "self_s"),
        "trace.overhead_s": traced - untraced,
        "trace.overhead_ratio": (traced - untraced) / untraced,
    }


def fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def untraced_run(wl: Workload, seed: int, seconds: float):
    setup_s = [probe_setup(wl) for _ in range(wl.setup_probes)]
    state = setup(wl)
    loop = Loop()
    samples = {k: [] for k in ("op_s", "best_size", "reports", "verify_s",
                               "time_to_target_s")}
    measure(wl, state, seed, seconds, loop, samples)
    metrics, reported = end_to_end(wl, samples, setup_s, loop)
    lines = [f"{k} {fmt(v)} {END_TO_END[k]}" for k, v in metrics.items()]
    lines += [f"{k} {fmt(v)} {REPORTED[k]}" for k, v in reported.items()]
    lines.append(f"samples setup={len(setup_s)} op={len(samples['op_s'])} "
                 f"verify={len(samples['verify_s'])}")
    return loop, metrics, lines, {"reported": reported, "setup_samples": setup_s,
                                  "op_samples": samples["op_s"]}


def traced_run(wl: Workload, seed: int, seconds: float):
    """Untraced and traced operations alternate; set-up is traced once."""
    from tracing import Tracer  # beside this script, first on sys.path
    tracer = Tracer()
    tracer.install()
    state = setup(wl)
    tracer.uninstall()
    loop = Loop()
    untraced = {k: [] for k in ("op_s", "best_size", "reports", "verify_s")}
    traced = {k: [] for k in ("op_s", "best_size", "reports", "verify_s")}
    t_start = time.perf_counter()
    n = 0
    while True:
        t0 = time.perf_counter()
        cycle(wl, state, seed, loop, untraced)
        n += 1
        tracer.run = f"op{n}"
        tracer.install()
        try:
            cycle(wl, state, seed, loop, traced)
        finally:
            tracer.uninstall()
        last = time.perf_counter() - t0
        if time.perf_counter() - t_start + last > seconds:
            break
    if not traced["op_s"] or not untraced["op_s"]:
        raise CheckFailed("no operation completed")
    overhead = (statistics.median(traced["op_s"]),
                statistics.median(untraced["op_s"]))
    metrics = per_layer(tracer, traced["reports"], state.get("target"),
                        len(traced["op_s"]), overhead)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{wl.name}-seed{seed}.jsonl"
    tracer.write(spans_path)
    lines = [f"{k} {fmt(v)} {PER_LAYER[k]}" for k, v in metrics.items()]
    lines.append(f"samples traced={len(traced['op_s'])} "
                 f"untraced={len(untraced['op_s'])} spans={len(tracer.spans)}")
    lines.append("absent " + (" ".join(tracer.absent) or "none"))
    return loop, metrics, lines, {"absent": tracer.absent,
                                  "spans": str(spans_path.relative_to(ROOT))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, print 'ready' and exit (times setup_s)")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    if args.setup_probe:
        setup(wl)
        print("ready", flush=True)
        return 0

    import_arcforge()
    run = traced_run if args.trace else untraced_run
    loop, metrics, lines, extra = run(wl, args.seed, args.seconds)
    units = PER_LAYER if args.trace else END_TO_END
    record = {"workload": wl.name, "trace": args.trace,
              "provenance": provenance(args.seed),
              "attempted": loop.attempted, "failed": loop.failed,
              "metrics": metrics, **extra}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    print(f"workload {wl.name}")
    print("provenance " + json.dumps(record["provenance"]))
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": loop.failed == 0, "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

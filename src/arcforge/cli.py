"""Command-line surface: search, verify, bounds, table, stats.

Exit codes: 0 success/verified, 1 verification failure or band violation,
2 usage or parse errors.  Human-readable output goes to stdout and is
deterministic for a fixed seed (timing goes to stderr); machine output is
written only via --out / --csv.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import bounds, certify, greedy
from .arc import Arc
from .gf import factor_prime_power
from .plane import MemoryBudgetExceeded


def _build_parser() -> argparse.ArgumentParser:
    # no prefix matching: an unknown flag such as --h must fail, not
    # silently resolve to --help or another option
    ap = argparse.ArgumentParser(
        prog="arcforge", allow_abbrev=False,
        description="search for and verify small complete arcs in PG(2,q)")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, allow_abbrev=False, **kw)

    s = add_parser("search", help="randomized greedy search for one q")
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--trials", type=int, default=10_000)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--target", type=int,
                   help="early-stop size (default: tabulated value for q)")
    s.add_argument("--out", help="write the best arc as a certificate file")
    s.add_argument("--jobs", type=int, default=1,
                   help="worker processes, capped at the CPUs this process "
                        "may use")
    s.add_argument("--policy", choices=["exact", "sample"],
                   default=greedy.SearchConfig.candidate_policy)
    s.add_argument("--sample-size", type=int, default=greedy.SearchConfig.sample_size)
    s.add_argument("--time-budget", type=float,
                   help="wall-clock cap in seconds; it starts after the "
                        "plane and its tables are built, which happens once "
                        "for any --jobs")

    v = add_parser("verify", help="independently verify a certificate")
    v.add_argument("file")

    b = add_parser("bounds", help="bounds and statistics for one q")
    b.add_argument("--q", type=int, required=True)

    t = add_parser("table", help="print tabulated rows in a q range")
    t.add_argument("--range", type=int, nargs=2, metavar=("A", "B"),
                   required=True)

    st = add_parser("stats", help="normalized-size statistics and CSV")
    defaults = bounds.stats_rows.__kwdefaults__
    st.add_argument("--c", type=float, default=defaults["c"])
    st.add_argument("--qmin", type=int, default=defaults["q_min"])
    st.add_argument("--csv", help="write per-q rows to this file")
    return ap


def cmd_search(args) -> int:
    try:
        cfg = greedy.SearchConfig(
            q=args.q, trials=args.trials, master_seed=args.seed,
            candidate_policy=args.policy, sample_size=args.sample_size,
            time_budget=args.time_budget,
            target_size=args.target if args.target is not None else "auto")
        if args.jobs < 1:
            raise ValueError("--jobs must be >= 1")
        plane = greedy._plane_for(cfg)
        if args.out == "":
            raise ValueError("--out needs a file name")
        if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
            raise ValueError(f"no directory to write {args.out} into")
    except (ValueError, MemoryBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = greedy.search(cfg, jobs=args.jobs, plane=plane)
    except greedy.BudgetExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(report.summary())
    print(f"elapsed {report.elapsed:.2f}s", file=sys.stderr)
    if args.out:
        try:
            certify.write_certificate(Arc(plane, report.best_points), args.out,
                                      complete=True)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"certificate written to {args.out}", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    try:
        rep = certify.read_and_verify(args.file)
    except (OSError, certify.ParseError, certify.ReducibleModulus,
            certify.DuplicatePoint, certify.ZeroTriple,
            MemoryBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    lb = bounds.lower_bound(rep.q)
    row = bounds.default_table().get(rep.q)
    print(f"arc: {'yes' if rep.is_arc else 'no'}")
    print(f"complete: {'yes' if rep.is_complete else 'no'}")
    print(f"size: {rep.size}")
    print(f"q: {rep.q}")
    print(f"lower_bound: {lb:.3f}")
    if row is not None:
        mark = "=" if row.exact else "~"
        print(f"best_known: {mark}{row.t2}")
    failed = not rep.is_arc
    if rep.claimed_complete and not rep.is_complete:
        print("claimed complete but is not", file=sys.stderr)
        failed = True
    if ((rep.claimed_complete or rep.is_complete)
            and not bounds.exceeds_lower_bound(rep.q, rep.size)):
        print(f"size {rep.size} does not exceed the lower bound {lb:.3f}",
              file=sys.stderr)
        failed = True
    return 1 if failed else 0


def cmd_bounds(args) -> int:
    q = args.q
    if factor_prime_power(q) is None:
        print(f"error: q = {q} is not a prime power", file=sys.stderr)
        return 2
    row = bounds.default_table().get(q)
    print(f"q: {q}")
    print(f"lower_bound: {bounds.lower_bound(q):.3f}")
    try:
        a = bounds.multiplier_a_q(q)
        print(f"a_q: {a:g}" if a is not None else "a_q: undefined")
    except bounds.OutOfRange:
        print("a_q: out of tabulated range")
    if row is None:
        print("t2: not tabulated")
        return 0
    rec = bounds.compute_record(row.q, row.t2, row.exact)
    print(f"t2: {row.t2}{' (exact)' if row.exact else ''}")
    print(f"A_q: {rec.big_a if rec.big_a is not None else ''}")
    print(f"B_q: {rec.big_b:.2f}")
    print(f"D_0.75: {rec.d075:.6g}")
    print(f"t_hat: {rec.t_hat:.6g}")
    print(f"delta: {rec.delta:.6g}")
    print(f"P_pct: {rec.p_pct:.6g}")
    return 0


def cmd_table(args) -> int:
    lo, hi = args.range
    table = bounds.default_table()
    rows = [table.get(q) for q in table.qs() if lo <= q <= hi]
    if not rows:
        print(f"error: no tabulated q in [{lo}, {hi}]", file=sys.stderr)
        return 2
    print("q t2 exact A_q B_q")
    for r in rows:
        rec = bounds.compute_record(r.q, r.t2, r.exact)
        print(f"{r.q} {r.t2} {'*' if r.exact else '-'} "
              f"{rec.big_a if rec.big_a is not None else '-'} {rec.big_b:.2f}")
    return 0


def cmd_stats(args) -> int:
    table = bounds.default_table()
    try:
        rows = bounds.stats_rows(table, c=args.c, q_min=args.qmin)
        if not rows:
            raise ValueError(f"no tabulated q >= {args.qmin}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.csv is not None:
        try:
            with open(args.csv, "w", encoding="ascii", newline="") as out:
                bounds.emit_stats_csv(out, rows, c=args.c)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {len(rows)} rows to {args.csv}", file=sys.stderr)
    avg = sum(r.d075 for r in rows) / len(rows)
    print(f"rows: {len(rows)}")
    print(f"q_range: {rows[0].q}..{rows[-1].q}")
    print(f"average_D: {avg:.6g}")
    # the bands are stated for the default statistics rows, which
    # check_observations reads itself whatever --c and --qmin say
    bad = bounds.check_observations(table)
    print(f"band_violations: {len(bad)}")
    for v in bad[:20]:
        print(f"  q={v.q}: {v.band}")
    return 1 if bad else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "search": cmd_search,
        "verify": cmd_verify,
        "bounds": cmd_bounds,
        "table": cmd_table,
        "stats": cmd_stats,
    }
    try:
        return handlers[args.command](args)
    except bounds.TableError as exc:  # a bad ARCFORGE_TABLE_PATH file
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

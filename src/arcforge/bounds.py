"""Closed-form bounds, the reference size table, and derived statistics.

The embedded dataset maps each prime power q <= 9109 to the smallest known
size t2(q) of a complete arc in PG(2,q) (exact values are flagged for
q <= 32).  On top of it live:

  * the lower bound every complete arc must beat,
  * the per-q multiplier a_q in {4, 4.5, 5} and the derived columns
    A_q = floor(a_q*sqrt(q) - t2) and B_q = t2/sqrt(q) rounded UP to two
    decimals (both computed in exact integer arithmetic),
  * inequality band families over the whole table (checked, not proved),
  * normalized-size statistics D_q(c) = t2/(sqrt(q)*ln^c q), the predicted
    size t_hat = 0.95579*sqrt(q)*ln^0.75 q, and the deviations delta and
    P_pct, with their oscillation bands and CSV emission.

Natural logarithms throughout.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, replace
from functools import lru_cache
from importlib import resources
from pathlib import Path

from .gf import factor_prime_power

TABLE_ENV_VAR = "ARCFORGE_TABLE_PATH"

# average of D_q(0.75) over the statistics range; used as the prediction
# constant, pinned rather than recomputed (average_d audits it)
D_AVER = 0.95579

Q_SET = frozenset({961, 1024, 1369, 1681, 2401})

# q values with sizes below 4.5*sqrt(q) in the 4.8/5 region
SPORADIC_45 = frozenset({2659, 2663, 2683, 2693, 2753, 2801})

# statistics exclusion list: q whose tabulated sizes come from algebraic
# constructions or otherwise fall outside the oscillation bands
DEFAULT_EXCLUDE = frozenset(
    Q_SET | {857} | SPORADIC_45 | {601, 661, 729, 841, 9011})


class OutOfRange(ValueError):
    """q outside the range the tables or multipliers cover."""


class TableError(ValueError):
    """The size table cannot be read or parsed; the message names its path."""


@dataclass(frozen=True)
class TableRow:
    q: int
    t2: int
    exact: bool


class KnownTable:
    """The reference q -> smallest-known-size map."""

    def __init__(self, rows: dict[int, TableRow]):
        self.rows = rows

    def __len__(self):
        return len(self.rows)

    def get(self, q: int) -> TableRow | None:
        return self.rows.get(q)

    def t2(self, q: int) -> int:
        row = self.rows.get(q)
        if row is None:
            raise OutOfRange(f"q = {q} not in the reference table")
        return row.t2

    def qs(self) -> list[int]:
        return sorted(self.rows)


def load_table(path: str | None = None) -> KnownTable:
    """Parse the size table: lines `q t2 exact(0|1) table(1-5)`, # comments.

    Any fault in reading or parsing it raises TableError naming the path.
    """
    if path is None:
        path = os.environ.get(TABLE_ENV_VAR)
    source = (resources.files("arcforge") / "data" / "known_sizes.txt"
              if path is None else Path(path))
    rows: dict[int, TableRow] = {}
    try:
        text = source.read_text(encoding="ascii")
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: expected 4 columns, got {len(parts)}")
            # plain ASCII digits only: int() would also take a sign or "4_0"
            if not all(x.isascii() and x.isdigit() for x in parts):
                raise ValueError(f"line {lineno}: expected 4 unsigned integers")
            q, t2, exact, tid = map(int, parts)
            if exact not in (0, 1) or not 1 <= tid <= 5 or t2 < 3:
                raise ValueError(f"line {lineno}: t2 must be >= 3, exact 0 or "
                                 "1 and table 1-5")
            if q in rows:
                raise ValueError(f"line {lineno}: duplicate q = {q}")
            rows[q] = TableRow(q, t2, bool(exact))
        if not rows:
            raise ValueError("no rows")
    except (OSError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        raise TableError(f"size table {source}: {exc}") from None
    return KnownTable(rows)


@lru_cache(maxsize=4)
def _cached_table(path: str | None) -> KnownTable:
    return load_table(path)


def default_table() -> KnownTable:
    return _cached_table(os.environ.get(TABLE_ENV_VAR))


# ---------------------------------------------------------------------------
# closed-form bounds and derived columns
# ---------------------------------------------------------------------------

def lower_bound(q: int) -> float:
    """Size every complete arc strictly exceeds: sqrt(2q)+1, and
    sqrt(3q)+1/2 when the extension degree is at most 3."""
    ph = factor_prime_power(q)
    if ph is None:
        raise ValueError(f"q = {q} is not a prime power")
    h = ph[1]
    lb = math.sqrt(2 * q) + 1
    if h <= 3:
        lb = max(lb, math.sqrt(3 * q) + 0.5)
    return lb


def exceeds_lower_bound(q: int, size: int) -> bool:
    """size > lower_bound(q), decided in exact integer arithmetic."""
    ph = factor_prime_power(q)
    if ph is None:
        raise ValueError(f"q = {q} is not a prime power")
    ok2 = (size - 1) > 0 and (size - 1) ** 2 > 2 * q
    if ph[1] > 3:
        return ok2
    ok3 = (2 * size - 1) > 0 and (2 * size - 1) ** 2 > 12 * q
    return ok2 and ok3


def multiplier_a_q(q: int) -> float | None:
    """The per-table multiplier in {4, 4.5, 5}; None above 9067.

    857 is special-cased to 4 so the derived A_q column matches the
    published one (its size 117 lies below 4*sqrt(857)).
    """
    if not 2 <= q <= 9109:
        raise OutOfRange(f"multiplier defined for 2 <= q <= 9109, got {q}")
    if q <= 841 or q in Q_SET or q == 857:
        return 4.0
    if 853 <= q <= 2621 or q in SPORADIC_45:
        return 4.5
    if 2623 <= q <= 9067:
        return 5.0
    return None


def _mult_numer(q: int) -> int | None:
    a = multiplier_a_q(q)
    return None if a is None else int(round(2 * a))  # 8, 9 or 10


def a_q_column(q: int, t2: int) -> int | None:
    """floor(a_q*sqrt(q) - t2), exact integer arithmetic."""
    k = _mult_numer(q)
    if k is None:
        return None
    return math.isqrt(k * k * q) // 2 - t2


def b_q_hundredths(q: int, t2: int) -> int:
    """Least n with n/100 >= t2/sqrt(q), i.e. smallest n with n^2*q >= 10^4*t2^2."""
    m = 10_000 * t2 * t2
    n = math.isqrt(m // q)
    while n * n * q < m:
        n += 1
    return n


def d_value(q: int, t2: int, c: float = 0.75) -> float:
    """Normalized size t2 / (sqrt(q) * ln^c q)."""
    return t2 / (math.sqrt(q) * math.log(q) ** c)


def predicted_size(q: int) -> float:
    """t_hat = D_AVER * sqrt(q) * ln^0.75 q."""
    return D_AVER * math.sqrt(q) * math.log(q) ** 0.75


@dataclass(frozen=True)
class BoundRecord:
    """One q row with every derived column."""

    q: int
    t2: int
    exact: bool
    a_q: float | None
    big_a: int | None        # floor(a_q*sqrt(q) - t2)
    big_b: float             # t2/sqrt(q) rounded up to 2 decimals
    d075: float              # D_q(0.75)
    t_hat: float
    delta: float             # t2 - t_hat
    p_pct: float             # 100*delta/t2


def compute_record(q: int, t2: int, exact: bool = False) -> BoundRecord:
    if t2 < 3:
        raise ValueError(f"t2 = {t2} below the minimum conceivable size")
    t_hat = predicted_size(q)
    delta = t2 - t_hat
    return BoundRecord(
        q=q, t2=t2, exact=exact,
        a_q=multiplier_a_q(q),
        big_a=a_q_column(q, t2),
        big_b=b_q_hundredths(q, t2) / 100.0,
        d075=d_value(q, t2),
        t_hat=t_hat,
        delta=delta,
        p_pct=100.0 * delta / t2,
    )


# ---------------------------------------------------------------------------
# inequality band families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    band: str
    q: int
    t2: int


# (label, op, 10*coefficient, offset, q_lo, q_hi, extra q values)
# op is "<" or "<="; the bound is (coeff/10)*sqrt(q) - offset
_S45 = tuple(sorted(SPORADIC_45))
_Q = tuple(sorted(Q_SET))
SQRT_BANDS: tuple = (
    ("t2 < 4.5*sqrt(q)", "<", 45, 0, 2, 2621, _S45),
    ("t2 < 4.8*sqrt(q)", "<", 48, 0, 2, 5399,
     (5413, 5417, 5419, 5441, 5443, 5471, 5483, 5501, 5521)),
    ("t2 < 5*sqrt(q)", "<", 50, 0, 2, 9067, ()),
    ("t2 < 4*sqrt(q)", "<", 40, 0, 2, 841, (857,) + _Q),
    ("t2 <= 3*sqrt(q)", "<=", 30, 0, 2, 89, (101,)),
    ("t2 < 3.5*sqrt(q)", "<", 35, 0, 2, 277, ()),
    ("t2 < 3.6*sqrt(q)", "<", 36, 0, 2, 349, (359, 661)),
    ("t2 < 3.7*sqrt(q)", "<", 37, 0, 2, 419, (601, 661)),
    ("t2 < 3.8*sqrt(q)", "<", 38, 0, 2, 541, (601, 661)),
    ("t2 < 3.9*sqrt(q)", "<", 39, 0, 2, 673, (729, 961, 1024)),
    ("t2 <= 4*sqrt(q)-9", "<=", 40, 9, 37, 211,
     (23, 227, 229, 233, 241, 243, 256, 257, 661)),
    ("t2 <= 4*sqrt(q)-8", "<=", 40, 8, 23, 307, (317, 343, 601, 661)),
    ("t2 <= 4*sqrt(q)-7", "<=", 40, 7, 19, 373, (383, 401, 601, 661)),
    ("t2 <= 4*sqrt(q)-6", "<=", 40, 6, 9, 433, (443, 463, 601, 661)),
    ("t2 <= 4*sqrt(q)-5", "<=", 40, 5, 8, 499,
     (509, 512, 521, 523, 529, 541, 601, 661)),
    ("t2 <= 4*sqrt(q)-4", "<=", 40, 4, 7, 557,
     (569, 571, 577, 601, 625, 661, 729, 841) + _Q),
    ("t2 < 4*sqrt(q)-3", "<", 40, 3, 7, 643, (653, 661, 729, 841) + _Q),
    ("t2 <= 4*sqrt(q)-2", "<=", 40, 2, 3, 691, (709, 719, 729, 841) + _Q),
    ("t2 < 4*sqrt(q)-1", "<", 40, 1, 2, 761, (773, 787, 841) + _Q),
    ("t2 < 4.1*sqrt(q)", "<", 41, 0, 2, 1031, (1039, 1069, 1369, 1681, 2401)),
    ("t2 < 4.2*sqrt(q)", "<", 42, 0, 2, 1289,
     (1297, 1301, 1303, 1319, 1331, 1369, 1681, 2401)),
    ("t2 < 4.3*sqrt(q)", "<", 43, 0, 2, 1627, (1657, 1663, 1681, 1697, 2401)),
    ("t2 < 4.4*sqrt(q)", "<", 44, 0, 2, 2053,
     (2069, 2087, 2089, 2111, 2113, 2129, 2131, 2401)),
    ("t2 < 4.5*sqrt(q)-13", "<", 45, 13, 853, 997,
     (1013, 1019, 1024, 1031, 1039, 1069, 1097, 1369, 1681, 2401)),
    ("t2 < 4.5*sqrt(q)-12", "<", 45, 12, 853, 1151, (1163, 1187, 1369, 1681, 2401)),
    ("t2 < 4.5*sqrt(q)-11", "<", 45, 11, 853, 1259,
     (1283, 1289, 1297, 1301, 1303, 1319, 1331, 1361, 1369, 1681, 2401)),
    ("t2 < 4.5*sqrt(q)-10", "<", 45, 10, 853, 1399, (1429, 1433, 1447, 1681, 2401)),
    ("t2 < 4.5*sqrt(q)-9", "<", 45, 9, 853, 1553,
     (1567, 1571, 1583, 1601, 1681, 2401)),
    ("t2 < 4.5*sqrt(q)-8", "<", 45, 8, 853, 1663, (1681, 1693, 1697, 1709, 2401)),
    ("t2 < 4.5*sqrt(q)-7", "<", 45, 7, 853, 1789, (1811, 1823, 2401)),
    ("t2 < 4.5*sqrt(q)-6", "<", 45, 6, 853, 1873, (1879, 1889, 1901, 1907, 2401)),
    ("t2 < 4.5*sqrt(q)-5", "<", 45, 5, 853, 2003, (2017, 2039, 2401)),
    ("t2 < 4.5*sqrt(q)-4", "<", 45, 4, 853, 2143, (2161, 2179, 2401)),
    ("t2 < 4.5*sqrt(q)-3", "<", 45, 3, 853, 2237,
     (2243, 2251, 2267, 2269, 2287, 2309, 2341, 2377, 2401)),
    ("t2 < 4.5*sqrt(q)-2", "<", 45, 2, 853, 2381, (2393, 2399, 2401, 2417, 2437)),
    ("t2 < 4.5*sqrt(q)-1", "<", 45, 1, 853, 2473, (2503, 2531, 2549)),
    ("t2 < 4.6*sqrt(q)", "<", 46, 0, 2, 3307,
     (3319, 3323, 3329, 3331, 3343, 3347, 3371, 3373, 3391)),
    ("t2 < 4.7*sqrt(q)", "<", 47, 0, 2, 4201,
     (4217, 4219, 4229, 4241, 4243, 4253, 4271, 4273, 4297, 4363, 4423)),
    ("t2 < 4.9*sqrt(q)", "<", 49, 0, 2, 6907,
     (6947, 6949, 6961, 6971, 6983, 6997, 7001, 7039, 7187, 7193, 7307, 7451)),
    # the four offset lines below attain equality at perfect squares
    # (3721, 4096, 4489, 5041), so the sharp form is non-strict
    ("t2 <= 5*sqrt(q)-22", "<=", 50, 22, 2633, 3559,
     (3581, 3583, 3607, 3613, 3617, 3631, 3643, 3673, 3677, 3697, 3701, 3721,
      3739, 3761, 3847, 3851)),
    ("t2 < 5*sqrt(q)-21", "<", 50, 21, 2633, 3767,
     (3779, 3797, 3803, 3821, 3823, 3833, 3847, 3851, 3853, 3877, 3917, 3919,
      3923, 3947, 4021, 4027, 4153)),
    ("t2 <= 5*sqrt(q)-20", "<=", 50, 20, 2633, 4079,
     (4096, 4099, 4127, 4129, 4153, 4159, 4177, 4201, 4229, 4253, 4273, 4363,
      4423)),
    ("t2 <= 5*sqrt(q)-19", "<=", 50, 19, 2633, 4297,
     (4337, 4339, 4357, 4363, 4391, 4409, 4423, 4447, 4463, 4481, 4489, 4517)),
    ("t2 <= 5*sqrt(q)-16", "<=", 50, 16, 2633, 5023,
     (5041, 5051, 5059, 5077, 5081, 5099, 5101, 5107, 5113, 5119, 5153, 5189,
      5333)),
    ("t2 < 5*sqrt(q)-14", "<", 50, 14, 2633, 5501,
     (5507, 5519, 5521, 5527, 5557, 5569, 5573, 5581, 5591, 5689, 5693, 5711,
      5717, 5749, 5783, 5813)),
    ("t2 < 5*sqrt(q)-12", "<", 50, 12, 2633, 5881,
     (5903, 5923, 5927, 5939, 5953, 5987, 6007, 6029, 6053, 6073, 6089, 6143,
      6151, 6163)),
)

LN_BAND = ("t2 < 0.9987*sqrt(q)*ln^0.75(q)", 0.9987, 23, 9109)

# the conjectured bounds: (sqrt bands, ln bands), shaped as SQRT_BANDS, LN_BAND
CONJECTURES = {
    "ln075": ((), (("t2 < sqrt(q)*ln^0.75(q)", 1, 23, math.inf),)),
    "five_sqrt": ((("t2 < 5*sqrt(q) (q <= 8192)", "<", 50, 0, 0, 8192, ()),), ()),
}


def _sqrt_band_holds(t2: int, op: str, coeff10: int, offset: int, q: int) -> bool:
    lhs = 10 * (t2 + offset)
    if lhs < 0:
        return True
    l2, r2 = lhs * lhs, coeff10 * coeff10 * q
    return l2 < r2 if op == "<" else l2 <= r2


def _band_violations(table: KnownTable, sqrt_bands, ln_bands) -> list[Violation]:
    """Every failing (band, q), band by band in the given order."""
    out: list[Violation] = []
    for label, op, coeff10, offset, lo, hi, extras in sqrt_bands:
        extra = set(extras)
        for q in table.qs():
            if not (lo <= q <= hi or q in extra):
                continue
            t2 = table.t2(q)
            if not _sqrt_band_holds(t2, op, coeff10, offset, q):
                out.append(Violation(label, q, t2))
    for label, coeff, lo, hi in ln_bands:
        for q in table.qs():
            if lo <= q <= hi:
                t2 = table.t2(q)
                if not t2 < coeff * math.sqrt(q) * math.log(q) ** 0.75:
                    out.append(Violation(label, q, t2))
    return out


def check_theorem_bands(table: KnownTable | None = None) -> list[Violation]:
    """Evaluate every inequality band over the table; empty means all hold."""
    return _band_violations(table or default_table(), SQRT_BANDS, (LN_BAND,))


def check_conjecture(table: KnownTable | None = None,
                     which: str = "ln075") -> list[Violation]:
    """Data check of one of the two ``CONJECTURES`` over the table range."""
    if which not in CONJECTURES:
        raise ValueError(f"unknown conjecture {which!r}")
    return _band_violations(table or default_table(), *CONJECTURES[which])


# ---------------------------------------------------------------------------
# oscillation statistics
# ---------------------------------------------------------------------------

# (q_lo, q_hi, D band, P_pct band): open bands for D_q(0.75) and P_pct,
# binned by thousands from the first row of the statistics range
_OBS_BANDS = (
    (173, 1000, (0.946, 0.9634), (-0.94, 0.79)),
    (1000, 2000, (0.953, 0.9605), (-0.28, 0.49)),
    (2000, 3000, (0.950, 0.9595), (-0.52, 0.38)),
    (3000, 4000, (0.950, 0.9588), (-0.57, 0.32)),
    (4000, 5000, (0.951, 0.9584), (-0.48, 0.27)),
    (5000, 6000, (0.950, 0.9579), (-0.59, 0.22)),
    (6000, 7000, (0.951, 0.9577), (-0.46, 0.20)),
    (7000, 8000, (0.947, 0.9573), (-0.88, 0.16)),
    (8000, 10**9, (0.949, 0.9573), (-0.66, 0.16)),
)

DELTA_BAND = (-3.70, 0.81)

STATS_Q_MIN = _OBS_BANDS[0][0]


def stats_rows(table: KnownTable | None = None, *, c: float = 0.75,
               q_min: int = STATS_Q_MIN) -> list[BoundRecord]:
    """Records for every tabulated q >= q_min outside DEFAULT_EXCLUDE."""
    if not 0 < c < 1:
        raise ValueError("exponent c must lie in (0, 1)")
    if q_min < 2:
        raise ValueError("q_min must be >= 2")
    table = table or default_table()
    out = []
    for q in table.qs():
        if q < q_min or q in DEFAULT_EXCLUDE:
            continue
        row = table.get(q)
        rec = compute_record(row.q, row.t2, row.exact)
        if c != 0.75:
            rec = replace(rec, d075=d_value(q, row.t2, c))
        out.append(rec)
    return out


def check_observations(table: KnownTable | None = None) -> list[Violation]:
    """Row-wise D/delta/P band checks over the statistics range."""
    delta_label = "delta in ({:.2f}, {:.2f})".format(*DELTA_BAND)
    out: list[Violation] = []
    for rec in stats_rows(table):
        d, p = next((d, p) for lo, hi, d, p in _OBS_BANDS if lo <= rec.q < hi)
        if not d[0] < rec.d075 < d[1]:
            out.append(Violation(f"D(0.75) in ({d[0]}, {d[1]})", rec.q, rec.t2))
        if not DELTA_BAND[0] < rec.delta < DELTA_BAND[1]:
            out.append(Violation(delta_label, rec.q, rec.t2))
        if not p[0] < rec.p_pct < p[1]:
            out.append(Violation(f"P_pct in ({p[0]}, {p[1]})", rec.q, rec.t2))
    return out


def average_d(table: KnownTable | None = None) -> float:
    """Recompute the average of D_q(0.75); audits the pinned D_AVER."""
    ds = [rec.d075 for rec in stats_rows(table)]
    return sum(ds) / len(ds)


def emit_stats_csv(out_file, rows: list[BoundRecord], c: float = 0.75) -> int:
    """Write the given statistics rows as CSV; returns the row count.

    ``c`` only names the D_{c} column.  Reals carry 6 significant digits;
    B_q keeps its defining 2-decimal form; A_q is empty where the multiplier
    is undefined (q > 9067).
    """
    writer = csv.writer(out_file, lineterminator="\n")
    writer.writerow(["q", "t2", "A_q", "B_q", f"D_{c:g}", "t_hat", "delta", "P_pct"])
    for r in rows:
        writer.writerow([
            r.q, r.t2, "" if r.big_a is None else r.big_a, f"{r.big_b:.2f}",
            f"{r.d075:.6g}", f"{r.t_hat:.6g}", f"{r.delta:.6g}", f"{r.p_pct:.6g}",
        ])
    return len(rows)

import hashlib
import io
import math
from decimal import Decimal, getcontext
from importlib import resources

import pytest

from arcforge import bounds
from arcforge.bounds import (
    DEFAULT_EXCLUDE, OutOfRange, Violation, a_q_column, average_d,
    b_q_hundredths, check_conjecture, check_observations, check_theorem_bands,
    compute_record, default_table, emit_stats_csv, exceeds_lower_bound,
    load_table, lower_bound, multiplier_a_q, stats_rows,
)

TABLE_SHA256 = "480458b601af03ff68907223e588e005f95bbc1ac383dd8a655aff8dfe8b9772"


@pytest.fixture(scope="module")
def table():
    return default_table()


# ---------------------------------------------------------------------------
# the embedded dataset
# ---------------------------------------------------------------------------

def test_table_checksum_pinned():
    data = (resources.files("arcforge") / "data" / "known_sizes.txt").read_bytes()
    assert hashlib.sha256(data).hexdigest() == TABLE_SHA256


def test_table_shape(table):
    assert len(table) == 1180
    assert table.qs()[0] == 2 and table.qs()[-1] == 9109
    exact_qs = [q for q in table.qs() if table.get(q).exact]
    assert exact_qs == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27,
                       29, 31, 32]
    assert [table.t2(q) for q in exact_qs] == [4, 4, 6, 6, 6, 6, 6, 7, 8, 9,
                                               10, 10, 10, 12, 12, 13, 14, 14]


def test_table_env_override(tmp_path, monkeypatch):
    path = tmp_path / "tiny.txt"
    path.write_text("# tiny\n2 4 1 1\n3 4 1 1\n")
    monkeypatch.setenv(bounds.TABLE_ENV_VAR, str(path))
    t = load_table()
    assert len(t) == 2 and t.t2(3) == 4


@pytest.mark.parametrize("row", ["3 4_0 1 1", "3 +4 1 1", "3 4 -0 1",
                                 "3 4 2 1", "3 4 1 0", "3 4 1 6", "3 2 1 1"])
def test_table_rejects_loose_rows(tmp_path, row):
    # only plain digits, exact 0 or 1, table ids 1-5 and t2 >= 3
    path = tmp_path / "sizes.txt"
    path.write_text(f"2 4 1 1\n{row}\n")
    with pytest.raises(bounds.TableError) as err:
        load_table(str(path))
    assert "line 2" in str(err.value)


def test_table_rejects_duplicates(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("2 4 1 1\n2 5 0 1\n")
    with pytest.raises(ValueError):
        load_table(str(path))


@pytest.mark.parametrize("content", [
    None, b"", b"2 4 1\n", b"2 4 x 1\n", b"2 4 1 1\n2 5 0 1\n", b"# \xe9\n2 4 1 1\n",
], ids=["missing", "empty", "columns", "number", "duplicate", "non-ascii"])
def test_table_faults_raise_one_type_naming_the_path(tmp_path, content):
    path = tmp_path / "sizes.txt"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(bounds.TableError) as err:
        load_table(str(path))
    assert str(path) in str(err.value)


# ---------------------------------------------------------------------------
# lower bound
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("call, error", [
    (lambda: default_table().t2(6), OutOfRange),
    (lambda: lower_bound(6), ValueError),
    (lambda: exceeds_lower_bound(6, 5), ValueError),
    (lambda: compute_record(7, 2), ValueError),  # below any arc's size
], ids=["t2", "lower_bound", "exceeds_lower_bound", "compute_record"])
def test_bounds_reject_bad_input(call, error):
    # 6 is not a prime power
    with pytest.raises(error):
        call()


def test_lower_bound_examples():
    assert lower_bound(2) == pytest.approx(3.0)
    assert lower_bound(9) == pytest.approx(math.sqrt(27) + 0.5)
    # h = 4: only the sqrt(2q)+1 branch applies
    assert lower_bound(16) == pytest.approx(math.sqrt(32) + 1)
    assert lower_bound(16) < 9  # consistent with the tabulated size


def test_lower_bound_below_every_table_value(table):
    for q in table.qs():
        assert exceeds_lower_bound(q, table.t2(q))
        assert table.t2(q) > lower_bound(q)


def test_exceeds_lower_bound_is_strict():
    # size exactly at sqrt(2q)+1 must fail: q = 2 gives bound 3
    assert not exceeds_lower_bound(2, 3)
    assert exceeds_lower_bound(2, 4)


# ---------------------------------------------------------------------------
# multiplier and derived columns
# ---------------------------------------------------------------------------

def test_multiplier_bands():
    assert multiplier_a_q(841) == 4
    assert multiplier_a_q(2) == 4
    assert multiplier_a_q(961) == 4      # in Q
    assert multiplier_a_q(2401) == 4     # in Q
    assert multiplier_a_q(857) == 4      # special case matching the table
    assert multiplier_a_q(853) == 4.5
    assert multiplier_a_q(1201) == 4.5
    assert multiplier_a_q(2621) == 4.5
    assert multiplier_a_q(2693) == 4.5   # sporadic exception
    assert multiplier_a_q(2623) == 5
    assert multiplier_a_q(9067) == 5
    assert multiplier_a_q(9091) is None  # no column above 9067
    with pytest.raises(OutOfRange):
        multiplier_a_q(1)
    with pytest.raises(OutOfRange):
        multiplier_a_q(9110)


def test_record_spot_values():
    r = compute_record(857, 117)
    assert (r.big_a, r.big_b) == (0, 4.00)
    assert 0.946 < r.d075 < 0.9634
    r = compute_record(2, 4)
    assert (r.big_a, r.big_b) == (1, 2.83)
    r = compute_record(1369, 144)
    assert (r.big_a, r.big_b) == (4, 3.90)
    r = compute_record(8192, 449)
    assert (r.big_a, r.big_b) == (3, 4.97)


# thirty spot rows across all five tables: (q, t2, A_q, B_q*100)
SPOT_ROWS = [
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


def test_thirty_published_rows_bit_exact(table):
    for q, t2, big_a, b100 in SPOT_ROWS:
        assert table.t2(q) == t2
        assert a_q_column(q, t2) == big_a
        assert b_q_hundredths(q, t2) == b100


def test_blank_a_column_above_9067(table):
    for q in (9091, 9103, 9109):
        assert a_q_column(q, table.t2(q)) is None


def test_columns_match_high_precision_oracle(table):
    """Recompute A_q and B_q for every row with 60-digit decimal arithmetic."""
    getcontext().prec = 60
    for q in table.qs():
        t2 = table.t2(q)
        root = Decimal(q).sqrt()
        a = multiplier_a_q(q)
        if a is not None:
            expect_a = int((Decimal(str(a)) * root - t2).to_integral_value("ROUND_FLOOR"))
            assert a_q_column(q, t2) == expect_a, q
        ratio = Decimal(t2) / root
        expect_b = int((ratio * 100).to_integral_value("ROUND_CEILING"))
        assert b_q_hundredths(q, t2) == expect_b, q


def test_monotone_consistency(table):
    for q in table.qs()[::7]:
        t2 = table.t2(q)
        a0, a1 = a_q_column(q, t2), a_q_column(q, t2 + 1)
        if a0 is not None:
            assert a0 - a1 in (0, 1) and a1 == a0 - 1
        assert b_q_hundredths(q, t2 + 1) > b_q_hundredths(q, t2)
        r0, r1 = compute_record(q, t2), compute_record(q, t2 + 1)
        assert r1.delta > r0.delta and r1.p_pct > r0.p_pct


# ---------------------------------------------------------------------------
# band families
# ---------------------------------------------------------------------------

def test_theorem_bands_clean(table):
    assert check_theorem_bands(table) == []


def test_theorem_bands_catch_mutation(table):
    rows = dict(table.rows)
    rows[2] = bounds.TableRow(2, 6, True)
    mutated = bounds.KnownTable(rows)
    bad = check_theorem_bands(mutated)
    assert any(v.q == 2 and "4*sqrt(q)" in v.band for v in bad)


def test_theorem_bands_catch_the_ln_band(table):
    rows = dict(table.rows)
    rows[173] = bounds.TableRow(173, 60, False)
    bad = check_theorem_bands(bounds.KnownTable(rows))
    assert Violation(bounds.LN_BAND[0], 173, 60) in bad
    assert bounds.LN_BAND[0] == "t2 < 0.9987*sqrt(q)*ln^0.75(q)"


def test_857_fits_the_4sqrt_band():
    # 117 < 4*sqrt(857) = 117.08...
    assert bounds._sqrt_band_holds(117, "<", 40, 0, 857)
    assert not bounds._sqrt_band_holds(118, "<", 40, 0, 857)


def test_conjectures_hold(table):
    assert check_conjecture(table, "ln075") == []
    assert check_conjecture(table, "five_sqrt") == []
    with pytest.raises(ValueError):
        check_conjecture(table, "nope")


def test_five_sqrt_range_excludes_tail(table):
    # rows above 8192 exceed 5*sqrt(q) (B_q = 5.01+) yet are not violations
    assert b_q_hundredths(9091, table.t2(9091)) == 501
    assert check_conjecture(table, "five_sqrt") == []


# ---------------------------------------------------------------------------
# observation statistics
# ---------------------------------------------------------------------------

def test_observation_bands_clean(table):
    assert check_observations(table) == []


def test_average_matches_pinned_constant(table):
    assert abs(average_d(table) - bounds.D_AVER) < 0.0005


def test_stats_rows_window(table):
    rows = stats_rows(table)
    qs = {r.q for r in rows}
    assert min(qs) >= 173
    assert not (qs & DEFAULT_EXCLUDE)
    mid = [r for r in rows if 1000 < r.q < 2000]
    assert mid and all(0.953 < r.d075 < 0.9605 for r in mid)
    assert all(-3.70 < r.delta < 0.81 for r in rows)
    small = [r for r in rows if r.q < 1000]
    assert small and all(-0.94 < r.p_pct < 0.79 for r in small)


def test_stats_param_validation(table):
    with pytest.raises(ValueError):
        stats_rows(table, c=1.5)
    with pytest.raises(ValueError):
        stats_rows(table, q_min=1)


def test_csv_emission(table):
    buf = io.StringIO()
    n = emit_stats_csv(buf, stats_rows(table))
    lines = buf.getvalue().split("\n")
    assert lines[0] == "q,t2,A_q,B_q,D_0.75,t_hat,delta,P_pct"
    assert n == len(stats_rows(table))
    assert len(lines) == n + 2 and lines[-1] == ""
    # rows above 9067 carry an empty A_q cell
    tail = [l for l in lines if l.startswith("9103,")]
    assert tail and tail[0].split(",")[2] == ""
    first = lines[1].split(",")
    assert first[0] == "173" and first[3] == "3.27"

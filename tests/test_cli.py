import argparse
import dataclasses
import time
from importlib import resources

import pytest

import arcforge
from arcforge import greedy
from arcforge.cli import _build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def test_search_basic(capsys):
    code, out, err = run(capsys, "search", "--q", "13", "--trials", "2000",
                         "--seed", "1")
    assert code == 0
    assert "best_size 8" in out
    assert "elapsed" in err and "elapsed" not in out


def test_search_stdout_deterministic(capsys):
    args = ["search", "--q", "9", "--trials", "300", "--seed", "7"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_search_non_prime_power(capsys):
    code, out, err = run(capsys, "search", "--q", "6", "--trials", "1")
    assert code == 2
    assert "prime power" in err


def test_search_bad_trials(capsys):
    code, _, err = run(capsys, "search", "--q", "9", "--trials", "0")
    assert code == 2 and "trials" in err


def test_search_plane_above_point_cap(capsys):
    # 10007 is prime, but PG(2,10007) has more points than the plane allows
    code, out, err = run(capsys, "search", "--q", "10007", "--trials", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "cap" in err


def test_search_point_cap_checked_before_the_field(capsys):
    # GF(2^20) is above gf.ORDER_CAP, so the field refuses it before any
    # table is built; every field under that cap builds in well under 2 s
    t0 = time.monotonic()
    code, out, err = run(capsys, "search", "--q", str(2 ** 20), "--trials", "1")
    assert time.monotonic() - t0 < 2
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "cap" in err


def test_search_empty_out(capsys):
    code, out, err = run(capsys, "search", "--q", "7", "--trials", "5",
                         "--out", "")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "--out" in err


def test_search_malformed_table(capsys, tmp_path, monkeypatch):
    # an explicit target needs no table row, but the restart schedule does
    path = tmp_path / "sizes.txt"
    path.write_text("7 6 1\n")
    monkeypatch.setenv("ARCFORGE_TABLE_PATH", str(path))
    code, out, err = run(capsys, "search", "--q", "7", "--trials", "5",
                         "--target", "6")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(path) in err


def test_bounds_grouped_table_number(capsys, tmp_path, monkeypatch):
    # int() would read "4_0" as 40 and print t2: 40
    path = tmp_path / "sizes.txt"
    path.write_text("2 4 1 1\n3 4_0 1 1\n")
    monkeypatch.setenv("ARCFORGE_TABLE_PATH", str(path))
    code, out, err = run(capsys, "bounds", "--q", "3")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "line 2" in err


@pytest.mark.parametrize("argv", [
    ["search", "--q", "7", "--trials", "5", "--target", "6"],
    ["bounds", "--q", "7"],
    ["table", "--range", "2", "9"],
    ["stats"],
])
def test_missing_table_file(capsys, tmp_path, monkeypatch, argv):
    path = tmp_path / "absent.txt"
    monkeypatch.setenv("ARCFORGE_TABLE_PATH", str(path))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(path) in err


def test_search_dead_budget(capsys):
    code, _, err = run(capsys, "search", "--q", "9", "--trials", "10",
                       "--time-budget", "0")
    assert code == 1 and "budget" in err


def test_search_budget_ends_a_long_run(capsys):
    # no target can stop it, so the budget does, with the best so far
    code, out, _ = run(capsys, "search", "--q", "49", "--trials", "1000000",
                       "--target", "0", "--time-budget", "0.3")
    assert code == 0
    assert out.splitlines()[-1] == "budget_exhausted 1"


@pytest.mark.parametrize("budget", ["nan", "-1"])
def test_search_rejects_bad_budget(capsys, budget):
    code, out, err = run(capsys, "search", "--q", "9", "--trials", "10",
                         "--time-budget", budget)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "time_budget" in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_search_rejects_bad_jobs(capsys, jobs):
    code, out, err = run(capsys, "search", "--q", "9", "--trials", "1",
                         "--jobs", jobs)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "--jobs" in err


def test_search_out_in_missing_directory(capsys, tmp_path):
    # refused before the search runs: nothing is printed on stdout
    code, out, err = run(capsys, "search", "--q", "7", "--trials", "5",
                         "--out", str(tmp_path / "missing" / "x.arc"))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "missing" in err


def test_search_out_unwritable(capsys, tmp_path):
    # the directory exists but the path is a directory: the write fails
    code, out, err = run(capsys, "search", "--q", "7", "--trials", "5",
                         "--out", str(tmp_path))
    assert code == 2 and out.startswith("q 7\n")
    assert "error: " in err and "Traceback" not in err


def test_search_surface_is_pinned():
    # a new knob must be added here on purpose: every field and flag should
    # have a caller besides the tests
    assert [f.name for f in dataclasses.fields(greedy.SearchConfig)] == [
        "q", "trials", "master_seed", "candidate_policy", "sample_size",
        "time_budget", "target_size"]
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = [opt for a in sub.choices["search"]._actions
             for opt in a.option_strings]
    assert flags == ["-h", "--help", "--q", "--trials", "--seed", "--target",
                     "--out", "--jobs", "--policy", "--sample-size",
                     "--time-budget"]


def test_public_surface_is_pinned():
    # a new export must be added here on purpose, like a new flag above
    assert sorted(arcforge.__all__) == [
        "Arc", "BoundRecord", "Coverage", "Field", "KnownTable",
        "PlaneIndex", "SearchConfig", "SearchReport", "VerifyReport",
        "build_plane", "check_conjecture", "check_observations",
        "check_theorem_bands", "compute_record", "default_table",
        "emit_stats_csv", "field_of_order", "greedy_trial", "lower_bound",
        "multiplier_a_q", "read_and_verify", "search", "verify_arc",
        "verify_complete", "write_certificate"]
    for name in arcforge.__all__:
        assert getattr(arcforge, name) is not None


def test_time_budget_holds_inside_a_trial(capsys):
    # one sampled q = 1024 trial takes seconds; the deadline is checked at
    # every added point, so no trial finishes and the search exits 1
    t0 = time.monotonic()
    code, out, err = run(capsys, "search", "--q", "1024", "--policy", "sample",
                         "--trials", "5", "--seed", "1", "--time-budget", "0.5")
    assert time.monotonic() - t0 < 2.5
    assert code == 1 and out == ""
    assert "time budget expired" in err


def test_search_writes_certificate(capsys, tmp_path):
    cert = tmp_path / "best.arc"
    code, out, _ = run(capsys, "search", "--q", "7", "--trials", "50",
                       "--seed", "2", "--out", str(cert))
    assert code == 0 and cert.exists()
    code, out, _ = run(capsys, "verify", str(cert))
    assert code == 0
    assert "arc: yes" in out and "complete: yes" in out


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def frame_file(tmp_path, extra=""):
    path = tmp_path / "frame.arc"
    path.write_text("2 2 1 0 1\n# complete 1\n1 0 0\n0 1 0\n0 0 1\n1 1 1\n"
                    + extra)
    return path


def test_verify_frame(capsys, tmp_path):
    code, out, _ = run(capsys, "verify", str(frame_file(tmp_path)))
    assert code == 0
    assert "size: 4" in out and "q: 2" in out and "best_known: =4" in out


def test_verify_incomplete_claimed_complete(capsys, tmp_path):
    path = tmp_path / "short.arc"
    path.write_text("3 3 1 0 1\n# complete 1\n1 0 0\n0 1 0\n0 0 1\n")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1
    assert "complete: no" in out
    assert "claimed complete" in err


def test_verify_small_claim_hits_lower_bound_diagnostic(capsys, tmp_path):
    path = tmp_path / "tiny.arc"
    path.write_text("8 2 3 1 1 0 1\n# complete 1\n1 0 0\n0 1 0\n0 0 1\n")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1
    assert "lower bound" in err


def test_verify_parse_error(capsys, tmp_path):
    path = tmp_path / "bad.arc"
    path.write_text("2 2 1 0 1\n1 0\n")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2


def test_verify_plane_above_point_cap(capsys, tmp_path):
    path = tmp_path / "huge.arc"
    path.write_text("10007 10007 1 0 1\n1 0 0\n")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "cap" in err


def test_verify_point_cap_checked_before_the_field(capsys, tmp_path):
    # a valid GF(2^20) header: x^20 + x^3 + 1 is irreducible over GF(2);
    # the field refuses q above gf.ORDER_CAP before building any table
    path = tmp_path / "huge.arc"
    modulus = [1, 0, 0, 1] + [0] * 16 + [1]
    path.write_text(f"{2 ** 20} 2 20 {' '.join(map(str, modulus))}\n1 0 0\n")
    t0 = time.monotonic()
    code, out, err = run(capsys, "verify", str(path))
    assert time.monotonic() - t0 < 2
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "cap" in err


def test_verify_signed_and_grouped_numbers(capsys, tmp_path):
    # int() would read "+1 0_1 1" as (1, 1, 1) and pass a 4-point arc
    path = tmp_path / "loose.arc"
    path.write_text("2 2 1 0 1\n1 0 0\n0 1 0\n0 0 1\n+1 0_1 1\n")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: line 5")


def test_verify_number_too_long(capsys, tmp_path):
    # int() refuses more than 4300 digits: a parse error, not a failed check
    path = tmp_path / "long.arc"
    path.write_text(f"2 2 1 0 1\n1 {'1' * 5000} 0\n")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: line 2, column 3")


def test_verify_coordinate_past_int64(capsys, tmp_path):
    # a 20-digit coordinate is out of range, not an OverflowError traceback
    path = tmp_path / "wide.arc"
    path.write_text(f"2 2 1 0 1\n1 0 0\n0 {10 ** 19} 1\n")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: line 3")


def test_verify_header_power_checked_without_building_it(capsys, tmp_path):
    # q = 4 against p^h = (10^1000)^20000: building p**h takes half a minute
    path = tmp_path / "power.arc"
    path.write_text(f"4 {10 ** 1000} 20000 {'0 ' * 20000}1\n1 0 0\n")
    t0 = time.monotonic()
    code, out, err = run(capsys, "verify", str(path))
    assert time.monotonic() - t0 < 2
    assert code == 2 and out == ""
    assert err.startswith("error: line 1") and "q = 4 is not" in err


def test_verify_non_ascii(capsys, tmp_path):
    path = tmp_path / "accent.arc"
    path.write_bytes("2 2 1 0 1\n1 0 0\n0 1 0 # caf\u00e9\n".encode("utf-8"))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "non-ASCII" in err


def test_verify_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "verify", str(tmp_path / "nope.arc"))
    assert code == 2


@pytest.mark.parametrize("text, message", [
    ("", "empty certificate"),
    ("7 7 1\n", "header needs q p h and h+1 modulus coefficients"),
    ("9 3 2 2 1\n1 0 0\n", "expected 3 modulus coefficients, got 2"),
    # the field's own ValueError, reported at the header
    ("9 3 2 1 0 2\n1 0 0\n", "modulus must be monic of degree 2"),
], ids=["empty", "short-header", "coefficient-count", "not-monic"])
def test_verify_header_faults(capsys, tmp_path, text, message):
    path = tmp_path / "head.arc"
    path.write_text(text)
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert err == f"error: line 1, column 1: {message}\n"


def test_verify_skips_blank_lines(capsys, tmp_path):
    path = tmp_path / "gaps.arc"
    path.write_text("7 7 1 0 1\n\n\n1 0 0\n\n0 1 0\n")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 0 and err == ""
    assert "arc: yes\ncomplete: no\nsize: 2\n" in out


# ---------------------------------------------------------------------------
# bounds / table / stats
# ---------------------------------------------------------------------------

def test_bounds_857(capsys):
    code, out, _ = run(capsys, "bounds", "--q", "857")
    assert code == 0
    assert "t2: 117" in out and "B_q: 4.00" in out and "A_q: 0" in out


def test_bounds_exact_marker(capsys):
    code, out, _ = run(capsys, "bounds", "--q", "13")
    assert code == 0 and "t2: 8 (exact)" in out


def test_bounds_untabulated_prime_power(capsys):
    code, out, _ = run(capsys, "bounds", "--q", str(2**14))
    assert code == 0 and "not tabulated" in out


def test_bounds_non_prime_power(capsys):
    code, _, err = run(capsys, "bounds", "--q", "12")
    assert code == 2


def test_table_slice(capsys):
    code, out, _ = run(capsys, "table", "--range", "8363", "9109")
    lines = out.strip().splitlines()
    assert code == 0
    assert len(lines) == 1 + 84  # header plus the final-table rows
    assert lines[1].startswith("8363 455")


def test_table_empty_range(capsys):
    code, _, err = run(capsys, "table", "--range", "9110", "9999")
    assert code == 2


def test_stats_csv(capsys, tmp_path):
    csv = tmp_path / "stats.csv"
    code, out, _ = run(capsys, "stats", "--c", "0.75", "--qmin", "173",
                       "--csv", str(csv))
    assert code == 0
    assert "band_violations: 0" in out
    lines = csv.read_text().splitlines()
    assert lines[0].startswith("q,t2,")
    assert len(lines) > 1000


def test_stats_csv_other_exponent(capsys, tmp_path):
    csv = tmp_path / "stats.csv"
    code, out, _ = run(capsys, "stats", "--c", "0.5", "--csv", str(csv))
    assert code == 0
    assert "average_D: 1.60995\n" in out
    lines = csv.read_text().splitlines()
    assert lines[0] == "q,t2,A_q,B_q,D_0.5,t_hat,delta,P_pct"
    assert lines[1].startswith("173,43,9,3.27,1.44013,")


@pytest.mark.parametrize("argv", [[], ["--c", "0.5"]], ids=["default", "c0.5"])
def test_stats_checks_the_bands_whatever_the_exponent(capsys, tmp_path,
                                                      monkeypatch, argv):
    # the bands hold for the default rows, which --c and --qmin do not change
    text = (resources.files("arcforge") / "data" / "known_sizes.txt").read_text()
    assert "\n173 43 0 1\n" in text
    path = tmp_path / "sizes.txt"
    path.write_text(text.replace("\n173 43 0 1\n", "\n173 50 0 1\n"))
    monkeypatch.setenv("ARCFORGE_TABLE_PATH", str(path))
    code, out, _ = run(capsys, "stats", *argv)
    assert code == 1
    assert "band_violations: 3\n" in out
    assert out.endswith("  q=173: D(0.75) in (0.946, 0.9634)\n"
                        "  q=173: delta in (-3.70, 0.81)\n"
                        "  q=173: P_pct in (-0.94, 0.79)\n")


def test_stats_csv_in_missing_directory(capsys, tmp_path):
    code, out, err = run(capsys, "stats", "--csv", str(tmp_path / "missing" / "x.csv"))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "missing" in err


def test_stats_rejects_bad_exponent(capsys):
    code, _, err = run(capsys, "stats", "--c", "1.5")
    assert code == 2


def test_stats_no_rows_above_qmin(capsys, tmp_path):
    csv = tmp_path / "stats.csv"
    code, out, err = run(capsys, "stats", "--qmin", "100000", "--csv", str(csv))
    assert code == 2 and out == ""
    assert err.startswith("error: ")
    assert not csv.exists()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["search"])  # missing required --q
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", ["--h", "--p"])
def test_search_rejects_flag_prefixes(capsys, monkeypatch, flag):
    # --h must not resolve to --help (exit 0) nor --p to --policy
    def no_search(*args, **kwargs):
        raise AssertionError("search ran")

    monkeypatch.setattr(greedy, "search", no_search)
    with pytest.raises(SystemExit) as exc:
        main(["search", "--q", "9", flag, "2", "--trials", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err

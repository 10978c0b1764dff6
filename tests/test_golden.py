"""Seeded search output pinned byte for byte.

Each case runs ``arcforge search`` in-process and compares its stdout and a
sha256 of the best arc's point ids (in insertion order) with values recorded
before the coverage kernel read joins from per-point slot rows.  A change to
how joins, pencils or tables are computed must leave every case unchanged.
"""

import hashlib

import pytest

from arcforge import greedy
from arcforge.cli import main

CASES = [
    pytest.param(
        ["--q", "13", "--seed", "1", "--trials", "200"],
        "q 13\nbest_size 8\nbest_trial 68\ntrials_run 69\nseed 1\n"
        "histogram 8:1 9:36 10:32\n",
        "ad1b4048e6a380e10a7b7dacabdc0c9d68ca7ff695851d43a36c13dfb0cf30b9",
        id="q13"),
    pytest.param(  # exact policy with the dense tables
        ["--q", "49", "--seed", "7", "--trials", "300"],
        "q 49\nbest_size 19\nbest_trial 93\ntrials_run 300\nseed 7\n"
        "histogram 19:11 20:160 21:113 22:16\n",
        "7b5dbee019a120c4ae5e004ceda97f8927b5780c7abeec9b9a9c55e75fafa5fa",
        id="q49-tables"),
    pytest.param(  # characteristic 2, slot rows wider than a byte
        ["--q", "256", "--seed", "1", "--trials", "2", "--target", "0"],
        "q 256\nbest_size 57\nbest_trial 0\ntrials_run 2\nseed 1\n"
        "histogram 57:2\n",
        "24c6adbcb7f49ec7de140fd3d7d992373b12f757a1a71afd4c4da825cad675ec",
        id="q256"),
    pytest.param(  # odd-characteristic extension, no tables
        ["--q", "125", "--trials", "1"],
        "q 125\nbest_size 36\nbest_trial 0\ntrials_run 1\nseed 0\n"
        "histogram 36:1\n",
        "8496890cd1f5a131a632557275f5a5603f656120b371c33c41fcff1d1a4f873a",
        id="q125"),
    pytest.param(
        ["--q", "17", "--policy", "sample", "--sample-size", "32",
         "--seed", "3", "--trials", "50"],
        "q 17\nbest_size 10\nbest_trial 1\ntrials_run 2\nseed 3\n"
        "histogram 10:1 11:1\n",
        "ea4d1a2bbe1c85bb9ac3ae986ca557685fa1f7272e60c99af0b1670613517f3b",
        id="q17-sample"),
    pytest.param(  # joins computed from coordinates: no slot rows above 529
        ["--q", "541", "--policy", "sample", "--sample-size", "64",
         "--trials", "1", "--seed", "1"],
        "q 541\nbest_size 95\nbest_trial 0\ntrials_run 1\nseed 1\n"
        "histogram 95:1\n",
        "cb606d7bf4b689f65a58a6d150c1d38a956dc73371f8fbd05af7b9937a6797d9",
        id="q541-computed"),
    pytest.param(  # odd-characteristic extension with computed joins
        ["--q", "625", "--policy", "sample", "--sample-size", "64",
         "--trials", "1", "--seed", "1"],
        "q 625\nbest_size 104\nbest_trial 0\ntrials_run 1\nseed 1\n"
        "histogram 104:1\n",
        "66467967c6ef81497513a0b0431f4a0bbf048187562eb6efbc4765335f50bd68",
        id="q625-computed"),
]


@pytest.mark.parametrize("argv, summary, points_sha256", CASES)
def test_seeded_search_output(argv, summary, points_sha256, capsys,
                              monkeypatch):
    reports = []
    real_search = greedy.search

    def recording_search(*args, **kwargs):
        reports.append(real_search(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(greedy, "search", recording_search)
    assert main(["search", *argv]) == 0
    assert capsys.readouterr().out == summary
    ids = ",".join(map(str, reports[0].best_points)).encode()
    assert hashlib.sha256(ids).hexdigest() == points_sha256

"""Smoke test of the benchmark harness on tiny planes (q = 7 and 8).

Runs ``run.py`` through its command line and checks that every metric
is printed by name with its unit, that the last line is the JSON result, and
that no operation failed.  Takes a few seconds.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"

_spec = importlib.util.spec_from_file_location("bench_run", RUN)
bench = sys.modules["bench_run"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def _run(workload, trace, script=RUN, check=True):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120)
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def _metric_lines(stdout):
    return {line.split()[0]: line.split()[1:]
            for line in stdout.splitlines()[:-1] if len(line.split()) == 3}


@pytest.mark.parametrize("workload",
                         ["smoke-table-q7", "smoke-trial-q8", "smoke-verify-q7"])
def test_untraced_run_prints_every_metric(workload):
    proc = _run(workload, trace=0)
    lines = _metric_lines(proc.stdout)
    for name, unit in {**bench.END_TO_END, **bench.REPORTED}.items():
        assert name in lines, name
        assert lines[name][1] == unit, name
    assert lines["failed_ratio"][0] == "0"
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(bench.END_TO_END)
    for name, m in result["metrics"].items():
        assert m["unit"] == bench.END_TO_END[name]
        assert m["value"] > 0, name


@pytest.mark.parametrize("workload", ["smoke-table-q7", "smoke-trial-q8"])
def test_traced_run_prints_every_layer_metric(workload):
    proc = _run(workload, trace=1)
    lines = _metric_lines(proc.stdout)
    for name, unit in bench.PER_LAYER.items():
        assert lines[name][1] == unit, name
    assert "absent none" in proc.stdout
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0
    assert set(result["metrics"]) == set(bench.PER_LAYER)
    engine = "greedy.run_batch.calls" if "table" in workload else "greedy.gains.candidates"
    assert result["metrics"][engine]["value"] > 0


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("smoke-verify-q7", trace=0,
                script=tmp_path / "benchmarks" / "run.py", check=False)
    assert proc.returncode != 0
    assert "{" not in proc.stdout

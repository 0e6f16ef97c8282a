"""Smoke test of the benchmark in perfbench/: tiny sizes, half a second per workload.

Keeps the benchmark runnable against the current package, and every request
it sends answered correctly; it measures nothing.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["portfolio-large", "lift-entropic", "campaign", "cli-cold"])
def test_benchmark_runs_and_every_request_checks_out(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", "0", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    # the result is read from the last line, and nothing else goes to stdout
    assert len(lines) == 1, proc.stdout[-2000:]
    report = json.loads(lines[-1])
    assert report["attempted"] > 0
    assert report["failed"] == 0, proc.stderr[-2000:]
    assert report["correct"] is True


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in the result line")


def test_traced_run_reports_the_levels_layer():
    # the tracer wraps only methods defined on the classes a layer exports; a
    # level-function method moved off them would drop the layer without an error
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "lift-entropic",
         "--seed", "1", "--seconds", "0.5", "--trace", "1", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert len(lines) == 1, proc.stdout[-2000:]
    report = json.loads(lines[-1], parse_constant=_reject_constant)  # strict JSON
    assert report["failed"] == 0, proc.stderr[-2000:]
    # the tracer and the CLI probes drop a metric whose span or command is
    # gone without an error: the run must report every declared name, and only those
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(report["metrics"]) == {m["name"] for m in declared}, proc.stderr[-2000:]
    for name, metric in report["metrics"].items():
        assert math.isfinite(metric["value"]), name
    assert report["metrics"]["levels.calls"]["value"] > 0
    assert report["metrics"]["levels.self_s"]["value"] > 0
    # from_spec alone would keep levels.calls above 0: a method must be traced too
    spans = ROOT / ".perfbench_work" / "spans-lift-entropic-seed1.jsonl"
    names = {json.loads(line)["name"] for line in spans.read_text().splitlines()}
    assert {"levels.LambdaFunction.eval", "levels.LambdaFunction.pieces"} <= names, names

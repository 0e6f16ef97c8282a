"""Smoke test: every workload, untraced and traced, at supports of at most 100 atoms.

    python3 perfbench/selftest.py

Takes about a minute. Fails (exit 1) when a run exits non-zero, prints a
malformed result line, reports a failed request, or misses a metric that
BENCHMARK.json lists.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def main() -> int:
    problems = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, listed in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, timeout=300,
            )
            tag = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: {result['failed']} of {result['attempted']} failed")
            missing = {m["name"] for m in SPEC[listed]} - set(result["metrics"])
            if missing:
                problems.append(f"{tag}: missing metrics {sorted(missing)}")
            print(f"{tag}: ok, {result['attempted']} requests", file=sys.stderr)
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

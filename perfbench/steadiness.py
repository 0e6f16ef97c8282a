"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/steadiness.py --workload campaign --runs 10

Runs the benchmark once per seed (1..runs, one process at a time, each for the
``run_seconds`` of BENCHMARK.json) and prints,
for each metric, the median and the interquartile range as a share of the
median, computed with ``statistics.quantiles(values, n=4)``. ``--json PATH``
also writes the raw values.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    walls = []
    for seed in range(1, args.runs + 1):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(SECONDS), "--trace", "0"],
            capture_output=True, text=True, timeout=600,
        )
        walls.append(perf_counter() - start)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} requests failed",
                  file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: {walls[-1]:.1f} s, attempted {result['attempted']}", file=sys.stderr)

    print(f"{args.workload}: {args.runs} runs, wall median {statistics.median(walls):.1f} s")
    summary = {}
    for name, vals in sorted(values.items()):
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / statistics.median(vals)
        summary[name] = {"median": statistics.median(vals), "spread": spread, "values": vals}
        print(f"  {name:16s} median {statistics.median(vals):12.6g}  spread {spread:7.2%}")
    if args.json:
        args.json.write_text(json.dumps({"workload": args.workload, "wall_s": walls,
                                         "metrics": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

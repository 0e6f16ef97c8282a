"""Layered benchmark for lambdarisk: one closed-loop client, one workload per process.

    python3 perfbench/run.py --workload lift-entropic --seed 1 --seconds 12 --trace 0

Run from the repository root; the package is imported from ``src/``. With
``--trace 0`` the run times requests for ``--seconds`` (and at least
``MIN_REQUESTS`` of them, so the 90th percentile has ten samples beyond it)
and prints the end-to-end metrics. With ``--trace 1`` it runs a fixed request
list twice, untraced and traced, and prints the per-layer metrics; spans are
written to ``.perfbench_work/``. Either way the last line of standard output
is one JSON object; a human-readable summary goes to standard error.
"""

from __future__ import annotations

import os

# one client and no threads: keep numpy's BLAS pool, and the CLI children's,
# at one thread so the two cores of a small machine do not contend
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import importlib
import itertools
import json
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import probes
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# The machine's speed can flip between two levels about as often as a set-up
# takes, so a single set-up's time is bimodal and a median over single
# set-ups jumps between the modes. Each sample is a batch's mean.
SETUP_BATCHES = 4
SETUP_BATCH = 3
MIN_REQUESTS = 100


def fresh_import():
    """Import the package from ``src/`` anew, so each set-up pays the import."""
    for name in [m for m in sys.modules if m == "lambdarisk" or m.startswith("lambdarisk.")]:
        del sys.modules[name]
    lr = importlib.import_module("lambdarisk")
    importlib.import_module("lambdarisk.cli")
    if Path(lr.__file__).resolve().parent != (SRC / "lambdarisk").resolve():
        raise ImportError(f"lambdarisk was imported from {lr.__file__}, not from {SRC}")
    return lr


def spin(seconds: float = 1.0) -> None:
    """Busy-wait before measuring: a core that was idle runs slower for a while."""
    end = perf_counter() + seconds
    while perf_counter() < end:
        sum(range(1000))


def run_requests(requests, tracer=None):
    """Closed loop: each request starts when the previous one has returned."""
    latencies, outcomes = [], []
    for req in requests:
        if tracer is not None:
            tracer.request = req.key
        start = perf_counter()
        try:
            out, err = req.run(), None
        except Exception as exc:  # a failing request is counted, not fatal
            out, err = None, exc
        latencies.append(perf_counter() - start)
        outcomes.append((req, out, err))
    return latencies, outcomes


def check_all(outcomes) -> int:
    failed = 0
    for req, out, err in outcomes:
        ok = False
        if err is None:
            try:
                ok = bool(req.check(out))
            except Exception as exc:
                err = exc
        if not ok:
            failed += 1
            if failed <= 5:
                print(f"request {req.key} failed: {err!r}" if err else
                      f"request {req.key} failed its check", file=sys.stderr)
    return failed


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed_run(wl, seconds: float, min_requests: int):
    latencies, outcomes, busy, throughput = [], [], 0.0, []
    for rnd in wl.rounds():
        start = perf_counter()
        lat, outs = run_requests(rnd)
        elapsed = perf_counter() - start
        busy += elapsed
        throughput.append(len(rnd) / elapsed)
        latencies += lat
        outcomes += outs
        if busy >= seconds and len(latencies) >= min_requests:
            break
    rss = peak_rss_mb(children=wl.in_children)
    p50, p90 = np.percentile(latencies, [50, 90])
    metrics = {
        # every round has the same mix, so the median round is robust to bursts
        # of load from other tenants of the machine
        "ops_per_s": (statistics.median(throughput), "1/s"),
        "latency_p50_ms": (1e3 * p50, "ms"),
        "latency_p90_ms": (1e3 * p90, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    beyond = sum(1 for x in latencies if x > p90)
    print(f"{len(latencies)} requests in {busy:.2f} s; {beyond} beyond p90", file=sys.stderr)
    return outcomes, metrics


def traced_run(wl, lr, args):
    fixed = [req for rnd in itertools.islice(wl.rounds(), wl.trace_rounds) for req in rnd]
    start = perf_counter()
    run_requests(fixed)
    untraced = perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        start = perf_counter()
        _, outcomes = run_requests(fixed, tracer)
        traced = perf_counter() - start
    finally:
        tracer.restore()
    WORK.mkdir(exist_ok=True)
    tracer.write(WORK / f"spans-{wl.name}-seed{args.seed}.jsonl")
    metrics = layer_metrics(tracer, len(fixed))
    metrics["trace.overhead"] = (traced / untraced, "ratio")
    metrics.update(probes.layer_sweeps(lr, args.seed, args.tiny))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    metrics.update(probes.cli_probe(lr, wl.workdir, env, args.seed, args.tiny))
    return outcomes, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes: supports of at most 100 atoms, no request minimum")
    args = parser.parse_args(argv)
    if not (SRC / "lambdarisk" / "__init__.py").is_file():
        print(f"error: no lambdarisk package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    wl = WORKLOADS[args.workload](args.seed, args.tiny, workdir, SRC)
    try:
        spin()
        setup_times = []
        for _ in range(SETUP_BATCHES):
            start = perf_counter()
            for _ in range(SETUP_BATCH):
                lr = fresh_import()
                wl.setup(lr)
                run_requests(wl.warmup())
            setup_times.append((perf_counter() - start) / SETUP_BATCH)
        if args.trace:
            outcomes, metrics = traced_run(wl, lr, args)
        else:
            outcomes, metrics = timed_run(wl, args.seconds, 1 if args.tiny else MIN_REQUESTS)
            metrics["setup_s"] = (statistics.median(setup_times), "s")
        start = perf_counter()
        failed = check_all(outcomes)
        print(f"checks took {perf_counter() - start:.1f} s", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:44s} {value:14.6g} {unit}", file=sys.stderr)
    print(f"failed_ratio {failed / len(outcomes):.4g} ({failed}/{len(outcomes)}); "
          f"campaign property failures {wl.property_failures}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

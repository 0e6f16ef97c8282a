"""Per-layer size sweeps and cold command-line timings for the traced run.

Each probe times one public call on a seeded input of a fixed size and keeps
the median of ``REPS`` calls (one call at self-test sizes). A probe whose
function a later refactor removed is skipped, so its metric goes missing
instead of failing the run.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

REPS = 3


def _median_ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return 1e3 * statistics.median(times)


def layer_sweeps(lr, seed: int, tiny: bool) -> dict[str, tuple[float, str]]:
    rng = np.random.default_rng([seed, 3])
    reps = 1 if tiny else REPS
    size = (lambda n: min(n, 100)) if tiny else (lambda n: n)
    law = {n: lr.make_distribution(rng.standard_t(4.0, size(n))) for n in (100, 1_000, 10_000)}
    step = lr.Step([0.5, 1.5], [0.97, 0.9, 0.8], "right")
    pl = lr.PiecewiseLinear([-1.0, 0.5, 3.0], [0.97, 0.9, 0.7])
    probes = {
        "classical.evar_value_ms.n1e2": lambda: lr.evar_value(law[100], 2.0, 0.95),
        "classical.evar_value_ms.n1e3": lambda: lr.evar_value(law[1_000], 2.0, 0.95),
        "classical.evar_value_ms.n1e4": lambda: lr.evar_value(law[10_000], 2.0, 0.95),
        "classical.evar_ms.n1e3": lambda: lr.evar(law[1_000], 2.0, 0.95),
        "lifting.es_lift_ms.n1e4": lambda: lr.lambda_lift(
            law[10_000], lr.es_family(law[10_000]), step),
        "lifting.evar2_pl_lift_ms.n1e3": lambda: lr.lambda_lift(
            law[1_000], lr.evar_family(law[1_000], 2.0), pl),
    }
    for n, tag in ((10_000, "n1e4"), (100_000, "n1e5"), (1_000_000, "n1e6")):
        values = rng.standard_normal(size(n))
        probes[f"distributions.build_ms.{tag}"] = lambda v=values: lr.make_distribution(v)
    out = {}
    for name, fn in probes.items():
        try:
            out[name] = (_median_ms(fn, reps), "ms")
        except AttributeError:
            continue
    return out


def cli_probe(lr, workdir, env, seed: int, tiny: bool) -> dict[str, tuple[float, str]]:
    """Interpreter start, import cost, CSV parsing and one cold run per subcommand."""
    rng = np.random.default_rng([seed, 4])
    reps = 1 if tiny else REPS
    workdir.mkdir(parents=True, exist_ok=True)
    small = workdir / "probe_small.csv"
    small.write_text("value\n" + "\n".join(map(repr, rng.standard_normal(100).tolist())) + "\n")
    big = workdir / "probe_1e5.csv"
    big.write_text("value\n" + "\n".join(
        map(repr, rng.standard_normal(100 if tiny else 100_000).tolist())) + "\n")
    step = workdir / "probe_step.json"
    step.write_text('{"type": "step", "thresholds": [0.5, 1.5], "levels": [0.97, 0.9, 0.8]}')

    def cold(*args):
        return lambda: subprocess.run(
            [sys.executable, *args], cwd=workdir, env=env, capture_output=True,
            timeout=120, check=True)

    cli = ("-m", "lambdarisk.cli")
    out = {}
    interpreter = _median_ms(cold("-c", "pass"), reps)
    out["cli.interpreter_ms"] = (interpreter, "ms")
    imported = _median_ms(cold("-c", "import lambdarisk.cli"), reps)
    out["cli.import_ms"] = (imported - interpreter, "ms")
    parse = getattr(lr.cli, "parse_scenarios", None)
    if parse is not None:
        out["cli.parse_ms.n1e5"] = (_median_ms(lambda: parse(str(big)), reps), "ms")
    runs = {
        "evar": ["evar", "--p", "2", "--alpha", "0.95", str(small)],
        "lambda": ["lambda", "--measure", "evar", "--p", "2", "--lambda", str(step), str(small)],
        "ru": ["ru", "--p", "2", "--lambda", str(step), str(small)],
        "robust_wasserstein": ["robust", "wasserstein", "--p", "2", "--delta", "0.1",
                               "--lambda", str(step), str(small)],
        "robust_meanvar": ["robust", "meanvar", "--mean", "0", "--std", "1",
                           "--lambda", str(step)],
        "sweep": ["sweep", "--p", "2", "--lambda", str(step), "--grid=-3:3:50", str(small)],
        "check": ["check", "--seed", str(seed), "--cases", "1"],
    }
    for name, args in runs.items():
        try:
            out[f"cli.run_ms.{name}"] = (_median_ms(cold(*cli, *args), reps), "ms")
        except subprocess.CalledProcessError:
            continue
    return out

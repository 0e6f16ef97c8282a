"""The four workloads: seeded inputs, request rounds and their correctness checks.

A workload builds its inputs in ``setup`` from the seed alone and then yields
*rounds*: lists of requests whose composition (kind x size) is the same in
every round and for every seed, so latency percentiles fall inside one class
of requests rather than on the edge between two. The seed only chooses data:
atoms, weights, levels and the order inside a round.

Every request carries its own check, which the runner calls outside the timed
region; checks compare against ``reference`` and never against lambdarisk.
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from reference import (
    Law,
    cantelli_curve,
    es_curve,
    es_value,
    evar_bracket,
    evar_curve,
    evar_objective,
    level_limits,
    sandwich_ok,
    var_bracket,
    var_curve,
    wasserstein_curve,
    wasserstein_value,
)

ORDERS = (1.5, 2.0, 3.0)
SHAPES = ("normal", "student", "lognormal", "bimodal")
# warm-up inputs are the same for every seed, so set-up does the same work in
# every run and setup_s varies with the machine only
WARMUP_SEED = 0
# the campaign draws support points from [-10, 10]; as in every other check,
# a result may miss by 1e-7 of that spread
CAMPAIGN_TOL = 1e-7 * 20.0


@dataclass
class Request:
    key: str  # requests that share a key must produce identical output
    run: Callable[[], Any]
    check: Callable[[Any], bool]


class Workload:
    name = ""
    trace_rounds = 1  # rounds in the fixed request list of a traced run
    in_children = False  # whether the program runs in child processes

    def __init__(self, seed: int, tiny: bool, workdir: Path, src: Path):
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.src = src
        self.property_failures = 0  # campaign properties reported as failing

    def size(self, n: int) -> int:
        return min(n, 100) if self.tiny else n

    def setup(self, lr) -> None:
        """Build the seeded inputs; called again on every set-up repetition."""
        self.lr = lr

    def warmup(self) -> list[Request]:
        return []

    def rounds(self):
        """Endless rounds of requests; the same seed gives the same sequence."""
        raise NotImplementedError


# -- seeded laws and level functions ------------------------------------------

def draw_law(rng, shape: str, n: int) -> tuple[np.ndarray, np.ndarray | None]:
    if shape == "normal":
        values = rng.normal(0.0, 1.0, n)
    elif shape == "student":
        values = rng.standard_t(3.0, n)
    elif shape == "lognormal":
        values = rng.lognormal(0.0, 0.75, n) - 1.3
    else:  # bimodal
        values = np.where(rng.random(n) < 0.7, rng.normal(-0.5, 0.6, n), rng.normal(2.0, 0.8, n))
    probs = None if shape in ("normal", "lognormal") else rng.uniform(0.2, 1.0, n)
    return values, probs


def _quantiles(sample: np.ndarray, qs) -> list[float]:
    return [float(v) for v in np.quantile(sample, qs)]


def _strict(xs: list[float], gap: float) -> list[float]:
    out = [xs[0]]
    for x in xs[1:]:
        out.append(max(x, out[-1] + gap))
    return out


def level_spec(rng, kind: str, sample: np.ndarray) -> dict:
    """A level function placed on the body of ``sample``: constant, step or PL."""
    gap = 1e-3 * float(np.ptp(sample) or 1.0)
    top = float(rng.uniform(0.9, 0.98))
    if kind == "constant":
        return {"type": "constant", "level": float(rng.uniform(0.6, 0.98))}
    if kind in ("step_right", "step_left"):
        mid = float(rng.uniform(0.75, top))
        th = _strict(_quantiles(sample, [rng.uniform(0.55, 0.75), rng.uniform(0.8, 0.95)]), gap)
        return {
            "type": "step",
            "thresholds": th,
            "levels": [top, mid, float(rng.uniform(0.5, mid))],
            "continuity": kind.split("_")[1],
        }
    # the outer knots bracket the support, so every base curve crosses the
    # identity on a sloped piece and a PL lift always pays for a full bisection
    lo, hi = float(np.min(sample)), float(np.max(sample))
    span = hi - lo or 1.0
    mid = float(rng.uniform(0.7, top))
    xs = [lo - 0.1 * span, _quantiles(sample, [rng.uniform(0.3, 0.8)])[0], hi + 0.5 * span]
    return {"type": "piecewise_linear",
            "points": [[xs[0], top], [xs[1], mid], [xs[2], float(rng.uniform(0.4, mid))]]}


class PoolLaw:
    """One seeded law: the program's distribution plus a lazily built reference."""

    def __init__(self, lr, values, probs):
        self.values = values
        self.probs = probs
        self.dist = lr.make_distribution(values, probs)
        self._law = None

    def law(self) -> Law:
        if self._law is None:
            self._law = Law(self.values, self.probs)
        return self._law


# -- lift-entropic -------------------------------------------------------------

LAMBDA_KINDS = ("constant", "step_right", "step_left", "pl")

# (request kind, support size, level-function kind, order); None order = drawn
LIFT_ROUND = (
    [("es_lift", 10_000, k, 1.0) for k in LAMBDA_KINDS]
    + [("es_lift", 1_000, "step_right", 1.0), ("es_lift", 1_000, "pl", 1.0)]
    + [("evar_lift", n, k, p) for p in ORDERS
       for k, n in (("constant", 100), ("step_right", 1_000), ("step_left", 1_000), ("pl", 100))]
    + [("evar_lift", 1_000, "pl", None)]
    + [("evar", 1_000, None, 1.5), ("evar", 1_000, None, 2.0), ("evar", 100, None, 3.0)]
    + [("wasserstein", 1_000, "step_right", None), ("wasserstein", 100, "pl", None)]
    + [("meanvar", None, "step_right", None), ("meanvar", None, "pl", None)]
)
# two laws of each shape: enough draws that one seed's laws do not set the mix
POOL_SHAPES = {100: SHAPES * 2, 1_000: SHAPES * 2, 10_000: SHAPES}


class LiftEntropic(Workload):
    name = "lift-entropic"
    trace_rounds = 2

    def setup(self, lr) -> None:
        super().setup(lr)
        rng = np.random.default_rng([self.seed, 0])
        self.pool = {
            n: [PoolLaw(lr, *draw_law(rng, shape, self.size(n))) for shape in shapes]
            for n, shapes in POOL_SHAPES.items()
        }

    def warmup(self) -> list[Request]:
        rng = np.random.default_rng([WARMUP_SEED, 2])
        law = PoolLaw(self.lr, *draw_law(rng, "normal", self.size(100)))
        pool = {n: [law] for n in POOL_SHAPES}
        # one whole round on a small law: every request kind, and a cost that
        # does not hinge on a few drawn level functions
        return [self._request(rng, pool, f"warmup.{i}", t) for i, t in enumerate(LIFT_ROUND)]

    def rounds(self):
        rng = np.random.default_rng([self.seed, 1])
        r = 0
        while True:
            reqs = [self._request(rng, self.pool, f"{r}.{i}", t) for i, t in enumerate(LIFT_ROUND)]
            yield [reqs[i] for i in rng.permutation(len(reqs))]
            r += 1

    def _request(self, rng, pool, key, template) -> Request:
        lr = self.lr
        kind, n, lam, p = template
        if p is None:
            p = float(rng.choice(ORDERS))
        if kind == "meanvar":
            m, v = float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.5, 2.0))
            spec = level_spec(rng, lam, m + v * np.linspace(0.0, 3.0, 31))
            return Request(
                key,
                lambda: lr.worst_case_mean_variance(lr.MomentSet(m, v), lr.from_spec(spec)),
                lambda res: _check_meanvar(res, m, v, spec),
            )
        entry = pool[n][int(rng.integers(len(pool[n])))]
        d = entry.dist
        if kind == "evar":
            alpha = float(rng.uniform(0.5, 0.99))
            return Request(key, lambda: lr.evar(d, p, alpha),
                           lambda sol: _check_evar(sol, entry.law(), p, alpha))
        spec = level_spec(rng, lam, entry.values)
        if kind == "wasserstein":
            delta = float(rng.uniform(0.01, 0.2) * np.std(entry.values))
            return Request(
                key,
                lambda: lr.worst_case_wasserstein(d, p, lr.from_spec(spec), delta),
                lambda res: _check_wasserstein(res, entry.law(), p, delta, spec),
            )
        if kind == "es_lift":
            family = lambda: lr.es_family(d)
            curve = lambda law: es_curve(law)
        else:
            family = lambda: lr.evar_family(d, p)
            curve = lambda law: evar_curve(law, p)
        return Request(
            key,
            lambda: lr.lambda_lift(d, family(), lr.from_spec(spec)),
            lambda res: _check_lift(res.value, res.x_star, curve(entry.law()), spec,
                                    entry.law().tol()),
        )


def _check_lift(value, x_star, curve, spec, tol) -> bool:
    return abs(value - x_star) <= tol and sandwich_ok(curve, spec, value, tol)


def _check_evar(sol, law: Law, p: float, alpha: float) -> bool:
    tol = law.tol()
    lo, hi = evar_bracket(law, p, alpha)
    if not (lo - tol <= sol.value <= hi + tol and sol.t_lo <= sol.t_hi):
        return False
    # the reported interval must consist of minimizers
    return all(evar_objective(law, p, alpha, t) <= sol.value + tol for t in (sol.t_lo, sol.t_hi))


def _check_wasserstein(res, law: Law, p: float, delta: float, spec) -> bool:
    tol = law.tol()
    return (
        _check_lift(res.value, res.x_star, wasserstein_curve(law, p, delta), spec, tol)
        and sandwich_ok(evar_curve(law, p), spec, res.nominal, tol)
        and abs(res.inflation - (res.value - res.nominal)) <= tol
    )


def _check_meanvar(res, m: float, v: float, spec) -> bool:
    tol = 1e-7 * v
    return (
        _check_lift(res.value, res.x_star, cantelli_curve(m, v), spec, tol)
        and res.nominal == m
        and abs(res.inflation - (res.value - m)) <= tol
    )


# -- portfolio-large -----------------------------------------------------------

TAIL_LEVELS = (0.9, 0.95, 0.99)
# (rows, positions); four evaluations on the 1e5-row table per one on 1e6 rows
TABLES = ((100_000, 4), (1_000_000, 3))
PORTFOLIO_ROUND = (0, 0, 0, 0, 1)


class PortfolioLarge(Workload):
    name = "portfolio-large"
    trace_rounds = 2

    def setup(self, lr) -> None:
        super().setup(lr)
        self.tables = None  # release the previous repetition's tables first
        rng = np.random.default_rng([self.seed, 0])
        self.tables = [self._table(rng, self.size(n), k) for n, k in TABLES]

    def _table(self, rng, n: int, k: int) -> dict:
        lr = self.lr
        factor = rng.standard_normal(n)
        cols = {
            f"pos{i}": rng.uniform(0.5, 1.5) * factor + rng.uniform(0.5, 2.0) * rng.standard_t(4.0, n)
            for i in range(k)
        }
        weights = rng.uniform(0.5, 1.5, n)
        table = lr.ScenarioTable(weights, cols)
        base = {name: 1.0 / k for name in cols}
        rows = rng.choice(n, size=min(n, 2_000), replace=False)
        return {"table": table, "cols": cols, "weights": weights, "base": base,
                "reference": lr.combine(table, base), "rows": rows, "ref_law": None}

    def warmup(self) -> list[Request]:
        rng = np.random.default_rng([WARMUP_SEED, 2])
        return [self._request(rng, self.tables[0], "warmup", "step_right")]

    def rounds(self):
        rng = np.random.default_rng([self.seed, 1])
        r = 0
        while True:
            reqs = [
                self._request(rng, self.tables[t], f"{r}.{i}",
                              str(rng.choice(("step_right", "step_left", "pl"))))
                for i, t in enumerate(PORTFOLIO_ROUND)
            ]
            yield [reqs[i] for i in rng.permutation(len(reqs))]
            r += 1

    def _request(self, rng, tab: dict, key: str, lam: str) -> Request:
        lr = self.lr
        w = {name: float(rng.uniform(-0.5, 1.5)) for name in tab["cols"]}
        alphas = [a + float(rng.uniform(-0.004, 0.004)) for a in TAIL_LEVELS]
        sample = sum(wi * tab["cols"][name][tab["rows"]] for name, wi in w.items())
        spec = level_spec(rng, lam, sample)

        def run():
            d = lr.combine(tab["table"], w)
            var = [d.quantile(a) for a in alphas]
            es = [d.expected_shortfall(a) for a in alphas]
            lift = lr.lambda_lift(d, lr.var_family(d), lr.from_spec(spec))
            return var, es, lift.value, lift.x_star, lr.wasserstein_distance(d, tab["reference"], 2.0)

        return Request(key, run, lambda out: self._check(tab, w, alphas, spec, out))

    @staticmethod
    def _combined(tab: dict, w: dict) -> Law:
        total = np.zeros(tab["weights"].size)
        for name, wi in w.items():
            total = total + wi * tab["cols"][name]
        return Law(total, tab["weights"])

    def _check(self, tab, w, alphas, spec, out) -> bool:
        var, es, value, x_star, w2 = out
        law = self._combined(tab, w)
        if tab["ref_law"] is None:
            tab["ref_law"] = self._combined(tab, tab["base"])
        tol = law.tol()
        for a, v, e in zip(alphas, var, es):
            lo, hi = var_bracket(law, a)
            if not (lo <= v <= hi and abs(e - es_value(law, a)) <= tol):
                return False
        want = wasserstein_value(law, tab["ref_law"], 2.0)
        return (_check_lift(value, x_star, var_curve(law), spec, tol)
                and abs(w2 - want) <= tol)


# -- campaign ------------------------------------------------------------------

class Campaign(Workload):
    name = "campaign"
    trace_rounds = 2

    def warmup(self) -> list[Request]:
        # negative campaign seeds never occur in the timed sequence; four of
        # them make a set-up long enough to average over the machine's speed
        return [self._request(-1 - j) for j in range(4)]

    def rounds(self):
        k = self.seed * 10_000
        while True:
            yield [self._request(k + i) for i in range(5)]
            k += 5

    def _request(self, k: int) -> Request:
        lr = self.lr
        config = lr.CampaignConfig(seed=k, cases=1, max_support=10 if self.tiny else 20)
        return Request(f"k{k}", lambda: lr.run_campaign(config), self._check)

    def _check(self, report) -> bool:
        return _check_campaign(self, report.to_dict())


def _check_campaign(workload: Workload, report: dict) -> bool:
    """A well-formed one-case report in which every property passes, or misses
    its own bound by no more than ``CAMPAIGN_TOL``. Every miss is counted."""
    props = report.get("properties") or []
    if not props or any(p["cases"] != 1 or p["passes"] + p["failures"] != 1 for p in props):
        return False
    misses = [p for p in props if p["failures"]]
    workload.property_failures += len(misses)
    # a NaN violation is reported as 0, so a miss must carry a positive one
    return (report["all_passed"] == (not misses)
            and all(0.0 < p["worst_violation"] <= CAMPAIGN_TOL for p in misses))


# -- cli-cold ------------------------------------------------------------------

# (command, csv rows, level-function kind, order); orders of None are drawn
CLI_ROUND = (
    [("evar", 10, None, 1.5), ("evar", 100, None, 2.0), ("evar", 1_000, None, 3.0)]
    + [("lambda_var", 100_000, k, None) for k in ("step_right", "step_left", "pl")]
    + [("lambda_var", 100, "pl", None)]
    + [("lambda_es", 100, "step_left", 1.0), ("lambda_es", 1_000, "pl", 1.0)]
    + [("lambda_evar", 10, "step_right", 1.5), ("lambda_evar", 100, "constant", 2.0),
       ("lambda_evar", 100, "pl", 3.0)]
    + [("ru", 100, "step_right", 2.0), ("ru", 1_000, "constant", 1.5)]
    + [("robust_wasserstein", 100, "step_right", 2.0),
       ("robust_wasserstein", 1_000, "step_left", 1.5)]
    + [("robust_meanvar", None, "step_right", None), ("robust_meanvar", None, "pl", None)]
    + [("sweep", 100, "step_right", 2.0), ("check", None, None, None)]
)


class CliCold(Workload):
    name = "cli-cold"
    trace_rounds = 1
    in_children = True

    def setup(self, lr) -> None:
        super().setup(lr)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        rng = np.random.default_rng([self.seed, 0])
        big = None
        self.commands = []
        for i, template in enumerate(CLI_ROUND):
            if template[1] == 100_000 and big is not None:
                csv_law = big
            elif template[1] is not None:
                csv_law = self._write_csv(rng, f"law{i}.csv", self.size(template[1]), i)
                if template[1] == 100_000:
                    big = csv_law
            else:
                csv_law = None
            self.commands.append(self._command(rng, f"c{i}", template, csv_law))
        self.stdout: dict[str, bytes] = {}

    def _write_csv(self, rng, name: str, n: int, i: int):
        values, probs = draw_law(rng, SHAPES[i % len(SHAPES)], n)
        path = self.workdir / name
        with open(path, "w") as fh:
            if probs is None:
                fh.write("value\n" + "\n".join(map(repr, values.tolist())) + "\n")
            else:
                probs = probs / probs.sum()
                fh.write("value,probability\n")
                fh.writelines(f"{v!r},{q!r}\n" for v, q in zip(values.tolist(), probs.tolist()))
        return path, values, probs

    def _spec_file(self, name: str, spec: dict) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(spec))
        return str(path)

    def _command(self, rng, key: str, template, csv_law):
        cmd, _, lam, p = template
        if cmd == "check":
            k = int(rng.integers(10**6))
            return key, ["check", "--seed", str(k), "--cases", "1"], lambda out: _check_campaign(
                self, json.loads(out))
        if cmd == "robust_meanvar":
            m, v = float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.5, 2.0))
            spec = level_spec(rng, lam, m + v * np.linspace(0.0, 3.0, 31))
            measure = str(rng.choice(("var", "es", "evar2")))
            args = ["robust", "meanvar", "--mean", repr(m), "--std", repr(v), "--measure", measure,
                    "--lambda", self._spec_file(f"{key}.json", spec)]
            return key, args, lambda out: _check_meanvar(_Report(out), m, v, spec)
        path, values, probs = csv_law
        law = Law(values, probs)
        tol = law.tol()
        if cmd == "evar":
            alpha = float(rng.uniform(0.5, 0.99))
            args = ["evar", "--p", repr(p), "--alpha", repr(alpha), str(path)]
            return key, args, lambda out: _check_evar(_Report(out), law, p, alpha)
        spec = level_spec(rng, lam, values)
        spec_path = self._spec_file(f"{key}.json", spec)
        if cmd == "sweep":
            lo, hi = float(values.min()) - 0.5, float(values.max()) + 0.5
            args = ["sweep", "--p", repr(p), "--lambda", spec_path, f"--grid={lo!r}:{hi!r}:40",
                    str(path)]
            return key, args, lambda out: _check_sweep(out, law, p, spec, tol)
        if cmd == "robust_wasserstein":
            delta = float(rng.uniform(0.01, 0.2) * np.std(values))
            args = ["robust", "wasserstein", "--p", repr(p), "--delta", repr(delta),
                    "--lambda", spec_path, str(path)]
            return key, args, lambda out: _check_wasserstein(_Report(out), law, p, delta, spec)
        if cmd == "ru":
            args = ["ru", "--p", repr(p), "--lambda", spec_path, str(path)]
            curve = evar_curve(law, p)
        else:
            measure = cmd.split("_")[1]
            args = ["lambda", "--measure", measure, "--lambda", spec_path, str(path)]
            if measure == "evar":
                args[3:3] = ["--p", repr(p)]
            curve = {"var": var_curve(law), "es": es_curve(law)}.get(measure) or evar_curve(law, p)
        return key, args, lambda out: _check_lift(*_value_xstar(out), curve, spec, tol)

    def _run(self, args) -> bytes:
        proc = subprocess.run(
            [sys.executable, "-m", "lambdarisk.cli", *args],
            cwd=self.workdir, env=self.env, capture_output=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}")
        return proc.stdout

    def _request(self, key, args, check) -> Request:
        def checked(out: bytes) -> bool:
            first = self.stdout.setdefault(key, out)
            return out == first and check(out.decode())

        return Request(key, lambda: self._run(args), checked)

    def warmup(self) -> list[Request]:
        # one small command that is not timed later: imports the whole package
        return [
            Request("w1", lambda: self._run(["robust", "meanvar", "--mean", "0", "--std", "1",
                                             "--lambda", self._spec_file("w1.json", {
                                                 "type": "constant", "level": 0.5})]),
                    lambda out: True),
        ]

    def rounds(self):
        rng = np.random.default_rng([self.seed, 1])
        reqs = [self._request(*c) for c in self.commands]
        while True:
            yield [reqs[i] for i in rng.permutation(len(reqs))]


class _Report:
    """Attribute view of a CLI JSON report, so library checks apply unchanged."""

    def __init__(self, text: str):
        rep = json.loads(text)
        self.value = float(rep["value"])
        self.x_star = float(rep["x_star"])
        t = rep.get("t_interval") or [None, None]
        self.t_lo = float(t[0]) if t[0] is not None else None
        self.t_hi = float(t[1]) if t[1] is not None else None
        self.nominal = float(rep["nominal"]) if "nominal" in rep else None
        self.inflation = float(rep["inflation"]) if "inflation" in rep else None


def _value_xstar(out: str) -> tuple[float, float]:
    rep = _Report(out)
    return rep.value, rep.x_star


def _check_sweep(out: str, law: Law, p: float, spec: dict, tol: float) -> bool:
    rows = list(csv.reader(io.StringIO(out)))
    if rows[0] != ["x", "g(x)", "min(g(x),x)", "max(g(x),x)"] or len(rows) != 41:
        return False
    cache: dict[float, tuple[float, float]] = {}
    for row in rows[1:]:
        x, g, lo, hi = map(float, row)
        left, right = level_limits(spec, x)
        for a in (left, right):
            if a not in cache:
                cache[a] = evar_bracket(law, p, a)
        if not (cache[right][0] - tol <= g <= cache[left][1] + tol):
            return False
        if lo != min(g, x) or hi != max(g, x):
            return False
    return True


WORKLOADS = {w.name: w for w in (LiftEntropic, PortfolioLarge, Campaign, CliCold)}

"""Seeded property campaigns over the public surface.

Every documented invariant runs as a generated-case property; three registered
properties are *violation witnesses* (named must_fail_*) asserting that the
axioms the lifted measures genuinely lose — cash additivity, convexity,
mixture concavity — fail with a definite margin on fixed fixtures.

Campaigns are deterministic: each property owns a Random seeded from
(seed, property name) as a string, which hashes the bytes rather than relying
on interpreter hash randomization, and reports carry no timestamps, so the
serialized report is byte-identical across runs and platforms. Failures are
data (counts, worst violation, up to three samples), not exceptions.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .classical import evar, evar_dual_oracle, evar_objective, evar_value, renyi_entropy
from .distributions import (
    DiscreteDistribution,
    MomentSet,
    ScenarioTable,
    combine,
    icx_leq,
    make_distribution,
    mix,
    point_mass,
    wasserstein_distance,
)
from .errors import PreconditionError
from .levels import Constant, LambdaFunction, PiecewiseLinear, Step
from .lifting import (
    es_family,
    evar_family,
    extended_ru,
    homogeneous_form_value,
    lambda_lift,
    lambda_lift_inf,
    sandwich_check,
    var_family,
)
from .robust import worst_case_mean_variance, worst_case_wasserstein

__all__ = ["CampaignConfig", "CampaignReport", "PropertyOutcome", "run_campaign"]


@dataclass(frozen=True)
class CampaignConfig:
    seed: int = 0
    cases: int = 200
    max_support: int = 20


@dataclass(frozen=True)
class PropertyOutcome:
    name: str
    cases: int
    passes: int
    failures: int
    worst_violation: float
    samples: tuple[dict, ...]


@dataclass(frozen=True)
class CampaignReport:
    seed: int
    cases: int
    outcomes: tuple[PropertyOutcome, ...]

    @property
    def all_passed(self) -> bool:
        return all(o.failures == 0 for o in self.outcomes)

    def outcome(self, name: str) -> PropertyOutcome:
        for o in self.outcomes:
            if o.name == name:
                return o
        raise KeyError(f"no property named {name!r}")

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "cases": self.cases,
            "all_passed": self.all_passed,
            "properties": [
                {
                    "name": o.name,
                    "cases": o.cases,
                    "passes": o.passes,
                    "failures": o.failures,
                    "worst_violation": o.worst_violation,
                    "samples": list(o.samples),
                }
                for o in self.outcomes
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(", ", ": "))


# --------------------------------------------------------------------------
# generators

_P_GRID = (1.0, 2.0, 3.0)  # the orders p the cases draw from


def _rand_dist(
    rng: random.Random,
    max_support: int,
    *,
    lo: float = -10.0,
    hi: float = 10.0,
    min_support: int = 1,
) -> DiscreteDistribution:
    n = rng.randint(min_support, max_support)
    vals = [rng.uniform(lo, hi) for _ in range(n)]
    probs = [rng.uniform(0.05, 1.0) for _ in range(n)]
    return make_distribution(vals, probs)


def _distinct_sorted(
    rng: random.Random, k: int, lo: float, hi: float, min_gap: float
) -> list[float]:
    while True:
        xs = sorted(rng.uniform(lo, hi) for _ in range(k))
        if all(b - a >= min_gap for a, b in zip(xs, xs[1:])):
            return xs


def _descending(rng: random.Random, count: int, cap: float) -> list[float]:
    return sorted((rng.uniform(0.0, cap) for _ in range(count)), reverse=True)


def _rand_level_fn(
    rng: random.Random,
    *,
    cap: float = 1.0,
    kinds: tuple[str, ...] = ("constant", "step", "pl"),
) -> LambdaFunction:
    kind = rng.choice(list(kinds))
    if kind == "constant":
        return Constant(rng.uniform(0.0, cap))
    if kind == "step":
        k = rng.randint(1, 4)
        return Step(
            np.array(_distinct_sorted(rng, k, -12.0, 12.0, 0.3)),
            np.array(_descending(rng, k + 1, cap)),
            rng.choice(["left", "right"]),
        )
    k = rng.randint(2, 5)
    # wide segments keep the composed curve's slope moderate
    return PiecewiseLinear(
        np.array(_distinct_sorted(rng, k, -12.0, 12.0, 0.5)),
        np.array(_descending(rng, k, min(cap, 0.97))),
    )


def _rand_family(rng: random.Random, dist: DiscreteDistribution):
    kind = rng.choice(["var", "es", "evar"])
    if kind == "var":
        return var_family(dist)
    if kind == "es":
        return es_family(dist)
    return evar_family(dist, rng.choice(_P_GRID))


def _rand_table(rng: random.Random, max_support: int) -> ScenarioTable:
    n = rng.randint(2, max_support)
    return ScenarioTable(
        np.array([rng.uniform(0.1, 1.0) for _ in range(n)]),
        {
            "X": np.array([rng.uniform(-10.0, 10.0) for _ in range(n)]),
            "Y": np.array([rng.uniform(-10.0, 10.0) for _ in range(n)]),
        },
    )


def _payload(dist=None, level_fn=None, **extra) -> dict:
    out = {k: v for k, v in extra.items()}
    if dist is not None:
        out["atoms"] = [[v, p] for v, p in dist.atoms()]
    if level_fn is not None:
        out["level_fn"] = level_fn.to_spec()
    return out


# --------------------------------------------------------------------------
# property registry

# CampaignConfig is named by a string: typing's process-wide cache keeps the
# arguments of a subscripted Callable, and with them this module's globals
_Case = Callable[[random.Random, "CampaignConfig", float], "tuple[bool, float, dict | None]"]
_PROPERTIES: list[tuple[str, float, _Case]] = []


def _prop(name: str, tol: float):
    def register(fn: _Case) -> _Case:
        _PROPERTIES.append((name, tol, fn))
        return fn

    return register


def _excess(err: float, bound: float) -> tuple[bool, float]:
    return err <= bound, max(0.0, err - bound)


# -- distribution layer ------------------------------------------------------

@_prop("quantile_monotone_es_dominates", 1e-12)
def _case_quantile_es(rng, cfg, tol):
    d = _rand_dist(rng, cfg.max_support)
    alphas = sorted(rng.uniform(0.0, 1.0) for _ in range(4))
    # near alpha = 1 the tail average divides by a tiny 1 - alpha, so rounding
    # is relative to the value scale, not absolute
    scale = tol * (1.0 + max(abs(d.essinf), abs(d.esssup)))
    worst = 0.0
    prev_q = prev_e = -math.inf
    for a in alphas:
        qv, ev = d.quantile(a), d.expected_shortfall(a)
        worst = max(worst, prev_q - qv, prev_e - ev, qv - ev)
        prev_q, prev_e = qv, ev
    return worst <= scale, max(0.0, worst - scale), _payload(d, alphas=alphas)


@_prop("partial_moment_decreasing_convex", 1e-9)
def _case_partial_moment(rng, cfg, tol):
    d = _rand_dist(rng, cfg.max_support)
    p = rng.choice(_P_GRID)
    t0 = rng.uniform(d.essinf - 2.0, d.esssup)
    h = rng.uniform(0.1, 1.0)
    g0, g1, g2 = (d.partial_moment(t0 + i * h, p) for i in range(3))
    scale = 1.0 + g0
    worst = max(g1 - g0, g2 - g1, 2.0 * g1 - g0 - g2)
    return worst <= tol * scale, max(0.0, worst - tol * scale), _payload(d, p=p, t0=t0, h=h)


@_prop("wasserstein_metric", 1e-9)
def _case_wasserstein(rng, cfg, tol):
    a, b, c = (_rand_dist(rng, min(cfg.max_support, 10)) for _ in range(3))
    k = rng.choice([1.0, 2.0, 3.0])
    wab, wba = wasserstein_distance(a, b, k), wasserstein_distance(b, a, k)
    waa = wasserstein_distance(a, a, k)
    tri = wasserstein_distance(a, c, k) - wasserstein_distance(a, b, k) - wasserstein_distance(b, c, k)
    worst = max(abs(wab - wba), waa, tri)
    return worst <= tol, max(0.0, worst - tol), _payload(a, k=k)


@_prop("combine_affine_exact", 1e-12)
def _case_combine(rng, cfg, tol):
    table = _rand_table(rng, cfg.max_support)
    a = rng.uniform(-3.0, 3.0) or 1.0
    b = rng.uniform(-3.0, 3.0)
    scaled = combine(table, {"X": a})
    direct = table.column("X").scale(a)
    shifted = ScenarioTable(
        table.weights, {"X": table.positions["X"], "B": np.full_like(table.weights, b)}
    )
    lhs = combine(shifted, {"X": 1.0, "B": 1.0})
    rhs = table.column("X").shift(b)
    worst = max(
        float(np.max(np.abs(scaled.values - direct.values))),
        float(np.max(np.abs(scaled.probs - direct.probs))),
        float(np.max(np.abs(lhs.values - rhs.values))),
        float(np.max(np.abs(lhs.probs - rhs.probs))),
    )
    return worst <= tol, max(0.0, worst - tol), _payload(
        table.column("X"), a=a, b=b, weights=[float(w) for w in table.weights]
    )


# -- level-function layer ------------------------------------------------------

@_prop("level_fn_monotone_limits", 0.0)
def _case_level_monotone(rng, cfg, tol):
    L = _rand_level_fn(rng)
    xs = sorted(rng.uniform(-15.0, 15.0) for _ in range(5))
    xs += list(L.knots)
    worst = 0.0
    prev = 1.0
    for x in sorted(xs):
        v = L.eval(x)
        worst = max(worst, v - prev, L.right_limit(x) - v, v - L.left_limit(x))
        prev = v
    return worst <= tol, worst, _payload(level_fn=L)


@_prop("superlevel_sup_decreasing", 0.0)
def _case_superlevel(rng, cfg, tol):
    L = _rand_level_fn(rng)
    c1, c2 = sorted((rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)))
    s1, s2 = L.superlevel_sup(c1), L.superlevel_sup(c2)
    ok = s1 >= s2
    return ok, 0.0 if ok else min(s2 - s1, 1.0), _payload(level_fn=L, c1=c1, c2=c2)


@_prop("level_vectorized_consistent", 0.0)
def _case_level_vectorized(rng, cfg, tol):
    L = _rand_level_fn(rng)
    xs = [rng.uniform(-15.0, 15.0) for _ in range(6)]
    cs = [rng.uniform(0.0, 1.0) for _ in range(6)]
    ev = L.eval_many(np.array(xs))
    sv = L.superlevel_sup_many(np.array(cs))
    worst = 0.0
    for i, x in enumerate(xs):
        if float(ev[i]) != L.eval(x):
            worst = 1.0
    for i, c in enumerate(cs):
        if float(sv[i]) != L.superlevel_sup(c):
            worst = 1.0
    return worst == 0.0, worst, _payload(level_fn=L)


# -- classical layer ---------------------------------------------------------

@_prop("es_reduction", 1e-8)
def _case_es_reduction(rng, cfg, tol):
    d = _rand_dist(rng, cfg.max_support)
    alpha = rng.choice([rng.uniform(0.0, 0.995), 0.0, 1.0])
    es = d.expected_shortfall(alpha)
    v = evar(d, 1.0, alpha).value
    ok, excess = _excess(abs(v - es), tol * (1.0 + abs(es)))
    return ok, excess, _payload(d, alpha=alpha, evar=v, es=es)


@_prop("evar_level_monotone_bounded", 1e-8)
def _case_evar_monotone(rng, cfg, tol):
    d = _rand_dist(rng, cfg.max_support)
    p = rng.choice(_P_GRID)
    a1, a2 = sorted((rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)))
    v1, v2 = evar_value(d, p, a1), evar_value(d, p, a2)
    worst = max(v1 - v2, d.mean - v1, v2 - d.esssup)
    return worst <= tol, max(0.0, worst - tol), _payload(d, p=p, a1=a1, a2=a2)


@_prop("evar_cash_additive", 1e-8)
def _case_evar_cash(rng, cfg, tol):
    d = _rand_dist(rng, cfg.max_support)
    p = rng.choice(_P_GRID)
    alpha = rng.uniform(0.0, 0.99)
    c = rng.uniform(-5.0, 5.0)
    lhs = evar_value(d.shift(c), p, alpha)
    rhs = evar_value(d, p, alpha) + c
    ok, excess = _excess(abs(lhs - rhs), tol * (1.0 + abs(rhs)))
    return ok, excess, _payload(d, p=p, alpha=alpha, c=c)


@_prop("evar_positive_homogeneous", 1e-8)
def _case_evar_homog(rng, cfg, tol):
    d = _rand_dist(rng, cfg.max_support)
    p = rng.choice(_P_GRID)
    alpha = rng.uniform(0.0, 0.99)
    s = rng.uniform(0.0, 3.0)
    lhs = evar_value(d.scale(s), p, alpha)
    rhs = s * evar_value(d, p, alpha)
    ok, excess = _excess(abs(lhs - rhs), tol * (1.0 + abs(rhs)))
    return ok, excess, _payload(d, p=p, alpha=alpha, s=s)


@_prop("evar_subadditive", 1e-8)
def _case_evar_subadd(rng, cfg, tol):
    table = _rand_table(rng, cfg.max_support)
    p = rng.choice(_P_GRID)
    alpha = rng.uniform(0.0, 0.99)
    lhs = evar_value(combine(table, {"X": 1.0, "Y": 1.0}), p, alpha)
    rhs = evar_value(table.column("X"), p, alpha) + evar_value(table.column("Y"), p, alpha)
    ok, excess = _excess(max(0.0, lhs - rhs), tol * (1.0 + abs(rhs)))
    return ok, excess, _payload(alpha=alpha, p=p)


@_prop("evar_objective_convex_above_value", 1e-9)
def _case_objective_convex(rng, cfg, tol):
    d = _rand_dist(rng, cfg.max_support)
    p = rng.choice(_P_GRID)
    alpha = rng.uniform(0.0, 0.99)
    sol = evar(d, p, alpha)
    t0 = rng.uniform(d.essinf - 3.0, d.esssup + 1.0)
    h = rng.uniform(0.1, 1.0)
    f0, f1, f2 = (evar_objective(d, p, alpha, t0 + i * h) for i in range(3))
    scale = 1.0 + abs(sol.value)
    worst = max(sol.value - min(f0, f1, f2), 2.0 * f1 - f0 - f2)
    return worst <= tol * scale, max(0.0, worst - tol * scale), _payload(d, p=p, alpha=alpha, t0=t0)


@_prop("evar_weak_duality", 1e-12)
def _case_weak_duality(rng, cfg, tol):
    d = _rand_dist(rng, 3, lo=-5.0, hi=5.0)
    p = rng.choice(_P_GRID[1:])
    alpha = rng.uniform(0.1, 0.9)
    primal = evar_value(d, p, alpha)
    dual = evar_dual_oracle(d, p, alpha, 240)
    ok = dual <= primal + tol
    return ok, max(0.0, dual - primal - tol), _payload(d, p=p, alpha=alpha, primal=primal, dual=dual)


@_prop("renyi_entropy_properties", 1e-12)
def _case_renyi(rng, cfg, tol):
    n = rng.randint(2, 6)
    raw_q = [rng.uniform(0.05, 1.0) for _ in range(n)]
    raw_p = [rng.uniform(0.05, 1.0) for _ in range(n)]
    qw = [x / sum(raw_q) for x in raw_q]
    pw = [x / sum(raw_p) for x in raw_p]
    q1, q2 = sorted((rng.choice([1.0, 1.5, 2.0, 3.0]), rng.choice([1.0, 1.5, 2.0, math.inf])))
    h1, h2 = renyi_entropy(qw, pw, q1), renyi_entropy(qw, pw, q2)
    self_h = renyi_entropy(pw, pw, q1)
    worst = max(-h1, h1 - h2, abs(self_h))
    return worst <= tol, max(0.0, worst - tol), _payload(qw=qw, pw=pw, q1=q1, q2=q2)


# -- lifted layer -------------------------------------------------------------

@_prop("lift_sup_equals_inf", 1e-12)
def _case_sup_inf(rng, cfg, tol):
    d = _rand_dist(rng, cfg.max_support)
    fam = _rand_family(rng, d)
    L = _rand_level_fn(rng)
    res = lambda_lift(d, fam, L)
    inf_v = lambda_lift_inf(d, fam, L)
    bound = 2.0 * max(res.achieved_tol, 1e-12) + tol
    ok, excess = _excess(abs(res.value - inf_v), bound)
    return ok, excess, _payload(d, L, kind=fam.kind, p=fam.p)


@_prop("lift_family_chain", 1e-8)
def _case_chain(rng, cfg, tol):
    d = _rand_dist(rng, cfg.max_support)
    p = rng.choice(_P_GRID)
    L = _rand_level_fn(rng)
    v_var = lambda_lift(d, var_family(d), L).value
    v_es = lambda_lift(d, es_family(d), L).value
    v_evar = lambda_lift(d, evar_family(d, p), L).value
    worst = max(v_var - v_es, v_es - v_evar)
    return worst <= tol, max(0.0, worst - tol), _payload(d, L, p=p)


@_prop("lift_level_monotone", 1e-8)
def _case_lift_level_monotone(rng, cfg, tol):
    d = _rand_dist(rng, cfg.max_support)
    fam = _rand_family(rng, d)
    L = _rand_level_fn(rng)
    shrink = rng.uniform(0.3, 0.9)
    lower = _scale_levels(L, shrink)
    v_hi = lambda_lift(d, fam, L).value
    v_lo = lambda_lift(d, fam, lower).value
    ok, excess = _excess(max(0.0, v_lo - v_hi), tol)
    return ok, excess, _payload(d, L, shrink=shrink, kind=fam.kind)


def _scale_levels(L: LambdaFunction, s: float) -> LambdaFunction:
    if isinstance(L, Constant):
        return Constant(L.level * s)
    if isinstance(L, Step):
        return Step(L.thresholds, L.levels * s, L.continuity)
    return PiecewiseLinear(L.xs, L.ls * s)


@_prop("lift_pointwise_monotone", 1e-8)
def _case_lift_pointwise(rng, cfg, tol):
    table = _rand_table(rng, cfg.max_support)
    bumps = np.array([rng.uniform(0.0, 3.0) for _ in range(table.weights.size)])
    higher = ScenarioTable(
        table.weights, {"X": table.positions["X"], "Y": table.positions["X"] + bumps}
    )
    p = rng.choice(_P_GRID)
    L = _rand_level_fn(rng, kinds=("constant", "step"))
    v_x = lambda_lift(higher.column("X"), evar_family(higher.column("X"), p), L).value
    d_y = higher.column("Y")
    v_y = lambda_lift(d_y, evar_family(d_y, p), L).value
    ok, excess = _excess(max(0.0, v_x - v_y), tol)
    return ok, excess, _payload(level_fn=L, p=p)


@_prop("lift_cash_subadditive", 1e-8)
def _case_lift_cash_subadd(rng, cfg, tol):
    d = _rand_dist(rng, cfg.max_support)
    fam_p = rng.choice(_P_GRID)
    L = _rand_level_fn(rng)
    c = rng.uniform(0.0, 4.0)
    v = lambda_lift(d, evar_family(d, fam_p), L).value
    d_c = d.shift(c)
    v_c = lambda_lift(d_c, evar_family(d_c, fam_p), L).value
    ok, excess = _excess(max(0.0, v_c - (v + c)), tol)
    return ok, excess, _payload(d, L, c=c, p=fam_p)


@_prop("lift_quasi_convex", 1e-8)
def _case_lift_quasi_convex(rng, cfg, tol):
    table = _rand_table(rng, cfg.max_support)
    lam = rng.uniform(0.0, 1.0)
    p = rng.choice(_P_GRID)
    L = _rand_level_fn(rng, kinds=("constant", "step"))
    mix_d = combine(table, {"X": lam, "Y": 1.0 - lam})
    v_mix = lambda_lift(mix_d, evar_family(mix_d, p), L).value
    d_x, d_y = table.column("X"), table.column("Y")
    v_max = max(
        lambda_lift(d_x, evar_family(d_x, p), L).value,
        lambda_lift(d_y, evar_family(d_y, p), L).value,
    )
    ok, excess = _excess(max(0.0, v_mix - v_max), tol)
    return ok, excess, _payload(level_fn=L, lam=lam, p=p)


@_prop("lift_mixture_quasi_concave", 1e-8)
def _case_lift_mixture(rng, cfg, tol):
    d1 = _rand_dist(rng, cfg.max_support)
    d2 = _rand_dist(rng, cfg.max_support)
    gam = rng.uniform(0.0, 1.0)
    p = rng.choice(_P_GRID)
    L = _rand_level_fn(rng, kinds=("constant", "step"))
    mixture = mix(d1, d2, gam)
    v_mix = lambda_lift(mixture, evar_family(mixture, p), L).value
    v_min = min(
        lambda_lift(d1, evar_family(d1, p), L).value,
        lambda_lift(d2, evar_family(d2, p), L).value,
    )
    ok, excess = _excess(max(0.0, v_min - v_mix), tol)
    return ok, excess, _payload(d1, L, gam=gam, p=p)


@_prop("lift_icx_monotone", 1e-8)
def _case_lift_icx(rng, cfg, tol):
    d1 = _rand_dist(rng, cfg.max_support)
    d2 = d1.shift(rng.uniform(0.0, 3.0))
    p = rng.choice(_P_GRID)
    L = _rand_level_fn(rng, kinds=("constant", "step"))
    if not icx_leq(d1, d2, p + 1.0):
        return False, 1.0, _payload(d1, L, p=p, reason="icx order violated by shift")
    v1 = lambda_lift(d1, evar_family(d1, p), L).value
    v2 = lambda_lift(d2, evar_family(d2, p), L).value
    ok, excess = _excess(max(0.0, v1 - v2), tol)
    return ok, excess, _payload(d1, L, p=p)


@_prop("lift_point_mass_normalized", 1e-9)
def _case_lift_point_mass(rng, cfg, tol):
    c = rng.uniform(-8.0, 8.0)
    d = point_mass(c)
    fam = _rand_family(rng, d)
    L = _rand_level_fn(rng)
    v = lambda_lift(d, fam, L).value
    ok, excess = _excess(abs(v - c), tol * (1.0 + abs(c)))
    return ok, excess, _payload(d, L, kind=fam.kind)


@_prop("lift_constant_level_collapse", 1e-12)
def _case_lift_constant(rng, cfg, tol):
    d = _rand_dist(rng, cfg.max_support)
    fam = _rand_family(rng, d)
    alpha = rng.uniform(0.0, 1.0)
    v = lambda_lift(d, fam, Constant(alpha)).value
    ok, excess = _excess(abs(v - fam.level_value(alpha)), tol)
    return ok, excess, _payload(d, alpha=alpha, kind=fam.kind)


@_prop("extended_ru_matches_lift", 1e-9)
def _case_extended_ru(rng, cfg, tol):
    d = _rand_dist(rng, cfg.max_support)
    p = rng.choice(_P_GRID)
    L = _rand_level_fn(rng, kinds=("constant", "step", "pl"))
    if isinstance(L, Step) and L.continuity == "left":
        L = Step(L.thresholds, L.levels, "right")
    lift = lambda_lift(d, evar_family(d, p), L)
    ru = extended_ru(d, p, L)
    bound = 2.0 * max(lift.achieved_tol, ru.achieved_tol, 1e-12) + tol
    worst = max(abs(ru.value - lift.value), abs(ru.x_star - ru.value))
    ok, excess = _excess(worst, bound)
    return ok, excess, _payload(d, L, p=p)


@_prop("sandwich_at_crossing", 1e-7)
def _case_sandwich(rng, cfg, tol):
    d = _rand_dist(rng, cfg.max_support)
    p = rng.choice(_P_GRID)
    L = _rand_level_fn(rng)
    res = lambda_lift(d, evar_family(d, p), L)
    ok = sandwich_check(d, p, L, res.x_star, tol)
    return ok, 0.0 if ok else 1.0, _payload(d, L, p=p, x_star=res.x_star)


@_prop("homogeneous_three_piece", 1e-8)
def _case_homogeneous(rng, cfg, tol):
    d = _rand_dist(rng, min(cfg.max_support, 8))
    p = rng.choice(_P_GRID)
    a1, a2, a3 = sorted((rng.uniform(0.0, 1.0) for _ in range(3)), reverse=True)
    form = homogeneous_form_value(d, p, a1, a2, a3)
    continuity = rng.choice(["left", "right"])  # knot carries a1 or a3; value is a2-free
    L = Step(np.array([0.0]), np.array([a1, a3]), continuity)
    lift = lambda_lift(d, evar_family(d, p), L).value
    s = rng.choice([0.5, 2.0, 10.0])
    form_s = homogeneous_form_value(d.scale(s), p, a1, a2, a3)
    worst = max(
        abs(form - lift) - tol * (1.0 + abs(form)),
        abs(form_s - s * form) - 1e-7 * (1.0 + s) * (1.0 + abs(form)),
    )
    return worst <= 0.0, max(0.0, worst), _payload(d, L, p=p, s=s, form=form, lift=lift)


# -- violation witnesses ------------------------------------------------------

def _witness_level() -> Step:
    return Step(np.array([1.5]), np.array([0.6, 0.2]), "left")


@_prop("must_fail_cash_additivity", 0.1)
def _case_must_fail_cash(rng, cfg, margin):
    p = rng.choice(_P_GRID)
    d = make_distribution([0.0, 1.0], [0.6, 0.4])
    L = _witness_level()
    v = lambda_lift(d, evar_family(d, p), L).value
    d1 = d.shift(1.0)
    v1 = lambda_lift(d1, evar_family(d1, p), L).value
    gap = abs(v1 - (v + 1.0))
    return gap > margin, max(0.0, margin - gap), _payload(d, L, p=p, gap=gap)


@_prop("must_fail_convexity", 0.1)
def _case_must_fail_convexity(rng, cfg, margin):
    p = rng.choice(_P_GRID)
    L = _witness_level()
    x = make_distribution([0.0, 2.0], [0.6, 0.4])
    y = point_mass(0.0)
    z = make_distribution([0.0, 1.0], [0.6, 0.4])  # (X + Y) / 2 scenario-wise
    v = lambda_lift(z, evar_family(z, p), L).value
    bound = 0.5 * (
        lambda_lift(x, evar_family(x, p), L).value
        + lambda_lift(y, evar_family(y, p), L).value
    )
    gap = v - bound
    return gap > margin, max(0.0, margin - gap), _payload(z, L, p=p, gap=gap)


@_prop("must_fail_mixture_concavity", 0.1)
def _case_must_fail_mixture(rng, cfg, margin):
    p = rng.choice(_P_GRID)
    L = Step(np.array([0.0]), np.array([0.8, 0.2]), "right")
    x = make_distribution([-20.0, 1.0], [0.2, 0.8])
    y = make_distribution([-20.0, -1.0], [0.8, 0.2])
    gam = 0.75
    mixture = mix(x, y, gam)
    v_mix = lambda_lift(mixture, evar_family(mixture, p), L).value
    combo = gam * lambda_lift(x, evar_family(x, p), L).value + (1.0 - gam) * lambda_lift(
        y, evar_family(y, p), L
    ).value
    gap = combo - v_mix
    return gap > margin, max(0.0, margin - gap), _payload(mixture, L, p=p, gap=gap)


# -- robust layer -------------------------------------------------------------

@_prop("robust_delta_zero_identity", 1e-9)
def _case_robust_zero(rng, cfg, tol):
    d = _rand_dist(rng, cfg.max_support)
    p = rng.choice(_P_GRID)
    L = _rand_level_fn(rng, cap=0.95)
    wc = worst_case_wasserstein(d, p, L, 0.0)
    nominal = lambda_lift(d, evar_family(d, p), L).value
    worst = max(abs(wc.value - nominal), abs(wc.inflation))
    return worst <= tol, max(0.0, worst - tol), _payload(d, L, p=p)


@_prop("robust_delta_monotone", 1e-9)
def _case_robust_monotone(rng, cfg, tol):
    d = _rand_dist(rng, min(cfg.max_support, 10))
    p = rng.choice(_P_GRID)
    L = _rand_level_fn(rng, cap=0.95, kinds=("constant", "step"))
    d1, d2 = sorted((rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)))
    w1 = worst_case_wasserstein(d, p, L, d1)
    w2 = worst_case_wasserstein(d, p, L, d2)
    worst = max(w1.value - w2.value, -w1.inflation, -w2.inflation)
    return worst <= tol, max(0.0, worst - tol), _payload(d, L, p=p, d1=d1, d2=d2)


@_prop("robust_constant_closed_forms", 1e-12)
def _case_robust_constant(rng, cfg, tol):
    d = _rand_dist(rng, cfg.max_support)
    p = rng.choice(_P_GRID)
    alpha = rng.uniform(0.0, 0.9)
    delta = rng.uniform(0.0, 2.0)
    wc = worst_case_wasserstein(d, p, Constant(alpha), delta)
    expect = evar_value(d, p, alpha) + delta * (1.0 - alpha) ** (-1.0 / p)
    m, v = rng.uniform(-3.0, 3.0), rng.uniform(0.0, 2.0)
    cant = worst_case_mean_variance(MomentSet(m, v), Constant(alpha))
    cant_expect = m + v * math.sqrt(alpha / (1.0 - alpha))
    worst = max(abs(wc.value - expect), abs(cant.value - cant_expect))
    return worst <= tol, max(0.0, worst - tol), _payload(d, p=p, alpha=alpha, delta=delta)


@_prop("robust_meanvar_monotone", 1e-9)
def _case_robust_meanvar(rng, cfg, tol):
    L = _rand_level_fn(rng, cap=0.95)
    m = rng.uniform(-3.0, 3.0)
    v1, v2 = sorted((rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0)))
    c = rng.uniform(0.0, 2.0)
    base = worst_case_mean_variance(MomentSet(m, v1), L).value
    wider = worst_case_mean_variance(MomentSet(m, v2), L).value
    shifted = worst_case_mean_variance(MomentSet(m + c, v1), L).value
    worst = max(base - wider, shifted - (base + c), base - shifted)
    return worst <= tol, max(0.0, worst - tol), _payload(level_fn=L, m=m, v1=v1, v2=v2, c=c)


@_prop("robust_meanvar_dominates_members", 1e-8)
def _case_robust_members(rng, cfg, tol):
    m = rng.uniform(-3.0, 3.0)
    v = rng.uniform(0.05, 2.0)
    q = rng.uniform(0.15, 0.85)
    member = make_distribution(
        [m - v * math.sqrt((1.0 - q) / q), m + v * math.sqrt(q / (1.0 - q))],
        [q, 1.0 - q],
    )
    L = _rand_level_fn(rng, cap=0.9)
    measure = rng.choice(["var", "es", "evar2"])
    fam = {"var": var_family(member), "es": es_family(member), "evar2": evar_family(member, 2.0)}[measure]
    lift = lambda_lift(member, fam, L).value
    worst = worst_case_mean_variance(MomentSet(m, v), L).value
    ok, excess = _excess(max(0.0, lift - worst), tol)
    return ok, excess, _payload(member, L, m=m, v=v, measure=measure)


@_prop("robust_wasserstein_dominates_members", 1e-8)
def _case_robust_wass_members(rng, cfg, tol):
    d = _rand_dist(rng, min(cfg.max_support, 10))
    p = rng.choice(_P_GRID)
    L = _rand_level_fn(rng, cap=0.9, kinds=("constant", "step"))
    c = rng.uniform(-1.5, 1.5)
    shifted = d.shift(c)
    lift = lambda_lift(shifted, evar_family(shifted, p), L).value
    wc = worst_case_wasserstein(d, p, L, abs(c)).value
    ok, excess = _excess(max(0.0, lift - wc), tol)
    return ok, excess, _payload(d, L, p=p, c=c)


# --------------------------------------------------------------------------
# runner

def run_campaign(config: CampaignConfig) -> CampaignReport:
    if config.cases < 1:
        raise PreconditionError("campaign needs cases >= 1")
    if config.max_support < 2:
        raise PreconditionError("campaign needs max_support >= 2")

    outcomes = []
    for name, tol, fn in _PROPERTIES:
        rng = random.Random(f"{config.seed}:{name}")
        passes = failures = 0
        worst = 0.0
        samples: list[dict] = []
        for _ in range(config.cases):
            ok, violation, payload = fn(rng, config, tol)
            if ok:
                passes += 1
            else:
                failures += 1
                worst = max(worst, float(violation))
                if len(samples) < 3 and payload is not None:
                    samples.append(payload)
        outcomes.append(
            PropertyOutcome(name, config.cases, passes, failures, worst, tuple(samples))
        )
    return CampaignReport(config.seed, config.cases, tuple(outcomes))

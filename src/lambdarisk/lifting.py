"""Level-adaptive lifts of fixed-level risk measures.

Given an increasing family alpha -> rho_alpha and a decreasing level function
L, the lifted value

    sup_x  min(rho_{L(x)}(X), x)

equals the unique crossing of the decreasing curve x -> rho_{L(x)}(X) with the
identity. The crossing is located by bisection; jump points of L that land in
the final bracket are snapped exactly whenever the two-sided sandwich

    rho_{L(x+)}(X) <= x <= rho_{L(x-)}(X)

verifies there, so step-function lifts are exact, not approximate. The same
solver drives the inf-of-max form, the joint (t, x) minimization for the
entropic family, and the robust worst cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .classical import (
    EvarSolution,
    _entropy_of_blocks,
    _quantile_interval,
    _simplex_blocks,
    conjugate_order,
    evar,
    evar_objective,
    evar_value,
)
from .distributions import DiscreteDistribution
from .errors import PreconditionError
from .levels import Constant, LambdaFunction

__all__ = [
    "BaseMeasureFamily",
    "LambdaRiskResult",
    "es_family",
    "evar_family",
    "extended_ru",
    "homogeneous_form_value",
    "lambda_evar_dual_oracle",
    "lambda_lift",
    "lambda_lift_inf",
    "sandwich_check",
    "solve_level_crossing",
    "var_family",
]

_INF = float("inf")


@dataclass(frozen=True)
class LambdaRiskResult:
    """Lifted value with the crossing point and the inner minimizer interval.

    value == x_star for every lift (the sup-of-min and the crossing agree);
    t_lo/t_hi are the inner entropic minimizers at level L(x_star), None for
    the quantile family; attained records whether the sup is a max, which is
    exactly left-continuity of the level function.
    """

    value: float
    x_star: float
    t_lo: float | None
    t_hi: float | None
    attained: bool
    iterations: int
    achieved_tol: float


@dataclass(frozen=True, eq=False)
class BaseMeasureFamily:
    """An increasing family of fixed-level measures alpha -> rho_alpha(dist)."""

    kind: str  # "var" | "es" | "evar"
    dist: DiscreteDistribution
    p: float = 1.0

    def __post_init__(self):
        if self.kind not in ("var", "es", "evar"):
            raise PreconditionError(f"unknown base measure family {self.kind!r}")
        if not (isinstance(self.p, (int, float)) and math.isfinite(self.p) and self.p >= 1.0):
            raise PreconditionError("family order p must be a finite number >= 1")

    def level_value(self, alpha: float) -> float:
        """rho_alpha(dist); exact for var/es, golden-section value for evar."""
        if self.kind == "var":
            return self.dist.quantile(alpha)
        if self.kind == "es":
            return self.dist.expected_shortfall(alpha)
        return evar_value(self.dist, self.p, alpha)

    def level_solution(self, alpha: float) -> EvarSolution | None:
        """Full inner solution where one exists (None for the quantile family).

        For es the value and the minimizer interval [VaR_alpha, VaR+_alpha]
        come straight from the CDF, with no inner minimization.
        """
        if self.kind == "var":
            return None
        if self.kind == "evar":
            return evar(self.dist, self.p, alpha)
        value = self.dist.expected_shortfall(alpha)  # validates alpha
        if alpha == 1.0:
            return EvarSolution(value, value, value, 0, 0.0)  # degenerate at esssup
        t_lo, t_hi = _quantile_interval(self.dist, alpha)
        return EvarSolution(value, t_lo, t_hi, 0, 0.0)


def var_family(dist: DiscreteDistribution) -> BaseMeasureFamily:
    return BaseMeasureFamily("var", dist)


def es_family(dist: DiscreteDistribution) -> BaseMeasureFamily:
    return BaseMeasureFamily("es", dist)


def evar_family(dist: DiscreteDistribution, p: float) -> BaseMeasureFamily:
    return BaseMeasureFamily("evar", dist, p)


class _Crossing(NamedTuple):
    x: float
    iterations: int
    width: float


def solve_level_crossing(
    phi: Callable[[float], float],
    level_fn: LambdaFunction,
    lo: float,
    hi: float,
    *,
    rel_tol: float = 1e-12,
    max_iter: int = 200,
) -> _Crossing:
    """Crossing of the decreasing curve x -> phi(L(x)) with the identity.

    phi maps a confidence level to the base measure value and is memoized per
    level, so step-function curves cost a handful of evaluations regardless of
    iteration count. The bracket [lo, hi] must satisfy curve(lo) >= lo and
    curve(hi) <= hi; a short defensive expansion guards the callers' bounds.
    Jump points inside the final bracket are returned exactly when the
    two-sided crossing inequality verifies there; plateau crossings are
    polished to the plateau value.
    """
    cache: dict[float, float] = {}

    def phi_cached(level: float) -> float:
        v = cache.get(level)
        if v is None:
            v = phi(level)
            cache[level] = v
        return v

    def h(x: float) -> float:
        return phi_cached(level_fn.eval(x)) - x

    grow = max(hi - lo, 1.0)
    for _ in range(8):
        if h(lo) >= 0.0:
            break
        lo -= grow
        grow *= 2.0
    grow = max(hi - lo, 1.0)
    for _ in range(8):
        if h(hi) < 0.0:
            break
        hi += grow
        grow *= 2.0
    if h(lo) < 0.0 or h(hi) >= 0.0:
        raise ArithmeticError("crossing bracket could not be established")

    tol_w = rel_tol * (1.0 + (hi - lo))
    iters = 0
    while hi - lo > tol_w and iters < max_iter:
        mid = 0.5 * (lo + hi)
        if h(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
        iters += 1
    width = hi - lo
    x_mid = 0.5 * (lo + hi)

    for k in level_fn.knots:
        if lo - width <= k <= hi + width:
            tol_k = 1e-9 * (1.0 + abs(k))
            if (
                phi_cached(level_fn.right_limit(k)) <= k + tol_k
                and phi_cached(level_fn.left_limit(k)) >= k - tol_k
            ):
                return _Crossing(float(k), iters, width)
    v = phi_cached(level_fn.eval(x_mid))
    if abs(v - x_mid) <= 4.0 * width + 1e-15 * (1.0 + abs(x_mid)):
        return _Crossing(v, iters, width)  # flat plateau: the curve value is exact
    return _Crossing(x_mid, iters, width)


def _crossing_bracket(dist: DiscreteDistribution) -> tuple[float, float]:
    # every base curve is bounded by [essinf, esssup], so the crossing is too
    return dist.essinf - 1.0, dist.esssup + 1.0


def lambda_lift(
    dist: DiscreteDistribution,
    family: BaseMeasureFamily,
    level_fn: LambdaFunction,
    *,
    rel_tol: float = 1e-12,
    max_iter: int = 200,
) -> LambdaRiskResult:
    """sup_x min(rho_{L(x)}(X), x) for an increasing family and decreasing L."""
    attained = level_fn.is_left_continuous
    if isinstance(level_fn, Constant):
        value = family.level_value(level_fn.level)
        sol = family.level_solution(level_fn.level)
        t_lo, t_hi = (sol.t_lo, sol.t_hi) if sol is not None else (None, None)
        return LambdaRiskResult(value, value, t_lo, t_hi, True, 0, 0.0)
    lo, hi = _crossing_bracket(dist)
    cross = solve_level_crossing(
        family.level_value, level_fn, lo, hi, rel_tol=rel_tol, max_iter=max_iter
    )
    sol = family.level_solution(level_fn.eval(cross.x))
    t_lo, t_hi = (sol.t_lo, sol.t_hi) if sol is not None else (None, None)
    return LambdaRiskResult(
        cross.x, cross.x, t_lo, t_hi, attained, cross.iterations, cross.width
    )


def lambda_lift_inf(
    dist: DiscreteDistribution,
    family: BaseMeasureFamily,
    level_fn: LambdaFunction,
    *,
    rel_tol: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """inf_x max(rho_{L(x)}(X), x); equals the sup form up to solver tolerance."""
    if isinstance(level_fn, Constant):
        return family.level_value(level_fn.level)
    lo, hi = _crossing_bracket(dist)
    cross = solve_level_crossing(
        family.level_value, level_fn, lo, hi, rel_tol=rel_tol, max_iter=max_iter
    )
    w = max(cross.width, 1e-12 * (1.0 + abs(cross.x)))
    best = _INF
    for x in (cross.x - w, cross.x, cross.x + w):
        best = min(best, max(family.level_value(level_fn.eval(x)), x))
    return best


def sandwich_check(
    dist: DiscreteDistribution,
    p: float,
    level_fn: LambdaFunction,
    x: float,
    tol: float,
) -> bool:
    """Characterization test: EVaR^p at L(x+) <= x <= EVaR^p at L(x-), within tol."""
    if not tol > 0.0:
        raise PreconditionError("sandwich tolerance must be positive")
    upper = evar_value(dist, p, level_fn.left_limit(x))
    lower = evar_value(dist, p, level_fn.right_limit(x))
    return lower <= x + tol and x <= upper + tol


def extended_ru(
    dist: DiscreteDistribution,
    p: float,
    level_fn: LambdaFunction,
    *,
    rel_tol: float = 1e-12,
    max_iter: int = 200,
) -> LambdaRiskResult:
    """Joint minimization  min_{t,x} max(t + (1-L(x))^{-1/p} ||(X-t)_+||_p, x).

    Needs a right-continuous level function (otherwise the joint min may not be
    attained); the outer variable solves the same crossing as lambda_lift, the
    inner variable is the entropic minimizer interval at the crossing level.
    The optimality residual is verified before returning.
    """
    if not level_fn.is_right_continuous:
        raise PreconditionError("joint minimization needs a right-continuous level function")
    family = evar_family(dist, p)
    if isinstance(level_fn, Constant):
        sol = family.level_solution(level_fn.level)
        x_star = sol.value
        iters, width = sol.iterations, sol.achieved_tol
    else:
        lo, hi = _crossing_bracket(dist)
        cross = solve_level_crossing(
            family.level_value, level_fn, lo, hi, rel_tol=rel_tol, max_iter=max_iter
        )
        x_star = cross.x
        sol = family.level_solution(level_fn.eval(x_star))
        iters, width = cross.iterations, cross.width

    level = level_fn.eval(x_star)
    t_ref = sol.t_hi if not math.isfinite(sol.t_lo) else 0.5 * (sol.t_lo + sol.t_hi)
    inner = dist.esssup if level == 1.0 else evar_objective(dist, p, level, t_ref)
    residual = abs(max(inner, x_star) - x_star)
    # provable slack: curve variation across the final bracket plus its width
    w = max(width, 1e-12 * (1.0 + abs(x_star)))
    variation = family.level_value(level_fn.eval(x_star - w)) - family.level_value(
        level_fn.eval(x_star + w)
    )
    bound = max(1e-9 * (1.0 + abs(x_star)), max(variation, 0.0) + 10.0 * w)
    if residual > bound:
        raise ArithmeticError(f"joint minimum failed verification (residual {residual:g})")
    return LambdaRiskResult(
        x_star, x_star, sol.t_lo, sol.t_hi, level_fn.is_left_continuous, iters, width
    )


def lambda_evar_dual_oracle(
    dist: DiscreteDistribution,
    p: float,
    level_fn: LambdaFunction,
    resolution: int,
) -> float:
    """Grid lower bound on the lift:  max_Q min(E_Q[X], a(Q))  over simplex measures.

    a(Q) = sup{x : L(x) >= 1 - exp(-H_q(Q|P))} is the largest threshold whose
    level still affords Q's entropy; weak duality holds without slack.
    """
    if dist.support_size > 3:
        raise PreconditionError("lifted dual oracle is restricted to supports of size <= 3")
    if not p > 1.0:
        raise PreconditionError("lifted dual oracle needs p > 1")
    if not isinstance(resolution, int) or resolution < 200:
        raise PreconditionError("lifted dual oracle resolution must be an integer >= 200")
    q = conjugate_order(p)
    vals = dist.values
    pw = dist.probs
    best = -_INF
    for K in _simplex_blocks(dist.support_size, resolution):
        Q = K / resolution
        H = np.maximum(_entropy_of_blocks(Q, pw, q), 0.0)  # clip rounding noise
        crit = -np.expm1(-H)  # 1 - e^{-H} in [0, 1)
        a = level_fn.superlevel_sup_many(crit)
        cand = float(np.minimum(Q @ vals, a).max())
        if cand > best:
            best = cand
    return best


def homogeneous_form_value(
    dist: DiscreteDistribution, p: float, a1: float, a2: float, a3: float
) -> float:
    """Closed form for a three-piece level function split at the origin.

    For L = a1 on (-inf, 0), a2 at 0, a3 on (0, inf) with 1 >= a1 >= a2 >= a3 >= 0:

        max( EVaR_{a1} ^ 0,  EVaR_{a2} ^ 0,  EVaR_{a3} )      (^ = min)

    the unique positively homogeneous shape; the middle term never exceeds both
    neighbors, so the value does not depend on a2.
    """
    if not (1.0 >= a1 >= a2 >= a3 >= 0.0):
        raise PreconditionError("levels must satisfy 1 >= a1 >= a2 >= a3 >= 0")
    e1 = evar_value(dist, p, a1)
    e2 = evar_value(dist, p, a2)
    e3 = evar_value(dist, p, a3)
    return max(min(e1, 0.0), min(e2, 0.0), e3)

"""Closed-form worst cases of lifted measures under ambiguity.

Both ambiguity sets admit the same reduction: the worst case of the lift is the
lift of a pointwise-inflated level curve, so the crossing solver from the
lifting module is reused verbatim with an inflated phi.

* Transport ball of radius delta in the order-p Wasserstein distance:
  the curve inflates by  delta * (1 - L(x))^{-1/p}, read off the nominal
  crossing's curve, so a level both crossings visit is solved once.
* Mean/standard-deviation ball (m, v): the one-sided Chebyshev (Cantelli)
  envelope  m + v * sqrt(L(x) / (1 - L(x)))  — identical for the quantile,
  tail-average and order-2 entropic families, so it takes no measure tag.

Each crossing bracket is padded by its own width, so the stopping width scales
with the law (or the moments), not with a fixed unit.

Both require the level function to stay strictly below 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .classical import _check_order
from .distributions import DiscreteDistribution, MomentSet
from .errors import PreconditionError
from .levels import LambdaFunction
from .lifting import _crossing_bracket, evar_family, solve_level_crossing

__all__ = ["RobustResult", "worst_case_mean_variance", "worst_case_wasserstein"]


@dataclass(frozen=True)
class RobustResult:
    """Worst-case value, its crossing point, the nominal value, and the premium."""

    value: float
    x_star: float
    nominal: float
    inflation: float


def worst_case_wasserstein(
    dist: DiscreteDistribution,
    p: float,
    level_fn: LambdaFunction,
    delta: float,
) -> RobustResult:
    """sup over laws within Wasserstein-p distance delta of the lifted EVaR^p."""
    p = _check_order(p)
    if not (math.isfinite(delta) and delta >= 0.0):
        raise PreconditionError("transport radius delta must be finite and >= 0")
    lmax = level_fn.max_level
    if lmax >= 1.0:
        raise PreconditionError("level function must stay strictly below 1")
    family = evar_family(dist, p)
    nominal = solve_level_crossing(family.level_value, level_fn, *_crossing_bracket(dist))

    def phi(alpha: float) -> float:
        return nominal.curve(alpha) + delta * (1.0 - alpha) ** (-1.0 / p)

    top = dist.esssup + delta * (1.0 - lmax) ** (-1.0 / p)
    pad = top - dist.essinf
    cross = solve_level_crossing(phi, level_fn, dist.essinf - pad, top + pad)
    return RobustResult(cross.x, cross.x, nominal.x, cross.x - nominal.x)


def worst_case_mean_variance(moments: MomentSet, level_fn: LambdaFunction) -> RobustResult:
    """Worst case over all laws with mean m and standard deviation <= v.

    The quantile, tail-average and order-2 entropic families share the
    Cantelli envelope, so one value serves all three.
    """
    lmax = level_fn.max_level
    if lmax >= 1.0:
        raise PreconditionError("level function must stay strictly below 1")
    m, v = moments.m, moments.v

    def phi(alpha: float) -> float:
        return m + v * math.sqrt(alpha / (1.0 - alpha))

    top = m + v * math.sqrt(lmax / (1.0 - lmax))
    cross = solve_level_crossing(phi, level_fn, 2.0 * m - top, 2.0 * top - m)
    return RobustResult(cross.x, cross.x, m, cross.x - m)

"""Closed-form worst cases of lifted measures under ambiguity.

Both ambiguity sets admit the same reduction: the worst case of the lift is the
lift of a pointwise-inflated level curve, so the crossing solver from the
lifting module is reused verbatim with an inflated phi, and the result carries
that crossing's diagnostics as a lift's result does.

* Transport ball of radius delta in the order-p Wasserstein distance:
  the curve inflates by  delta * (1 - L(x))^{-1/p}, read off the nominal
  crossing's curve, so a level both crossings visit is solved once.
* Mean/standard-deviation ball (m, v): the one-sided Chebyshev (Cantelli)
  envelope  m + v * sqrt(L(x) / (1 - L(x)))  — identical for the quantile,
  tail-average and order-2 entropic families, so it takes no measure tag.

Each crossing bracket comes from `lifting._crossing_bracket`, so the stopping
width scales with the law (or the moments), not with a fixed unit.

Both require the level function to stay strictly below 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .classical import _check_order
from .distributions import DiscreteDistribution, MomentSet
from .errors import PreconditionError
from .levels import LambdaFunction
from .lifting import LambdaRiskResult, _crossing_bracket, evar_family, solve_level_crossing

__all__ = ["RobustResult", "worst_case_mean_variance", "worst_case_wasserstein"]


@dataclass(frozen=True)
class RobustResult(LambdaRiskResult):
    """A lift's result for the worst case, with the nominal value and the premium.

    value == x_star is the worst-case crossing and inflation = value - nominal.
    The diagnostics are read as for a lift: attained is left-continuity of the
    level function; iterations counts the probes and ITP steps of every
    crossing run (the nominal one too, for the transport ball); achieved_tol
    is the worst-case crossing's final bracket width, 0 when exact; and
    t_lo = t_hi = None, as for the quantile family, since the inflated curve
    has no inner minimization.
    """

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
    curve = evar_family(dist, p).level_value
    nominal = solve_level_crossing(curve, level_fn, *_crossing_bracket(dist.essinf, dist.esssup))

    def phi(alpha: float) -> float:
        return nominal.curve(alpha) + delta * (1.0 - alpha) ** (-1.0 / p)

    top = dist.esssup + delta * (1.0 - lmax) ** (-1.0 / p)
    return _worst_case(phi, level_fn, dist.essinf, top, nominal.x, nominal.iterations)


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
    return _worst_case(phi, level_fn, m, top, m, 0)


def _worst_case(
    phi: Callable[[float], float],
    level_fn: LambdaFunction,
    low: float,
    high: float,
    nominal: float,
    iterations: int,
) -> RobustResult:
    """The crossing of phi(L(x)), which lies in [low, high], after `iterations` earlier steps."""
    cross = solve_level_crossing(phi, level_fn, *_crossing_bracket(low, high))
    attained = level_fn.is_left_continuous
    return RobustResult(
        cross.x, cross.x, None, None, attained, iterations + cross.iterations, cross.width,
        nominal, cross.x - nominal,
    )

"""Level-adaptive lifts of fixed-level risk measures.

Given an increasing family alpha -> rho_alpha and a decreasing level function
L, the lifted value

    sup_x  min(rho_{L(x)}(X), x)

equals the unique crossing of the decreasing curve x -> rho_{L(x)}(X) with the
identity. One solver finds it: a binary search over the pieces between L's
breakpoints, on which L is continuous. Where the curve is flat (a step
plateau, a clamp) the crossing is the curve's value; where the search closes
between two pieces it is the breakpoint, at which the two-sided sandwich

    rho_{L(x+)}(X) <= x <= rho_{L(x-)}(X)

holds by construction. Both are exact, so step-function lifts cost one level
evaluation per halving of the pieces and carry no tolerance. Only a sloped
piece of a piecewise-linear L needs an iterative solve (ITP). The inf-of-max
form, the joint (t, x) minimization for the entropic family and the robust
worst cases all read this one crossing and the level curve it memoized, so no
form solves the inner problem twice at a level the crossing visited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .classical import (
    _check_order,
    _entropy_of_blocks,
    _evar_interval,
    _itp,
    _simplex_blocks,
    conjugate_order,
    evar_objective,
    evar_value,
)
from .distributions import DiscreteDistribution, _check_closed_level
from .errors import PreconditionError
from .levels import LambdaFunction

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
# an ITP crossing stops at _CROSS_TOL of the crossing bracket's width
_CROSS_TOL = 1e-12


@dataclass(frozen=True)
class LambdaRiskResult:
    """Lifted value with the crossing point and the inner minimizer interval.

    value == x_star for every lift (the sup-of-min and the crossing agree);
    t_lo/t_hi are the inner entropic minimizers at level L(x_star), None for
    the quantile family; attained records whether the sup is a max, which is
    exactly left-continuity of the level function. iterations counts the
    crossing's piece probes plus its ITP steps (one probe for a constant
    level); achieved_tol is the width of its final bracket, 0 when exact.
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
    """An increasing family of fixed-level measures alpha -> rho_alpha(dist).

    A lift reads `level_value` at each level its crossing visits, and
    `level_interval`, which solves for no value, at the crossing's level.
    """

    kind: str  # "var" | "es" | "evar"
    dist: DiscreteDistribution
    p: float = 1.0

    def __post_init__(self):
        if self.kind not in ("var", "es", "evar"):
            raise PreconditionError(f"unknown base measure family {self.kind!r}")
        _check_order(self.p)

    def level_value(self, alpha: float) -> float:
        """rho_alpha(dist); exact for var/es, golden-section value for evar."""
        if self.kind == "var":
            return self.dist.quantile(alpha)
        if self.kind == "es":
            return self.dist.expected_shortfall(alpha)
        return evar_value(self.dist, self.p, alpha)

    def level_interval(self, alpha: float) -> tuple[float | None, float | None]:
        """`evar`'s minimizer interval [t_lo, t_hi] at level alpha (order 1 for es).

        Read from the CDF (es) or the support's structure (evar); (None, None)
        for var, which has no inner problem.
        """
        _check_closed_level(alpha)
        if self.kind == "var":
            return None, None
        p = 1.0 if self.kind == "es" else self.p
        t_lo, t_hi, _ = _evar_interval(self.dist, p, alpha)
        return t_lo, t_hi


def var_family(dist: DiscreteDistribution) -> BaseMeasureFamily:
    return BaseMeasureFamily("var", dist)


def es_family(dist: DiscreteDistribution) -> BaseMeasureFamily:
    return BaseMeasureFamily("es", dist)


def evar_family(dist: DiscreteDistribution, p: float) -> BaseMeasureFamily:
    return BaseMeasureFamily("evar", dist, p)


class _Crossing(NamedTuple):
    x: float
    lo: float  # final bracket; lo == hi == x for an exact crossing
    hi: float
    iterations: int
    curve: Callable[[float], float]  # memoized level -> phi(level) the search evaluated

    @property
    def width(self) -> float:
        return self.hi - self.lo


def solve_level_crossing(
    phi: Callable[[float], float], level_fn: LambdaFunction, lo: float, hi: float
) -> _Crossing:
    """Crossing of the decreasing curve x -> phi(L(x)) with the identity.

    L's breakpoints cut the line into pieces on which L is continuous
    (``level_fn.pieces()``), and a binary search over the pieces finds the
    one that holds the crossing. A probe evaluates the curve at the piece's
    ends through the one-sided limits of L there; phi is memoized per level,
    so a piece where L is constant costs one evaluation and neighbours share
    their end levels.

    * Curve flat on the piece (a step plateau, a clamp, or phi equal at both
      ends): the crossing is the curve's value if that lies in the piece.
    * Search closed between two pieces: the curve jumps across the identity
      at the breakpoint between them, and the crossing is that breakpoint.
    * Sloped piece whose ends straddle the identity: ITP (interpolate,
      truncate, project; Oliveira & Takahashi 2020) shrinks the bracket to
      _CROSS_TOL * (hi - lo). ITP never needs more steps than bisection plus
      one and converges superlinearly on smooth curves.

    Only the width of [lo, hi] is used: it is the problem's scale. The record
    keeps the final bracket (lo, hi), one point for an exact crossing; x is
    its midpoint and width its width. iterations counts piece probes plus ITP
    steps (at most classical._MAX_ITER of them). curve is the memoized phi:
    reading it at a level the search visited (a bracket end included) costs
    nothing.
    """
    cache: dict[float, float] = {}

    def curve(level: float) -> float:
        v = cache.get(level)
        if v is None:
            v = float(phi(level))
            if not math.isfinite(v):
                raise ArithmeticError(f"level curve is not finite at level {level!r}")
            cache[level] = v
        return v

    pieces = level_fn.pieces()
    first, last = 0, len(pieces) - 1
    probes = 0
    while first <= last:
        mid = (first + last) // 2
        a, b, level_a, level_b = pieces[mid]
        va, vb = curve(level_a), curve(level_b)
        probes += 1
        if va < a:
            last = mid - 1
        elif vb > b:
            first = mid + 1
        elif va == vb:
            return _Crossing(va, va, va, probes, curve)
        elif va == a or vb == b:
            x = a if va == a else b
            return _Crossing(x, x, x, probes, curve)
        else:
            tol = _CROSS_TOL * abs(hi - lo) or math.ulp(max(abs(a), abs(b)))
            x_lo, x_hi, steps = _itp(
                lambda x: x - curve(level_fn.eval(x)), a, b, a - va, b - vb, tol
            )
            return _Crossing(0.5 * (x_lo + x_hi), x_lo, x_hi, probes + steps, curve)
    # pieces[last] ends above the identity and pieces[first] starts below it
    x = pieces[first][0]
    return _Crossing(x, x, x, probes, curve)


def _crossing_bracket(dist: DiscreteDistribution) -> tuple[float, float]:
    # every base curve lies in [essinf, esssup], so the crossing does too; the
    # padded width is the scale of the crossing's stopping width
    spread = dist.esssup - dist.essinf
    return dist.essinf - spread, dist.esssup + spread


def _check_family(dist: DiscreteDistribution, family: BaseMeasureFamily) -> None:
    law = family.dist
    if law is not dist and not (
        np.array_equal(law.values, dist.values) and np.array_equal(law.probs, dist.probs)
    ):
        raise PreconditionError("the base measure family was built on another law")


def _lift(
    dist: DiscreteDistribution, family: BaseMeasureFamily, level_fn: LambdaFunction
) -> tuple[LambdaRiskResult, _Crossing]:
    """The sup-of-min lift, with the interval at its level, and the crossing record."""
    _check_family(dist, family)
    cross = solve_level_crossing(family.level_value, level_fn, *_crossing_bracket(dist))
    t_lo, t_hi = family.level_interval(level_fn.eval(cross.x))
    attained = level_fn.is_left_continuous
    result = LambdaRiskResult(cross.x, cross.x, t_lo, t_hi, attained, cross.iterations, cross.width)
    return result, cross


def lambda_lift(
    dist: DiscreteDistribution, family: BaseMeasureFamily, level_fn: LambdaFunction
) -> LambdaRiskResult:
    """sup_x min(rho_{L(x)}(X), x) for an increasing family and decreasing L."""
    return _lift(dist, family, level_fn)[0]


def lambda_lift_inf(
    dist: DiscreteDistribution, family: BaseMeasureFamily, level_fn: LambdaFunction
) -> float:
    """inf_x max(rho_{L(x)}(X), x); equals the sup form up to solver tolerance.

    The objective is read off the crossing's curve at the ends of its final
    bracket (the crossing itself when exact), through the one-sided limits of
    L. The crossing visited those levels, so this costs its evaluations only.
    After an ITP solve the value is within the bracket width of the sup form.
    """
    _check_family(dist, family)
    cross = solve_level_crossing(family.level_value, level_fn, *_crossing_bracket(dist))
    best = _INF
    for x in {cross.lo, cross.hi}:
        for level in {level_fn.left_limit(x), level_fn.right_limit(x)}:
            best = min(best, max(cross.curve(level), x))
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


def extended_ru(dist: DiscreteDistribution, p: float, level_fn: LambdaFunction) -> LambdaRiskResult:
    """Joint minimization  min_{t,x} max(t + (1-L(x))^{-1/p} ||(X-t)_+||_p, x).

    Needs a right-continuous level function (otherwise the joint min may not be
    attained). It is lambda_lift's evar lift: the outer variable is the
    crossing, the inner one the entropic minimizer interval at its level, and
    the cost is the crossing's evaluations plus that interval. The
    optimality residual is verified against the crossing's curve at the ends
    of its final bracket before returning, levels the crossing visited, so
    the check costs no further inner solve.
    """
    if not level_fn.is_right_continuous:
        raise PreconditionError("joint minimization needs a right-continuous level function")
    result, cross = _lift(dist, evar_family(dist, p), level_fn)
    x_star, t_lo, t_hi = result.x_star, result.t_lo, result.t_hi
    level = level_fn.eval(x_star)
    if level == 1.0:
        inner = dist.esssup
    elif t_hi == -_INF:  # none resolved: t + c||(X-t)_+||_p >= E[X] (Jensen), = as c -> 1
        inner = dist.mean
    else:
        t_ref = t_hi if t_lo == -_INF else 0.5 * (t_lo + t_hi)
        inner = evar_objective(dist, p, level, t_ref)
    residual = abs(max(inner, x_star) - x_star)
    # provable slack: the curve C decreases, C(L(lo-)) >= lo and C(L(hi+)) <= hi
    # on the final bracket [lo, hi], so inner - x* <= C(L(lo-)) - C(L(hi+)) + width/2
    variation = cross.curve(level_fn.left_limit(cross.lo)) - cross.curve(
        level_fn.right_limit(cross.hi)
    )
    bound = max(1e-9 * (1.0 + abs(x_star)), max(variation, 0.0) + 0.5 * cross.width)
    if residual > bound:
        raise ArithmeticError(f"joint minimum failed verification (residual {residual:g})")
    return result


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

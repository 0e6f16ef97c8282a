"""Fixed-level risk measures: the entropic value-at-risk of order p and friends.

The order-p entropic value-at-risk solves the one-dimensional convex program

    EVaR^p_alpha(X) = inf_t  t + (1/(1-alpha))^{1/p} * E[(X-t)_+^p]^{1/p},

reducing to expected shortfall at p = 1 and to esssup at alpha = 1. The solver
returns the value together with the full minimizer interval (the objective's
flat bottom), which downstream joint minimizations report as t*. On a finite
support the interval has exact structure: the quantile interval at p = 1, and
for p > 1 a top-atom rule plus a binary search for the atom segment that holds
the unique minimizer, solved there in closed form (p = 2) or by ITP.

An independent simplex-grid search over the Renyi-entropy dual ball provides a
lower-bound cross-check for small supports; weak duality is preserved exactly
because the feasibility test never relaxes the entropy budget.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .distributions import DiscreteDistribution, _check_closed_level
from .errors import PreconditionError

__all__ = [
    "EvarSolution",
    "conjugate_order",
    "evar",
    "evar_dual_oracle",
    "evar_objective",
    "evar_value",
    "renyi_entropy",
]

_INF = float("inf")
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# knife-edge slack on masses: a level against a partial sum, c^p * P_top against 1
_SLACK = 1e-12
# the solvers' fixed precision: golden section stops at _REL_TOL * (1 + spread),
# an interval's ITP at _REL_TOL of its bracket; every loop stops at _MAX_ITER steps
_REL_TOL = 1e-10
_MAX_ITER = 200


def conjugate_order(p: float) -> float:
    """Holder conjugate q with 1/p + 1/q = 1 (q = inf at p = 1)."""
    p = _check_order(p)
    return _INF if p == 1.0 else p / (p - 1.0)


@dataclass(frozen=True)
class EvarSolution:
    """Value plus the closed minimizer interval [t_lo, t_hi] (endpoints may be -inf).

    iterations counts the value's golden-section steps plus the interval's
    slope probes and ITP steps; achieved_tol is the golden-section bracket.
    """

    value: float
    t_lo: float
    t_hi: float
    iterations: int
    achieved_tol: float


def evar_objective(dist: DiscreteDistribution, p: float, alpha: float, t: float) -> float:
    """t + (1/(1-alpha))^{1/p} * E[(X-t)_+^p]^{1/p}  for alpha in [0, 1)."""
    p = _check_order(p)
    if not 0.0 <= alpha < 1.0:
        raise PreconditionError(f"level {alpha!r} outside [0, 1)")
    if not math.isfinite(t):
        raise PreconditionError("objective argument t must be finite")
    return _objective_value(dist, p, (1.0 / (1.0 - alpha)) ** (1.0 / p), t)


def _objective_value(dist: DiscreteDistribution, p: float, c: float, t: float) -> float:
    pm = dist._plus_power_sum(t, p)
    if pm <= 0.0:
        return t
    return t + c * pm ** (1.0 / p)


def _objective_slope(dist: DiscreteDistribution, p: float, c: float, t: float) -> float:
    """d/dt of the objective at t, from the partial moments of the whole law."""
    sp = dist._plus_power_sum(t, p)
    if sp <= 0.0:
        return 1.0
    s1 = dist.survival(t) if p == 1.0 else dist._plus_power_sum(t, p - 1.0)
    return _slope(c, p, s1, sp)


def _slope(c: float, p: float, s1: float, sp: float) -> float:
    """The slope  1 - c * S_{p-1}(t) * S_p(t)^{(1-p)/p},  S_r = E[(X-t)_+^r]: negative
    left of the flat bottom, positive right of it, unchanged by rescaling X - t."""
    return 1.0 - c * s1 * sp ** ((1.0 - p) / p)


def evar_value(dist: DiscreteDistribution, p: float, alpha: float) -> float:
    """The entropic value-at-risk alone, without the minimizer interval.

    The value solve that `evar` runs (golden section to _REL_TOL of the
    spread, polished at every atom; the mean where c = (1-alpha)^{-1/p}
    rounds to 1), for callers that evaluate the measure at many levels
    (curve solvers, grid oracles).
    """
    p = _check_order(p)
    _check_closed_level(alpha)
    return _evar_core(dist, p, alpha)[0]


def evar(dist: DiscreteDistribution, p: float, alpha: float) -> EvarSolution:
    """Entropic value-at-risk of order p at level alpha, with its minimizer interval.

    The value is `evar_value`'s. The interval depends on the law, p and alpha
    only, not on the value: the quantile interval at p = 1,
    `_minimizer_interval` at p > 1. At alpha = 0 with p > 1, or a level so
    small that c = (1-alpha)^{-1/p} rounds to 1 or lies a few ulps above it,
    the infimum (about the mean) is approached only as t -> -inf, so
    t_lo = -inf and t_hi is where the objective rises past the mean by the
    fixed slack 1e-9 * (1 + |mean|) (`_upper_threshold`).
    """
    p = _check_order(p)
    _check_closed_level(alpha)
    value, iters, width = _evar_core(dist, p, alpha)
    t_lo, t_hi, steps = _evar_interval(dist, p, alpha)
    return EvarSolution(value, t_lo, t_hi, iters + steps, width)


def _evar_interval(dist: DiscreteDistribution, p: float, alpha: float) -> tuple[float, float, int]:
    """`evar`'s minimizer interval [t_lo, t_hi] and the steps it took, with no value solve."""
    top = dist.esssup
    if alpha == 1.0:
        return top, top, 0
    if p == 1.0:
        return (*_quantile_interval(dist, alpha), 0)
    c = (1.0 / (1.0 - alpha)) ** (1.0 / p)
    found = None if c == 1.0 else _minimizer_interval(dist, p, alpha, c)
    if found is None:
        t_hi, steps = _upper_threshold(dist, p, c)
        found = (-_INF, t_hi, steps)
    return found


def _evar_core(dist: DiscreteDistribution, p: float, alpha: float) -> tuple[float, int, float]:
    """Golden-section minimum, leftward bracket doubling, atom polish: value, steps, width."""
    if alpha == 1.0:
        return dist.esssup, 0, 0.0
    c = (1.0 / (1.0 - alpha)) ** (1.0 / p)
    if c == 1.0:
        # the objective is t + ||(X-t)_+||_p (at alpha = 0, or a level so small
        # that c rounds to 1), whose infimum E[X] is attained on (-inf, essinf]
        # at p = 1 and in the t -> -inf limit at p > 1; chasing it would cancel
        return dist.mean, 0, 0.0
    objective = lambda t: _objective_value(dist, p, c, t)
    span = dist.esssup - dist.essinf
    step = max(span, 1.0)
    a, b = dist.essinf - step, dist.esssup
    # the minimum is bracketed iff the slope at a is already nonpositive; the
    # slope tends to 1 - c < 0 as t -> -inf, so this terminates for c > 1
    doublings = 0
    while _objective_slope(dist, p, c, a) > 0.0 and doublings < 60:
        a = b - 2.0 * (b - a)
        doublings += 1
    f_best, iters, width = _golden_min(objective, a, b, _REL_TOL * (1.0 + span))
    for t in map(float, dist.values):
        f_best = min(f_best, objective(t))
    return f_best, iters + doublings, width


def _golden_min(
    f: Callable[[float], float], a: float, b: float, tol: float
) -> tuple[float, int, float]:
    """Least value seen by golden section on [a, b], its steps and final width."""
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    best = fc if fc <= fd else fd
    iters = 0
    while b - a > tol and iters < _MAX_ITER:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
            best = min(best, fc)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
            best = min(best, fd)
        iters += 1
    return best, iters, b - a


def _quantile_interval(dist: DiscreteDistribution, alpha: float) -> tuple[float, float]:
    """Exact minimizer interval [VaR_alpha, VaR+_alpha] of the p = 1 objective.

    A _SLACK on the cumulative masses keeps knife-edge levels (alpha equal
    to a partial sum up to rounding) from flipping an index.
    """
    cum = dist._cum
    n = dist.support_size
    if alpha == 0.0:
        t_lo = -_INF  # the objective is flat on (-inf, essinf]
    else:
        t_lo = float(dist.values[min(int(np.searchsorted(cum, alpha - _SLACK, side="left")), n - 1)])
    t_hi = float(dist.values[min(int(np.searchsorted(cum, alpha + _SLACK, side="right")), n - 1)])
    return t_lo, t_hi


def _minimizer_interval(
    dist: DiscreteDistribution, p: float, alpha: float, c: float
) -> tuple[float, float, int] | None:
    """Exact minimizer interval of the p > 1 objective at c > 1, and its probes plus ITP steps.

    Works on the standardised atoms z = (x - esssup) / spread in [-1, 0]. On
    the top segment the slope is the constant 1 - c * P_top^{1/p}, so
    c^p * P_top = 1 (within _SLACK) gives the flat bottom [x_{n-2}, esssup]
    and c^p * P_top > 1 the point esssup. Otherwise the objective is strictly
    convex below, and a binary search finds the last atom where the slope,
    read from the tail above it, is negative; the minimizer is the slope's
    root on the next segment: mu_S - sqrt(V_S / (c^2 P_S - 1)) from the
    tail's mass, mean and variance at p = 2, the final ITP bracket (_REL_TOL
    of the segment) at other p. None if the slope far below essinf does not
    read negative (c within a few ulps of 1).
    """
    top, n = dist.esssup, dist.support_size
    gap = c**p * float(dist.probs[-1]) - 1.0
    if n > 1 and abs(gap) <= _SLACK:
        return float(dist.values[-2]), top, 0
    if n == 1 or gap > 0.0:
        return top, top, 0
    spread = top - dist.essinf
    z = (dist.values - top) / spread
    w = dist.probs

    def slope(tau: float, k: int) -> float:
        # slope at tau < 0 from the tail z[k:], whose excesses z - tau are
        # divided by -tau so that they lie in [0, 1] however far out tau is
        y = 1.0 - z[k:] / tau
        y_q = y ** (p - 1.0)
        return _slope(c, p, float(w[k:] @ y_q), float(w[k:] @ (y_q * y)))

    # slope(z[lo]) < 0 <= slope(z[hi]), with lo = -1 standing for t -> -inf;
    # the top-atom rule has made the slope on the top segment positive
    lo, hi, probes = -1, n - 2, 0
    f_lo = f_hi = None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        s = slope(float(z[mid]), mid + 1)
        probes += 1
        if s < 0.0:
            lo, f_lo = mid, s
        else:
            hi, f_hi = mid, s
    b = float(z[hi])
    if p == 2.0:
        zs, ws = z[hi:], w[hi:]
        mass = float(ws.sum())
        mu = float(ws @ zs) / mass
        var = float(ws @ (zs - mu) ** 2) / mass
        excess = (alpha - (0.0 if lo < 0 else float(dist._cum[lo]))) / (1.0 - alpha)
        tau = mu - math.sqrt(var / excess) if excess > 0.0 else -_INF
        tau_lo = tau_hi = min(max(tau, -_INF if lo < 0 else float(z[lo])), b)
    else:
        if lo < 0:
            # with every excess z - a in [m, m + 1] the slope is at most
            # 1 - c (m/(m+1))^{p-1}, negative once m > 1/(1 - c^{-1/(p-1)})
            a = -1.0 - 2.0 / -math.expm1(-math.log1p(c - 1.0) / (p - 1.0))
            f_lo = slope(a, 0)
            probes += 1
            if not f_lo < 0.0:
                return None
        else:
            a = float(z[lo])
        if f_hi is None:
            f_hi = slope(b, hi + 1)
            probes += 1
        tol = _REL_TOL * (b - a) or math.ulp(b - a)
        tau_lo, tau_hi, steps = _itp(lambda tau: slope(tau, hi), a, b, f_lo, f_hi, tol)
        probes += steps
    return top + spread * tau_lo, top + spread * tau_hi, probes


def _upper_threshold(dist: DiscreteDistribution, p: float, c: float) -> tuple[float, int]:
    """sup{t : objective(t) <= mean + s}, s = 1e-9 * (1 + |mean|), and the work it took.

    Used where c is 1 or within a few ulps of it, so the objective comes
    within s of the mean only far below essinf, where one ulp of t exceeds s
    and t + c ||X - t||_p - mean cancels. More than a spread below essinf the
    excess over the mean is evaluated without cancellation instead: with
    d = mean - t and u = (X - mean) / d in (-1/2, 1), it is
    d * expm1(log1p(E[expm1(p log1p(u))]) / p) + (c - 1) ||X - t||_p.
    The objective is t above esssup. Doubling steps under essinf find a
    start and one ITP solve up to esssup ends at _REL_TOL of the spread,
    returning the final bracket's left end (objective still <= mean + s).
    """
    top, bottom, mean = dist.esssup, dist.essinf, dist.mean
    slack = 1e-9 * (1.0 + abs(mean))
    thr = mean + slack
    if thr >= top:
        return thr, 0
    spread = top - bottom

    def g(t: float) -> float:
        if not t < bottom - spread:
            return _objective_value(dist, p, c, t) - thr
        d = mean - t
        u = (dist.values - mean) / d
        excess = d * math.expm1(math.log1p(float(dist.probs @ np.expm1(p * np.log1p(u)))) / p)
        return excess + (c - 1.0) * (d + excess) - slack

    a, step, doublings = bottom, spread, 0
    ga = g(a)
    while ga > 0.0 and doublings < 60:
        a -= step
        step *= 2.0
        doublings += 1
        ga = g(a)
    if ga > 0.0:
        return a, doublings  # the objective never came under thr this far out
    t_hi, _, steps = _itp(g, a, top, ga, top - thr, _REL_TOL * spread or math.ulp(spread))
    return t_hi, doublings + steps


def _itp(
    f: Callable[[float], float], a: float, b: float, fa: float, fb: float, tol: float
) -> tuple[float, float, int]:
    """Root of an increasing f on [a, b] with fa < 0 < fb, to bracket width tol.

    ITP (interpolate, truncate, project; Oliveira & Takahashi 2020) with
    kappa1 = 0.2 / (b - a), kappa2 = 2 and n0 = 1: at most
    ceil(log2((b - a) / tol)) + 1 steps, superlinear on smooth f. Returns the
    final bracket and the step count (at most _MAX_ITER); the bracket is one
    point where f vanishes exactly.
    """
    eps = 0.5 * tol
    width0 = b - a
    n_max = max(0, math.ceil(math.log2(width0 / tol))) + 1
    steps = 0
    while b - a > tol and steps < _MAX_ITER:
        half = 0.5 * (a + b)
        if not a < half < b:  # no float left strictly inside
            break
        x_f = (fb * a - fa * b) / (fb - fa)
        sigma = math.copysign(1.0, half - x_f)
        delta = 0.2 * (b - a) * ((b - a) / width0)
        x_t = x_f + sigma * delta if delta <= abs(half - x_f) else half
        r = max(math.ldexp(eps, n_max - steps) - 0.5 * (b - a), 0.0)  # 0: plain bisection
        x = x_t if abs(x_t - half) <= r else half - sigma * r
        y = f(x)
        steps += 1
        if y > 0.0:
            b, fb = x, y
        elif y < 0.0:
            a, fa = x, y
        else:
            return x, x, steps
    return a, b, steps


def renyi_entropy(
    q_weights: Iterable[float], p_weights: Iterable[float], q: float
) -> float:
    """Renyi divergence H_q(Q | P) of order q >= 1 between finite weight vectors.

    Returns +inf when Q is not absolutely continuous w.r.t. P. Conventions:
    0*log 0 = 0; q = 1 is the Kullback-Leibler limit; q = inf the log of the
    worst likelihood ratio.
    """
    qw = np.asarray(list(q_weights), dtype=float)
    pw = np.asarray(list(p_weights), dtype=float)
    if qw.shape != pw.shape or qw.ndim != 1 or qw.size == 0:
        raise PreconditionError("weight vectors must be non-empty and of equal length")
    for name, w in (("q_weights", qw), ("p_weights", pw)):
        if not np.all(np.isfinite(w)) or np.any(w < 0.0):
            raise PreconditionError(f"{name} must be finite and nonnegative")
        if abs(float(w.sum()) - 1.0) > 1e-9:
            raise PreconditionError(f"{name} must sum to 1")
    if not q >= 1.0:
        raise PreconditionError("entropy order must be >= 1")
    support = qw > 0.0
    if np.any(pw[support] <= 0.0):
        return _INF
    ratios = qw[support] / pw[support]
    if q == 1.0:
        return float(qw[support] @ np.log(ratios))
    if math.isinf(q):
        return float(np.log(np.max(ratios)))
    return float(np.log(pw[support] @ ratios**q) / (q - 1.0))


def _simplex_blocks(m: int, resolution: int) -> Iterator[np.ndarray]:
    """Integer compositions of `resolution` into m parts, in vectorized blocks."""
    res = resolution
    if m == 1:
        yield np.array([[float(res)]])
    elif m == 2:
        k = np.arange(res + 1, dtype=float)
        yield np.stack([k, res - k], axis=1)
    elif m == 3:
        for k1 in range(res + 1):
            k2 = np.arange(res - k1 + 1, dtype=float)
            yield np.stack([np.full_like(k2, float(k1)), k2, res - k1 - k2], axis=1)
    elif m == 4:
        for k1 in range(res + 1):
            rem = res - k1
            g2, g3 = np.meshgrid(np.arange(rem + 1), np.arange(rem + 1), indexing="ij")
            keep = g2 + g3 <= rem
            k2 = g2[keep].astype(float)
            k3 = g3[keep].astype(float)
            yield np.stack([np.full_like(k2, float(k1)), k2, k3, rem - k2 - k3], axis=1)
    else:
        raise PreconditionError("simplex grid supports at most 4 atoms")


def _entropy_of_blocks(Q: np.ndarray, pw: np.ndarray, q: float) -> np.ndarray:
    """Row-wise H_q(Q_i | pw) for rows of a simplex block (pw strictly positive)."""
    s = (pw * (Q / pw) ** q).sum(axis=1)
    return np.log(s) / (q - 1.0)


def evar_dual_oracle(
    dist: DiscreteDistribution, p: float, alpha: float, resolution: int
) -> float:
    """Grid lower bound: max E_Q[X] over grid measures with H_q(Q|P) <= log 1/(1-alpha).

    Restricted to supports of size <= 4 and p > 1 (finite conjugate order);
    converges to the primal value as resolution grows, and never exceeds it
    because the entropy budget is enforced without slack.
    """
    if dist.support_size > 4:
        raise PreconditionError("dual oracle is restricted to supports of size <= 4")
    if not p > 1.0:
        raise PreconditionError("dual oracle needs p > 1")
    if not isinstance(resolution, int) or resolution < 100:
        raise PreconditionError("dual oracle resolution must be an integer >= 100")
    if not 0.0 <= alpha < 1.0:
        raise PreconditionError(f"level {alpha!r} outside [0, 1)")
    if alpha == 0.0:
        return dist.mean  # only the reference measure is feasible
    q = conjugate_order(p)
    bound = -math.log1p(-alpha)
    vals = dist.values
    pw = dist.probs
    best = -_INF
    for K in _simplex_blocks(dist.support_size, resolution):
        Q = K / resolution
        H = _entropy_of_blocks(Q, pw, q)
        feasible = H <= bound
        if feasible.any():
            cand = float((Q[feasible] @ vals).max())
            if cand > best:
                best = cand
    if not math.isfinite(best):
        raise ArithmeticError("no feasible grid measure found")  # not reachable: Q ~ P
    return best


def _check_order(p: float) -> float:
    """The one order check: a finite real >= 1 of any kind (numpy scalars
    included, never a bool), returned as a Python float."""
    real = isinstance(p, numbers.Real) and not isinstance(p, bool)
    if not (real and math.isfinite(p) and p >= 1.0):
        raise PreconditionError(f"order p must be a finite number >= 1, got {p!r}")
    return float(p)


"""Fixed-level risk measures: the entropic value-at-risk of order p and friends.

The order-p entropic value-at-risk solves the one-dimensional convex program

    EVaR^p_alpha(X) = inf_t  t + (1/(1-alpha))^{1/p} * E[(X-t)_+^p]^{1/p},

reducing to expected shortfall at p = 1 and to esssup at alpha = 1. The solver
returns the value together with the full minimizer interval (the objective's
flat bottom), which downstream joint minimizations report as t*.

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

from .distributions import DiscreteDistribution
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


def conjugate_order(p: float) -> float:
    """Holder conjugate q with 1/p + 1/q = 1 (q = inf at p = 1)."""
    p = _check_order(p)
    return _INF if p == 1.0 else p / (p - 1.0)


@dataclass(frozen=True)
class EvarSolution:
    """Value plus the closed minimizer interval [t_lo, t_hi] (endpoints may be -inf)."""

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
    """d/dt of the objective:  1 - c * S_{p-1}(t) * S_p(t)^{(1-p)/p},  S_r = E[(X-t)_+^r].

    Negative left of the flat bottom, positive right of it; equals 1 above
    esssup where the partial moment vanishes.
    """
    sp = dist._plus_power_sum(t, p)
    if sp <= 0.0:
        return 1.0
    s1 = dist.survival(t) if p == 1.0 else dist._plus_power_sum(t, p - 1.0)
    return 1.0 - c * s1 * sp ** ((1.0 - p) / p)


def evar_value(
    dist: DiscreteDistribution,
    p: float,
    alpha: float,
    *,
    rel_tol: float = 1e-10,
    max_iter: int = 200,
) -> float:
    """The entropic value-at-risk alone, skipping minimizer-interval recovery.

    Cheap path for callers that evaluate the measure at many levels (curve
    solvers, grid oracles); `evar` delegates here and then recovers t*.
    """
    p = _check_order(p)
    _check_solver_inputs(rel_tol, max_iter)
    if not 0.0 <= alpha <= 1.0:
        raise PreconditionError(f"level {alpha!r} outside [0, 1]")
    value, _, _, _ = _evar_core(dist, p, alpha, rel_tol, max_iter)
    return value


def evar(
    dist: DiscreteDistribution,
    p: float,
    alpha: float,
    *,
    rel_tol: float = 1e-10,
    max_iter: int = 200,
    interval_tol: float | None = None,
) -> EvarSolution:
    """Entropic value-at-risk of order p at level alpha, with its minimizer interval.

    alpha = 1 returns esssup (interval degenerate at esssup). alpha = 0 with
    p > 1 returns the mean; the infimum is approached only as t -> -inf, so
    t_lo = -inf and t_hi is where the objective exceeds value + interval_tol
    (finite and >= 0; None means 1e-9 * (1 + |value|)). Otherwise the
    objective is minimized by golden section over an adaptively widened
    bracket, the value is polished by evaluating every atom (at p = 1
    the exact minimizer is a quantile), and the flat bottom is recovered from
    the objective's analytic slope, exactly at p = 1 via CDF quantiles.
    """
    p = _check_order(p)
    _check_solver_inputs(rel_tol, max_iter)
    if not (interval_tol is None or (_finite_real(interval_tol) and interval_tol >= 0.0)):
        raise PreconditionError(f"interval_tol must be finite and >= 0, got {interval_tol!r}")
    if not 0.0 <= alpha <= 1.0:
        raise PreconditionError(f"level {alpha!r} outside [0, 1]")
    top = dist.esssup
    if alpha == 1.0:
        return EvarSolution(top, top, top, 0, 0.0)

    if alpha == 0.0 and p > 1.0:
        value = dist.mean
        itol = 1e-9 * (1.0 + abs(value)) if interval_tol is None else interval_tol
        c = 1.0
        objective = lambda t: _objective_value(dist, p, c, t)
        t_hi, iters = _upper_threshold(dist, objective, value + itol)
        return EvarSolution(value, -_INF, t_hi, iters, 0.0)

    value, x_best, iters, width = _evar_core(dist, p, alpha, rel_tol, max_iter)
    itol = 1e-9 * (1.0 + abs(value)) if interval_tol is None else interval_tol
    c = (1.0 / (1.0 - alpha)) ** (1.0 / p)
    objective = lambda t: _objective_value(dist, p, c, t)

    if p == 1.0:
        t_lo, t_hi = _quantile_interval(dist, alpha)
    else:
        t_lo, t_hi = _slope_interval(dist, p, c, x_best)
        t_lo, t_hi = _snap_interval(dist, objective, value, itol, t_lo, t_hi, x_best)
    return EvarSolution(value, t_lo, t_hi, iters, width)


def _evar_core(
    dist: DiscreteDistribution, p: float, alpha: float, rel_tol: float, max_iter: int
) -> tuple[float, float, int, float]:
    """Golden-section minimum with leftward bracket doubling and atom polish."""
    if alpha == 1.0:
        top = dist.esssup
        return top, top, 0, 0.0
    if alpha == 0.0:
        # the infimum is E[X] (attained on (-inf, essinf] at p = 1, in the
        # t -> -inf limit at p > 1); chasing it numerically would cancel
        return dist.mean, dist.essinf, 0, 0.0
    c = (1.0 / (1.0 - alpha)) ** (1.0 / p)
    objective = lambda t: _objective_value(dist, p, c, t)
    span = dist.esssup - dist.essinf
    step = max(span, 1.0)
    a, b = dist.essinf - step, dist.esssup
    # the minimum is bracketed iff the slope at a is already nonpositive; the
    # slope tends to 1 - c < 0 as t -> -inf, so this terminates for alpha > 0
    doublings = 0
    while _objective_slope(dist, p, c, a) > 0.0 and doublings < 60:
        a = b - 2.0 * (b - a)
        doublings += 1
    tol_w = rel_tol * (1.0 + span)
    x_best, f_best, iters, width = _golden_min(objective, a, b, tol_w, max_iter)
    for t in map(float, dist.values):
        ft = objective(t)
        if ft < f_best:
            x_best, f_best = t, ft
    return f_best, x_best, iters + doublings, width


def _golden_min(
    f: Callable[[float], float], a: float, b: float, tol: float, max_iter: int
) -> tuple[float, float, int, float]:
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    best_x, best_f = (c, fc) if fc <= fd else (d, fd)
    iters = 0
    while b - a > tol and iters < max_iter:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
            if fc < best_f:
                best_x, best_f = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
            if fd < best_f:
                best_x, best_f = d, fd
        iters += 1
    return best_x, best_f, iters, b - a


def _upper_threshold(
    dist: DiscreteDistribution, objective: Callable[[float], float], thr: float
) -> tuple[float, int]:
    """sup{t : objective(t) <= thr} for an increasing objective (alpha = 0, p > 1)."""
    lo = dist.essinf
    iters = 0
    step = max(dist.esssup - dist.essinf, 1.0)
    while objective(lo) > thr and iters < 60:
        lo -= step
        step *= 2.0
        iters += 1
    hi = max(dist.esssup, thr) + 1.0
    for _ in range(200):
        if hi - lo <= 1e-12 * (1.0 + abs(hi)):
            break
        mid = 0.5 * (lo + hi)
        if objective(mid) <= thr:
            lo = mid
        else:
            hi = mid
        iters += 1
    return 0.5 * (lo + hi), iters


def _quantile_interval(dist: DiscreteDistribution, alpha: float) -> tuple[float, float]:
    """Exact minimizer interval [VaR_alpha, VaR+_alpha] of the p = 1 objective.

    A 1e-12 slack on the cumulative masses keeps knife-edge levels (alpha equal
    to a partial sum up to rounding) from flipping an index.
    """
    slack = 1e-12
    cum = dist._cum
    n = dist.support_size
    if alpha == 0.0:
        t_lo = -_INF  # the objective is flat on (-inf, essinf]
    else:
        t_lo = float(dist.values[min(int(np.searchsorted(cum, alpha - slack, side="left")), n - 1)])
    t_hi = float(dist.values[min(int(np.searchsorted(cum, alpha + slack, side="right")), n - 1)])
    return t_lo, t_hi


def _slope_interval(
    dist: DiscreteDistribution, p: float, c: float, x_best: float
) -> tuple[float, float]:
    """Minimizer interval of the p > 1 objective by sign-bisection of its slope.

    f'(t) = 1 - c * S_{p-1}(t) * S_p(t)^{(1-p)/p} with S_r(t) = E[(X-t)_+^r],
    continuous for p > 1 and crossing a flat [slope ~ 0] bottom once.
    """
    seps = 2e-14
    top = dist.esssup
    span = max(top - dist.essinf, 1.0)

    def slope(t: float) -> float:
        return _objective_slope(dist, p, c, t)

    # left endpoint: boundary between slope < -seps and slope >= -seps
    lo, hi = x_best - span, x_best
    if slope(hi) < -seps:  # golden landed left of the flat bottom
        grow = span
        for _ in range(60):
            hi = min(top, hi + grow)
            grow *= 2.0
            if slope(hi) >= -seps or hi >= top:
                break
    grow = span
    for _ in range(60):
        if slope(lo) < -seps:
            break
        lo -= grow
        grow *= 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if slope(mid) < -seps:
            lo = mid
        else:
            hi = mid
    t_lo = 0.5 * (lo + hi)

    # right endpoint: boundary between slope <= seps and slope > seps
    lo, hi = x_best, max(x_best, top)
    if slope(lo) > seps:  # golden landed right of the flat bottom
        grow = span
        for _ in range(60):
            lo -= grow
            grow *= 2.0
            if slope(lo) <= seps:
                break
    if slope(hi) <= seps:
        t_hi = hi  # flat all the way to esssup
    else:
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if slope(mid) > seps:
                hi = mid
            else:
                lo = mid
        t_hi = 0.5 * (lo + hi)
    if t_lo > t_hi:
        t_lo = t_hi = x_best
    return t_lo, t_hi


def _snap_interval(
    dist: DiscreteDistribution,
    objective: Callable[[float], float],
    value: float,
    itol: float,
    t_lo: float,
    t_hi: float,
    x_best: float,
) -> tuple[float, float]:
    """Pin near-atom endpoints onto atoms when the atom still minimizes."""

    def snap(e: float) -> float:
        if not math.isfinite(e):
            return e
        i = int(np.argmin(np.abs(dist.values - e)))
        atom = float(dist.values[i])
        if abs(atom - e) <= 1e-5 * (1.0 + abs(e)) and objective(atom) <= value + itol:
            return atom
        return e

    t_lo, t_hi = snap(t_lo), snap(t_hi)
    if t_lo > t_hi:
        t_lo, t_hi = t_hi, t_lo
    # keep the reported interval inside the near-flat set (normally a no-op)
    for _ in range(80):
        if objective(t_lo) <= value + itol:
            break
        t_lo = 0.5 * (t_lo + x_best)
    for _ in range(80):
        if objective(t_hi) <= value + itol:
            break
        t_hi = 0.5 * (t_hi + x_best)
    return t_lo, t_hi


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


def _finite_real(x) -> bool:
    """A finite real number of any kind (numpy scalars included), never a bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


def _check_order(p: float) -> float:
    """The one order check: a finite real >= 1, returned as a Python float."""
    if not (_finite_real(p) and p >= 1.0):
        raise PreconditionError(f"order p must be a finite number >= 1, got {p!r}")
    return float(p)


def _check_solver_inputs(rel_tol: float, max_iter: int) -> None:
    """A relative tolerance must be finite and > 0, an iteration cap an integer >= 1."""
    if not (_finite_real(rel_tol) and rel_tol > 0.0):
        raise PreconditionError(f"rel_tol must be a finite number > 0, got {rel_tol!r}")
    if not (
        isinstance(max_iter, numbers.Integral) and not isinstance(max_iter, bool) and max_iter >= 1
    ):
        raise PreconditionError(f"max_iter must be an integer >= 1, got {max_iter!r}")

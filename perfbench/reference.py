"""Reference risk computations, written from the definitions and independent of lambdarisk.

Every function takes plain numpy atoms (sorted values ``x`` with masses ``w``)
so the checks never trust the package under test. Tolerances are relative to
the law's spread; each ``*_bracket`` returns a lower and an upper bound that
hold up to floating-point rounding.
"""

from __future__ import annotations

import math

import numpy as np


class Law:
    """Sorted atoms with their cumulative masses."""

    def __init__(self, values, weights=None):
        values = np.asarray(values, dtype=float)
        weights = np.full(values.size, 1.0) if weights is None else np.asarray(weights, float)
        order = np.argsort(values)
        self.x = values[order]
        self.w = weights[order] / weights.sum()
        self.cum = np.cumsum(self.w)
        self.spread = float(self.x[-1] - self.x[0])
        self.mean = float(self.x @ self.w)

    def tol(self, rel: float = 1e-7) -> float:
        return rel * max(self.spread, np.finfo(float).tiny)


def var_bracket(law: Law, alpha: float, eps: float = 1e-9) -> tuple[float, float]:
    """Left quantiles at alpha -+ eps: the quantile is discontinuous in alpha,
    so any value between them is accepted."""
    if alpha >= 1.0:
        return law.x[-1], law.x[-1]
    lo = max(alpha - eps, 0.0)
    hi = min(alpha + eps, 1.0)
    idx = np.searchsorted(law.cum, [lo, hi], side="left")
    idx = np.minimum(idx, law.x.size - 1)
    return float(law.x[idx[0]]), float(law.x[idx[1]])


def es_value(law: Law, alpha: float) -> float:
    """Rockafellar-Uryasev form  q + E[(X - q)_+] / (1 - alpha)  at the left quantile q."""
    if alpha >= 1.0:
        return float(law.x[-1])
    q = law.x[min(int(np.searchsorted(law.cum, alpha, side="left")), law.x.size - 1)]
    return float(q + law.w @ np.maximum(law.x - q, 0.0) / (1.0 - alpha))


def evar_objective(law: Law, p: float, alpha: float, t: float) -> float:
    """t + (1 - alpha)^{-1/p} * E[(X - t)_+^p]^{1/p}."""
    d = np.maximum(law.x - t, 0.0)
    m = float(d.max())
    if m == 0.0:
        return t
    s = float(law.w @ (d / m) ** p)
    return t + (1.0 - alpha) ** (-1.0 / p) * m * s ** (1.0 / p)


def _evar_slope(law: Law, p: float, c: float, t: float) -> float:
    d = law.x - t
    pos = d > 0.0
    if not pos.any():
        return 1.0
    dp = d[pos]
    wp = law.w[pos]
    # scale out the largest excess so the power sums cannot overflow
    m = float(dp.max())
    r = dp / m
    sp = float(wp @ r**p)
    s1 = float(wp.sum()) if p == 1.0 else float(wp @ r ** (p - 1.0))
    return 1.0 - c * s1 * sp ** ((1.0 - p) / p)


def evar_bracket(law: Law, p: float, alpha: float) -> tuple[float, float]:
    """Lower and upper bound on EVaR^p_alpha by bisection on the objective's slope.

    The objective is convex in t, so its value at any t bounds the minimum from
    above and the tangent lines at a bracket [a, b] with slope(a) < 0 <= slope(b)
    meet below it.
    """
    if alpha >= 1.0:
        return float(law.x[-1]), float(law.x[-1])
    if alpha <= 0.0:
        return law.mean, law.mean
    c = (1.0 - alpha) ** (-1.0 / p)
    b = float(law.x[-1])
    step = max(law.spread, abs(b) * 1e-12, np.finfo(float).tiny)
    a = float(law.x[0]) - step
    while _evar_slope(law, p, c, a) >= 0.0:
        step *= 2.0
        a = float(law.x[0]) - step
    for _ in range(200):
        mid = 0.5 * (a + b)
        if not a < mid < b:
            break
        if _evar_slope(law, p, c, mid) < 0.0:
            a = mid
        else:
            b = mid
    fa, fb = evar_objective(law, p, alpha, a), evar_objective(law, p, alpha, b)
    ga, gb = _evar_slope(law, p, c, a), _evar_slope(law, p, c, b)
    upper = min(fa, fb)
    if gb > ga:
        t = (fb - fa + ga * a - gb * b) / (ga - gb)
        lower = min(upper, fa + ga * (t - a))
    else:
        lower = upper
    return lower, upper


# -- level functions ---------------------------------------------------------

def level_limits(spec: dict, x: float) -> tuple[float, float]:
    """(L(x-), L(x+)) for a level-function spec in the package's JSON format."""
    kind = spec["type"]
    if kind == "constant":
        return spec["level"], spec["level"]
    if kind == "step":
        th = np.asarray(spec["thresholds"], float)
        lv = np.asarray(spec["levels"], float)
        return (
            float(lv[np.searchsorted(th, x, side="left")]),
            float(lv[np.searchsorted(th, x, side="right")]),
        )
    pts = np.asarray(spec["points"], float)
    v = float(np.interp(x, pts[:, 0], pts[:, 1]))
    return v, v


def sandwich_ok(curve, spec: dict, x: float, tol: float) -> bool:
    """Two-sided crossing test  rho_{L(x+)} <= x <= rho_{L(x-)}  within tol.

    ``curve(alpha)`` returns a (lower, upper) bracket for rho_alpha.
    """
    left, right = level_limits(spec, x)
    low_side, _ = curve(right)
    _, high_side = curve(left)
    return low_side <= x + tol and x <= high_side + tol


def var_curve(law: Law):
    return lambda a: var_bracket(law, a)


def es_curve(law: Law):
    def curve(a):
        v = es_value(law, a)
        return v, v

    return curve


def evar_curve(law: Law, p: float):
    return lambda a: evar_bracket(law, p, a)


def wasserstein_curve(law: Law, p: float, delta: float):
    def curve(a):
        lo, hi = evar_bracket(law, p, a)
        bump = delta * (1.0 - a) ** (-1.0 / p)
        return lo + bump, hi + bump

    return curve


def cantelli_curve(m: float, v: float):
    def curve(a):
        val = m + v * math.sqrt(a / (1.0 - a))
        return val, val

    return curve


def wasserstein_value(a: Law, b: Law, k: float) -> float:
    """Order-k Wasserstein distance through the monotone coupling of the atoms.

    Merging the two CDF breakpoint lists splits [0, 1] into intervals on which
    both quantile functions are constant; on the interval ending at a merged
    breakpoint each law sits on its atom whose cumulative mass is the first
    one not yet passed.
    """
    merged = np.concatenate((a.cum, b.cum))
    order = np.argsort(merged, kind="stable")  # two sorted runs: a linear merge
    edges = merged[order]
    from_a = order < a.cum.size
    passed_a = np.cumsum(from_a) - from_a
    passed_b = np.arange(edges.size) - passed_a
    qa = a.x[np.minimum(passed_a, a.x.size - 1)]
    qb = b.x[np.minimum(passed_b, b.x.size - 1)]
    lengths = np.diff(edges, prepend=0.0)
    return float((lengths @ np.abs(qa - qb) ** k) ** (1.0 / k))

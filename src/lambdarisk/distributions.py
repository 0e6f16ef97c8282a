"""Finite-support distribution algebra.

Losses are finitely many (value, probability) atoms kept sorted by value with
duplicates merged, so quantiles, tail averages, partial moments and Wasserstein
distances are exact finite computations on CDF breakpoints. Nothing downstream
ever needs quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import PreconditionError

__all__ = [
    "DiscreteDistribution",
    "MomentSet",
    "ScenarioTable",
    "combine",
    "icx_leq",
    "make_distribution",
    "mix",
    "point_mass",
    "wasserstein_distance",
]


# breakpoints per law in one block of wasserstein_distance's merge; set by
# measurement (scratch memory flat from 1e5 to 1e6 atoms, time unchanged)
_MERGE_BLOCK = 1 << 15

# a law with more atoms than twice this shows only this many at each end
_REPR_EDGE_ATOMS = 5


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """A finite loss law: strictly increasing values, positive masses summing to one.

    Instances are immutable; build them with :func:`make_distribution`, which
    merges duplicate values and renormalizes the masses.
    """

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float, copy=True)
        probs = np.array(self.probs, dtype=float, copy=True)
        if values.ndim != 1:
            raise PreconditionError("atom values must be a flat sequence of numbers")
        if values.size == 0:
            raise PreconditionError("a distribution needs at least one atom")
        if values.shape != probs.shape:
            raise PreconditionError("values and probs must have equal length")
        if not np.all(np.isfinite(values)):
            raise PreconditionError("atom values must be finite")
        if not np.all(np.isfinite(probs)) or np.any(probs <= 0.0):
            raise PreconditionError("atom probabilities must be positive and finite")
        if values.size > 1 and np.any(np.diff(values) <= 0.0):
            raise PreconditionError("atom values must be strictly increasing")
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-12:
            raise PreconditionError(f"atom probabilities sum to {total!r}, not 1")
        self._set(values, probs)

    @classmethod
    def _trusted(cls, values: np.ndarray, probs: np.ndarray) -> "DiscreteDistribution":
        """Adopt arrays the caller owns and has already sorted, merged and checked."""
        dist = object.__new__(cls)
        dist._set(values, probs)
        return dist

    def _set(self, values: np.ndarray, probs: np.ndarray) -> None:
        object.__setattr__(self, "values", _readonly(values))
        object.__setattr__(self, "probs", _readonly(probs))
        object.__setattr__(self, "_cum", _readonly(np.cumsum(probs)))

    # -- basic statistics ---------------------------------------------------

    @property
    def support_size(self) -> int:
        return int(self.values.size)

    @property
    def essinf(self) -> float:
        return float(self.values[0])

    @property
    def esssup(self) -> float:
        return float(self.values[-1])

    @property
    def mean(self) -> float:
        return float(self.values @ self.probs)

    @property
    def variance(self) -> float:
        m = self.mean
        return float(self.probs @ (self.values - m) ** 2)

    def atoms(self) -> list[tuple[float, float]]:
        """The (value, probability) pairs, sorted by value."""
        return list(zip(self.values.tolist(), self.probs.tolist()))

    def __repr__(self) -> str:  # keeps test failures readable, at any support size
        n, edge = self.support_size, _REPR_EDGE_ATOMS
        if n <= 2 * edge:
            return f"DiscreteDistribution({{{_format_atoms(self.values, self.probs)}}})"
        head = _format_atoms(self.values[:edge], self.probs[:edge])
        tail = _format_atoms(self.values[-edge:], self.probs[-edge:])
        return f"DiscreteDistribution({{{head}, ..., {tail}}}, {n} atoms)"

    # -- quantiles and tail functionals --------------------------------------

    def quantile(self, alpha: float) -> float:
        """Left alpha-quantile  inf{x : F(x) >= alpha}  (essinf at 0, esssup at 1)."""
        _check_closed_level(alpha)
        if alpha == 0.0:
            return self.essinf
        if alpha == 1.0:
            return self.esssup
        idx = int(np.searchsorted(self._cum, alpha, side="left"))
        return float(self.values[min(idx, self.support_size - 1)])

    def expected_shortfall(self, alpha: float) -> float:
        """Tail average  (1/(1-alpha)) * integral_alpha^1 VaR_s ds;  esssup at alpha=1.

        Computed exactly on the CDF breakpoint partition: the quantile function
        is piecewise constant, so the integral is a finite weighted sum. Only
        the atoms whose cumulative mass exceeds alpha carry weight, so the cost
        is one binary search plus the tail.
        """
        _check_closed_level(alpha)
        if alpha == 0.0:
            return self.mean
        if alpha == 1.0:
            return self.esssup
        first = min(int(np.searchsorted(self._cum, alpha, side="right")), self.support_size - 1)
        ends = np.minimum(self._cum[first:], 1.0)
        # the partial sums may stop short of 1 by rounding; the top atom holds
        # the rest, as it does for quantile(), so a level above the last sum
        # still averages esssup
        ends[-1] = 1.0
        lengths = np.diff(ends, prepend=alpha)
        return float((self.values[first:] * lengths).sum() / (1.0 - alpha))

    def partial_moment(self, t: float, p: float) -> float:
        """Upper partial moment  E[(X - t)_+^p]  for finite t and order p >= 1."""
        if not math.isfinite(t):
            raise PreconditionError("partial moment threshold must be finite")
        if not p >= 1.0:
            raise PreconditionError("partial moment order must be >= 1")
        return self._plus_power_sum(t, p)

    def _plus_power_sum(self, t: float, r: float) -> float:
        # unvalidated core shared with the objective-slope machinery (r > 0);
        # reads only the atoms above t, found by one binary search, through
        # one tail-sized temporary
        first = int(np.searchsorted(self.values, t, side="right"))
        if first == self.support_size:
            return 0.0
        diff = self.values[first:] - t
        if r != 1.0:
            diff **= r
        return float(self.probs[first:] @ diff)

    def survival(self, x: float) -> float:
        """P(X > x)."""
        return float(self.probs[np.searchsorted(self.values, x, side="right"):].sum())

    # -- transforms -----------------------------------------------------------

    def shift(self, c: float) -> "DiscreteDistribution":
        """Law of X + c."""
        if not math.isfinite(c):
            raise PreconditionError("shift must be finite")
        return make_distribution(self.values + c, self.probs)

    def scale(self, s: float) -> "DiscreteDistribution":
        """Law of s * X."""
        if not math.isfinite(s):
            raise PreconditionError("scale must be finite")
        return make_distribution(self.values * s, self.probs)


def make_distribution(
    values: Iterable[float], probs: Iterable[float] | None = None
) -> DiscreteDistribution:
    """Build a distribution from atoms; uniform masses when probs is omitted.

    Duplicate values (exact float equality) are merged with their masses added,
    and masses are renormalized by their sum. An ndarray is read in place and
    never written; the build is one sort of the values. On distinct values
    its memory peaks at the returned law plus one byte per atom: the sort
    permutation is released before the cumulative masses are summed, equal
    masses are not gathered, and an input array no caller holds (a temporary
    passed straight in) is freed as soon as it has been gathered into sorted
    order.
    """
    vals = _float_array(values)
    del values  # so an array no caller holds is freed once gathered below
    if vals.ndim != 1:
        raise PreconditionError("atom values must be a flat sequence of numbers")
    if vals.size == 0:
        raise PreconditionError("a distribution needs at least one atom")
    if not np.all(np.isfinite(vals)):
        raise PreconditionError("atom values must be finite")
    if probs is None:
        pr = np.full(vals.size, 1.0 / vals.size)
    else:
        pr = _float_array(probs)
        if pr.shape != vals.shape:
            raise PreconditionError("values and probs must have equal length")
        if not np.all(np.isfinite(pr)) or np.any(pr <= 0.0):
            raise PreconditionError("atom probabilities must be positive and finite")
    total = float(pr.sum())
    if not math.isfinite(total) or total <= 0.0:
        raise PreconditionError("atom probabilities must sum to a positive number")
    order = np.argsort(vals)
    vals = vals[order]
    if probs is not None:  # equal masses need no gather
        pr = pr[order]
    del order
    pr /= total
    starts = np.empty(vals.size, dtype=bool)
    starts[0] = True
    np.not_equal(vals[1:], vals[:-1], out=starts[1:])
    if not starts.all():
        first = np.flatnonzero(starts)
        vals, pr = vals[first], np.add.reduceat(pr, first)
    if not pr.all():
        raise PreconditionError("atom probabilities underflow to 0 when normalized")
    # vals and pr are new arrays: sorted, strictly increasing, finite, and
    # positive masses summing to one up to rounding
    return DiscreteDistribution._trusted(vals, pr)


def _format_atoms(values: np.ndarray, probs: np.ndarray) -> str:
    return ", ".join(f"{v:g}: {p:g}" for v, p in zip(values.tolist(), probs.tolist()))


def _float_array(xs: Iterable[float]) -> np.ndarray:
    # an ndarray is converted without a copy where its dtype allows; any other
    # iterable (generators included) is materialized first
    return np.asarray(xs if isinstance(xs, np.ndarray) else list(xs), dtype=float)


def point_mass(value: float) -> DiscreteDistribution:
    """The degenerate law delta_value."""
    return make_distribution([value])


def mix(
    d1: DiscreteDistribution, d2: DiscreteDistribution, lam: float
) -> DiscreteDistribution:
    """Law mixture  lam * d1 + (1 - lam) * d2  on the merged support."""
    if not 0.0 <= lam <= 1.0:
        raise PreconditionError("mixture weight must lie in [0, 1]")
    if lam == 1.0:
        return d1
    if lam == 0.0:
        return d2
    probs = np.concatenate((d1.probs, d2.probs))
    probs[:d1.support_size] *= lam
    probs[d1.support_size:] *= 1.0 - lam
    return make_distribution(np.concatenate((d1.values, d2.values)), probs)


def wasserstein_distance(
    d1: DiscreteDistribution, d2: DiscreteDistribution, k: float
) -> float:
    """Order-k Wasserstein distance, exact via the merged quantile partition.

    W_k(X, Y)^k = integral_0^1 |VaR_s(X) - VaR_s(Y)|^k ds; both quantile
    functions are piecewise constant on the union of CDF breakpoints, the two
    runs of cumulative masses c1 and c2. Each merged breakpoint ends a segment
    of [0, 1]. On it, each law's quantile is its atom whose index counts that
    law's breakpoints merged before this one. The merge puts d1's breakpoint
    first on a tie, so a count can exceed the searchsorted index only where a
    segment has zero length and adds nothing.

    The merge runs in blocks of at most B = _MERGE_BLOCK breakpoints per law,
    so the time is O(n1 + n2) and the scratch memory O(B) whatever the support
    sizes. A block cuts the remaining merge at t = min(c1[i0 + B - 1],
    c2[j0 + B - 1]), where i0 and j0 count the breakpoints already merged and
    a law with at most B breakpoints left reads as +inf, so laws of at most B
    atoms each make one block. It takes d1's breakpoints <= t (at most B of
    them: a run of tied masses can be longer) and d2's breakpoints < t, which
    keeps d1 first on every tie, the cut's included. If no d1 breakpoint is
    <= t, it takes d2's breakpoints <= t instead, again at most B, so no
    block is empty.
    Inside a block the merge is a stable argsort of the block's masses (one
    timsort merge); the block carries forward the offsets (i0, j0) and the
    breakpoint that ended the block before it.

    The integrand is scaled by the running maximum of |x - y| so that
    |x - y|^k cannot overflow; when a block raises the maximum, the sum so
    far is multiplied by (old / new)^k.
    """
    if not 1.0 <= k < math.inf:
        raise PreconditionError("Wasserstein order must be finite and >= 1")
    c1, c2 = d1._cum, d2._cum
    n1, n2 = c1.size, c2.size
    i0 = j0 = 0
    prev = 0.0  # the breakpoint that ends the previous block
    top = 0.0  # the largest |x - y| so far
    total = 0.0  # sum of length * (|x - y| / top)^k so far
    while i0 < n1 or j0 < n2:
        t = min(c1[i0 + _MERGE_BLOCK - 1] if n1 - i0 > _MERGE_BLOCK else math.inf,
                c2[j0 + _MERGE_BLOCK - 1] if n2 - j0 > _MERGE_BLOCK else math.inf)
        i1 = min(int(np.searchsorted(c1, t, side="right")), i0 + _MERGE_BLOCK)
        if i1 > i0:
            j1 = int(np.searchsorted(c2, t, side="left"))
        else:
            j1 = min(int(np.searchsorted(c2, t, side="right")), j0 + _MERGE_BLOCK)
        cum = np.concatenate((c1[i0:i1], c2[j0:j1]))
        order = np.argsort(cum, kind="stable")
        ends = cum[order]
        lengths = cum  # the segment lengths overwrite the concatenation
        lengths[0] = ends[0] - prev
        np.subtract(ends[1:], ends[:-1], out=lengths[1:])
        prev = ends[-1]
        from_d1 = order < i1 - i0
        count = order  # d1's breakpoints strictly before each merged one
        np.cumsum(from_d1, out=count)
        count -= from_d1
        count += i0
        gap = np.take(d1.values, count, mode="clip", out=ends)
        # now d2's: a merged breakpoint's position less d1's count
        np.subtract(np.arange(i0 + j0, i1 + j1), count, out=count)
        gap -= np.take(d2.values, count, mode="clip")
        np.abs(gap, out=gap)
        i0, j0 = i1, j1
        peak = float(gap.max())
        if peak > top:
            if peak == math.inf:
                return peak  # a gap beyond the float range
            total *= (top / peak) ** k
            top = peak
        if top == 0.0:
            continue  # equal quantile functions so far
        gap /= top
        np.power(gap, k, out=gap)
        gap *= lengths
        total += float(gap.sum())
    return top * total ** (1.0 / k)


def icx_leq(d1: DiscreteDistribution, d2: DiscreteDistribution, p: float) -> bool:
    """Necessary grid check for the order-p increasing-convex comparison.

    Compares ||(X - x)_+||_{p-1} <= ||(Y - x)_+||_{p-1} (+1e-12) on the
    merged support plus segment midpoints and one point below it; at p = 1
    the order-0 norm degenerates to the survival function comparison.
    """
    if not p >= 1.0:
        raise PreconditionError("comparison order must be >= 1")
    support = np.unique(np.concatenate((d1.values, d2.values)))
    mids = 0.5 * (support[:-1] + support[1:]) if support.size > 1 else np.empty(0)
    pts = np.concatenate((support, mids, [support[0] - 1.0]))
    r = p - 1.0
    for x in map(float, pts):
        if r == 0.0:
            lhs, rhs = d1.survival(x), d2.survival(x)
        else:
            lhs = d1._plus_power_sum(x, r) ** (1.0 / r)
            rhs = d2._plus_power_sum(x, r) ** (1.0 / r)
        if lhs > rhs + 1e-12:
            return False
    return True


@dataclass(frozen=True, eq=False)
class ScenarioTable:
    """Joint scenarios: one weight per row, one value column per position name.

    All positions live on the same finite probability space, which is what
    makes monotonicity and subadditivity checks meaningful.
    """

    weights: np.ndarray
    positions: Mapping[str, np.ndarray]

    def __post_init__(self):
        weights = np.array(self.weights, dtype=float, copy=True)
        if weights.ndim != 1 or weights.size == 0:
            raise PreconditionError("a scenario table needs at least one scenario")
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0.0):
            raise PreconditionError("scenario weights must be positive and finite")
        weights /= float(weights.sum())
        cols = {}
        for name, col in dict(self.positions).items():
            arr = np.array(col, dtype=float, copy=True)
            if arr.shape != weights.shape:
                raise PreconditionError(f"column {name!r} length differs from weights")
            if not np.all(np.isfinite(arr)):
                raise PreconditionError(f"column {name!r} has non-finite values")
            cols[name] = _readonly(arr)
        object.__setattr__(self, "weights", _readonly(weights))
        object.__setattr__(self, "positions", cols)

    def column(self, name: str) -> DiscreteDistribution:
        """Marginal law of a single position."""
        return combine(self, {name: 1.0})


def combine(table: ScenarioTable, weights: Mapping[str, float]) -> DiscreteDistribution:
    """Law of the linear combination  sum_name weights[name] * position[name]."""
    # the sum is handed straight to the build, which frees it once sorted
    return make_distribution(_weighted_sum(table, weights), table.weights)


def _weighted_sum(table: ScenarioTable, weights: Mapping[str, float]) -> np.ndarray:
    total = np.zeros_like(table.weights)
    for name, w in weights.items():
        if name not in table.positions:
            raise KeyError(f"unknown scenario column {name!r}")
        total += float(w) * table.positions[name]
    return total


@dataclass(frozen=True)
class MomentSet:
    """Ambiguity set of laws with mean m and standard deviation at most v."""

    m: float
    v: float

    def __post_init__(self):
        if not math.isfinite(self.m):
            raise PreconditionError("mean must be finite")
        if not (math.isfinite(self.v) and self.v >= 0.0):
            raise PreconditionError("standard deviation bound must be finite and >= 0")


def _check_closed_level(alpha: float) -> None:
    if not 0.0 <= alpha <= 1.0:
        raise PreconditionError(f"level {alpha!r} outside [0, 1]")

"""Decreasing level functions: loss-threshold-dependent confidence levels.

Only three closed families are supported — constant, step (with an explicit
continuity tag), and piecewise linear — so one-sided limits and superlevel
suprema are exactly computable. Every level function is one piece table,
built at construction: its breakpoints cut the line into pieces on which it
is continuous, each piece holds the two one-sided levels at its ends and is
linear in between, and each breakpoint belongs to the piece on one side.
Every operation reads only that table, so each is written once, on the base
class ``LambdaFunction``; ``isinstance(L, LambdaFunction)`` holds for every
family. Arbitrary callables are deliberately not accepted: the lifting
machinery searches the pieces between exact breakpoints (``pieces``).
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import ge, lt

import numpy as np

from .errors import PreconditionError

__all__ = ["Constant", "LambdaFunction", "PiecewiseLinear", "Step", "from_spec"]

_INF = float("inf")


def _check_x(finite: bool) -> None:
    if not finite:
        raise PreconditionError("level functions are evaluated at finite points")


def _check_c(inside: bool, c) -> None:
    if not inside:
        raise PreconditionError(f"superlevel threshold {c!r} outside [0, 1]")


class LambdaFunction:
    """A decreasing level function, read only through its piece table.

    The table is ``pieces()``, the breakpoints between them, and the side that
    owns a breakpoint: ``"right"`` gives it to the piece that starts there,
    ``"left"`` to the piece that ends there.
    """

    def _set_table(self, breaks: list, starts: list, ends: list, side: str = "right") -> None:
        """Check and store the table of the pieces cut by ``breaks``, whose levels
        after their start and before their end are ``starts`` and ``ends``."""
        edges = [-_INF, *breaks, _INF]
        if not all(map(lt, edges, edges[1:])):
            raise PreconditionError("breakpoints must be finite and strictly increasing")
        # each later start repeats its own piece's end (a plateau) or the previous
        # piece's end (no jump), so this profile holds every level
        profile = [1.0, starts[0], *ends, 0.0]
        if not all(map(ge, profile, profile[1:])):
            raise PreconditionError("levels must lie in [0, 1] and be non-increasing")
        vars(self).update(
            _breaks=tuple(breaks), _pieces=tuple(zip(edges, edges[1:], starts, ends)), _side=side
        )

    @property
    def knots(self) -> tuple[float, ...]:
        """The breakpoints where the level may jump."""
        return ()

    @property
    def is_left_continuous(self) -> bool:
        return self._side == "left" or not self.knots

    @property
    def is_right_continuous(self) -> bool:
        return self._side == "right" or not self.knots

    @property
    def max_level(self) -> float:
        return self._pieces[0][2]

    def pieces(self) -> tuple[tuple[float, float, float, float], ...]:
        """(start, end, level after start, level before end) per continuity piece.

        The pieces are the intervals between consecutive breakpoints, the outer
        two unbounded; the level function is continuous inside each, and the
        two levels are its one-sided limits at the piece's ends.
        """
        return self._pieces

    def eval(self, x: float) -> float:
        return self._level(x, self._side)

    def left_limit(self, x: float) -> float:
        return self._level(x, "left")

    def right_limit(self, x: float) -> float:
        return self._level(x, "right")

    def _level(self, x: float, side: str) -> float:
        _check_x(math.isfinite(x))
        find = bisect_left if side == "left" else bisect_right
        a, b, la, lb = self._pieces[find(self._breaks, x)]
        if x == b:
            return lb
        if x == a or la == lb:
            return la
        return float((lb - la) / (b - a) * (x - a) + la)  # np.interp's formula

    def superlevel_sup(self, c: float) -> float:
        """sup{x : level(x) >= c}  in the extended reals."""
        _check_c(0.0 <= c <= 1.0, c)
        # the pieces that start at or above c come first
        k = bisect_right(self._pieces, -c, key=lambda piece: -piece[2])
        if k == 0:
            return -_INF
        a, b, la, lb = self._pieces[k - 1]
        if lb >= c:
            return b
        return float(a + (la - c) * (b - a) / (la - lb))

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        _check_x(np.isfinite(xs).all())
        a, b, la, lb = np.array(self._pieces).T
        sloped = la != lb
        # np.interp's formula on a sloped piece; slope 0 at anchor 0 on a flat one
        slope = np.divide(lb - la, b - a, out=np.zeros_like(la), where=sloped)
        anchor = np.where(sloped, a, 0.0)
        k = np.searchsorted(self._breaks, xs, side=self._side)
        return np.where(xs == b[k], lb[k], slope[k] * (xs - anchor[k]) + la[k])

    def superlevel_sup_many(self, cs: np.ndarray) -> np.ndarray:
        cs = np.asarray(cs, dtype=float)
        inside = (0.0 <= cs) & (cs <= 1.0)
        _check_c(inside.all(), cs[~inside][:1])
        table = np.array(self._pieces).T
        k = len(self._pieces) - np.searchsorted(table[2][::-1], cs, side="left")
        a, b, la, lb = (col[np.maximum(k - 1, 0)] for col in table)
        out = np.where(k == 0, -_INF, b)
        s = (k > 0) & (lb < cs)
        out[s] = a[s] + (la[s] - cs[s]) * (b[s] - a[s]) / (la[s] - lb[s])
        return out

    def _frozen(self, name: str) -> np.ndarray:
        """Replace field ``name`` with a read-only float copy of itself."""
        arr = np.array(getattr(self, name), dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, name, arr)
        return arr


@dataclass(frozen=True)
class Constant(LambdaFunction):
    """Constant level; lifts collapse to the fixed-level measure."""

    level: float

    def __post_init__(self):
        level = self.level
        # float first: the common case, and cheaper than the abstract class test
        real = type(level) is float or isinstance(level, numbers.Real)
        if not real or isinstance(level, bool):
            raise PreconditionError(f"level must be a real number, got {level!r}")
        level = float(level)
        object.__setattr__(self, "level", level)
        self._set_table([], [level], [level])

    def to_spec(self) -> dict:
        return {"type": "constant", "level": self.level}


@dataclass(frozen=True, eq=False)
class Step(LambdaFunction):
    """Right- or left-continuous decreasing step function.

    ``levels[i]`` is the value on the open interval between thresholds i-1 and
    i; the continuity tag decides which side owns each threshold. The tag is
    also what decides whether lifted suprema are attained.
    """

    thresholds: np.ndarray
    levels: np.ndarray
    continuity: str = "right"

    def __post_init__(self):
        thresholds, levels = self._frozen("thresholds"), self._frozen("levels")
        if thresholds.ndim != 1 or thresholds.size == 0:
            raise PreconditionError("a step function needs at least one threshold")
        if levels.shape != (thresholds.size + 1,):
            raise PreconditionError("a step function needs len(thresholds)+1 levels")
        if self.continuity not in ("left", "right"):
            raise PreconditionError("continuity must be 'left' or 'right'")
        ls = levels.tolist()
        self._set_table(thresholds.tolist(), ls, ls, self.continuity)

    @property
    def knots(self) -> tuple[float, ...]:
        return self._breaks

    def to_spec(self) -> dict:
        return {
            "type": "step",
            "thresholds": [float(t) for t in self.thresholds],
            "levels": [float(l) for l in self.levels],
            "continuity": self.continuity,
        }


@dataclass(frozen=True, eq=False)
class PiecewiseLinear(LambdaFunction):
    """Continuous decreasing interpolant, clamped constant beyond its endpoints."""

    xs: np.ndarray
    ls: np.ndarray

    def __post_init__(self):
        xs, ls = self._frozen("xs"), self._frozen("ls")
        if xs.ndim != 1 or xs.size < 2:
            raise PreconditionError("a piecewise-linear level function needs >= 2 points")
        if xs.shape != ls.shape:
            raise PreconditionError("xs and ls must have equal length")
        levels = ls.tolist()
        # the left clamp, one piece per segment, the right clamp
        self._set_table(xs.tolist(), [levels[0], *levels], [*levels, levels[-1]])

    def to_spec(self) -> dict:
        return {
            "type": "piecewise_linear",
            "points": [[float(x), float(l)] for x, l in zip(self.xs, self.ls)],
        }


def from_spec(spec: dict) -> LambdaFunction:
    """Build a level function from its JSON-style description (see to_spec)."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValueError("level-function spec must be an object with a 'type' key")
    kind = spec["type"]
    if kind == "constant":
        if "level" not in spec:
            raise ValueError("constant level-function spec needs a 'level'")
        return Constant(_spec_float(spec["level"]))
    if kind == "step":
        for key in ("thresholds", "levels"):
            if key not in spec or not isinstance(spec[key], (list, tuple)):
                raise ValueError(f"step level-function spec needs a {key!r} array")
        continuity = spec.get("continuity", "right")
        return Step(
            np.array([_spec_float(t) for t in spec["thresholds"]]),
            np.array([_spec_float(l) for l in spec["levels"]]),
            continuity,
        )
    if kind == "piecewise_linear":
        pts = spec.get("points")
        if not isinstance(pts, (list, tuple)) or any(
            not isinstance(p, (list, tuple)) or len(p) != 2 for p in pts
        ):
            raise ValueError("piecewise_linear spec needs 'points': [[x, level], ...]")
        return PiecewiseLinear(
            np.array([_spec_float(p[0]) for p in pts]),
            np.array([_spec_float(p[1]) for p in pts]),
        )
    raise ValueError(f"unknown level-function type {kind!r}")


def _spec_float(v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"expected a number in level-function spec, got {v!r}")
    return float(v)

"""Decreasing level functions: loss-threshold-dependent confidence levels.

Only three closed families are supported — constant, step (with an explicit
continuity tag), and piecewise linear — so one-sided limits and superlevel
suprema are exactly computable. Arbitrary callables are deliberately
not accepted: the lifting machinery searches the pieces between exact
breakpoints (``pieces``), on which a level function is continuous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import PreconditionError

__all__ = ["Constant", "LambdaFunction", "PiecewiseLinear", "Step", "from_spec"]

_INF = float("inf")


def _check_x(x: float) -> None:
    if not math.isfinite(x):
        raise PreconditionError("level functions are evaluated at finite points")


def _check_c(c: float) -> None:
    if not 0.0 <= c <= 1.0:
        raise PreconditionError(f"superlevel threshold {c!r} outside [0, 1]")


@dataclass(frozen=True)
class Constant:
    """Constant level; lifts collapse to the fixed-level measure."""

    level: float

    def __post_init__(self):
        if not 0.0 <= self.level <= 1.0:
            raise PreconditionError("level must lie in [0, 1]")

    @property
    def knots(self) -> tuple[float, ...]:
        return ()

    @property
    def is_left_continuous(self) -> bool:
        return True

    @property
    def is_right_continuous(self) -> bool:
        return True

    @property
    def max_level(self) -> float:
        return self.level

    def eval(self, x: float) -> float:
        _check_x(x)
        return self.level

    def left_limit(self, x: float) -> float:
        _check_x(x)
        return self.level

    def right_limit(self, x: float) -> float:
        _check_x(x)
        return self.level

    def pieces(self) -> tuple[tuple[float, float, float, float], ...]:
        return _pieces([], [self.level], [self.level])

    def superlevel_sup(self, c: float) -> float:
        """sup{x : level(x) >= c}  in the extended reals."""
        _check_c(c)
        return _INF if c <= self.level else -_INF

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        return np.full(np.shape(xs), self.level)

    def superlevel_sup_many(self, cs: np.ndarray) -> np.ndarray:
        return np.where(np.asarray(cs) <= self.level, _INF, -_INF)

    def to_spec(self) -> dict:
        return {"type": "constant", "level": self.level}


@dataclass(frozen=True, eq=False)
class Step:
    """Right- or left-continuous decreasing step function.

    ``levels[i]`` is the value on the open interval between thresholds i-1 and
    i; the continuity tag decides which side owns each threshold. The tag is
    also what decides whether lifted suprema are attained.
    """

    thresholds: np.ndarray
    levels: np.ndarray
    continuity: str = "right"

    def __post_init__(self):
        thresholds = np.array(self.thresholds, dtype=float, copy=True)
        levels = np.array(self.levels, dtype=float, copy=True)
        if thresholds.ndim != 1 or thresholds.size == 0:
            raise PreconditionError("a step function needs at least one threshold")
        if not np.all(np.isfinite(thresholds)):
            raise PreconditionError("thresholds must be finite")
        if thresholds.size > 1 and np.any(np.diff(thresholds) <= 0.0):
            raise PreconditionError("thresholds must be strictly increasing")
        if levels.shape != (thresholds.size + 1,):
            raise PreconditionError("a step function needs len(thresholds)+1 levels")
        if np.any(levels < 0.0) or np.any(levels > 1.0):
            raise PreconditionError("levels must lie in [0, 1]")
        if levels.size > 1 and np.any(np.diff(levels) > 0.0):
            raise PreconditionError("levels must be non-increasing")
        if self.continuity not in ("left", "right"):
            raise PreconditionError("continuity must be 'left' or 'right'")
        thresholds.setflags(write=False)
        levels.setflags(write=False)
        object.__setattr__(self, "thresholds", thresholds)
        object.__setattr__(self, "levels", levels)

    @property
    def knots(self) -> tuple[float, ...]:
        return tuple(map(float, self.thresholds))

    @property
    def is_left_continuous(self) -> bool:
        return self.continuity == "left"

    @property
    def is_right_continuous(self) -> bool:
        return self.continuity == "right"

    @property
    def max_level(self) -> float:
        return float(self.levels[0])

    def eval(self, x: float) -> float:
        _check_x(x)
        side = "left" if self.continuity == "left" else "right"
        return float(self.levels[int(np.searchsorted(self.thresholds, x, side=side))])

    def left_limit(self, x: float) -> float:
        _check_x(x)
        return float(self.levels[int(np.searchsorted(self.thresholds, x, side="left"))])

    def right_limit(self, x: float) -> float:
        _check_x(x)
        return float(self.levels[int(np.searchsorted(self.thresholds, x, side="right"))])

    def pieces(self) -> tuple[tuple[float, float, float, float], ...]:
        """(start, end, level after start, level before end) per continuity piece.

        The pieces are the intervals between consecutive breakpoints, the outer
        two unbounded; the level function is continuous inside each, and the
        two levels are its one-sided limits at the piece's ends.
        """
        levels = self.levels.tolist()
        return _pieces(self.thresholds.tolist(), levels, levels)

    def superlevel_sup(self, c: float) -> float:
        _check_c(c)
        return float(self.superlevel_sup_many(np.array([c]))[0])

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        side = "left" if self.continuity == "left" else "right"
        return self.levels[np.searchsorted(self.thresholds, np.asarray(xs), side=side)]

    def superlevel_sup_many(self, cs: np.ndarray) -> np.ndarray:
        cs = np.asarray(cs, dtype=float)
        # number of levels strictly below c, counting from the right tail
        below = np.searchsorted(self.levels[::-1], cs, side="left")
        first = self.levels.size - below  # first index with level < c
        out = np.take(self.thresholds, np.clip(first - 1, 0, self.thresholds.size - 1))
        out = np.where(first == 0, -_INF, out)
        return np.where(below == 0, _INF, out)

    def to_spec(self) -> dict:
        return {
            "type": "step",
            "thresholds": [float(t) for t in self.thresholds],
            "levels": [float(l) for l in self.levels],
            "continuity": self.continuity,
        }


@dataclass(frozen=True, eq=False)
class PiecewiseLinear:
    """Continuous decreasing interpolant, clamped constant beyond its endpoints."""

    xs: np.ndarray
    ls: np.ndarray

    def __post_init__(self):
        xs = np.array(self.xs, dtype=float, copy=True)
        ls = np.array(self.ls, dtype=float, copy=True)
        if xs.ndim != 1 or xs.size < 2:
            raise PreconditionError("a piecewise-linear level function needs >= 2 points")
        if xs.shape != ls.shape:
            raise PreconditionError("xs and ls must have equal length")
        if not np.all(np.isfinite(xs)):
            raise PreconditionError("points must be finite")
        if np.any(np.diff(xs) <= 0.0):
            raise PreconditionError("points must be strictly increasing in x")
        if np.any(ls < 0.0) or np.any(ls > 1.0):
            raise PreconditionError("levels must lie in [0, 1]")
        if np.any(np.diff(ls) > 0.0):
            raise PreconditionError("levels must be non-increasing")
        xs.setflags(write=False)
        ls.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ls", ls)

    @property
    def knots(self) -> tuple[float, ...]:
        return ()  # continuous: no jumps

    @property
    def is_left_continuous(self) -> bool:
        return True

    @property
    def is_right_continuous(self) -> bool:
        return True

    @property
    def max_level(self) -> float:
        return float(self.ls[0])

    def eval(self, x: float) -> float:
        _check_x(x)
        return float(np.interp(x, self.xs, self.ls))

    def left_limit(self, x: float) -> float:
        return self.eval(x)

    def right_limit(self, x: float) -> float:
        return self.eval(x)

    def pieces(self) -> tuple[tuple[float, float, float, float], ...]:
        """Continuity pieces as for ``Step.pieces``: the clamps and the segments."""
        ls = self.ls.tolist()
        return _pieces(self.xs.tolist(), [ls[0], *ls], [*ls, ls[-1]])

    def superlevel_sup(self, c: float) -> float:
        _check_c(c)
        return float(self.superlevel_sup_many(np.array([c]))[0])

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        return np.interp(np.asarray(xs), self.xs, self.ls)

    def superlevel_sup_many(self, cs: np.ndarray) -> np.ndarray:
        cs = np.asarray(cs, dtype=float)
        below = np.searchsorted(self.ls[::-1], cs, side="left")
        last = np.clip(self.ls.size - below - 1, 0, self.ls.size - 2)  # last index with ls >= c
        x0 = np.take(self.xs, last)
        l0 = np.take(self.ls, last)
        l1 = np.take(self.ls, last + 1)
        denom = np.where(l0 > l1, l0 - l1, 1.0)
        crossing = x0 + (l0 - cs) * (np.take(self.xs, last + 1) - x0) / denom
        out = np.where(cs <= self.ls[-1], _INF, crossing)
        return np.where(cs > self.ls[0], -_INF, out)

    def to_spec(self) -> dict:
        return {
            "type": "piecewise_linear",
            "points": [[float(x), float(l)] for x, l in zip(self.xs, self.ls)],
        }


def _pieces(breaks: list[float], starts: list[float], ends: list[float]):
    edges = [-_INF, *breaks, _INF]
    return tuple(zip(edges[:-1], edges[1:], starts, ends))


# a types.UnionType: typing.Union would keep these classes in typing's
# process-wide cache, so a re-imported package could never free the old ones
LambdaFunction = Constant | Step | PiecewiseLinear


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

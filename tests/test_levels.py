import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lambdarisk import (
    Constant,
    LambdaFunction,
    PiecewiseLinear,
    PreconditionError,
    Step,
    from_spec,
    verify,
)

STEP_R = Step([1.0], [0.9, 0.3], "right")
STEP_L = Step([1.0], [0.9, 0.3], "left")
PL = PiecewiseLinear([0.0, 2.0], [0.8, 0.2])


def test_constant_basics():
    c = Constant(0.5)
    assert c.eval(-1e9) == c.eval(1e9) == 0.5
    assert c.max_level == 0.5
    assert c.knots == ()
    assert c.is_left_continuous and c.is_right_continuous
    assert c.superlevel_sup(0.5) == math.inf
    assert c.superlevel_sup(0.6) == -math.inf


@pytest.mark.parametrize("level", [-0.1, 1.1, math.nan, True, "0.5", None])
def test_constant_rejects_bad_level(level):
    with pytest.raises(PreconditionError):
        Constant(level)


def test_step_continuity_tags():
    assert STEP_R.eval(1.0) == 0.3 and STEP_L.eval(1.0) == 0.9
    assert STEP_R.left_limit(1.0) == STEP_L.left_limit(1.0) == 0.9
    assert STEP_R.right_limit(1.0) == STEP_L.right_limit(1.0) == 0.3
    assert STEP_R.is_right_continuous and not STEP_R.is_left_continuous
    assert STEP_L.is_left_continuous and not STEP_L.is_right_continuous
    assert STEP_R.knots == (1.0,)
    assert STEP_R.max_level == 0.9


def test_step_eval_off_knot():
    assert STEP_R.eval(0.999) == 0.9
    assert STEP_R.eval(1.001) == 0.3


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(thresholds=[], levels=[0.5], continuity="right"),
        dict(thresholds=[1.0], levels=[0.5], continuity="right"),
        dict(thresholds=[2.0, 1.0], levels=[0.9, 0.5, 0.1], continuity="right"),
        dict(thresholds=[1.0], levels=[0.3, 0.9], continuity="right"),
        dict(thresholds=[1.0], levels=[1.2, 0.3], continuity="right"),
        dict(thresholds=[1.0], levels=[0.9, 0.3], continuity="sideways"),
    ],
)
def test_step_validation(kwargs):
    with pytest.raises(PreconditionError):
        Step(**kwargs)


def test_piecewise_linear_interpolates_and_clamps():
    assert PL.eval(1.0) == pytest.approx(0.5)
    assert PL.eval(-5.0) == 0.8
    assert PL.eval(5.0) == 0.2
    assert PL.is_left_continuous and PL.is_right_continuous
    assert PL.knots == ()


def test_piecewise_linear_validation():
    with pytest.raises(PreconditionError):
        PiecewiseLinear([0.0], [0.5])
    with pytest.raises(PreconditionError):
        PiecewiseLinear([0.0, 0.0], [0.8, 0.2])
    with pytest.raises(PreconditionError):
        PiecewiseLinear([0.0, 1.0], [0.2, 0.8])


def test_superlevel_sup_is_generalized_inverse():
    # sup{x : L(x) >= c}: +inf below the tail level, -inf above the head level
    assert STEP_R.superlevel_sup(0.95) == -math.inf
    assert STEP_R.superlevel_sup(0.9) == 1.0
    assert STEP_R.superlevel_sup(0.5) == 1.0
    assert STEP_R.superlevel_sup(0.3) == math.inf
    assert PL.superlevel_sup(0.5) == pytest.approx(1.0)
    assert PL.superlevel_sup(0.9) == -math.inf
    assert PL.superlevel_sup(0.2) == math.inf
    assert PL.superlevel_sup(0.1) == math.inf


@pytest.mark.parametrize("fn", [Constant(0.4), STEP_R, STEP_L, PL])
def test_vectorized_agrees_with_scalar(fn):
    xs = np.linspace(-3.0, 3.0, 41)
    np.testing.assert_array_equal(fn.eval_many(xs), [fn.eval(float(x)) for x in xs])
    cs = np.linspace(0.0, 1.0, 21)
    np.testing.assert_array_equal(
        fn.superlevel_sup_many(cs), [fn.superlevel_sup(float(c)) for c in cs]
    )


@pytest.mark.parametrize("fn", [Constant(0.4), STEP_R, STEP_L, PL])
def test_vectorized_forms_check_input_as_scalar_forms(fn):
    for xs in ([0.0, math.nan], [math.inf], [[1.0], [-math.inf]]):
        with pytest.raises(PreconditionError):
            fn.eval_many(np.array(xs))
    for cs in ([1.5, -0.2], [0.5, math.nan], [[-0.1]]):
        with pytest.raises(PreconditionError):
            fn.superlevel_sup_many(np.array(cs))


def test_every_family_is_a_lambda_function():
    for fn in (Constant(0.4), STEP_R, PL):
        assert isinstance(fn, LambdaFunction)
    assert Constant(np.float32(0.5)) == Constant(0.5)
    assert type(Constant(np.float32(0.5)).level) is float


@pytest.mark.parametrize(
    "fn",
    [
        Constant(0.4),
        STEP_R,
        STEP_L,
        PL,
        Constant(1),
        Constant(np.float32(0.5)),
        Step(np.array([1.0], np.float32), np.array([0.9, 0.3], np.float32)),
        PiecewiseLinear(np.arange(3), np.array([0.8, 0.5, 0.2], np.float32)),
    ],
)
def test_spec_round_trip(fn):
    clone = from_spec(json.loads(json.dumps(fn.to_spec())))
    assert type(clone) is type(fn)
    assert clone.to_spec() == fn.to_spec()
    assert clone.pieces() == fn.pieces()
    xs = np.linspace(-3.0, 3.0, 101)
    np.testing.assert_array_equal(clone.eval_many(xs), fn.eval_many(xs))
    assert clone.is_left_continuous == fn.is_left_continuous
    if isinstance(fn, Constant):
        assert clone == fn


def test_from_spec_schemas():
    assert from_spec({"type": "constant", "level": 0.25}).eval(0.0) == 0.25
    s = from_spec(
        {"type": "step", "thresholds": [0.0], "levels": [0.7, 0.1], "continuity": "left"}
    )
    assert s.eval(0.0) == 0.7
    # continuity defaults to right
    s = from_spec({"type": "step", "thresholds": [0.0], "levels": [0.7, 0.1]})
    assert s.eval(0.0) == 0.1
    p = from_spec({"type": "piecewise_linear", "points": [[0.0, 0.6], [1.0, 0.2]]})
    assert p.eval(0.5) == pytest.approx(0.4)


@pytest.mark.parametrize(
    "spec",
    [
        {},
        {"type": "mystery"},
        {"type": "constant"},
        {"type": "constant", "level": True},
        {"type": "constant", "level": "0.5"},
        {"type": "step", "thresholds": [0.0], "levels": [0.1, 0.7]},
        {"type": "piecewise_linear", "points": [[0.0, 0.5]]},
    ],
)
def test_from_spec_rejects(spec):
    # schema problems are plain ValueError, constraint problems the subclass;
    # either way the caller sees a ValueError
    with pytest.raises(ValueError):
        from_spec(spec)


@given(st.floats(-20.0, 20.0), st.floats(0.01, 0.99))
def test_step_is_decreasing(x, dx):
    for fn in (STEP_R, STEP_L, PL):
        assert fn.eval(x) >= fn.eval(x + dx)


# --------------------------------------------------------------------------
# reference: the per-family formulas the shared piece table replaced


def _ref_eval_many(L, xs, side=None):
    xs = np.asarray(xs, dtype=float)
    if isinstance(L, Constant):
        return np.full(xs.shape, L.level)
    if isinstance(L, Step):
        return L.levels[np.searchsorted(L.thresholds, xs, side=side or L.continuity)]
    return np.interp(xs, L.xs, L.ls)


def _ref_superlevel_sup_many(L, cs):
    cs = np.asarray(cs, dtype=float)
    if isinstance(L, Constant):
        return np.where(cs <= L.level, math.inf, -math.inf)
    if isinstance(L, Step):
        below = np.searchsorted(L.levels[::-1], cs, side="left")
        first = L.levels.size - below  # first index with level < c
        out = np.take(L.thresholds, np.clip(first - 1, 0, L.thresholds.size - 1))
        out = np.where(first == 0, -math.inf, out)
        return np.where(below == 0, math.inf, out)
    below = np.searchsorted(L.ls[::-1], cs, side="left")
    last = np.clip(L.ls.size - below - 1, 0, L.ls.size - 2)  # last index with ls >= c
    x0, l0, l1 = np.take(L.xs, last), np.take(L.ls, last), np.take(L.ls, last + 1)
    denom = np.where(l0 > l1, l0 - l1, 1.0)
    crossing = x0 + (l0 - cs) * (np.take(L.xs, last + 1) - x0) / denom
    out = np.where(cs <= L.ls[-1], math.inf, crossing)
    return np.where(cs > L.ls[0], -math.inf, out)


def _ref_table(L):
    """(pieces, max_level, left/right continuity, knots) per family."""
    if isinstance(L, Constant):
        return ((-math.inf, math.inf, L.level, L.level),), L.level, (True, True), ()
    if isinstance(L, Step):
        t, lv = L.thresholds.tolist(), L.levels.tolist()
        edges = [-math.inf, *t, math.inf]
        continuity = (L.continuity == "left", L.continuity == "right")
        return tuple(zip(edges[:-1], edges[1:], lv, lv)), lv[0], continuity, tuple(t)
    xs, ls = L.xs.tolist(), L.ls.tolist()
    edges = [-math.inf, *xs, math.inf]
    pieces = tuple(zip(edges[:-1], edges[1:], [ls[0], *ls], [*ls, ls[-1]]))
    return pieces, ls[0], (True, True), ()


def _ref_spec(L):
    if isinstance(L, Constant):
        return {"type": "constant", "level": L.level}
    if isinstance(L, Step):
        return {
            "type": "step",
            "thresholds": [float(t) for t in L.thresholds],
            "levels": [float(l) for l in L.levels],
            "continuity": L.continuity,
        }
    points = [[float(x), float(l)] for x, l in zip(L.xs, L.ls)]
    return {"type": "piecewise_linear", "points": points}


def _same(got, want):
    assert type(got) is type(want), (got, want)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (got, want)
    else:
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (got, want)


def test_piece_table_matches_per_family_reference_bit_for_bit():
    rng = random.Random(20261019)
    kinds = set()
    for _ in range(400):
        L = verify._rand_level_fn(rng)
        kinds.add(type(L))
        pieces, max_level, continuity, knots = _ref_table(L)
        assert L.pieces() == pieces
        _same(L.max_level, max_level)
        assert (L.is_left_continuous, L.is_right_continuous) == continuity
        assert L.knots == knots
        assert L.to_spec() == _ref_spec(L)

        breaks = [b for _, b, _, _ in pieces[:-1]]
        xs = np.array([rng.uniform(-15.0, 15.0) for _ in range(40)] + breaks)
        _same(L.eval_many(xs), _ref_eval_many(L, xs))
        for x in xs.tolist():
            _same(L.eval(x), float(_ref_eval_many(L, x)))
            _same(L.left_limit(x), float(_ref_eval_many(L, x, "left")))
            _same(L.right_limit(x), float(_ref_eval_many(L, x, "right")))

        levels = {v for _, _, la, lb in pieces for v in (la, lb)}
        cs = np.array(sorted(levels | {0.0, 1.0} | {rng.random() for _ in range(10)}))
        _same(L.superlevel_sup_many(cs), _ref_superlevel_sup_many(L, cs))
        for c in cs.tolist():
            _same(L.superlevel_sup(c), float(_ref_superlevel_sup_many(L, c)))
    assert kinds == {Constant, Step, PiecewiseLinear}

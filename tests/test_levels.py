import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lambdarisk import Constant, PiecewiseLinear, PreconditionError, Step, from_spec

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


@pytest.mark.parametrize("level", [-0.1, 1.1, math.nan])
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
def test_spec_round_trip(fn):
    clone = from_spec(fn.to_spec())
    xs = np.linspace(-3.0, 3.0, 101)
    np.testing.assert_array_equal(clone.eval_many(xs), fn.eval_many(xs))
    assert clone.is_left_continuous == fn.is_left_continuous


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

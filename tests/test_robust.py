"""Closed-form worst cases under transport and moment ambiguity."""

import math
import random

import numpy as np
import pytest

from lambdarisk import (
    Constant,
    MomentSet,
    PiecewiseLinear,
    PreconditionError,
    Step,
    evar_family,
    evar_value,
    lambda_lift,
    make_distribution,
    worst_case_mean_variance,
    worst_case_wasserstein,
)
from lambdarisk.lifting import _crossing_bracket

U4 = make_distribution([1.0, 2.0, 3.0, 4.0])
STEP36 = Step([3.6], [0.75, 0.25], "right")


def rand_dist(rng, nmax=8):
    n = rng.randint(2, nmax)
    vals = sorted(rng.uniform(-6.0, 6.0) for _ in range(n))
    return make_distribution(vals, [rng.uniform(0.1, 1.0) for _ in range(n)])


# ----------------------------------------------------------- transport ball


def test_wasserstein_delta_zero_is_the_nominal_lift():
    rng = random.Random(17)
    for _ in range(10):
        d = rand_dist(rng)
        L = Step([rng.uniform(-3.0, 3.0)], [0.8, 0.3], rng.choice(["left", "right"]))
        p = rng.choice([1.0, 2.0])
        res = worst_case_wasserstein(d, p, L, 0.0)
        nominal = lambda_lift(d, evar_family(d, p), L).value
        assert res.value == pytest.approx(nominal, abs=1e-9)
        assert res.inflation == pytest.approx(0.0, abs=1e-9)


def test_wasserstein_monotone_in_radius():
    prev = -math.inf
    for delta in (0.0, 0.1, 0.25, 0.5, 1.0):
        v = worst_case_wasserstein(U4, 2.0, STEP36, delta).value
        assert v >= prev - 1e-12
        prev = v


def test_wasserstein_constant_level_closed_form():
    for p in (1.0, 2.0, 3.0):
        for alpha in (0.2, 0.6):
            for delta in (0.0, 0.3, 1.0):
                res = worst_case_wasserstein(U4, p, Constant(alpha), delta)
                want = evar_value(U4, p, alpha) + delta * (1.0 - alpha) ** (-1.0 / p)
                assert res.value == pytest.approx(want, abs=1e-10)
                assert res.x_star == res.value


def test_wasserstein_jump_absorbs_small_inflation():
    # the crossing sits in a jump of the level curve, so a small transport
    # budget cannot move it
    res = worst_case_wasserstein(U4, 1.0, STEP36, 0.3)
    assert res.value == 3.6
    assert res.nominal == 3.6
    assert res.inflation == 0.0


def test_wasserstein_dominates_shifted_members():
    # pushing the whole law right by c <= delta stays inside the ball
    rng = random.Random(23)
    for _ in range(10):
        d = rand_dist(rng)
        L = PiecewiseLinear([d.essinf, d.esssup + 1.0], [0.9, 0.1])
        p = rng.choice([1.0, 2.0])
        delta = rng.uniform(0.05, 0.8)
        c = rng.uniform(0.0, delta)
        robust = worst_case_wasserstein(d, p, L, delta).value
        member = lambda_lift(d.shift(c), evar_family(d.shift(c), p), L).value
        assert member <= robust + 1e-8


def test_wasserstein_preconditions():
    with pytest.raises(PreconditionError):
        worst_case_wasserstein(U4, 0.5, STEP36, 0.1)
    with pytest.raises(PreconditionError):
        worst_case_wasserstein(U4, 1.0, STEP36, -0.1)
    with pytest.raises(PreconditionError):
        worst_case_wasserstein(U4, 1.0, Constant(1.0), 0.1)  # level hits 1


# ------------------------------------------------------------- moment ball


def test_meanvar_constant_level_is_cantelli():
    m, v = 1.5, 2.0
    for alpha in (0.1, 0.5, 0.9):
        want = m + v * math.sqrt(alpha / (1.0 - alpha))
        res = worst_case_mean_variance(MomentSet(m, v), Constant(alpha))
        assert res.value == pytest.approx(want, rel=1e-15, abs=1e-15)


def test_meanvar_step_fixture():
    # envelope jumps from 2 to 0.5 across x = 1, crossing pinned at the knot
    res = worst_case_mean_variance(MomentSet(0.0, 1.0), Step([1.0], [0.8, 0.2], "right"))
    assert res.value == 1.0


def test_meanvar_monotone_in_spread():
    L = Step([1.0], [0.8, 0.2], "right")
    prev = -math.inf
    for v in (0.0, 0.5, 1.0, 2.0, 5.0):
        got = worst_case_mean_variance(MomentSet(0.0, v), L).value
        assert got >= prev - 1e-12
        prev = got


def test_meanvar_zero_spread_is_degenerate():
    # only the point mass at m is feasible, so the worst case is m itself
    # whenever the level function stays positive there
    res = worst_case_mean_variance(MomentSet(2.0, 0.0), Constant(0.5))
    assert res.value == pytest.approx(2.0, abs=1e-12)


def test_meanvar_dominates_two_point_members():
    # the two-point law with mean m and std v saturates the envelope
    rng = random.Random(41)
    for _ in range(10):
        m, v = rng.uniform(-2.0, 2.0), rng.uniform(0.2, 2.0)
        q = rng.uniform(0.15, 0.85)
        lo = m - v * math.sqrt((1.0 - q) / q)
        hi = m + v * math.sqrt(q / (1.0 - q))
        member = make_distribution([lo, hi], [q, 1.0 - q])
        L = PiecewiseLinear([lo - 1.0, hi + 1.0], [0.9, 0.1])
        robust = worst_case_mean_variance(MomentSet(m, v), L).value
        for p in (1.0, 2.0):
            got = lambda_lift(member, evar_family(member, p), L).value
            assert got <= robust + 1e-8


def test_meanvar_preconditions():
    with pytest.raises(PreconditionError):
        worst_case_mean_variance(MomentSet(0.0, 1.0), Constant(1.0))
    with pytest.raises(PreconditionError):
        worst_case_mean_variance(MomentSet(0.0, -1.0), Constant(0.5))


def test_inflation_is_value_minus_nominal():
    res = worst_case_wasserstein(U4, 2.0, STEP36, 0.7)
    assert res.inflation == pytest.approx(res.value - res.nominal, abs=1e-12)
    assert res.inflation >= -1e-12


# ------------------------------------------------------- crossing diagnostics


def test_wasserstein_delta_zero_diagnostics_are_the_nominal_lifts():
    # at delta = 0 the inflated curve and its bracket are the nominal ones, so
    # the worst-case crossing is the lift's crossing, bit for bit
    rng = random.Random(29)
    for _ in range(10):
        d = rand_dist(rng)
        for L in (
            Step([rng.uniform(-3.0, 3.0)], [0.8, 0.3], rng.choice(["left", "right"])),
            PiecewiseLinear([d.essinf, d.esssup + 1.0], [0.9, 0.1]),
        ):
            p = rng.choice([1.0, 2.0])
            res = worst_case_wasserstein(d, p, L, 0.0)
            lift = lambda_lift(d, evar_family(d, p), L)
            assert (res.value, res.attained) == (lift.value, lift.attained)
            assert res.achieved_tol == lift.achieved_tol
            # the nominal crossing and the inflated one each ran in full
            assert res.iterations == 2 * lift.iterations


def test_meanvar_constant_level_is_one_exact_probe():
    for alpha in (0.1, 0.5, 0.9):
        res = worst_case_mean_variance(MomentSet(1.5, 2.0), Constant(alpha))
        assert res.iterations == 1
        assert res.achieved_tol == 0.0


@pytest.mark.parametrize("continuity", ["left", "right"])
def test_attained_is_left_continuity(continuity):
    L = Step([1.0], [0.8, 0.2], continuity)
    for res in (
        worst_case_wasserstein(U4, 2.0, L, 0.4),
        worst_case_mean_variance(MomentSet(0.0, 1.0), L),
    ):
        assert res.attained == L.is_left_continuous == (continuity == "left")
        assert res.t_lo is None and res.t_hi is None


def test_sloped_level_tolerance_is_relative_to_the_bracket():
    rng = random.Random(31)
    solved = 0
    for _ in range(10):
        d = rand_dist(rng)
        L = PiecewiseLinear([d.essinf, d.esssup + 1.0], [0.9, 0.1])
        p, delta = rng.choice([1.0, 2.0]), rng.uniform(0.05, 0.8)
        top = d.esssup + delta * (1.0 - L.max_level) ** (-1.0 / p)
        lo, hi = _crossing_bracket(d.essinf, top)
        res = worst_case_wasserstein(d, p, L, delta)
        assert 0.0 <= res.achieved_tol <= 1e-12 * (hi - lo)
        m, v = rng.uniform(-2.0, 2.0), rng.uniform(0.2, 2.0)
        top = m + v * math.sqrt(L.max_level / (1.0 - L.max_level))
        lo, hi = _crossing_bracket(m, top)
        res_mv = worst_case_mean_variance(MomentSet(m, v), L)
        assert 0.0 <= res_mv.achieved_tol <= 1e-12 * (hi - lo)
        solved += (res.achieved_tol > 0.0) + (res_mv.achieved_tol > 0.0)
    assert solved > 0  # some crossings ran ITP on the sloped piece

"""Level-adaptive lifts: sup-of-min form, inf-of-max form, joint minimization.

Brute-force grid suprema serve as the oracle; the step-function fixtures have
hand-computable crossings.
"""

import math
import random

import numpy as np
import pytest

from lambdarisk import (
    Constant,
    PiecewiseLinear,
    PreconditionError,
    Step,
    es_family,
    evar,
    evar_family,
    evar_value,
    extended_ru,
    homogeneous_form_value,
    lambda_evar_dual_oracle,
    lambda_lift,
    lambda_lift_inf,
    make_distribution,
    point_mass,
    sandwich_check,
    solve_level_crossing,
    var_family,
)
from lambdarisk import classical, verify

U4 = make_distribution([1.0, 2.0, 3.0, 4.0])
STEP36 = Step([3.6], [0.75, 0.25], "right")


def brute_sup_min(dist, family, level_fn, n=400_001):
    lo, hi = dist.essinf - 1.0, dist.esssup + 1.0
    xs = np.linspace(lo, hi, n)
    levels = level_fn.eval_many(xs)
    uniq, inv = np.unique(levels, return_inverse=True)
    g = np.array([family.level_value(float(a)) for a in uniq])[inv]
    return float(np.minimum(g, xs).max()), (hi - lo) / (n - 1)


def rand_dist(rng, nmax=10):
    n = rng.randint(2, nmax)
    vals = sorted(rng.uniform(-8.0, 8.0) for _ in range(n))
    probs = [rng.uniform(0.05, 1.0) for _ in range(n)]
    return make_distribution(vals, probs)


def rand_step(rng, right_only=False):
    k = rng.randint(1, 3)
    xs, x = [], rng.uniform(-6.0, 6.0)
    for _ in range(k):
        xs.append(x)
        x += rng.uniform(0.4, 3.0)
    ls = sorted((rng.uniform(0.02, 0.97) for _ in range(k + 1)), reverse=True)
    cont = "right" if right_only else rng.choice(["left", "right"])
    return Step(np.array(xs), np.array(ls), cont)


# ------------------------------------------------------------------- fixtures


def test_es_lift_jump_crossing():
    # ES_{0.75}(U4) = 4 left of the jump, ES_{0.25}(U4) = 3 right of it:
    # min(g, x) climbs to 3.6 but only as a supremum
    res = lambda_lift(U4, es_family(U4), STEP36)
    assert res.value == 3.6
    assert res.x_star == 3.6
    assert res.attained is False
    left = lambda_lift(U4, es_family(U4), Step([3.6], [0.75, 0.25], "left"))
    assert left.value == 3.6
    assert left.attained is True


def test_es_lift_reads_its_interval_from_the_cdf(monkeypatch):
    def no_solver(*args, **kwargs):
        raise AssertionError("an es lift must not run the entropic solver")

    rng = random.Random(11)
    laws = [rand_dist(rng) for _ in range(20)]
    cases = [
        (d, alpha)
        for d in laws
        for alpha in (0.0, 1.0, float(d._cum[0]), rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))
    ]
    # the reference interval comes from the general solver at order 1
    want = [(evar(d, 1.0, alpha).t_lo, evar(d, 1.0, alpha).t_hi) for d, alpha in cases]
    monkeypatch.setattr(classical, "_evar_core", no_solver)
    for (d, alpha), interval in zip(cases, want):
        assert es_family(d).level_interval(alpha) == interval
    assert lambda_lift(U4, es_family(U4), STEP36).value == 3.6
    for L in (Constant(0.6), PiecewiseLinear([0.0, 5.0], [0.9, 0.1])):
        res = lambda_lift(U4, es_family(U4), L)
        assert res.t_lo <= res.t_hi


def test_lift_interval_is_evar_interval_at_the_crossing_level():
    # evar, which solves for the value too, is the reference, bit for bit
    rng = random.Random("lift-interval")
    for _ in range(300):
        d = verify._rand_dist(rng, 20)
        fam = rng.choice([es_family(d), evar_family(d, rng.choice([1.5, 2.0, 3.0]))])
        L = verify._rand_level_fn(rng)
        res = lambda_lift(d, fam, L)
        ref = evar(d, fam.p, L.eval(res.x_star))
        assert (res.t_lo, res.t_hi) == (ref.t_lo, ref.t_hi)


def test_lift_rejects_a_family_built_on_another_law():
    others = [make_distribution([0.0, 1.0, 2.0]), make_distribution(U4.values, [1, 2, 3, 4])]
    for other in others:
        for lift in (lambda_lift, lambda_lift_inf):
            with pytest.raises(PreconditionError):
                lift(U4, es_family(other), STEP36)  # would be the other law's lift
    twin = make_distribution([4.0, 3.0, 2.0, 1.0])  # a second build of the same atoms
    assert lambda_lift(U4, es_family(twin), STEP36) == lambda_lift(U4, es_family(U4), STEP36)
    assert lambda_lift_inf(U4, es_family(twin), STEP36) == 3.6


def test_var_lift_fixture():
    res = lambda_lift(U4, var_family(U4), Step([0.0], [0.8, 0.2], "right"))
    assert res.value == 1.0
    assert res.t_lo is None and res.t_hi is None  # no inner problem for quantiles


def test_constant_level_collapses_exactly():
    for alpha in (0.0, 0.25, 0.6):
        res = lambda_lift(U4, es_family(U4), Constant(alpha))
        assert res.value == U4.expected_shortfall(alpha)
        assert res.attained is True and res.iterations == 1  # one piece, one probe


def test_point_mass_lift_is_the_point():
    d = point_mass(1.5)
    L = Step([0.0], [0.9, 0.4], "right")
    for fam in (var_family(d), es_family(d), evar_family(d, 2.0)):
        assert lambda_lift(d, fam, L).value == pytest.approx(1.5, abs=1e-9)


# ------------------------------------------------------------- oracle checks


def test_lift_matches_brute_grid():
    rng = random.Random(2024)
    for _ in range(25):
        d = rand_dist(rng)
        L = rand_step(rng)
        fam = random.choice([var_family(d), es_family(d), evar_family(d, 2.0)])
        res = lambda_lift(d, fam, L)
        brute, spacing = brute_sup_min(d, fam, L)
        assert abs(res.value - brute) <= spacing + 1e-9


def test_sup_and_inf_forms_agree():
    rng = random.Random(7)
    for _ in range(15):
        d = rand_dist(rng)
        L = rand_step(rng)
        p = rng.choice([1.0, 2.0, 3.0])
        fam = evar_family(d, p)
        assert lambda_lift(d, fam, L).value == pytest.approx(
            lambda_lift_inf(d, fam, L), abs=1e-8
        )


def test_continuous_level_function_crossing():
    L = PiecewiseLinear([1.0, 4.0], [0.9, 0.1])
    res = lambda_lift(U4, es_family(U4), L)
    # at the crossing the curve equals the identity
    assert U4.expected_shortfall(L.eval(res.x_star)) == pytest.approx(res.value, abs=1e-7)
    assert res.attained is True  # continuous level functions always attain


def test_sandwich_characterizes_the_crossing():
    res = lambda_lift(U4, evar_family(U4, 2.0), STEP36)
    assert sandwich_check(U4, 2.0, STEP36, res.x_star, 1e-7)
    assert not sandwich_check(U4, 2.0, STEP36, res.x_star - 0.5, 1e-7)
    assert not sandwich_check(U4, 2.0, STEP36, res.x_star + 0.5, 1e-7)
    with pytest.raises(PreconditionError):
        sandwich_check(U4, 2.0, STEP36, res.x_star, 0.0)


def test_result_reports_crossing_as_both_value_and_x_star():
    rng = random.Random(31)
    for _ in range(10):
        d = rand_dist(rng)
        res = lambda_lift(d, es_family(d), rand_step(rng))
        assert res.value == res.x_star


# ------------------------------------------------------- joint minimization


def test_extended_ru_agrees_with_lift():
    res = extended_ru(U4, 1.0, STEP36)
    assert res.value == pytest.approx(3.6, abs=1e-9)
    rng = random.Random(55)
    for _ in range(15):
        d = rand_dist(rng)
        L = rand_step(rng, right_only=True)
        p = rng.choice([1.0, 2.0, 3.0])
        lifted = lambda_lift(d, evar_family(d, p), L)
        joint = extended_ru(d, p, L)
        assert joint.value == pytest.approx(lifted.value, abs=1e-7)
        assert joint.x_star == pytest.approx(joint.value, abs=1e-12)


def test_extended_ru_needs_right_continuity():
    with pytest.raises(PreconditionError):
        extended_ru(U4, 1.0, Step([3.6], [0.75, 0.25], "left"))


def test_extended_ru_constant_is_plain_evar():
    res = extended_ru(U4, 2.0, Constant(0.5))
    assert res.value == pytest.approx(evar_value(U4, 2.0, 0.5), abs=1e-12)
    assert res.t_lo <= res.t_hi


def test_extended_ru_inner_minimizer_solves_the_level():
    res = extended_ru(U4, 2.0, STEP36)
    level = STEP36.eval(res.x_star)
    sol_here = evar_value(U4, 2.0, level)
    # the (t, x) pair is jointly optimal: inner value at the crossing level
    # cannot exceed the crossing
    assert sol_here <= res.value + 1e-9


# ------------------------------------------------------- homogeneous shape


def test_homogeneous_form_matches_lift():
    d = make_distribution([-1.0, 1.0], [0.5, 0.5])
    a1, a3 = 0.8, 0.2
    for p in (1.0, 2.0):
        hv = homogeneous_form_value(d, p, a1, 0.5, a3)
        for cont in ("left", "right"):
            res = lambda_lift(d, evar_family(d, p), Step([0.0], [a1, a3], cont))
            assert res.value == pytest.approx(hv, abs=1e-8)


def test_homogeneous_form_ignores_middle_level():
    d = make_distribution([-2.0, 0.5, 3.0])
    vals = {homogeneous_form_value(d, 2.0, 0.9, a2, 0.1) for a2 in (0.9, 0.5, 0.1)}
    assert max(vals) - min(vals) <= 1e-12


def test_homogeneous_form_scales():
    d = make_distribution([-3.0, -1.0, 2.0, 5.0])
    base = homogeneous_form_value(d, 2.0, 0.7, 0.4, 0.1)
    for s in (0.5, 2.0, 10.0):
        assert homogeneous_form_value(d.scale(s), 2.0, 0.7, 0.4, 0.1) == pytest.approx(
            s * base, rel=1e-9, abs=1e-9
        )


def test_homogeneous_form_rejects_bad_ordering():
    with pytest.raises(PreconditionError):
        homogeneous_form_value(U4, 2.0, 0.2, 0.5, 0.8)


# ------------------------------------------------------------- lifted dual


def test_lifted_dual_weak_duality():
    rng = random.Random(13)
    for _ in range(5):
        d = rand_dist(rng, nmax=3)
        L = rand_step(rng)
        for p in (2.0, 3.0):
            primal = lambda_lift(d, evar_family(d, p), L).value
            dual = lambda_evar_dual_oracle(d, p, L, 400)
            assert dual <= primal + 1e-12


def test_lifted_dual_preconditions():
    with pytest.raises(PreconditionError):
        lambda_evar_dual_oracle(U4, 2.0, STEP36, 400)  # support 4 too large
    d = make_distribution([0.0, 1.0])
    with pytest.raises(PreconditionError):
        lambda_evar_dual_oracle(d, 1.0, STEP36, 400)  # needs p > 1
    with pytest.raises(PreconditionError):
        lambda_evar_dual_oracle(d, 2.0, STEP36, 100)  # resolution too coarse


# ------------------------------------------------------------ crossing solver


def test_crossing_snaps_onto_jump_knots():
    # the es curve jumps across the identity at x = 3.6, so the crossing is
    # the knot itself, exactly
    fam = es_family(U4)
    cross = solve_level_crossing(fam.level_value, STEP36, U4.essinf - 1.0, U4.esssup + 1.0)
    assert cross.x == 3.6


def test_crossing_recovers_from_bad_bracket():
    # callers' bounds are advisory: a bracket handed in backwards still works
    fam = es_family(U4)
    cross = solve_level_crossing(fam.level_value, STEP36, 5.0, 4.0)
    assert cross.x == 3.6


def test_crossing_reports_curves_that_never_come_down():
    with pytest.raises(ArithmeticError):
        solve_level_crossing(lambda level: math.inf, STEP36, 0.0, 1.0)

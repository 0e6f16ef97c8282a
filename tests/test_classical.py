"""Entropic value-at-risk of order p: solver, order checks, dual oracle, entropy helpers.

The oracles here are deliberately independent of the solver: expected
shortfall by direct sorting, the two-point closed form, and a brute grid
minimization of the objective.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lambdarisk import (
    PreconditionError,
    ScenarioTable,
    Step,
    combine,
    conjugate_order,
    evar,
    evar_dual_oracle,
    evar_family,
    evar_objective,
    evar_value,
    lambda_lift,
    make_distribution,
    point_mass,
    renyi_entropy,
    worst_case_wasserstein,
)

U4 = make_distribution([1.0, 2.0, 3.0, 4.0])


def es_by_sorting(values, probs, alpha):
    """Tail average straight from the definition, no library calls."""
    pairs = sorted(zip(values, probs), reverse=True)
    tail = 1.0 - alpha
    if tail <= 0.0:
        return pairs[0][0]
    acc, need = 0.0, tail
    for v, w in pairs:
        take = min(w, need)
        acc += take * v
        need -= take
        if need <= 1e-18:
            break
    return acc / tail


def grid_min_objective(d, p, alpha, lo, hi, n=4001):
    ts = np.linspace(lo, hi, n)
    return min(evar_objective(d, p, alpha, float(t)) for t in ts)


@st.composite
def dists(draw, max_support=10):
    n = draw(st.integers(2, max_support))
    vals = draw(
        st.lists(st.floats(-8.0, 8.0, allow_nan=False), min_size=n, max_size=n, unique=True)
    )
    probs = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    return make_distribution(vals, probs)


# ---------------------------------------------------------------- order p = 1


@given(dists(), st.sampled_from([0.0, 0.1, 0.35, 0.5, 0.8, 0.95]))
def test_order_one_is_expected_shortfall(d, alpha):
    want = es_by_sorting(d.values, d.probs, alpha)
    assert evar_value(d, 1.0, alpha) == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_order_one_minimizer_interval_is_quantile_interval():
    sol = evar(U4, 1.0, 0.5)
    assert sol.value == pytest.approx(3.5, abs=1e-12)
    assert sol.t_lo == 2.0 and sol.t_hi == 3.0  # the objective is flat there


# ---------------------------------------------------------------- general p


def test_level_zero_is_mean_any_order():
    for p in (1.0, 2.0, 3.0):
        assert evar_value(U4, p, 0.0) == pytest.approx(2.5, abs=1e-13)


def test_level_one_is_esssup_any_order():
    for p in (1.0, 2.0, 3.0):
        sol = evar(U4, p, 1.0)
        assert sol.value == 4.0
        assert sol.t_lo == sol.t_hi == 4.0


def test_point_mass_is_fixed_point():
    d = point_mass(-2.5)
    for p in (1.0, 2.0, 3.0):
        for a in (0.0, 0.5, 0.99):
            assert evar_value(d, p, a) == pytest.approx(-2.5, abs=1e-12)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_two_point_closed_form(p):
    # lower atom mass beta, level beta: value is the upper atom, the objective
    # is flat on [a, b]
    a, b, beta = -1.0, 2.0, 0.4
    d = make_distribution([a, b], [beta, 1.0 - beta])
    sol = evar(d, p, beta)
    assert sol.value == pytest.approx(b, abs=1e-10)
    assert (sol.t_lo, sol.t_hi) == (a, b)  # the top-atom knife edge: [x_{n-2}, esssup]


@given(dists(max_support=6), st.sampled_from([2.0, 3.0]), st.sampled_from([0.3, 0.7]))
@settings(max_examples=25)
def test_value_is_the_global_minimum(d, p, alpha):
    # for p > 1 the minimizer can sit far below essinf, so a fixed grid cannot
    # bracket it; instead: the value is attained on the reported interval, no
    # grid point beats it, and it is locally optimal (global, by convexity)
    sol = evar(d, p, alpha)
    mid = 0.5 * (sol.t_lo + sol.t_hi)
    assert evar_objective(d, p, alpha, mid) == pytest.approx(sol.value, rel=1e-8, abs=1e-8)
    grid_best = grid_min_objective(d, p, alpha, sol.t_lo - 10.0, d.esssup + 1.0)
    assert sol.value <= grid_best + 1e-9
    for t in (sol.t_lo - 1e-4, sol.t_hi + 1e-4):
        assert evar_objective(d, p, alpha, t) >= sol.value - 1e-9


@given(dists(), st.sampled_from([1.0, 2.0, 3.0]))
def test_monotone_in_level_and_bounded(d, p):
    vals = [evar_value(d, p, a) for a in (0.0, 0.2, 0.5, 0.8, 1.0)]
    assert vals[0] == pytest.approx(d.mean, abs=1e-10)
    for lo, hi in zip(vals, vals[1:]):
        assert lo <= hi + 1e-10
    assert vals[-1] <= d.esssup + 1e-12


@given(dists(), st.sampled_from([1.0, 2.0, 3.0]), st.floats(-3.0, 3.0), st.floats(0.1, 4.0))
@settings(max_examples=30)
def test_cash_additive_and_homogeneous(d, p, c, s):
    base = evar_value(d, p, 0.6)
    assert evar_value(d.shift(c), p, 0.6) == pytest.approx(base + c, rel=1e-9, abs=1e-9)
    assert evar_value(d.scale(s), p, 0.6) == pytest.approx(s * base, rel=1e-9, abs=1e-9)


def test_subadditive_on_joint_scenarios():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        t = ScenarioTable(
            rng.uniform(0.1, 1.0, n),
            {"X": rng.uniform(-5.0, 5.0, n), "Y": rng.uniform(-5.0, 5.0, n)},
        )
        x, y = t.column("X"), t.column("Y")
        xy = combine(t, {"X": 1.0, "Y": 1.0})
        for p in (1.0, 2.0):
            assert evar_value(xy, p, 0.7) <= (
                evar_value(x, p, 0.7) + evar_value(y, p, 0.7) + 1e-9
            )


def test_objective_value_and_shape():
    # t + (1/(1-alpha))^{1/p} * ||(X-t)_+||_p, evaluated at a few hand points
    assert evar_objective(U4, 1.0, 0.5, 3.0) == pytest.approx(3.0 + 2.0 * 0.25)
    assert evar_objective(U4, 1.0, 0.5, 10.0) == 10.0  # above esssup: identity
    # convexity along a coarse grid
    ts = np.linspace(-2.0, 6.0, 33)
    vals = [evar_objective(U4, 2.0, 0.5, float(t)) for t in ts]
    for a, b, c in zip(vals, vals[1:], vals[2:]):
        assert b <= 0.5 * (a + c) + 1e-10


def test_solution_interval_brackets_value():
    for p in (2.0, 3.0):
        sol = evar(U4, p, 0.6)
        assert math.isfinite(sol.t_lo) and sol.t_lo <= sol.t_hi
        for t in (sol.t_lo, 0.5 * (sol.t_lo + sol.t_hi), sol.t_hi):
            assert evar_objective(U4, p, 0.6, t) == pytest.approx(sol.value, rel=1e-6, abs=1e-6)


# ---------------------------------------------------------------- minimizer interval
#
# The reference for t* at p = 2 is the closed form t = mu_S - sqrt(V_S/(c^2 P_S - 1))
# tried on every atom segment here, independently of the solver's segment search.

D3 = make_distribution([0.0, 1.0, 2.0])


def closed_form_minimizer(values, probs, alpha):
    """t* of the p = 2 objective: the one segment whose closed form lies inside it."""
    if probs[-1] / (1.0 - alpha) > 1.0:
        return float(values[-1])  # the slope on the top segment is negative
    for j in range(len(values) - 1):  # tail values[j:], segment [values[j-1], values[j]]
        x, w = values[j:], probs[j:]
        mass = w.sum()
        mu = w @ x / mass
        var = w @ (x - mu) ** 2 / mass
        excess = (alpha - probs[:j].sum()) / (1.0 - alpha)  # c^2 P_S - 1
        if excess <= 0.0:
            continue
        t = mu - math.sqrt(var / excess)
        if (values[j - 1] if j else -math.inf) <= t <= values[j]:
            return float(t)
    raise AssertionError("no segment holds the minimizer")


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("s", [1e-300, 1e-12, 1e200])
def test_minimizer_interval_is_scale_equivariant(p, s):
    # at the unit scale t* = 1.5 - sqrt(3)/2 = 0.634 for p = 2; the interval
    # used to come out as 1.0 at 1e-12, 0 at 1e-300 and 2 at 1e200
    unit = evar(D3, p, 0.5)
    sol = evar(D3.scale(s), p, 0.5)
    assert sol.t_lo / s == pytest.approx(unit.t_lo, rel=1e-12)
    assert sol.t_hi / s == pytest.approx(unit.t_hi, rel=1e-12)
    if p == 2.0:
        assert unit.t_lo == unit.t_hi == pytest.approx(1.5 - math.sqrt(0.75), rel=1e-15)


def test_minimizer_at_a_tiny_level_is_one_point():
    # the band [-833343, -800561] the slope bisections reported around one point
    alpha = 1e-12
    sol = evar(D3, 2.0, alpha)
    assert sol.t_lo == sol.t_hi
    assert sol.t_lo == pytest.approx(1.0 - math.sqrt((2.0 / 3.0) * (1.0 - alpha) / alpha), rel=1e-6)


# at 1e-17 c rounds to 1; at 1e-16 with p = 1.5 it is one ulp above 1, and the
# slope 1 - c far below essinf drowns in rounding
@pytest.mark.parametrize("p,alpha", [(1.5, 1e-17), (2.0, 1e-17), (3.0, 1e-17), (1.5, 1e-16)])
def test_level_where_c_rounds_to_one_takes_the_level_zero_route(p, alpha):
    assert (1.0 / (1.0 - alpha)) ** (1.0 / p) <= 1.0 + 2.0**-52
    sol = evar(D3, p, alpha)
    # no minimizer is resolved; at p = 1.5, 1e-16 one used to be reported at -2.3e18
    assert (sol.t_lo, sol.t_hi) == (-math.inf, -math.inf)
    assert sol.iterations < 400


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_level_where_c_rounds_to_one_is_solved_as_level_zero(p):
    # there the computed objective is t + ||(X - t)_+||_p, whose infimum is the
    # mean as t -> -inf; golden section used to stop below it (0.99999997 at
    # p = 1.5, after some 300 iterations)
    assert evar_value(D3, p, 1e-17) == D3.mean == 1.0
    assert evar(D3, p, 1e-17) == evar(D3, p, 0.0)


def test_minimizer_matches_an_independent_reference():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        n = int(rng.integers(2, 61))
        d = make_distribution(rng.normal(size=n), rng.uniform(0.05, 1.0, n))
        p = float(rng.choice([1.5, 2.0, 3.0]))
        alpha = float(rng.uniform(0.005, 0.995))
        sol = evar(d, p, alpha)
        spread = d.esssup - d.essinf
        t = 0.5 * (sol.t_lo + sol.t_hi)
        if p == 2.0:
            want = closed_form_minimizer(d.values, d.probs, alpha)
            assert abs(sol.t_lo - want) <= 1e-12 * spread
            assert abs(sol.t_hi - want) <= 1e-12 * spread
        f = evar_objective(d, p, alpha, t)
        assert f <= sol.value + 1e-12 * spread
        # a minimizer: no lower value 1e-9 of the spread to either side, up to
        # the two ulps the objective's own rounding can move
        rounding = 2.0 * math.ulp(abs(t) + abs(f) + spread)
        for step in (-1e-9 * spread, 1e-9 * spread):
            assert evar_objective(d, p, alpha, t + step) >= f - rounding


@pytest.mark.parametrize(
    "p,alpha",
    [(0.5, 0.5), (0.0, 0.5), (math.nan, 0.5), (2.0, -0.1), (2.0, 1.5), (2.0, math.nan)],
)
def test_domain_checks(p, alpha):
    with pytest.raises(PreconditionError):
        evar(U4, p, alpha)


# every real scalar kind is an order; the value is the float order's, bit for bit
@pytest.mark.parametrize("p", [np.float32(2.0), np.int64(2), 2])
def test_real_scalar_orders_are_accepted(p):
    L = Step([2.5], [0.8, 0.3], "right")
    assert evar_value(U4, p, 0.5) == evar_value(U4, 2.0, 0.5)
    assert evar(U4, p, 0.5) == evar(U4, 2.0, 0.5)
    assert conjugate_order(p) == 2.0
    fam = evar_family(U4, p)
    assert lambda_lift(U4, fam, L) == lambda_lift(U4, evar_family(U4, 2.0), L)
    assert worst_case_wasserstein(U4, p, L, 0.2) == worst_case_wasserstein(U4, 2.0, L, 0.2)


@pytest.mark.parametrize("p", [True, math.nan, 0.5, math.inf, "2"])
def test_bad_orders_are_rejected(p):
    L = Step([2.5], [0.8, 0.3], "right")
    calls = [
        lambda: evar_value(U4, p, 0.5),
        lambda: evar(U4, p, 0.5),
        lambda: conjugate_order(p),
        lambda: evar_family(U4, p),
        lambda: worst_case_wasserstein(U4, p, L, 0.2),
    ]
    for call in calls:
        with pytest.raises(PreconditionError):
            call()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("s", [1e-300, 1e-12, 1.0, 1e12, 1e200])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("probs", [None, [0.3, 0.3, 0.4]])
def test_level_zero_reports_no_minimizer_at_any_scale(probs, p, s):
    # the infimum, the mean, is approached only as t -> -inf; a t_hi read off
    # an absolute slack used to land above esssup at 1e-12 and overflow at 1e200
    d = make_distribution([0.0, 1.0, 2.0], probs).scale(s)
    sol = evar(d, p, 0.0)
    assert sol.value == d.mean
    assert (sol.t_lo, sol.t_hi) == (-math.inf, -math.inf)
    assert sol.iterations == 0


def test_tiny_level_at_order_two_keeps_its_closed_form_minimizer():
    # c > 1 however little: the p = 2 closed form resolves a finite point
    alpha = 1e-15
    sol = evar(D3, 2.0, alpha)
    want = D3.mean - math.sqrt(D3.variance * (1.0 - alpha) / alpha)
    assert sol.t_lo == sol.t_hi == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------- Renyi entropy


def test_renyi_point_mass_against_uniform():
    # concentrating on one of n equally likely points costs log n at every order
    for n in (2, 5):
        q = np.zeros(n)
        q[0] = 1.0
        p = np.full(n, 1.0 / n)
        for order in (1.0, 1.5, 2.0, math.inf):
            assert renyi_entropy(q, p, order) == pytest.approx(math.log(n), abs=1e-12)


def test_renyi_zero_iff_equal():
    p = np.array([0.3, 0.7])
    for order in (1.0, 1.5, 2.0, math.inf):
        assert renyi_entropy(p, p, order) == pytest.approx(0.0, abs=1e-12)


def test_renyi_order_one_is_kl():
    q = np.array([0.8, 0.2])
    p = np.array([0.5, 0.5])
    kl = 0.8 * math.log(0.8 / 0.5) + 0.2 * math.log(0.2 / 0.5)
    assert renyi_entropy(q, p, 1.0) == pytest.approx(kl, abs=1e-14)
    assert renyi_entropy(q, p, math.inf) == pytest.approx(math.log(1.6), abs=1e-14)


def test_renyi_monotone_in_order():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        q = rng.dirichlet(np.ones(n))
        p = rng.dirichlet(np.ones(n))
        hs = [renyi_entropy(q, p, o) for o in (1.0, 1.5, 2.0, 4.0, math.inf)]
        for lo, hi in zip(hs, hs[1:]):
            assert lo <= hi + 1e-10


def test_conjugate_order():
    assert conjugate_order(1.0) == math.inf
    assert conjugate_order(2.0) == 2.0
    assert conjugate_order(3.0) == pytest.approx(1.5)
    assert conjugate_order(conjugate_order(1.25)) == pytest.approx(1.25)


# ---------------------------------------------------------------- dual oracle


def test_dual_oracle_weak_duality_small_supports():
    rng = np.random.default_rng(3)
    for _ in range(6):
        m = int(rng.integers(2, 4))
        d = make_distribution(
            np.sort(rng.uniform(-4.0, 4.0, m)), rng.uniform(0.2, 1.0, m)
        )
        for p in (2.0, 3.0):
            for alpha in (0.3, 0.7):
                primal = evar_value(d, p, alpha)
                dual = evar_dual_oracle(d, p, alpha, 400)
                assert dual <= primal + 1e-12
                assert primal - dual <= 2e-2 * (1.0 + abs(primal))


def test_dual_oracle_level_zero_is_mean():
    assert evar_dual_oracle(U4, 2.0, 0.0, 400) == pytest.approx(2.5, abs=1e-12)


def test_dual_oracle_preconditions():
    big = make_distribution([0.0, 1.0, 2.0, 3.0, 4.0])
    with pytest.raises(PreconditionError):
        evar_dual_oracle(big, 2.0, 0.5, 400)  # support too large for the grid
    with pytest.raises(PreconditionError):
        evar_dual_oracle(U4, 1.0, 0.5, 400)  # needs p > 1
    with pytest.raises(PreconditionError):
        evar_dual_oracle(U4, 2.0, 0.5, 50)  # resolution too coarse

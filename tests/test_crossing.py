"""The crossing solver: piece search, exact plateau/knot crossings, ITP on slopes.

The reference is the plain bisection the piece search replaced, kept here as
an independent solver: bracket, bisect to a tight width, snap onto a knot when
the two-sided sandwich holds there, otherwise take the curve value on a flat
plateau or the bracket midpoint.
"""

import math
import random

import numpy as np
import pytest

from lambdarisk import (
    Constant,
    PiecewiseLinear,
    Step,
    es_family,
    evar_family,
    evar_value,
    extended_ru,
    lambda_lift,
    lambda_lift_inf,
    make_distribution,
    solve_level_crossing,
    var_family,
    worst_case_wasserstein,
)
from lambdarisk import classical, lifting
from lambdarisk.cli import main

U4 = make_distribution([1.0, 2.0, 3.0, 4.0])
STEP36 = Step([3.6], [0.75, 0.25], "right")
D3 = make_distribution([0.0, 1.0, 2.0])
PL3 = PiecewiseLinear([0.0, 3.0], [0.9, 0.1])


def bisection_crossing(phi, level_fn, lo, hi, rel_tol=1e-12, max_iter=200):
    cache = {}

    def h(x):
        level = level_fn.eval(x)
        if level not in cache:
            cache[level] = phi(level)
        return cache[level] - x

    assert h(lo) >= 0.0 > h(hi)
    tol_w = rel_tol * (1.0 + (hi - lo))
    for _ in range(max_iter):
        if hi - lo <= tol_w:
            break
        mid = 0.5 * (lo + hi)
        if h(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    width = hi - lo
    for k in level_fn.knots:
        if lo - width <= k <= hi + width:
            tol_k = 1e-9 * (1.0 + abs(k))
            below, above = phi(level_fn.right_limit(k)), phi(level_fn.left_limit(k))
            if below <= k + tol_k and above >= k - tol_k:
                return float(k)
    x_mid = 0.5 * (lo + hi)
    v = phi(level_fn.eval(x_mid))
    if abs(v - x_mid) <= 4.0 * width + 1e-15 * (1.0 + abs(x_mid)):
        return v
    return x_mid


def rand_dist(rng, nmax=12):
    n = rng.randint(1, nmax)
    vals = sorted(rng.uniform(-8.0, 8.0) for _ in range(n))
    return make_distribution(vals, [rng.uniform(0.05, 1.0) for _ in range(n)])


def rand_breaks(rng, m, d):
    x = d.essinf - 2.0 + rng.uniform(-1.0, 1.0)
    step = (d.esssup - d.essinf + 4.0) / m
    out = []
    for _ in range(m):
        out.append(x)
        x += rng.uniform(0.2, 1.8) * step
    return out


def rand_levels(rng, k):
    return sorted((rng.uniform(0.02, 0.97) for _ in range(k)), reverse=True)


def rand_level_fn(rng, kind, d, m=None):
    if kind == "constant":
        return Constant(rng.uniform(0.0, 0.97))
    m = m or rng.randint(1 if kind != "pl" else 2, 6)
    xs = rand_breaks(rng, m, d)
    if kind == "pl":
        return PiecewiseLinear(xs, rand_levels(rng, m))
    return Step(xs, rand_levels(rng, m + 1), kind.split("_")[1])


def counting(phi):
    calls = []

    def wrapped(level):
        calls.append(level)
        return phi(level)

    return wrapped, calls


# ----------------------------------------------------------- the reference


@pytest.mark.parametrize("kind", ["constant", "step_left", "step_right", "pl"])
@pytest.mark.parametrize("family", ["var", "es", "evar"])
def test_lifts_agree_with_bisection(family, kind):
    rng = random.Random(f"{family}-{kind}")
    for _ in range(12):
        d = rand_dist(rng)
        if family == "var":
            fam = var_family(d)
        elif family == "es":
            fam = es_family(d)
        else:
            fam = evar_family(d, rng.choice([1.5, 2.0, 3.0]))
        L = rand_level_fn(rng, kind, d)
        got = lambda_lift(d, fam, L).value
        if kind == "constant":
            want = fam.level_value(L.level)
        else:
            want = bisection_crossing(fam.level_value, L, d.essinf - 1.0, d.esssup + 1.0)
        spread = d.esssup - d.essinf
        assert abs(got - want) <= 1e-10 * spread + 1e-15 * (1.0 + abs(want))


# ------------------------------------------------------------ evaluations


def test_step_crossing_costs_one_probe_per_halving():
    rng = random.Random(5)
    for _ in range(200):
        d = rand_dist(rng)
        m = rng.randint(1, 40)
        L = rand_level_fn(rng, rng.choice(["step_left", "step_right"]), d, m)
        fam = rng.choice([var_family(d), es_family(d)])
        phi, calls = counting(fam.level_value)
        cross = solve_level_crossing(phi, L, d.essinf - 1.0, d.esssup + 1.0)
        assert len(calls) <= math.floor(math.log2(m + 1)) + 1
        assert cross.width == 0.0
        assert cross.iterations == len(calls)


def test_pl_crossing_costs_the_piece_search_plus_itp():
    rng = random.Random(6)
    rel_tol = lifting._CROSS_TOL
    for _ in range(60):
        d = rand_dist(rng, nmax=8)
        m = rng.randint(2, 12)
        L = rand_level_fn(rng, "pl", d, m)
        fam = rng.choice([var_family(d), es_family(d), evar_family(d, 2.0)])
        phi, calls = counting(fam.level_value)
        lo, hi = d.essinf - 1.0, d.esssup + 1.0
        cross = solve_level_crossing(phi, L, lo, hi)
        widest = max(b - a for a, b, _, _ in L.pieces() if math.isfinite(b - a))
        bisections = math.ceil(math.log2(widest / (rel_tol * (hi - lo))))
        assert len(calls) <= 2 * math.ceil(math.log2(m + 1)) + bisections + 1
        assert cross.width <= rel_tol * (hi - lo)


def test_itp_beats_bisection_on_smooth_curves():
    rng = random.Random(8)
    for _ in range(10):
        d = rand_dist(rng)
        L = PiecewiseLinear([d.essinf - 1.0, d.esssup + 1.0], [0.95, 0.05])
        phi, calls = counting(evar_family(d, 2.0).level_value)
        solve_level_crossing(phi, L, d.essinf - 1.0, d.esssup + 1.0)
        assert len(calls) <= 20  # bisection to the same width takes ~40


# ---------------------------------------------------------- exact crossings


def test_knot_crossing_is_exact():
    # the es curve jumps across the identity at x = 3.6
    res = lambda_lift(U4, es_family(U4), STEP36)
    assert (res.value, res.achieved_tol) == (3.6, 0.0)


def test_plateau_crossing_is_exact():
    # ES_{0.25}(U4) = 3 lies on the plateau right of the knot at 2.5
    L = Step([2.5], [0.75, 0.25], "left")
    res = lambda_lift(U4, es_family(U4), L)
    assert res.value == U4.expected_shortfall(0.25) == 3.0
    assert res.achieved_tol == 0.0
    d = make_distribution([-1.0, 0.5, 2.0, 7.0])
    for p in (1.5, 2.0, 3.0):
        res = lambda_lift(d, evar_family(d, p), Step([-5.0, 9.0], [0.9, 0.4, 0.1]))
        assert res.value == evar_value(d, p, 0.4)
        assert res.achieved_tol == 0.0


def test_clamp_and_flat_pieces_are_exact():
    d = make_distribution([0.0, 1.0, 2.0])
    L = PiecewiseLinear([5.0, 6.0, 7.0, 8.0], [0.8, 0.5, 0.5, 0.1])
    res = lambda_lift(d, evar_family(d, 2.0), L)  # left clamp at level 0.8
    assert (res.value, res.achieved_tol) == (evar_value(d, 2.0, 0.8), 0.0)
    flat = PiecewiseLinear([0.0, 1.0, 3.0, 4.0], [0.9, 0.6, 0.6, 0.1])
    res = lambda_lift(d, es_family(d), flat)  # ES_{0.6} = 11/6 lies in [1, 3]
    assert (res.value, res.achieved_tol) == (d.expected_shortfall(0.6), 0.0)


def test_sup_and_inf_forms_agree_exactly_at_exact_crossings():
    for L in (STEP36, Step([2.5], [0.75, 0.25], "left"), Step([2.5], [0.75, 0.25], "right")):
        for fam in (var_family(U4), es_family(U4), evar_family(U4, 2.0)):
            assert lambda_lift_inf(U4, fam, L) == lambda_lift(U4, fam, L).value


def test_crossing_at_scale_1e_minus_12():
    # ES_{0.7} = 2e-12 left of the knot, ES_{0.2} = 1.25e-12 right of it: the
    # crossing is the plateau value, not the knot 1.2e-12
    d = make_distribution([0.0, 1.0, 2.0]).scale(1e-12)
    L = Step([1.2e-12], [0.7, 0.2], "right")
    res = lambda_lift(d, es_family(d), L)
    assert res.value == pytest.approx(1.25e-12, rel=1e-12)
    assert res.achieved_tol == 0.0


def test_pl_crossing_width_is_relative_to_the_law():
    for scale in (1e-12, 1.0, 1e9):
        d = make_distribution([0.0, 1.0, 2.0]).scale(scale)
        L = PiecewiseLinear([0.0, 3.0 * scale], [0.9, 0.1])
        res = lambda_lift(d, es_family(d), L)
        unit = lambda_lift(D3, es_family(D3), PL3)
        assert res.value == pytest.approx(scale * unit.value, rel=1e-10)
        assert res.achieved_tol <= 1e-11 * scale


# ---------------------------------------------------------- fixed precision


def test_small_iteration_caps_report_the_bracket(monkeypatch):
    # es levels are exact reads, so the cap binds only on the crossing's ITP
    full = lambda_lift(D3, es_family(D3), PL3)
    monkeypatch.setattr(classical, "_MAX_ITER", 1)
    res = lambda_lift(D3, es_family(D3), PL3)
    assert res.iterations >= 1 and res.achieved_tol > 0.0
    assert abs(res.value - full.value) <= res.achieved_tol


@pytest.mark.parametrize(
    "flag", [["--rel-tol", "1e-12"], ["--max-iter", "200"], ["--interval-tol", "1e-9"]]
)
def test_removed_solver_flags_are_usage_errors(tmp_path, flag, capsys):
    csv_path = tmp_path / "s.csv"
    csv_path.write_text("value\n0\n1\n2\n")
    assert main(["evar", "--p", "2", "--alpha", "0", *flag, str(csv_path)]) == 1
    out = capsys.readouterr()
    assert out.out == "" and "unrecognized arguments" in out.err


# -------------------------------------------------------- constant lifts


def test_constant_lift_solves_the_inner_problem_once(monkeypatch):
    runs = []
    core = classical._evar_core

    def counted(*args):
        runs.append(args)
        return core(*args)

    want = evar_value(D3, 2.0, 0.6)
    monkeypatch.setattr(classical, "_evar_core", counted)
    res = lambda_lift(D3, evar_family(D3, 2.0), Constant(0.6))
    assert len(runs) == 1
    assert res.value == want


# ------------------------------------------- one crossing record per form
#
# Every lifted form reads the curve its crossing memoized, so no form solves
# the inner problem again at a level the crossing already visited.

LAW = make_distribution(np.random.default_rng(7).normal(size=60))
FORM_LEVELS = {
    "step": Step([-0.5, 0.3, 1.0], [0.9, 0.6, 0.3, 0.1], "right"),
    "constant": Constant(0.6),
    "pl_clamp": PiecewiseLinear([-3.0, -2.0], [0.95, 0.6]),  # crossing on the right clamp
    "pl_slope": PiecewiseLinear([-1.0, 3.0], [0.95, 0.05]),  # crossing solved by ITP
}


@pytest.fixture
def inner_solves(monkeypatch):
    """count(run) -> (levels passed to lifting.evar_value, levels of every value solve) by run().

    Every value solve runs classical._evar_core, whatever the entry point.
    """
    log = {"evar_value": [], "_evar_core": []}
    for module, name in ((lifting, "evar_value"), (classical, "_evar_core")):

        def counted(dist, p, alpha, *args, _solve=getattr(module, name), _calls=log[name], **kw):
            _calls.append(alpha)
            return _solve(dist, p, alpha, *args, **kw)

        monkeypatch.setattr(module, name, counted)

    def count(run):
        for calls in log.values():
            calls.clear()
        run()
        return list(log["evar_value"]), list(log["_evar_core"])

    return count


def crossing_levels(L):
    """The levels, in order, at which a lift's crossing evaluates LAW's EVaR^2 curve."""
    phi, levels = counting(evar_family(LAW, 2.0).level_value)
    solve_level_crossing(phi, L, *lifting._crossing_bracket(LAW.essinf, LAW.esssup))
    return levels


@pytest.mark.parametrize("kind", sorted(FORM_LEVELS))
def test_extended_ru_costs_what_the_lift_costs(inner_solves, kind):
    L = FORM_LEVELS[kind]
    visited = crossing_levels(L)
    assert len(set(visited)) == len(visited)
    # one value solve per level the crossing visited; the interval at the
    # crossing's level and the residual check solve for no value
    assert inner_solves(lambda: lambda_lift(LAW, evar_family(LAW, 2.0), L)) == (visited, visited)
    assert inner_solves(lambda: extended_ru(LAW, 2.0, L)) == (visited, visited)
    res = lambda_lift(LAW, evar_family(LAW, 2.0), L)
    assert (res.achieved_tol > 0.0) == (kind == "pl_slope")  # ITP, otherwise exact


def test_constant_extended_ru_is_one_inner_solve(inner_solves):
    L = Constant(0.6)
    assert inner_solves(lambda: extended_ru(LAW, 2.0, L)) == ([0.6], [0.6])
    ru = extended_ru(LAW, 2.0, L)
    lift = lambda_lift(LAW, evar_family(LAW, 2.0), L)
    assert ru == lift
    # a constant level is one piece, which the crossing solves with one probe
    assert (ru.iterations, ru.achieved_tol) == (lift.iterations, lift.achieved_tol) == (1, 0.0)


@pytest.mark.parametrize("kind", sorted(FORM_LEVELS))
def test_inf_form_reads_only_its_crossing(inner_solves, kind):
    L = FORM_LEVELS[kind]
    fam = evar_family(LAW, 2.0)
    visited = crossing_levels(L)
    assert inner_solves(lambda: lambda_lift_inf(LAW, fam, L)) == (visited, visited)
    lift = lambda_lift(LAW, fam, L)
    # exact crossings agree bit for bit, an ITP crossing within its final bracket
    assert abs(lambda_lift_inf(LAW, fam, L) - lift.value) <= lift.achieved_tol


# the inflated curve reads the nominal crossing's curve, so each level the
# two crossings visit is solved once: 2, 1 and 17 levels on these inputs
@pytest.mark.parametrize("kind,solves", [("step", 2), ("constant", 1), ("pl_slope", 17)])
def test_wasserstein_solves_each_visited_level_once(inner_solves, kind, solves):
    values, cores = inner_solves(lambda: worst_case_wasserstein(LAW, 2.0, FORM_LEVELS[kind], 0.3))
    assert len(values) == len(set(values)) == solves and cores == values

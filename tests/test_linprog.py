"""LP kernel: statuses, certificates, determinism, duality."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from capreq import linprog
from capreq.linprog import (DEFAULT_FEAS_TOL, INFEASIBLE, OPTIMAL, UNBOUNDED, LpProblem,
                            MalformedProblem, NumericalBreakdown, _dual_support, _pivot,
                            make_problem, repose, solve_lp)

# row senses that the random generators draw; ``_one_row_form`` poses them as A x >= b
GE, LE, EQ = ">=", "<=", "="
_ROW_SIGNS = {GE: (1.0,), LE: (-1.0,), EQ: (1.0, -1.0)}


def _one_row_form(c, rows, rhs, senses, nonneg):
    """The LP with rows of mixed ``senses`` posed as A x >= b.

    A "<=" row is negated and an "=" row becomes two opposite rows, in place.
    """
    pairs = [(i, f) for i, s in enumerate(senses) for f in _ROW_SIGNS[s]]
    index = [i for i, _ in pairs]
    sign = np.array([f for _, f in pairs])
    return make_problem(c, np.asarray(rows)[index] * sign[:, None], np.asarray(rhs)[index] * sign,
                        nonneg)


def test_single_active_bound():
    out = solve_lp(make_problem([1.0], [[1.0]], [3.0]))
    assert out.status == OPTIMAL
    assert out.x == pytest.approx([3.0])
    assert out.objective_value == pytest.approx(3.0)


def test_open_ray_unbounded():
    out = solve_lp(make_problem([-1.0], np.zeros((0, 1)), [], nonneg=[True]))
    assert out.status == UNBOUNDED
    assert out.ray is not None and out.ray[0] > 0


def test_contradictory_rows_infeasible():
    out = solve_lp(make_problem([0.0], [[1.0], [-1.0]], [1.0, 0.0]))
    assert out.status == INFEASIBLE


def test_feasible_true_false():
    assert solve_lp(make_problem([0.0], np.zeros((0, 1)), [], nonneg=[True])).status == OPTIMAL
    assert solve_lp(make_problem([0.0], [[1.0], [-1.0]], [1.0, 0.0])).status == INFEASIBLE


@pytest.mark.parametrize("lhs, rhs", [([[1.0]], [1e10]), ([[1e10], [1.0]], [0.0, 1.0])],
                         ids=["rhs", "entry"])
def test_rows_past_one_over_pivot_tol_are_refused(lhs, rhs):
    # a row of scale 1e10 divides its slack down to PIVOT_TOL, so the row
    # could never pivot: solving on would report "infeasible" for both, whose
    # optima are 1e10 and 1
    with pytest.raises(NumericalBreakdown, match="PIVOT_TOL"):
        solve_lp(make_problem([1.0], lhs, rhs))


@pytest.mark.parametrize("lhs, rhs, value", [([[1.0]], [9e9], 9e9),
                                             ([[1e9], [1.0]], [0.0, 1.0], 1.0)],
                         ids=["rhs", "entry"])
def test_rows_below_one_over_pivot_tol_solve(lhs, rhs, value):
    out = solve_lp(make_problem([1.0], lhs, rhs))
    assert out.status == OPTIMAL
    assert out.objective_value == pytest.approx(value, rel=1e-12)


def test_feasible_random_system_with_interior_point():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = rng.normal(size=(3, 3))
        x0 = rng.uniform(-2, 2, size=3)
        b = a @ x0 - 1.0  # x0 satisfies every row with slack 1
        assert solve_lp(make_problem(np.zeros(3), a, b)).status == OPTIMAL


def test_equality_rows():
    # x + y = 2, x - y = 0 as two opposite pairs -> x = y = 1, minimize x + 2y
    out = solve_lp(make_problem([1.0, 2.0], [[1, 1], [-1, -1], [1, -1], [-1, 1]],
                                [2.0, -2.0, 0.0, 0.0]))
    assert out.status == OPTIMAL
    assert out.x == pytest.approx([1.0, 1.0])


def test_malformed_dimensions():
    with pytest.raises(MalformedProblem):
        make_problem([1.0, 2.0], [[1.0]], [0.0])
    with pytest.raises(MalformedProblem):
        make_problem([1.0], [[1.0]], [0.0, 1.0])
    with pytest.raises(MalformedProblem):
        make_problem([1.0], [[np.nan]], [0.0])


@pytest.mark.parametrize("name", ["tol"])
def test_tolerances_must_be_positive_and_finite(name):
    # x >= 1, y >= 1, -x - y >= -1 is infeasible; a NaN or infinite
    # tolerance would pass every certificate comparison and report it optimal
    problem = make_problem([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]],
                           [1.0, 1.0, -1.0])
    assert solve_lp(problem).status == INFEASIBLE
    for value in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(MalformedProblem):
            solve_lp(problem, **{name: value})


_VALID = dict(objective=[1.0, 2.0], lhs=[[1.0, 1.0]], rhs=[1.0], nonneg=[True, False])


@pytest.mark.parametrize("field, value", [
    ("rhs", [np.inf]),
    ("objective", [1.0, -np.inf]),
    ("nonneg", [True, False, False]),
    ("nonneg", [True]),
    ("nonneg", [[True, False]]),
    ("nonneg", [0.0, -np.inf]),
], ids=["rhs-inf", "objective-inf", "nonneg-too-long",
        "nonneg-too-short", "nonneg-two-dimensional", "nonneg-not-bool"])
def test_malformed_entries_raise_malformed_problem(field, value):
    # never a KeyError, TypeError or IndexError from the validation itself
    LpProblem(**_VALID)
    with pytest.raises(MalformedProblem):
        LpProblem(**{**_VALID, field: value})


def _random_canonical(rng):
    """min c @ x, A x >= b, x >= 0 with c >= 0: feasible and bounded."""
    m, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
    a = rng.normal(size=(m, n))
    x0 = rng.uniform(0.0, 3.0, size=n)
    b = a @ x0 - rng.uniform(0.1, 1.0, size=m)
    c = rng.uniform(0.0, 2.0, size=n)
    return make_problem(c, a, b, np.ones(n, dtype=bool))


def test_round_trip_residuals():
    rng = np.random.default_rng(11)
    for _ in range(60):
        problem = _random_canonical(rng)
        out = solve_lp(problem)
        assert out.status == OPTIMAL
        resid = problem.lhs @ out.x - problem.rhs
        assert np.all(resid >= -1e-7)
        assert np.all(out.x >= -1e-7)


def test_weak_duality_against_internal_certificate():
    rng = np.random.default_rng(13)
    for _ in range(60):
        problem = _random_canonical(rng)
        out = solve_lp(problem)
        assert out.status == OPTIMAL
        y = out.dual
        # dual feasibility for min c x, Ax >= b, x >= 0: y >= 0, A^T y <= c
        assert np.all(y >= -1e-7)
        assert np.all(problem.lhs.T @ y <= problem.objective + 1e-7)
        assert float(problem.rhs @ y) <= out.objective_value + 1e-7


def _random_free_ge(rng):
    """min c x s.t. A x >= b over free x, feasible and bounded by construction.

    Shaped like a union scan's LPs: some rows are tight at the planted
    point, some repeated and one implied by two others.
    """
    n = int(rng.integers(1, 5))
    m = int(rng.integers(n + 1, 3 * n + 4))
    a = rng.normal(size=(m, n))
    x0 = rng.normal(size=n)
    b = a @ x0 - rng.uniform(0.0, 1.0, size=m) * (rng.random(m) < 0.6)
    i, j = rng.integers(0, m, size=2)
    repeat = rng.integers(0, m, size=2)
    a = np.vstack([a, a[repeat], a[i] + a[j]])
    b = np.concatenate([b, b[repeat], [b[i] + b[j] - 0.5]])
    # c in the cone of the rows keeps the LP bounded
    y0 = rng.uniform(0.0, 1.0, size=a.shape[0]) * (rng.random(a.shape[0]) < 0.5)
    y0[int(rng.integers(0, a.shape[0]))] += 1.0
    return make_problem(a.T @ y0, a, b)


def test_dual_of_free_ge_lp_certifies_the_optimum():
    rng = np.random.default_rng(29)
    for _ in range(300):
        problem = _random_free_ge(rng)
        out = solve_lp(problem)
        assert out.status == OPTIMAL
        y = out.dual
        assert y is not None
        assert np.all(y >= -1e-9)
        assert np.abs(problem.lhs.T @ y - problem.objective).max() <= 1e-9
        assert abs(float(problem.rhs @ y) - out.objective_value) <= 1e-9


def test_dual_has_no_negative_zero():
    # rows slack at the optimum have a zero multiplier, and their
    # starting multiplier is negative: the zero must still come out as +0.0
    rng = np.random.default_rng(31)
    zeros = 0
    for _ in range(100):
        out = solve_lp(_random_free_ge(rng))
        assert out.status == OPTIMAL
        at_zero = out.dual == 0.0
        zeros += int(at_zero.sum())
        assert not np.signbit(out.dual[at_zero]).any()
    assert zeros > 0


def test_determinism_bitwise():
    rng = np.random.default_rng(17)
    # over free variables three rows start violated, and rows 0 and 1 tie
    # as the most violated relative to their scale: the lower one leaves first
    tied = make_problem([1.0, 1.0, 1.0], [[1, 1, 0], [0, 1, 1], [1, 0, 1]],
                        [2.0, 2.0, 0.5])
    for problem in [_random_canonical(rng) for _ in range(10)] + [tied]:
        out1 = solve_lp(problem)
        out2 = solve_lp(problem)
        assert out1.status == out2.status
        assert out1.pivots == out2.pivots
        assert out1.x.tobytes() == out2.x.tobytes()
        assert out1.dual.tobytes() == out2.dual.tobytes()
        assert out1.objective_value == out2.objective_value


def test_bland_rule_does_not_cycle_on_beale_example():
    # Beale (1955), its "<=" rows negated: the largest-coefficient rule
    # cycles here at the degenerate start; Bland's lowest-index rule
    # reaches the optimum
    out = solve_lp(make_problem([-0.75, 150.0, -0.02, 6.0],
                                [[-0.25, 60.0, 0.04, -9.0],
                                 [-0.5, 90.0, 0.02, -3.0],
                                 [0.0, 0.0, -1.0, 0.0]],
                                [0.0, 0.0, -1.0], np.ones(4, dtype=bool)))
    assert out.status == OPTIMAL
    assert out.objective_value == pytest.approx(-0.05, abs=1e-12)
    assert out.x == pytest.approx([0.04, 0.0, 1.0, 0.0], abs=1e-12)
    assert out.pivots == 6


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_optimum_not_above_feasible_points(seed):
    rng = np.random.default_rng(seed)
    problem = _random_canonical(rng)
    out = solve_lp(problem)
    assert out.status == OPTIMAL
    # compare against random feasible points built from the construction
    x0 = np.abs(rng.uniform(0.5, 3.0, size=problem.n_cols))
    if np.all(problem.lhs @ x0 >= problem.rhs):
        assert out.objective_value <= problem.objective @ x0 + 1e-7


def test_free_variables_reach_negative_solutions():
    out = solve_lp(make_problem([1.0], [[1.0]], [-4.0]))
    assert out.status == OPTIMAL
    assert out.x == pytest.approx([-4.0])


def test_unbounded_ray_certified():
    # min -x - y over -x + y >= -1, free vars: ray along (1, 1)
    out = solve_lp(make_problem([-1.0, -1.0], [[-1.0, 1.0]], [-1.0]))
    assert out.status == UNBOUNDED
    ray = out.ray
    assert float(np.array([-1.0, -1.0]) @ ray) < 0
    assert float(np.array([-1.0, 1.0]) @ ray) >= -1e-9


def _cone_lp(rng, n_states, n_assets):
    """The positive-cone requirement LP: min s0 @ w over free w with R w >= -x.

    R is a secure asset and risky payoffs over the states, s0 = R^T psi
    with planted state prices psi > 0, so the LP is bounded; every state
    where the position x loses is a row violated at w = 0.
    """
    payoffs = np.vstack([np.ones(n_states), rng.uniform(-2.0, 5.0, size=(n_assets - 1, n_states))])
    psi = rng.uniform(0.1, 1.0, size=n_states)
    x = rng.uniform(-5.0, 5.0, size=n_states)
    return make_problem(payoffs @ (psi / psi.sum()), payoffs.T, -x)


def test_many_violated_rows_take_few_phase_one_pivots():
    # 16 states, 3 assets, every losing state a row violated at the start:
    # phase 1 takes under 5 pivots on average here, where one artificial
    # column per losing state took 14
    rng = np.random.default_rng(5)
    pivots = []
    for _ in range(40):
        problem = _cone_lp(rng, 16, 3)
        assert np.count_nonzero(problem.rhs > 0) >= 3
        out = solve_lp(problem)
        assert out.status == OPTIMAL
        pivots.append(out.pivots)
    assert np.mean(pivots) <= 8


def test_most_violated_row_leaves_first():
    # min x s.t. 4x >= 1, 2x >= 1, x >= 3: relative to their scales 4, 2 and
    # 3 the rows are short by 1/4, 1/2 and 1 at x = 0, so x >= 3 leaves first
    # and one pivot makes every row hold. Bland's lowest row first would
    # take three pivots, through x = 1/4 and x = 1/2
    for nonneg in (False, True):
        out = solve_lp(make_problem([1.0], [[4.0], [2.0], [1.0]], [1.0, 1.0, 3.0], [nonneg]))
        assert out.status == OPTIMAL and out.x.tolist() == [3.0] and out.pivots == 1


def test_slack_rows_need_no_pivot():
    # every row with rhs <= 0 holds at x = 0 on its own slack, so with a
    # zero objective the starting basis is already optimal
    rng = np.random.default_rng(19)
    for _ in range(20):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        rhs = -rng.uniform(0.0, 2.0, size=m)
        rhs[rng.uniform(size=m) < 0.3] = 0.0
        out = solve_lp(make_problem(np.zeros(n), rng.normal(size=(m, n)), rhs,
                                    np.ones(n, dtype=bool)))
        assert out.status == OPTIMAL
        assert out.pivots == 0


def _planted_lp(rng, status, violated=False):
    """Random LP whose status is known by construction.

    Mixed senses, nonnegative and free columns, bounds written as rows, a
    zero row and a redundant (scaled duplicate) row, all satisfied by a
    planted point x0. For "optimal" a box around x0 is added (as rows for
    variables without both bounds); for "unbounded" rows are bent so that a
    planted ray d keeps them satisfied while the objective falls along it;
    for "infeasible" a contradictory row pair is added. With ``violated``,
    three to five inequality rows that hold at x0 but not at the solver's
    starting point x = 0 are added too. Rows are then scaled, and
    ``_one_row_form`` poses them as A x >= b.
    """
    n, m = int(rng.integers(2, 7)), int(rng.integers(1, 7))
    x0 = rng.uniform(-3.0, 3.0, size=n)
    # 0 a nonnegative column, 1 an upper-bound row, 2 lower- and upper-bound rows, 3 free
    bound_kind = rng.integers(0, 4, size=n)
    if status == UNBOUNDED:
        bound_kind[0] = 3   # leaves the ray a free direction
    nonneg = bound_kind == 0
    x0[nonneg] = np.abs(x0[nonneg])
    lower = np.where(nonneg, 0.0, np.where(bound_kind == 2, x0 - rng.uniform(0.0, 2.0, size=n),
                                           -np.inf))
    upper = np.where(np.isin(bound_kind, (1, 2)), x0 + rng.uniform(0.0, 2.0, size=n), np.inf)
    d = rng.normal(size=n)
    d[nonneg] = np.abs(d[nonneg])
    d[bound_kind == 1] = -np.abs(d[bound_kind == 1])
    d[bound_kind == 2] = 0.0

    a = rng.normal(size=(m, n))
    a[rng.uniform(size=(m, n)) < 0.3] = 0.0
    senses = [(GE, LE, EQ)[k] for k in rng.integers(0, 3, size=m)]
    for i, s in enumerate(senses):
        if status == UNBOUNDED:
            if s == EQ:
                a[i] -= (a[i] @ d) / (d @ d) * d
            elif (a[i] @ d < 0) == (s == GE):
                a[i] = -a[i]
    gap = np.where(rng.uniform(size=m) < 0.3, 0.0, rng.uniform(0.1, 1.0, size=m))
    sign = np.array([{GE: -1.0, LE: 1.0, EQ: 0.0}[s] for s in senses])
    rows, rhs = list(a), list(a @ x0 + sign * gap)
    rows.append(np.zeros(n))
    rhs.append(0.0)
    senses.append(senses[0])
    dup = int(rng.integers(0, m))
    rows.append(2.0 * rows[dup])
    rhs.append(2.0 * rhs[dup])
    senses.append(senses[dup])
    for j in (bound_kind == 2).nonzero()[0]:
        rows.append(np.eye(n)[j])
        rhs.append(lower[j])
        senses.append(GE)
    for j in np.isin(bound_kind, (1, 2)).nonzero()[0]:
        rows.append(np.eye(n)[j])
        rhs.append(upper[j])
        senses.append(LE)

    if violated:
        for _ in range(int(rng.integers(3, 6))):
            g = rng.normal(size=n)
            if status == UNBOUNDED:
                g -= (g @ d) / (d @ d) * d   # either sense keeps the ray
            margin = g @ x0
            rows.append(g)
            rhs.append(g @ x0 - rng.uniform(0.1, 0.9) * margin)
            senses.append(GE if margin > 0 else LE)
    if status == OPTIMAL:
        for j in range(n):
            if not np.isfinite(lower[j]):
                rows.append(np.eye(n)[j])
                rhs.append(x0[j] - 1.0)
                senses.append(GE)
            if not np.isfinite(upper[j]):
                rows.append(np.eye(n)[j])
                rhs.append(x0[j] + 1.0)
                senses.append(LE)
    if status == INFEASIBLE:
        g, t = rng.normal(size=n), float(rng.uniform(-2.0, 2.0))
        rows += [g, g]
        rhs += [t + 1.0, t]
        senses += [GE, (LE, EQ)[int(rng.integers(0, 2))]]

    # rows scaled over six decades exercise the solver's row equilibration
    scale = 10.0 ** rng.uniform(-3.0, 3.0, size=len(rows))
    rows = [r * f for r, f in zip(rows, scale)]
    rhs = [b * f for b, f in zip(rhs, scale)]
    c = rng.normal(size=n)
    if status == UNBOUNDED:
        c -= (c @ d + d @ d) / (d @ d) * d   # c @ d = -|d|^2 < 0
    return _one_row_form(c, np.array(rows), np.array(rhs), senses, nonneg)


def _highs(problem):
    from scipy.optimize import linprog
    res = linprog(problem.objective, A_ub=-problem.lhs, b_ub=-problem.rhs,
                  bounds=[(0.0 if nonneg else None, None) for nonneg in problem.nonneg],
                  method="highs")
    return {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}.get(res.status, res.message), res.fun


def _violated_at_start(problem):
    """Rows that the solver's starting point x = 0 violates."""
    return int(np.count_nonzero(problem.rhs > 0))


def _check_value(out):
    """The value is the LP's in [-inf, +inf]: +inf iff infeasible, -inf iff unbounded."""
    value = out.objective_value
    assert (value == math.inf) == (out.status == INFEASIBLE)
    assert (value == -math.inf) == (out.status == UNBOUNDED)
    assert math.isfinite(value) == (out.status == OPTIMAL)


def _check_farkas(problem, out):
    """1 if ``out`` carries a Farkas ray that holds on the original data, 0 if it has none.

    The ray y is nonnegative, r = A^T y is at most 0 on nonnegative columns
    and 0 on free ones, both within 1e-9 of (|A|^T y)_j, and b @ y > 0: no
    x can have A x >= b.
    """
    y = out.farkas
    if y is None:
        return 0
    assert out.status == INFEASIBLE and y.shape == (problem.n_rows,)
    assert np.all(y >= 0.0)
    r, limit = problem.lhs.T @ y, 1e-9 * (np.abs(problem.lhs).T @ y)
    assert np.all(r[problem.nonneg] <= limit[problem.nonneg])
    assert np.all(np.abs(r[~problem.nonneg]) <= limit[~problem.nonneg])
    assert float(problem.rhs @ y) > 0.0
    return 1


@pytest.mark.parametrize("status, seed", [(OPTIMAL, 23), (INFEASIBLE, 29), (UNBOUNDED, 31)])
def test_matches_highs_on_planted_statuses(status, seed):
    # the planted status is the reference: on scaled instances HiGHS was
    # seen to call a few planted-unbounded (feasible) problems infeasible.
    # Every infeasible outcome carries a ray that holds on the original data
    pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(seed)
    rays = 0
    for _ in range(100):
        problem = _planted_lp(rng, status)
        out = solve_lp(problem)
        highs_status, highs_value = _highs(problem)
        assert out.status == status
        assert highs_status == status
        _check_value(out)
        if status == OPTIMAL:
            assert abs(out.objective_value - highs_value) <= 1e-7 * max(1.0, abs(highs_value))
        rays += _check_farkas(problem, out)
    assert rays == (100 if status == INFEASIBLE else 0)


@pytest.mark.parametrize("status, seed", [(OPTIMAL, 37), (INFEASIBLE, 41), (UNBOUNDED, 43)])
def test_matches_highs_when_rows_start_violated(status, seed):
    # at least three rows start violated, so phase 1 makes dual pivots from
    # several negative rows. The planted status is the reference; HiGHS's status
    # is not asserted on planted-unbounded problems, some of which it calls
    # infeasible here too
    pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(seed)
    rays = 0
    for _ in range(100):
        problem = _planted_lp(rng, status, violated=True)
        assert _violated_at_start(problem) >= 3
        out = solve_lp(problem)
        highs_status, highs_value = _highs(problem)
        assert out.status == status
        if status != UNBOUNDED:
            assert highs_status == status
        if status == OPTIMAL:
            assert abs(out.objective_value - highs_value) <= 1e-7 * max(1.0, abs(highs_value))
        rays += _check_farkas(problem, out)
    assert rays == (100 if status == INFEASIBLE else 0)


def _check_dual(problem, out):
    """Check an optimal dual y on the original data.

    y is nonnegative on every row. With r = c - A^T y, r is nonnegative on nonnegative columns and zero on free
    ones, and b @ y, the dual value, equals the optimum.
    """
    y = out.dual
    assert y.shape == (problem.n_rows,)
    size = max(1.0, float(np.abs(y).max(initial=0.0)) * float(np.abs(problem.lhs).max(initial=0.0)),
               float(np.abs(problem.objective).max()))
    assert np.all(y >= -1e-9 * size)
    r = problem.objective - problem.lhs.T @ y
    assert np.all(r[problem.nonneg] >= -1e-9 * size)
    assert np.all(np.abs(r[~problem.nonneg]) <= 1e-9 * size)
    dual_value = float(problem.rhs @ y)
    scale = max(1.0, abs(out.objective_value), abs(dual_value))
    assert abs(dual_value - out.objective_value) <= 1e-9 * scale


@pytest.mark.parametrize("violated", [False, True], ids=["slack-start", "rows-start-violated"])
def test_dual_certifies_planted_optimum(violated):
    # mixed senses in one row form, nonnegative and free columns, a zero row
    # and a redundant duplicate row: the redundant row carries whatever c_B B^-1 gives, and
    # the certificate must hold all the same
    rng = np.random.default_rng(47)
    for _ in range(200):
        problem = _planted_lp(rng, OPTIMAL, violated)
        out = solve_lp(problem)
        assert out.status == OPTIMAL
        _check_dual(problem, out)


def test_dual_present_without_rows():
    problem = make_problem([1.0, 0.0], np.zeros((0, 2)), [], nonneg=[True, False])
    out = solve_lp(problem)
    assert out.status == OPTIMAL
    _check_dual(problem, out)


def _outcome_bytes(problem):
    """Status, pivots and the bytes of x, value, dual, ray and Farkas ray, or the error raised."""
    try:
        out = solve_lp(problem)
    except NumericalBreakdown:   # a breakdown must repeat too
        return "breakdown"
    return (out.status, out.pivots) + tuple(
        None if v is None else np.asarray(v, dtype=float).tobytes()
        for v in (out.x, out.objective_value, out.dual, out.ray, out.farkas))


def test_with_rhs_solves_bitwise_as_a_fresh_problem():
    # the kept standard form of one matrix answers every right-hand side
    # exactly as a problem built from scratch with it does
    rng = np.random.default_rng(59)
    seen, nonneg = set(), 0
    for status in (OPTIMAL, INFEASIBLE, UNBOUNDED):
        for violated in (False, True):
            for _ in range(30):
                problem = _planted_lp(rng, status, violated)
                nonneg += np.count_nonzero(problem.nonneg)
                for rhs in (problem.rhs, problem.rhs + rng.normal(size=problem.n_rows),
                            rng.permutation(problem.rhs)):
                    fresh = LpProblem(problem.objective, problem.lhs, rhs, problem.nonneg)
                    want = _outcome_bytes(fresh)
                    assert _outcome_bytes(problem.with_rhs(rhs)) == want
                    seen.add(want if isinstance(want, str) else want[0])
    assert {OPTIMAL, INFEASIBLE, UNBOUNDED} <= seen and nonneg > 0
    empty = make_problem([1.0, 0.0], np.zeros((0, 2)), [], nonneg=[True, False])
    assert _outcome_bytes(empty.with_rhs(np.zeros(0))) == _outcome_bytes(empty)


@pytest.mark.parametrize("rhs", [[1.0, 2.0], [[1.0]], [np.nan], [np.inf]],
                         ids=["too-long", "two-dimensional", "nan", "inf"])
def test_with_rhs_validates_the_new_rhs(rhs):
    problem = LpProblem(**_VALID)
    with pytest.raises(MalformedProblem):
        problem.with_rhs(rhs)
    assert _outcome_bytes(problem.with_rhs([2.0])) == _outcome_bytes(
        LpProblem(**{**_VALID, "rhs": [2.0]}))


def _underflow_lps():
    """200 seeded LPs with rows scaled to about 1e9, each in two copies.

    Yields (zeros, tiny, has_tiny): the same LP with some entries of its
    scaled rows 0 in one copy and 1e-320 in the other, and whether it has
    any such entry.
    """
    rng = np.random.default_rng(61)
    for _ in range(200):
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        a, b = rng.normal(size=(m, n)), rng.normal(size=m)
        big = rng.uniform(size=m) < 0.5
        b[big] *= 1e9
        tiny = big[:, None] & (rng.uniform(size=(m, n)) < 0.5)
        senses = [(GE, LE, EQ)[k] for k in rng.integers(0, 3, size=m)]
        c, nonneg = rng.normal(size=n), rng.uniform(size=n) < 0.5
        yield (_one_row_form(c, np.where(tiny, 0.0, a), b, senses, nonneg),
               _one_row_form(c, np.where(tiny, 1e-320, a), b, senses, nonneg), tiny.any())


def test_entries_that_scaling_underflows_count_as_zero():
    # an entry of 1e-320 in a row scaled by about 1e9 is 0 in the scaled
    # block the solver works on, so every pivot is that of the problem with
    # that entry 0. The rows stay below the scale 1/PIVOT_TOL = 1e10 that
    # solve_lp refuses, so the solves compared are real
    solved = 0
    for zeros, tiny, has_tiny in _underflow_lps():
        want = _outcome_bytes(zeros)
        assert _outcome_bytes(tiny) == want
        solved += has_tiny and want != "breakdown"
    assert solved >= 100


def test_rays_of_huge_rows_hold_against_highs():
    # on the LPs above, every one called infeasible with a checked Farkas
    # ray is one HiGHS calls infeasible. A few called infeasible carry no
    # ray, and HiGHS solves 3 of those: two at |x| about 1e9, one unbounded
    pytest.importorskip("scipy.optimize")
    unsound = solved = 0
    for problem, _, _ in _underflow_lps():
        out = solve_lp(problem)
        if out.status == INFEASIBLE:
            highs_status = _highs(problem)[0]
            unsound += out.farkas is not None and highs_status != INFEASIBLE
            solved += highs_status in (OPTIMAL, UNBOUNDED)
    assert unsound == 0 and solved <= 3, (unsound, solved)


def test_problems_compare_by_identity():
    # a problem holds arrays, so equal data cannot give one truth value:
    # == is identity and never raises
    data = ([1.0, 2.0], [[1.0, 1.0], [1.0, -1.0]], [0.0, 1.0])
    p = make_problem(*data)
    assert p == p
    assert p != make_problem(*data)
    assert p != p.with_rhs(p.rhs)
    assert len({p, p}) == 1


def _check_support(problem, out):
    """1 if optimal ``out`` carries the rows ``_dual_support`` gives its dual, 0 if it has none."""
    want = _dual_support(problem, out.dual, DEFAULT_FEAS_TOL)
    assert (out.support is None) == (want is None)
    assert want is None or out.support.tolist() == want.tolist()
    return int(want is not None)


def test_reposed_basis_answers_like_a_cold_solve():
    # a kept optimal basis re-posed at a nearby right-hand side: where it is
    # still optimal it answers with no pivot, elsewhere the dual simplex
    # re-solves it. Every answer is a cold solve's value with a certified
    # dual, and every cold optimum carries the support of its checked dual
    rng = np.random.default_rng(67)
    kept = pivoted = supported = 0
    for violated in (False, True):
        for _ in range(100):
            problem = _planted_lp(rng, OPTIMAL, violated)
            stored = solve_lp(problem)
            assert len(stored.basis) == problem.n_rows
            supported += _check_support(problem, stored)
            for step in (1e-6, 1e-3, 1e-1):
                # the rows shifted along a random direction, some of them relaxed
                shift = step * rng.normal(size=problem.n_cols) * ~problem.nonneg
                relax = step * rng.uniform(size=problem.n_rows) * (rng.random(problem.n_rows) < 0.5)
                rhs = problem.rhs + problem.lhs @ shift - relax * np.abs(problem.lhs).max(axis=1)
                moved = problem.with_rhs(rhs)
                out = repose(moved, stored)
                if out is None:
                    continue
                kept += out.pivots == 0
                pivoted += out.pivots > 0
                cold = solve_lp(moved)
                assert out.status == cold.status == OPTIMAL
                _check_value(out)
                _check_value(cold)
                _check_support(moved, cold)
                assert abs(out.objective_value - cold.objective_value) <= 1e-9 * max(
                    1.0, abs(cold.objective_value))
                assert np.count_nonzero(moved.lhs @ out.x - rhs < -1e-7 * max(
                    1.0, float(np.abs(moved.lhs).max()) * float(np.abs(out.x).max()))) == 0
                _check_dual(moved, out)
    assert kept >= 300 and pivoted >= 100 and supported >= 150, (kept, pivoted, supported)


@pytest.mark.parametrize("status", [INFEASIBLE, UNBOUNDED])
def test_reposed_rays_answer_like_a_cold_solve(status):
    # a kept Farkas ray or unbounded basis re-posed at moved right-hand
    # sides: wherever it answers, a cold solve gives the same status and
    # never breaks down, though the planted ray holds the equation rows
    # only up to rounding. A ray answers with no pivot; an unbounded basis
    # that no longer fits is re-solved on a copy of its zero-cost tableau
    # and answers with the stored ray, and where that re-solve stops at a
    # row it answers nothing, so a cold phase 1 decides
    rng = np.random.default_rng(73)
    reposed = refused = breakdowns = pivoted = 0
    for violated in (False, True):
        for _ in range(100):
            problem = _planted_lp(rng, status, violated)
            stored = solve_lp(problem)
            assert (stored.farkas if status == INFEASIBLE else stored.basis) is not None
            for step in (1e-6, 1e-3, 1e-1, 1.0):
                # the rows shifted along a random direction, some of them tightened or relaxed
                shift = step * rng.normal(size=problem.n_cols) * ~problem.nonneg
                move = step * rng.normal(size=problem.n_rows) * (rng.random(problem.n_rows) < 0.5)
                moved = problem.with_rhs(problem.rhs + problem.lhs @ shift
                                         + move * np.abs(problem.lhs).max(axis=1))
                out = repose(moved, stored)
                if out is None:
                    refused += 1
                    continue
                reposed += 1
                assert out.status == status and (status == UNBOUNDED or out.pivots == 0)
                if status == UNBOUNDED:
                    assert out.ray is stored.ray and not np.count_nonzero(out._final[-1])
                    pivoted += out.pivots > 0
                _check_value(out)
                cold = _outcome_bytes(moved)
                breakdowns += cold == "breakdown"
                assert cold == "breakdown" or cold[0] == status
    assert reposed >= 250 and refused >= 25, (reposed, refused)
    assert breakdowns == 0 and (status == INFEASIBLE or pivoted >= 100), (breakdowns, pivoted)


def test_basis_on_optimal_and_unbounded_outcomes():
    # x >= 1 and -x >= 0: no basis, and the ray y = (1, 1) sums the rows to 0 >= 1
    infeasible = solve_lp(make_problem([0.0], [[1.0], [-1.0]], [1.0, 0.0]))
    assert infeasible.basis is None and infeasible.farkas.tolist() == [1.0, 1.0]
    # min -x0 - x1 s.t. x1 - x0 >= -1 over free x: x0 (standard column 0) enters and stays basic
    unbounded = solve_lp(make_problem([-1.0, -1.0], [[-1.0, 1.0]], [-1.0]))
    assert unbounded.status == UNBOUNDED and unbounded.basis.tolist() == [0]
    out = solve_lp(make_problem([1.0], [[1.0], [1.0]], [1.0, 0.0]))
    # x is basic in row 0 and row 1's slack (standard column 2) in row 1
    assert out.basis.tolist() == [0, 2]


def _with_violated_rows(problem, k):
    """``problem`` with only the first ``k`` of its rows that x = 0 violates kept.

    The other such rows are relaxed to b_i = 0. A planted point still holds
    every row, and a planted ray or box is kept, so the status stays.
    """
    rhs = problem.rhs.copy()
    rhs[(rhs > 0).nonzero()[0][k:]] = 0.0
    return problem.with_rhs(rhs)


def test_slack_block_is_minus_the_basis_inverse():
    # whatever the row scaling and however many rows start violated,
    # a final tableau's standard columns are B^-1 [A | -I], so its slack
    # block is -B^-1, and an optimal dual is c_B B^-1, as a linear solve gives it
    rng = np.random.default_rng(83)
    seen = {}
    for status in (OPTIMAL, UNBOUNDED):
        for _ in range(60):
            planted = _planted_lp(rng, status, violated=True)
            for k in (0, 1, 2, planted.n_rows):
                problem = _with_violated_rows(planted, k)
                out = solve_lp(problem)
                m, n = problem.lhs.shape
                violated = _violated_at_start(problem)
                key = (out.status, min(violated, 3))
                seen[key] = seen.get(key, 0) + 1
                basis = np.hstack([problem.lhs, -np.eye(m)])[:, out.basis]
                block = out._final[:m, n:n + m]
                scale = np.maximum(1.0, np.abs(block) @ np.abs(basis))
                assert np.all(np.abs(-block @ basis - np.eye(m)) <= 1e-9 * scale)
                if out.status == OPTIMAL:
                    cost = np.concatenate([problem.objective, np.zeros(m)])[out.basis]
                    want = np.linalg.solve(basis.T, cost)
                    assert np.all(np.abs(out.dual - want) <= 1e-9 * max(1.0, np.abs(want).max()))
    assert len(seen) == 8 and min(seen.values()) >= 40, seen


def test_repose_never_writes_to_the_stored_outcome():
    # a kept outcome's tableau is its only state, and a no-pivot answer shares
    # it: no re-pose, with or without pivots, or one that stops at a row and
    # returns its ray, may change the stored tableau, basis or dual
    def state(out):
        return [None if v is None else v.tobytes() for v in (out._final, out.basis, out.dual)]

    rng = np.random.default_rng(89)
    cases = {"shared": 0, "pivoted": 0, "stalled": 0}
    for status in (OPTIMAL, UNBOUNDED):
        for violated in (False, True):
            for _ in range(40):
                problem = _planted_lp(rng, status, violated)
                stored = solve_lp(problem)
                before = state(stored)
                for step in (1e-3, 1e-2, 1e-1, 1.0):
                    move = step * rng.normal(size=problem.n_rows) * np.abs(problem.lhs).max(axis=1)
                    out = repose(problem.with_rhs(problem.rhs + move), stored)
                    if out is not None and out.status == INFEASIBLE:
                        cases["stalled"] += 1
                    elif out is not None and out.pivots:
                        cases["pivoted"] += 1
                    elif out is not None:
                        assert out._final is stored._final
                        cases["shared"] += 1
                    assert state(stored) == before
    assert min(cases.values()) >= 25, cases


def test_negative_basic_value_is_refused_without_tolerance():
    # min x s.t. x >= b0, x >= b1: the basis kept at b = (1, 0) has row 1's
    # slack basic. At b1 = 1 + 1e-12 that slack would be -1e-12, inside every
    # feasibility tolerance, so taking it would report 1 where the optimum is
    # 1 + 1e-12; the basis is not taken as it is, and one dual pivot reaches
    # the cold optimum
    problem = make_problem([1.0], [[1.0], [1.0]], [1.0, 0.0])
    stored = solve_lp(problem)
    out = repose(problem.with_rhs([1.0, 1.0]), stored)
    assert out.objective_value == 1.0 and out.pivots == 0
    moved = problem.with_rhs([1.0, 1.0 + 1e-12])
    out = repose(moved, stored)
    assert out.pivots == 1 and out.objective_value == solve_lp(moved).objective_value == 1.0 + 1e-12


def test_ill_conditioned_basis_fails_the_certificate(monkeypatch):
    # zero cost: every basis is optimal where its basic values are nonnegative.
    # Re-posed through a basis with condition number 1e8-1e13, the point can
    # miss its rows by far more than the tolerance while every basic value
    # stays nonnegative; the certificate on the original rows must refuse it
    rng = np.random.default_rng(71)
    refused = 0
    for _ in range(40):
        u, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        v, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        lhs = np.round(u @ np.diag([1.0, 1.0, 10.0 ** -rng.uniform(8, 13)]) @ v.T, 14)
        problem = make_problem(np.zeros(3), lhs, lhs @ np.ones(3))
        # the basis [0, 1, 2] holds the free x itself. The slack basis solved
        # at b = 0 is pivoted there, each column on its largest entry among
        # the rows left
        slack = solve_lp(problem.with_rhs(np.zeros(3)))
        tableau, basis, rows = slack._final.copy(), slack.basis.copy(), [0, 1, 2]
        for col in (0, 1, 2):
            row = max(rows, key=lambda i: abs(tableau[i, col]))
            rows.remove(row)
            _pivot(tableau, row, col)
            basis[row] = col
        stored = replace(slack, basis=basis, _final=tableau)
        out = repose(problem, stored)
        if out is None:
            # without the certificate, the basis answers as it is, off its rows
            with monkeypatch.context() as patch:
                patch.setattr(linprog, "_certify_optimal", lambda *args: True)
                loose = repose(problem, stored)
            scale = np.maximum(1.0, np.abs(lhs) @ np.abs(loose.x))
            missed = bool(np.any(lhs @ loose.x - problem.rhs < -1e-7 * scale))
            refused += loose.pivots == 0 and missed
            continue
        scale = np.maximum(1.0, np.abs(lhs) @ np.abs(out.x))
        assert np.all(lhs @ out.x - problem.rhs >= -1e-7 * scale)
    assert refused >= 10


def _with_dual(problem, out, dual):
    """``out`` with ``dual`` and the support ``_dual_support`` gives it: a support certifies
    only the dual it was computed from."""
    dual = np.array(dual)
    return replace(out, dual=dual, support=_dual_support(problem, dual, DEFAULT_FEAS_TOL))


def test_dual_that_fails_its_check_is_never_reposed():
    # min x0 s.t. x0 >= 1, x1 >= 0 over free x: the optimal dual is (1, 0).
    # (1, 1) leaves r = A^T y - c = (0, 1) on the free x1, and (-1, 0) is
    # negative; neither is a certificate, though (1, 1) closes the duality
    # gap at this right-hand side
    problem = make_problem([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0])
    good = solve_lp(problem)
    assert good.dual.tolist() == [1.0, 0.0] and good.support.tolist() == [0]
    assert repose(problem, good) is not None
    for dual in ([1.0, 1.0], [-1.0, 0.0]):
        bad = _with_dual(problem, good, dual)
        assert bad.support is None and repose(problem, bad) is None
    # min x s.t. x >= 1, x >= 0: y = 0.5 passes the sign rule but bounds the
    # optimum 1 only by b y = 0.5, so the gap refuses it
    problem = make_problem([1.0], [[1.0]], [1.0], nonneg=[True])
    good = solve_lp(problem)
    assert repose(problem, good) is not None
    bad = _with_dual(problem, good, [0.5])
    assert bad.support.tolist() == [0] and repose(problem, bad) is None


def test_dual_after_a_pivot_must_pass_its_check():
    # rows x0 >= b0, x1 >= b1, x0 + x1 >= b2 over free x. The basis kept for
    # min x0 + 2 x1 at b = (0, 0, 1) re-solves at b = (2, 0, 1) in one dual
    # pivot, to x = (2, 0) with dual y = (1, 2, 0). Posed for min x0 + 5 x1,
    # the same pivot reaches the same point, whose value 2 closes the gap to
    # b @ y; but y leaves r = A^T y - c = (0, -3) on the free x1, so it is
    # no certificate and the answer is refused
    rows, b = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [2.0, 0.0, 1.0]
    stored = solve_lp(make_problem([1.0, 2.0], rows, [0.0, 0.0, 1.0]))
    out = repose(make_problem([1.0, 2.0], rows, b), stored)
    assert out.pivots == 1 and out.x.tolist() == [2.0, 0.0] and out.dual.tolist() == [1.0, 2.0, 0.0]
    assert repose(make_problem([1.0, 5.0], rows, b), stored) is None


def test_row_that_proves_infeasibility_returns_none():
    # min x s.t. x >= b0, -x >= b1: the basis kept at b = (0, -1) holds x in
    # row 0 and row 1's slack. At b = (2, -1) that slack is -1, and its row
    # reads s1 + s0 = -1 with no negative entry: no x has 2 <= x <= 1. The
    # dual simplex stops there, and the row gives the Farkas ray y = (1, 1),
    # the one a cold solve's phase 1 stops with. At b0 = 1 + 1e-9, y @ b = 1e-9 is inside
    # the margin tol * max(1, |b| @ y) = 2e-8 and a cold solve calls the LP
    # feasible, so the same stop returns None
    problem = make_problem([1.0], [[1.0], [-1.0]], [0.0, -1.0])
    stored = solve_lp(problem)
    moved = problem.with_rhs([2.0, -1.0])
    out = repose(moved, stored)
    assert out.status == INFEASIBLE and out.farkas.tolist() == [1.0, 1.0]
    assert solve_lp(moved).farkas.tolist() == out.farkas.tolist()
    moved = problem.with_rhs([1.0 + 1e-9, -1.0])
    assert repose(moved, stored) is None
    assert solve_lp(moved).status == OPTIMAL
    assert repose(problem.with_rhs([0.5, -1.0]), stored).objective_value == 0.5


def test_farkas_ray_is_refused_inside_its_margin():
    # x >= b0 and -x >= b1 are infeasible iff b0 + b1 > 0; the stored ray is
    # y = (1, 1), so y @ b = b0 + b1 and the margin is tol * max(1, |b0| + |b1|),
    # 2e-8 here. A cold solve calls y @ b = 1e-9 feasible (within tol) and
    # 1.5e-8 infeasible; the ray answers neither, only 3e-8
    problem = make_problem([0.0], [[1.0], [-1.0]], [1.0, 0.0])
    stored = solve_lp(problem)
    assert stored.farkas.tolist() == [1.0, 1.0]
    for gap, cold in ((1e-9, OPTIMAL), (1.5e-8, INFEASIBLE)):
        moved = problem.with_rhs([1.0, gap - 1.0])
        assert repose(moved, stored) is None
        assert solve_lp(moved).status == cold
    out = repose(problem.with_rhs([1.0, 3e-8 - 1.0]), stored)
    assert out.status == INFEASIBLE and out.pivots == 0 and out.farkas is stored.farkas


def test_unbounded_basis_with_a_negative_basic_value_is_re_solved():
    # min -x1 s.t. x0 >= b0, x0 >= b1, x1 >= 0: x1 rises without bound from
    # the basis that holds x0 and the slacks of rows 1 and 2. At b1 = 1 + 1e-12
    # row 1's slack is -1e-12, inside every feasibility tolerance, so the
    # basis is not taken as it is. Its tableau keeps a zero cost row, on
    # which every basis is dual feasible, so the dual simplex re-solves it to
    # a feasible basis, and the stored ray makes the LP unbounded there
    problem = make_problem([0.0, -1.0], [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [1.0, 0.0, 0.0])
    stored = solve_lp(problem)
    assert stored.status == UNBOUNDED and stored.basis.tolist() == [0, 3, 4]
    assert not np.count_nonzero(stored._final[-1])
    out = repose(problem.with_rhs([1.0, 1.0, 0.0]), stored)
    assert out.status == UNBOUNDED and out.pivots == 0 and out.ray is stored.ray
    moved = problem.with_rhs([1.0, 1.0 + 1e-12, 0.0])
    out = repose(moved, stored)
    assert out.status == UNBOUNDED and out.pivots >= 1 and out.ray is stored.ray
    assert not np.count_nonzero(out._final[-1]) and out._final is not stored._final
    assert solve_lp(moved).status == UNBOUNDED


def test_basic_free_value_changes_sign_with_no_pivot():
    # min x0 + 2 x1 s.t. x0 + x1 >= b0, x1 >= b1 over free x: the basis kept
    # at b = (3, 1) holds x0 and x1, both free, so it is optimal at every b.
    # x0 = b0 - b1 and x1 = b1 turn negative at the moved right-hand sides,
    # and the basis still answers there as it is
    problem = make_problem([1.0, 2.0], [[1.0, 1.0], [0.0, 1.0]], [3.0, 1.0])
    stored = solve_lp(problem)
    assert stored.x.tolist() == [2.0, 1.0] and sorted(stored.basis.tolist()) == [0, 1]
    for b, x in (([-3.0, 1.0], [-4.0, 1.0]), ([3.0, -2.0], [5.0, -2.0]),
                 ([-3.0, -2.0], [-1.0, -2.0])):
        moved = problem.with_rhs(b)
        out = repose(moved, stored)
        assert out.status == OPTIMAL and out.pivots == 0 and out.x.tolist() == x
        assert out.objective_value == solve_lp(moved).objective_value


def test_dual_re_solve_keeps_a_negative_free_value_basic():
    # min x0 + 2 x1 s.t. x0 + x1 >= b0, x1 >= b1, x0 >= b2 over free x. The
    # basis kept at b = (3, 1, -10) holds x0, x1 and row 2's slack. At
    # b = (-3, 1, -2) the slack is -2 and x0 = -4: only the slack's row
    # leaves, and one dual pivot brings in row 0's slack, at x = (-2, 1)
    problem = make_problem([1.0, 2.0], [[1.0, 1.0], [0.0, 1.0], [1.0, 0.0]], [3.0, 1.0, -10.0])
    stored = solve_lp(problem)
    assert sorted(stored.basis.tolist()) == [0, 1, 4]
    moved = problem.with_rhs([-3.0, 1.0, -2.0])
    out = repose(moved, stored)
    assert out.status == OPTIMAL and out.pivots == 1 and out.x.tolist() == [-2.0, 1.0]
    assert sorted(out.basis.tolist()) == [0, 1, 2]
    assert out.objective_value == solve_lp(moved).objective_value == 0.0


def test_basic_free_column_never_leaves_a_primal_solve(monkeypatch):
    # every pivot that _run_simplex or _run_dual_simplex makes, on planted
    # LPs with free columns: the column leaving is never free, and free
    # columns do enter, in both directions, and end basic at negative
    # values. A primal pivot lowers a column whose reduced cost is
    # positive, a dual one a column whose entry in the leaving row (whose
    # negative value rises to 0) is positive
    pivots, loop = [], {}
    real_pivot = linprog._pivot

    def watch(real, falls):
        def run(tableau, basis, free, *first):
            loop.update(basis=basis, free=free, falls=falls)
            try:
                return real(tableau, basis, free, *first)
            finally:
                loop.clear()
        return run

    def pivot(tableau, row, col):
        if loop:
            free = loop["free"]
            pivots.append((free[loop["basis"][row]], free[col], loop["falls"](tableau, row, col)))
        real_pivot(tableau, row, col)

    monkeypatch.setattr(linprog, "_run_simplex", watch(
        linprog._run_simplex, lambda tableau, row, col: tableau[-1, col] > 0.0))
    monkeypatch.setattr(linprog, "_run_dual_simplex", watch(
        linprog._run_dual_simplex, lambda tableau, row, col: tableau[row, col] > 0.0))
    monkeypatch.setattr(linprog, "_pivot", pivot)
    rng = np.random.default_rng(79)
    negative = 0
    for status in (OPTIMAL, UNBOUNDED):
        for violated in (False, True):
            for _ in range(50):
                out = solve_lp(_planted_lp(rng, status, violated))
                if out.status == OPTIMAL:
                    negative += np.count_nonzero(out.x < 0.0)
    left_free = sum(left for left, _, _ in pivots)
    rising = sum(entered and not down for _, entered, down in pivots)
    falling = sum(entered and down for _, entered, down in pivots)
    assert left_free == 0 and rising >= 150 and falling >= 150 and negative >= 75, (
        left_free, rising, falling, negative)


def test_free_column_entering_decreasing_gives_a_ray_of_its_sign():
    # min x0 s.t. x1 - x0 >= 0 over free x starts on the row's slack with no
    # pivot. x0's reduced cost 1 is positive, so x0 enters decreasing, which
    # only loosens the row: the LP is unbounded along the certified ray
    # (-1, 0), found with no pivot. With x0 >= 0 instead, x0 = 0 is optimal
    problem = make_problem([1.0, 0.0], [[-1.0, 1.0]], [0.0])
    out = solve_lp(problem)
    assert out.status == UNBOUNDED and out.pivots == 0 and out.ray.tolist() == [-1.0, 0.0]
    bounded = solve_lp(make_problem([1.0, 0.0], [[-1.0, 1.0]], [0.0], [True, False]))
    assert bounded.status == OPTIMAL and bounded.objective_value == 0.0


def test_phase_one_certificate_refuses_a_free_column_left_out(monkeypatch):
    # -x >= 1 over free x is feasible: phase 1 has x enter at row 0, whose
    # value -1 rises to 0 as x falls. A loop that never lets a free column
    # enter stops at that row, 1 short; the certificate then meets x's
    # entry and raises instead of calling the LP infeasible
    problem = make_problem([0.0], [[-1.0]], [1.0])
    assert solve_lp(problem).x.tolist() == [-1.0]
    real_run = linprog._run_dual_simplex
    monkeypatch.setattr(linprog, "_run_dual_simplex", lambda tableau, basis, free, first=None:
                        real_run(tableau, basis, np.zeros_like(free), first))
    with pytest.raises(NumericalBreakdown, match="phase-1"):
        solve_lp(problem)


def _primed(problem):
    """``problem``'s data as a matrix of its own, primed with its homogeneous LP's start."""
    twin = LpProblem(problem.objective, problem.lhs, problem.rhs, problem.nonneg)
    linprog._prime(twin)
    return twin


@pytest.mark.parametrize("status", [OPTIMAL, INFEASIBLE, UNBOUNDED])
def test_primed_solves_answer_like_two_phase_solves(status, monkeypatch):
    # the planted LPs at their own and at moved right-hand sides, solved from
    # the homogeneous start and by both phases from the slack basis: the same
    # statuses and values, a checked Farkas ray on every infeasible answer
    # from the start and a certified ray on every unbounded one
    cold_calls, two_phase = [], linprog._two_phase

    def counted(problem, *args):
        cold_calls.append(problem)
        return two_phase(problem, *args)

    monkeypatch.setattr(linprog, "_two_phase", counted)
    rng = np.random.default_rng(61)
    started, answered = 0, {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    for violated in (False, True):
        for _ in range(60):
            problem = _planted_lp(rng, status, violated)
            primed = _primed(problem)
            started += primed._std.start is not None
            for rhs in (problem.rhs, problem.rhs + rng.normal(size=problem.n_rows)):
                cold, moved = solve_lp(problem.with_rhs(rhs)), primed.with_rhs(rhs)
                cold_calls.clear()
                out = solve_lp(moved)
                from_start = primed._std.start is not None and not cold_calls
                answered[out.status] += from_start
                assert out.status == cold.status
                _check_value(out)
                if out.status == OPTIMAL:
                    assert abs(out.objective_value - cold.objective_value) <= 1e-12 * max(
                        1.0, abs(cold.objective_value))
                elif out.status == INFEASIBLE:
                    assert _check_farkas(moved, out) == (1 if from_start else
                                                         _check_farkas(moved, cold))
                else:
                    assert linprog._certify_ray(moved, out.ray, 1e-9)
    # a planted-unbounded LP's start is an unbounded basis, which answers only
    # where its basic values stay nonnegative
    assert started >= 90 and answered[status] >= 20, (started, answered)


def test_primed_problem_keeps_the_refusal_and_tol_validation():
    # min x s.t. x >= 1, x >= 0 over a free x; at right-hand side 0 x enters the basis
    problem = _primed(make_problem([1.0], [[1.0], [1.0]], [1.0, 0.0]))
    assert problem._std.start.status == OPTIMAL and problem._std.start.pivots == 1
    out = solve_lp(problem)
    assert out.x.tolist() == [1.0] and out.pivots == 0 and out.support.tolist() == [0]
    # the start fits at b = (1e10, 0) too, but the row is past 1/PIVOT_TOL
    with pytest.raises(NumericalBreakdown):
        solve_lp(problem.with_rhs([1.0 / linprog.PIVOT_TOL, 0.0]))
    for value in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(MalformedProblem):
            solve_lp(problem, tol=value)


def test_start_answers_only_with_a_checked_dual():
    # the start's dual (1, 0) closes the gap at b = (1, 0); (0, 1) passes the
    # sign rule but leaves a gap of 1, and (-1, 2) fails the sign rule. Either
    # sends the LP to both phases, whose outcome carries its own dual's support
    problem = _primed(make_problem([1.0], [[1.0], [1.0]], [1.0, 0.0]))
    start = problem._std.start
    assert start.dual.tolist() == [1.0, 0.0]
    for dual in ([0.0, 1.0], [-1.0, 2.0]):
        problem._std.start = _with_dual(problem, start, dual)
        out = solve_lp(problem)
        assert out.dual.tolist() == [1.0, 0.0] and out.support.tolist() == [0]
    # min x0 s.t. x0 >= 1, x1 >= 0 over free x: (1, 5e-10) closes the gap and
    # passes the check at the default tol, where 5e-10 is no part of the
    # support. At tol 1e-12 it is, and it leaves r = 5e-10 on the free x1, so
    # the start is checked again there and refused
    problem = _primed(make_problem([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0]))
    start = problem._std.start
    problem._std.start = _with_dual(problem, start, [1.0, 5e-10])
    assert solve_lp(problem).dual.tolist() == [1.0, 5e-10]
    out = solve_lp(problem, tol=1e-12)
    assert out.dual.tolist() == [1.0, 0.0] and out.support.tolist() == [0]


def test_no_start_is_kept_from_a_homogeneous_solve_without_pivots():
    # at right-hand side 0 the slack basis is optimal for a cost >= 0 on
    # nonnegative columns and for a zero cost, and a free column with cost -1
    # and no row to stop it is unbounded there, all with no pivot
    for problem in (make_problem([1.0], [[1.0], [1.0]], [1.0, 0.0], [True]),
                    make_problem([0.0, 0.0], [[1.0, -1.0]], [1.0]),
                    make_problem([-1.0], [[1.0]], [0.0])):
        linprog._prime(problem)
        assert problem._std.start is None
    # min -x0 s.t. x1 - x0 >= b over x0 >= 0 and a free x1: at b = 0 x0 enters, then x1
    # rises without bound along the ray (1, 1)
    unbounded = make_problem([-1.0, 0.0], [[-1.0, 1.0]], [0.0], [True, False])
    linprog._prime(unbounded)
    start = unbounded._std.start
    assert start.status == UNBOUNDED and start.pivots == 1
    # x0 is basic at -b, so the start fits at b = -5
    out = solve_lp(unbounded.with_rhs([-5.0]))
    assert out.status == UNBOUNDED and out.pivots == 0 and out.ray is start.ray


def test_unbounded_start_leaves_only_phase_one_to_a_cold_solve(monkeypatch):
    # min -x0 s.t. x1 - x0 >= b0, x0 - x1 >= b1 over x0 >= 0 and a free x1:
    # the start's ray (1, 1) holds at every right-hand side, so the LP is
    # unbounded wherever it is feasible (b0 + b1 <= 0). Where the start
    # answers nothing, phase 1 alone decides: the ray where it finds a
    # feasible basis, a Farkas ray where it stops at a row
    problem = _primed(make_problem([-1.0, 0.0], [[-1.0, 1.0], [1.0, -1.0]], [0.0, 0.0],
                                   [True, False]))
    start = problem._std.start
    assert start.status == UNBOUNDED and start.ray.tolist() == [1.0, 1.0]
    phase_two, run_simplex = [], linprog._run_simplex

    def counted(*args):
        phase_two.append(args)
        return run_simplex(*args)

    monkeypatch.setattr(linprog, "_run_simplex", counted)
    monkeypatch.setattr(linprog, "repose", lambda *args: None)
    out = solve_lp(problem.with_rhs([5.0, -7.0]))
    assert out.status == UNBOUNDED and out.ray is start.ray and out.pivots >= 1
    assert not np.count_nonzero(out._final[-1])
    out = solve_lp(problem.with_rhs([5.0, -4.0]))
    assert out.status == INFEASIBLE and _check_farkas(problem.with_rhs([5.0, -4.0]), out) == 1
    assert not phase_two
    # a start's ray off its row by 1e-9 is certified at the default tol but
    # not at 1e-12: there phase 2 runs and finds a ray of its own
    problem._std.start = replace(start, ray=np.array([1.0, 1.0 - 1e-9]))
    moved = problem.with_rhs([5.0, -7.0])
    assert solve_lp(moved).ray is problem._std.start.ray
    out = solve_lp(moved, tol=1e-12)
    assert out.status == UNBOUNDED and phase_two
    assert linprog._certify_ray(moved, out.ray, 1e-12)

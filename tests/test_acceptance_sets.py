"""Acceptance-set constructions against independent oracles.

The quantile computations are checked against brute force: a dense grid
search over cash amounts for value at risk, and midpoint quadrature of the
quantile curve for its tail average. Expected values quoted in the tests
were produced by those oracles.
"""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import capreq.acceptance as ac
from capreq.acceptance import (PROB_EPS, AcceptanceParseError, BadNormal,
                               DimensionMismatch, avar_acceptance,
                               compute_avar, compute_var, feasible_loss_sets,
                               halfspace_acceptance, intersect, load_acceptance,
                               loss_probability, positive_cone, var_acceptance)
from capreq.market import Market, ScenarioSpace, uniform_space, validate_market
from capreq.linprog import OPTIMAL, make_problem, solve_lp
from conftest import loadable_sets


def var_grid_oracle(space, x, alpha, lo=-25.0, hi=25.0, steps=200_001):
    """Smallest cash amount on a dense grid keeping loss probability under alpha.

    Evaluates the loss probability at every grid point at once; the first
    grid point that passes is the answer.
    """
    x = np.asarray(x, dtype=float)
    grid = np.linspace(lo, hi, steps)
    losing = (x[None, :] + grid[:, None]) < 0
    passes = np.where(losing, space.probs, 0.0).sum(axis=1) <= alpha + 1e-12
    if not passes.any():
        raise AssertionError("oracle grid exhausted")
    return grid[int(np.argmax(passes))]


def var_curve(space, x, svals):
    """Vectorized quantile curve; must agree with compute_var pointwise."""
    x = np.asarray(x, dtype=float)
    order = np.argsort(x, kind="stable")
    xs, ps = x[order], space.probs[order]
    values, starts = [], []
    below = 0.0
    i = 0
    while i < len(xs):
        j = i
        while j < len(xs) and xs[j] == xs[i]:
            j += 1
        values.append(xs[i])
        starts.append(below)
        below += float(ps[i:j].sum())
        i = j
    starts = np.asarray(starts)
    idx = np.searchsorted(starts, np.asarray(svals) + 1e-12, side="right") - 1
    return -np.asarray(values)[idx]


def avar_quadrature_oracle(space, x, alpha, points=10_000):
    """Midpoint quadrature of the quantile curve over (0, alpha]."""
    s = (np.arange(points) + 0.5) * (alpha / points)
    return float(var_curve(space, x, s).mean())


class TestComputeVar:
    def test_two_state_example(self):
        sp = uniform_space(2)
        assert compute_var(sp, [-1.0, 2.0], 0.1) == pytest.approx(1.0)
        assert var_grid_oracle(sp, [-1.0, 2.0], 0.1) == pytest.approx(1.0, abs=1e-3)

    def test_nonnegative_needs_no_cash(self):
        sp = uniform_space(3)
        assert compute_var(sp, [0.0, 1.0, 2.0], 0.25) <= 0.0

    def test_four_state_boundary_alpha(self):
        # at alpha exactly 0.5 two of four states may stay negative, so the
        # grid oracle lands at -1 (the quoted spec walkthrough stops at the
        # weaker feasible level 1)
        sp = uniform_space(4)
        x = [-2.0, -1.0, 1.0, 3.0]
        assert var_grid_oracle(sp, x, 0.5) == pytest.approx(-1.0, abs=1e-3)
        assert compute_var(sp, x, 0.5) == pytest.approx(-1.0)
        assert compute_var(sp, x, 0.3) == pytest.approx(1.0)
        assert compute_var(sp, x, 0.2) == pytest.approx(2.0)

    def test_matches_grid_oracle_randomly(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            probs = rng.uniform(0.2, 1.0, size=n)
            probs /= probs.sum()
            sp = ScenarioSpace(tuple(f"s{i}" for i in range(n)), probs)
            x = np.round(rng.uniform(-5, 5, size=n), 3)
            alpha = float(rng.uniform(0.05, 0.95))
            exact = compute_var(sp, x, alpha)
            approx = var_grid_oracle(sp, x, alpha)
            assert exact == pytest.approx(approx, abs=5e-4)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.floats(min_value=-8.0, max_value=8.0))
    def test_cash_invariance(self, seed, cash):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        sp = uniform_space(n)
        x = rng.uniform(-5, 5, size=n)
        alpha = float(rng.uniform(0.05, 0.95))
        base = compute_var(sp, x, alpha)
        assert compute_var(sp, x + cash, alpha) == pytest.approx(base - cash, abs=1e-12)


class TestComputeAvar:
    def test_four_state_staircase(self):
        sp = uniform_space(4)
        x = [-2.0, -1.0, 1.0, 3.0]
        assert compute_avar(sp, x, 0.5) == pytest.approx(1.5)
        assert avar_quadrature_oracle(sp, x, 0.5) == pytest.approx(1.5, abs=1e-4)

    def test_constant_position(self):
        sp = uniform_space(3)
        for c in (-3.0, 0.0, 2.5):
            assert compute_avar(sp, np.full(3, c), 0.4) == pytest.approx(-c)

    def test_dominates_var(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            n = int(rng.integers(2, 8))
            sp = uniform_space(n)
            x = rng.uniform(-5, 5, size=n)
            alpha = float(rng.uniform(0.05, 0.95))
            assert compute_avar(sp, x, alpha) >= compute_var(sp, x, alpha) - 1e-12

    def test_cash_invariance_tight(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            probs = rng.uniform(0.2, 1.0, size=n)
            probs /= probs.sum()
            sp = ScenarioSpace(tuple(f"s{i}" for i in range(n)), probs)
            x = rng.uniform(-5, 5, size=n)
            alpha = float(rng.uniform(0.1, 0.9))
            m = float(rng.uniform(-5, 5))
            assert compute_avar(sp, x + m, alpha) == pytest.approx(
                compute_avar(sp, x, alpha) - m, abs=1e-12)

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(31)
        sp = uniform_space(5)
        for _ in range(200):
            x = rng.uniform(-5, 5, size=5)
            alpha = float(rng.uniform(0.1, 0.9))
            base = compute_avar(sp, x, alpha)
            for lam in (0.5, 2.0):
                assert compute_avar(sp, lam * x, alpha) == pytest.approx(
                    lam * base, abs=1e-10)

    def test_subadditive(self):
        rng = np.random.default_rng(37)
        sp = uniform_space(6)
        for _ in range(500):
            x = rng.uniform(-5, 5, size=6)
            y = rng.uniform(-5, 5, size=6)
            alpha = float(rng.uniform(0.1, 0.9))
            assert compute_avar(sp, x + y, alpha) <= (
                compute_avar(sp, x, alpha) + compute_avar(sp, y, alpha) + 1e-9)


class TestPositiveCone:
    def test_examples(self):
        a = positive_cone(2)
        assert a([0.0, 0.0])
        assert not a([1.0, -0.1])
        assert a([2.0, 3.0])

    def test_polyhedral_oracle_agreement(self):
        a = positive_cone(4)
        rng = np.random.default_rng(41)
        pts = rng.uniform(-5, 5, size=(10_000, 4))
        rows, rhs = a.only_system.rows, a.only_system.rhs
        for p in pts:
            assert a(p) == bool(np.all(rows @ p >= rhs - a.member_tol))


class TestHalfspace:
    def test_examples(self):
        a = halfspace_acceptance([1.0, 0.0])
        assert a([0.0, -7.0])
        assert not a([-1.0, 100.0])
        assert halfspace_acceptance([1.0, 1.0])([-1.0, 2.0])

    def test_bad_normal(self):
        with pytest.raises(BadNormal):
            halfspace_acceptance([1.0, -0.5])
        with pytest.raises(BadNormal):
            halfspace_acceptance([0.0, 0.0])
        with pytest.raises(BadNormal):
            halfspace_acceptance([np.inf, 0.0])
        with pytest.raises(BadNormal):
            halfspace_acceptance([1.0, np.nan])

    @pytest.mark.parametrize("normal", [[1e308, 0.0], [1e-320, 0.0], [3.0, 4.0]])
    def test_witness_outside_for_extreme_normals(self, normal):
        a = halfspace_acceptance(normal)
        assert np.all(np.isfinite(a.non_member))
        assert not a(a.non_member)
        assert a(np.zeros(2)) and a(-0.5 * a.non_member)

    def test_polyhedral_oracle_agreement(self):
        a = halfspace_acceptance([0.4, 0.0, 1.2])
        rng = np.random.default_rng(43)
        pts = rng.uniform(-5, 5, size=(10_000, 3))
        rows, rhs = a.only_system.rows, a.only_system.rhs
        for p in pts:
            assert a(p) == bool(np.all(rows @ p >= rhs - a.member_tol))


class TestVarAcceptance:
    def test_examples(self):
        sp = uniform_space(2)
        assert var_acceptance(sp, 0.6)([-5.0, 1.0])      # loss mass 0.5 <= 0.6
        assert not var_acceptance(sp, 0.4)([-5.0, 1.0])  # 0.5 > 0.4
        assert var_acceptance(sp, 0.4)([0.0, 0.0])

    def test_member_iff_var_nonpositive(self):
        rng = np.random.default_rng(47)
        sp = uniform_space(4)
        a = var_acceptance(sp, 0.35)
        for _ in range(300):
            x = rng.uniform(-4, 4, size=4)
            assert a(x) == (compute_var(sp, x, 0.35) <= a.member_tol)

    def test_cone_flag_and_scaling(self):
        sp = uniform_space(3)
        a = var_acceptance(sp, 0.4)
        rng = np.random.default_rng(53)
        for _ in range(200):
            x = rng.uniform(-4, 4, size=3)
            if a(x):
                assert a(0.5 * x) and a(2.0 * x)

    def test_convexity_flag_tracks_structure(self):
        # one system (a convex polyhedron) exactly when one loss set dominates
        sp = uniform_space(3)
        assert len(var_acceptance(sp, 0.1).systems) == 1    # collapses to no losses
        assert len(var_acceptance(sp, 0.4).systems) == 3

    def test_nonconvexity_witnessed(self):
        # one loss state in three is allowed at 0.4, two are not
        a = var_acceptance(uniform_space(3), 0.4)
        x, y = np.array([-2.0, 1.0, 1.0]), np.array([1.0, -2.0, 1.0])
        assert a(x) and a(y) and not a(0.5 * (x + y))


def loss_sets_brute_force(space, alpha):
    """Every state subset, filtered by mass and maximality, sorted."""
    n, p = space.n, space.probs
    subsets = []
    for r in range(n + 1):
        for combo in itertools.combinations(range(n), r):
            mass = float(p[list(combo)].sum())
            if mass > alpha + PROB_EPS:
                continue
            if any(mass + p[w] <= alpha + PROB_EPS for w in range(n) if w not in combo):
                continue
            subsets.append(combo)
    return sorted(subsets)


class TestFeasibleLossSets:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(59)
        for trial in range(200):
            n = int(rng.integers(2, 11))
            if trial % 2:
                sp, alpha = uniform_space(n), float(rng.integers(1, n)) / n
            else:
                probs = rng.uniform(0.05, 1.0, size=n)
                sp = ScenarioSpace(tuple(f"s{i}" for i in range(n)), probs / probs.sum())
                alpha = float(rng.uniform(0.01, 0.7))
            assert feasible_loss_sets(sp, alpha) == loss_sets_brute_force(sp, alpha)

    def test_var_acceptance_does_not_enumerate_above_cap(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("enumerated loss sets above 16 states")

        monkeypatch.setattr(ac, "feasible_loss_sets", refuse)
        a = var_acceptance(uniform_space(17), 0.5)
        assert isinstance(a.systems, str) and a.incidence is None


class TestAvarAcceptance:
    def test_examples(self):
        sp = uniform_space(4)
        a = avar_acceptance(sp, 0.5)
        x = np.array([-2.0, -1.0, 1.0, 3.0])
        assert a(np.zeros(4))
        assert not a(x)
        assert a(x + 1.5)  # cash additivity moves the value to zero

    def test_epigraph_block_matches_oracle(self):
        # membership iff the auxiliary block is feasible for fixed position
        sp = uniform_space(3)
        a = avar_acceptance(sp, 0.4)
        rep = a.only_system
        rng = np.random.default_rng(59)
        for _ in range(400):
            x = rng.uniform(-3, 3, size=3)
            lhs = rep.aux
            rhs = rep.rhs - rep.rows @ x
            problem = make_problem(np.zeros(rep.n_aux), lhs, rhs, rep.aux_nonneg)
            block_feasible = solve_lp(problem).status == OPTIMAL
            value = compute_avar(sp, x, 0.4)
            if abs(value) > 1e-7:
                assert block_feasible == a(x)


class TestIntersect:
    def test_membership_conjunction(self):
        sp = uniform_space(2)
        both = intersect([positive_cone(2), avar_acceptance(sp, 0.5)])
        assert both([1.0, 1.0])
        assert not both([-0.1, 5.0])

    def test_single_part_identity(self):
        a = positive_cone(3)
        same = intersect([a])
        rng = np.random.default_rng(61)
        for _ in range(100):
            x = rng.uniform(-4, 4, size=3)
            assert same(x) == a(x)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            intersect([positive_cone(2), positive_cone(3)])

    def test_polyhedral_stacking(self):
        sp = uniform_space(2)
        both = intersect([positive_cone(2), avar_acceptance(sp, 0.5)])
        assert both.only_system is not None
        assert both.only_system.rows.shape[0] == 2 + 3
        assert both.only_system.n_aux == 3
        assert both.only_system.aux_nonneg.tolist() == [False, True, True]

    def test_aux_sign_keeps_systems_apart(self):
        # blocks that differ only in an auxiliary's sign are different systems
        signed = avar_acceptance(uniform_space(2), 0.5).only_system
        free = ac.PolyhedralRep(signed.rows, signed.aux, signed.rhs)
        cone = positive_cone(2).only_system
        systems, incidence = ac._product([(signed, free), (cone,)])
        assert [rep.aux_nonneg.tolist() for rep in systems] == [[False, True, True], [False] * 3]
        # every AVaR row touches a u column, so none shares an id; the cone rows do
        k = signed.rows.shape[0]
        assert set(incidence.ids[0][:k].tolist()).isdisjoint(incidence.ids[1][:k].tolist())
        assert incidence.ids[0][k:].tolist() == incidence.ids[1][k:].tolist()
        # on a column no row touches, only the flags themselves keep the systems apart
        untouched = [ac.PolyhedralRep(np.eye(2), np.zeros((2, 1)), np.zeros(2), [sign])
                     for sign in (False, True)]
        assert len(ac._product([tuple(untouched)])[0]) == 2


class TestAxiomsOfEveryConstruction:
    def test_zero_member_proper_and_monotone(self):
        # every loadable set holds 0, rejects its own witness, and keeps a
        # member under any nonnegative bump
        rng = np.random.default_rng(71)
        for n in (2, 3, 5):
            for a in loadable_sets(rng, uniform_space(n)):
                assert a(np.zeros(n)) and not a(a.non_member), a.kind
                for _ in range(100):
                    x = rng.uniform(-5.0, 5.0, size=n)
                    if a(x):
                        assert a(x + rng.uniform(0.0, 3.0, size=n)), (a.kind, x)


class TestAcceptanceJson:
    def test_round_trip_each_kind(self):
        sp = uniform_space(2)
        for doc in (
            {"type": "positive_cone"},
            {"type": "var", "alpha": 0.4},
            {"type": "avar", "alpha": 0.6},
            {"type": "halfspace", "normal": [1, 0]},
            {"type": "intersection", "parts": [
                {"type": "positive_cone"}, {"type": "avar", "alpha": 0.5}]},
        ):
            a = load_acceptance(json.dumps(doc), sp)
            assert a(np.array([2.0, 2.0]))

    def test_rejects_malformed(self):
        sp = uniform_space(2)
        for doc in ('{"type": "unknown"}', '{"alpha": 1}',
                    '{"type": "var", "alpha": 1.5}',
                    '{"type": "halfspace", "normal": [1, -1]}',
                    '{"type": "intersection", "parts": []}', "{bad json",
                    '{"type": "halfspace", "normal": [1e400, 0]}',
                    '{"type": "halfspace", "normal": ["a", 1]}',
                    '{"type": "halfspace", "normal": [null, 1]}'):
            with pytest.raises(AcceptanceParseError):
                load_acceptance(doc, sp)


def test_loss_probability_treats_zero_as_non_loss():
    sp = uniform_space(4)
    assert loss_probability(sp, [0.0, 0.0, -1.0, 2.0]) == pytest.approx(0.25)


def test_blocks_compare_by_identity():
    # blocks, sets, spaces and markets hold arrays, so equal data cannot
    # give one truth value: == is identity and never raises
    def market():
        return Market(uniform_space(2), [1.0, 1.0], [[1.0, 1.0], [2.0, 0.5]])

    for make in (lambda: ac.PolyhedralRep(np.eye(2), np.ones((2, 2)), [0.0, 1.0]),
                 lambda: ac.RowIncidence((np.array([0, 1]), np.array([1, 2]))),
                 lambda: positive_cone(2), lambda: uniform_space(2), market,
                 lambda: validate_market(market())):
        block = make()
        assert block == block
        assert block != make()
        assert len({block, block}) == 1

"""Requirement solvers: strategy examples, agreement, axioms, degeneracy."""

import itertools

import numpy as np
import pytest

import capreq.riskmeasure as rm
from capreq.acceptance import (PROB_EPS, DimensionMismatch, avar_acceptance, compute_avar,
                               feasible_loss_sets, halfspace_acceptance, oracle_acceptance,
                               positive_cone, var_acceptance)
from capreq.linprog import GE, OPTIMAL, UNBOUNDED, make_problem, solve_lp
from capreq.market import Market, ScenarioSpace, uniform_space, validate_market
from capreq.riskmeasure import (DEFAULT_OPTIONS, DegenerateAcceptance,
                                EnumerationTooLarge, MembershipOracle, NEG_INF,
                                NotPolyhedral, POS_INF, SolveOptions,
                                domain_classify, extreal_str,
                                induced_rho_acceptance, is_finite,
                                member_a_plus_kernel, rho_direct_lp,
                                rho_reduction, rho_var_exact, solve_rho)
from conftest import corner_acceptance_r3, random_market

BAND = 10 * DEFAULT_OPTIONS.bisect_tol


class TestMembership:
    def test_halfplane_whole_space(self, half_price_market):
        # the halfplane fattened by the pricing kernel covers everything
        a = halfspace_acceptance([1.0, 0.0])
        assert member_a_plus_kernel(a, half_price_market, [-9.0, 0.0])

    def test_already_acceptable(self, two_state_market):
        assert member_a_plus_kernel(positive_cone(2), two_state_market, [1.0, 1.0])

    def test_interval_arithmetic_case(self, half_price_market):
        # k = t (1, -1): need -1 - t >= 0 and 3 + t >= 0, so t in [-3, -1]
        a = positive_cone(2)
        assert member_a_plus_kernel(a, half_price_market, [-1.0, 3.0])
        assert not member_a_plus_kernel(a, half_price_market, [-3.0, 1.0])

    def test_var_enumeration_limit(self, two_state_market):
        sp = uniform_space(2)
        a = var_acceptance(sp, 0.5)
        opts = SolveOptions(n_enum=1)
        with pytest.raises(EnumerationTooLarge):
            MembershipOracle(a, two_state_market, opts)

    def test_grid_oracle_finds_witness(self, half_price_market):
        a = oracle_acceptance(2, lambda x: bool(np.all(x >= -1e-9)), [-1.0, 0.0])
        oracle = MembershipOracle(a, half_price_market,
                                  SolveOptions(kernel_box=8.0, kernel_grid=33))
        assert not oracle.exact
        k = oracle.witness(np.array([-1.0, 3.0]))
        assert k is not None
        assert np.all(np.array([-1.0, 3.0]) - k >= -1e-6)


class TestReduction:
    def test_halfplane_everywhere_minus_inf(self, half_price_market):
        a = halfspace_acceptance([1.0, 0.0])
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.uniform(-5, 5, size=2)
            assert rho_reduction(a, half_price_market, x).value == NEG_INF

    def test_corner_set_splits_on_first_coordinate(self, numeraire_line_market):
        a = corner_acceptance_r3()
        assert rho_reduction(a, numeraire_line_market, [-1.0, 0.0, 0.0]).value == POS_INF
        assert rho_reduction(a, numeraire_line_market, [1.0, 0.0, 0.0]).value == NEG_INF
        assert rho_reduction(a, numeraire_line_market, [0.0, -5.0, 9.0]).value == NEG_INF

    def test_binding_state_prices(self, two_state_market):
        result = rho_reduction(positive_cone(2), two_state_market, [-3.0, 0.0])
        assert result.value == pytest.approx(1.0, abs=BAND)

    def test_attained_certificate(self, two_state_market):
        result = rho_reduction(positive_cone(2), two_state_market, [-3.0, 0.0])
        assert result.attained
        moved = np.array([-3.0, 0.0]) + result.optimal_payoff
        assert np.all(moved >= -1e-7)
        assert two_state_market.price(result.optimal_payoff) == pytest.approx(
            result.value, abs=BAND)


class TestExactReductionLp:
    """Exact sets answer with one cash-minimising LP per system, never by bisection."""

    @pytest.fixture
    def lp_calls(self, monkeypatch):
        calls = []
        real = rm.solve_lp

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        def no_bisection(*args, **kwargs):
            raise AssertionError("exact path must not bisect")

        monkeypatch.setattr(rm, "solve_lp", counting)
        monkeypatch.setattr(rm, "rho_from_membership", no_bisection)
        return calls

    def test_one_lp_on_polyhedral_sets(self, lp_calls):
        rng = np.random.default_rng(41)
        for _ in range(20):
            vm = random_market(rng)
            x = rng.uniform(-5, 5, size=vm.n_states)
            for a in (positive_cone(vm.n_states), avar_acceptance(vm.space, 0.5)):
                for run in (lambda: rho_reduction(a, vm, x),
                            lambda: domain_classify(a, vm, x)):
                    lp_calls.clear()
                    run()
                    assert len(lp_calls) == 1

    def test_at_most_one_lp_per_maximal_loss_set(self, lp_calls):
        rng = np.random.default_rng(43)
        for _ in range(20):
            vm = random_market(rng, n_states=int(rng.integers(2, 7)), n_risky=1)
            alpha = float(rng.uniform(1.0 / vm.n_states, 2.0 / vm.n_states))
            a = var_acceptance(vm.space, alpha)
            maximal = len(feasible_loss_sets(vm.space, alpha))
            x = rng.uniform(-5, 5, size=vm.n_states)
            for run in (lambda: rho_reduction(a, vm, x), lambda: rho_var_exact(vm, x, alpha)):
                lp_calls.clear()
                run()
                assert 1 <= len(lp_calls) <= maximal

    def test_induced_membership_is_one_lp(self, lp_calls, two_state_market):
        induced = induced_rho_acceptance(positive_cone(2), two_state_market)
        rng = np.random.default_rng(47)
        for _ in range(10):
            lp_calls.clear()
            induced(rng.uniform(-4, 4, size=2))
            assert len(lp_calls) == 1

    def test_matches_direct_lp_tightly(self):
        rng = np.random.default_rng(53)
        for _ in range(60):
            vm = random_market(rng)
            x = rng.uniform(-5, 5, size=vm.n_states)
            for a in (positive_cone(vm.n_states),
                      avar_acceptance(vm.space, float(rng.uniform(0.2, 0.8)))):
                d = rho_direct_lp(a, vm, x)
                r = rho_reduction(a, vm, x)
                assert r.diagnostics["approximate"] is False
                if is_finite(d.value) or is_finite(r.value):
                    assert r.value == pytest.approx(d.value, abs=1e-9)
                    assert r.attained
                    assert vm.price(r.optimal_payoff) == pytest.approx(r.value, abs=1e-8)
                else:
                    assert r.value == d.value

    def test_grid_oracle_still_bisects(self, two_state_market):
        a = oracle_acceptance(2, lambda x: bool(np.all(x >= -1e-9)), [-1.0, 0.0])
        x = np.array([-3.0, 0.0])
        r = rho_reduction(a, two_state_market, x, SolveOptions(kernel_box=8.0, kernel_grid=33))
        assert r.strategy == "reduction[grid]"
        assert r.diagnostics["approximate"] is True
        assert r.diagnostics["bisect_steps"] > 0
        # a grid may miss witnesses, never invent them: the value errs upward
        exact = rho_direct_lp(positive_cone(2), two_state_market, x).value
        assert exact - BAND <= r.value <= exact + 0.2


class TestDirectLp:
    def test_binding_state_prices(self, two_state_market):
        result = rho_direct_lp(positive_cone(2), two_state_market, [-3.0, 0.0])
        assert result.value == pytest.approx(1.0)
        assert result.attained
        assert result.optimal_payoff == pytest.approx([3.0, 0.0], abs=1e-7)

    def test_acceptable_position_nonpositive(self, two_state_market):
        assert rho_direct_lp(positive_cone(2), two_state_market, [1.0, 1.0]).value <= 0

    def test_avar_bounded_by_cash_move(self):
        sp = uniform_space(4)
        vm = validate_market(Market(sp, [1.0, 1.1], [np.ones(4), [2.0, 1.0, 0.5, 0.7]]))
        a = avar_acceptance(sp, 0.5)
        x = np.array([-2.0, -1.0, 1.0, 3.0])
        value = rho_direct_lp(a, vm, x).value
        assert value <= compute_avar(sp, x, 0.5) + 1e-9
        agree = rho_reduction(a, vm, x).value
        assert value == pytest.approx(agree, abs=BAND)

    def test_needs_polyhedral(self, two_state_market):
        a = var_acceptance(uniform_space(2), 0.5)
        with pytest.raises(NotPolyhedral):
            rho_direct_lp(a, two_state_market, [0.0, 0.0])


class TestVarExact:
    def test_small_alpha_equals_positive_cone(self, two_state_market):
        x = np.array([-3.0, 0.0])
        v = rho_var_exact(two_state_market, x, 0.2)
        d = rho_direct_lp(positive_cone(2), two_state_market, x)
        assert v.value == pytest.approx(d.value, abs=1e-9)

    def test_complete_market_dump_state_unbounded(self, two_state_market):
        # leaving either state unconstrained lets the kernel push costs to -inf
        assert rho_var_exact(two_state_market, [-3.0, -3.0], 0.5).value == NEG_INF

    def test_nonnegative_position(self, two_state_market):
        assert rho_var_exact(two_state_market, [1.0, 2.0], 0.2).value <= 0

    def test_enumeration_cap(self, two_state_market):
        with pytest.raises(EnumerationTooLarge):
            rho_var_exact(two_state_market, [0.0, 0.0], 0.5, SolveOptions(n_enum=1))

    def test_matches_minimum_over_all_admissible_loss_sets(self):
        def brute_force(vm, x, alpha):
            n, s0, s1 = vm.n_states, vm.market.prices, vm.market.payoffs
            best = POS_INF
            for r in range(n + 1):
                for loss_set in itertools.combinations(range(n), r):
                    if vm.space.probs[list(loss_set)].sum() > alpha + PROB_EPS:
                        continue
                    keep = [w for w in range(n) if w not in loss_set]
                    if not keep:
                        return NEG_INF
                    out = solve_lp(make_problem(s0, s1.T[keep], -x[keep], GE))
                    if out.status == UNBOUNDED:
                        return NEG_INF
                    if out.status == OPTIMAL:
                        best = min(best, out.objective_value)
            return best

        rng = np.random.default_rng(67)
        values = []
        for _ in range(120):
            vm = random_market(rng, n_states=int(rng.integers(2, 9)))
            alpha = float(rng.uniform(0.05, 0.5))
            x = rng.uniform(-5, 5, size=vm.n_states)
            want = brute_force(vm, x, alpha)
            assert rho_var_exact(vm, x, alpha).value == pytest.approx(want, rel=1e-9, abs=1e-9)
            values.append(want)
        assert sum(map(is_finite, values)) >= 40 and NEG_INF in values

    def test_deterministic_loss_set_reporting(self, two_state_market):
        r1 = rho_var_exact(two_state_market, [-1.0, -1.0], 0.2)
        r2 = rho_var_exact(two_state_market, [-1.0, -1.0], 0.2)
        assert r1.diagnostics == r2.diagnostics
        assert r1.value == r2.value


class TestDomainClassify:
    def test_corner_set(self, numeraire_line_market):
        a = corner_acceptance_r3()
        assert domain_classify(a, numeraire_line_market, [-1.0, 0.0, 0.0])[0] == "pos_inf"
        assert domain_classify(a, numeraire_line_market, [1.0, 0.0, 0.0])[0] == "neg_inf"

    def test_degenerate_halfplane(self, half_price_market):
        a = halfspace_acceptance([1.0, 0.0])
        tag, evidence = domain_classify(a, half_price_market, [2.0, -1.0])
        assert tag == "neg_inf"
        assert evidence["method"] == "structural"

    def test_positive_cone_finite(self, two_state_market):
        rng = np.random.default_rng(3)
        for _ in range(10):
            tag, _ = domain_classify(positive_cone(2), two_state_market,
                                     rng.uniform(-5, 5, size=2))
            assert tag == "finite"


class TestInduced:
    def test_zero_requirement_boundary_point(self, two_state_market):
        # state prices (1/3, 2/3) make (-1, 0.5) cost exactly zero to fix
        induced = induced_rho_acceptance(positive_cone(2), two_state_market)
        assert induced(np.array([-1.0, 0.5]))
        assert induced(np.zeros(2))
        assert not induced(induced.non_member)

    def test_requirement_idempotent(self, two_state_market):
        a = positive_cone(2)
        induced = induced_rho_acceptance(a, two_state_market)
        rng = np.random.default_rng(5)
        oracle = MembershipOracle(a, two_state_market)
        for _ in range(30):
            x = rng.uniform(-4, 4, size=2)
            base = rho_direct_lp(a, two_state_market, x).value
            # induced sets absorb the kernel, so membership is direct
            from capreq.riskmeasure import rho_from_membership
            again = rho_from_membership(lambda y: induced(y), two_state_market, x).value
            assert again == pytest.approx(base, abs=3 * BAND)

    def test_degenerate_raises(self, half_price_market):
        a = halfspace_acceptance([1.0, 0.0])
        with pytest.raises(DegenerateAcceptance):
            induced_rho_acceptance(a, half_price_market)

    def test_flags_inherited(self, two_state_market):
        induced = induced_rho_acceptance(positive_cone(2), two_state_market)
        assert induced.is_convex is True
        assert induced.is_cone is True


class TestSolverAgreement:
    def test_positive_cone_and_avar(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            vm = random_market(rng)
            n = vm.n_states
            x = rng.uniform(-5, 5, size=n)
            for a in (positive_cone(n),
                      avar_acceptance(vm.space, float(rng.uniform(0.2, 0.8)))):
                d = rho_direct_lp(a, vm, x)
                r = rho_reduction(a, vm, x)
                if is_finite(d.value) or is_finite(r.value):
                    assert d.value == pytest.approx(r.value, abs=BAND)
                else:
                    assert d.value == r.value

    def test_var_enum_vs_reduction(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            vm = random_market(rng, n_states=int(rng.integers(2, 6)), n_risky=1)
            n = vm.n_states
            alpha = float(rng.uniform(1.0 / n, 2.0 / n))
            a = var_acceptance(vm.space, alpha)
            x = rng.uniform(-5, 5, size=n)
            v = rho_var_exact(vm, x, alpha)
            r = rho_reduction(a, vm, x)
            if is_finite(v.value) or is_finite(r.value):
                assert v.value == pytest.approx(r.value, abs=BAND)
            else:
                assert v.value == r.value

    def test_var_on_its_own_space(self):
        # the VaR set's probabilities differ from the market's: loss sets
        # come from the set's space on every route
        rng = np.random.default_rng(17)
        finite = 0
        for _ in range(150):
            vm = random_market(rng, n_states=4, n_risky=1, uniform_probs=True)
            probs = rng.uniform(0.05, 1.0, size=4)
            a = var_acceptance(ScenarioSpace(vm.space.labels, probs / probs.sum()), 0.3)
            x = rng.uniform(-5, 5, size=4)
            v = solve_rho(a, vm, x)
            r = rho_reduction(a, vm, x)
            assert v.strategy == "var_enum"
            if is_finite(v.value) or is_finite(r.value):
                assert v.value == pytest.approx(r.value, abs=1e-9)
            else:
                assert v.value == r.value
            for res in (v, r):
                assert not res.attained or a.member(x + res.optimal_payoff)
            finite += is_finite(v.value)
        assert finite >= 50


class TestRiskMeasureProperties:
    def test_translation_invariance(self, two_state_market):
        rng = np.random.default_rng(13)
        a = positive_cone(2)
        for _ in range(100):
            x = rng.uniform(-4, 4, size=2)
            z = two_state_market.m_basis.T @ rng.uniform(-2, 2, size=2)
            lhs = solve_rho(a, two_state_market, x + z).value
            rhs = solve_rho(a, two_state_market, x).value - two_state_market.price(z)
            assert lhs == pytest.approx(rhs, abs=BAND)

    def test_monotonicity(self, two_state_market):
        rng = np.random.default_rng(17)
        a = avar_acceptance(uniform_space(2), 0.4)
        for _ in range(100):
            x = rng.uniform(-4, 4, size=2)
            bump = rng.uniform(0, 3, size=2)
            assert (solve_rho(a, two_state_market, x + bump).value
                    <= solve_rho(a, two_state_market, x).value + BAND)

    def test_normalized_at_zero(self, two_state_market):
        # no arbitrage plus the smallest acceptance set: zero costs nothing
        value = solve_rho(positive_cone(2), two_state_market, np.zeros(2)).value
        assert value == pytest.approx(0.0, abs=BAND)

    def test_cash_additivity_when_normalized(self, two_state_market):
        rng = np.random.default_rng(19)
        a = positive_cone(2)
        for _ in range(50):
            x = rng.uniform(-4, 4, size=2)
            z = two_state_market.m_basis.T @ rng.uniform(-2, 2, size=2)
            combined = solve_rho(a, two_state_market, x + z).value
            split = (solve_rho(a, two_state_market, x).value
                     + solve_rho(a, two_state_market, z).value)
            assert combined == pytest.approx(split, abs=2 * BAND)

    def test_convexity_inheritance(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            vm = random_market(rng, n_states=3)
            a = avar_acceptance(vm.space, 0.5)
            x = rng.uniform(-4, 4, size=3)
            y = rng.uniform(-4, 4, size=3)
            lam = float(rng.uniform(0, 1))
            mix = solve_rho(a, vm, lam * x + (1 - lam) * y).value
            bound = (lam * solve_rho(a, vm, x).value
                     + (1 - lam) * solve_rho(a, vm, y).value)
            assert mix <= bound + BAND

    def test_positive_homogeneity_on_cones(self, two_state_market):
        rng = np.random.default_rng(29)
        a = positive_cone(2)
        for _ in range(50):
            x = rng.uniform(-4, 4, size=2)
            base = solve_rho(a, two_state_market, x).value
            for lam in (0.5, 2.0):
                assert solve_rho(a, two_state_market, lam * x).value == pytest.approx(
                    lam * base, abs=BAND)

    def test_degenerate_instance_all_minus_inf(self, half_price_market):
        a = halfspace_acceptance([1.0, 0.0])
        rng = np.random.default_rng(31)
        for _ in range(20):
            x = rng.uniform(-5, 5, size=2)
            assert solve_rho(a, half_price_market, x).value == NEG_INF


class TestPlumbing:
    def test_solve_options_validation(self):
        with pytest.raises(ValueError):
            SolveOptions(bisect_tol=-1.0)
        with pytest.raises(ValueError):
            SolveOptions(bisect_tol=2.0)
        with pytest.raises(ValueError):
            SolveOptions(kernel_grid=0)

    def test_state_count_mismatch(self, two_state_market):
        for a in (positive_cone(3), var_acceptance(uniform_space(3), 0.3)):
            with pytest.raises(DimensionMismatch):
                solve_rho(a, two_state_market, np.zeros(2))
            with pytest.raises(DimensionMismatch):
                MembershipOracle(a, two_state_market)

    def test_extreal_rendering(self):
        assert extreal_str(POS_INF) == "+inf"
        assert extreal_str(NEG_INF) == "-inf"
        assert extreal_str(1.25) == 1.25

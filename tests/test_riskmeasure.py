"""Requirement solvers: strategy examples, agreement, axioms, degeneracy."""

import gc
import itertools
import math
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import capreq.linprog as lpmod
import capreq.riskmeasure as rm
from capreq.acceptance import (MAX_SYSTEMS, PROB_EPS, AcceptanceSet, DimensionMismatch,
                               PolyhedralRep, avar_acceptance, compute_avar, feasible_loss_sets,
                               halfspace_acceptance, intersect, oracle_acceptance, positive_cone,
                               var_acceptance)
from capreq.linprog import (DEFAULT_FEAS_TOL, INFEASIBLE, OPTIMAL, UNBOUNDED,
                            MalformedProblem, make_problem, solve_lp)
from capreq.market import Market, ScenarioSpace, uniform_space, validate_market
from capreq.riskmeasure import (BISECT_TOL, DegenerateAcceptance, EnumerationTooLarge,
                                MembershipOracle, NEG_INF, NotPolyhedral, POS_INF, extreal_str,
                                induced_rho_acceptance, rho_direct_lp, rho_reduction,
                                rho_var_exact, solve_rho)
from capreq.verify import (check_domain_theorem, check_levelset_theorem,
                           check_risk_measure_axioms)
from conftest import (corner_acceptance_r3, loadable_sets, non_monotone_acceptance_r3,
                      random_market)

BAND = 10 * BISECT_TOL


class TestMembership:
    def test_halfplane_whole_space(self, half_price_market):
        # the halfplane fattened by the pricing kernel covers everything
        a = halfspace_acceptance([1.0, 0.0])
        assert MembershipOracle(a, half_price_market).contains([-9.0, 0.0])

    def test_already_acceptable(self, two_state_market):
        assert MembershipOracle(positive_cone(2), two_state_market).contains([1.0, 1.0])

    def test_interval_arithmetic_case(self, half_price_market):
        # k = t (1, -1): need -1 - t >= 0 and 3 + t >= 0, so t in [-3, -1]
        a = positive_cone(2)
        oracle = MembershipOracle(a, half_price_market)
        assert oracle.contains([-1.0, 3.0])
        assert not oracle.contains([-3.0, 1.0])

    def test_var_enumeration_limit(self):
        vm = random_market(np.random.default_rng(37), n_states=17, n_risky=1)
        a = var_acceptance(vm.space, 0.5)
        with pytest.raises(EnumerationTooLarge):
            MembershipOracle(a, vm)

    def test_kept_lps_answer_like_fresh_oracles(self, monkeypatch):
        # each system's witness LP and cash LP is built once, then re-solved by
        # right-hand side or answered from a kept optimal basis; the answers are
        # a fresh oracle's up to rounding: the same tag and membership, the
        # same m to 1e-12 relative, and a payoff that makes the position
        # acceptable and prices to m
        builds, build = [], PolyhedralRep.lp

        def counted(rep, *args, **kwargs):
            builds.append(id(rep))
            return build(rep, *args, **kwargs)

        answers = set()
        for seed in (53, 51):   # VaR and a halfspace: 14 systems, then 9
            rng = np.random.default_rng(seed)
            vm = random_market(rng, n_states=6, n_risky=1)
            a = intersect([var_acceptance(vm.space, 0.4),
                           halfspace_acceptance(rng.uniform(0.1, 1.0, 6))])
            oracle, queries = MembershipOracle(a, vm), rng.uniform(-5.0, 5.0, size=(30, 6))
            builds.clear()
            with monkeypatch.context() as patch:
                patch.setattr(PolyhedralRep, "lp", counted)
                kept = [(oracle.contains(x), oracle.cash_lp(x)) for x in queries]
            assert max(builds.count(id(rep)) for rep in a.systems) <= 2
            for x, (inside, (m, payoff)) in zip(queries, kept):
                fresh = MembershipOracle(a, vm)
                assert inside == fresh.contains(x)
                want = fresh.cash_lp(x)
                assert _tag(m) == _tag(want[0])
                assert m == pytest.approx(want[0], rel=1e-12, abs=0.0)
                assert (payoff is None) == (want[1] is None)
                if payoff is not None:
                    assert a.member(x + payoff)
                    span_tol = 1e-9 * max(1.0, float(np.abs(payoff).max()))
                    assert vm.price(payoff, span_tol) == pytest.approx(m, rel=1e-9, abs=1e-9)
                answers.add((inside, _tag(m)))
        assert answers == {(True, "finite"), (False, "finite"), (True, "neg_inf")}


class TestMembershipOnlySets:
    """A set known only through membership has no systems: every solver refuses it."""

    @pytest.mark.parametrize("kind", ["oracle", "intersection"])
    def test_every_solver_refuses(self, two_state_market, kind):
        a = oracle_acceptance(2, lambda x: bool(np.all(x >= -1e-9)), [-1.0, 0.0])
        if kind == "intersection":
            a = intersect([positive_cone(2), a])
        assert a.systems is None
        x = np.array([-3.0, 0.0])
        for run in (lambda: solve_rho(a, two_state_market, x),
                    lambda: rho_reduction(a, two_state_market, x),
                    lambda: rho_direct_lp(a, two_state_market, x),
                    lambda: rho_var_exact(a, two_state_market, x),
                    lambda: MembershipOracle(a, two_state_market),
                    lambda: induced_rho_acceptance(a, two_state_market),
                    lambda: check_risk_measure_axioms(a, two_state_market, trials=3)):
            with pytest.raises(NotPolyhedral):
                run()


class TestMembershipBracket:
    """``rho_from_membership``'s bracket stays below the rows ``solve_lp`` refuses."""

    def test_minus_inf_reached_within_the_bracket(self, two_state_market):
        # {x0 >= 0, x1 <= 2}: the kernel direction (1, -1/2) reaches it from
        # anywhere at any cash level, so the requirement is -inf
        a = AcceptanceSet(dim=2, member=lambda x: bool(x[0] >= -1e-9 and x[1] <= 2.0 + 1e-9),
                          non_member=np.array([-1.0, 3.0]), kind="half_strip",
                          systems=(PolyhedralRep(np.array([[1.0, 0.0], [0.0, -1.0]]),
                                                 np.zeros((2, 0)), [0.0, -2.0]),))
        x = [1.0, 1.0]
        assert solve_rho(a, two_state_market, x).value == NEG_INF
        assert rm.rho_from_membership(MembershipOracle(a, two_state_market).contains,
                                      two_state_market, x).value == NEG_INF

    def test_plus_inf_reached_within_the_bracket(self, numeraire_line_market):
        a = non_monotone_acceptance_r3()
        assert rm.rho_from_membership(MembershipOracle(a, numeraire_line_market).contains,
                                      numeraire_line_market, [3.0, 0.0, 0.0]).value == POS_INF


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

    def test_large_position_prices_its_own_payoff(self, two_state_market):
        # the payoff is of size 3e9, so its span residual is rounding at that
        # size: the span test is relative to it
        result = rho_reduction(positive_cone(2), two_state_market, [-3e9, 0.0])
        assert result.value == pytest.approx(1e9, rel=1e-6)
        assert result.attained

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
                            lambda: MembershipOracle(a, vm).cash_lp(x)[0]):
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
            for run in (lambda: rho_reduction(a, vm, x), lambda: rho_var_exact(a, vm, x)):
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
                assert r.strategy == "reduction"
                if math.isfinite(d.value) or math.isfinite(r.value):
                    assert r.value == pytest.approx(d.value, abs=1e-9)
                    assert r.attained
                    assert vm.price(r.optimal_payoff) == pytest.approx(r.value, abs=1e-8)
                else:
                    assert r.value == d.value


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
        v = rho_var_exact(var_acceptance(two_state_market.space, 0.2), two_state_market, x)
        d = rho_direct_lp(positive_cone(2), two_state_market, x)
        assert v.value == pytest.approx(d.value, abs=1e-9)

    def test_complete_market_dump_state_unbounded(self, two_state_market):
        # leaving either state unconstrained lets the kernel push costs to -inf
        a = var_acceptance(two_state_market.space, 0.5)
        assert rho_var_exact(a, two_state_market, [-3.0, -3.0]).value == NEG_INF

    def test_nonnegative_position(self, two_state_market):
        a = var_acceptance(two_state_market.space, 0.2)
        assert rho_var_exact(a, two_state_market, [1.0, 2.0]).value <= 0

    def test_enumeration_cap(self):
        vm = random_market(np.random.default_rng(71), n_states=17, n_risky=1)
        with pytest.raises(EnumerationTooLarge):
            rho_var_exact(var_acceptance(vm.space, 0.5), vm, np.zeros(17))

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
                    out = solve_lp(make_problem(s0, s1.T[keep], -x[keep]))
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
            a = var_acceptance(vm.space, alpha)
            assert rho_var_exact(a, vm, x).value == pytest.approx(want, rel=1e-9, abs=1e-9)
            values.append(want)
        assert sum(map(math.isfinite, values)) >= 40 and NEG_INF in values

    def test_deterministic_loss_set_reporting(self, two_state_market):
        a = var_acceptance(two_state_market.space, 0.2)
        r1 = rho_var_exact(a, two_state_market, [-1.0, -1.0])
        r2 = rho_var_exact(a, two_state_market, [-1.0, -1.0])
        assert r1.diagnostics == r2.diagnostics
        assert r1.value == r2.value


def _admissible_loss_sets(space, alpha):
    return [loss_set for r in range(space.n + 1)
            for loss_set in itertools.combinations(range(space.n), r)
            if space.probs[list(loss_set)].sum() <= alpha + PROB_EPS]


def _loss_set_block(n, loss_set):
    keep = [w for w in range(n) if w not in loss_set]
    return np.eye(n)[keep], np.zeros((len(keep), 0)), np.zeros(len(keep)), np.zeros(0, bool)


def _nonneg(n_free, aux_nonneg):
    """The mask of n_free free columns followed by auxiliaries of the given signs."""
    return np.concatenate([np.zeros(n_free, dtype=bool), aux_nonneg])


def _stack_blocks(choice):
    """Blocks (rows, aux, rhs, aux_nonneg) stacked into one system, each with its own auxiliaries."""
    rows = np.vstack([b[0] for b in choice])
    aux = np.zeros((rows.shape[0], sum(b[1].shape[1] for b in choice)))
    r0 = c0 = 0
    for b in choice:
        aux[r0:r0 + b[1].shape[0], c0:c0 + b[1].shape[1]] = b[1]
        r0, c0 = r0 + b[1].shape[0], c0 + b[1].shape[1]
    return PolyhedralRep(rows, aux, np.concatenate([b[2] for b in choice]),
                         np.concatenate([b[3] for b in choice]))


def _cheapest_over_choices(vm, x, choices):
    """Minimum over block choices of the direct LP with the chosen blocks' rows stacked."""
    return _unpruned_scan([_stack_blocks(c) for c in choices], _direct_problem(vm, x))[2]


def _avar_row_form(space, alpha):
    """The AVaR block with u >= 0 as n rows and every auxiliary free: 2n + 1 rows."""
    n = space.n
    rows = np.vstack([np.eye(n), np.zeros((n + 1, n))])
    aux = np.zeros((2 * n + 1, n + 1))
    aux[:n, 0] = 1.0
    aux[:n, 1:] = np.eye(n)
    aux[n:2 * n, 1:] = np.eye(n)
    aux[2 * n, 0] = -1.0
    aux[2 * n, 1:] = -space.probs / alpha
    return rows, aux, np.zeros(2 * n + 1), np.zeros(n + 1, bool)


class TestExactUnions:
    """Every set a descriptor can express is a union of systems, solved exactly."""

    def test_every_loadable_set_is_exact(self):
        rng = np.random.default_rng(73)
        for n in (3, 4, 5, 6):
            vm = random_market(rng, n_states=n)
            for a in loadable_sets(rng, vm.space):
                for _ in range(3):
                    r = solve_rho(a, vm, rng.uniform(-5, 5, size=n))
                    assert r.strategy == ("direct_lp" if len(a.systems) == 1 else "var_enum")
                    assert r.diagnostics.get("approximate") is None

    def test_large_var_part_refused(self):
        vm = random_market(np.random.default_rng(79), n_states=17, n_risky=1)
        for other in (positive_cone(17), halfspace_acceptance(np.ones(17)),
                      avar_acceptance(vm.space, 0.5)):
            a = intersect([var_acceptance(vm.space, 0.2), other])
            assert a(np.ones(17)) and not a(-np.ones(17))
            with pytest.raises(EnumerationTooLarge):
                solve_rho(a, vm, np.zeros(17))

    def test_product_above_cap_refused(self):
        space = uniform_space(16)
        var = var_acceptance(space, 2.0 / 16)        # 120 maximal loss sets
        a = intersect([var, var_acceptance(space, 2.5 / 16)])
        assert len(var.systems) ** 2 > MAX_SYSTEMS
        vm = validate_market(Market(space, [1.0, 1.0], [np.ones(16), np.linspace(0.5, 2, 16)]))
        with pytest.raises(EnumerationTooLarge):
            solve_rho(a, vm, np.zeros(16))
        assert a(np.ones(16))

    def test_duplicate_systems_kept_once(self):
        space = uniform_space(4)
        var = var_acceptance(space, 0.3)
        assert len(var.systems) == 4
        assert len(intersect([var, positive_cone(4)]).systems) == 1
        # J1 & J2 over the pairs gives the empty set and the four singletons
        assert len(intersect([var, var_acceptance(space, 0.6)]).systems) == 5

    def test_matches_brute_force_over_loss_set_pairs(self):
        rng = np.random.default_rng(83)
        tags = {"finite": 0, "neg_inf": 0, "pos_inf": 0}
        for trial in range(300):
            n = int(rng.integers(3, 7))
            vm = random_market(rng, n_states=n)
            alpha = float(rng.uniform(0.1, 0.45))
            var = var_acceptance(vm.space, alpha)
            var_choices = [_loss_set_block(n, j) for j in _admissible_loss_sets(vm.space, alpha)]
            kind = trial % 4
            if kind == 3:
                alpha2 = float(rng.uniform(0.1, 0.45))
                other = var_acceptance(vm.space, alpha2)
                other_choices = [_loss_set_block(n, j)
                                 for j in _admissible_loss_sets(vm.space, alpha2)]
            else:
                other = (positive_cone(n), halfspace_acceptance(rng.uniform(0.1, 1.0, n)),
                         avar_acceptance(vm.space, float(rng.uniform(0.2, 0.8))))[kind]
                rep = other.only_system
                other_choices = [(rep.rows, rep.aux, rep.rhs, rep.aux_nonneg)]
            a = intersect([var, other])
            x = rng.uniform(-5, 5, size=n)
            want = _cheapest_over_choices(vm, x, itertools.product(var_choices, other_choices))
            got, red = solve_rho(a, vm, x), rho_reduction(a, vm, x)
            if math.isfinite(want):
                assert got.value == pytest.approx(want, rel=1e-9, abs=1e-9)
                assert red.value == pytest.approx(want, abs=1e-5)
                tags["finite"] += 1
            else:
                assert got.value == want and red.value == want
                tags["neg_inf" if want == NEG_INF else "pos_inf"] += 1
            for r in (got, red):
                assert not r.attained or a.member(x + r.optimal_payoff)
        assert tags["finite"] >= 150 and tags["neg_inf"] >= 50, tags


def _unpruned_scan(systems, problem):
    """Every system's LP in order: (tag, deciding index, value, the optimal values seen)."""
    values, best, index = [], POS_INF, -1
    for i, rep in enumerate(systems):
        out = solve_lp(problem(rep))
        if out.status == UNBOUNDED:
            return "neg_inf", i, NEG_INF, values
        if out.status == OPTIMAL:
            values.append(out.objective_value)
            if out.objective_value < best:
                best, index = out.objective_value, i
    return ("finite" if index >= 0 else "pos_inf"), index, best, values


def _index_order_scan(a, problem):
    """LPs solved by a scan in index order with the same skip rule as ``_cheapest``.

    Each system in turn, skipped once the incumbent has fallen to the level
    of a checked dual that covers it; the first unbounded system ends it.
    """
    inc, tol = a.incidence, DEFAULT_FEAS_TOL
    live, certified, best, scanned = np.ones(len(a.systems), dtype=bool), [], POS_INF, 0
    for i, rep in enumerate(a.systems):
        if not live[i]:
            continue
        lp = problem(rep)
        out = solve_lp(lp, tol=tol)
        scanned += 1
        if out.status == UNBOUNDED:
            break
        if out.status != OPTIMAL:
            continue
        best = min(best, out.objective_value)
        support = out.support
        if support is not None:
            bound = float(lp.rhs[support] @ out.dual[support])
            certified.append((bound - rm.BOUND_MARGIN * max(1.0, abs(bound)),
                              inc.matrix[:, inc.ids[i][support]].all(axis=1)))
        for level, covered in certified:
            if best <= level:
                live &= ~covered
    return scanned


def _record_solve_order(monkeypatch):
    """A list that records, in solve order, the index of each system whose LP ``rm`` solves."""
    order, cheapest = [], rm._cheapest

    def tagged(a, solve):
        def recorded(index):
            order.append(index)
            return solve(index)
        return cheapest(a, recorded)

    monkeypatch.setattr(rm, "_cheapest", tagged)
    return order


def _direct_problem(vm, x):
    """The direct LP over portfolio weights and auxiliaries of one system."""
    s0, s1 = vm.market.prices, vm.market.payoffs
    return lambda rep: make_problem(np.concatenate([s0, np.zeros(rep.n_aux)]),
                                    np.hstack([rep.rows @ s1.T, rep.aux]),
                                    rep.rhs - rep.rows @ x,
                                    _nonneg(len(s0), rep.aux_nonneg))


def _engine_problem(kind, vm, x):
    """The LP of ``kind`` of one system as the engine poses it: its template at x."""
    return lambda rep: rm._template(kind, rep, vm).with_rhs(rep.rhs_at(x))


def _cash_problem(vm, x):
    """The cash-minimising LP over (cash, kernel coordinates, auxiliaries) of one system."""
    def problem(rep):
        lhs = np.hstack([(rep.rows @ vm.numeraire)[:, None], -(rep.rows @ vm.kernel_basis.T),
                         rep.aux])
        return make_problem(np.eye(lhs.shape[1])[0], lhs, rep.rhs - rep.rows @ x,
                            _nonneg(lhs.shape[1] - rep.n_aux, rep.aux_nonneg))
    return problem


def _tag(value):
    return "finite" if math.isfinite(value) else ("neg_inf" if value == NEG_INF else "pos_inf")


def _twin_state_market(rng, n):
    """Equiprobable market whose states 0 and 1 have the same payoffs.

    At a position equal in both states, the VaR systems that differ only by
    which twin may lose have identical LPs: planted exact ties.
    """
    while True:
        n_risky = int(rng.integers(1, n - 1))
        payoffs = np.vstack([np.ones(n), rng.uniform(-2.0, 5.0, size=(n_risky, n))])
        payoffs[:, 1] = payoffs[:, 0]
        svals = np.linalg.svd(payoffs, compute_uv=False)
        if svals[-1] > 1e-6 * svals[0]:
            break
    psi = rng.uniform(0.1, 1.0, size=n)
    return validate_market(Market(uniform_space(n), payoffs @ (psi / psi.sum()), payoffs))


def _union_instances(rng, count):
    """Seeded (a, vm, x) on 3-8 states: VaR alone and VaR with a cone, halfspace, AVaR or VaR."""
    for trial in range(count):
        n = int(rng.integers(3, 9))
        twins = trial % 3 == 2
        vm = _twin_state_market(rng, n) if twins else random_market(rng, n_states=n)
        kind = trial % 5
        var = var_acceptance(vm.space, float(rng.uniform(0.15, 0.35 if kind == 4 else 0.6)))
        other = (None, positive_cone(n), halfspace_acceptance(rng.uniform(0.1, 1.0, n)),
                 avar_acceptance(vm.space, float(rng.uniform(0.2, 0.8))),
                 var_acceptance(vm.space, float(rng.uniform(0.15, 0.35))))[kind]
        a = var if other is None else intersect([var, other])
        x = rng.uniform(-5, 5, size=n)
        if twins:
            x[1] = x[0]
        if len(a.systems) > 1:
            yield a, vm, x


class TestDualPruning:
    """The scan skips systems a solved system's dual bounds, and answers as a full scan does."""

    def test_matches_unpruned_scan(self):
        # tags and values against a cold scan of LPs built here; the reported
        # system against a full scan of the engine's own LPs, whose start
        # leaves the optima of exactly tied systems a few ulps apart
        rng = np.random.default_rng(97)
        counts = {"finite": 0, "neg_inf": 0, "pos_inf": 0, "ties": 0, "pruned": 0}
        for a, vm, x in _union_instances(rng, 300):
            tag, _, value, values = _unpruned_scan(a.systems, _direct_problem(vm, x))
            engine = _unpruned_scan(a.systems, _engine_problem("direct", vm, x))
            engine_tag, index = engine[:2]
            r = rho_var_exact(a, vm, x)
            diag = r.diagnostics
            assert _tag(r.value) == tag == engine_tag
            if tag == "neg_inf":
                assert diag["unbounded_loss_set"] == index
            else:
                assert diag["loss_sets_scanned"] + diag["systems_pruned"] == len(a.systems)
            if tag == "finite":
                assert diag["system"] == index
                assert abs(r.value - value) <= 1e-9
                assert r.attained and a.member(x + r.optimal_payoff)
                counts["ties"] += values.count(value) > 1
            counts[tag] += 1
            counts["pruned"] += diag["systems_pruned"]

            m, payoff = MembershipOracle(a, vm).cash_lp(x)
            cash_tag, _, cash_value, _ = _unpruned_scan(a.systems, _cash_problem(vm, x))
            assert _tag(m) == cash_tag
            if cash_tag == "finite":
                assert abs(m - cash_value) <= 1e-9
                assert a.member(x + payoff)
        assert counts["finite"] >= 80 and counts["neg_inf"] >= 30, counts
        assert counts["ties"] >= 15 and counts["pruned"] >= 300, counts

    def test_lp_count_of_a_fixed_instance(self):
        # 14 equiprobable states at alpha 2/14: 91 maximal loss sets (pairs)
        rng = np.random.default_rng(5)
        vm = random_market(rng, n_states=14, n_risky=1, uniform_probs=True)
        a = var_acceptance(vm.space, 2 / 14)
        r = rho_var_exact(a, vm, rng.uniform(-5, 5, size=14))
        assert len(a.systems) == 91
        assert (r.diagnostics["loss_sets_scanned"], r.diagnostics["systems_pruned"]) == (5, 86)

    def test_infeasible_systems_answer_like_the_unpruned_scan(self, numeraire_line_market,
                                                                monkeypatch):
        # VaR at alpha 0.34 on three equiprobable states has 3 systems, one per
        # state that may lose. At x only the first system is feasible, at 2;
        # with x0 >= 0 added none is, so the requirement is +inf
        statuses, real = [], rm.solve_lp

        def counted(*args, **kwargs):
            out = real(*args, **kwargs)
            statuses.append(out.status)
            return out

        monkeypatch.setattr(rm, "solve_lp", counted)
        vm, x = numeraire_line_market, np.array([-1.0, 0.5, -2.0])
        var = var_acceptance(vm.space, 0.34)
        for a, value, infeasible in ((var, 2.0, 2),
                                     (intersect([var, halfspace_acceptance([1.0, 0.0, 0.0])]),
                                      POS_INF, 3)):
            assert len(a.systems) == 3 and a.incidence is not None
            for solve, problem in ((solve_rho, _direct_problem), (rho_reduction, _cash_problem)):
                statuses.clear()
                r = solve(a, vm, x)
                tag, _, want, _ = _unpruned_scan(a.systems, problem(vm, x))
                assert (_tag(r.value), r.value) == (tag, want) == (_tag(value), value)
                assert statuses.count(INFEASIBLE) == infeasible
                assert r.attained == (tag == "finite")
            diag = solve_rho(a, vm, x).diagnostics
            assert (diag["loss_sets_scanned"], diag["systems_pruned"]) == (3, 0)
            assert ("system" in diag) == (tag == "finite")

    def test_never_more_lps_than_the_index_order_scan(self):
        fewer = total = index_order_total = 0
        for a, vm, x in _union_instances(np.random.default_rng(97), 300):
            want = _index_order_scan(a, _direct_problem(vm, x))
            got = rho_var_exact(a, vm, x).diagnostics["loss_sets_scanned"]
            assert got <= want
            fewer += got < want
            total, index_order_total = total + got, index_order_total + want
        assert fewer >= 50, (fewer, total, index_order_total)

    def test_ties_met_out_of_order_keep_the_earliest_system(self, monkeypatch):
        # exactly tied optima are met out of order only where rounding leaves a covering
        # system's optimum a few ulps above theirs, within the margin; seed 102 has one
        order, out_of_order = _record_solve_order(monkeypatch), 0
        for a, vm, x in _union_instances(np.random.default_rng(102), 300):
            problem = _engine_problem("direct", vm, x)
            tag, index, value, _ = _unpruned_scan(a.systems, problem)
            order.clear()
            r = rho_var_exact(a, vm, x)
            if tag != "finite":
                continue
            assert r.diagnostics["system"] == index
            # a later system with the same optimum, bit for bit, solved before the reported one
            before = order[:order.index(index)]
            out_of_order += any(k > index and solve_lp(problem(a.systems[k])).objective_value
                                == value for k in before)
        assert out_of_order >= 1

    def test_first_unbounded_system_met_after_covered_ones_is_a_full_scans(self, monkeypatch):
        order, out_of_order = _record_solve_order(monkeypatch), 0
        for a, vm, x in _union_instances(np.random.default_rng(97), 300):
            tag, index, _, _ = _unpruned_scan(a.systems, _direct_problem(vm, x))
            order.clear()
            r = rho_var_exact(a, vm, x)
            if tag != "neg_inf":
                continue
            assert r.diagnostics["unbounded_loss_set"] == index == order[-1]
            # more earlier systems left unsolved than pruned: some were covered, not yet solved
            earlier_unsolved = index - sum(i < index for i in order)
            out_of_order += earlier_unsolved > r.diagnostics["systems_pruned"]
        assert out_of_order >= 1

    def test_incidence_numbers_rows_by_their_content(self):
        # the skip relies on it: one id, one [rows | aux | rhs] row over auxiliaries of
        # the same signs, in every system
        rng = np.random.default_rng(41)
        for a, _, _ in _union_instances(rng, 60):
            by_id, inc = {}, a.incidence
            assert inc.matrix.shape[0] == len(a.systems) == len(inc.ids)
            for i, rep in enumerate(a.systems):
                full = np.hstack([rep.rows, rep.aux, rep.rhs[:, None]])
                assert len(inc.ids[i]) == full.shape[0]
                assert set(inc.ids[i].tolist()) == set(np.flatnonzero(inc.matrix[i]).tolist())
                for row_id, row, aux in zip(inc.ids[i].tolist(), full, rep.aux):
                    content = (row.tobytes(), tuple(rep.aux_nonneg[aux != 0].tolist()))
                    assert by_id.setdefault(row_id, content) == content
            assert len(set(by_id.values())) == len(by_id)

    def test_dual_bound_checks_one_side_on_nonnegative_columns(self):
        # columns (w free, u >= 0); r = A_S^T y_S - c must vanish on w and be <= 0 on u
        def lp(rows, rhs, u_nonneg):
            return make_problem([1.0, 0.0], rows, rhs, [False, u_nonneg])

        def bound(problem, y):
            """(b_S @ y_S, S) for the rows S of a checked dual y, or None."""
            support = lpmod._dual_support(problem, y, 1e-8)
            return None if support is None else (float(problem.rhs[support] @ y[support]), support)

        # min w s.t. w + u >= 5, w >= 2: optimum 2 at (2, 3), whose dual solve_lp checks
        signed = lp([[1.0, 1.0], [1.0, 0.0]], [5.0, 2.0], True)
        assert bound(signed, np.array([1.0, 0.0])) is None   # r_u = 1 > 0
        value, support = bound(signed, np.array([0.0, 1.0]))
        assert value == 2.0 and support.tolist() == [1]
        assert solve_lp(signed).support.tolist() == [1]
        # min w s.t. w - u >= 0, w >= 2: y = (1/2, 1/2) has r_u = -1/2, a bound only if u >= 0
        rows = [[1.0, -1.0], [1.0, 0.0]]
        half = np.array([0.5, 0.5])
        assert bound(lp(rows, [0.0, 2.0], True), half)[0] == 1.0
        assert bound(lp(rows, [0.0, 2.0], False), half) is None

    def test_one_system_does_no_certificate_work(self, two_state_market, monkeypatch):
        # the one dual check is the solver's own, of the answer's dual (its
        # support); the scan bounds no other system by it
        solves, checks, real, real_check = [], [], rm.solve_lp, lpmod._dual_support

        def counting(*args, **kwargs):
            solves.append(args)
            return real(*args, **kwargs)

        def counted_check(*args):
            checks.append(args)
            return real_check(*args)

        monkeypatch.setattr(rm, "solve_lp", counting)
        monkeypatch.setattr(lpmod, "_dual_support", counted_check)
        for a in (positive_cone(2), var_acceptance(two_state_market.space, 0.1),
                  intersect([positive_cone(2), avar_acceptance(two_state_market.space, 0.5)])):
            assert len(a.systems) == 1 and a.incidence is None
            solves.clear()
            checks.clear()
            r = rho_direct_lp(a, two_state_market, [-1.0, 2.0])
            assert len(solves) == 1 and len(checks) <= 1
            assert (r.diagnostics["loss_sets_scanned"], r.diagnostics["systems_pruned"]) == (1, 0)

    @pytest.mark.parametrize("solver", [solve_rho, rho_reduction])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_union_without_incidence_scans_every_system(self, solver, reverse):
        # a caller-built union of {x0 >= 5} and {x1 >= 0, x2 >= 0} with no incidence.
        # At (0, -1, -1) the first system costs 5 (z0 = price) and the second 1 (one unit
        # of the riskless asset), so the requirement is 1 in either system order
        vm = validate_market(Market(uniform_space(3), [1.0, 1.0],
                                    [[1.0, 1.0, 1.0], [1.0, 2.0, 0.0]]))
        systems = (PolyhedralRep([[1.0, 0.0, 0.0]], np.zeros((1, 0)), [5.0]),
                   PolyhedralRep([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], np.zeros((2, 0)), [0.0, 0.0]))
        systems = systems[::-1] if reverse else systems
        a = AcceptanceSet(
            dim=3, member=lambda x: any(np.all(s.rows @ x >= s.rhs) for s in systems),
            non_member=[-1.0, -1.0, -1.0], kind="union", systems=systems)
        x = np.array([0.0, -1.0, -1.0])
        assert a.incidence is None and not MembershipOracle(a, vm).contains(x)
        r = solver(a, vm, x)
        assert abs(r.value - 1.0) <= BAND and r.attained and a.member(x + r.optimal_payoff)


def _context_instances(rng, count):
    """Seeded (a, vm) on 3-8 states: VaR, AVaR, the cone and VaR with a cone or AVaR."""
    for trial in range(count):
        n = int(rng.integers(3, 9))
        vm = random_market(rng, n_states=n)
        var = var_acceptance(vm.space, float(rng.uniform(0.15, 0.5)))
        avar = avar_acceptance(vm.space, float(rng.uniform(0.2, 0.8)))
        yield (var, avar, positive_cone(n), intersect([var, positive_cone(n)]),
               intersect([var, avar]))[trial % 5], vm


def _near(got, want, rel=1e-12):
    """Equal infinite tags, or finite values within ``rel`` of max(1, |want|)."""
    if not math.isfinite(want):
        return got == want
    return abs(got - want) <= rel * max(1.0, abs(want))


class TestSolveContext:
    """One context per (set, market) answers every position like a fresh one-shot solve."""

    def test_answers_equal_fresh_one_shot_solves(self, monkeypatch):
        cold, real = {"context": 0, "fresh": 0}, rm.solve_lp
        side = ["fresh"]

        def counting(*args, **kwargs):
            cold[side[0]] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(rm, "solve_lp", counting)
        rng = np.random.default_rng(113)
        # a secure asset makes every position acceptable at some cost: no +inf here
        tags = {"finite": 0, "neg_inf": 0, "member": 0, "outside": 0}
        for a, vm in _context_instances(rng, 30):
            n = vm.n_states
            context = MembershipOracle(a, vm)
            # positions scattered about a few centres, so that matrices repeat
            centres = rng.uniform(-5.0, 5.0, size=(4, n))
            positions = centres[rng.integers(0, 4, size=20)] + rng.normal(0.0, 0.3, (20, n))
            for x in positions:
                side[0] = "context"
                got, (m, payoff), inside = (context.requirement(x), context.cash_lp(x),
                                            context.contains(x))
                side[0] = "fresh"
                want, fresh = solve_rho(a, vm, x), MembershipOracle(a, vm)
                assert got.strategy == want.strategy and _tag(got.value) == _tag(want.value)
                assert _near(got.value, want.value) and got.attained == want.attained
                if got.attained:
                    assert a.member(x + got.optimal_payoff)
                    assert vm.price(got.optimal_payoff, 1e-8) == pytest.approx(got.value, abs=1e-8)
                want_m = fresh.cash_lp(x)[0]
                assert _tag(m) == _tag(want_m) and _near(m, want_m)
                assert payoff is None or a.member(x + payoff)
                assert inside == fresh.contains(x)
                tags[_tag(got.value)] += 1
                tags["member" if inside else "outside"] += 1
        assert min(tags.values()) >= 100, tags
        # the same questions, asked cold, solve about 3.6 times the LPs (3,522 against 991)
        assert cold["fresh"] > 3.0 * cold["context"], cold

    def test_reports_equal_the_cold_reports(self, monkeypatch):
        # probes sit 2^-24 from solved levels, so a stored basis taken a
        # rounding error outside its region would move them across the band.
        # With the context's ``repose`` off no stored ray or basis answers any
        # LP, and no kept optimal basis is re-solved by dual pivots: those run
        # inside it.
        rng = np.random.default_rng(131)
        instances = list(_context_instances(rng, 10))
        checks = (lambda a, vm, s: check_domain_theorem(a, vm, trials=8, seed=s),
                  lambda a, vm, s: check_levelset_theorem(a, vm, grid=3, seed=s),
                  lambda a, vm, s: check_risk_measure_axioms(a, vm, trials=6, seed=s))
        warm = [check(a, vm, seed).to_json()
                for seed, (a, vm) in enumerate(instances) for check in checks]
        # and with linprog's own ``repose`` off, no LP is answered from its start
        monkeypatch.setattr(rm, "repose", lambda *args, **kwargs: None)
        monkeypatch.setattr(lpmod, "repose", lambda *args, **kwargs: None)
        cold = [check(a, vm, seed).to_json()
                for seed, (a, vm) in enumerate(instances) for check in checks]
        assert warm == cold

    def test_levelset_check_lp_count_of_a_fixed_instance(self, monkeypatch):
        # four VaR systems at 4 states: solved cold, this check takes 106 LPs;
        # kept rays and bases answer 101 of them. The 5 ``solve_lp`` calls are
        # each LP's first solve (4; both direct LPs answer from their start
        # with no pivot) and a witness LP first optimal where only a ray was
        # kept. The unbounded direct LP's kept basis is its start's, which
        # fits at every later position
        calls, real = [], rm.solve_lp
        monkeypatch.setattr(rm, "solve_lp", lambda *a, **kw: calls.append(1) or real(*a, **kw))
        rng = np.random.default_rng(5)
        vm = random_market(rng, n_states=4, n_risky=2)
        a = var_acceptance(vm.space, 0.3)
        report = check_levelset_theorem(a, vm, grid=3, seed=5)
        assert len(a.systems) == 4 and report.passed and report.trials == 27
        assert len(calls) == 5

    def test_one_shot_solves_repose_no_outcome_of_another_position(self, monkeypatch):
        # a one-shot call tests no ray or basis its context kept, and
        # ``solve_lp`` re-poses nothing but its matrix's start, which was
        # solved at right-hand side 0, not at any position
        starts, real = [], lpmod.repose

        def no_reuse(*args, **kwargs):
            raise AssertionError("a one-shot call re-posed a stored outcome")

        def start_only(problem, stored, tol):
            assert stored is problem._std.start
            starts.append(stored)
            return real(problem, stored, tol)

        monkeypatch.setattr(rm, "repose", no_reuse)
        monkeypatch.setattr(lpmod, "repose", start_only)
        rng = np.random.default_rng(137)
        for a, vm in _context_instances(rng, 10):
            x = rng.uniform(-5.0, 5.0, size=vm.n_states)
            solve_rho(a, vm, x), rho_reduction(a, vm, x)
        assert len(starts) >= 20

    def test_one_shot_answers_do_not_depend_on_what_was_asked_before(self):
        # the start depends on no position, so an answer is the same bits
        # whether its position is asked first (on a freshly validated copy of
        # the market), after other positions, or in reversed order
        rng = np.random.default_rng(139)
        for a, vm in _context_instances(rng, 10):
            positions = rng.uniform(-5.0, 5.0, size=(6, vm.n_states))
            first = [_answers(a, _fresh_copy(vm), x) for x in positions]
            assert first == [_answers(a, vm, x) for x in positions]
            assert first == [_answers(a, vm, x) for x in positions[::-1]][::-1]


def _template_sets(space):
    """The cone, an AVaR set and a VaR union of 15 systems, on 6 equiprobable states."""
    return (positive_cone(6), avar_acceptance(space, 0.4), var_acceptance(space, 0.35))


def _fresh_copy(vm):
    """``vm`` validated anew from copies of its data: equal arrays, another object."""
    m = vm.market
    return validate_market(Market(m.space, m.prices.copy(), m.payoffs.copy()))


def _answers(a, vm, x):
    """solve_rho's and rho_reduction's values (``float.hex``) and payoffs (bytes) at x."""
    return [(float(r.value).hex(), None if r.optimal_payoff is None else r.optimal_payoff.tobytes())
            for r in (solve_rho(a, vm, x), rho_reduction(a, vm, x))]


class TestLpTemplates:
    """One-shot calls pose each system's LP from a template kept per (system, market, kind)."""

    def test_each_matrix_standardised_once_with_unchanged_answers(self, monkeypatch):
        built, touched, real_standard, real_solve = [], [], lpmod._Standard, rm.solve_lp
        monkeypatch.setattr(lpmod, "_Standard", lambda lp: built.append(1) or real_standard(lp))
        monkeypatch.setattr(rm, "solve_lp", lambda lp, *args, **kw:
                            touched.append(lp._std) or real_solve(lp, *args, **kw))
        rng = np.random.default_rng(149)
        vm = random_market(rng, n_states=6, uniform_probs=True)
        for a in _template_sets(vm.space):
            positions = rng.uniform(-5.0, 5.0, size=(24, 6))
            built.clear(), touched.clear()
            warm = [_answers(a, vm, x) for x in positions]
            # one standard form per (system, kind) solved, direct or cash, over all 48 calls
            distinct = len({id(std) for std in touched})
            assert len(built) == distinct <= 2 * len(a.systems) and len(touched) >= 48
            # a cold template map builds the same LPs: the same bits
            assert warm == [_answers(a, _fresh_copy(vm), x) for x in positions]
        assert len(a.systems) == 15 and distinct > 2
        # the same systems on another market pose that market's LPs
        other, x = random_market(rng, n_states=6, uniform_probs=True), positions[0]
        assert _answers(a, other, x) == _answers(var_acceptance(other.space, 0.35), other, x)

    def test_templates_hold_neither_set_nor_market(self):
        rng = np.random.default_rng(151)
        vm = random_market(rng, n_states=6, uniform_probs=True)
        a = var_acceptance(vm.space, 0.35)
        _answers(a, vm, rng.uniform(-5.0, 5.0, size=6))
        system, market = weakref.ref(a.systems[0]), weakref.ref(vm)
        del a
        gc.collect()
        assert system() is None and market() is not None
        del vm
        gc.collect()
        assert market() is None

    def test_threads_answer_as_a_sequential_run(self):
        # four workers race to build the templates of one (set, market) pair
        rng = np.random.default_rng(157)
        vm = random_market(rng, n_states=6, uniform_probs=True)
        positions = rng.uniform(-5.0, 5.0, size=(12, 6))
        copy = _fresh_copy(vm)
        want = [_answers(a, copy, x) for a in _template_sets(copy.space) for x in positions]
        sets = _template_sets(vm.space)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(lambda: [_answers(a, vm, x)
                                                for a in sets for x in positions])
                           for _ in range(4)]
                got = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == [want] * 4


class TestAvarSignAsBound:
    """AVaR with u >= 0 as the sign of u answers as the row form, u >= 0 as n rows and u free."""

    def test_matches_row_form(self):
        rng = np.random.default_rng(101)
        tags = {"finite": 0, "neg_inf": 0, "pos_inf": 0}
        for n in range(2, 17):
            for kind in ("avar", "cone", "var"):
                vm = random_market(rng, n_states=n)
                alpha = float(rng.uniform(0.1, 0.9))
                avar, row_form = avar_acceptance(vm.space, alpha), _avar_row_form(vm.space, alpha)
                if kind == "avar":
                    a, choices = avar, [(row_form,)]
                elif kind == "cone":
                    a = intersect([positive_cone(n), avar])
                    choices = [(_loss_set_block(n, ()), row_form)]
                else:
                    var_alpha = float(rng.uniform(0.05, 0.25))
                    a = intersect([var_acceptance(vm.space, var_alpha), avar])
                    choices = [(_loss_set_block(n, j), row_form)
                               for j in feasible_loss_sets(vm.space, var_alpha)]
                reps = [_stack_blocks(c) for c in choices]
                # the same systems, each n rows u >= 0 shorter
                assert [rep.rows.shape[0] + n for rep in a.systems] == [r.rows.shape[0] for r in reps]
                x = rng.uniform(-5, 5, size=n)
                direct = _unpruned_scan(reps, _direct_problem(vm, x))
                cash = _unpruned_scan(reps, _cash_problem(vm, x))
                for r, (tag, _, want, _) in ((solve_rho(a, vm, x), direct),
                                             (rho_reduction(a, vm, x), cash)):
                    assert _tag(r.value) == tag
                    if tag == "finite":
                        assert abs(r.value - want) <= 1e-9 * max(1.0, abs(want))
                        assert not r.attained or a.member(x + r.optimal_payoff)
                tags[direct[0]] += 1
        assert tags["finite"] >= 20 and tags["neg_inf"] >= 5, tags


class TestDomainClassify:
    """The cash LP's value tags the position: infeasible +inf, unbounded -inf, optimal finite."""

    def test_corner_set(self, numeraire_line_market):
        oracle = MembershipOracle(corner_acceptance_r3(), numeraire_line_market)
        assert oracle.cash_lp([-1.0, 0.0, 0.0])[0] == POS_INF
        assert oracle.cash_lp([1.0, 0.0, 0.0])[0] == NEG_INF

    def test_degenerate_halfplane(self, half_price_market):
        oracle = MembershipOracle(halfspace_acceptance([1.0, 0.0]), half_price_market)
        assert oracle.cash_lp([2.0, -1.0])[0] == NEG_INF

    def test_positive_cone_finite(self, two_state_market):
        rng = np.random.default_rng(3)
        oracle = MembershipOracle(positive_cone(2), two_state_market)
        for _ in range(10):
            assert math.isfinite(oracle.cash_lp(rng.uniform(-5, 5, size=2))[0])


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
        for _ in range(30):
            x = rng.uniform(-4, 4, size=2)
            base = rho_direct_lp(a, two_state_market, x).value
            again = solve_rho(induced, two_state_market, x).value
            assert again == pytest.approx(base, abs=3 * BAND)

    def test_degenerate_raises(self, half_price_market):
        a = halfspace_acceptance([1.0, 0.0])
        with pytest.raises(DegenerateAcceptance):
            induced_rho_acceptance(a, half_price_market)

    def test_grid_set_refused(self, two_state_market):
        a = oracle_acceptance(2, lambda x: bool(np.all(x >= -1e-9)), [-1.0, 0.0])
        with pytest.raises(NotPolyhedral):
            induced_rho_acceptance(a, two_state_market)

    def test_exact_union_matches_source(self, numeraire_line_market):
        # every descriptor type and VaR intersections on 2-8 states, plus the
        # numeraire-line market, whose corner set gives +inf tags
        rng = np.random.default_rng(67)
        cases = [(numeraire_line_market, corner_acceptance_r3())]
        cases += [(numeraire_line_market, a) for a in loadable_sets(rng, numeraire_line_market.space)]
        for n in (*range(2, 9), *range(2, 9)):
            vm = random_market(rng, n_states=n)
            cases += [(vm, a) for a in loadable_sets(rng, vm.space)]
        tags, pruned, unions, points = set(), 0, 0, 0
        for vm, a in cases:
            try:
                induced = induced_rho_acceptance(a, vm)
            except DegenerateAcceptance:
                continue
            n, zero = vm.n_states, np.zeros((0, vm.n_states))
            # built here from the source: A_i + {m U + K^T c : m >= 0, c free}
            assert induced.incidence is a.incidence
            assert len(induced.systems) == len(a.systems)
            for got, rep in zip(induced.systems, a.systems):
                moves = -(rep.rows @ np.vstack([vm.numeraire, vm.kernel_basis]).T)
                signs = np.arange(moves.shape[1]) == 0
                assert np.array_equal(got.rows, rep.rows) and np.array_equal(got.rhs, rep.rhs)
                assert np.array_equal(got.aux, np.hstack([moves, rep.aux]))
                assert np.array_equal(got.aux_nonneg, np.concatenate([signs, rep.aux_nonneg]))
            unions += a.incidence is not None
            for x in rng.uniform(-5, 5, size=(2, n)):
                base = solve_rho(a, vm, x).value
                tags.add(base if not math.isfinite(base) else 0.0)
                for r in (solve_rho(induced, vm, x), rho_reduction(induced, vm, x)):
                    if math.isfinite(base) or math.isfinite(r.value):
                        assert r.value == pytest.approx(base, rel=1e-9, abs=1e-9)
                    else:
                        assert r.value == base
                    assert not r.attained or induced.member(x + r.optimal_payoff)
                    pruned += r.diagnostics.get("systems_pruned", 0) > 0
                # the union read as a set: some system holds y iff y is a member,
                # at points off the boundary rho = 0
                shifts = [0.0] if not math.isfinite(base) else [-base - 0.5, -base + 0.5]
                for y in (x + t * vm.numeraire for t in shifts + [rng.uniform(-3, 3)]):
                    level = solve_rho(a, vm, y).value
                    if math.isfinite(level) and abs(level) < 1e-6:
                        continue
                    points += 1
                    inside = any(solve_lp(rep.lp(y, zero)).status == OPTIMAL
                                 for rep in induced.systems)
                    assert inside == induced.member(y) == (level <= 0)
        assert {0.0, POS_INF} <= tags
        assert unions >= 10 and pruned > 0 and points >= 500


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
                if math.isfinite(d.value) or math.isfinite(r.value):
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
            v = rho_var_exact(a, vm, x)
            r = rho_reduction(a, vm, x)
            if math.isfinite(v.value) or math.isfinite(r.value):
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
            assert v.strategy == ("direct_lp" if len(a.systems) == 1 else "var_enum")
            if math.isfinite(v.value) or math.isfinite(r.value):
                assert v.value == pytest.approx(r.value, abs=1e-9)
            else:
                assert v.value == r.value
            for res in (v, r):
                assert not res.attained or a.member(x + res.optimal_payoff)
            finite += math.isfinite(v.value)
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
    def test_tol_validation(self, two_state_market):
        # the one solver option is the LP feasibility tolerance, which solve_lp checks
        a, x = positive_cone(2), np.array([-3.0, 0.0])
        for tol in (0.0, -1.0, float("nan"), float("inf")):
            for run in (lambda: solve_rho(a, two_state_market, x, tol),
                        lambda: rho_reduction(a, two_state_market, x, tol),
                        lambda: induced_rho_acceptance(a, two_state_market, tol),
                        lambda: check_risk_measure_axioms(a, two_state_market, trials=1,
                                                          tol=tol)):
                with pytest.raises(MalformedProblem, match="tolerances"):
                    run()

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

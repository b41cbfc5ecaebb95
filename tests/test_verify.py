"""Harness checks: positive runs on clean instances, power on broken ones."""

import dataclasses
import json
import math
from collections import Counter

import numpy as np
import pytest

from capreq.acceptance import (AcceptanceSet, PolyhedralRep, avar_acceptance,
                               halfspace_acceptance, intersect, oracle_acceptance, positive_cone,
                               var_acceptance)
from capreq.market import Market, uniform_space, validate_market
from capreq.riskmeasure import (NEG_INF, induced_rho_acceptance,
                                rho_from_membership, rho_reduction, rho_var_exact, solve_rho,
                                MembershipOracle)
from capreq.verify import (NotPolyhedral, PropertyReport, _whole_space,
                           check_degeneracy_lemmas,
                           check_directional_vs_topological,
                           check_domain_theorem, check_good_deal_lemma,
                           check_induced_set_theorem, check_levelset_theorem,
                           check_risk_measure_axioms, check_solver_agreement,
                           check_variation_lemma)
from conftest import (corner_acceptance_r3, loadable_sets, non_monotone_acceptance_r3,
                      random_market)


class TestAxioms:
    def test_positive_cone_clean(self, two_state_market):
        report = check_risk_measure_axioms(positive_cone(2), two_state_market,
                                           trials=150, seed=1)
        assert report.passed

    def test_avar_clean(self, two_state_market):
        a = avar_acceptance(uniform_space(2), 0.5)
        report = check_risk_measure_axioms(a, two_state_market, trials=100, seed=2)
        assert report.passed

    def test_non_monotone_oracle_flagged(self, numeraire_line_market):
        # membership punishes a large first coordinate: not an acceptance set
        bad = non_monotone_acceptance_r3()
        report = check_risk_measure_axioms(bad, numeraire_line_market, trials=60, seed=3)
        assert not report.passed


class TestLevelSets:
    def test_positive_cone_grid(self, two_state_market):
        report = check_levelset_theorem(positive_cone(2), two_state_market,
                                        grid=11, seed=4)
        assert report.passed
        assert report.inconclusive <= 0.05 * report.trials

    def test_var_instance(self, two_state_market):
        a = var_acceptance(uniform_space(2), 0.3)
        report = check_levelset_theorem(a, two_state_market, grid=9, seed=5)
        assert report.passed

    def test_degenerate_halfplane_all_below(self, half_price_market):
        report = check_levelset_theorem(halfspace_acceptance([1.0, 0.0]),
                                        half_price_market, grid=7, seed=6)
        assert report.passed

    def test_oracle_strategy_rejected(self, two_state_market):
        bad = oracle_acceptance(2, lambda x: bool(min(x) >= 0), [-1.0, 0.0])
        for check in (check_levelset_theorem, check_domain_theorem, check_variation_lemma,
                      check_good_deal_lemma):
            with pytest.raises(NotPolyhedral):
                check(bad, two_state_market)


class TestDomain:
    def test_positive_cone(self, two_state_market):
        report = check_domain_theorem(positive_cone(2), two_state_market,
                                      trials=120, seed=7)
        assert report.passed
        assert report.inconclusive <= 0.05 * report.trials

    def test_corner_set_split(self, numeraire_line_market):
        report = check_domain_theorem(corner_acceptance_r3(), numeraire_line_market,
                                      trials=80, seed=8)
        assert report.passed

    def test_degenerate_halfplane(self, half_price_market):
        report = check_domain_theorem(halfspace_acceptance([1.0, 0.0]),
                                      half_price_market, trials=40, seed=9)
        assert report.passed


class TestDegeneracy:
    def test_halfplane_whole_space(self, half_price_market):
        report = check_degeneracy_lemmas(halfspace_acceptance([1.0, 0.0]),
                                         half_price_market, grid=20, seed=10)
        assert report.passed
        assert "whole_space_certified=True" in report.notes

    def test_corner_set_dichotomy(self, numeraire_line_market):
        report = check_degeneracy_lemmas(corner_acceptance_r3(),
                                         numeraire_line_market, grid=20, seed=11)
        assert report.passed
        assert any("minus_numeraire_recedes=True" in n for n in report.notes)

    def test_positive_cone_control(self, two_state_market):
        report = check_degeneracy_lemmas(positive_cone(2), two_state_market,
                                         grid=20, seed=12)
        assert report.passed
        assert "whole_space_certified=False" in report.notes

    def test_avar_whole_space(self, two_state_market):
        # the pricing density (2/3, 4/3) exceeds 1/alpha somewhere, so no
        # price-consistent functional supports the set: B is everything
        report = check_degeneracy_lemmas(avar_acceptance(uniform_space(2), 0.9),
                                         two_state_market, grid=20, seed=12)
        assert report.passed
        assert "whole_space_certified=True" in report.notes

    def test_union_not_certified(self, two_state_market):
        report = check_degeneracy_lemmas(var_acceptance(uniform_space(2), 0.5),
                                         two_state_market, grid=5, seed=12)
        assert report.passed
        assert "whole_space_certified=None" in report.notes
        assert "minus_numeraire_recedes=None exact=False" in report.notes


class TestVariation:
    def test_boundary_points_change_nothing(self, two_state_market):
        report = check_variation_lemma(positive_cone(2), two_state_market,
                                       trials=40, seed=13)
        assert report.passed

    def test_trivial_enlargement(self, two_state_market):
        report = check_variation_lemma(positive_cone(2), two_state_market,
                                       trials=10, seed=14, n_boundary_points=0)
        assert report.passed

    def test_far_outside_point_detected(self, two_state_market):
        report = check_variation_lemma(positive_cone(2), two_state_market,
                                       trials=20, seed=15,
                                       extra_points=[[-40.0, -40.0]])
        assert not report.passed


def _ray_cone(d) -> AcceptanceSet:
    """{t d : t >= 0} as one system: X - t d = 0 written as two rows each, t >= 0."""
    d = np.asarray(d, dtype=float)
    n = len(d)

    def member(x: np.ndarray) -> bool:
        t = max(float(x @ d) / float(d @ d), 0.0)
        return bool(np.allclose(x, t * d, atol=1e-9))

    rep = PolyhedralRep(np.vstack([np.eye(n), -np.eye(n)]), np.concatenate([-d, d])[:, None],
                        np.zeros(2 * n), [True])
    return AcceptanceSet(dim=n, member=member, non_member=-d, kind="ray", systems=(rep,))


class TestGoodDeal:
    def test_no_arbitrage_no_witnesses(self, two_state_market):
        report = check_good_deal_lemma(positive_cone(2), two_state_market)
        assert report.passed
        assert "good_deal_found=False" in report.notes
        assert "kernel_witness_found=False" in report.notes

    def test_free_payoff_market_witnesses(self, second_coord_market):
        report = check_good_deal_lemma(positive_cone(2), second_coord_market)
        assert report.passed  # biconditional consistent: both sides witnessed
        assert "kernel_witness_found=True" in report.notes

    def test_hypothesis_guard(self, two_state_market):
        # {x0 + x1 >= -100} holds -t * numeraire for t up to 50: the
        # biconditional is skipped
        lax = AcceptanceSet(dim=2, member=lambda x: bool(x.sum() >= -100.0),
                            non_member=np.array([-200.0, 0.0]), kind="lax",
                            systems=(PolyhedralRep([[1.0, 1.0]], np.zeros((1, 0)), [-100.0]),))
        report = check_good_deal_lemma(lax, two_state_market)
        assert any("hypothesis_failed" in n for n in report.notes)
        assert report.passed and report.inconclusive == report.trials == 1

    def test_planted_ray_cone_violates(self, two_state_market):
        # the ray through -U + k holds a good deal of negative price but no
        # kernel point other than 0: it is not monotone, so the lemma fails
        vm = two_state_market
        a = _ray_cone(-vm.numeraire + vm.kernel_basis[0])
        report = check_good_deal_lemma(a, vm)
        assert [v["check"] for v in report.violations] == ["biconditional"]
        assert "good_deal_found=True" in report.notes
        assert "kernel_witness_found=False" in report.notes

    def test_lps_find_what_sampling_finds(self):
        # a 400-point sampler of kernel points and eligible payoffs: every
        # witness or good deal it finds, the LPs find too
        rng = np.random.default_rng(97)
        sampled = Counter()
        for _ in range(12):
            vm = random_market(rng, n_states=int(rng.integers(2, 6)))
            kernel, k = vm.kernel_basis, vm.kernel_basis.shape[0]
            for a in loadable_sets(rng, vm.space):
                report = check_good_deal_lemma(a, vm)
                assert report.passed and not report.inconclusive, report.notes
                for coords in rng.uniform(-3.0, 3.0, size=(400, k)):
                    point = kernel.T @ coords
                    if np.abs(point).max() > 1e-9 and a(point):
                        sampled["witness"] += 1
                        assert "kernel_witness_found=True" in report.notes, a.kind
                        break
                for coords in rng.uniform(-2.0, 2.0, size=(400, vm.dim_m)):
                    z = vm.m_basis.T @ coords
                    if np.abs(z).max() > 1e-9 and a(z) and vm.price(z) <= 1e-9:
                        sampled["deal"] += 1
                        assert "good_deal_found=True" in report.notes, a.kind
                        break
        assert sampled["witness"] and sampled["deal"], sampled


class TestInducedSet:
    def test_positive_cone(self, two_state_market):
        report = check_induced_set_theorem(positive_cone(2), two_state_market,
                                           trials=40, seed=19)
        assert report.passed

    def test_avar(self, two_state_market):
        a = avar_acceptance(uniform_space(2), 0.5)
        report = check_induced_set_theorem(a, two_state_market, trials=24, seed=20)
        assert report.passed

    def test_domain_and_levelset_on_induced_sets(self, two_state_market):
        # an induced set is a union of polyhedra, so the exact-strategy checks take it
        vm = random_market(np.random.default_rng(77), n_states=4, n_risky=1)
        for a, market in ((positive_cone(2), two_state_market),
                          (avar_acceptance(uniform_space(2), 0.5), two_state_market),
                          (var_acceptance(vm.space, 0.3), vm)):
            induced = induced_rho_acceptance(a, market)
            assert len(induced.systems) == len(a.systems)
            assert check_domain_theorem(induced, market, trials=12, seed=28).passed
            assert check_levelset_theorem(induced, market, grid=4, seed=29).passed


class TestDirectionalVsTopological:
    def test_positive_cone_coincide(self, two_state_market):
        report = check_directional_vs_topological(positive_cone(2), two_state_market,
                                                  grid=40, seed=21)
        assert report.passed
        assert "interior_condition=True" in report.notes

    def test_corner_set_hypothesis_fails(self, numeraire_line_market):
        report = check_directional_vs_topological(
            corner_acceptance_r3(), numeraire_line_market, grid=20, seed=22)
        assert report.passed  # skipped, not violated
        assert "interior_condition=False" in report.notes
        assert any("skipped" in n for n in report.notes)

    def test_avar_block_runs(self, two_state_market):
        a = avar_acceptance(uniform_space(2), 0.5)
        report = check_directional_vs_topological(a, two_state_market, grid=40, seed=21)
        assert report.passed
        assert "interior_condition=True" in report.notes
        assert report.trials == 40 and report.inconclusive < 4

    def test_union_and_oracle_sets_rejected(self, two_state_market):
        with pytest.raises(NotPolyhedral):
            check_directional_vs_topological(var_acceptance(uniform_space(2), 0.5),
                                             two_state_market)
        oracle = oracle_acceptance(2, lambda x: bool(min(x) >= 0), [-1.0, 0.0])
        with pytest.raises(NotPolyhedral):
            check_directional_vs_topological(oracle, two_state_market)


def _single_system_sets(rng: np.random.Generator, count: int):
    """(set, market) pairs of one system each on random 2-6-state markets.

    Cycles through the positive cone, AVaR, AVaR with a halfspace, and
    intersections of two to twelve dense halfspaces. Complete markets
    (kernel of dimension n - 1) with many halfspaces are where a
    Fourier-Motzkin elimination of the kernel blows up: from seed 41 it
    passes 4,000 rows on two of the 240 sets, one of them the whole space.
    """
    for i in range(count):
        n = int(rng.integers(2, 7))
        vm = random_market(rng, n_states=n, complete=bool(rng.random() < 0.5))

        def normal(density=0.6):
            return (rng.uniform(0.0, 1.0, n) * (rng.random(n) < density)
                    + np.eye(n)[rng.integers(n)])

        kind = i % 4
        if kind == 0:
            a = positive_cone(n)
        elif kind == 1:
            a = avar_acceptance(vm.space, float(rng.uniform(0.1, 1.0)))
        elif kind == 2:
            a = intersect([avar_acceptance(vm.space, float(rng.uniform(0.1, 1.0))),
                           halfspace_acceptance(normal())])
        else:
            a = intersect([halfspace_acceptance(normal(density=1.0))
                           for _ in range(int(rng.integers(2, 13)))])
        yield a, vm


class TestWholeSpace:
    """B = A + span K is the whole space: n + 1 homogenised LPs and one at 0."""

    def test_halfplane_plus_kernel_is_everything(self, half_price_market):
        a = halfspace_acceptance([1.0, 0.0])
        assert _whole_space(a.only_system, half_price_market.kernel_basis, 1e-8)

    def test_positive_cone_not_whole_space(self, two_state_market):
        a = positive_cone(2)
        assert not _whole_space(a.only_system, two_state_market.kernel_basis, 1e-8)

    def test_corner_set_not_whole_space(self, numeraire_line_market):
        # B is {x_1 >= 0}: the kernel sweeps the second axis only
        assert not _whole_space(corner_acceptance_r3().only_system,
                                numeraire_line_market.kernel_basis, 1e-8)

    def test_empty_system_not_whole_space(self, half_price_market):
        # x_1 >= 1 and -x_1 >= 1: empty, though its homogenised block plus
        # the kernel direction (1, -1) recedes along every direction
        rep = PolyhedralRep(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.zeros((2, 0)), np.ones(2))
        assert not _whole_space(rep, half_price_market.kernel_basis, 1e-8)

    def test_verdict_true_means_minus_inf_everywhere(self):
        rng = np.random.default_rng(41)
        verdicts = {True: 0, False: 0}
        for a, vm in _single_system_sets(rng, 240):
            whole = _whole_space(a.only_system, vm.kernel_basis, 1e-8)
            verdicts[whole] += 1
            if whole:
                for x in rng.uniform(-5.0, 5.0, size=(10, vm.n_states)):
                    assert solve_rho(a, vm, x).value == NEG_INF
                    assert rho_reduction(a, vm, x).value == NEG_INF
        assert min(verdicts.values()) >= 40


def _break_requirement(monkeypatch, shift):
    """Make every requirement a solve context reports ``shift(value)`` instead of its value."""
    real = MembershipOracle.requirement

    def broken(self, position):
        result = real(self, position)
        result.value = shift(result.value)
        return result

    monkeypatch.setattr(MembershipOracle, "requirement", broken)


class TestNegativeControls:
    """The harness must have power, not just soundness."""

    @pytest.mark.parametrize("shift, domain, levelset, induced", [
        (lambda v: v + 1.0, {"boundary": 20}, 10, {"idempotence": 5, "level_set": 4}),
        (lambda v: math.inf, {"domain": 20}, 39, {"idempotence": 5, "level_set": 13}),
    ], ids=["plus-one", "plus-inf"])
    def test_broken_requirement_fails_each_check(self, two_state_market, monkeypatch, shift,
                                                  domain, levelset, induced):
        # every value of this AVaR set is finite, so +1 moves the level sets
        # and +inf also breaks the domain tags
        a = avar_acceptance(uniform_space(2), 0.5)
        _break_requirement(monkeypatch, shift)
        report = check_domain_theorem(a, two_state_market, trials=20, seed=1)
        assert Counter(v["check"] for v in report.violations) == domain
        assert all((v["value"], v["cash"]) == ("pos_inf", "finite")
                   for v in report.violations if v["check"] == "domain")
        report = check_levelset_theorem(a, two_state_market, grid=5, seed=1)
        assert [v["expected"] for v in report.violations] == ["outside"] * levelset
        report = check_induced_set_theorem(a, two_state_market, trials=20, seed=1)
        assert Counter(v["check"] for v in report.violations) == induced

    def test_swapped_infinite_tags_fail_the_domain_check(self, numeraire_line_market,
                                                        monkeypatch):
        # every value the corner set takes at these 30 positions is infinite,
        # so only a check that compares the tags themselves, not finiteness, sees the swap
        a = corner_acceptance_r3()
        assert check_domain_theorem(a, numeraire_line_market, trials=30, seed=1).passed
        _break_requirement(monkeypatch, lambda v: -v if math.isinf(v) else v)
        report = check_domain_theorem(a, numeraire_line_market, trials=30, seed=1)
        assert Counter((v["check"], v["value"], v["cash"]) for v in report.violations) == {
            ("domain", "pos_inf", "neg_inf"): 15, ("domain", "neg_inf", "pos_inf"): 15}

    def test_non_monotone_set(self, numeraire_line_market):
        bad = non_monotone_acceptance_r3()
        report = check_risk_measure_axioms(bad, numeraire_line_market, trials=60, seed=23)
        assert len(report.violations) >= 1

    def test_mispriced_market(self, two_state_market):
        # tamper with the pricing covector: translation invariance must break
        tampered = dataclasses.replace(two_state_market,
                                       price_covector=1.5 * two_state_market.price_covector)
        report = check_risk_measure_axioms(positive_cone(2), tampered,
                                           trials=60, seed=24)
        assert len(report.violations) >= 1

    def test_wrong_sign_var_tie_rule(self):
        # loss sets chosen with strict probability inequality drop the
        # boundary subsets and disagree with the correct enumeration
        space = uniform_space(2)
        vm = validate_market(Market(space, [1.0, 1.0], [[1.0, 1.0], [2.0, 0.5]]))
        alpha = 0.5
        correct = lambda x: rho_var_exact(var_acceptance(space, alpha), vm, x)

        kernel = vm.kernel_basis
        cone = positive_cone(2)

        def broken_contains(y):
            # only loss sets with mass strictly below alpha: here just the
            # empty set, so membership needs all states nonnegative
            oracle = MembershipOracle(cone, vm)
            return oracle.contains(y)

        def broken(x):
            return rho_from_membership(broken_contains, vm, x, strategy="broken_tie")

        rng = np.random.default_rng(25)
        points = [rng.uniform(-4, 4, size=2) for _ in range(20)]
        report = check_solver_agreement(vm, points, correct, broken,
                                        label="var_tie_rule")
        assert len(report.violations) >= 1


class TestReportMechanics:
    def test_replayable(self, numeraire_line_market):
        bad = non_monotone_acceptance_r3()
        r1 = check_risk_measure_axioms(bad, numeraire_line_market, trials=40, seed=26)
        r2 = check_risk_measure_axioms(bad, numeraire_line_market, trials=40, seed=26)
        assert r1.to_json() == r2.to_json()
        assert not r1.passed

    def test_json_schema(self):
        report = PropertyReport("demo", trials=3, seed=7)
        doc = json.loads(report.to_json())
        assert doc["property_id"] == "demo"
        assert doc["passed"] is True
        assert doc["violations"] == []

    def test_inconclusive_fraction_small_on_random_markets(self):
        rng = np.random.default_rng(27)
        total, inconclusive = 0, 0
        for _ in range(6):
            vm = random_market(rng, n_states=int(rng.integers(2, 5)))
            a = positive_cone(vm.n_states)
            report = check_levelset_theorem(a, vm, grid=7, seed=int(rng.integers(1e6)))
            assert report.passed
            total += report.trials
            inconclusive += report.inconclusive
        assert inconclusive <= 0.05 * total

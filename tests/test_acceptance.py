"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single PASS line on success (run with -s to see them);
pytest's own report gives the per-criterion pass/fail status either way.
"""

import math
import time

import numpy as np
import pytest

from capreq.acceptance import (avar_acceptance, compute_avar, compute_var,
                               halfspace_acceptance, positive_cone, var_acceptance)
from capreq.market import (Market, ScenarioSpace, check_monotone_pricing,
                           check_no_arbitrage, uniform_space, validate_market)
from capreq.riskmeasure import (MembershipOracle, NEG_INF, POS_INF, rho_direct_lp, rho_from_membership,
                                rho_reduction, rho_var_exact, solve_rho)
from capreq.verify import (check_domain_theorem, check_levelset_theorem,
                           check_risk_measure_axioms, check_solver_agreement)
from conftest import (corner_acceptance_r3, non_monotone_acceptance_r3,
                      planted_free_lunch_market, random_market)
from test_acceptance_sets import avar_quadrature_oracle, var_curve

TOL_EQUIV = 1e-5


def _report(criterion: int, text: str) -> None:
    print(f"[acceptance criterion {criterion}] PASS - {text}")


def _values_agree(a: float, b: float, tol: float) -> bool:
    if math.isfinite(a) and math.isfinite(b):
        return abs(a - b) <= tol
    return a == b


def test_criterion_1_strategy_equivalence():
    rng = np.random.default_rng(1001)
    start = time.time()

    checked = 0
    for _ in range(260):
        vm = random_market(rng)
        x = rng.uniform(-5, 5, size=vm.n_states)
        a = positive_cone(vm.n_states)
        d, r = rho_direct_lp(a, vm, x), rho_reduction(a, vm, x)
        assert _values_agree(d.value, r.value, TOL_EQUIV), (d.value, r.value)
        checked += 1

    for _ in range(260):
        vm = random_market(rng)
        x = rng.uniform(-5, 5, size=vm.n_states)
        a = avar_acceptance(vm.space, float(rng.uniform(0.2, 0.8)))
        d, r = rho_direct_lp(a, vm, x), rho_reduction(a, vm, x)
        assert _values_agree(d.value, r.value, TOL_EQUIV), (d.value, r.value)
        checked += 1

    var_checked = 0
    for _ in range(160):
        n = int(rng.integers(2, 7))
        vm = random_market(rng, n_states=n, n_risky=1)
        alpha = float(rng.uniform(1.0 / n, 2.0 / n))
        x = rng.uniform(-5, 5, size=n)
        a = var_acceptance(vm.space, alpha)
        v, r = rho_var_exact(a, vm, x), rho_reduction(a, vm, x)
        assert _values_agree(v.value, r.value, TOL_EQUIV), (v.value, r.value)
        var_checked += 1

    elapsed = time.time() - start
    assert checked >= 500
    assert elapsed <= 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    _report(1, f"{checked} polyhedral + {var_checked} quantile instances agree "
               f"within {TOL_EQUIV} in {elapsed:.1f}s")


def test_criterion_2_risk_measure_axioms():
    rng = np.random.default_rng(1002)
    families = {
        "positive_cone": lambda vm: positive_cone(vm.n_states),
        "var": lambda vm: var_acceptance(vm.space, float(rng.uniform(0.3, 0.6))),
        "avar": lambda vm: avar_acceptance(vm.space, float(rng.uniform(0.2, 0.8))),
    }
    for family, build in families.items():
        trials_done = 0
        violations = 0
        while trials_done < 1000:
            if family == "var":
                vm = random_market(rng, n_states=int(rng.integers(2, 4)), n_risky=1)
            else:
                vm = random_market(rng, n_states=int(rng.integers(2, 6)))
            a = build(vm)
            report = check_risk_measure_axioms(a, vm, trials=50,
                                               seed=int(rng.integers(2 ** 31)),
                                               band=TOL_EQUIV)
            violations += len(report.violations)
            trials_done += report.trials
        assert violations == 0, f"{family}: {violations} axiom violations"
    _report(2, "monotonicity and translation invariance clean over "
               "1000 trials per family (tolerance 1e-5, infinite tags exact)")


def test_criterion_3_levelset_theorem():
    space = uniform_space(2)
    vm = validate_market(Market(space, [1.0, 1.0], [[1.0, 1.0], [2.0, 0.5]]))
    instances = [
        ("positive_cone", positive_cone(2)),
        ("avar", avar_acceptance(space, 0.5)),
        ("var", var_acceptance(space, 0.3)),
    ]
    for label, a in instances:
        report = check_levelset_theorem(a, vm, grid=21, seed=1003)
        assert report.passed, f"{label}: {report.violations[:3]}"
        assert report.inconclusive <= 0.05 * report.trials, (
            f"{label}: {report.inconclusive}/{report.trials} inconclusive")
    _report(3, "level-set identities hold on 21x21 grids, 3 levels, "
               "polyhedral + quantile instances, <=5% inconclusive")


def test_criterion_4_paper_counterexamples():
    # degenerate halfplane: requirement identically -inf on every probe
    space = uniform_space(2)
    vm_half = validate_market(Market(space, [1.0, 0.5], [[1.0, 1.0], [1.0, 0.0]]))
    a_half = halfspace_acceptance([1.0, 0.0])
    rng = np.random.default_rng(1004)
    for _ in range(40):
        x = rng.uniform(-6, 6, size=2)
        assert rho_direct_lp(a_half, vm_half, x).value == NEG_INF
        assert rho_reduction(a_half, vm_half, x).value == NEG_INF

    # corner set in three states: tags split exactly by the first coordinate
    space3 = uniform_space(3)
    vm_corner = validate_market(Market(space3, [0.0, 1.0],
                                       [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
                                require_secure=False, numeraire=[0.0, 0.0, 1.0])
    a_corner = corner_acceptance_r3()
    for _ in range(40):
        x = rng.uniform(-6, 6, size=3)
        expected = NEG_INF if x[0] >= 0 else POS_INF
        assert rho_direct_lp(a_corner, vm_corner, x).value == expected
        assert rho_reduction(a_corner, vm_corner, x).value == expected

    # market pricing the second coordinate: a free lottery, yet monotone
    vm_second = validate_market(Market(space, [1.0, 1.0], [[1.0, 1.0], [0.0, 1.0]]))
    arb = check_no_arbitrage(vm_second)
    assert arb.kind == "free_lottery" and arb.free_lottery
    monotone, _ = check_monotone_pricing(vm_second)
    assert monotone
    _report(4, "degenerate halfplane, corner-set split, and free-lottery-"
               "yet-monotone market reproduced exactly")


def test_criterion_5_finiteness_theorem():
    rng = np.random.default_rng(1005)
    trials_done = 0
    violations = 0
    inconclusive = 0
    while trials_done < 500:
        vm = random_market(rng, n_states=int(rng.integers(2, 6)))
        if rng.uniform() < 0.5:
            a = positive_cone(vm.n_states)
        else:
            a = avar_acceptance(vm.space, float(rng.uniform(0.3, 0.8)))
        report = check_domain_theorem(a, vm, trials=50,
                                      seed=int(rng.integers(2 ** 31)))
        violations += len(report.violations)
        inconclusive += report.inconclusive
        trials_done += report.trials
    assert violations == 0
    assert inconclusive <= 0.05 * trials_done
    _report(5, f"domain characterization clean over {trials_done} trials, "
               f"boundary consistency {100 * (1 - inconclusive / trials_done):.1f}%")


def test_criterion_6_arbitrage_detector():
    rng = np.random.default_rng(1006)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        vm = random_market(rng, n_states=n, complete=True)
        # planted state prices are recoverable exactly in a complete market
        planted = np.linalg.solve(vm.market.payoffs, vm.market.prices)
        rep = check_no_arbitrage(vm)
        assert rep.kind == "none"
        assert np.abs(rep.state_prices - planted).max() <= 1e-6

    for _ in range(200):
        vm, margin = planted_free_lunch_market(rng)
        rep = check_no_arbitrage(vm)
        assert rep.free_lunch, "planted free lunch missed"
        x = rep.lunch_witness
        assert float(vm.market.prices @ x) < -1e-8
        assert np.all(vm.market.payoffs.T @ x >= -1e-8)
    _report(6, "200 planted state-price vectors recovered to 1e-6; "
               "200 planted free lunches witnessed")


def test_criterion_7_avar_oracle_cross_check():
    rng = np.random.default_rng(1007)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        probs = rng.uniform(0.2, 1.0, size=n)
        probs /= probs.sum()
        space = ScenarioSpace(tuple(f"s{i}" for i in range(n)), probs)
        x = rng.uniform(-1.0, 1.0, size=n)
        alpha = float(rng.uniform(0.2, 0.8))
        exact = compute_avar(space, x, alpha)
        quad = avar_quadrature_oracle(space, x, alpha, points=10_000)
        worst = max(worst, abs(exact - quad))
        assert abs(exact - quad) <= 1e-4
        # the vectorized quantile curve must agree with the scalar definition
        for s in rng.uniform(0.01, 0.99, size=5):
            assert var_curve(space, x, [s])[0] == pytest.approx(
                compute_var(space, x, float(s)), abs=1e-12)

    for _ in range(200):
        n = int(rng.integers(2, 9))
        space = uniform_space(n)
        x = rng.uniform(-5.0, 5.0, size=n)
        alpha = float(rng.uniform(0.1, 0.9))
        m = float(rng.uniform(-5.0, 5.0))
        assert abs(compute_avar(space, x + m, alpha)
                   - (compute_avar(space, x, alpha) - m)) <= 1e-12
    _report(7, f"staircase vs 10^4-point quadrature worst gap {worst:.2e} "
               "(<= 1e-4); cash invariance exact to 1e-12")


def test_criterion_8_negative_controls(numeraire_line_market):
    space = uniform_space(2)
    vm = validate_market(Market(space, [1.0, 1.0], [[1.0, 1.0], [2.0, 0.5]]))

    # (a) non-monotone set: one polyhedron that caps the first coordinate
    broken_set = non_monotone_acceptance_r3()
    rep_a = check_risk_measure_axioms(
        broken_set, numeraire_line_market, trials=60, seed=1008)
    assert len(rep_a.violations) >= 1

    # (b) mispriced market (tampered pricing covector)
    import dataclasses
    tampered = dataclasses.replace(vm, price_covector=1.5 * vm.price_covector)
    rep_b = check_risk_measure_axioms(positive_cone(2), tampered,
                                      trials=60, seed=1009)
    assert len(rep_b.violations) >= 1

    # (c) wrong-sign tie rule in the quantile solver: strict inequality drops
    # the boundary loss sets, so the two routes must disagree
    alpha = 0.5
    cone_oracle = MembershipOracle(positive_cone(2), vm)

    def broken(x):
        return rho_from_membership(cone_oracle.contains, vm, x, strategy="strict_tie")

    rng = np.random.default_rng(1010)
    points = [rng.uniform(-4, 4, size=2) for _ in range(20)]
    rep_c = check_solver_agreement(vm, points,
                                   lambda x: rho_var_exact(var_acceptance(vm.space, alpha), vm, x),
                                   broken, label="var_tie_rule")
    assert len(rep_c.violations) >= 1
    _report(8, "all three broken fixtures flagged "
               f"({len(rep_a.violations)}/{len(rep_b.violations)}/"
               f"{len(rep_c.violations)} violations)")

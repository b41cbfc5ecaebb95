"""Market validation, pricing, kernel structure, arbitrage diagnostics."""

import json

import numpy as np
import pytest

from capreq.market import (BadNumeraire, BadSecureAsset, Market, MarketError,
                           MarketParseError, RankDeficient, NotInSpan,
                           ScenarioSpace, check_monotone_pricing,
                           check_no_arbitrage, kernel_basis, load_market,
                           uniform_space, validate_market)
from conftest import random_market


class TestScenarioSpace:
    def test_valid(self):
        sp = ScenarioSpace(("a", "b", "c"), [0.2, 0.3, 0.5])
        assert sp.n == 3

    def test_rejects_bad_probs(self):
        with pytest.raises(MarketError):
            ScenarioSpace(("a", "b"), [0.5, 0.6])
        with pytest.raises(MarketError):
            ScenarioSpace(("a", "b"), [1.0, 0.0])
        with pytest.raises(MarketError):
            ScenarioSpace(("a",), [1.0])


class TestValidateMarket:
    def test_two_asset_market(self, two_state_market):
        vm = two_state_market
        assert vm.dim_m == 2
        assert vm.kernel_basis.shape == (1, 2)

    def test_rank_deficient_rejected(self):
        sp = uniform_space(2)
        with pytest.raises(RankDeficient):
            validate_market(Market(sp, [1.0, 2.0], [[1, 1], [2, 2]]))

    def test_bad_secure_asset(self):
        sp = uniform_space(2)
        with pytest.raises(BadSecureAsset):
            validate_market(Market(sp, [1.0, 1.0], [[1, 2], [2, 0.5]]))
        with pytest.raises(BadSecureAsset):
            validate_market(Market(sp, [0.9, 1.0], [[1, 1], [2, 0.5]]))

    def test_caller_numeraire_accepted(self):
        sp = uniform_space(2)
        raw = Market(sp, [1.0, 1.0], [[1, 1], [2, 0.5]])
        vm = validate_market(raw, numeraire=[1.0, 1.0])
        assert vm.price(vm.numeraire) == pytest.approx(1.0)

    def test_bad_numeraire_rejected(self, two_state_market):
        raw = two_state_market.market
        with pytest.raises(BadNumeraire):
            validate_market(raw, numeraire=[-1.0, 2.0])   # negative component
        with pytest.raises(BadNumeraire):
            validate_market(raw, numeraire=[2.0, 2.0])    # priced 2, not 1

    def test_too_few_assets(self):
        sp = uniform_space(2)
        with pytest.raises(MarketError):
            validate_market(Market(sp, [1.0], [[1.0, 1.0]]))

    def test_no_secure_asset_needs_numeraire(self):
        sp = uniform_space(3)
        raw = Market(sp, [0.0, 1.0], [[0, 1, 0], [0, 0, 1]])
        with pytest.raises(BadNumeraire):
            validate_market(raw, require_secure=False)
        vm = validate_market(raw, require_secure=False, numeraire=[0, 0, 1.0])
        assert vm.dim_m == 2


class TestPricing:
    def test_secure_prices_to_one(self, two_state_market):
        assert two_state_market.price(np.ones(2)) == pytest.approx(1.0)

    def test_zero_prices_to_zero(self, two_state_market):
        assert two_state_market.price(np.zeros(2)) == pytest.approx(0.0)

    def test_risky_payoff_price(self, two_state_market):
        assert two_state_market.price([2.0, 0.5]) == pytest.approx(1.0)

    def test_not_in_span(self, numeraire_line_market):
        with pytest.raises(NotInSpan):
            numeraire_line_market.price([1.0, 0.0, 0.0])

    def test_in_m(self, two_state_market):
        vm = two_state_market
        assert vm.in_m(vm.numeraire)
        assert vm.in_m(3.0 * np.ones(2) - 2.0 * np.array([2.0, 0.5]))

    def test_not_in_m_orthogonal(self, numeraire_line_market):
        vm = numeraire_line_market
        # first axis is orthogonal to the span {0} x R x R
        assert not vm.in_m([1.0, 0.0, 0.0])


class TestKernel:
    def test_half_price_kernel_direction(self, half_price_market):
        # price = (z1 + z2) / 2, so the kernel is spanned by (1, -1)
        (k,) = kernel_basis(half_price_market)
        assert abs(k[0] + k[1]) < 1e-9
        assert abs(k[0]) > 0.1

    def test_numeraire_line_kernel(self, numeraire_line_market):
        (k,) = kernel_basis(numeraire_line_market)
        assert abs(abs(k[1]) - 1.0) < 1e-9
        assert abs(k[0]) < 1e-12 and abs(k[2]) < 1e-9

    def test_kernel_prices_to_zero(self, two_state_market):
        for k in kernel_basis(two_state_market):
            assert two_state_market.price(k) == pytest.approx(0.0, abs=1e-9)

    def test_kernel_dimension(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            vm = random_market(rng)
            assert vm.kernel_basis.shape[0] == vm.dim_m - 1


class TestArbitrage:
    def test_state_prices_recovered(self, two_state_market):
        rep = check_no_arbitrage(two_state_market)
        assert rep.kind == "none"
        assert rep.state_prices == pytest.approx([1.0 / 3.0, 2.0 / 3.0], abs=1e-7)

    def test_second_coord_market_free_lottery(self, second_coord_market):
        rep = check_no_arbitrage(second_coord_market)
        assert rep.kind == "free_lottery"
        assert rep.free_lottery and not rep.free_lunch
        payoff = second_coord_market.market.payoffs.T @ rep.lottery_witness
        assert np.all(payoff >= -1e-9)
        assert second_coord_market.market.prices @ rep.lottery_witness <= 1e-9
        assert payoff.max() > 1e-6

    def test_free_lunch_detected(self):
        sp = uniform_space(2)
        vm = validate_market(Market(sp, [1.0, 0.5], [[1, 1], [1.2, 1.0]]))
        rep = check_no_arbitrage(vm)
        assert rep.kind == "free_lunch"
        x = rep.lunch_witness
        assert vm.market.prices @ x < -1e-8
        assert np.all(vm.market.payoffs.T @ x >= -1e-9)


class TestMonotonePricing:
    def test_arbitrage_free_is_monotone(self, two_state_market):
        ok, witness = check_monotone_pricing(two_state_market)
        assert ok and witness is None

    def test_second_coord_market_monotone_despite_lottery(self, second_coord_market):
        ok, _ = check_monotone_pricing(second_coord_market)
        assert ok

    def test_free_lunch_market_not_monotone(self):
        sp = uniform_space(2)
        vm = validate_market(Market(sp, [1.0, 0.5], [[1, 1], [1.2, 1.0]]))
        ok, witness = check_monotone_pricing(vm)
        assert not ok
        assert np.all(witness >= -1e-7)
        assert vm.price(witness) < 0


    def test_verdict_matches_state_prices_on_complete_markets(self):
        # complete markets have unique state prices; pricing is monotone iff all are >= 0
        rng = np.random.default_rng(61)
        verdicts = set()
        for _ in range(300):
            n = int(rng.integers(2, 5))
            psi = rng.uniform(-0.4, 1.0, size=n)
            if psi.sum() < 0.1:
                continue
            psi /= psi.sum()
            payoffs = np.vstack([np.ones(n), rng.uniform(-2.0, 5.0, size=(n - 1, n))])
            if np.linalg.cond(payoffs) > 1e6:
                continue
            prices = payoffs @ psi
            prices[0] = 1.0
            vm = validate_market(Market(uniform_space(n), prices, payoffs))
            truth = np.linalg.solve(payoffs, prices)
            if abs(truth.min()) < 1e-6:
                continue
            ok, witness = check_monotone_pricing(vm)
            assert ok == bool(truth.min() >= 0)
            if not ok:
                assert np.all(witness >= -1e-7)
                assert vm.price(witness) < 0
            verdicts.add(ok)
        assert verdicts == {True, False}


class TestMarketInvariants:
    def test_price_monotone_on_random_pairs(self):
        rng = np.random.default_rng(5)
        pairs = 0
        while pairs < 1000:
            vm = random_market(rng)
            for _ in range(25):
                z1 = vm.m_basis.T @ rng.uniform(-2, 2, size=vm.dim_m)
                bump = float(rng.uniform(0.0, 3.0))
                z2 = z1 + bump * vm.numeraire
                if rng.uniform() < 0.5:
                    # also try adding a nonnegative eligible payoff when one shows up
                    cand = vm.m_basis.T @ rng.uniform(-2, 2, size=vm.dim_m)
                    if np.all(cand >= 0):
                        z2 = z1 + cand
                assert vm.price(z2) >= vm.price(z1) - 1e-8
                pairs += 1

    def test_state_price_consistency(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            vm = random_market(rng)
            rep = check_no_arbitrage(vm)
            assert rep.kind == "none"
            psi = rep.state_prices
            for _ in range(20):
                z = vm.m_basis.T @ rng.uniform(-3, 3, size=vm.dim_m)
                assert vm.price(z) == pytest.approx(float(psi @ z), abs=1e-8)

    def test_same_price_hyperplane_structure(self):
        # payoffs priced m form m * numeraire + kernel
        rng = np.random.default_rng(7)
        for _ in range(25):
            vm = random_market(rng)
            for _ in range(40):
                m = float(rng.uniform(-4, 4))
                k = vm.kernel_basis.T @ rng.uniform(-3, 3, size=vm.kernel_basis.shape[0])
                assert vm.price(m * vm.numeraire + k) == pytest.approx(m, abs=1e-9)

    def test_law_of_one_price_two_solve_paths(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            vm = random_market(rng)
            for _ in range(40):
                z = vm.m_basis.T @ rng.uniform(-3, 3, size=vm.dim_m)
                assert vm.price(z) == pytest.approx(vm.price_by_portfolio(z), abs=1e-9)


GOOD_DOC = {
    "states": [{"label": "u", "prob": 0.5}, {"label": "d", "prob": 0.5}],
    "assets": [
        {"name": "secure", "price": 1.0, "payoff": [1, 1]},
        {"name": "stock", "price": 1.0, "payoff": [2, 0.5]},
    ],
}


class TestMarketJson:
    def test_round_trip(self):
        raw, numeraire = load_market(json.dumps(GOOD_DOC))
        vm = validate_market(raw)
        assert numeraire is None
        assert vm.n_states == 2

    def test_numeraire_field(self):
        doc = dict(GOOD_DOC)
        doc["numeraire"] = [1.0, 1.0]
        _, numeraire = load_market(json.dumps(doc))
        assert numeraire == pytest.approx([1.0, 1.0])

    def test_rejects_nan(self):
        text = json.dumps(GOOD_DOC).replace("0.5}", "NaN}", 1)
        with pytest.raises(MarketParseError):
            load_market(text)

    def test_rejects_bad_prob_sum(self):
        doc = json.loads(json.dumps(GOOD_DOC))
        doc["states"][0]["prob"] = 0.51
        with pytest.raises(MarketParseError):
            load_market(json.dumps(doc))

    def test_renormalizes_tiny_drift(self):
        doc = json.loads(json.dumps(GOOD_DOC))
        doc["states"][0]["prob"] = 0.5 + 2e-10
        raw, _ = load_market(json.dumps(doc))
        assert raw.space.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_negative_prob(self):
        doc = json.loads(json.dumps(GOOD_DOC))
        doc["states"][0]["prob"] = -0.5
        doc["states"][1]["prob"] = 1.5
        with pytest.raises(MarketParseError):
            load_market(json.dumps(doc))

    def test_rejects_malformed_json(self):
        with pytest.raises(MarketParseError):
            load_market("{not json")

    def test_rejects_non_numeric_numeraire(self):
        for numeraire in ("abc", 5, [1.0, "x"], [1.0, None]):
            doc = dict(GOOD_DOC, numeraire=numeraire)
            with pytest.raises(MarketParseError):
                load_market(json.dumps(doc))

    def test_rejects_wrong_payoff_length(self):
        doc = json.loads(json.dumps(GOOD_DOC))
        doc["assets"][1]["payoff"] = [1.0]
        with pytest.raises(MarketParseError):
            load_market(json.dumps(doc))

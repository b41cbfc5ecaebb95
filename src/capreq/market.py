"""One-period market of eligible assets on a finite state space.

An asset is a (price, payoff-across-states) pair; asset 0 is by convention
the secure asset paying one unit in every state at price one (zero interest).
The payoffs span the space of eligible movements, on which the Law of One
Price induces a linear pricing functional. This module validates a raw
market, exposes pricing / span membership / kernel structure, and runs the
arbitrage diagnostics (free lunch, free lottery, state prices).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import CapreqError, UsageError
from .linprog import OPTIMAL, make_problem, solve_lp

PROB_SUM_TOL = 1e-12
PARSER_PROB_TOL = 1e-9
PRICE_TOL = 1e-9
RANK_REL_TOL = 1e-9
STRICT_PSI_TOL = 1e-8


class MarketError(CapreqError, ValueError):
    """Base class for market validation failures."""


class RankDeficient(MarketError):
    """Eligible payoffs are linearly dependent."""


class BadSecureAsset(MarketError):
    """Asset 0 is not the unit-price, all-ones payoff."""


class BadNumeraire(MarketError):
    """Supplied numeraire is negative somewhere, outside the span, or not priced 1."""


class NotInSpan(MarketError):
    """Payoff is not an eligible payoff (not in the span of asset payoffs)."""


class MarketParseError(UsageError):
    """Market file is malformed."""


@dataclass(frozen=True)
class ScenarioSpace:
    """Finite probability space: state labels plus strictly positive weights."""

    labels: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", p)
        if len(self.labels) != p.shape[0] or p.ndim != 1:
            raise MarketError("labels and probabilities must have equal length")
        if p.shape[0] < 2:
            raise MarketError("need at least two states")
        if not np.all(np.isfinite(p)) or np.any(p <= 0):
            raise MarketError("state probabilities must be strictly positive")
        if abs(float(p.sum()) - 1.0) > PROB_SUM_TOL:
            raise MarketError("state probabilities must sum to one")

    @property
    def n(self) -> int:
        return len(self.labels)


def uniform_space(n: int) -> ScenarioSpace:
    return ScenarioSpace(tuple(f"s{i}" for i in range(n)), np.full(n, 1.0 / n))


@dataclass(frozen=True)
class Market:
    """Raw market: prices and payoff matrix of the eligible assets (row i = asset i)."""

    space: ScenarioSpace
    prices: np.ndarray
    payoffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "prices", np.asarray(self.prices, dtype=float))
        object.__setattr__(self, "payoffs", np.asarray(self.payoffs, dtype=float))
        if self.payoffs.ndim != 2:
            raise MarketError("payoffs must be a matrix (assets x states)")
        if self.payoffs.shape != (self.prices.shape[0], self.space.n):
            raise MarketError("prices/payoffs/states dimensions disagree")
        if not (np.all(np.isfinite(self.prices)) and np.all(np.isfinite(self.payoffs))):
            raise MarketError("prices and payoffs must be finite")

    @property
    def n_states(self) -> int:
        return self.space.n

    @property
    def n_assets(self) -> int:
        return self.prices.shape[0]


@dataclass(frozen=True)
class ValidatedMarket:
    """Market with derived structure: span basis, pricing covector, kernel, numeraire.

    ``m_basis`` has orthonormal rows spanning the eligible payoffs;
    ``price_covector[i]`` is the price of basis payoff i, so any eligible
    payoff Z prices to ``price_covector @ (m_basis @ Z)``. ``kernel_basis``
    rows are orthonormal, eligible and priced zero; there are dim(M) - 1 of
    them. ``numeraire`` is a nonnegative eligible payoff of price one.
    """

    market: Market
    m_basis: np.ndarray
    price_covector: np.ndarray
    kernel_basis: np.ndarray
    numeraire: np.ndarray

    @property
    def space(self) -> ScenarioSpace:
        return self.market.space

    @property
    def n_states(self) -> int:
        return self.market.n_states

    @property
    def dim_m(self) -> int:
        return self.m_basis.shape[0]

    def _payoff(self, payoff) -> np.ndarray:
        z = np.asarray(payoff, dtype=float)
        if z.shape != (self.n_states,):
            raise MarketError(f"payoff needs shape ({self.n_states},), got {z.shape}")
        return z

    def project(self, payoff) -> np.ndarray:
        z = self._payoff(payoff)
        return self.m_basis.T @ (self.m_basis @ z)

    def in_m(self, payoff, tol: float = 1e-9) -> bool:
        """True iff the payoff lies in the eligible span (sup-norm residual test)."""
        z = self._payoff(payoff)
        return float(np.abs(z - self.project(z)).max()) <= tol

    def price(self, payoff, tol: float = 1e-9) -> float:
        """Price of an eligible payoff via the unique replicating portfolio."""
        z = self._payoff(payoff)
        if not self.in_m(z, tol):
            raise NotInSpan("payoff is not in the span of eligible payoffs")
        return float(self.price_covector @ (self.m_basis @ z))

    def price_by_portfolio(self, payoff, tol: float = 1e-9) -> float:
        """Independent pricing path: least-squares replication against asset payoffs."""
        z = self._payoff(payoff)
        x = self.portfolio_for(z)
        if float(np.abs(self.market.payoffs.T @ x - z).max()) > max(tol, 1e-9):
            raise NotInSpan("payoff is not replicable")
        return float(self.market.prices @ x)

    def portfolio_for(self, payoff) -> np.ndarray:
        x, *_ = np.linalg.lstsq(self.market.payoffs.T, self._payoff(payoff), rcond=None)
        return x


def validate_market(raw: Market, tol: float = 1e-9, numeraire=None,
                    require_secure: bool = True) -> ValidatedMarket:
    """Check structural invariants and derive the pricing machinery.

    Full row rank of the payoff matrix makes the portfolio-to-payoff map
    injective, so the Law of One Price holds automatically. With
    ``require_secure`` (the default), asset 0 must be the all-ones payoff at
    price 1 and the numeraire defaults to it; markets without a secure asset
    (used by some structural counterexamples) must supply a numeraire
    explicitly.
    """
    n_assets, n_states = raw.n_assets, raw.n_states
    if not 1 < n_assets <= n_states:
        raise MarketError(f"need 1 < assets <= states, got {n_assets} assets, {n_states} states")

    if require_secure:
        if not np.allclose(raw.payoffs[0], 1.0, atol=tol) or abs(raw.prices[0] - 1.0) > tol:
            raise BadSecureAsset("asset 0 must pay 1 in every state at price 1")

    u_mat, svals, vt = np.linalg.svd(raw.payoffs, full_matrices=False)
    rank = int(np.sum(svals > RANK_REL_TOL * svals[0]))
    if rank < n_assets:
        raise RankDeficient("eligible payoffs are linearly dependent")

    m_basis = vt[:n_assets]
    # price of each basis payoff: replicate exactly (payoffs full rank)
    coords = np.linalg.solve(
        (raw.payoffs @ raw.payoffs.T), raw.payoffs @ m_basis.T
    )  # asset weights replicating each basis vector
    price_covector = raw.prices @ coords

    # kernel of the pricing functional inside the span, in basis coordinates
    norm = float(np.linalg.norm(price_covector))
    if norm <= tol:
        raise MarketError("pricing functional vanishes on the span")
    cu, csv, cvt = np.linalg.svd(price_covector.reshape(1, -1), full_matrices=True)
    null_coords = cvt[1:]
    kern = null_coords @ m_basis

    if numeraire is None:
        if not require_secure:
            raise BadNumeraire("markets without a secure asset need an explicit numeraire")
        u = np.ones(n_states)
    else:
        u = np.asarray(numeraire, dtype=float)
        if u.shape != (n_states,):
            raise BadNumeraire("numeraire has wrong length")
        if np.any(u < -tol):
            raise BadNumeraire("numeraire must be nonnegative in every state")
        u = np.maximum(u, 0.0)

    vm = ValidatedMarket(raw, m_basis, price_covector, kern, u)
    if not vm.in_m(u, max(tol, 1e-9)):
        raise BadNumeraire("numeraire is not an eligible payoff")
    if abs(vm.price(u) - 1.0) > PRICE_TOL:
        raise BadNumeraire("numeraire must be priced 1")
    resid = np.abs(vm.price_covector @ (vm.m_basis @ kern.T)).max(initial=0.0)
    if resid > PRICE_TOL:
        raise MarketError("kernel construction failed price-zero check")
    return vm


@dataclass(frozen=True)
class ArbitrageReport:
    """Diagnostics from the no-arbitrage test.

    ``kind`` is "none", "free_lunch" or "free_lottery". When the market has
    both kinds of arbitrage, both flags are set and ``kind`` reports the free
    lunch (the strictly-negative-cost one); each witness is kept separately.
    """

    kind: str
    state_prices: np.ndarray | None = None
    witness: np.ndarray | None = None
    free_lunch: bool = False
    free_lottery: bool = False
    lunch_witness: np.ndarray | None = None
    lottery_witness: np.ndarray | None = None
    min_state_price: float | None = None


def _box_lp(objective: np.ndarray, rows: np.ndarray):
    """(min value, minimiser) of objective @ x s.t. rows @ x >= 0 over |x|_inf <= 1, or None.

    The box is posed in nonnegative columns: x = u - 1 with 0 <= u <= 2,
    so the rows read rows @ u >= rows @ 1, and the rows -u >= -2 follow
    them.
    """
    k = rows.shape[1]
    lhs = np.vstack([rows, -np.eye(k)])
    rhs = np.concatenate([rows @ np.ones(k), np.full(k, -2.0)])
    out = solve_lp(make_problem(objective, lhs, rhs, np.ones(k, dtype=bool)))
    if out.status != OPTIMAL:
        return None
    return out.objective_value - objective.sum(), out.x - 1.0


def check_no_arbitrage(vm: ValidatedMarket, tol: float = STRICT_PSI_TOL) -> ArbitrageReport:
    """Search for strictly positive state prices; otherwise produce witnesses.

    State prices psi solve payoffs @ psi = prices, posed as the opposite
    rows payoffs @ psi >= prices and -payoffs @ psi >= -prices; the LP
    maximizes the minimum component t, capped at t <= 1 to stay bounded on
    degenerate spans and posed as t = 1 - s with s >= 0, and the market is
    arbitrage-free iff that optimum is strictly positive. Otherwise two
    witness LPs run over the portfolio box |x|_inf <= 1 (``_box_lp``):
    cheapest nonnegative payoff (free lunch when cost < -tol) and
    most-probable gain at nonpositive cost, the row -prices @ x >= 0
    (free lottery when > tol).
    """
    s0, s1 = vm.market.prices, vm.market.payoffs
    n_assets, n = s1.shape

    # variables (psi_1..psi_n free, s >= 0): min s  s.t. +-S1 psi >= +-S0, psi_omega + s >= 1
    lhs = np.zeros((2 * n_assets + n, n + 1))
    lhs[:, :n] = np.vstack([s1, -s1, np.eye(n)])
    lhs[2 * n_assets:, n] = 1.0
    rhs = np.concatenate([s0, -s0, np.ones(n)])
    out = solve_lp(make_problem(np.eye(n + 1)[n], lhs, rhs, np.arange(n + 1) == n))
    if out.status == OPTIMAL and 1.0 - out.objective_value > tol:
        psi = out.x[:n]
        return ArbitrageReport(kind="none", state_prices=psi,
                               min_state_price=float(psi.min()))

    lunch = _box_lp(s0, s1.T)
    lunch_x = lunch[1] if lunch is not None and lunch[0] < -tol else None

    p = vm.space.probs
    # max p . (S1^T x) at cost s0 . x <= 0
    lottery = _box_lp(-(s1 @ p), np.vstack([s1.T, -s0.reshape(1, -1)]))
    lottery_x = lottery[1] if lottery is not None and -lottery[0] > tol else None

    if lunch_x is None and lottery_x is None:
        # tolerance gap: no strict state prices, yet no witness above threshold
        psi = out.x[:n] if out.status == OPTIMAL else None
        return ArbitrageReport(kind="none", state_prices=psi,
                               min_state_price=float(psi.min()) if psi is not None else None)
    kind = "free_lunch" if lunch_x is not None else "free_lottery"
    witness = lunch_x if lunch_x is not None else lottery_x
    return ArbitrageReport(kind=kind, witness=witness,
                           free_lunch=lunch_x is not None,
                           free_lottery=lottery_x is not None,
                           lunch_witness=lunch_x, lottery_witness=lottery_x)


def check_monotone_pricing(vm: ValidatedMarket, tol: float = STRICT_PSI_TOL):
    """Is the pricing functional monotone on the span?

    Minimizes the cost of a nonnegative eligible payoff normalized to total
    mass one, the state sum held by the opposite rows sum >= 1 and
    -sum >= -1. Returns (True, None) when the optimum is >= -tol, else
    (False, violating_payoff). Such payoffs lie in the probability simplex
    and the weights that replicate them are unique, so the LP is bounded.
    """
    s0, s1 = vm.market.prices, vm.market.payoffs
    n = s1.shape[1]
    # variables: asset weights w; rows: payoff s1.T @ w >= 0, its state sum = 1
    mass = s1.sum(axis=1)
    lhs = np.vstack([s1.T, mass, -mass])
    rhs = np.concatenate([np.zeros(n), [1.0, -1.0]])
    out = solve_lp(make_problem(s0, lhs, rhs))
    if out.status != OPTIMAL:
        # nonnegative mass-one payoffs may not exist in thin spans
        return True, None
    if out.objective_value >= -tol:
        return True, None
    return False, s1.T @ out.x


def load_market(source) -> tuple[Market, np.ndarray | None]:
    """Parse the market JSON document; returns (market, optional numeraire).

    Schema: {"states": [{"label", "prob"}...],
             "assets": [{"name", "price", "payoff"}...],
             "numeraire": [. ...]?}
    Asset 0 must be the secure asset. NaN/Infinity tokens, negative or
    badly normalized probabilities are rejected; probabilities are
    renormalized exactly to sum one after passing the 1e-9 check.
    """
    if isinstance(source, (str, bytes)):
        text = source
    else:
        text = source.read()

    def _reject_const(token):
        raise MarketParseError(f"non-finite number {token!r} in market file")

    try:
        doc = json.loads(text, parse_constant=_reject_const)
    except json.JSONDecodeError as exc:
        raise MarketParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MarketParseError("market document must be a JSON object")
    try:
        states = doc["states"]
        assets = doc["assets"]
    except (KeyError, TypeError) as exc:
        raise MarketParseError("market document needs 'states' and 'assets'") from exc
    if not isinstance(states, list) or len(states) < 2:
        raise MarketParseError("need at least two states")
    if not isinstance(assets, list) or len(assets) < 2:
        raise MarketParseError("need at least two assets")

    labels, probs = [], []
    for s in states:
        try:
            labels.append(str(s["label"]))
            probs.append(float(s["prob"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise MarketParseError("each state needs 'label' and numeric 'prob'") from exc
    probs = np.asarray(probs, dtype=float)
    if not np.all(np.isfinite(probs)) or np.any(probs <= 0):
        raise MarketParseError("state probabilities must be strictly positive")
    total = float(probs.sum())
    if abs(total - 1.0) > PARSER_PROB_TOL:
        raise MarketParseError("state probabilities must sum to 1 within 1e-9")
    probs = probs / total

    prices, payoffs = [], []
    for a in assets:
        try:
            prices.append(float(a["price"]))
            payoffs.append([float(v) for v in a["payoff"]])
        except (KeyError, TypeError, ValueError) as exc:
            raise MarketParseError("each asset needs numeric 'price' and 'payoff'") from exc
        if len(payoffs[-1]) != len(labels):
            raise MarketParseError("asset payoff length must match state count")
    arr_prices = np.asarray(prices, dtype=float)
    arr_payoffs = np.asarray(payoffs, dtype=float)
    if not (np.all(np.isfinite(arr_prices)) and np.all(np.isfinite(arr_payoffs))):
        raise MarketParseError("prices and payoffs must be finite")

    numeraire = None
    if doc.get("numeraire") is not None:
        try:
            numeraire = np.asarray([float(v) for v in doc["numeraire"]], dtype=float)
        except (TypeError, ValueError) as exc:
            raise MarketParseError("numeraire must list one finite value per state") from exc
        if numeraire.shape[0] != len(labels) or not np.all(np.isfinite(numeraire)):
            raise MarketParseError("numeraire must list one finite value per state")

    space = ScenarioSpace(tuple(labels), probs)
    return Market(space, arr_prices, arr_payoffs), numeraire

"""Minimal-cost acceptability: the capital requirement and its solvers.

The quantity of interest is the infimum of the price of an eligible payoff
whose addition makes a position acceptable. Three solution strategies are
implemented and cross-check each other:

* a direct LP over portfolio weights for polyhedral acceptance sets,
* exact enumeration of admissible loss sets for value-at-risk acceptance,
* a reduction to cash along the numeraire against the zero-cost-reachable
  set (acceptance set plus pricing kernel), valid for any acceptance set
  with a membership oracle.

The third route exists because adding multiples of the numeraire, modulo
price-zero movements, sweeps out every eligible movement: the search over
the whole span collapses to one dimension whose feasible set is an upward
ray. For exact sets (polyhedral rows, enumerable value-at-risk) that search
is one cash-minimising LP per loss set over (cash, kernel coordinates,
auxiliaries), never over asset weights, so it stays an independent check
of the direct LP. Only oracle and induced sets bisect, to ``bisect_tol``
(1e-7 by default). Values live in [-inf, +inf]; the infinite tags carry
meaning (positions that cannot be made acceptable at any cost, and
positions acceptable at arbitrarily negative cost).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import CapreqError, UsageError
from .acceptance import ENUM_CAP, AcceptanceSet, DimensionMismatch, feasible_loss_sets
from .linprog import GE, INFEASIBLE, OPTIMAL, UNBOUNDED, make_problem, solve_lp
from .market import ScenarioSpace, ValidatedMarket

NEG_INF = float("-inf")
POS_INF = float("inf")
M_BRACKET_INIT = 1.0   # first cash level the bracketed search probes


class NotPolyhedral(CapreqError, ValueError):
    """Operation needs polyhedral rows or, for property checks, an exact membership strategy."""


class EnumerationTooLarge(CapreqError, ValueError):
    """Loss-set enumeration refused: too many states."""


class DegenerateAcceptance(CapreqError, ValueError):
    """Induced acceptance set would be the whole space (requirement is -inf everywhere)."""


def is_finite(value: float) -> bool:
    return math.isfinite(value)


def extreal_str(value: float) -> str | float:
    """JSON-safe rendering: finite values stay numbers, infinities become strings."""
    if value == POS_INF:
        return "+inf"
    if value == NEG_INF:
        return "-inf"
    return float(value)


@dataclass(frozen=True)
class SolveOptions:
    """Knobs for the bracketed search and the membership strategies."""

    m_bracket_max: float = float(2 ** 40)
    bisect_tol: float = 1e-7
    kernel_box: float = 1e3
    kernel_grid: int = 33
    n_enum: int = ENUM_CAP
    lp_tol: float = 1e-8
    allow_inexact: bool = False

    def __post_init__(self):
        positives = (self.m_bracket_max, self.bisect_tol, self.kernel_box, self.lp_tol)
        if any(v <= 0 for v in positives) or self.kernel_grid <= 0 or self.n_enum <= 0:
            raise UsageError("solve options must be positive")
        if self.bisect_tol >= 1:
            raise UsageError("bisect_tol must be below 1")


DEFAULT_OPTIONS = SolveOptions()


@dataclass
class RiskResult:
    """Requirement value plus, when available, a certified optimal movement.

    ``attained`` means a concrete eligible payoff was verified: it moves the
    position into the acceptance set and its price matches the value. A
    finite value with ``attained=False`` is legitimate - the infimum need
    not be attained.
    """

    value: float
    optimal_payoff: np.ndarray | None = None
    attained: bool = False
    strategy: str = ""
    diagnostics: dict = field(default_factory=dict)


def _strategy(a: AcceptanceSet, vm: ValidatedMarket, opts: SolveOptions) -> str:
    """The set's exact structure on this market: "polyhedral", "var_enum" or else "grid".

    VaR loss sets live on the set's own space; a VaR set above the
    enumeration cap is "grid" only with ``allow_inexact``.
    """
    if a.dim != vm.n_states:
        raise DimensionMismatch("acceptance set and market disagree on state count")
    if a.polyhedral is not None:
        return "polyhedral"
    if a.kind == "var" and a.var_alpha is not None and a.space is not None:
        if a.space.n <= opts.n_enum:
            return "var_enum"
        if not opts.allow_inexact:
            raise EnumerationTooLarge(
                f"{a.space.n} states exceed the enumeration cap {opts.n_enum}")
    return "grid"


class MembershipOracle:
    """Decides whether a position can be made acceptable at zero cost.

    Concretely: does some price-zero eligible movement take the position
    into the acceptance set? Exact sets are a union of linear systems - one
    for polyhedral rows, one per maximal loss set for value-at-risk - and
    every exact question (zero-cost witness, cheapest cash level) is one LP
    per system over the same constraint block. The generic grid fallback is
    one-sided (a True answer is certified by a witness, a False answer may
    be wrong) and is flagged as inexact.
    """

    def __init__(self, a: AcceptanceSet, vm: ValidatedMarket, opts: SolveOptions = DEFAULT_OPTIONS):
        self.strategy = _strategy(a, vm, opts)
        self.a = a
        self.vm = vm
        self.opts = opts
        self.kernel = vm.kernel_basis  # (k, n)
        if self.strategy == "polyhedral":
            self._systems = (None,)
        elif self.strategy == "var_enum":
            self._systems = feasible_loss_sets(a.space, a.var_alpha)
        self.exact = self.strategy != "grid"

    # -- exact systems -----------------------------------------------------

    def _solve_systems(self, y: np.ndarray, cash: bool):
        """One LP per system of y + m U - K^T c in A over (m, kernel coords c, aux).

        With ``cash`` the LP minimises m; otherwise the cash column is left
        out (m = 0) and the LP only asks for feasibility. Yields (status, m,
        c) per system; m and c are meaningful only when the status is optimal.
        """
        n, kdim = y.shape[0], self.kernel.shape[0]
        for loss_set in self._systems:
            if loss_set is None:
                rep = self.a.polyhedral
                rows, aux, rhs = rep.rows, rep.aux, rep.rhs
            else:
                rows = np.eye(n)[[w for w in range(n) if w not in loss_set]]
                aux, rhs = np.zeros((rows.shape[0], 0)), np.zeros(rows.shape[0])
            blocks = [-(rows @ self.kernel.T), aux]
            if cash:
                blocks.insert(0, (rows @ self.vm.numeraire).reshape(-1, 1))
            lhs, rhs = np.hstack(blocks), rhs - rows @ y
            objective = np.zeros(lhs.shape[1])
            objective[0] = float(cash)
            out = solve_lp(make_problem(objective, lhs, rhs, GE), tol=self.opts.lp_tol)
            if out.status != OPTIMAL:
                yield out.status, None, None
            elif cash:
                yield OPTIMAL, float(out.x[0]), out.x[1:1 + kdim]
            else:
                yield OPTIMAL, 0.0, out.x[:kdim]

    def cash_lp(self, position):
        """Cheapest cash level m with position + m U - K^T c acceptable, over all systems.

        Returns (status, m, payoff): optimal with the minimal m and the
        payoff m U - K^T c that attains it, unbounded with m = -inf, or
        infeasible with m = +inf (payoff None for both). Returns None for the
        grid oracle, which has no exact formulation. Ties between loss sets
        keep the earliest, so the reported payoff is deterministic.
        """
        if not self.exact:
            return None
        y = np.asarray(position, dtype=float)
        best = (INFEASIBLE, POS_INF, None)
        for status, m, c in self._solve_systems(y, cash=True):
            if status == UNBOUNDED:
                return UNBOUNDED, NEG_INF, None
            if status == OPTIMAL and m < best[1]:
                best = (OPTIMAL, m, m * self.vm.numeraire - self.kernel.T @ c)
        return best

    def reachable_along_u(self, position) -> bool | None:
        """Exact test for: some cash level makes the position reachable (value < +inf).

        Returns None when the strategy has no exact test (grid oracle).
        """
        return None if not self.exact else self.cash_lp(position)[0] != INFEASIBLE

    def line_along_u(self, position) -> bool | None:
        """Exact test for: every cash level keeps the position reachable (value -inf).

        The feasible cash set is an upward-closed ray, so containing a full
        line is equivalent to the cash-minimizing LP being unbounded.
        """
        return None if not self.exact else self.cash_lp(position)[0] == UNBOUNDED

    # -- membership --------------------------------------------------------

    def contains(self, position) -> bool:
        return self.witness(position) is not None

    def witness(self, position) -> np.ndarray | None:
        """Price-zero movement k with position - k acceptable, or None."""
        y = np.asarray(position, dtype=float)
        if not self.exact:
            return self._witness_grid(y)
        return next((self.kernel.T @ c for status, _, c in self._solve_systems(y, cash=False)
                     if status == OPTIMAL), None)

    def _witness_grid(self, y: np.ndarray) -> np.ndarray | None:
        kdim = self.kernel.shape[0]
        if kdim == 0:
            return np.zeros_like(y) if self.a.member(y) else None
        per_axis = self.opts.kernel_grid
        while per_axis > 3 and per_axis ** kdim > 200_000:
            per_axis = (per_axis + 1) // 2
        box = self.opts.kernel_box
        # staged grids: full box, then two zoomed passes near small movements
        for width in (box, box / 8.0, box / 64.0):
            axes = [np.linspace(-width, width, per_axis)] * kdim
            for coords in itertools.product(*axes):
                c = np.asarray(coords)
                k = self.kernel.T @ c
                if self.a.member(y - k):
                    return k
        return None


def member_a_plus_kernel(a: AcceptanceSet, vm: ValidatedMarket, position,
                         opts: SolveOptions = DEFAULT_OPTIONS) -> bool:
    """Can the position be made acceptable by a price-zero eligible movement?"""
    return MembershipOracle(a, vm, opts).contains(position)


def rho_from_membership(contains: Callable[[np.ndarray], bool], vm: ValidatedMarket,
                        position, opts: SolveOptions = DEFAULT_OPTIONS,
                        witness: Callable[[np.ndarray], np.ndarray | None] | None = None,
                        member: Callable[[np.ndarray], bool] | None = None,
                        reachable: Callable[[np.ndarray], bool | None] | None = None,
                        line: Callable[[np.ndarray], bool | None] | None = None,
                        strategy: str = "reduction", exact: bool = True) -> RiskResult:
    """Bracketed line search along the numeraire against a membership functional.

    This is the route for sets known only through membership (grid oracle,
    induced sets); exact sets solve ``MembershipOracle.cash_lp`` instead.
    The feasible cash amounts form an upward-closed ray, so a doubling
    bracket either finds an (infeasible, feasible) pair or certifies an
    infinite tag at the configured bracket bound. When the caller provides
    structural ray tests (``reachable``/``line``), the infinite tags are
    decided exactly up front instead of by extreme-scale probing. Bisection
    then narrows the bracket to ``bisect_tol``; the reported value is the
    final midpoint and ``attained`` stays False unless a witness movement
    verifies at that level.
    """
    x = np.asarray(position, dtype=float)
    u = vm.numeraire
    diag = {"bracket_steps": 0, "bisect_steps": 0, "approximate": not exact}

    if reachable is not None:
        subset_reachable = reachable(x)
        if subset_reachable is not None:
            diag["tag_test"] = "structural"
            if not subset_reachable:
                return RiskResult(POS_INF, strategy=strategy, diagnostics=diag)
            if line is not None and line(x):
                return RiskResult(NEG_INF, strategy=strategy, diagnostics=diag)

    def feas(m: float) -> bool:
        return contains(x + m * u)

    hi = M_BRACKET_INIT
    while not feas(hi):
        diag["bracket_steps"] += 1
        if hi >= opts.m_bracket_max:
            return RiskResult(POS_INF, strategy=strategy, diagnostics=diag)
        hi = min(2.0 * hi, opts.m_bracket_max)

    lo = -M_BRACKET_INIT
    while feas(lo):
        diag["bracket_steps"] += 1
        if lo <= -opts.m_bracket_max:
            return RiskResult(NEG_INF, strategy=strategy, diagnostics=diag)
        lo = max(2.0 * lo, -opts.m_bracket_max)

    while hi - lo > opts.bisect_tol:
        diag["bisect_steps"] += 1
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # interval below float resolution at this magnitude
        if feas(mid):
            hi = mid
        else:
            lo = mid

    value = 0.5 * (lo + hi)
    result = RiskResult(value, strategy=strategy, diagnostics=diag)
    if witness is not None and member is not None:
        for level in (value, hi):
            k = witness(x + level * u)
            if k is not None and _certify(result, x, level * u - k, member, vm, opts):
                break
    return result


def _certify(result: RiskResult, x: np.ndarray, movement: np.ndarray,
             member: Callable[[np.ndarray], bool], vm: ValidatedMarket,
             opts: SolveOptions) -> bool:
    """Record ``movement`` as the optimal payoff if it moves x into the set at the value's price."""
    price_ok = abs(vm.price(movement) - result.value) <= max(10 * opts.bisect_tol, 1e-8)
    if member(x + movement) and price_ok:
        result.optimal_payoff = movement
        result.attained = True
    return result.attained


def rho_reduction(a: AcceptanceSet, vm: ValidatedMarket, position,
                  opts: SolveOptions = DEFAULT_OPTIONS) -> RiskResult:
    """Requirement along the numeraire modulo the pricing kernel (works for any oracle set).

    Exact sets solve the oracle's cash-minimising LP once per system:
    infeasible is +inf, unbounded is -inf, otherwise the optimum with its
    payoff. Oracle sets fall back to the bracketed bisection.
    """
    oracle = MembershipOracle(a, vm, opts)
    x = np.asarray(position, dtype=float)
    strategy = f"reduction[{oracle.strategy}]"
    solved = oracle.cash_lp(x)
    if solved is None:
        return rho_from_membership(oracle.contains, vm, x, opts, witness=oracle.witness,
                                   member=a.member, strategy=strategy, exact=False)
    status, m, payoff = solved
    result = RiskResult(m, strategy=strategy,
                        diagnostics={"tag_test": "structural", "approximate": False})
    if status == OPTIMAL:
        _certify(result, x, payoff, a.member, vm, opts)
    return result


def rho_direct_lp(a: AcceptanceSet, vm: ValidatedMarket, position,
                  opts: SolveOptions = DEFAULT_OPTIONS) -> RiskResult:
    """Requirement as a single LP over portfolio weights (polyhedral sets only)."""
    if a.polyhedral is None:
        raise NotPolyhedral("direct LP needs polyhedral rows")
    x = np.asarray(position, dtype=float)
    rep = a.polyhedral
    s0, s1 = vm.market.prices, vm.market.payoffs
    n_assets = s1.shape[0]
    # variables: portfolio weights w, block auxiliaries u
    lhs = np.hstack([rep.rows @ s1.T, rep.aux])
    rhs = rep.rhs - rep.rows @ x
    c = np.concatenate([s0, np.zeros(rep.n_aux)])
    problem = make_problem(c, lhs, rhs, (GE,) * lhs.shape[0])
    out = solve_lp(problem, tol=opts.lp_tol)
    if out.status == INFEASIBLE:
        return RiskResult(POS_INF, strategy="direct_lp")
    if out.status == UNBOUNDED:
        return RiskResult(NEG_INF, strategy="direct_lp")
    movement = s1.T @ out.x[:n_assets]
    return RiskResult(float(out.objective_value), optimal_payoff=movement,
                      attained=True, strategy="direct_lp",
                      diagnostics={"pivots": out.pivots})


def rho_var_exact(vm: ValidatedMarket, position, alpha: float,
                  opts: SolveOptions = DEFAULT_OPTIONS,
                  space: ScenarioSpace | None = None) -> RiskResult:
    """Requirement for value-at-risk acceptance by loss-set enumeration.

    Loss probabilities come from ``space`` (the acceptance set's), by default the market's.

    Minimizes over the maximal admissible loss sets J (probability at most
    alpha, and no outside state fits) the cost of lifting the position to
    nonnegative outside J. Every admissible loss set lies inside a maximal
    one, whose LP drops constraints, so the minimum and both infinite tags
    are those of the scan over all admissible sets. Loss sets scan in
    lexicographic order and ties keep the earliest optimum, so the reported
    movement is deterministic. Any unbounded subproblem makes the whole
    requirement -inf; +inf means no subproblem was feasible.
    """
    n = vm.n_states
    if n > opts.n_enum:
        raise EnumerationTooLarge(f"{n} states exceed the enumeration cap {opts.n_enum}")
    x = np.asarray(position, dtype=float)
    s0, s1 = vm.market.prices, vm.market.payoffs
    n_assets = s1.shape[0]
    loss_sets = feasible_loss_sets(vm.space if space is None else space, alpha)

    best = None  # (value, loss_set, weights)
    scanned = 0
    for loss_set in loss_sets:
        keep = [w for w in range(n) if w not in loss_set]
        scanned += 1
        if not keep:
            return RiskResult(NEG_INF, strategy="var_enum",
                              diagnostics={"loss_sets_scanned": scanned})
        lhs = s1.T[keep]
        rhs = -x[keep]
        problem = make_problem(s0, lhs, rhs, (GE,) * len(keep))
        out = solve_lp(problem, tol=opts.lp_tol)
        if out.status == UNBOUNDED:
            return RiskResult(NEG_INF, strategy="var_enum",
                              diagnostics={"loss_sets_scanned": scanned,
                                           "unbounded_loss_set": list(loss_set)})
        if out.status != OPTIMAL:
            continue
        if best is None or out.objective_value < best[0]:
            best = (out.objective_value, loss_set, out.x)
    if best is None:
        return RiskResult(POS_INF, strategy="var_enum",
                          diagnostics={"loss_sets_scanned": scanned})
    movement = s1.T @ best[2]
    return RiskResult(float(best[0]), optimal_payoff=movement, attained=True,
                      strategy="var_enum",
                      diagnostics={"loss_sets_scanned": scanned,
                                   "loss_set": list(best[1])})


def solve_rho(a: AcceptanceSet, vm: ValidatedMarket, position,
              opts: SolveOptions = DEFAULT_OPTIONS) -> RiskResult:
    """Requirement by the strategy ``_strategy`` selects (reduction for "grid")."""
    strategy = _strategy(a, vm, opts)
    if strategy == "polyhedral":
        return rho_direct_lp(a, vm, position, opts)
    if strategy == "var_enum":
        return rho_var_exact(vm, position, a.var_alpha, opts, space=a.space)
    return rho_reduction(a, vm, position, opts)


def domain_classify(a: AcceptanceSet, vm: ValidatedMarket, position,
                    opts: SolveOptions = DEFAULT_OPTIONS):
    """Tag the position finite/+inf/-inf along the numeraire.

    The feasible cash set is an upward ray: exact strategies decide both
    ends structurally from the status of one cash-minimising LP per system
    (infeasible, unbounded or optimal), while the grid oracle falls back to
    membership probes at the configured bracket bound.
    Returns (tag, evidence).
    """
    oracle = MembershipOracle(a, vm, opts)
    x = np.asarray(position, dtype=float)
    u = vm.numeraire
    solved = oracle.cash_lp(x)
    if solved is not None:
        status = solved[0]
        evidence = {"method": "structural", "reachable": status != INFEASIBLE,
                    "approximate": False}
        if status == INFEASIBLE:
            return "pos_inf", evidence
        evidence["line_contained"] = status == UNBOUNDED
        return ("neg_inf" if status == UNBOUNDED else "finite"), evidence

    at_top = oracle.contains(x + opts.m_bracket_max * u)
    evidence = {"method": "probe", "feasible_at_top": at_top,
                "bracket_bound": opts.m_bracket_max, "approximate": True}
    if not at_top:
        evidence["feasible_at_bottom"] = False
        return "pos_inf", evidence
    at_bottom = oracle.contains(x - opts.m_bracket_max * u)
    evidence["feasible_at_bottom"] = at_bottom
    if at_bottom:
        return "neg_inf", evidence
    return "finite", evidence


def induced_rho_acceptance(a: AcceptanceSet, vm: ValidatedMarket,
                           opts: SolveOptions = DEFAULT_OPTIONS,
                           tol: float | None = None) -> AcceptanceSet:
    """Acceptance set induced by the requirement: positions of requirement <= 0.

    Inherits the structural flags (convexity, cone, additive closure) of the
    source set. Raises if the requirement is degenerate (-inf at zero),
    since the induced set would then be the whole space and not proper.
    """
    if tol is None:
        tol = opts.bisect_tol
    oracle = MembershipOracle(a, vm, opts)

    def rho_value(x: np.ndarray) -> float:
        solved = oracle.cash_lp(x)
        if solved is not None:
            return solved[1]
        return rho_from_membership(oracle.contains, vm, x, opts,
                                   strategy="induced", exact=False).value

    at_zero = rho_value(np.zeros(a.dim))
    if at_zero == NEG_INF:
        raise DegenerateAcceptance("requirement is -inf at the zero position")
    margin = max(at_zero, 0.0) + 1.0
    witness = -margin * vm.numeraire

    def member(x: np.ndarray) -> bool:
        return rho_value(x) <= tol

    return AcceptanceSet(
        dim=a.dim, member=member, non_member=witness, kind="induced",
        is_convex=a.is_convex, is_cone=a.is_cone,
        closed_under_addition=a.closed_under_addition,
        member_tol=tol, space=a.space,
    )

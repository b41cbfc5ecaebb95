"""Minimal-cost acceptability: the capital requirement and its solvers.

The quantity of interest is the infimum of the price of an eligible payoff
whose addition makes a position acceptable. Two formulations are
implemented and cross-check each other, both over a set given as a
finite union of polyhedral systems:

* the minimum over the systems of a direct LP over portfolio weights
  (``rho_direct_lp`` for one system, ``rho_var_exact`` for several);
* a reduction to cash along the numeraire against the zero-cost-reachable
  set (acceptance set plus pricing kernel), ``rho_reduction``.

The second route exists because adding multiples of the numeraire, modulo
price-zero movements, sweeps out every eligible movement: the search over
the whole span collapses to one dimension whose feasible set is an upward
ray. That search is one cash-minimising LP per system over (cash, kernel
coordinates, auxiliaries), never over asset weights, so it stays an
independent check of the direct LP. A set known only through membership
is refused (``NotPolyhedral``), never approximated; ``rho_from_membership``
is the one inexact entry, a bisection against a caller's own membership
functional. Values live in [-inf, +inf]; the infinite tags carry meaning
(positions that cannot be made acceptable at any cost, and positions
acceptable at arbitrarily negative cost).

Every LP of a system depends on the position only through its right-hand
side, so a caller who asks many positions of one (set, market) pair builds
one solve context, ``MembershipOracle``: it keeps each system's LPs and the
Farkas rays, latest optimal outcome and unbounded bases they ended on
(right-hand-side parametric LP). A position is answered from a kept ray
or unbounded basis wherever it still certifies the status there, and
from the optimal outcome by the dual simplex, in no pivot where its basis
still fits and a few where it does not. The module functions are
one-shot: each builds a context for its one position, so it solves every
LP cold and keeps no outcome.

The only state shared across calls is each system's position-free LP
(``_template``): its matrix, costs and signs, validated and standardised
once per (system, market, kind). It holds no basis, ray or dual, it is
immutable, and the map holds the system and the market weakly, so an
entry goes with either. Contexts and one-shot calls pose it at their
position by ``LpProblem.with_rhs``, which gives the LP a fresh build
would, bit for bit.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import CapreqError
from .acceptance import AcceptanceSet, DimensionMismatch, PolyhedralRep
from .linprog import (DEFAULT_FEAS_TOL, OPTIMAL, UNBOUNDED, LpOutcome, LpProblem, _dual_support,
                      repose, solve_lp)
from .market import ValidatedMarket

NEG_INF = float("-inf")
POS_INF = float("inf")
M_BRACKET_INIT = 1.0   # first cash level the bracketed search probes
# cash level past which the bracketed search tags +-inf; below 1/PIVOT_TOL = 1e10,
# so a probe's LP rows stay within the scale solve_lp accepts
M_BRACKET_MAX = 2.0 ** 33
BISECT_TOL = 1e-7      # width the bisection narrows to; membership slack of induced sets
BOUND_MARGIN = 1e-9    # relative amount a dual bound must exceed the incumbent by to skip


class NotPolyhedral(CapreqError, ValueError):
    """Operation needs polyhedral systems (for the direct LP, exactly one)."""


class EnumerationTooLarge(CapreqError, ValueError):
    """The set's systems are too many to enumerate, so it is not solved."""


class DegenerateAcceptance(CapreqError, ValueError):
    """Induced acceptance set would be the whole space (requirement is -inf everywhere)."""


def extreal_str(value: float) -> str | float:
    """JSON-safe rendering: finite values stay numbers, infinities become strings."""
    if value == POS_INF:
        return "+inf"
    if value == NEG_INF:
        return "-inf"
    return float(value)


@dataclass
class RiskResult:
    """Requirement value plus, when available, a certified optimal movement.

    ``attained`` means a concrete eligible payoff was verified and kept as
    ``optimal_payoff``: it moves the position into the acceptance set and
    its price matches the value. A finite value that is not attained is
    legitimate - the infimum need not be attained.
    """

    value: float
    optimal_payoff: np.ndarray | None = None
    strategy: str = ""
    diagnostics: dict = field(default_factory=dict)

    @property
    def attained(self) -> bool:
        return self.optimal_payoff is not None


def _exact_systems(a: AcceptanceSet, vm: ValidatedMarket) -> tuple[PolyhedralRep, ...]:
    """The systems of ``a``, refusing a set the solvers cannot take.

    Raises ``DimensionMismatch`` if the set and the market disagree on the
    state count, ``EnumerationTooLarge`` if the systems are too many to
    enumerate, and ``NotPolyhedral`` if the set is known only through
    membership.
    """
    if a.dim != vm.n_states:
        raise DimensionMismatch("acceptance set and market disagree on state count")
    if isinstance(a.systems, str):
        raise EnumerationTooLarge(a.systems)
    if a.systems is None:
        raise NotPolyhedral("the set is known only through membership; the solvers need its"
                            " polyhedral systems")
    return a.systems


_TEMPLATES = weakref.WeakKeyDictionary()   # ValidatedMarket -> kind -> PolyhedralRep -> LpProblem
_TEMPLATES_LOCK = threading.Lock()


def _template(kind: str, rep: PolyhedralRep, vm: ValidatedMarket) -> LpProblem:
    """System ``rep``'s LP of ``kind`` on ``vm`` at the zero position, built once per triple.

    ``direct`` is the LP over portfolio weights (the payoffs as moves at
    the prices), ``cash`` the LP over (cash, kernel coordinates) and
    ``witness`` the zero-cost one over kernel coordinates; all three carry
    the system's auxiliaries. Only the right-hand side depends on the
    position, so a caller poses it by ``with_rhs(rep.rhs_at(y))``. The map
    keys the market and the system weakly and keeps no outcome. It is keyed
    by market first, so a set of many systems costs one weak reference per
    system and kind, not a map each.
    """
    with _TEMPLATES_LOCK:
        by_kind = _TEMPLATES.setdefault(vm, {})
        by_rep = by_kind.get(kind)
        if by_rep is None:
            by_rep = by_kind[kind] = weakref.WeakKeyDictionary()
        lp = by_rep.get(rep)
        if lp is None:
            zero = np.zeros(vm.n_states)
            if kind == "direct":   # no kernel: the weights span every eligible payoff
                lp = rep.lp(zero, np.zeros((0, vm.n_states)), vm.market.payoffs, vm.market.prices)
            else:
                lp = rep.lp(zero, vm.kernel_basis, [vm.numeraire] if kind == "cash" else ())
            by_rep[rep] = lp
        return lp


@dataclass
class _Kept:
    """One system's LP of one kind (its template) and the outcomes kept to re-pose it."""

    lp: LpProblem
    rays: list = field(default_factory=list)        # infeasible, one per Farkas-ray support
    optimal: tuple = ()                             # the latest optimal outcome, once there is one
    unbounded: list = field(default_factory=list)   # one per set of basic columns


class MembershipOracle:
    """The solve context of one (set, market) pair: it keeps every LP it solves.

    The set is a union of linear systems (``AcceptanceSet.systems``), and
    every question is one LP per system: the direct LP over portfolio
    weights (``requirement``), the cash LP over (cash, kernel coordinates,
    auxiliaries) (``cash_lp``) and the zero-cost witness LP (``witness``,
    ``contains``). Only their right-hand side depends on the position
    (``PolyhedralRep.rhs_at``). So the context poses each system's LP of
    each kind from its template (``_template``) at its first use and
    re-poses it by ``LpProblem.with_rhs`` after that, and it keeps the
    outcomes that LP's solves ended on
    (``_Kept``): one Farkas ray per distinct support, found by a cold solve
    or by a dual re-solve that stopped at a row proving infeasibility, the
    latest optimal outcome, cold or re-posed, and one unbounded basis per
    set of columns.
    A later position tries them in that order through ``linprog.repose``:
    a ray's margin on the new right-hand side, tested by one dot product;
    then the optimal basis, answered with no pivot where its values on
    bounded columns are nonnegative (no tolerance; a free column's may have
    either sign) and otherwise re-solved by the dual simplex from its
    tableau; then an unbounded basis, where those values are nonnegative.
    Every answer's point is certified on the original data, and an optimal
    one's dual by the sign rule and a duality-gap check. It solves cold
    (``solve_lp``) only when none answers there: the first time, where a
    row proves the LP infeasible but its ray fails its check or the
    margin, where a certificate fails, or where an unbounded basis no
    longer fits.
    The answers are a cold solve's up to rounding, not bit for bit: the
    same statuses, values within rounding (1e-12 relative in the tests),
    and where the optimum is not unique, possibly another optimal point of
    the same value.

    A context belongs to one caller, who decides how long its outcomes
    live; the module's functions (``solve_rho``, ``rho_reduction``, ...)
    each build their own for one position, so they stay pure and solve
    every LP cold. The only state shared across contexts and calls is each
    system's position-free LP template, which is immutable and weakly held.
    Every LP is solved to the feasibility tolerance ``tol``. A set known
    only through membership is refused (``NotPolyhedral``).
    """

    def __init__(self, a: AcceptanceSet, vm: ValidatedMarket, tol: float = DEFAULT_FEAS_TOL):
        _exact_systems(a, vm)
        self.a = a
        self.vm = vm
        self.tol = tol
        self.kernel = vm.kernel_basis  # (k, n)
        self._kept = {}   # (kind, system index) -> _Kept

    def _solve(self, kind: str, index: int, y: np.ndarray) -> tuple[LpProblem, LpOutcome]:
        """System ``index``'s LP of ``kind`` at position y and its outcome."""
        rep = self.a.systems[index]
        kept = self._kept.get((kind, index))
        if kept is None:
            kept = self._kept[kind, index] = _Kept(_template(kind, rep, self.vm))
        lp, out, stored = kept.lp.with_rhs(rep.rhs_at(y)), None, None
        for stored in (*kept.rays, *kept.optimal, *kept.unbounded):
            out = repose(lp, stored, self.tol)
            if out is not None:
                break
        if out is None:
            out = solve_lp(lp, tol=self.tol)
            # an unbounded basis is kept once per set of columns
            if out.status == UNBOUNDED and not any(
                    set(out.basis.tolist()) == set(other.basis.tolist())
                    for other in kept.unbounded):
                kept.unbounded.append(out)
        # a ray is kept once per support, whether a cold solve or a dual
        # re-solve of the optimal basis found it; a kept ray's answer holds that ray
        if out.farkas is not None and (stored is None or out.farkas is not stored.farkas):
            rows = out.farkas > 0.0
            if not any(np.array_equal(rows, other.farkas > 0.0) for other in kept.rays):
                kept.rays.append(out)
        if out.status == OPTIMAL:
            kept.optimal = (out,)
        return lp, out

    def requirement(self, position) -> RiskResult:
        """The requirement by the direct LP, as ``solve_rho`` answers it."""
        return self._requirement(position, "direct_lp" if self.a.only_system is not None
                                 else "var_enum")

    def _requirement(self, position, strategy: str) -> RiskResult:
        """Minimum over the systems of the direct LP over portfolio weights and auxiliaries.

        ``diagnostics``: ``loss_sets_scanned`` LPs answered and
        ``systems_pruned`` systems dropped on a dual bound (``_cheapest``;
        the two add up to the systems unless an unbounded system ended the
        scan); the deciding system's index, as ``system`` with its LP's
        ``pivots`` or as ``unbounded_loss_set``, both a full scan's.
        """
        x = np.asarray(position, dtype=float)
        out, index, scanned, pruned = _cheapest(self.a, lambda i: self._solve("direct", i, x),
                                                self.tol)
        result = RiskResult(out.objective_value, strategy=strategy,
                            diagnostics={"loss_sets_scanned": scanned, "systems_pruned": pruned})
        if out.status == UNBOUNDED:
            result.diagnostics["unbounded_loss_set"] = index
        elif out.status == OPTIMAL:
            result.diagnostics.update(system=index, pivots=out.pivots)
            s1 = self.vm.market.payoffs
            result.optimal_payoff = s1.T @ out.x[:s1.shape[0]]
        return result

    def cash_lp(self, position):
        """Cheapest cash level m with position + m U - K^T c acceptable, over all systems.

        Returns (m, payoff): the scan's value m in [-inf, +inf] (+inf where
        no cash level makes the position reachable, -inf where every one
        does) and, at a finite m, the payoff m U - K^T c, else None. The
        systems go through ``_cheapest``: those no solved system's dual
        covers first, in index order, then a covered one only while its
        bound is under the incumbent. Ties keep the earliest system, so the
        reported payoff is deterministic and, on a cold context, equals a
        full scan's.
        """
        y = np.asarray(position, dtype=float)
        out = _cheapest(self.a, lambda i: self._solve("cash", i, y), self.tol)[0]
        if out.status != OPTIMAL:
            return out.objective_value, None
        m, c = float(out.x[0]), out.x[1:1 + self.kernel.shape[0]]
        return m, m * self.vm.numeraire - self.kernel.T @ c

    def reachable_along_u(self, position) -> bool:
        """Some cash level makes the position reachable (value < +inf)."""
        return self.cash_lp(position)[0] < POS_INF

    def line_along_u(self, position) -> bool:
        """Every cash level keeps the position reachable (value -inf)."""
        return self.cash_lp(position)[0] == NEG_INF

    def contains(self, position) -> bool:
        return self.witness(position) is not None

    def witness(self, position) -> np.ndarray | None:
        """Price-zero movement k with position - k acceptable, or None."""
        y = np.asarray(position, dtype=float)
        for i in range(len(self.a.systems)):
            out = self._solve("witness", i, y)[1]
            if out.status == OPTIMAL:
                return self.kernel.T @ out.x[:self.kernel.shape[0]]
        return None


def rho_from_membership(contains: Callable[[np.ndarray], bool], vm: ValidatedMarket, position,
                        strategy: str = "reduction") -> RiskResult:
    """Bracketed line search along the numeraire against a membership functional.

    The one inexact entry. No solver calls it; it serves a caller who has
    only their own ``contains`` function, up-closed along the numeraire.
    The feasible cash amounts form an upward-closed ray, so a doubling
    bracket either finds an (infeasible, feasible) pair or tags the value
    infinite at ``M_BRACKET_MAX``. Bisection then narrows the bracket to
    ``BISECT_TOL``; the reported value is the final midpoint, never
    ``attained``.
    """
    x = np.asarray(position, dtype=float)
    u = vm.numeraire
    diag = {"bracket_steps": 0, "bisect_steps": 0}

    def feas(m: float) -> bool:
        return contains(x + m * u)

    hi = M_BRACKET_INIT
    while not feas(hi):
        diag["bracket_steps"] += 1
        if hi >= M_BRACKET_MAX:
            return RiskResult(POS_INF, strategy=strategy, diagnostics=diag)
        hi = min(2.0 * hi, M_BRACKET_MAX)

    lo = -M_BRACKET_INIT
    while feas(lo):
        diag["bracket_steps"] += 1
        if lo <= -M_BRACKET_MAX:
            return RiskResult(NEG_INF, strategy=strategy, diagnostics=diag)
        lo = max(2.0 * lo, -M_BRACKET_MAX)

    while hi - lo > BISECT_TOL:
        diag["bisect_steps"] += 1
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # interval below float resolution at this magnitude
        if feas(mid):
            hi = mid
        else:
            lo = mid

    return RiskResult(0.5 * (lo + hi), strategy=strategy, diagnostics=diag)


def rho_reduction(a: AcceptanceSet, vm: ValidatedMarket, position,
                  tol: float = DEFAULT_FEAS_TOL) -> RiskResult:
    """Requirement along the numeraire modulo the pricing kernel.

    One cash-minimising LP per system (``MembershipOracle.cash_lp`` on a
    context of its own, so every LP is solved cold; only each system's
    immutable, weakly held LP template is shared across calls), whose value
    in [-inf, +inf] is the requirement.
    Its payoff is reported as ``attained`` when it moves the position into
    the set (``member``) at the value's price.
    """
    x = np.asarray(position, dtype=float)
    m, payoff = MembershipOracle(a, vm, tol).cash_lp(x)
    result = RiskResult(m, strategy="reduction", diagnostics={"tag_test": "structural"})
    if payoff is None or not a.member(x + payoff):
        return result
    # the payoff is in the span up to rounding at its own magnitude
    span_tol = 1e-9 * max(1.0, float(np.abs(payoff).max()))
    if abs(vm.price(payoff, span_tol) - m) <= 10 * BISECT_TOL:
        result.optimal_payoff = payoff
    return result


def _cheapest(a: AcceptanceSet, solve: Callable[[int], tuple[LpProblem, LpOutcome]],
              tol: float) -> tuple[LpOutcome, int, int, int]:
    """Minimum over ``a.systems`` of the LP ``solve(i)`` answers: (outcome, index, LPs, pruned).

    Each outcome carries its LP's value in [-inf, +inf]. The first
    unbounded outcome ends the scan (-inf). Otherwise the outcome of least
    (value, index), so the earliest system on ties and a deterministic
    payoff; it is infeasible (+inf) only when every system solved is.

    A checked optimal dual y is supported on rows S (``_dual_bound``); every
    system that has all of S has the same LP rows there, over auxiliaries of
    the same signs, so y_S is a feasible dual of its LP too. Its LP is then
    bounded, and by weak duality no cheaper than b_S @ y_S. ``level[i]`` is
    the highest such bound less ``BOUND_MARGIN`` (relative) over the duals
    that cover system i, and -inf while none does. The scan solves the
    lowest-index system no dual covers; once every system left is covered,
    the lowest-index one whose level is under the incumbent. It drops,
    unsolved, every system whose level reaches the incumbent: that system
    can be neither unbounded nor cheaper, not even by rounding. Systems
    that tie the incumbent exactly are still solved, so the scan reports
    the system a full scan does. A covered system is bounded and uncovered
    systems are solved in index order, so the first unbounded one met is a
    full scan's first too; ``pruned`` then counts only the systems dropped
    so far. A set of one system solves its one LP and checks no dual; a
    union without ``incidence`` has no coverage to prune by, so every
    system is solved.
    """
    systems, incidence = a.systems, a.incidence
    if len(systems) == 1:
        return solve(0)[1], 0, 1, 0
    level = np.full(len(systems), NEG_INF)
    unsolved = np.ones(len(systems), dtype=bool)
    best, best_index, incumbent, scanned = None, -1, POS_INF, 0
    while True:
        live = unsolved & (level < incumbent)
        uncovered = live & (level == NEG_INF)
        pick = uncovered if uncovered.any() else live
        if not pick.any():
            return best, best_index, scanned, len(systems) - scanned
        index = int(pick.argmax())
        unsolved[index] = False
        lp, out = solve(index)
        scanned += 1
        if out.status == UNBOUNDED:
            return out, index, scanned, int(np.count_nonzero(unsolved & ~live))
        value = out.objective_value
        if best is None or value < incumbent or (value == incumbent and index < best_index):
            best, best_index, incumbent = out, index, value
        if incidence is None or out.status != OPTIMAL:
            continue
        certificate = _dual_bound(lp, out.dual, tol, out.support)
        if certificate is not None:
            bound, support = certificate
            raised = bound - BOUND_MARGIN * max(1.0, abs(bound))
            covered = incidence.matrix[:, incidence.ids[index][support]].all(axis=1)
            level[covered & (level < raised)] = raised


def _dual_bound(lp: LpProblem, dual: np.ndarray, tol: float, support=None):
    """(b_S @ y_S, S) for an optimal dual y of ``lp``, or None.

    S and the check on y are ``linprog._dual_support``'s; a dual that fails
    the check bounds nothing. A ``support`` that ``repose`` already checked
    is taken as it is.
    """
    if support is None:
        support = _dual_support(lp, dual, tol)
    if support is None:
        return None
    return float(lp.rhs[support] @ dual[support]), support


def rho_direct_lp(a: AcceptanceSet, vm: ValidatedMarket, position,
                  tol: float = DEFAULT_FEAS_TOL) -> RiskResult:
    """Requirement as a single LP over portfolio weights (sets of exactly one system).

    One-shot: the LP is solved cold on a context of its own. The only state
    shared across calls is the system's position-free LP template, which is
    immutable and weakly held (``_template``).
    """
    if a.only_system is None:
        raise NotPolyhedral("the direct LP needs exactly one polyhedral system")
    return MembershipOracle(a, vm, tol)._requirement(position, "direct_lp")


def rho_var_exact(a: AcceptanceSet, vm: ValidatedMarket, position,
                  tol: float = DEFAULT_FEAS_TOL) -> RiskResult:
    """Requirement for a union of systems: the cheapest of one direct LP per system.

    For value at risk the systems are the maximal admissible loss sets J
    (probability at most alpha, and no outside state fits), each asking for
    the position to be lifted to nonnegative outside J. Every admissible
    loss set lies inside a maximal one, whose LP drops constraints, so the
    minimum and both infinite tags are those of the scan over all
    admissible sets. Any unbounded system makes the requirement -inf; +inf
    means no system was feasible. The scan (``_cheapest``) solves the
    systems no solved system's optimal dual covers first, in index order,
    then a covered one only while its dual bound is under the incumbent,
    and drops the rest. It reports the value, payoff and system (the
    earliest on ties, the first unbounded) a full scan does. At 10-14
    equiprobable states it solves about 6.4 of 45-91 LPs, and at 16 states
    and alpha 0.25 a median of 20 of 1,820. One-shot: every LP is solved
    cold on a context of its own; only each system's immutable, weakly held
    LP template is shared across calls.
    """
    return MembershipOracle(a, vm, tol)._requirement(position, "var_enum")


def solve_rho(a: AcceptanceSet, vm: ValidatedMarket, position,
              tol: float = DEFAULT_FEAS_TOL) -> RiskResult:
    """Requirement by the direct LP: one for a set of one system, else the union scan.

    One-shot, as ``rho_direct_lp`` and ``rho_var_exact`` are: every LP is
    solved cold, and only the systems' LP templates are shared across calls.
    """
    if a.only_system is not None:
        return rho_direct_lp(a, vm, position, tol)
    return rho_var_exact(a, vm, position, tol)


def induced_rho_acceptance(a: AcceptanceSet, vm: ValidatedMarket,
                           tol: float = DEFAULT_FEAS_TOL) -> AcceptanceSet:
    """Acceptance set induced by the requirement: positions of requirement <= 0.

    A finite requirement is attained, so that set is the union over the
    systems A_i of A_i + {m U + K^T c : m >= 0, c free}: system i keeps its
    rows R and right-hand side over the auxiliaries [-R U | -R K^T | old],
    the old ones keeping their signs. A shared row gains the same entries in
    every system, so the source's ``incidence`` carries over. ``member`` is
    one cash LP scan (requirement <= ``BISECT_TOL``) on a context of its own,
    so the set keeps no solver state between calls. Raises
    ``NotPolyhedral`` for a set known only through membership, and
    ``DegenerateAcceptance`` if the requirement is -inf at zero (the
    induced set would be the whole space, not proper).
    """
    at_zero = MembershipOracle(a, vm, tol).cash_lp(np.zeros(a.dim))[0]
    if at_zero == NEG_INF:
        raise DegenerateAcceptance("requirement is -inf at the zero position")
    moves = np.vstack([vm.numeraire, vm.kernel_basis])   # m U + K^T c, m >= 0 first
    signs = np.arange(moves.shape[0]) == 0
    systems = tuple(PolyhedralRep(rep.rows, np.hstack([-(rep.rows @ moves.T), rep.aux]), rep.rhs,
                                  np.concatenate([signs, rep.aux_nonneg]))
                    for rep in a.systems)

    def member(x: np.ndarray) -> bool:
        return MembershipOracle(a, vm, tol).cash_lp(x)[0] <= BISECT_TOL

    return AcceptanceSet(
        dim=a.dim, member=member, non_member=-(max(at_zero, 0.0) + 1.0) * vm.numeraire,
        kind="induced", systems=systems, incidence=a.incidence, member_tol=BISECT_TOL,
    )

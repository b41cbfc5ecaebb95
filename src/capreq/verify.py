"""Property harness: every structural claim becomes a falsifiable check.

Each check samples positions, markets movements or grid points, runs the
solvers, and records violations as replayable payloads (the concrete inputs
are stored, and the seed is captured, so re-running reproduces the report
bit for bit). A check asks every position of its (set, market) pair of one
solve context (``MembershipOracle``), which answers a repeated LP matrix
from its kept Farkas rays and bases, re-solving a kept optimal basis by
the dual simplex where it no longer fits. Every value is an extended
real: an LP's value (``LpOutcome.objective_value``) is +inf where it is
infeasible and -inf where it is unbounded, so a check reads a tag
(``_tag``) off a value and never off a solver status. Comparisons within a
tolerance band of a decision boundary count as inconclusive, never as
violations: values solved to a tolerance cannot adjudicate exact ties.

Checks cover: the risk-measure axioms (monotonicity, translation
invariance), the level-set identities against directional classification,
the domain/finiteness characterization, the two degeneracy conditions, the
acceptance-set variation identity, the good-deal biconditional, the induced
acceptance set, and the equality of directional and topological operators
on polyhedral instances.

Every check takes a set given by its polyhedral systems and refuses one
known only through membership (``NotPolyhedral``). A claim about the set
alone, not about positions, is decided by LPs per system and samples
nothing: the degeneracy certificates on a set of one system, and the
good-deal biconditional, whose hypothesis, kernel witness and good deal
are each an LP from the zero position.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .acceptance import AcceptanceSet, PolyhedralRep
from .directional import PROBE_SCALE, dir_bd_member, dir_cl_member, dir_int_member, rec_member
from .linprog import DEFAULT_FEAS_TOL, solve_lp
from .market import ValidatedMarket
from .riskmeasure import (BISECT_TOL, MembershipOracle, NEG_INF, POS_INF, NotPolyhedral,
                          RiskResult, _exact_systems, induced_rho_acceptance, solve_rho)


@dataclass
class PropertyReport:
    """Result of one property check; an empty violation list means pass."""

    property_id: str
    trials: int = 0
    violations: list[dict] = field(default_factory=list)
    inconclusive: int = 0
    seed: int | None = None
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def violation(self, **payload) -> None:
        self.violations.append(payload)

    def to_json(self) -> str:
        doc = {
            "property_id": self.property_id,
            "trials": self.trials,
            "violations": self.violations,
            "inconclusive": self.inconclusive,
            "seed": self.seed,
            "notes": self.notes,
            "passed": self.passed,
        }
        return json.dumps(doc, sort_keys=True, indent=2)


def _listify(x) -> list:
    return np.asarray(x, dtype=float).tolist()


def _tag(value: float) -> str:
    if value == POS_INF:
        return "pos_inf"
    if value == NEG_INF:
        return "neg_inf"
    return "finite"


def _sample_position(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.uniform(-5.0, 5.0, size=n)


def _sample_eligible(rng: np.random.Generator, vm: ValidatedMarket,
                     scale: float = 2.0) -> np.ndarray:
    coords = rng.uniform(-scale, scale, size=vm.dim_m)
    return vm.m_basis.T @ coords


def check_risk_measure_axioms(a: AcceptanceSet, vm: ValidatedMarket,
                              trials: int = 200, seed: int = 0,
                              tol: float = DEFAULT_FEAS_TOL,
                              band: float | None = None) -> PropertyReport:
    """Monotonicity and translation invariance of the requirement.

    Samples (position, nonnegative bump, eligible movement) triples and
    asserts value(position + bump) <= value(position) and
    value(position + movement) = value(position) - price(movement), with
    infinite tags preserved exactly under translation.
    """
    if band is None:
        band = 10 * BISECT_TOL
    context = MembershipOracle(a, vm, tol)
    rng = np.random.default_rng(seed)
    report = PropertyReport("risk_measure_axioms", trials=trials, seed=seed)
    n = vm.n_states
    for trial in range(trials):
        x = _sample_position(rng, n)
        bump = rng.uniform(0.0, 3.0, size=n)
        z = _sample_eligible(rng, vm)
        rx = context.requirement(x).value
        ry = context.requirement(x + bump).value
        if ry > rx + band:
            report.violation(trial=trial, check="monotonicity", x=_listify(x),
                             bump=_listify(bump), value_x=rx, value_y=ry)
        rz = context.requirement(x + z).value
        price = vm.price(z)
        if _tag(rx) != "finite":
            if _tag(rz) != _tag(rx):
                report.violation(trial=trial, check="translation_tag", x=_listify(x),
                                 movement=_listify(z), tag_x=_tag(rx), tag_xz=_tag(rz))
        elif _tag(rz) != "finite" or abs(rz - (rx - price)) > band:
            report.violation(trial=trial, check="translation", x=_listify(x),
                             movement=_listify(z), value_x=rx, value_xz=rz,
                             price=price)
    return report


def _directional_class(oracle: MembershipOracle, u: np.ndarray, point: np.ndarray) -> str:
    in_cl = dir_cl_member(oracle.contains, u, point)
    if not in_cl:
        return "outside"
    if dir_int_member(oracle.contains, u, point):
        return "interior"
    return "boundary"


def check_levelset_theorem(a: AcceptanceSet, vm: ValidatedMarket, grid: int = 21, seed: int = 0,
                           tol: float = DEFAULT_FEAS_TOL) -> PropertyReport:
    """Level sets of the requirement against directional classification.

    For every grid position and level m in (-1, 0, 1): value < m must put
    the shifted point in the directional interior of the
    zero-cost-reachable set, value > m must keep it outside the directional
    closure, and points with |value - m| inside the band are inconclusive.
    A set known only through membership is refused (``NotPolyhedral``).
    """
    oracle = MembershipOracle(a, vm, tol)
    band = 10 * BISECT_TOL
    report = PropertyReport("levelset_theorem", seed=seed)
    n = vm.n_states
    rng = np.random.default_rng(seed)
    if n == 2:
        axis = np.linspace(-5.0, 5.0, grid)
        points = [np.array([p, q]) for p in axis for q in axis]
    else:
        points = [_sample_position(rng, n) for _ in range(grid * grid)]
    u = vm.numeraire
    for x in points:
        value = oracle.requirement(x).value
        for m in (-1.0, 0.0, 1.0):
            report.trials += 1
            if math.isfinite(value) and abs(value - m) <= band:
                report.inconclusive += 1
                continue
            cls = _directional_class(oracle, u, x + m * u)
            if value < m and cls != "interior":
                report.violation(x=_listify(x), m=m, value=value, classified=cls,
                                 expected="interior")
            elif value > m and cls != "outside":
                report.violation(x=_listify(x), m=m, value=value, classified=cls,
                                 expected="outside")
    return report


def check_domain_theorem(a: AcceptanceSet, vm: ValidatedMarket, trials: int = 200,
                         seed: int = 0, tol: float = DEFAULT_FEAS_TOL) -> PropertyReport:
    """Finiteness characterization of the requirement.

    The requirement's tag must be the tag of the oracle's cash-minimising
    LP scan (``cash_lp``): +inf where no cash level makes the position
    reachable, -inf where the whole numeraire line is reachable, and finite
    where some cash level is but not all of them; a position whose two
    tags differ is one ``domain`` violation carrying both. A finite value
    must also shift the position onto the directional boundary (within the
    band, else inconclusive). A set known only through membership is
    refused (``NotPolyhedral``).
    """
    oracle = MembershipOracle(a, vm, tol)
    band = 10 * BISECT_TOL
    rng = np.random.default_rng(seed)
    report = PropertyReport("domain_theorem", trials=trials, seed=seed)
    u = vm.numeraire
    n = vm.n_states
    for trial in range(trials):
        x = _sample_position(rng, n)
        value = oracle.requirement(x).value
        tag, cash = _tag(value), _tag(oracle.cash_lp(x)[0])
        if tag != cash:
            report.violation(trial=trial, check="domain", x=_listify(x), value=tag, cash=cash)
            continue
        if tag != "finite":
            continue
        # finite: boundary classification at the solved level, band-tolerant
        shifted = x + value * u
        if dir_bd_member(oracle.contains, u, shifted):
            continue
        above_cl = dir_cl_member(oracle.contains, u, shifted + band * u)
        below_int = dir_int_member(oracle.contains, u, shifted - band * u)
        if above_cl and not below_int:
            report.inconclusive += 1
        else:
            report.violation(trial=trial, check="boundary", x=_listify(x),
                             value=value, closure_above=above_cl,
                             interior_below=below_int)
    return report


def _spanning_set(n: int) -> np.ndarray:
    """Rows e_1, ..., e_n and -(e_1 + ... + e_n): a positive spanning set of R^n."""
    return np.vstack([np.eye(n), -np.ones(n)])


def _whole_space(rep: PolyhedralRep, kernel: np.ndarray, tol: float) -> bool:
    """Is B = A + span K everything, for A the system ``rep``?

    The recession cone of B is rec(A) + span K, the cone of the homogenised
    block, and a convex cone is R^n iff it holds a positive spanning set:
    one feasibility LP per direction. A nonempty B with that recession cone
    is R^n, so given the cone, B is R^n iff it holds 0 (an empty system
    has a homogenised block too).
    """
    n = rep.rows.shape[1]
    return (all(solve_lp(rep.lp(s, kernel, homogeneous=True), tol).objective_value < POS_INF
                for s in _spanning_set(n))
            and solve_lp(rep.lp(np.zeros(n), kernel), tol).objective_value < POS_INF)


def _signed_margin(rep: PolyhedralRep, kernel: np.ndarray, x: np.ndarray,
                   tol: float) -> float:
    """Positive inside B = A + span K, negative outside, zero on its boundary.

    Inside, the largest t with x + t s in B for every s of the positive
    spanning set S: the least over s of one LP each (x - m s in B, minimise
    m, t = -m). That least t is positive only at interior points, since x
    is a positive combination of the points x + t_s s. Outside, minus the
    least sum of mu >= 0 with x + sum_j mu_j s_j in B. The numeraire plays
    no part, so the margin is independent of the directional probes.
    """
    spanning = _spanning_set(len(x))
    inside = min(-solve_lp(rep.lp(x, kernel, [-s]), tol).objective_value for s in spanning)
    if inside > 0:
        return inside
    return -solve_lp(rep.lp(x, kernel, spanning, nonnegative=True), tol).objective_value


def check_degeneracy_lemmas(a: AcceptanceSet, vm: ValidatedMarket, grid: int = 25,
                            seed: int = 0, tol: float = DEFAULT_FEAS_TOL) -> PropertyReport:
    """The two degeneracy conditions and their consequences.

    If the zero-cost-reachable set B = A + span K is certified to be the
    whole space, every probe must come back -inf. If the negated numeraire
    is certified to recede the acceptance set, no probe may be finite.
    Both certificates are exact for sets of one polyhedral system,
    auxiliaries (AVaR) included: B is the whole space iff it holds 0 and
    its recession cone holds e_1, ..., e_n and -(e_1 + ... + e_n), each one
    feasibility LP on the membership oracle's block (with a zero
    right-hand side for the cone). A union of several systems is reported
    as not certifiable, both notes read None, and nothing is asserted.
    """
    context = MembershipOracle(a, vm, tol)
    rng = np.random.default_rng(seed)
    report = PropertyReport("degeneracy_lemmas", seed=seed)
    n = vm.n_states
    probes = [_sample_position(rng, n) for _ in range(grid)]
    probes.append(np.zeros(n))

    whole_space = minus_u_recedes = None
    if (rep := a.only_system) is not None:
        whole_space = _whole_space(rep, vm.kernel_basis, tol)
        minus_u_recedes = rec_member(a, -vm.numeraire)
    else:
        report.notes.append("not one polyhedral system; coverage not certified")
    report.notes.append(f"whole_space_certified={whole_space}")

    report.notes.append(f"minus_numeraire_recedes={minus_u_recedes}"
                        f" exact={minus_u_recedes is not None}")

    for x in probes:
        report.trials += 1
        value = context.requirement(x).value
        if whole_space is True and value != NEG_INF:
            report.violation(check="whole_space_degeneracy", x=_listify(x),
                             value=value if math.isfinite(value) else _tag(value))
        if minus_u_recedes is True and math.isfinite(value):
            report.violation(check="recession_dichotomy", x=_listify(x), value=value)
    return report


def _point_hit_level(vm: ValidatedMarket, x: np.ndarray, point: np.ndarray,
                     tol: float = 1e-7) -> float:
    """Exact cash level at which x + m u lands on point + pricing kernel.

    Solves (x - point) + m u in span(kernel) by projecting onto the kernel's
    orthogonal complement; returns +inf when no level achieves it. Isolated
    hits like these are invisible to bisection, which is why the variation
    check evaluates them in closed form.
    """
    kernel = vm.kernel_basis
    u = vm.numeraire

    def resid(v: np.ndarray) -> np.ndarray:
        return v - kernel.T @ (kernel @ v)

    ru = resid(u)
    rd = resid(x - point)
    denom = float(ru @ ru)
    m = -float(rd @ ru) / denom
    if float(np.abs(rd + m * ru).max(initial=0.0)) <= tol:
        return m
    return POS_INF


def check_variation_lemma(a: AcceptanceSet, vm: ValidatedMarket, trials: int = 50,
                          seed: int = 0, tol: float = DEFAULT_FEAS_TOL,
                          extra_points=None, n_boundary_points: int = 3) -> PropertyReport:
    """Enlarging the acceptance set inside the directional closure changes nothing.

    The set is enlarged by finitely many points: solved boundary points
    (positions shifted by their own requirement, which always lie in the
    directional closure of the reachable set) plus any caller-given extras.
    The enlarged requirement is the minimum of the original one and the
    exact point-hit levels, and must agree with the original on random
    positions and at the added points themselves. Extras outside the closure
    break the sandwich hypothesis and must produce violations - that is the
    negative control. A set known only through membership is refused
    (``NotPolyhedral``).
    """
    context = MembershipOracle(a, vm, tol)   # refuses a set without systems
    band = 10 * BISECT_TOL
    rng = np.random.default_rng(seed)
    report = PropertyReport("variation_lemma", trials=trials, seed=seed)
    n = vm.n_states

    added = []
    attempts = 0
    while len(added) < n_boundary_points and attempts < 20 * n_boundary_points:
        attempts += 1
        x = _sample_position(rng, n)
        value = context.requirement(x).value
        if math.isfinite(value):
            added.append(x + value * vm.numeraire)
    if extra_points is not None:
        added.extend(np.asarray(p, dtype=float) for p in extra_points)
    report.notes.append(f"enlarged_by={len(added)} points")

    def enlarged_value(x: np.ndarray, base: float) -> float:
        hits = [_point_hit_level(vm, x, p) for p in added]
        return min([base] + hits)

    probes = [_sample_position(rng, n) for _ in range(trials)] + list(added)
    for trial, x in enumerate(probes):
        base = context.requirement(x).value
        enlarged = enlarged_value(x, base)
        if _tag(base) != _tag(enlarged):
            report.violation(trial=trial, x=_listify(x), base=_tag(base),
                             enlarged=_tag(enlarged))
        elif math.isfinite(base) and abs(base - enlarged) > band:
            report.violation(trial=trial, x=_listify(x), base=base, enlarged=enlarged)
    report.trials = len(probes)
    return report


def check_good_deal_lemma(a: AcceptanceSet, vm: ValidatedMarket,
                          tol: float = DEFAULT_FEAS_TOL) -> PropertyReport:
    """Good deals exist iff the acceptance set meets the pricing kernel nontrivially.

    A good deal is a nonzero eligible payoff -s U + K^T c of the set with
    price -s <= 0. Each question is an LP per system (``PolyhedralRep.lp``,
    from the zero position), decided past ``tol``:

    * hypothesis: the set holds no -t U with t > 0 (max t >= 0 with -t U
      in the system). Where it fails, this is noted, every system counts
      as inconclusive and the biconditional is not asserted;
    * kernel witness: the system holds a nonzero K^T c (min of c_j and of
      -c_j over K^T c in the system, 2k LPs for a kernel of dimension k);
      a witness is a good deal of price 0;
    * a good deal of negative price: max s >= 0 with -s U + K^T c in the
      system.

    The check asserts the biconditional on the union: a good deal without
    a kernel witness is a ``biconditional`` violation. On a monotone set
    the step holds by stripping the numeraire: -s U + K^T c lies below
    K^T c, which is nonzero under the hypothesis, since U >= 0. A set
    without systems is refused (``NotPolyhedral``).
    """
    systems = _exact_systems(a, vm)
    report = PropertyReport("good_deal_lemma", trials=len(systems))
    n, u, kernel = vm.n_states, vm.numeraire, vm.kernel_basis
    origin, no_kernel = np.zeros(n), np.zeros((0, n))
    signed = np.vstack([np.eye(len(kernel)), -np.eye(len(kernel))])

    def lowest(problem) -> float:
        return solve_lp(problem, tol).objective_value

    most_t = max(-lowest(rep.lp(origin, no_kernel, [-u], [-1.0], nonnegative=True))
                 for rep in systems)
    if most_t > tol:
        report.notes.append(f"hypothesis_failed: contains -t * numeraire for t up to {most_t}")
        report.inconclusive = report.trials
        return report

    kernel_witness = any(lowest(rep.lp(origin, no_kernel, kernel, cost)) < -tol
                         for rep in systems for cost in signed)
    priced_deal = None if kernel_witness else next(
        (i for i, rep in enumerate(systems)
         if lowest(rep.lp(origin, kernel, [-u], [-1.0], nonnegative=True)) < -tol), None)
    report.notes.append(f"good_deal_found={kernel_witness or priced_deal is not None}")
    report.notes.append(f"kernel_witness_found={kernel_witness}")
    if priced_deal is not None:
        report.violation(check="biconditional", system=priced_deal)
    return report


def check_induced_set_theorem(a: AcceptanceSet, vm: ValidatedMarket, trials: int = 100,
                              seed: int = 0, tol: float = DEFAULT_FEAS_TOL) -> PropertyReport:
    """The induced acceptance set reproduces the requirement and its level sets.

    Asserts value(x) <= m iff x + m * numeraire belongs to the induced set,
    and that ``solve_rho`` on the induced set, an exact union of polyhedra,
    equals the original within the band (level comparisons inside the band
    are inconclusive). A set known only through membership is refused.
    """
    context = MembershipOracle(a, vm, tol)
    band = 10 * BISECT_TOL
    rng = np.random.default_rng(seed)
    report = PropertyReport("induced_set_theorem", trials=trials, seed=seed)
    induced = induced_rho_acceptance(a, vm, tol)
    n = vm.n_states
    u = vm.numeraire

    for trial in range(trials):
        x = _sample_position(rng, n)
        m = float(rng.uniform(-4.0, 4.0))
        value = context.requirement(x).value
        if math.isfinite(value) and abs(value - m) <= band:
            report.inconclusive += 1
        else:
            in_level = value <= m
            in_induced = induced(x + m * u)
            if in_level != in_induced:
                report.violation(trial=trial, check="level_set", x=_listify(x), m=m,
                                 value=value if math.isfinite(value) else _tag(value),
                                 induced_member=in_induced)
        if trial < trials // 4:
            re_solved = solve_rho(induced, vm, x, tol).value
            if _tag(value) != _tag(re_solved):
                report.violation(trial=trial, check="idempotence", x=_listify(x),
                                 base=_tag(value), induced=_tag(re_solved))
            elif math.isfinite(value) and abs(value - re_solved) > band:
                report.violation(trial=trial, check="idempotence", x=_listify(x),
                                 base=value, induced=re_solved)
    return report


def check_directional_vs_topological(a: AcceptanceSet, vm: ValidatedMarket,
                                     grid: int = 60, seed: int = 0,
                                     tol: float = DEFAULT_FEAS_TOL) -> PropertyReport:
    """Directional operators equal the norm ones when the numeraire enters strictly.

    Works on the zero-cost-reachable set B = A + span K of a set of one
    polyhedral system, auxiliaries (AVaR) included, through LPs on the
    membership oracle's block. The two sufficient inclusions are U in
    rec(B) (the closure condition, one homogenised feasibility LP) and U in
    int rec(B) (the interior condition): for every s of the positive
    spanning set e_1, ..., e_n, -(e_1 + ... + e_n), some s + m U lies in
    rec(B), one homogenised cash LP each. Where they hold, directional
    closure/interior/boundary must match the norm classification at
    sampled points, read off a signed margin that does not use U (see
    ``_signed_margin``); points within 4 * ``PROBE_SCALE`` of the
    boundary are inconclusive. Otherwise the hypothesis failure is
    reported and the comparison is skipped.
    """
    if (rep := a.only_system) is None:
        raise NotPolyhedral("directional-vs-topological check needs one polyhedral system")
    report = PropertyReport("directional_vs_topological", seed=seed)
    kernel, u = vm.kernel_basis, vm.numeraire

    if _whole_space(rep, kernel, tol):
        report.notes.append("reachable set is the whole space; operators trivially agree")
        return report

    cond_closure = solve_lp(rep.lp(u, kernel, homogeneous=True), tol).objective_value < POS_INF
    cond_interior = cond_closure and all(
        solve_lp(rep.lp(s, kernel, [u], homogeneous=True), tol).objective_value < POS_INF
        for s in _spanning_set(vm.n_states))
    report.notes.append(f"closure_condition={cond_closure}")
    report.notes.append(f"interior_condition={cond_interior}")
    if not cond_interior:
        report.notes.append("hypothesis failed; operator comparison skipped")
        report.inconclusive = grid
        return report

    rng = np.random.default_rng(seed)
    oracle = MembershipOracle(a, vm, tol)

    for trial in range(grid):
        report.trials += 1
        x = _sample_position(rng, vm.n_states)
        margin = _signed_margin(rep, kernel, x, tol)
        if abs(margin) <= 4 * PROBE_SCALE:
            report.inconclusive += 1
            continue
        topo_int = margin > 0
        topo_cl = margin >= 0
        d_cl = dir_cl_member(oracle.contains, u, x)
        d_int = dir_int_member(oracle.contains, u, x)
        if d_cl != topo_cl or d_int != topo_int:
            report.violation(trial=trial, x=_listify(x), margin=margin,
                             dir_closure=d_cl, dir_interior=d_int)
    return report


def check_solver_agreement(vm: ValidatedMarket, positions, solve_a, solve_b,
                           band: float = 1e-5, label: str = "solver_agreement") -> PropertyReport:
    """Two requirement solvers must agree on tags exactly and values within band."""
    report = PropertyReport(label, trials=len(positions))
    for i, x in enumerate(positions):
        ra: RiskResult = solve_a(x)
        rb: RiskResult = solve_b(x)
        if _tag(ra.value) != _tag(rb.value):
            report.violation(trial=i, x=_listify(x), a=_tag(ra.value), b=_tag(rb.value),
                             strategy_a=ra.strategy, strategy_b=rb.strategy)
        elif math.isfinite(ra.value) and abs(ra.value - rb.value) > band:
            report.violation(trial=i, x=_listify(x), a=ra.value, b=rb.value,
                             strategy_a=ra.strategy, strategy_b=rb.strategy)
    return report

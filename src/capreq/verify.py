"""Property harness: every structural claim becomes a falsifiable check.

Each check samples positions, markets movements or grid points, runs the
solvers, and records violations as replayable payloads (the concrete inputs
are stored, and the seed is captured, so re-running reproduces the report
bit for bit). Comparisons within a tolerance band of a decision boundary
count as inconclusive, never as violations: bisection cannot adjudicate
exact ties.

Checks cover: the risk-measure axioms (monotonicity, translation
invariance), the level-set identities against directional classification,
the domain/finiteness characterization, the two degeneracy conditions, the
acceptance-set variation identity, the good-deal biconditional, the induced
acceptance set, and the equality of directional and topological operators
on polyhedral instances.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import CapreqError
from .acceptance import AcceptanceSet, PolyhedralRep
from .directional import (DEFAULT_PROBE, DirectionalProbe, dir_bd_member,
                          dir_cl_member, dir_int_member, rec_member)
from .linprog import INFEASIBLE, UNBOUNDED
from .market import ValidatedMarket
from .riskmeasure import (DEFAULT_OPTIONS, MembershipOracle, NEG_INF, POS_INF,
                          NotPolyhedral, RiskResult, SolveOptions,
                          induced_rho_acceptance, is_finite, rho_from_membership,
                          solve_rho)


class EliminationTooLarge(CapreqError, RuntimeError):
    """Kernel elimination exceeded the row budget."""


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


def _sample_kernel(rng: np.random.Generator, vm: ValidatedMarket,
                   scale: float = 2.0) -> np.ndarray:
    k = vm.kernel_basis.shape[0]
    coords = rng.uniform(-scale, scale, size=k)
    return vm.kernel_basis.T @ coords


def check_risk_measure_axioms(a: AcceptanceSet, vm: ValidatedMarket,
                              trials: int = 200, seed: int = 0,
                              opts: SolveOptions = DEFAULT_OPTIONS,
                              band: float | None = None) -> PropertyReport:
    """Monotonicity and translation invariance of the requirement.

    Samples (position, nonnegative bump, eligible movement) triples and
    asserts value(position + bump) <= value(position) and
    value(position + movement) = value(position) - price(movement), with
    infinite tags preserved exactly under translation.
    """
    if band is None:
        band = 10 * opts.bisect_tol
    rng = np.random.default_rng(seed)
    report = PropertyReport("risk_measure_axioms", trials=trials, seed=seed)
    n = vm.n_states
    for trial in range(trials):
        x = _sample_position(rng, n)
        bump = rng.uniform(0.0, 3.0, size=n)
        z = _sample_eligible(rng, vm)
        rx = solve_rho(a, vm, x, opts).value
        ry = solve_rho(a, vm, x + bump, opts).value
        if ry > rx + band:
            report.violation(trial=trial, check="monotonicity", x=_listify(x),
                             bump=_listify(bump), value_x=rx, value_y=ry)
        rz = solve_rho(a, vm, x + z, opts).value
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


def _directional_class(oracle: MembershipOracle, u: np.ndarray, point: np.ndarray,
                       probe: DirectionalProbe) -> str:
    in_cl = dir_cl_member(oracle.contains, u, point, probe)
    if not in_cl:
        return "outside"
    if dir_int_member(oracle.contains, u, point, probe):
        return "interior"
    return "boundary"


def check_levelset_theorem(a: AcceptanceSet, vm: ValidatedMarket,
                           m_values=(-1.0, 0.0, 1.0), grid: int = 21, seed: int = 0,
                           opts: SolveOptions = DEFAULT_OPTIONS,
                           probe: DirectionalProbe = DEFAULT_PROBE) -> PropertyReport:
    """Level sets of the requirement against directional classification.

    For every grid position and level m: value < m must put the shifted
    point in the directional interior of the zero-cost-reachable set,
    value > m must keep it outside the directional closure, and points with
    |value - m| inside the band are inconclusive. Requires an exact
    membership strategy.
    """
    oracle = MembershipOracle(a, vm, opts)
    if not oracle.exact:
        raise NotPolyhedral("level-set check needs an exact membership strategy")
    band = 10 * opts.bisect_tol
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
        value = solve_rho(a, vm, x, opts).value
        for m in m_values:
            report.trials += 1
            if is_finite(value) and abs(value - m) <= band:
                report.inconclusive += 1
                continue
            cls = _directional_class(oracle, u, x + m * u, probe)
            if value < m and cls != "interior":
                report.violation(x=_listify(x), m=m, value=value, classified=cls,
                                 expected="interior")
            elif value > m and cls != "outside":
                report.violation(x=_listify(x), m=m, value=value, classified=cls,
                                 expected="outside")
    return report


def check_domain_theorem(a: AcceptanceSet, vm: ValidatedMarket, trials: int = 200,
                         seed: int = 0, opts: SolveOptions = DEFAULT_OPTIONS,
                         probe: DirectionalProbe = DEFAULT_PROBE) -> PropertyReport:
    """Finiteness characterization of the requirement.

    A finite value means the position is reachable at some cash level but
    not at all of them, and the position shifted by its own requirement must
    classify on the directional boundary (within the band, else
    inconclusive). Infinite tags are cross-checked against the status of
    the oracle's cash-minimising LP (infeasible: not reachable; unbounded:
    the whole numeraire line is reachable).
    """
    oracle = MembershipOracle(a, vm, opts)
    if not oracle.exact:
        raise NotPolyhedral("domain check needs an exact membership strategy")
    band = 10 * opts.bisect_tol
    rng = np.random.default_rng(seed)
    report = PropertyReport("domain_theorem", trials=trials, seed=seed)
    u = vm.numeraire
    n = vm.n_states
    for trial in range(trials):
        x = _sample_position(rng, n)
        value = solve_rho(a, vm, x, opts).value
        status = oracle.cash_lp(x)[0]
        reachable, line = status != INFEASIBLE, status == UNBOUNDED
        if _tag(value) == "pos_inf":
            if reachable:
                report.violation(trial=trial, check="domain", x=_listify(x),
                                 value="pos_inf", reachable=True)
            continue
        if not reachable:
            report.violation(trial=trial, check="domain", x=_listify(x),
                             value=value, reachable=False)
            continue
        if _tag(value) == "neg_inf":
            if not line:
                report.violation(trial=trial, check="line", x=_listify(x),
                                 value="neg_inf", line_contained=False)
            continue
        if line:
            report.violation(trial=trial, check="line", x=_listify(x),
                             value=value, line_contained=True)
            continue
        # finite: boundary classification at the solved level, band-tolerant
        shifted = x + value * u
        if dir_bd_member(oracle.contains, u, shifted, probe):
            continue
        above_cl = dir_cl_member(oracle.contains, u, shifted + band * u, probe)
        below_int = dir_int_member(oracle.contains, u, shifted - band * u, probe)
        if above_cl and not below_int:
            report.inconclusive += 1
        else:
            report.violation(trial=trial, check="boundary", x=_listify(x),
                             value=value, closure_above=above_cl,
                             interior_below=below_int)
    return report


def eliminate_kernel(rep: PolyhedralRep, kernel: np.ndarray,
                     max_rows: int = 4000) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the zero-cost-reachable set by Fourier-Motzkin elimination.

    Input rows describe {x : rows @ x >= rhs}; the output describes
    {x : exists kernel movement k with rows @ (x - k) >= rhs}, i.e. the set
    fattened by the pricing kernel. Only plain blocks are supported. Trivial
    rows are dropped; an empty output means the whole space.
    """
    if not rep.pure:
        raise NotPolyhedral("kernel elimination needs plain rows")
    k = kernel.shape[0]
    # system over (x, c): rows @ x - (rows @ K^T) c >= rhs
    work = np.hstack([rep.rows, -(rep.rows @ kernel.T), rep.rhs.reshape(-1, 1)])
    n = rep.rows.shape[1]
    for col in range(n + k - 1, n - 1, -1):
        coeff = work[:, col]
        zero = np.abs(coeff) <= 1e-12
        pos = coeff > 1e-12
        neg = coeff < -1e-12
        kept = work[zero]
        combos = []
        for i in np.flatnonzero(pos):
            for j in np.flatnonzero(neg):
                row = work[i] / coeff[i] + work[j] / (-coeff[j])
                combos.append(row)
        work = np.vstack([kept] + [np.asarray(combos)]) if combos else kept
        if work.shape[0] == 0:
            break
        work = work[:, [c for c in range(work.shape[1]) if c != col]]
        work = _prune_rows(work)
        if work.shape[0] > max_rows:
            raise EliminationTooLarge(f"{work.shape[0]} rows during elimination")
    if work.shape[0] == 0:
        return np.zeros((0, n)), np.zeros(0)
    return work[:, :n], work[:, n]


def _prune_rows(work: np.ndarray) -> np.ndarray:
    """Drop trivial rows (0 >= nonpositive) and exact duplicates after scaling."""
    if work.shape[0] == 0:
        return work
    coeffs = work[:, :-1]
    norms = np.abs(coeffs).max(axis=1, initial=0.0)
    keep = []
    seen = set()
    for i in range(work.shape[0]):
        if norms[i] <= 1e-12:
            if work[i, -1] > 1e-9:
                # 0 >= positive: infeasible row, keep to signal emptiness
                keep.append(i)
            continue
        row = work[i] / norms[i]
        key = tuple(np.round(row, 12))
        if key not in seen:
            seen.add(key)
            keep.append(i)
    return work[keep] if keep else work[:0]


def certify_whole_space(rep: PolyhedralRep, kernel: np.ndarray) -> bool:
    """True iff the kernel-fattened polyhedron is certified to be everything."""
    rows, rhs = eliminate_kernel(rep, kernel)
    if rows.shape[0] == 0:
        return True
    slopes = np.abs(rows).max(axis=1, initial=0.0)
    return bool(np.all((slopes <= 1e-12) & (rhs <= 1e-9)))


def check_degeneracy_lemmas(a: AcceptanceSet, vm: ValidatedMarket, grid: int = 25,
                            seed: int = 0,
                            opts: SolveOptions = DEFAULT_OPTIONS) -> PropertyReport:
    """The two degeneracy conditions and their consequences.

    If the zero-cost-reachable set is certified to be the whole space, every
    probe must come back -inf. If the negated numeraire is certified to
    recede the acceptance set, no probe may be finite. Certification is
    exact (polyhedral only); for oracle sets the hypotheses are reported as
    not certifiable and nothing is asserted.
    """
    rng = np.random.default_rng(seed)
    report = PropertyReport("degeneracy_lemmas", seed=seed)
    n = vm.n_states
    probes = [_sample_position(rng, n) for _ in range(grid)]
    probes.append(np.zeros(n))

    whole_space = None
    if a.polyhedral is not None and a.polyhedral.pure:
        try:
            whole_space = certify_whole_space(a.polyhedral, vm.kernel_basis)
        except EliminationTooLarge:
            report.notes.append("kernel elimination too large; coverage not certified")
    else:
        report.notes.append("no plain polyhedral rows; coverage not certified")
    report.notes.append(f"whole_space_certified={whole_space}")

    minus_u_recedes = rec_member(a, -vm.numeraire)
    report.notes.append(f"minus_numeraire_recedes={minus_u_recedes.verdict}"
                        f" exact={minus_u_recedes.exact}")

    for x in probes:
        report.trials += 1
        value = solve_rho(a, vm, x, opts).value
        if whole_space is True and value != NEG_INF:
            report.violation(check="whole_space_degeneracy", x=_listify(x),
                             value=value if is_finite(value) else _tag(value))
        if minus_u_recedes.verdict is True and minus_u_recedes.exact and is_finite(value):
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
                          seed: int = 0, opts: SolveOptions = DEFAULT_OPTIONS,
                          extra_points=None, n_boundary_points: int = 3) -> PropertyReport:
    """Enlarging the acceptance set inside the directional closure changes nothing.

    The set is enlarged by finitely many points: solved boundary points
    (positions shifted by their own requirement, which always lie in the
    directional closure of the reachable set) plus any caller-given extras.
    The enlarged requirement is the minimum of the original one and the
    exact point-hit levels, and must agree with the original on random
    positions and at the added points themselves. Extras outside the closure
    break the sandwich hypothesis and must produce violations - that is the
    negative control.
    """
    oracle = MembershipOracle(a, vm, opts)
    if not oracle.exact:
        raise NotPolyhedral("variation check needs an exact membership strategy")
    band = 10 * opts.bisect_tol
    rng = np.random.default_rng(seed)
    report = PropertyReport("variation_lemma", trials=trials, seed=seed)
    n = vm.n_states

    added = []
    attempts = 0
    while len(added) < n_boundary_points and attempts < 20 * n_boundary_points:
        attempts += 1
        x = _sample_position(rng, n)
        value = solve_rho(a, vm, x, opts).value
        if is_finite(value):
            added.append(x + value * vm.numeraire)
    if extra_points is not None:
        added.extend(np.asarray(p, dtype=float) for p in extra_points)
    report.notes.append(f"enlarged_by={len(added)} points")

    def enlarged_value(x: np.ndarray, base: float) -> float:
        hits = [_point_hit_level(vm, x, p) for p in added]
        return min([base] + hits)

    probes = [_sample_position(rng, n) for _ in range(trials)] + list(added)
    for trial, x in enumerate(probes):
        base = solve_rho(a, vm, x, opts).value
        enlarged = enlarged_value(x, base)
        if _tag(base) != _tag(enlarged):
            report.violation(trial=trial, x=_listify(x), base=_tag(base),
                             enlarged=_tag(enlarged))
        elif is_finite(base) and abs(base - enlarged) > band:
            report.violation(trial=trial, x=_listify(x), base=base, enlarged=enlarged)
    report.trials = len(probes)
    return report


def check_good_deal_lemma(a: AcceptanceSet, vm: ValidatedMarket, trials: int = 400,
                          seed: int = 0, opts: SolveOptions = DEFAULT_OPTIONS) -> PropertyReport:
    """Good deals exist iff the acceptance set meets the pricing kernel nontrivially.

    Hypothesis guard: the set must not contain any negative multiple of the
    numeraire (checked on a scale ladder; failure is reported, and the
    biconditional is not asserted). A kernel witness is automatically a good
    deal (price zero); conversely a good deal with the numeraire component
    stripped must be a nonzero kernel element of the set, and that
    constructive step is what the check asserts.
    """
    rng = np.random.default_rng(seed)
    report = PropertyReport("good_deal_lemma", trials=trials, seed=seed)
    u = vm.numeraire

    for t in (1e-6, 1e-3, 0.1, 1.0, 10.0):
        if a(-t * u):
            report.notes.append(f"hypothesis_failed: contains -{t} * numeraire")
            report.inconclusive = trials
            return report

    kernel_dim = vm.kernel_basis.shape[0]
    good_deal = None
    kernel_witness = None
    for trial in range(trials):
        coords = rng.uniform(-3.0, 3.0, size=kernel_dim)
        k = vm.kernel_basis.T @ coords
        if np.abs(k).max(initial=0.0) > 1e-9 and a(k):
            kernel_witness = k
        z = _sample_eligible(rng, vm)
        if np.abs(z).max(initial=0.0) > 1e-9 and a(z) and vm.price(z) <= 1e-9:
            good_deal = z
        if good_deal is not None and kernel_witness is not None:
            break

    report.notes.append(f"good_deal_found={good_deal is not None}")
    report.notes.append(f"kernel_witness_found={kernel_witness is not None}")

    if good_deal is not None and kernel_witness is None:
        # strip the numeraire component: the result is a kernel element and
        # must witness the other side of the biconditional
        stripped = good_deal - vm.price(good_deal) * u
        nonzero = np.abs(stripped).max(initial=0.0) > 1e-9
        if not (nonzero and a(stripped)):
            report.violation(check="biconditional", good_deal=_listify(good_deal),
                             stripped=_listify(stripped), stripped_member=bool(a(stripped)))
    return report


def check_induced_set_theorem(a: AcceptanceSet, vm: ValidatedMarket, trials: int = 100,
                              seed: int = 0,
                              opts: SolveOptions = DEFAULT_OPTIONS) -> PropertyReport:
    """The induced acceptance set reproduces the requirement and its level sets.

    Asserts value(x) <= m iff x + m * numeraire belongs to the induced set,
    and that the requirement computed against the induced set agrees with
    the original (band-tolerant; level comparisons inside the band are
    inconclusive).
    """
    oracle = MembershipOracle(a, vm, opts)
    if not oracle.exact:
        raise NotPolyhedral("induced-set check needs an exact membership strategy")
    band = 10 * opts.bisect_tol
    rng = np.random.default_rng(seed)
    report = PropertyReport("induced_set_theorem", trials=trials, seed=seed)
    induced = induced_rho_acceptance(a, vm, opts)
    n = vm.n_states
    u = vm.numeraire

    def induced_contains(y: np.ndarray) -> bool:
        # induced sets absorb the kernel, so membership needs no kernel search
        return induced(y)

    for trial in range(trials):
        x = _sample_position(rng, n)
        m = float(rng.uniform(-4.0, 4.0))
        value = solve_rho(a, vm, x, opts).value
        if is_finite(value) and abs(value - m) <= band:
            report.inconclusive += 1
        else:
            in_level = value <= m
            in_induced = induced(x + m * u)
            if in_level != in_induced:
                report.violation(trial=trial, check="level_set", x=_listify(x), m=m,
                                 value=value if is_finite(value) else _tag(value),
                                 induced_member=in_induced)
        if trial < trials // 4:
            re_solved = rho_from_membership(induced_contains, vm, x, opts,
                                            strategy="induced_rho", exact=oracle.exact).value
            if _tag(value) != _tag(re_solved):
                report.violation(trial=trial, check="idempotence", x=_listify(x),
                                 base=_tag(value), induced=_tag(re_solved))
            elif is_finite(value) and abs(value - re_solved) > 3 * band:
                report.violation(trial=trial, check="idempotence", x=_listify(x),
                                 base=value, induced=re_solved)
    return report


def check_directional_vs_topological(a: AcceptanceSet, vm: ValidatedMarket,
                                     grid: int = 60, seed: int = 0,
                                     opts: SolveOptions = DEFAULT_OPTIONS,
                                     probe: DirectionalProbe = DEFAULT_PROBE) -> PropertyReport:
    """Directional operators equal the norm ones when the numeraire enters strictly.

    Derives plain rows for the zero-cost-reachable set by kernel
    elimination. The two sufficient inclusions reduce on rows to: every row
    slope against the numeraire nonnegative (always true here) and strictly
    positive (the interior condition). Where they hold, directional
    closure/interior/boundary must match the norm-ball classification at
    sampled points; otherwise the hypothesis failure is reported and the
    comparison is skipped.
    """
    if a.polyhedral is None or not a.polyhedral.pure:
        raise NotPolyhedral("directional-vs-topological check needs plain rows")
    report = PropertyReport("directional_vs_topological", seed=seed)
    rows, rhs = eliminate_kernel(a.polyhedral, vm.kernel_basis)
    u = vm.numeraire

    if rows.shape[0] == 0:
        report.notes.append("reachable set is the whole space; operators trivially agree")
        return report

    slopes = rows @ u
    cond_closure = bool(np.all(slopes >= -1e-12))   # cl(B) + R_> u inside B
    cond_interior = bool(np.all(slopes > 1e-12))    # B + R_> u inside int(B)
    report.notes.append(f"closure_condition={cond_closure}")
    report.notes.append(f"interior_condition={cond_interior}")
    if not (cond_closure and cond_interior):
        report.notes.append("hypothesis failed; operator comparison skipped")
        report.inconclusive = grid
        return report

    norms = np.linalg.norm(rows, axis=1)
    rng = np.random.default_rng(seed)
    oracle = MembershipOracle(a, vm, opts)
    eps = probe.final_scale

    for trial in range(grid):
        report.trials += 1
        x = _sample_position(rng, vm.n_states)
        margin = float(np.min((rows @ x - rhs) / norms))
        if abs(margin) <= 4 * eps:
            report.inconclusive += 1
            continue
        topo_int = margin > 0
        topo_cl = margin >= 0
        d_cl = dir_cl_member(oracle.contains, u, x, probe)
        d_int = dir_int_member(oracle.contains, u, x, probe)
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
        elif is_finite(ra.value) and abs(ra.value - rb.value) > band:
            report.violation(trial=i, x=_listify(x), a=ra.value, b=rb.value,
                             strategy_a=ra.strategy, strategy_b=rb.strategy)
    return report

"""Acceptance sets: which capital positions pass the regulatory test.

An acceptance set contains the zero position, is a proper subset of the
position space, and is monotone (adding a nonnegative payoff never breaks
acceptability). This module provides the standard constructions - the
positive cone, value-at-risk and average-value-at-risk sublevel sets,
monotone halfspaces and intersections - each as a finite union of
polyhedral systems that the solvers exploit, and a sampling validator that
can falsify asserted structure.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import CapreqError, UsageError
from .linprog import LpProblem, make_problem
from .market import ScenarioSpace

MEMBER_TOL = 1e-9
PROB_EPS = 1e-12
ENUM_CAP = 16   # most states whose loss sets are enumerated
MAX_SYSTEMS = math.comb(16, 8)   # most systems an enumerable VaR set has (12,870)

TriState = Optional[bool]


class DimensionMismatch(CapreqError, ValueError):
    """Acceptance sets over different state counts cannot be combined."""


class BadNormal(CapreqError, ValueError):
    """Halfspace normal that is non-finite, or negative somewhere (breaks monotonicity)."""


class AcceptanceParseError(UsageError):
    """Acceptance-set descriptor is malformed."""


@dataclass(frozen=True, eq=False)
class PolyhedralRep:
    """Rows of {X : exists u with rows @ X + aux @ u >= rhs, u_j >= 0 where aux_nonneg_j}.

    ``aux`` has zero columns for plain polyhedra; auxiliary variables appear
    only in epigraph-style blocks (average value at risk). ``aux_nonneg``
    holds one flag per auxiliary column, all False (free) by default; a
    flagged column is a nonnegative column of every LP built from the
    block (``LpProblem.nonneg``), not a row. Two reps compare equal only
    when they are the same object.
    """

    rows: np.ndarray
    aux: np.ndarray
    rhs: np.ndarray
    aux_nonneg: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "rows", np.asarray(self.rows, dtype=float))
        object.__setattr__(self, "aux", np.asarray(self.aux, dtype=float))
        object.__setattr__(self, "rhs", np.asarray(self.rhs, dtype=float))
        nonneg = np.zeros(self.aux.shape[1], dtype=bool) if self.aux_nonneg is None \
            else np.asarray(self.aux_nonneg, dtype=bool)
        object.__setattr__(self, "aux_nonneg", nonneg)
        m = self.rows.shape[0]
        if self.aux.shape[0] != m or self.rhs.shape[0] != m:
            raise DimensionMismatch("polyhedral block rows disagree")
        if nonneg.shape != (self.aux.shape[1],):
            raise DimensionMismatch("aux_nonneg needs one flag per auxiliary column")

    @property
    def pure(self) -> bool:
        return self.aux.shape[1] == 0

    @property
    def n_aux(self) -> int:
        return self.aux.shape[1]

    def rhs_at(self, y) -> np.ndarray:
        """rhs - rows @ y: the right-hand side of every LP of this block at position y.

        ``lp`` builds its right-hand side with it, so an LP kept from an
        earlier position and re-solved with ``LpProblem.with_rhs(rhs_at(y))``
        is the one ``lp`` builds at y, bit for bit.
        """
        return self.rhs - self.rows @ y

    def lp(self, y, kernel, moves=(), cost=None, homogeneous: bool = False,
           nonnegative: bool = False) -> LpProblem:
        """The LP over (m, c, aux) for y + moves^T m - kernel^T c in this system.

        Each row of ``moves`` is a direction with its own coefficient m, free
        or, with ``nonnegative``, at least zero; the LP minimises ``cost @ m``,
        the sum of the coefficients where ``cost`` is None, and without moves
        it only asks for feasibility. The direct LP over portfolio weights is
        this LP with the payoffs as moves, the prices as costs and no kernel.
        ``homogeneous`` zeroes the right-hand side, so the LP asks about the
        recession cone of the set instead of the set; the auxiliaries keep
        their signs, which a cone keeps too.
        """
        moves = np.reshape(np.asarray(moves, dtype=float), (-1, self.rows.shape[1]))
        lhs = np.hstack([self.rows @ moves.T, -(self.rows @ kernel.T), self.aux])
        rhs = -(self.rows @ y) if homogeneous else self.rhs_at(y)
        objective = np.zeros(lhs.shape[1])
        objective[:len(moves)] = 1.0 if cost is None else cost
        nonneg = np.zeros(lhs.shape[1], dtype=bool)
        nonneg[:len(moves)] = nonnegative
        nonneg[lhs.shape[1] - self.n_aux:] = self.aux_nonneg
        return make_problem(objective, lhs, rhs, nonneg)


@dataclass(frozen=True, eq=False)
class RowIncidence:
    """Which of a union's distinct rows each system has.

    A row is its ``[rows | aux | rhs]`` entries together with the signs of
    the auxiliary columns it touches. ``ids[i][k]`` numbers row k of system
    i among the distinct rows, and ``matrix[i, r]`` says whether system i
    has distinct row r. A row shared by two systems is the same LP row,
    over columns of the same signs, in both for any position, so an LP dual
    supported on shared rows is feasible for every system that has them.
    Two incidences compare equal only when they are the same object.
    """

    ids: tuple[np.ndarray, ...]
    matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        counts = [len(k) for k in self.ids]
        flat = np.concatenate(self.ids).astype(np.intp)
        matrix = np.zeros((len(self.ids), int(flat.max(initial=-1)) + 1), dtype=bool)
        matrix[np.repeat(np.arange(len(self.ids)), counts), flat] = True
        object.__setattr__(self, "matrix", matrix)


def _pure_rep(rows, rhs) -> PolyhedralRep:
    rows = np.asarray(rows, dtype=float)
    return PolyhedralRep(rows, np.zeros((rows.shape[0], 0)), np.asarray(rhs, dtype=float))


@dataclass(frozen=True, eq=False)
class AcceptanceSet:
    """Membership oracle over positions plus structural metadata.

    ``member`` must be pure. ``non_member`` witnesses properness. The set is
    the union of ``systems``, a tuple, and the solvers take only such sets:
    they refuse None (a set known only through membership) and a string
    (the reason the systems are too many to enumerate). A union of several
    systems built here carries their ``incidence`` on its distinct rows,
    which lets the solvers skip systems a solved one already bounds; a set
    of one system needs none, and a union without one is solved system by
    system. The three flags are tri-state: True/False as
    asserted by the constructor, None for unknown; the validator can
    falsify asserted-True flags by sampling but never certify them. Two
    sets compare equal only when they are the same object.
    """

    dim: int
    member: Callable[[np.ndarray], bool]
    non_member: np.ndarray
    kind: str = "oracle"
    systems: tuple[PolyhedralRep, ...] | str | None = None
    incidence: RowIncidence | None = None
    is_convex: TriState = None
    is_cone: TriState = None
    closed_under_addition: TriState = None
    member_tol: float = MEMBER_TOL

    def __post_init__(self):
        object.__setattr__(self, "non_member", np.asarray(self.non_member, dtype=float))
        if self.non_member.shape != (self.dim,):
            raise DimensionMismatch("non-member witness has wrong length")

    def __call__(self, position) -> bool:
        return bool(self.member(np.asarray(position, dtype=float)))

    @property
    def only_system(self) -> PolyhedralRep | None:
        """The set's system when it has exactly one, else None."""
        one = isinstance(self.systems, tuple) and len(self.systems) == 1
        return self.systems[0] if one else None


def positive_cone(n: int) -> AcceptanceSet:
    """Positions with no losses in any state: the smallest acceptance set."""
    tol = MEMBER_TOL

    def member(x: np.ndarray) -> bool:
        return bool(np.all(x >= -tol))

    witness = np.zeros(n)
    witness[0] = -1.0
    return AcceptanceSet(
        dim=n, member=member, non_member=witness, kind="positive_cone",
        systems=(_pure_rep(np.eye(n), np.zeros(n)),),
        is_convex=True, is_cone=True, closed_under_addition=True,
    )


def halfspace_acceptance(normal) -> AcceptanceSet:
    """{X : w @ X >= 0} for a finite, nonnegative, nonzero normal w."""
    w = np.asarray(normal, dtype=float)
    if w.ndim != 1 or not np.all(np.isfinite(w)):
        raise BadNormal("normal must be a vector of finite numbers")
    if np.any(w < 0) or not np.any(w > 0):
        raise BadNormal("normal must be nonnegative with a positive component")
    tol = MEMBER_TOL
    # scaling w leaves the set alone, so membership, the witness and the LP
    # row use the normal scaled to max 1, which neither overflows nor underflows
    unit = w / np.abs(w).max()

    def member(x: np.ndarray) -> bool:
        return bool(unit @ x >= -tol)

    return AcceptanceSet(
        dim=w.shape[0], member=member, non_member=-unit / float(np.linalg.norm(unit)),
        kind="halfspace", systems=(_pure_rep(unit.reshape(1, -1), np.zeros(1)),),
        is_convex=True, is_cone=True, closed_under_addition=True,
    )


def compute_var(space: ScenarioSpace, position, alpha: float) -> float:
    """Value at risk: smallest cash amount whose addition caps the loss probability.

    inf over m of { P(X + m < 0) <= alpha }. On a finite space this is
    -v where v is the largest outcome with P(X < v) <= alpha: sort the
    outcomes, accumulate probability strictly below each value, and take the
    last value whose below-mass still fits under alpha. The infimum is
    attained, and outcomes exactly at zero count as non-losses.
    """
    _check_alpha(alpha)
    x = np.asarray(position, dtype=float)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    ps = space.probs[order]
    below = 0.0  # probability strictly below the current outcome
    best = None
    i = 0
    n = xs.shape[0]
    while i < n:
        j = i
        while j < n and xs[j] == xs[i]:
            j += 1
        if below <= alpha + PROB_EPS:
            best = xs[i]
        else:
            break
        below += float(ps[i:j].sum())
        i = j
    assert best is not None  # below starts at 0 <= alpha
    return -float(best)


def compute_avar(space: ScenarioSpace, position, alpha: float) -> float:
    """Average value at risk via exact staircase integration.

    The integrand s -> VaR_s is a step function on a finite space: it equals
    -w_j on [G_{j-1}, G_j) where w_1 < ... < w_m are the distinct outcomes
    and G_j their cumulative probabilities. The integral over (0, alpha] is
    therefore a finite sum; no quadrature is involved.
    """
    _check_alpha(alpha)
    x = np.asarray(position, dtype=float)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    ps = space.probs[order]
    total = 0.0
    cum_prev = 0.0
    i = 0
    n = xs.shape[0]
    while i < n and cum_prev < alpha:
        j = i
        block = 0.0
        while j < n and xs[j] == xs[i]:
            block += float(ps[j])
            j += 1
        cum = cum_prev + block
        width = min(alpha, cum) - cum_prev
        if width > 0:
            total += -xs[i] * width
        cum_prev = cum
        i = j
    return total / alpha


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise UsageError(f"confidence level must lie in (0, 1), got {alpha}")


def loss_probability(space: ScenarioSpace, position, tol: float = MEMBER_TOL) -> float:
    """Probability mass of strictly negative outcomes (zeros are non-losses)."""
    x = np.asarray(position, dtype=float)
    return float(space.probs[x < -tol].sum())


def feasible_loss_sets(space: ScenarioSpace, alpha: float):
    """Maximal state subsets whose probability fits under alpha, in lexicographic order.

    Depth-first search over increasing state indices that extends a subset
    only while its mass fits, so inadmissible subsets are never built.
    Visiting each subset before its extensions yields lexicographic order.
    A subset is kept only if no outside state fits.
    """
    p = [float(v) for v in space.probs]
    cap = alpha + PROB_EPS
    subsets = []

    def visit(combo: tuple, mass: float) -> None:
        if all(mass + p[w] > cap for w in range(len(p)) if w not in combo):
            subsets.append(combo)
        for j in range(combo[-1] + 1 if combo else 0, len(p)):
            if mass + p[j] <= cap:
                visit(combo + (j,), mass + p[j])

    visit((), 0.0)
    return subsets


def var_acceptance(space: ScenarioSpace, alpha: float) -> AcceptanceSet:
    """Sublevel set of value at risk: loss probability at most alpha.

    The union over the maximal loss sets J of the cones {X_w >= 0, w not in
    J}. Always a cone; convex exactly when a single maximal loss set
    dominates (then the set is an intersection of halfspaces), which covers
    the small-alpha case where it collapses to the positive cone. Above
    ENUM_CAP states the loss sets are not enumerated: the set is refused by
    the solvers and the flag stays unknown.
    """
    _check_alpha(alpha)
    tol = MEMBER_TOL
    n = space.n

    def member(x: np.ndarray) -> bool:
        return loss_probability(space, x, tol) <= alpha + PROB_EPS

    systems, incidence, convex = f"{n} states exceed the enumeration cap {ENUM_CAP}", None, None
    if n <= ENUM_CAP:
        # system J keeps the rows e_w, w not in J, so its distinct rows are its kept states
        eye, states = np.eye(n), np.arange(n)
        kept = tuple(np.delete(states, j) for j in feasible_loss_sets(space, alpha))
        systems = tuple(_pure_rep(eye[k], np.zeros(len(k))) for k in kept)
        convex = len(systems) == 1
        incidence = None if convex else RowIncidence(kept)
    return AcceptanceSet(
        dim=n, member=member, non_member=-np.ones(n),
        kind="var", systems=systems, incidence=incidence, is_convex=convex, is_cone=True,
        closed_under_addition=convex,
    )


def avar_acceptance(space: ScenarioSpace, alpha: float) -> AcceptanceSet:
    """Sublevel set of average value at risk: a closed convex cone.

    Membership is decided by the exact staircase value. The polyhedral block
    is the epigraph linearization with auxiliaries (t, u) of Rockafellar and
    Uryasev: n + 1 rows u >= -X - t and t + E[u]/alpha <= 0, with u >= 0
    carried as the sign of u_1..u_n (``aux_nonneg``) and t free; its
    projection onto X is the set.
    """
    _check_alpha(alpha)
    n = space.n
    p = space.probs
    tol = MEMBER_TOL

    def member(x: np.ndarray) -> bool:
        return compute_avar(space, x, alpha) <= tol

    # aux variables ordered (t, u_1..u_n)
    rows = np.vstack([np.eye(n), np.zeros((1, n))])
    aux = np.zeros((n + 1, n + 1))
    aux[:n, 0] = 1.0
    aux[:n, 1:] = np.eye(n)
    aux[n, 0] = -1.0
    aux[n, 1:] = -p / alpha
    nonneg = np.arange(n + 1) > 0   # u >= 0, t free
    return AcceptanceSet(
        dim=n, member=member, non_member=-np.ones(n),
        kind="avar", systems=(PolyhedralRep(rows, aux, np.zeros(n + 1), nonneg),),
        is_convex=True, is_cone=True, closed_under_addition=True,
    )


def intersect(sets: list[AcceptanceSet]) -> AcceptanceSet:
    """Conjunction of regulatory tests; the systems of the parts multiply out."""
    if not sets:
        raise UsageError("need at least one acceptance set")
    dim = sets[0].dim
    for a in sets:
        if a.dim != dim:
            raise DimensionMismatch("intersection parts live on different state counts")
    if len(sets) == 1:
        return sets[0]
    parts = tuple(sets)

    def member(x: np.ndarray) -> bool:
        return all(a.member(x) for a in parts)

    def combine(flags) -> TriState:
        return True if all(f is True for f in flags) else None

    systems, incidence = _product([a.systems for a in parts])
    return AcceptanceSet(
        dim=dim, member=member, non_member=parts[0].non_member.copy(),
        kind="intersection", systems=systems, incidence=incidence,
        is_convex=combine([a.is_convex for a in parts]),
        is_cone=combine([a.is_cone for a in parts]),
        closed_under_addition=combine([a.closed_under_addition for a in parts]),
    )


def _product(per_part: list) -> tuple[tuple[PolyhedralRep, ...] | str | None,
                                       RowIncidence | None]:
    """One system per choice of a system from each part, dropping repeated polyhedra.

    Two systems are the same polyhedron when their auxiliaries have the same
    signs and they have the same distinct rows (see ``RowIncidence``).
    Returns the systems and, for more than one, their row incidence. A
    part known only through membership makes the intersection so; a
    refused part, or more than MAX_SYSTEMS choices, makes it refused.
    """
    if any(s is None for s in per_part):
        return None, None
    refused = next((s for s in per_part if isinstance(s, str)), None)
    if refused is not None:
        return refused, None
    count = math.prod(len(s) for s in per_part)
    if count > MAX_SYSTEMS:
        return f"the intersection has {count} systems, more than {MAX_SYSTEMS}", None
    systems, ids, seen, pool = [], [], set(), {}
    for choice in itertools.product(*per_part):
        rep = _stack(choice)
        # a row also names the signs of the auxiliaries it touches (its bytes say which)
        signs = (rep.aux != 0) & rep.aux_nonneg
        full = np.hstack([rep.rows, rep.aux, rep.rhs[:, None], signs])
        row_ids = [pool.setdefault(row, len(pool)) for row in map(bytes, full)]
        key = (rep.n_aux, rep.aux_nonneg.tobytes(), frozenset(row_ids))
        if key not in seen:
            seen.add(key)
            systems.append(rep)
            ids.append(np.array(row_ids, dtype=np.intp))
    return tuple(systems), (RowIncidence(tuple(ids)) if len(systems) > 1 else None)


def _stack(reps) -> PolyhedralRep:
    """One system whose rows are those of every block, each with its own auxiliaries."""
    rows = np.vstack([rep.rows for rep in reps])
    aux = np.zeros((rows.shape[0], sum(rep.n_aux for rep in reps)))
    r0, c0 = 0, 0
    for rep in reps:
        aux[r0:r0 + rep.rows.shape[0], c0:c0 + rep.n_aux] = rep.aux
        r0, c0 = r0 + rep.rows.shape[0], c0 + rep.n_aux
    return PolyhedralRep(rows, aux, np.concatenate([rep.rhs for rep in reps]),
                         np.concatenate([rep.aux_nonneg for rep in reps]))


def oracle_acceptance(dim: int, member: Callable[[np.ndarray], bool], non_member,
                      is_convex: TriState = None, is_cone: TriState = None,
                      closed_under_addition: TriState = None) -> AcceptanceSet:
    """Wrap a user-supplied membership oracle with asserted (falsifiable) flags.

    The set has no systems, so the sampling validator and the sampled
    recession probe take it, and every solver refuses it.
    """
    return AcceptanceSet(dim=dim, member=member,
                         non_member=np.asarray(non_member, dtype=float),
                         kind="oracle", is_convex=is_convex, is_cone=is_cone,
                         closed_under_addition=closed_under_addition)


@dataclass
class AcceptanceValidationReport:
    """Outcome of the sampling validator; empty violation list means pass."""

    checks_run: int
    violations: list[dict] = field(default_factory=list)
    flags_falsified: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations and not self.flags_falsified


def validate_acceptance(a: AcceptanceSet, sample_count: int = 200,
                        rng_seed: int = 0) -> AcceptanceValidationReport:
    """Check the acceptance-set axioms and falsify asserted flags by sampling.

    Verifies 0-membership, the stored properness witness, and monotonicity
    on random (member, nonnegative bump) pairs. For flags asserted True it
    searches for midpoint / scaling / addition counterexamples; sampling can
    only ever falsify, never certify.
    """
    rng = np.random.default_rng(rng_seed)
    n = a.dim
    report = AcceptanceValidationReport(checks_run=0)

    report.checks_run += 1
    if not a(np.zeros(n)):
        report.violations.append({"check": "zero_member", "point": [0.0] * n})
    report.checks_run += 1
    if a(a.non_member):
        report.violations.append({"check": "proper", "point": a.non_member.tolist()})

    members = [np.zeros(n), np.ones(n)]
    attempts = 0
    while len(members) < sample_count and attempts < 20 * sample_count:
        x = rng.uniform(-5.0, 5.0, size=n)
        attempts += 1
        if a(x):
            members.append(x)

    for x in members[:sample_count]:
        report.checks_run += 1
        bump = rng.uniform(0.0, 3.0, size=n)
        if not a(x + bump):
            report.violations.append({"check": "monotone", "point": x.tolist(),
                                      "bump": bump.tolist()})

    if a.is_cone is True:
        for x in members[:sample_count]:
            report.checks_run += 1
            for lam in (0.5, 2.0):
                if not a(lam * x):
                    report.flags_falsified["is_cone"] = {"point": x.tolist(), "lambda": lam}
                    break
            if "is_cone" in report.flags_falsified:
                break

    if a.is_convex is True and len(members) >= 2:
        for _ in range(sample_count):
            report.checks_run += 1
            i, j = rng.integers(0, len(members), size=2)
            mid = 0.5 * (members[i] + members[j])
            if not a(mid):
                report.flags_falsified["is_convex"] = {
                    "a": members[i].tolist(), "b": members[j].tolist()}
                break

    if a.closed_under_addition is True and len(members) >= 2:
        for _ in range(sample_count):
            report.checks_run += 1
            i, j = rng.integers(0, len(members), size=2)
            if not a(members[i] + members[j]):
                report.flags_falsified["closed_under_addition"] = {
                    "a": members[i].tolist(), "b": members[j].tolist()}
                break

    return report


def find_convexity_violation(a: AcceptanceSet, rng_seed: int = 0,
                             trials: int = 2000) -> tuple[np.ndarray, np.ndarray] | None:
    """Search for two members whose midpoint falls outside (evidence of non-convexity)."""
    rng = np.random.default_rng(rng_seed)
    n = a.dim
    members = []
    for _ in range(trials):
        x = rng.uniform(-5.0, 5.0, size=n)
        if a(x):
            members.append(x)
        if len(members) >= 2:
            for other in members[:-1]:
                if not a(0.5 * (x + other)):
                    return other, x
    return None


def load_acceptance(source, space: ScenarioSpace) -> AcceptanceSet:
    """Parse the acceptance-set JSON descriptor.

    Schema: {"type": "positive_cone" | "var" | "avar" | "halfspace" |
             "intersection", "alpha": number?, "normal": [...]?,
             "parts": [descriptor...]?}
    """
    if isinstance(source, (str, bytes)):
        def _reject_const(token):
            raise AcceptanceParseError(f"non-finite number {token!r} in descriptor")
        try:
            doc = json.loads(source, parse_constant=_reject_const)
        except json.JSONDecodeError as exc:
            raise AcceptanceParseError(f"invalid JSON: {exc}") from exc
    else:
        doc = source
    return _build_acceptance(doc, space)


def _build_acceptance(doc, space: ScenarioSpace) -> AcceptanceSet:
    if not isinstance(doc, dict) or "type" not in doc:
        raise AcceptanceParseError("descriptor must be an object with a 'type'")
    kind = doc["type"]
    if kind == "positive_cone":
        return positive_cone(space.n)
    if kind == "var":
        return var_acceptance(space, _descriptor_alpha(doc))
    if kind == "avar":
        return avar_acceptance(space, _descriptor_alpha(doc))
    if kind == "halfspace":
        normal = doc.get("normal")
        if not isinstance(normal, list) or len(normal) != space.n:
            raise AcceptanceParseError("halfspace needs a 'normal' of state length")
        try:
            return halfspace_acceptance([float(v) for v in normal])
        except (TypeError, ValueError) as exc:   # a non-number entry, or BadNormal
            raise AcceptanceParseError(str(exc)) from exc
    if kind == "intersection":
        parts = doc.get("parts")
        if not isinstance(parts, list) or not parts:
            raise AcceptanceParseError("intersection needs nonempty 'parts'")
        return intersect([_build_acceptance(p, space) for p in parts])
    raise AcceptanceParseError(f"unknown acceptance type {kind!r}")


def _descriptor_alpha(doc) -> float:
    try:
        alpha = float(doc["alpha"])
    except (KeyError, TypeError, ValueError) as exc:
        raise AcceptanceParseError("descriptor needs a numeric 'alpha'") from exc
    if not 0.0 < alpha < 1.0:
        raise AcceptanceParseError("alpha must lie strictly between 0 and 1")
    return alpha

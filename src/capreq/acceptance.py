"""Acceptance sets: which capital positions pass the regulatory test.

An acceptance set contains the zero position, is a proper subset of the
position space, and is monotone (adding a nonnegative payoff never breaks
acceptability). This module provides the standard constructions - the
positive cone, value-at-risk and average-value-at-risk sublevel sets,
monotone halfspaces and intersections - together with structural metadata
(polyhedral rows, convexity/cone flags) that the solvers exploit, and a
sampling validator that can falsify asserted structure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import CapreqError, UsageError
from .market import ScenarioSpace

MEMBER_TOL = 1e-9
PROB_EPS = 1e-12
ENUM_CAP = 16   # most states whose loss sets are enumerated

TriState = Optional[bool]


class DimensionMismatch(CapreqError, ValueError):
    """Acceptance sets over different state counts cannot be combined."""


class BadNormal(CapreqError, ValueError):
    """Halfspace normal that is non-finite, or negative somewhere (breaks monotonicity)."""


class AcceptanceParseError(UsageError):
    """Acceptance-set descriptor is malformed."""


@dataclass(frozen=True)
class PolyhedralRep:
    """Rows of {X : exists u with rows @ X + aux @ u >= rhs}.

    ``aux`` has zero columns for plain polyhedra; auxiliary variables appear
    only in epigraph-style blocks (average value at risk).
    """

    rows: np.ndarray
    aux: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rows", np.asarray(self.rows, dtype=float))
        object.__setattr__(self, "aux", np.asarray(self.aux, dtype=float))
        object.__setattr__(self, "rhs", np.asarray(self.rhs, dtype=float))
        m = self.rows.shape[0]
        if self.aux.shape[0] != m or self.rhs.shape[0] != m:
            raise DimensionMismatch("polyhedral block rows disagree")

    @property
    def pure(self) -> bool:
        return self.aux.shape[1] == 0

    @property
    def n_aux(self) -> int:
        return self.aux.shape[1]


def _pure_rep(rows, rhs) -> PolyhedralRep:
    rows = np.asarray(rows, dtype=float)
    return PolyhedralRep(rows, np.zeros((rows.shape[0], 0)), np.asarray(rhs, dtype=float))


@dataclass(frozen=True)
class AcceptanceSet:
    """Membership oracle over positions plus structural metadata.

    ``member`` must be pure. ``non_member`` witnesses properness. The three
    flags are tri-state: True/False as asserted by the constructor, None for
    unknown; the validator can falsify asserted-True flags by sampling but
    never certify them.
    """

    dim: int
    member: Callable[[np.ndarray], bool]
    non_member: np.ndarray
    kind: str = "oracle"
    polyhedral: PolyhedralRep | None = None
    is_convex: TriState = None
    is_cone: TriState = None
    closed_under_addition: TriState = None
    var_alpha: float | None = None
    space: ScenarioSpace | None = None
    member_tol: float = MEMBER_TOL

    def __post_init__(self):
        object.__setattr__(self, "non_member", np.asarray(self.non_member, dtype=float))
        if self.non_member.shape != (self.dim,):
            raise DimensionMismatch("non-member witness has wrong length")

    def __call__(self, position) -> bool:
        return bool(self.member(np.asarray(position, dtype=float)))


def positive_cone(n: int) -> AcceptanceSet:
    """Positions with no losses in any state: the smallest acceptance set."""
    tol = MEMBER_TOL

    def member(x: np.ndarray) -> bool:
        return bool(np.all(x >= -tol))

    witness = np.zeros(n)
    witness[0] = -1.0
    return AcceptanceSet(
        dim=n, member=member, non_member=witness, kind="positive_cone",
        polyhedral=_pure_rep(np.eye(n), np.zeros(n)),
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

    def member(x: np.ndarray) -> bool:
        return bool(w @ x >= -tol)

    return AcceptanceSet(
        dim=w.shape[0], member=member, non_member=-w / float(np.linalg.norm(w)),
        kind="halfspace", polyhedral=_pure_rep(w.reshape(1, -1), np.zeros(1)),
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

    Always a cone; convex exactly when a single maximal loss set dominates
    (then the set is an intersection of halfspaces), which covers the
    small-alpha case where it collapses to the positive cone. Above ENUM_CAP
    states the loss sets are not enumerated and the flag stays unknown.
    """
    _check_alpha(alpha)
    tol = MEMBER_TOL

    def member(x: np.ndarray) -> bool:
        return loss_probability(space, x, tol) <= alpha + PROB_EPS

    convex: TriState = None
    if space.n <= ENUM_CAP:
        convex = len(feasible_loss_sets(space, alpha)) == 1
    return AcceptanceSet(
        dim=space.n, member=member, non_member=-np.ones(space.n),
        kind="var", is_convex=convex, is_cone=True,
        closed_under_addition=convex,
        var_alpha=alpha, space=space,
    )


def avar_acceptance(space: ScenarioSpace, alpha: float) -> AcceptanceSet:
    """Sublevel set of average value at risk: a closed convex cone.

    Membership is decided by the exact staircase value. The polyhedral block
    is the epigraph linearization with auxiliaries (t, u): u >= -X - t,
    u >= 0 and t + E[u]/alpha <= 0, whose projection onto X is the set.
    """
    _check_alpha(alpha)
    n = space.n
    p = space.probs
    tol = MEMBER_TOL

    def member(x: np.ndarray) -> bool:
        return compute_avar(space, x, alpha) <= tol

    # aux variables ordered (t, u_1..u_n)
    rows = np.vstack([np.eye(n), np.zeros((n, n)), np.zeros((1, n))])
    aux = np.zeros((2 * n + 1, n + 1))
    aux[:n, 0] = 1.0
    aux[:n, 1:] = np.eye(n)
    aux[n:2 * n, 1:] = np.eye(n)
    aux[2 * n, 0] = -1.0
    aux[2 * n, 1:] = -p / alpha
    rhs = np.zeros(2 * n + 1)
    return AcceptanceSet(
        dim=n, member=member, non_member=-np.ones(n),
        kind="avar", polyhedral=PolyhedralRep(rows, aux, rhs),
        is_convex=True, is_cone=True, closed_under_addition=True,
        var_alpha=alpha, space=space,
    )


def intersect(sets: list[AcceptanceSet]) -> AcceptanceSet:
    """Conjunction of regulatory tests; polyhedral rows stack when available."""
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

    poly = None
    if all(a.polyhedral is not None for a in parts):
        rows = np.vstack([a.polyhedral.rows for a in parts])
        n_aux = sum(a.polyhedral.n_aux for a in parts)
        aux = np.zeros((rows.shape[0], n_aux))
        r0, c0 = 0, 0
        for a in parts:
            blk = a.polyhedral
            aux[r0:r0 + blk.rows.shape[0], c0:c0 + blk.n_aux] = blk.aux
            r0 += blk.rows.shape[0]
            c0 += blk.n_aux
        rhs = np.concatenate([a.polyhedral.rhs for a in parts])
        poly = PolyhedralRep(rows, aux, rhs)

    def combine(flags) -> TriState:
        return True if all(f is True for f in flags) else None

    return AcceptanceSet(
        dim=dim, member=member, non_member=parts[0].non_member.copy(),
        kind="intersection", polyhedral=poly,
        is_convex=combine([a.is_convex for a in parts]),
        is_cone=combine([a.is_cone for a in parts]),
        closed_under_addition=combine([a.closed_under_addition for a in parts]),
    )


def oracle_acceptance(dim: int, member: Callable[[np.ndarray], bool], non_member,
                      is_convex: TriState = None, is_cone: TriState = None,
                      closed_under_addition: TriState = None) -> AcceptanceSet:
    """Wrap a user-supplied membership oracle with asserted (falsifiable) flags."""
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


def validate_acceptance(a: AcceptanceSet, space: ScenarioSpace,
                        sample_count: int = 200, rng_seed: int = 0) -> AcceptanceValidationReport:
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

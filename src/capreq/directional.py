"""One-directional closure, interior and boundary probes along the numeraire.

For sets that are invariant under adding nonnegative multiples of a direction
u (true of every acceptance set, and of the zero-cost-reachable set, along
the numeraire), the directional operators against -u collapse to one-sided
line probes:

* closure membership:   x + t u belongs for arbitrarily small t > 0,
* interior membership:  x - t u belongs for some t > 0,
* boundary:             closure minus interior.

Up-closedness makes each of these decidable from a single small-t probe;
larger ladder rungs are sampled only as a monotonicity diagnostic. The final
rung (2^-24 by default) sits far above membership tolerances (~1e-9) so that
probe answers are not tolerance artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import UsageError
from .acceptance import AcceptanceSet
from .linprog import GE, OPTIMAL, make_problem, solve_lp


@dataclass(frozen=True)
class DirectionalProbe:
    """Decreasing ladder of probe scales; the last rung decides membership."""

    epsilon_ladder: tuple[float, ...] = tuple(2.0 ** -k for k in range(25))

    def __post_init__(self):
        ladder = tuple(float(t) for t in self.epsilon_ladder)
        object.__setattr__(self, "epsilon_ladder", ladder)
        if not ladder or any(t <= 0 for t in ladder):
            raise UsageError("ladder must be positive")
        if any(b >= a for a, b in zip(ladder, ladder[1:])):
            raise UsageError("ladder must be strictly decreasing")

    @property
    def final_scale(self) -> float:
        return self.epsilon_ladder[-1]


DEFAULT_PROBE = DirectionalProbe()

Oracle = Callable[[np.ndarray], bool]


def dir_cl_member(member: Oracle, u, x, probe: DirectionalProbe = DEFAULT_PROBE,
                  diagnostics: dict | None = None) -> bool:
    """Is x in the directional closure (membership at arbitrarily small lift)?

    Caller asserts the set is up-closed along u; then x + t u membership at
    the final rung decides closure membership. Two larger rungs are sampled
    and an inversion (member at a small lift but not at a larger one) is
    reported through ``diagnostics['monotonicity_violation']``.
    """
    u = np.asarray(u, dtype=float)
    x = np.asarray(x, dtype=float)
    t = probe.final_scale
    result = bool(member(x + t * u))
    if diagnostics is not None and len(probe.epsilon_ladder) >= 3:
        t_mid = probe.epsilon_ladder[len(probe.epsilon_ladder) // 2]
        t_big = probe.epsilon_ladder[0]
        answers = [(t, result), (t_mid, bool(member(x + t_mid * u))),
                   (t_big, bool(member(x + t_big * u)))]
        for (t1, r1) in answers:
            for (t2, r2) in answers:
                if t1 < t2 and r1 and not r2:
                    diagnostics["monotonicity_violation"] = {"t_small": t1, "t_big": t2}
    return result


def dir_int_member(member: Oracle, u, x, probe: DirectionalProbe = DEFAULT_PROBE) -> bool:
    """Is x in the directional interior (membership survives a small drop)?

    Up-closedness collapses the existential over drop sizes to the final
    rung: x - T u membership for any larger T implies it at the final rung,
    so the one probe decides in both directions.
    """
    u = np.asarray(u, dtype=float)
    x = np.asarray(x, dtype=float)
    return bool(member(x - probe.final_scale * u))


def dir_bd_member(member: Oracle, u, x, probe: DirectionalProbe = DEFAULT_PROBE) -> bool:
    """Directional boundary: in the closure but not the interior."""
    return dir_cl_member(member, u, x, probe) and not dir_int_member(member, u, x, probe)


@dataclass(frozen=True)
class RecessionCheck:
    """Tri-state verdict: True/False when certified or falsified, None when unknown.

    ``exact`` distinguishes algebraically certified answers (polyhedral sets)
    from sampled ones; a False verdict always carries a witness pair.
    """

    verdict: bool | None
    witness: tuple[np.ndarray, float] | None = None
    exact: bool = False


def rec_member(a: AcceptanceSet, direction, base_points=None, lambdas=(0.5, 1.0, 2.0, 8.0),
               tol: float = 1e-9) -> RecessionCheck:
    """Does the direction belong to the recession cone of the set?

    Polyhedral sets get a certified answer: a plain system recedes along v
    iff every row has nonnegative slope, and a block with auxiliaries iff
    the homogenized system is feasible. Otherwise membership of
    base_point + lambda * v is sampled; sampling can falsify (with witness)
    but never certify, so the positive answer stays None (unknown-true).
    """
    v = np.asarray(direction, dtype=float)
    if a.polyhedral is not None:
        rep = a.polyhedral
        if rep.pure:
            ok = bool(np.all(rep.rows @ v >= -tol))
            if ok:
                return RecessionCheck(True, exact=True)
            row = int(np.argmin(rep.rows @ v))
            # from the zero base, lam * v violates the row by one unit
            lam = (1.0 - float(rep.rhs[row])) / -float(rep.rows[row] @ v)
            return RecessionCheck(False, witness=(np.zeros(a.dim), lam), exact=True)
        # recession cone of a projected polyhedron is the projection of the
        # homogenized block
        problem = make_problem(np.zeros(rep.n_aux), rep.aux, -(rep.rows @ v), GE)
        ok = solve_lp(problem).status == OPTIMAL
        return RecessionCheck(ok, exact=True)

    if base_points is None:
        base_points = [np.zeros(a.dim)]
    for base in base_points:
        base = np.asarray(base, dtype=float)
        if not a(base):
            raise UsageError("recession base points must belong to the set")
        for lam in lambdas:
            if not a(base + lam * v):
                return RecessionCheck(False, witness=(base, float(lam)))
    return RecessionCheck(None)

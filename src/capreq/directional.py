"""One-directional closure, interior and boundary probes along the numeraire.

For sets that are invariant under adding nonnegative multiples of a direction
u (true of every acceptance set, and of the zero-cost-reachable set, along
the numeraire), the directional operators against -u collapse to one-sided
line probes:

* closure membership:   x + t u belongs for arbitrarily small t > 0,
* interior membership:  x - t u belongs for some t > 0,
* boundary:             closure minus interior.

Up-closedness makes each of these decidable from a single probe at
t = ``PROBE_SCALE`` (2^-24), which sits far above membership tolerances
(~1e-9) so that probe answers are not tolerance artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import UsageError
from .acceptance import AcceptanceSet
from .linprog import OPTIMAL, solve_lp


PROBE_SCALE = 2.0 ** -24   # lift or drop along u that decides every probe

Oracle = Callable[[np.ndarray], bool]


def dir_cl_member(member: Oracle, u, x) -> bool:
    """Is x in the directional closure (membership at arbitrarily small lift)?

    Caller asserts the set is up-closed along u; then x + t u membership at
    t = ``PROBE_SCALE`` decides closure membership.
    """
    u = np.asarray(u, dtype=float)
    x = np.asarray(x, dtype=float)
    return bool(member(x + PROBE_SCALE * u))


def dir_int_member(member: Oracle, u, x) -> bool:
    """Is x in the directional interior (membership survives a small drop)?

    Up-closedness collapses the existential over drop sizes to one probe:
    x - T u membership for any T >= ``PROBE_SCALE`` implies it at
    ``PROBE_SCALE``, so the one probe decides in both directions.
    """
    u = np.asarray(u, dtype=float)
    x = np.asarray(x, dtype=float)
    return bool(member(x - PROBE_SCALE * u))


def dir_bd_member(member: Oracle, u, x) -> bool:
    """Directional boundary: in the closure but not the interior."""
    return dir_cl_member(member, u, x) and not dir_int_member(member, u, x)


@dataclass(frozen=True)
class RecessionCheck:
    """Tri-state verdict: True/False when certified or falsified, None when unknown.

    ``exact`` distinguishes algebraically certified answers (one polyhedral system)
    from sampled ones; a False verdict always carries a witness pair.
    """

    verdict: bool | None
    witness: tuple[np.ndarray, float] | None = None
    exact: bool = False


def rec_member(a: AcceptanceSet, direction, base_points=None) -> RecessionCheck:
    """Does the direction belong to the recession cone of the set?

    A set of one system gets a certified answer: a plain system recedes
    along v iff every row has nonnegative slope, and a block with
    auxiliaries iff the homogenized system is feasible. Otherwise membership
    of base_point + lambda * v is sampled; sampling can falsify (with
    witness) but never certify, so the positive answer stays None.
    ``base_points`` default to the origin and must belong to the set.
    """
    v = np.asarray(direction, dtype=float)
    rep = a.only_system
    if rep is not None:
        if rep.pure:
            ok = bool(np.all(rep.rows @ v >= -1e-9))
            if ok:
                return RecessionCheck(True, exact=True)
            row = int(np.argmin(rep.rows @ v))
            # from the zero base, lam * v violates the row by one unit
            lam = (1.0 - float(rep.rhs[row])) / -float(rep.rows[row] @ v)
            return RecessionCheck(False, witness=(np.zeros(a.dim), lam), exact=True)
        # recession cone of a projected polyhedron is the projection of the
        # homogenized block
        problem = rep.lp(v, np.zeros((0, a.dim)), homogeneous=True)
        ok = solve_lp(problem).status == OPTIMAL
        return RecessionCheck(ok, exact=True)

    if base_points is None:
        base_points = [np.zeros(a.dim)]
    for base in base_points:
        base = np.asarray(base, dtype=float)
        if not a(base):
            raise UsageError("recession base points must belong to the set")
        for lam in (0.5, 1.0, 2.0, 8.0):
            if not a(base + lam * v):
                return RecessionCheck(False, witness=(base, float(lam)))
    return RecessionCheck(None)

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

Recession-cone membership (``rec_member``) is decided exactly, by the rows
or one homogenized LP, and only for a set of one polyhedral system; a
union or a set without systems is refused (``NotPolyhedral``).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .acceptance import AcceptanceSet
from .linprog import OPTIMAL, solve_lp
from .riskmeasure import NotPolyhedral


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


def rec_member(a: AcceptanceSet, direction) -> bool:
    """Does the direction belong to the recession cone of a set of one system?

    A plain system recedes along v iff every row has nonnegative slope, and
    a block with auxiliaries iff the homogenized system is feasible: the
    recession cone of a projected polyhedron is the projection of the
    homogenized block. Any other set is refused (``NotPolyhedral``).
    """
    rep = a.only_system
    if rep is None:
        raise NotPolyhedral("recession membership needs one polyhedral system")
    v = np.asarray(direction, dtype=float)
    if rep.pure:
        return bool(np.all(rep.rows @ v >= -1e-9))
    return solve_lp(rep.lp(v, np.zeros((0, a.dim)), homogeneous=True)).status == OPTIMAL

"""Dense linear programming: a dual-simplex phase 1 and a primal phase 2 with Bland's rule.

Self-contained kernel used by every exact solver path in this package.
Instances are small (tens of rows/columns), so a dense tableau is the
right tool: no external solver dependency, fully deterministic pivoting,
and statuses that are certified before they are returned.

Conventions: minimize ``c @ x`` subject to ``A @ x >= b``, the one row
form; each variable is free or, where the ``nonneg`` mask flags it,
nonnegative. Any other bound is a row: a "<=" row is negated and an
equation is a pair of opposite rows.

The standard form keeps every column whole: [A | -I] over x and one slack
per row, with no free column split into a difference of two nonnegative
ones (``_Standard``). The simplex treats a free column natively, as
production codes do (Maros 2003): it enters where its reduced cost is
nonzero, decreasing where that cost is positive, it is never chosen to
leave, and its basic value may be negative. A free column therefore
enters at most once per solve, after which Bland's rule on the bounded
columns ends the solve.

Phase 1 is the dual simplex from the slack basis: every row starts on its
own slack, and a row whose right-hand side is positive starts with that
slack basic below zero. On a zero cost row every basis is dual feasible,
so ``_run_dual_simplex`` alone reaches a feasible basis (Lemke 1954;
Maros 2003, ch. 9) with no auxiliary column: the most violated row,
relative to its scale, leaves first, and Bland's rule picks every later
row. It stops at a row with a negative value and no column that can move
it: below -tol the row proves the LP infeasible (below); within tol it is
short by rounding only, its value becomes 0 and the dual simplex goes
on. A row whose scale (its largest |entry| or |right-hand side|) reaches
1/PIVOT_TOL is refused: its scaled slack is at or below PIVOT_TOL, so it
could never pivot.

Every certificate is read off the final tableau's slack block, columns
n .. n+m-1. Whatever the row scaling, the standard columns of a final
tableau with basis B are B^-1 [A | -I] (the revised-simplex identity;
Chvatal 1983), so the block is -B^-1. A slack
costs 0 and its column is -e_i, so its reduced cost is y_i of
y = c_B B^-1: the optimal dual is the block's reduced costs, with no
second solve, B^-1 b is -(block @ b), and a Farkas ray is a row of the
block (below).

At these sizes a call costs Python and numpy call overhead, not
arithmetic, so the work is split by what it depends on. Once per matrix,
when an ``LpProblem`` is built: validation, the standard objective and
column signs, and each row's largest entry (``_Standard``).
``LpProblem.with_rhs`` shares all of it, so a matrix re-solved for many
right-hand sides pays for it once. On every call: the right-hand side,
the row scales and the scaled block, the first row to leave, both
phases, the certificates and the dual. Phase 1 makes no pivot when no row
starts violated. The array work is whole-array, and a pivot is a fixed
handful of array operations.

Every status leaves a certificate that does not depend on the right-hand
side b except through one test. An infeasible outcome carries a Farkas
ray, read off the row r at which the dual simplex stopped: that row reads
beta @ [A | -I] u = beta @ b < 0 with beta = B^-1's row r and no entry
that lets a column move it, so y = -beta, the slack block's row r, has
y >= 0, A^T y at most 0 on nonnegative columns and 0 on free ones, and
y @ b > 0. It is checked on the original data and proves infeasibility
wherever y @ b > 0. An optimal or
unbounded outcome carries its final basis and tableau: the basis's
reduced costs, so an optimal basis's dual, are the same at every b, and
an unbounded outcome's ray does not depend on b. ``repose`` answers the
same matrix at another right-hand side from one of them (right-hand-side
parametric LP): with no pivot from a ray, or from a basis whose values
B^-1 b are still nonnegative on its bounded columns (a free column's
value may have changed sign), and from an optimal basis they no longer
fit by the dual simplex (Lemke 1954) on a copy of its tableau, which
stays dual feasible; a row at which the dual simplex stops gives a
Farkas ray as a cold solve's stalled row does. It certifies the answer as
a solve's is.
``solve_lp`` itself keeps nothing between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import CapreqError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

DEFAULT_FEAS_TOL = 1e-8
PIVOT_TOL = 1e-10   # a pivot entry at or below this (scaled) is rounding residue
_MAX_PIVOTS = 50_000


class MalformedProblem(CapreqError, ValueError):
    """Problem dimensions or entries are inconsistent."""


class NumericalBreakdown(CapreqError, RuntimeError):
    """A row's scale reaches 1/``PIVOT_TOL``, pivoting stalled, or a status failed its
    certificate."""


def _as_float_array(value, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != ndim:
        raise MalformedProblem(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class LpProblem:
    """minimize objective @ x  s.t.  lhs @ x >= rhs,  x_j >= 0 where nonneg_j.

    ``nonneg`` holds one bool per column; an unflagged column is free.
    Construction validates the data and derives, once, the part of the
    standard form that ignores ``rhs`` (``_Standard``), so the arrays must
    not change afterwards. ``with_rhs`` gives the same problem with another
    right-hand side, sharing that part: re-solving one matrix for many
    right-hand sides validates and standardises it once. Two problems
    compare equal only when they are the same object.
    """

    objective: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    nonneg: np.ndarray
    _std: _Standard = field(init=False, repr=False)

    def __post_init__(self):
        for name, ndim in (("objective", 1), ("lhs", 2), ("rhs", 1)):
            object.__setattr__(self, name, _as_float_array(getattr(self, name), name, ndim))
        object.__setattr__(self, "nonneg", np.asarray(self.nonneg))
        m, n = self.lhs.shape
        if n == 0:
            raise MalformedProblem("problem must have at least one variable")
        if self.objective.shape != (n,):
            raise MalformedProblem("objective length does not match column count")
        if self.rhs.shape != (m,):
            raise MalformedProblem("rhs length does not match row count")
        if self.nonneg.dtype != bool or self.nonneg.shape != (n,):
            raise MalformedProblem("nonneg must hold one bool per column")
        if any(np.count_nonzero(np.isfinite(a)) < a.size
               for a in (self.objective, self.lhs, self.rhs)):
            raise MalformedProblem("objective, lhs and rhs must be finite")
        object.__setattr__(self, "_std", _Standard(self))

    def with_rhs(self, rhs) -> LpProblem:
        """This problem with right-hand side ``rhs``; only ``rhs`` is validated."""
        b = _as_float_array(rhs, "rhs", 1)
        if b.shape != self.rhs.shape:
            raise MalformedProblem("rhs length does not match row count")
        if np.count_nonzero(np.isfinite(b)) < b.size:
            raise MalformedProblem("objective, lhs and rhs must be finite")
        twin = object.__new__(LpProblem)
        twin.__dict__.update(self.__dict__, rhs=b)
        return twin

    @property
    def n_rows(self) -> int:
        return self.lhs.shape[0]

    @property
    def n_cols(self) -> int:
        return self.lhs.shape[1]


def make_problem(objective, lhs, rhs, nonneg=None) -> LpProblem:
    """Convenience constructor; ``nonneg`` defaults to all False, every variable free."""
    c = _as_float_array(objective, "objective", 1)
    n = c.shape[0]
    a = np.asarray(lhs, dtype=float)
    if a.size == 0:
        a = a.reshape(0, n)
    return LpProblem(c, a, _as_float_array(rhs, "rhs", 1),
                     np.zeros(n, dtype=bool) if nonneg is None else nonneg)


@dataclass(frozen=True)
class LpOutcome:
    """Solver result. ``x``/``dual`` present iff optimal, ``ray`` iff unbounded.

    ``objective_value`` is the LP's value in [-inf, +inf] (Rockafellar
    1970, section 4): the optimum, +inf (the default) where the LP is
    infeasible and -inf where it is unbounded.

    ``dual`` holds one multiplier per row of the original problem, c_B B^-1
    of the final basis, nonnegative on every row. The union scan in
    ``riskmeasure`` checks it against the problem's data and uses it as a
    lower bound on the other systems. ``support`` holds the rows S on which
    ``repose`` checked that dual (``_dual_support``); it is None on a cold
    solve's outcome, whose dual is unchecked.

    ``farkas`` holds, on an infeasible outcome, the slack block's row at
    which the dual simplex stopped, in phase 1 or in ``repose``, as a
    Farkas ray checked on the original data (``_farkas_ray``), or None
    where a cold solve's check failed; the status stands either way.
    ``basis`` holds the final basis of an optimal or unbounded outcome, one
    standard column (``_Standard``: column j < n is the original column j,
    column n + i row i's slack) per row; a free column, once basic, stays
    so. Such an outcome keeps, privately, its final tableau (``_final``),
    whose slack block is -B^-1 (module docstring). ``repose`` re-poses a
    ray, or re-poses or re-solves a basis, at another right-hand side of
    the same matrix.
    """

    status: str
    x: np.ndarray | None = None
    objective_value: float = math.inf
    dual: np.ndarray | None = None
    ray: np.ndarray | None = None
    pivots: int = 0
    basis: np.ndarray | None = None
    farkas: np.ndarray | None = None
    support: np.ndarray | None = None
    _final: np.ndarray | None = field(default=None, repr=False, compare=False)


class _Standard:
    """What ``solve_lp`` derives from a problem's data other than its right-hand side.

    The problem becomes min c @ u s.t. [lhs | -I] u = rhs over the
    standard columns u = (x, s): the n original columns, whole, then one
    slack per row with entry -1, and c = [objective | 0]. The block itself
    is not kept: ``solve_lp`` writes ``lhs`` and the slack diagonal into
    its tableau. ``free`` flags the standard columns without a sign bound,
    the original free ones; every other column, slacks included, is >= 0.
    A free column is not split into a difference of two bounded ones: the
    simplex lets it enter in either direction and never chooses it to
    leave.

    ``row_max`` holds each row's largest entry of the block in magnitude,
    max(1, max |lhs|) counting the slack's 1, which row equilibration
    needs.
    """

    __slots__ = ("free", "c", "row_max")

    def __init__(self, problem: LpProblem):
        m, n = problem.lhs.shape
        self.free = np.zeros(n + m, dtype=bool)
        self.free[:n] = ~problem.nonneg
        self.c = np.zeros(n + m)
        self.c[:n] = problem.objective
        self.row_max = np.maximum(np.abs(problem.lhs).max(axis=1), 1.0)


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    piv_row = tableau[row]
    piv_row /= piv_row[col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    # p / p is exactly 1 and f - f * 1 exactly 0: column ``col`` becomes a unit column
    tableau -= factors[:, None] * piv_row


def _run_simplex(tableau, basis, free):
    """Bland's rule loop over the standard columns, which ``free`` covers.

    ``free`` flags the standard columns without a sign bound. The entering
    column is the lowest index among bounded columns with reduced cost
    below -PIVOT_TOL and free ones with |reduced cost| above it; a free
    column whose reduced cost is positive enters decreasing. Rows whose
    basic column is free take no part in the ratio test, so a free column
    never leaves once it enters, and its basic value may be negative. A
    basic column's reduced cost is exactly 0, so each free column enters at
    most once; after that, Bland's rule runs on the bounded columns alone,
    and it ends.

    Returns ("optimal", pivots) or ("unbounded", entering, pivots); the
    entering column moves in the direction that lowers the cost.
    """
    m = len(basis)
    cost, values = tableau[-1, :len(free)], tableau[:m, -1]   # views, updated by each pivot
    bounded = ~free[basis]   # the rows that take part in the ratio test
    pivots = 0
    while True:
        improving = (cost < -PIVOT_TOL) | (free & (cost > PIVOT_TOL))
        entering = improving.argmax()  # Bland: lowest index
        if not improving[entering]:
            return ("optimal", pivots)
        col = tableau[:m, entering]
        if cost[entering] > 0.0:
            col = -col   # a free column entering decreasing
        # entries up to PIVOT_TOL, scaled by the column's largest magnitude
        # when that exceeds 1, are rounding residue and treated as zero: a
        # pivot on one blows the tableau up. The unbounded conclusion is
        # certified (or rejected) on the returned ray
        rows = ((col > PIVOT_TOL * np.abs(col).max(initial=1.0)) & bounded).nonzero()[0]
        if not rows.size:
            return ("unbounded", entering, pivots)
        ratios = values[rows] / col[rows]
        tied = rows[ratios <= ratios.min() + 1e-15]
        leaving = tied[basis[tied].argmin()] if tied.size > 1 else tied[0]  # Bland tie-break
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering
        bounded[leaving] = not free[entering]
        pivots += 1
        if pivots > _MAX_PIVOTS:
            raise NumericalBreakdown("pivot budget exhausted")


def _movers(row, free):
    """The entries of a tableau row that let its column move the row's basic value up.

    A bounded column's entry below -10 PIVOT_TOL max(1, |row|) and a free
    column's entry beyond that in magnitude. Smaller entries are rounding
    residue: on a zero cost row every dual ratio ties, and Bland's rule
    would pivot on one and blow the tableau up.
    """
    limit = 10 * PIVOT_TOL * max(1.0, float(np.abs(row).max()))
    return (row < -limit) | (free & (np.abs(row) > limit))


def _run_dual_simplex(tableau, basis, free, first=None):
    """Dual simplex with Bland's rule over the standard columns, which ``free`` covers.

    ``free`` flags the standard columns without a sign bound. The basis is
    dual feasible: its reduced costs are nonnegative on bounded columns
    and 0 on free ones, up to rounding, which the ratios absorb. The
    leaving row is ``first`` on the first pivot where it is given, and
    otherwise the one with a negative value whose basic column is bounded
    and has the lowest index; a free basic value may be negative. The
    entering column, among the row's ``_movers``, has the least ratio of
    max(reduced cost, 0) (|reduced cost| on a free column) to |entry|, the
    lowest index on ties. A free column is never chosen to leave, so it
    enters at most once.

    Returns ("optimal", pivots) once every bounded basic value is
    nonnegative, ("infeasible", row, pivots) at a row with no entering
    column, which proves the LP infeasible, or None past ``_MAX_PIVOTS``.
    """
    m = len(basis)
    cost, values = tableau[-1, :len(free)], tableau[:m, -1]   # views, updated by each pivot
    bounded = ~free[basis]
    pivots, leaving = 0, first
    while True:
        if leaving is None:
            negative = ((values < 0.0) & bounded).nonzero()[0]
            if not negative.size:
                return ("optimal", pivots)
            leaving = negative[basis[negative].argmin()]
        row = tableau[leaving, :len(free)]
        cols = _movers(row, free).nonzero()[0]
        if not cols.size:
            return ("infeasible", leaving, pivots)
        d = cost[cols]
        ratios = np.where(free[cols], np.abs(d), np.maximum(d, 0.0)) / np.abs(row[cols])
        entering = cols[ratios.argmin()]
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering
        bounded[leaving] = not free[entering]
        pivots, leaving = pivots + 1, None
        if pivots > _MAX_PIVOTS:
            return None


def _certify_optimal(problem, x, tol):
    size = float(np.abs(x).max())
    if not math.isfinite(size):
        return False
    resid = problem.lhs @ x - problem.rhs
    # row scale from the actual cancellation magnitude on each row; it is at
    # least 1, so rows short by at most tol pass without it
    if resid.min(initial=0.0) < -tol:
        scale = np.maximum(1.0, np.maximum(np.abs(problem.rhs), np.abs(problem.lhs) @ np.abs(x)))
        if np.count_nonzero(resid < -tol * scale):
            return False
    margin = tol * max(1.0, size)
    return np.count_nonzero(problem.nonneg & (x < -margin)) == 0


def _certify_ray(problem, ray, tol):
    size = float(np.abs(ray).max())
    if not (math.isfinite(size) and size > tol):
        return False
    limit = tol * max(1.0, size)
    if np.count_nonzero(problem.lhs @ ray < -limit):
        return False
    if np.count_nonzero(problem.nonneg & (ray < -limit)):
        return False
    return float(problem.objective @ ray) < 0.0


def _dual_support(problem: LpProblem, dual: np.ndarray, tol: float) -> np.ndarray | None:
    """The rows S where an optimal dual y of ``problem`` exceeds ``tol``, or None if y fails.

    In the one row form a dual is nonnegative on every row. y is checked on
    the problem's own unscaled data, with r = A_S^T y_S - c and the limit
    tol * max(1, |c|): y >= -tol, |r_j| within the limit on free columns
    and r_j at most the limit on nonnegative ones, where r_j < 0 prices a
    bound at 0. y_S is then a feasible dual, so by weak duality no feasible
    point costs less than b_S @ y_S.
    """
    if dual.min(initial=0.0) < -tol:
        return None
    support = (dual > tol).nonzero()[0]
    c = problem.objective
    residual = problem.lhs[support].T @ dual[support] - c
    limit = tol * max(1.0, float(np.abs(c).max()))
    if np.where(problem.nonneg, residual, np.abs(residual)).max() > limit:
        return None
    return support


def _farkas_ray(problem: LpProblem, y: np.ndarray, tol: float) -> np.ndarray | None:
    """A stalled row's slack block y of an infeasible ``problem`` as a Farkas ray, or None.

    A ray y >= 0 with r = A^T y at most 0 on nonnegative columns and 0 on
    free ones, and y @ b > 0, proves that no x has A x >= b: y @ A x would
    be at most 0 and at least y @ b. y is checked on the problem's own
    unscaled data: an entry below -tol fails, other negative entries
    become 0, each |r_j| must be within tol times (|A|^T y)_j, the scale of
    its rounding (only r_j itself on a nonnegative column), floored at the
    smallest normal float, which subnormal entries cannot underflow to 0,
    and y @ b must be positive. y keeps the scale of its row, in which
    y @ b is minus the row's value up to rounding: ``solve_lp`` calls the LP
    infeasible because that value is below -tol.
    """
    if y.min(initial=0.0) < -tol:
        return None
    y = np.maximum(y, 0.0) + 0.0
    lhs = problem.lhs
    r = lhs.T @ y
    limit = tol * np.maximum(np.abs(lhs).T @ y, np.finfo(float).tiny)
    if np.count_nonzero(np.where(problem.nonneg, r, np.abs(r)) > limit):
        return None
    return y if float(problem.rhs @ y) > 0.0 else None


def solve_lp(problem: LpProblem, tol: float = DEFAULT_FEAS_TOL) -> LpOutcome:
    """Solve a dense LP and certify the reported status.

    Deterministic: Bland's anti-cycling rule with lowest-index tie breaking,
    so identical inputs give identical pivot sequences and outputs.
    """
    if not 0 < tol < math.inf:
        raise MalformedProblem("tolerances must be positive and finite")

    std = problem._std
    m, n = problem.lhs.shape
    n_std = n + m
    # each row's scale keeps violations comparable across rows of very
    # different magnitudes (bracket probes mix O(1) and O(2^33) entries).
    # row_max counts the slack's 1, so every scale is at least 1
    row_scale = np.maximum(std.row_max, np.abs(problem.rhs))
    if np.count_nonzero(row_scale >= 1.0 / PIVOT_TOL):
        raise NumericalBreakdown("a row's scale reaches 1/PIVOT_TOL, so its slack cannot pivot")

    # slack starting basis: row i starts on its slack, column n + i,
    # once the row is divided by its scale and then by the slack's scaled
    # entry -1/scale_i. The round trip, not an exact negation, is what makes
    # an entry that the scaling underflows count as zero
    mult = 1.0 / (-1.0 / row_scale)
    basis = np.arange(n, n_std)
    slacks = slice(n, n_std)
    # columns: standard | right-hand side; phase 1 runs on a zero cost row.
    # Rows [lhs | -I | rhs] are written, then scaled in place; the slack
    # diagonal, entry (i, n + i), sits n_std + 2 apart in the flat view
    tableau = np.zeros((m + 1, n_std + 1))
    tableau[:m, :n] = problem.lhs
    tableau.reshape(-1)[n:m * (n_std + 2):n_std + 2] = -1.0
    tableau[:m, -1] = problem.rhs
    body = tableau[:m]
    body /= row_scale[:, None]
    body *= mult[:, None]
    # the most violated row, relative to its scale, leaves first (lowest row
    # on ties); with no violated row phase 1 makes no pivot
    ratio = tableau[:m, -1] / row_scale
    first = int(ratio.argmin()) if ratio.min(initial=0.0) < 0.0 else None
    pivots = 0
    while True:
        status = _run_dual_simplex(tableau, basis, std.free, first)
        if status is None or pivots + status[-1] > _MAX_PIVOTS:
            raise NumericalBreakdown("pivot budget exhausted")
        pivots += status[-1]
        if status[0] == OPTIMAL:
            break
        row = status[1]
        if np.count_nonzero(_movers(tableau[row, :n_std], std.free)):
            raise NumericalBreakdown("phase-1 stalled at a row that a column can move")
        if tableau[row, -1] < -tol:
            return LpOutcome(status=INFEASIBLE, pivots=pivots,
                             farkas=_farkas_ray(problem, tableau[row, slacks] + 0.0, tol))
        # short by rounding only: the row's basic value becomes 0, and the
        # dual simplex goes on from the next negative row
        tableau[row, -1], first = 0.0, None

    # phase 2: reduced costs for the true objective
    tableau[-1] = -(std.c[basis] @ tableau[:-1])
    tableau[-1, :n_std] += std.c
    status = _run_simplex(tableau, basis, std.free)
    pivots += status[-1]

    if status[0] == "unbounded":
        # the entering column rises where its reduced cost is negative and,
        # free, falls where it is positive
        entering = status[1]
        d_std = np.zeros(n_std)
        d_std[entering] = 1.0 if tableau[-1, entering] < 0.0 else -1.0
        d_std[basis] = -d_std[entering] * tableau[:-1, entering]
        ray = d_std[:problem.n_cols] + 0.0
        if not _certify_ray(problem, ray, tol):
            raise NumericalBreakdown("unbounded ray failed verification")
        return LpOutcome(status=UNBOUNDED, objective_value=-math.inf, ray=ray, pivots=pivots,
                         basis=basis, _final=tableau)

    x_std = np.zeros(n_std)
    x_std[basis] = tableau[:-1, -1]
    x = x_std[:problem.n_cols] + 0.0
    if not _certify_optimal(problem, x, 10 * tol):
        raise NumericalBreakdown("optimal point failed feasibility certificate")
    value = float(std.c @ x_std) + 0.0

    # y = c_B B^-1: slack i costs 0 and its column is -e_i, so its reduced cost is y_i
    dual = tableau[-1, slacks] + 0.0
    return LpOutcome(status=OPTIMAL, x=x, objective_value=value, dual=dual, pivots=pivots,
                     basis=basis, _final=tableau)


def _past_margin(problem: LpProblem, y: np.ndarray | None, pivots: int,
                 tol: float) -> LpOutcome | None:
    """Infeasible by the checked Farkas ray y where y @ b clears ``repose``'s margin, else None."""
    if y is not None and float(problem.rhs @ y) > tol * max(1.0, float(np.abs(problem.rhs) @ y)):
        return LpOutcome(status=INFEASIBLE, pivots=pivots, farkas=y)
    return None


def repose(problem: LpProblem, stored: LpOutcome,
           tol: float = DEFAULT_FEAS_TOL) -> LpOutcome | None:
    """``stored``'s certificate at ``problem``'s right-hand side: a certified outcome, or None.

    ``stored`` is an outcome of a problem with the same matrix
    (``with_rhs``): infeasible with a Farkas ray, or optimal or unbounded
    with its final tableau. Only the right-hand side b changed, so:

    - the ray y still has y >= 0 and the column signs of A^T y, so it
      proves infeasibility wherever y @ b > 0. It is taken only where
      y @ b > tol * max(1, |b| @ y), stricter than the y @ b > 0 it was
      stored with: in the scale of the row it was read off, y @ b is then
      past the tol at which a cold solve calls the LP infeasible, with room
      for rounding, so a re-posed "infeasible" does not meet a cold
      "feasible";
    - the basis keeps its reduced costs, so it stays dual feasible. Its
      values B^-1 b are -(block @ b) for the tableau's slack block
      (columns n .. n+m-1), which is -B^-1. Where those of its bounded
      columns are all nonnegative, a test that takes no tolerance, the
      basis is optimal (Gal & Nedoma 1972), or still ends on the stored
      unbounded ray, with no pivot; a free column's basic value may have
      either sign. Otherwise an optimal basis is re-solved by the dual
      simplex (Lemke 1954) on a copy of its tableau
      (``_run_dual_simplex``); None past the pivot budget. Where a row
      with a negative value has no entering column, that row r of
      B^-1 b = B^-1 A u proves the LP infeasible: y = -(row r of B^-1),
      the slack block's row r, is a Farkas ray. It answers "infeasible"
      only where it passes ``_farkas_ray`` and the margin above, else
      None, and a cold solve decides. An unbounded basis is not re-solved.

    The point must pass ``solve_lp``'s own certificate on the original
    data. An optimal answer must also have its dual y pass the sign rule
    (``_dual_support``, rows S; ``stored.support`` is taken as it is when
    no pivot was made) and close the gap |c x - b_S y_S| to within ``tol``
    of max(1, |c| |x|, |b| |y|); it carries S as ``support``, its pivots
    and its tableau. An unbounded basis with a certified point has a
    feasible point, and the stored ray, which does not depend on b, makes
    the LP unbounded. A no-pivot answer shares ``stored``'s tableau, dual
    and basis; a re-solve pivots a copy, so ``stored`` is never written to.
    """
    if stored.status == INFEASIBLE:
        return _past_margin(problem, stored.farkas, 0, tol)
    std = problem._std
    m, n = problem.lhs.shape
    tableau, basis, pivots = stored._final, stored.basis, 0
    slacks = slice(n, n + m)
    values = -(tableau[:m, slacks] @ problem.rhs)
    if np.count_nonzero((values < 0.0) & ~std.free[basis]):
        if stored.status == UNBOUNDED:
            return None
        tableau, basis = tableau.copy(), basis.copy()
        tableau[:m, -1] = values
        status = _run_dual_simplex(tableau, basis, std.free)
        if status is None:
            return None
        if status[0] == INFEASIBLE:
            # the stalled row's slack block is a ray, as in a cold solve's phase 1
            y = tableau[status[1], slacks] + 0.0
            return _past_margin(problem, _farkas_ray(problem, y, tol), status[-1], tol)
        pivots, values = status[-1], tableau[:m, -1]
    x_std = np.zeros(len(std.free))
    x_std[basis] = values
    x = x_std[:problem.n_cols] + 0.0
    if not _certify_optimal(problem, x, 10 * tol):
        return None
    if stored.status == UNBOUNDED:
        return LpOutcome(status=UNBOUNDED, objective_value=-math.inf, ray=stored.ray,
                         basis=basis, _final=tableau)
    dual, support = stored.dual, stored.support
    if pivots:
        dual, support = tableau[-1, slacks] + 0.0, None
    if support is None:
        support = _dual_support(problem, dual, tol)
        if support is None:
            return None
    value = float(std.c @ x_std) + 0.0
    y, b = dual[support], problem.rhs[support]
    scale = max(1.0, float(np.abs(std.c) @ x_std), float(np.abs(b) @ y))
    if not abs(value - float(b @ y)) <= tol * scale:
        return None
    return LpOutcome(status=OPTIMAL, x=x, objective_value=value, dual=dual, pivots=pivots,
                     basis=basis, support=support, _final=tableau)

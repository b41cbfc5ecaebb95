"""Dense linear programming: two-phase primal simplex with Bland's rule.

Self-contained kernel used by every exact solver path in this package.
Instances are small (tens of rows/columns), so a dense tableau is the
right tool: no external solver dependency, fully deterministic pivoting,
and statuses that are certified before they are returned.

Conventions: minimize ``c @ x`` subject to row constraints ``A @ x`` with
per-row senses ("<=", "=", ">=") and per-variable bounds in which
``-inf``/``+inf`` mean unbounded.

Phase 1 starts from a slack basis: a row that has a column of its own
(a slack, or any column nonzero in that row only) whose value there is
nonnegative starts with that column basic. Only the remaining rows get
artificial columns, so phase 1 prices and pivots only those rows.

At these sizes a call costs Python and numpy call overhead, not
arithmetic, so the per-call work is whole-array: validation, the standard
form, the read-out of the point, ray and dual, and both certificates make
a fixed number of numpy calls whatever the row and column counts, and a
pivot is a fixed handful of array operations. Python loops remain only
over the columns that can start basic and over the artificials still
basic after phase 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import CapreqError

LE = "<="
EQ = "="
GE = ">="
_SLACK_SIGN = {LE: 1, EQ: 0, GE: -1}   # slack coefficient of each sense

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

DEFAULT_FEAS_TOL = 1e-8
DEFAULT_PIVOT_TOL = 1e-10
_MAX_PIVOTS = 50_000


class MalformedProblem(CapreqError, ValueError):
    """Problem dimensions or entries are inconsistent."""


class NumericalBreakdown(CapreqError, RuntimeError):
    """Pivoting stalled below the pivot tolerance, or a status failed its certificate."""


def _as_float_array(value, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != ndim:
        raise MalformedProblem(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class LpProblem:
    """minimize objective @ x  s.t.  lhs @ x (senses) rhs,  lower <= x <= upper."""

    objective: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    senses: tuple[str, ...]
    lower: np.ndarray
    upper: np.ndarray
    # per-row slack coefficient, int8: +1 for "<=", 0 for "=", -1 for ">="
    _sign: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, ndim in (("objective", 1), ("lhs", 2), ("rhs", 1), ("lower", 1), ("upper", 1)):
            object.__setattr__(self, name, _as_float_array(getattr(self, name), name, ndim))
        object.__setattr__(self, "senses", tuple(self.senses))
        m, n = self.lhs.shape
        if n == 0:
            raise MalformedProblem("problem must have at least one variable")
        if self.objective.shape != (n,):
            raise MalformedProblem("objective length does not match column count")
        if self.rhs.shape != (m,) or len(self.senses) != m:
            raise MalformedProblem("rhs/senses length does not match row count")
        if self.lower.shape != (n,) or self.upper.shape != (n,):
            raise MalformedProblem("bounds length does not match column count")
        sign = [_SLACK_SIGN.get(s) if isinstance(s, str) else None for s in self.senses]
        if None in sign:
            raise MalformedProblem(f"unknown sense {self.senses[sign.index(None)]!r}")
        object.__setattr__(self, "_sign", np.array(sign, dtype=np.int8))
        if any(np.count_nonzero(np.isfinite(a)) < a.size
               for a in (self.objective, self.lhs, self.rhs)):
            raise MalformedProblem("objective, lhs and rhs must be finite")
        if np.count_nonzero(np.isnan(self.lower)) or np.count_nonzero(np.isnan(self.upper)):
            raise MalformedProblem("bounds must not be NaN")

    @property
    def n_rows(self) -> int:
        return self.lhs.shape[0]

    @property
    def n_cols(self) -> int:
        return self.lhs.shape[1]


def make_problem(objective, lhs, rhs, senses, lower=None, upper=None) -> LpProblem:
    """Convenience constructor; bounds default to fully free variables."""
    c = _as_float_array(objective, "objective", 1)
    n = c.shape[0]
    lo = np.full(n, -np.inf) if lower is None else _as_float_array(lower, "lower", 1)
    hi = np.full(n, np.inf) if upper is None else _as_float_array(upper, "upper", 1)
    a = np.asarray(lhs, dtype=float)
    if a.size == 0:
        a = a.reshape(0, n)
    if isinstance(senses, str):
        senses = (senses,) * a.shape[0]
    return LpProblem(c, a, _as_float_array(rhs, "rhs", 1), tuple(senses), lo, hi)


@dataclass(frozen=True)
class LpOutcome:
    """Solver result. ``x``/``objective_value``/``dual`` present iff optimal, ``ray`` iff unbounded."""

    status: str
    x: np.ndarray | None = None
    objective_value: float | None = None
    dual: np.ndarray | None = None
    ray: np.ndarray | None = None
    pivots: int = 0


class _Encoding:
    """Affine map from nonnegative standard variables u back to the original ones.

    Column j is x_j = shift_j + sign_j * u[first_j]: shift = lower and
    sign = +1 when the lower bound is finite (a finite upper bound then
    adds the row u[first_j] <= upper - lower; those columns are
    ``capped``), shift = upper and sign = -1 when only the upper bound is.
    A ``free`` column is x_j = u[first_j] - u[second], second = first_j + 1.
    """

    def __init__(self, problem: LpProblem):
        lower, upper = problem.lower, problem.upper
        has_lo, has_hi = np.isfinite(lower), np.isfinite(upper)
        self.infeasible_bounds = np.count_nonzero(lower > upper) > 0
        self.free = ~(has_lo | has_hi)
        hi_only = has_hi > has_lo
        self.width = self.free + 1   # standard columns per original column
        self.first = self.width.cumsum() - self.width
        self.second = self.first[self.free] + 1
        self.sign = np.where(hi_only, -1.0, 1.0)
        self.std_sign = self.sign.repeat(self.width)   # sign of each standard column
        self.std_sign[self.second] = -1.0
        self.shift = np.where(has_lo, lower, np.where(hi_only, upper, 0.0))
        self.capped = (has_lo & has_hi).nonzero()[0]

    def to_original(self, x_std: np.ndarray) -> np.ndarray:
        x = self.shift + self.sign * x_std[self.first]
        x[self.free] = x_std[self.second - 1] - x_std[self.second]
        return x

    def ray_to_original(self, d_std: np.ndarray) -> np.ndarray:
        d = self.sign * d_std[self.first]
        d[self.free] = d_std[self.second - 1] - d_std[self.second]
        return d


def _standardize(problem: LpProblem):
    """Rewrite as min c_std @ u s.t. A_std @ u = b_std, u >= 0 (b possibly negative)."""
    enc = _Encoding(problem)
    m, n_std = problem.n_rows, len(enc.std_sign)
    ineq, capped = problem._sign.nonzero()[0], enc.capped
    n_ineq, n_cap = len(ineq), len(capped)
    a_std = np.zeros((m + n_cap, n_std + n_ineq + n_cap))
    c_std = np.zeros(n_std + n_ineq + n_cap)
    # "+ 0.0" stores zero entries as +0.0, so no -0.0 reaches the reported point or dual
    a_std[:m, :n_std] = problem.lhs.repeat(enc.width, axis=1) * enc.std_sign + 0.0
    c_std[:n_std] = problem.objective.repeat(enc.width) * enc.std_sign + 0.0
    a_std[ineq, np.arange(n_std, n_std + n_ineq)] = problem._sign[ineq]
    b_std = problem.rhs - problem.lhs @ enc.shift
    if n_cap:
        cap_rows = np.arange(m, m + n_cap)
        a_std[cap_rows, enc.first[capped]] = 1.0
        a_std[cap_rows, np.arange(n_std + n_ineq, n_std + n_ineq + n_cap)] = 1.0
        b_std = np.concatenate((b_std, problem.upper[capped] - problem.lower[capped]))
    # sequential sum in column order from +0.0, the value a scalar loop gives
    obj_const = 0.0 + float(np.cumsum(problem.objective * enc.shift)[-1])
    return enc, a_std, b_std, c_std, obj_const


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    piv_row = tableau[row]
    piv_row /= piv_row[col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    # p / p is exactly 1 and f - f * 1 exactly 0: column ``col`` becomes a unit column
    tableau -= factors[:, None] * piv_row


def _run_simplex(tableau, basis, pivot_tol):
    """Bland's rule loop. Returns ("optimal", pivots) or ("unbounded", entering, pivots)."""
    m = len(basis)
    cost, values = tableau[-1, :-1], tableau[:m, -1]   # views, updated by each pivot
    pivots = 0
    while True:
        improving = cost < -pivot_tol
        entering = improving.argmax()  # Bland: lowest index
        if not improving[entering]:
            return ("optimal", pivots)
        col = tableau[:m, entering]
        rows = (col > pivot_tol).nonzero()[0]
        if not rows.size:
            # entries in (0, pivot_tol] are treated as zero; the unbounded
            # conclusion is certified (or rejected) on the returned ray
            return ("unbounded", entering, pivots)
        ratios = values[rows] / col[rows]
        tied = rows[ratios <= ratios.min() + 1e-15]
        leaving = tied[basis[tied].argmin()]  # Bland tie-break
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering
        pivots += 1
        if pivots > _MAX_PIVOTS:
            raise NumericalBreakdown("pivot budget exhausted")


def _rows_violated(problem, row_values, limit) -> bool:
    """Some "<=" row above ``limit``, ">=" row below ``-limit`` or "=" row off by more."""
    sign = problem._sign
    return np.count_nonzero(np.where(sign == 0, np.abs(row_values), sign * row_values) > limit) > 0


def _certify_optimal(problem, x, tol):
    size = float(np.abs(x).max())
    if not math.isfinite(size):
        return False
    resid = problem.lhs @ x - problem.rhs
    # row scale from the actual cancellation magnitude on each row
    scale = np.maximum(1.0, np.maximum(np.abs(problem.rhs), np.abs(problem.lhs) @ np.abs(x)))
    if _rows_violated(problem, resid, tol * scale):
        return False
    margin = tol * max(1.0, size)
    return np.count_nonzero((x < problem.lower - margin) | (x > problem.upper + margin)) == 0


def _certify_ray(problem, ray, tol):
    size = float(np.abs(ray).max())
    if not (math.isfinite(size) and size > tol):
        return False
    limit = tol * max(1.0, size)
    if _rows_violated(problem, problem.lhs @ ray, limit):
        return False
    if np.count_nonzero((np.isfinite(problem.lower) & (ray < -limit))
                        | (np.isfinite(problem.upper) & (ray > limit))):
        return False
    return float(problem.objective @ ray) < 0.0


def solve_lp(problem: LpProblem, tol: float = DEFAULT_FEAS_TOL,
             pivot_tol: float = DEFAULT_PIVOT_TOL) -> LpOutcome:
    """Solve a dense LP and certify the reported status.

    Deterministic: Bland's anti-cycling rule with lowest-index tie breaking,
    so identical inputs give identical pivot sequences and outputs.
    """
    if tol <= 0 or pivot_tol <= 0:
        raise MalformedProblem("tolerances must be positive")

    enc, a_std, b_std, c_std, obj_const = _standardize(problem)
    if enc.infeasible_bounds:
        return LpOutcome(status=INFEASIBLE)

    m, n_std = a_std.shape
    # per-row equilibration keeps violations comparable across rows of very
    # different magnitudes (bracket probes mix O(1) and O(2^40) entries)
    row_scale = np.maximum(1.0, np.maximum(np.abs(a_std).max(axis=1), np.abs(b_std)))
    a_std = a_std / row_scale[:, None]
    b_std = b_std / row_scale

    # slack starting basis: a column whose only nonzero lies in row i, with
    # the sign of b_i (any sign when b_i = 0), starts basic in row i once the
    # row is divided by that entry. Every other row is flipped to b_i >= 0
    # and gets an artificial column on the right.
    mult = np.where(b_std < 0, -1.0, 1.0)
    basis = [-1] * m
    nonzero = a_std != 0.0
    cols = (nonzero.sum(axis=0) == 1).nonzero()[0]
    rows = nonzero[:, cols].T.nonzero()[1]  # the one row each such column touches
    vals = a_std[rows, cols]
    usable = (np.abs(vals) > pivot_tol) & ((vals * mult[rows] > 0) | (b_std[rows] == 0.0))
    for i, j, v in zip(rows[usable].tolist(), cols[usable].tolist(), vals[usable].tolist()):
        if basis[i] < 0:  # lowest column index wins
            basis[i] = j
            mult[i] = 1.0 / v
    a_std = a_std * mult[:, None]
    b_std = b_std * mult
    basis = np.array(basis, dtype=np.intp)
    art_rows = (basis < 0).nonzero()[0]
    basis[art_rows] = n_std + np.arange(len(art_rows))

    tableau = np.zeros((m + 1, n_std + len(art_rows) + 1))
    tableau[:m, :n_std] = a_std
    tableau[:m, -1] = b_std
    tableau[art_rows, basis[art_rows]] = 1.0
    # phase-1 reduced costs: artificial rows subtracted from their unit costs
    tableau[-1, :n_std] = -a_std[art_rows].sum(axis=0)
    tableau[-1, -1] = -b_std[art_rows].sum()

    status = _run_simplex(tableau, basis, pivot_tol)
    pivots = status[1]
    phase1_value = -tableau[-1, -1]
    if phase1_value > tol:
        # infeasibility certificate: phase-1 optimum is positive and its
        # reduced costs are nonnegative, so no feasible point exists
        if np.count_nonzero(tableau[-1, :-1] < -10 * pivot_tol):
            raise NumericalBreakdown("phase-1 terminated without optimality certificate")
        return LpOutcome(status=INFEASIBLE, pivots=pivots)

    # drive leftover artificials out of the basis; drop redundant rows.
    # Their values are below the feasibility tolerance, so clamp to zero
    # first: pivoting a nonzero residual through a small entry would amplify
    # it onto a structural variable.
    for i in (basis >= n_std).nonzero()[0].tolist():
        entries = np.abs(tableau[i, :n_std])
        best = entries.argmax()
        if entries[best] > pivot_tol:
            tableau[i, -1] = 0.0
            _pivot(tableau, i, best)
            basis[i] = best
        # else: redundant constraint, row dropped below
    keep = (basis < n_std).nonzero()[0]
    tableau[:, n_std] = tableau[:, -1]   # right-hand side over the first artificial
    tableau = tableau[np.append(keep, m), :n_std + 1]
    basis = basis[keep]

    # phase 2: rebuild reduced costs for the true objective
    cb = c_std[basis]
    tableau[-1, :-1] = c_std - cb @ tableau[:-1, :-1]
    tableau[-1, -1] = -(cb @ tableau[:-1, -1])

    status = _run_simplex(tableau, basis, pivot_tol)
    pivots += status[-1]

    if status[0] == "unbounded":
        entering = status[1]
        d_std = np.zeros(n_std)
        d_std[entering] = 1.0
        d_std[basis] = -tableau[:-1, entering]
        ray = enc.ray_to_original(d_std)
        if not _certify_ray(problem, ray, tol):
            raise NumericalBreakdown("unbounded ray failed verification")
        return LpOutcome(status=UNBOUNDED, ray=ray, pivots=pivots)

    x_std = np.zeros(n_std)
    x_std[basis] = tableau[:-1, -1]
    x = enc.to_original(x_std)
    if not _certify_optimal(problem, x, 10 * tol):
        raise NumericalBreakdown("optimal point failed feasibility certificate")
    value = float(c_std @ x_std + obj_const)

    dual = None
    if problem.n_rows:
        # y = c_B B^{-T} on the kept rows of the standard matrix; the
        # original rows precede the bound rows in ``keep``
        orig = keep[keep < problem.n_rows]
        try:
            y_kept = np.linalg.solve(a_std[keep[:, None], basis].T, c_std[basis])
            dual = np.zeros(problem.n_rows)
            dual[orig] = y_kept[:len(orig)] * mult[orig] / row_scale[orig]
        except np.linalg.LinAlgError:
            dual = None

    return LpOutcome(status=OPTIMAL, x=x, objective_value=value, dual=dual, pivots=pivots)


def feasible(problem: LpProblem, tol: float = DEFAULT_FEAS_TOL) -> bool:
    """True iff the constraint system admits a point (zero-objective solve)."""
    zero_obj = LpProblem(np.zeros(problem.n_cols), problem.lhs, problem.rhs,
                         problem.senses, problem.lower, problem.upper)
    return solve_lp(zero_obj, tol=tol).status == OPTIMAL

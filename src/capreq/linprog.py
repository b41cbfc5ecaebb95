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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LE = "<="
EQ = "="
GE = ">="
_SENSES = (LE, EQ, GE)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

DEFAULT_FEAS_TOL = 1e-8
DEFAULT_PIVOT_TOL = 1e-10
_MAX_PIVOTS = 50_000


class MalformedProblem(ValueError):
    """Problem dimensions or entries are inconsistent."""


class NumericalBreakdown(RuntimeError):
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

    def __post_init__(self):
        object.__setattr__(self, "objective", _as_float_array(self.objective, "objective", 1))
        object.__setattr__(self, "lhs", _as_float_array(self.lhs, "lhs", 2))
        object.__setattr__(self, "rhs", _as_float_array(self.rhs, "rhs", 1))
        object.__setattr__(self, "senses", tuple(self.senses))
        object.__setattr__(self, "lower", _as_float_array(self.lower, "lower", 1))
        object.__setattr__(self, "upper", _as_float_array(self.upper, "upper", 1))
        m, n = self.lhs.shape
        if n == 0:
            raise MalformedProblem("problem must have at least one variable")
        if self.objective.shape != (n,):
            raise MalformedProblem("objective length does not match column count")
        if self.rhs.shape != (m,) or len(self.senses) != m:
            raise MalformedProblem("rhs/senses length does not match row count")
        if self.lower.shape != (n,) or self.upper.shape != (n,):
            raise MalformedProblem("bounds length does not match column count")
        for s in self.senses:
            if s not in _SENSES:
                raise MalformedProblem(f"unknown sense {s!r}")
        for arr in (self.objective, self.lhs, self.rhs):
            if not np.all(np.isfinite(arr)):
                raise MalformedProblem("objective, lhs and rhs must be finite")
        if np.any(np.isnan(self.lower)) or np.any(np.isnan(self.upper)):
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
    """Affine map from nonnegative standard variables back to the original ones."""

    def __init__(self, problem: LpProblem):
        self.kinds: list[tuple] = []
        self.n_std = 0
        self.shift = np.zeros(problem.n_cols)
        self.infeasible_bounds = False
        for j in range(problem.n_cols):
            lo, hi = problem.lower[j], problem.upper[j]
            if lo > hi:
                self.infeasible_bounds = True
            if np.isfinite(lo):
                # x = lo + u, u >= 0; finite upper handled by an extra row u <= hi - lo
                self.kinds.append(("lo", self.n_std, lo, hi))
                self.n_std += 1
            elif np.isfinite(hi):
                # x = hi - u, u >= 0
                self.kinds.append(("hi", self.n_std, hi))
                self.n_std += 1
            else:
                # free: x = u - v
                self.kinds.append(("free", self.n_std, self.n_std + 1))
                self.n_std += 2

    def columns(self, a_col: np.ndarray, kind: tuple) -> list[tuple[int, np.ndarray]]:
        if kind[0] == "lo":
            return [(kind[1], a_col)]
        if kind[0] == "hi":
            return [(kind[1], -a_col)]
        return [(kind[1], a_col), (kind[2], -a_col)]

    def to_original(self, x_std: np.ndarray, problem: LpProblem) -> np.ndarray:
        x = np.zeros(problem.n_cols)
        for j, kind in enumerate(self.kinds):
            if kind[0] == "lo":
                x[j] = kind[2] + x_std[kind[1]]
            elif kind[0] == "hi":
                x[j] = kind[2] - x_std[kind[1]]
            else:
                x[j] = x_std[kind[1]] - x_std[kind[2]]
        return x

    def ray_to_original(self, d_std: np.ndarray, problem: LpProblem) -> np.ndarray:
        d = np.zeros(problem.n_cols)
        for j, kind in enumerate(self.kinds):
            if kind[0] == "lo":
                d[j] = d_std[kind[1]]
            elif kind[0] == "hi":
                d[j] = -d_std[kind[1]]
            else:
                d[j] = d_std[kind[1]] - d_std[kind[2]]
        return d


def _standardize(problem: LpProblem):
    """Rewrite as min c_std @ u s.t. A_std @ u = b_std, u >= 0 (b possibly negative)."""
    enc = _Encoding(problem)
    m, n = problem.n_rows, problem.n_cols

    extra_rows = []  # (std_col, cap) for "lo" variables with finite upper bound
    for kind in enc.kinds:
        if kind[0] == "lo" and np.isfinite(kind[3]):
            extra_rows.append((kind[1], kind[3] - kind[2]))

    n_slack = sum(1 for s in problem.senses if s != EQ) + len(extra_rows)
    total_rows = m + len(extra_rows)
    a_std = np.zeros((total_rows, enc.n_std + n_slack))
    b_std = np.zeros(total_rows)
    c_std = np.zeros(enc.n_std + n_slack)
    obj_const = 0.0
    shift = np.zeros(n)  # constant part of the substitution x = shift +/- u

    for j, kind in enumerate(enc.kinds):
        cj = problem.objective[j]
        col = problem.lhs[:, j]
        if kind[0] == "lo":
            c_std[kind[1]] += cj
            obj_const += cj * kind[2]
            shift[j] = kind[2]
            a_std[:m, kind[1]] += col
        elif kind[0] == "hi":
            c_std[kind[1]] -= cj
            obj_const += cj * kind[2]
            shift[j] = kind[2]
            a_std[:m, kind[1]] -= col
        else:
            c_std[kind[1]] += cj
            c_std[kind[2]] -= cj
            a_std[:m, kind[1]] += col
            a_std[:m, kind[2]] -= col

    b_std[:m] = problem.rhs - problem.lhs @ shift

    slack_at = enc.n_std
    for i, s in enumerate(problem.senses):
        if s == LE:
            a_std[i, slack_at] = 1.0
            slack_at += 1
        elif s == GE:
            a_std[i, slack_at] = -1.0
            slack_at += 1

    for k, (col_idx, cap) in enumerate(extra_rows):
        i = m + k
        a_std[i, col_idx] = 1.0
        a_std[i, slack_at] = 1.0
        slack_at += 1
        b_std[i] = cap

    return enc, a_std, b_std, c_std, obj_const


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    piv_row = tableau[row]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, piv_row)
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0


def _run_simplex(tableau, basis, pivot_tol):
    """Bland's rule loop. Returns ("optimal", pivots) or ("unbounded", entering, pivots)."""
    m = len(basis)
    pivots = 0
    while True:
        improving = tableau[-1, :-1] < -pivot_tol
        entering = int(np.argmax(improving))  # Bland: lowest index
        if not improving[entering]:
            return ("optimal", pivots)
        col = tableau[:m, entering]
        positive = col > pivot_tol
        if not positive.any():
            # entries in (0, pivot_tol] are treated as zero; the unbounded
            # conclusion is certified (or rejected) on the returned ray
            return ("unbounded", entering, pivots)
        ratios = np.full(m, np.inf)
        ratios[positive] = tableau[:m, -1][positive] / col[positive]
        best = ratios.min()
        tied = np.flatnonzero(ratios <= best + 1e-15)
        leaving = int(tied[np.argmin([basis[i] for i in tied])])  # Bland tie-break
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering
        pivots += 1
        if pivots > _MAX_PIVOTS:
            raise NumericalBreakdown("pivot budget exhausted")


def _certify_optimal(problem, x, tol):
    if not np.all(np.isfinite(x)):
        return False
    lhs = problem.lhs @ x
    for i, s in enumerate(problem.senses):
        resid = lhs[i] - problem.rhs[i]
        # row scale from the actual cancellation magnitude on this row
        scale = max(1.0, abs(problem.rhs[i]), float(np.abs(problem.lhs[i]) @ np.abs(x)))
        if s == LE and resid > tol * scale:
            return False
        if s == GE and resid < -tol * scale:
            return False
        if s == EQ and abs(resid) > tol * scale:
            return False
    scale_x = max(1.0, float(np.abs(x).max(initial=0.0)))
    if np.any(x < problem.lower - tol * scale_x) or np.any(x > problem.upper + tol * scale_x):
        return False
    return True


def _certify_ray(problem, ray, tol):
    if not np.all(np.isfinite(ray)) or np.abs(ray).max(initial=0.0) <= tol:
        return False
    scale = max(1.0, float(np.abs(ray).max()))
    lhs = problem.lhs @ ray
    for i, s in enumerate(problem.senses):
        if s == LE and lhs[i] > tol * scale:
            return False
        if s == GE and lhs[i] < -tol * scale:
            return False
        if s == EQ and abs(lhs[i]) > tol * scale:
            return False
    for j in range(problem.n_cols):
        if np.isfinite(problem.lower[j]) and ray[j] < -tol * scale:
            return False
        if np.isfinite(problem.upper[j]) and ray[j] > tol * scale:
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
    row_scale = np.maximum(1.0, np.maximum(
        np.abs(a_std).max(axis=1, initial=0.0), np.abs(b_std)))
    a_std = a_std / row_scale[:, None]
    b_std = b_std / row_scale

    # slack starting basis: a column whose only nonzero lies in row i, with
    # the sign of b_i (any sign when b_i = 0), starts basic in row i once the
    # row is divided by that entry. Every other row is flipped to b_i >= 0
    # and gets an artificial column on the right.
    mult = np.where(b_std < 0, -1.0, 1.0)
    basis = [-1] * m
    nonzero = a_std != 0.0
    cols = np.flatnonzero(nonzero.sum(axis=0) == 1)
    rows = np.arange(m) @ nonzero[:, cols]  # the one row each such column touches
    vals = a_std[rows, cols]
    usable = (np.abs(vals) > pivot_tol) & ((vals * mult[rows] > 0) | (b_std[rows] == 0.0))
    for i, j, v in zip(rows[usable].tolist(), cols[usable].tolist(), vals[usable].tolist()):
        if basis[i] < 0:  # lowest column index wins
            basis[i] = j
            mult[i] = 1.0 / v
    a_std = a_std * mult[:, None]
    b_std = b_std * mult
    art_rows = [i for i in range(m) if basis[i] < 0]

    tableau = np.zeros((m + 1, n_std + len(art_rows) + 1))
    tableau[:m, :n_std] = a_std
    tableau[:m, -1] = b_std
    for k, i in enumerate(art_rows):
        tableau[i, n_std + k] = 1.0
        basis[i] = n_std + k
    # phase-1 reduced costs: artificial rows subtracted from their unit costs
    tableau[-1, :n_std] = -a_std[art_rows].sum(axis=0)
    tableau[-1, -1] = -b_std[art_rows].sum()

    status = _run_simplex(tableau, basis, pivot_tol)
    pivots = status[1]
    phase1_value = -tableau[-1, -1]
    if phase1_value > tol:
        # infeasibility certificate: phase-1 optimum is positive and its
        # reduced costs are nonnegative, so no feasible point exists
        if np.any(tableau[-1, :-1] < -10 * pivot_tol):
            raise NumericalBreakdown("phase-1 terminated without optimality certificate")
        return LpOutcome(status=INFEASIBLE, pivots=pivots)

    # drive leftover artificials out of the basis; drop redundant rows.
    # Their values are below the feasibility tolerance, so clamp to zero
    # first: pivoting a nonzero residual through a small entry would amplify
    # it onto a structural variable.
    keep_rows = []
    for i in range(m):
        if basis[i] >= n_std:
            entries = np.abs(tableau[i, :n_std])
            best = int(np.argmax(entries))
            if entries[best] > pivot_tol:
                tableau[i, -1] = 0.0
                _pivot(tableau, i, best)
                basis[i] = best
                keep_rows.append(i)
            # else: redundant constraint, row dropped below
        else:
            keep_rows.append(i)
    tableau = tableau[keep_rows + [m]][:, list(range(n_std)) + [-1]]
    basis = [basis[i] for i in keep_rows]

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
        for i, bv in enumerate(basis):
            d_std[bv] = -tableau[i, entering]
        ray = enc.ray_to_original(d_std, problem)
        if not _certify_ray(problem, ray, tol):
            raise NumericalBreakdown("unbounded ray failed verification")
        return LpOutcome(status=UNBOUNDED, ray=ray, pivots=pivots)

    x_std = np.zeros(n_std)
    for i, bv in enumerate(basis):
        x_std[bv] = tableau[i, -1]
    x = enc.to_original(x_std, problem)
    if not _certify_optimal(problem, x, 10 * tol):
        raise NumericalBreakdown("optimal point failed feasibility certificate")
    value = float(c_std @ x_std + obj_const)

    dual = None
    if problem.n_rows:
        # y = c_B B^{-T} restricted to kept rows of the standard matrix
        basis_matrix = a_std[np.ix_(keep_rows, basis)]
        try:
            y_kept = np.linalg.solve(basis_matrix.T, c_std[basis])
            dual = np.zeros(problem.n_rows)
            for pos, i in enumerate(keep_rows):
                if i < problem.n_rows:
                    dual[i] = y_kept[pos] * mult[i] / row_scale[i]
        except np.linalg.LinAlgError:
            dual = None

    return LpOutcome(status=OPTIMAL, x=x, objective_value=value, dual=dual, pivots=pivots)


def feasible(problem: LpProblem, tol: float = DEFAULT_FEAS_TOL) -> bool:
    """True iff the constraint system admits a point (zero-objective solve)."""
    zero_obj = LpProblem(np.zeros(problem.n_cols), problem.lhs, problem.rhs,
                         problem.senses, problem.lower, problem.upper)
    return solve_lp(zero_obj, tol=tol).status == OPTIMAL

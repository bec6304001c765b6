"""Small dense LP solver: one-phase primal simplex with Bland's rule.

Problems are stated as: minimize c @ x subject to a_ub @ x <= b_ub,
x >= 0, with b_ub >= 0, so every LP starts feasible on its slack basis.
Sizes here are desk scale, so a dense tableau is simplest.  The pivot
loop runs on a stack of same-shape tableaux: each iteration prices every
unfinished LP with one batched matrix product and pivots each with one
batched rank-1 update, so Python iterates once per pivot of the slowest
LP, not once per pivot of every LP.  An LP leaves the stack in the
iteration it is optimal, an unbounded one ends the run, and the cap
counts pivots per LP.  `lp_solve` is a stack of one; LPs that share their
costs and right-hand sides run as stacks of many, the orthant LPs by
column generation: `_duals` reads c_B B^-1 off the slack block of the
final tableaux, `_append_columns` adds new columns as B^-1 a, and
`_phase2` resumes from the same basis.

Bland's anti-cycling rule makes the solver deterministic and finite: the
entering column is the smallest index with a negative reduced cost, and
the leaving row is, among the rows whose pivot entry exceeds PIVOT_TOL
(none: unbounded) and whose ratio is within RATIO_TIE of the minimum, the
one whose basic variable has the smallest index.  Every choice is made
per LP, so an LP pivots exactly as it would alone.  The optimal point is
read from the final tableau and checked against the original rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IterationCapError, SolverError

FEAS_TOL = 1e-9
PIVOT_TOL = 1e-9
RATIO_TIE = 1e-12
ITER_FACTOR = 200  # each LP may pivot ITER_FACTOR * (2 rows + x and slack columns + 10) times
_NO_BASIS = np.iinfo(np.intp).max  # above every column index


@dataclass(frozen=True)
class LPProblem:
    c: np.ndarray
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=np.float64))
        object.__setattr__(self, "c", c)
        n = c.size
        for name in ("a_ub", "a_eq"):
            mat = getattr(self, name)
            vec = getattr(self, "b" + name[1:])
            if mat is None:
                if vec is not None:
                    raise ValueError(f"{name} is None but its rhs is not")
                mat, vec = np.zeros((0, n)), np.zeros(0)
            mat = np.atleast_2d(np.asarray(mat, dtype=np.float64))
            vec = np.atleast_1d(np.asarray(vec, dtype=np.float64))
            if mat.shape[1] != n:
                raise ValueError(f"{name} has {mat.shape[1]} columns, expected {n}")
            if mat.shape[0] != vec.size:
                raise ValueError(f"{name} and its rhs disagree on row count")
            object.__setattr__(self, name, mat)
            object.__setattr__(self, "b" + name[1:], vec)


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "unbounded"
    x: np.ndarray | None
    objective: float | None


def _pivot(tableau: np.ndarray, basis: np.ndarray, rows, cols) -> None:
    """Pivot each tableau of the stack on its (rows[l], cols[l]) entry; a
    scalar row or column is shared by the whole stack."""
    lps = np.arange(tableau.shape[0])
    pivot_rows = tableau[lps, rows]
    pivot_rows /= pivot_rows[lps, cols][:, None]
    tableau[lps, rows] = pivot_rows
    factors = tableau[lps, :, cols]
    factors[lps, rows] = 0.0
    tableau -= factors[:, :, None] * pivot_rows[:, None, :]
    basis[lps, rows] = cols
    # Roundoff can push basic values a hair below zero; clamp the drift so
    # it cannot compound across pivots.
    rhs = tableau[:, :, -1]
    drift = rhs < 0.0
    if drift.any():
        np.copyto(rhs, 0.0, where=drift & (rhs > -1e-9))


def _run_simplex(tableau: np.ndarray, basis: np.ndarray, cost: np.ndarray, max_iter: int) -> bool:
    """Minimize cost over each tableau of a stack (lps, rows, cols + 1) in
    place, one pivot of every unfinished LP per iteration.  An LP leaves
    the stack in the iteration it is optimal: its tableau and basis are
    written back, and the running LPs go on in a compacted copy.  Returns
    True as soon as some LP is unbounded.
    """
    tab, bas = tableau, basis
    live = lps = np.arange(tab.shape[0])  # live: where tab's LPs sit in tableau
    for iteration in range(max_iter + 1):
        body = tab[:, :, : cost.size]
        # Reduced costs from scratch each iteration: numerically
        # self-correcting and cheap at these sizes.
        # A basic column is a unit vector, exactly, so its reduced cost is 0.
        eligible = cost - (cost[bas][:, None, :] @ body)[:, 0] < -FEAS_TOL
        entering = eligible.argmax(axis=1)  # Bland: smallest eligible index
        improving = eligible[lps, entering]
        if not improving.all():  # optimal LPs leave the stack
            optimal = live[~improving]
            tableau[optimal], basis[optimal] = tab[~improving], bas[~improving]
            if optimal.size == live.size:
                return False
            tab, bas, live, entering = (a[improving] for a in (tab, bas, live, entering))
            lps = np.arange(live.size)
            body = tab[:, :, : cost.size]
        if iteration == max_iter:
            break
        column = body[lps, :, entering]
        positive = column > PIVOT_TOL
        if not positive.any(axis=1).all():
            return True
        ratios = np.divide(tab[:, :, -1], column, out=np.full(column.shape, np.inf), where=positive)
        # Bland: among the rows within RATIO_TIE of the least ratio, the one
        # whose basic variable has the smallest index.
        ties = ratios <= ratios.min(axis=1, keepdims=True) + RATIO_TIE
        _pivot(tab, bas, np.where(ties, bas, _NO_BASIS).argmin(axis=1), entering)
    raise IterationCapError(
        f"simplex ran {max_iter} iterations without reaching an optimum (the cap) "
        f"on a {tableau.shape[1]}x{tableau.shape[2]} tableau; "
        f"{live.size} of {tableau.shape[0]} LPs in the stack were still running"
    )


def _tableau(a_ub, b_ub) -> tuple[np.ndarray, np.ndarray]:
    """Starting tableaux (lps, rows, cols + 1) of a stack of LPs that share
    their right-hand sides b_ub >= 0, each on its slack basis.  Columns:
    [x (n) | slacks (rows)]."""
    lps, m, n = a_ub.shape
    tableau = np.zeros((lps, m, n + m + 1))
    tableau[:, :, :n] = a_ub
    tableau[:, :, n:-1] = np.eye(m)
    tableau[:, :, -1] = b_ub
    return tableau, np.repeat(n + np.arange(m)[None], lps, axis=0)


def _max_iter(a_ub) -> int:
    """The pivot cap of one LP: ITER_FACTOR * (2 rows + x and slack columns + 10)."""
    rows, columns = a_ub.shape[1], a_ub.shape[2] + a_ub.shape[1]
    return ITER_FACTOR * (2 * rows + columns + 10)


def _phase2(c, tableau, basis, a_ub, b_ub) -> tuple[str, np.ndarray | None]:
    """Minimize c over a stack of feasible tableaux from their current basis,
    in place, then read the optimal points and check them against the rows;
    a stack may resume here after `_append_columns`."""
    n = c.size
    cost = np.zeros(n + a_ub.shape[1])
    cost[:n] = c
    if _run_simplex(tableau, basis, cost, _max_iter(a_ub)):
        return "unbounded", None
    x = np.zeros((tableau.shape[0], n))
    stack, rows = np.nonzero(basis < n)
    x[stack, basis[stack, rows]] = tableau[stack, rows, -1]
    _verify(a_ub, b_ub, x)
    return "optimal", x


def _ordered_dot(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """sum_j a[..., j] * b[..., j], broadcast, one rounding per product and
    per sum in index order (into `out` if given).  Every entry is then the
    same float however many LPs share the stack and however wide their
    tableaux are, which a BLAS product, whose summation order follows the
    operand shapes, does not promise."""
    out = np.multiply(a[..., 0], b[..., 0], out=out)
    for j in range(1, a.shape[-1]):
        out += a[..., j] * b[..., j]
    return out


def _duals(c, tableau, basis) -> np.ndarray:
    """Duals c_B B^-1 (lps, rows) of a stack of final tableaux: their rows
    all started on their slacks, so B^-1 is the slack block, read off
    without a second solve."""
    n, m = c.size, tableau.shape[1]
    cost_basic = np.concatenate([c, np.zeros(m)])[basis]
    return (cost_basic[:, :, None] * tableau[:, :, n : n + m]).sum(axis=1)


def _append_columns(tableau, basis, n: int, columns) -> tuple[np.ndarray, np.ndarray]:
    """The stack with new x columns a (lps, rows, new), stated in the
    original rows, inserted as B^-1 a after its n x columns, B^-1 read off
    the slack block as in `_duals`; the basis stays and `_phase2` resumes
    from it."""
    m = tableau.shape[1]
    added = _ordered_dot(tableau[:, :, None, n : n + m], columns.transpose(0, 2, 1)[:, None])
    basis = np.where(basis >= n, basis + columns.shape[2], basis)
    return np.concatenate([tableau[:, :, :n], added, tableau[:, :, n:]], axis=2), basis


def lp_solve(problem: LPProblem) -> LPResult:
    """Solve the LP as a stack of one from its slack basis; optimal points
    satisfy all constraints within 1e-9.  Only inequality rows with
    right-hand sides >= 0 are taken, so the origin is feasible."""
    if problem.b_eq.size or not np.all(problem.b_ub >= 0):
        raise ValueError("lp_solve takes only inequality rows with right-hand sides >= 0")
    rows = (problem.a_ub[None], problem.b_ub)
    status, x = _phase2(problem.c, *_tableau(*rows), *rows)
    if x is None:
        return LPResult(status, None, None)
    return LPResult(status, x[0], float(problem.c @ x[0]))


def _verify(a_ub, b_ub, x: np.ndarray) -> None:
    """Check each point x[l] of a stack against the rows of its LP."""
    if np.any(x < -FEAS_TOL):
        raise SolverError("simplex returned a negative component")
    slack = (a_ub @ x[:, :, None])[:, :, 0] - b_ub
    if np.any(slack > FEAS_TOL * (1.0 + np.abs(b_ub))):
        raise SolverError("simplex returned an infeasible point")

"""Small dense LP solver: two-phase primal simplex with Bland's rule.

Problems are stated as: minimize c @ x subject to a_ub @ x <= b_ub,
a_eq @ x = b_eq, x >= 0.  Sizes here are desk scale, so a dense tableau
is simplest; each pivot is one rank-1 update and each pricing step one
matrix-vector product, so no step of the pivot loop runs over rows in
Python.

Bland's anti-cycling rule makes the solver deterministic and finite: the
entering column is the smallest index with a negative reduced cost, and
the leaving row is, among the rows whose pivot entry exceeds PIVOT_TOL
(none: unbounded) and whose ratio is within RATIO_TIE of the minimum, the
one whose basic variable has the smallest index.  If its entry is under
PIVOT_REL of the column's largest, the rows with such entries are passed
over unless one would then fall more than DROP_TOL below zero.  A
leftover artificial leaves after phase 1 on the entry of its row that is
largest against its column's largest magnitude; a row with no entry over
PIVOT_TOL is dropped.  The optimal point is read from the final tableau
and checked against the original rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IterationCapError

FEAS_TOL = 1e-9
PIVOT_TOL = 1e-9
PIVOT_REL = 1e-8  # of the column's largest entry: smaller pivots are passed over when safe
DROP_TOL = 1e-8  # the most a row skipped for a small entry may fall below zero
RATIO_TIE = 1e-12


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
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective: float | None


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= factors[:, None] * tableau[row]
    basis[row] = col
    # Roundoff can push basic values a hair below zero; clamp the drift so
    # it cannot compound across pivots.
    rhs = tableau[:, -1]
    np.copyto(rhs, 0.0, where=(rhs < 0.0) & (rhs > -1e-9))


def _run_simplex(
    tableau: np.ndarray, basis: np.ndarray, cost: np.ndarray, max_iter: int, phase: int
) -> str:
    """Minimize cost over the current tableau in place.  Only the first
    cost.size columns may enter the basis.  Returns "optimal"/"unbounded".
    """
    body = tableau[:, : cost.size]
    rhs = tableau[:, -1]
    for _ in range(max_iter):
        # Reduced costs from scratch each iteration: numerically
        # self-correcting and cheap at these sizes.
        eligible = cost - cost[basis] @ body < -FEAS_TOL
        eligible[basis] = False
        entering = int(eligible.argmax())  # Bland: smallest eligible index
        if not eligible[entering]:
            return "optimal"
        rows = (body[:, entering] > PIVOT_TOL).nonzero()[0]
        if rows.size == 0:
            return "unbounded"
        entries = body[rows, entering]
        ratios = rhs[rows] / entries
        ties = rows[ratios <= ratios.min() + RATIO_TIE]
        row = ties[basis[ties].argmin()]
        if body[row, entering] < PIVOT_REL * entries.max():
            small = entries < PIVOT_REL * entries.max()
            if ratios[~small].min() <= ((rhs[rows] + DROP_TOL) / entries)[small].min():
                ratios[small] = np.inf
                ties = rows[ratios <= ratios.min() + RATIO_TIE]
                row = ties[basis[ties].argmin()]
        _pivot(tableau, basis, int(row), entering)
    raise IterationCapError(
        f"simplex phase {phase} ran {max_iter} iterations without reaching an "
        f"optimum (the cap) on a {tableau.shape[0]}x{tableau.shape[1]} tableau"
    )


def lp_solve(problem: LPProblem, max_iter: int | None = None) -> LPResult:
    """Solve the LP; optimal points satisfy all constraints within 1e-9."""
    n = problem.c.size
    a_ub, b_ub, a_eq, b_eq = problem.a_ub, problem.b_ub, problem.a_eq, problem.b_eq
    m_ub, m_eq = a_ub.shape[0], a_eq.shape[0]
    m = m_ub + m_eq

    # Columns: [x (n) | slacks (m_ub) | artificials (one per row that lacks
    # a +1 slack: equality rows and rows negated for a negative rhs)].
    art_start = n + m_ub
    flipped = np.concatenate([b_ub, b_eq]) < 0
    art_rows = np.flatnonzero(flipped | (np.arange(m) >= m_ub))
    ncols = art_start + art_rows.size
    tableau = np.zeros((m, ncols + 1))
    tableau[:m_ub, :n] = a_ub
    tableau[:m_ub, n:art_start] = np.eye(m_ub)
    tableau[:m_ub, -1] = b_ub
    tableau[m_ub:, :n] = a_eq
    tableau[m_ub:, -1] = b_eq
    tableau[flipped] *= -1.0
    tableau[art_rows, art_start + np.arange(art_rows.size)] = 1.0
    basis = n + np.arange(m)
    basis[art_rows] = art_start + np.arange(art_rows.size)

    if max_iter is None:
        max_iter = 200 * (2 * m + art_start + 10)

    if art_rows.size:
        cost1 = np.zeros(ncols)
        cost1[art_start:] = 1.0
        status = _run_simplex(tableau, basis, cost1, max_iter, phase=1)
        assert status == "optimal", "phase-1 objective is bounded below by 0"
        if tableau[basis >= art_start, -1].sum() > FEAS_TOL:
            return LPResult("infeasible", None, None)
        # Pivot remaining zero-level artificials out, dropping redundant rows.
        keep = basis < art_start
        for r in np.flatnonzero(~keep):
            magnitude = np.abs(tableau[:, :art_start])
            candidates = np.flatnonzero(magnitude[r] > PIVOT_TOL)
            if candidates.size:
                share = magnitude[r, candidates] / magnitude[:, candidates].max(axis=0)
                _pivot(tableau, basis, int(r), int(candidates[share.argmax()]))
                keep[r] = True
        if not keep.all():
            tableau, basis = tableau[keep], basis[keep]

    cost2 = np.zeros(art_start)
    cost2[:n] = problem.c
    if _run_simplex(tableau, basis, cost2, max_iter, phase=2) == "unbounded":
        return LPResult("unbounded", None, None)

    structural = basis < n
    x = np.zeros(n)
    x[basis[structural]] = tableau[structural, -1]
    _verify(problem, x)
    return LPResult("optimal", x, float(problem.c @ x))


def _verify(problem: LPProblem, x: np.ndarray) -> None:
    if np.any(x < -FEAS_TOL):
        raise AssertionError("simplex returned a negative component")
    slack = problem.a_ub @ x - problem.b_ub
    if np.any(slack > FEAS_TOL * (1.0 + np.abs(problem.b_ub))):
        raise AssertionError("simplex returned an infeasible point (ub)")
    gap = np.abs(problem.a_eq @ x - problem.b_eq)
    if np.any(gap > FEAS_TOL * (1.0 + np.abs(problem.b_eq))):
        raise AssertionError("simplex returned an infeasible point (eq)")

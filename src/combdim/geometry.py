"""Vertex-represented polytopes, polyhedral norms, and the cube-in-
projection certificates that tie shattering of convex bodies to
l1-equivalence constants.

All predicates reduce to small dense LPs: hull membership is feasibility
of a convex combination, a translated cube is one joint LP over all cube
vertices sharing the translation variable, and the l1 constant is one
min-max LP per sign orthant (exact for polyhedral norms).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BudgetError, FamilyError
from .family import CoordinateSubset, read_json, read_rows, read_size
from .simplex import LPProblem, lp_solve

HULL_TOL = 1e-9
CUBE_DIM_BUDGET = 15


@dataclass(frozen=True, eq=False)
class VPolytope:
    """Convex body given as the hull of finitely many vertices."""

    dimension: int
    vertices: np.ndarray
    symmetric: bool = False

    def __post_init__(self):
        verts = np.atleast_2d(np.asarray(self.vertices, dtype=np.float64))
        if verts.shape[0] < 1 or verts.shape[1] != self.dimension:
            raise ValueError(
                f"vertices must be nonempty points in dimension {self.dimension}"
            )
        if not np.all(np.isfinite(verts)):
            raise ValueError("vertices must have finite coordinates")
        verts.setflags(write=False)
        object.__setattr__(self, "vertices", verts)
        if self.symmetric:
            for v in verts:
                gaps = np.abs(verts + v).max(axis=1)
                if gaps.min() > 1e-12:
                    raise ValueError(
                        f"polytope declared symmetric but -{v.tolist()} is missing"
                    )

    def project(self, sigma: CoordinateSubset) -> np.ndarray:
        """Deduplicated projected vertices (rows), shape (k', |sigma|)."""
        sigma.validate_against(self.dimension)
        pts = self.vertices[:, list(sigma)]
        return np.unique(pts, axis=0)


@dataclass(frozen=True, eq=False)
class PolyhedralNorm:
    """Norm x -> max_j |<f_j, x>| over finitely many functionals."""

    dimension: int
    functionals: np.ndarray

    def __post_init__(self):
        funcs = np.atleast_2d(np.asarray(self.functionals, dtype=np.float64))
        if funcs.shape[1] != self.dimension:
            raise ValueError(f"functionals must live in dimension {self.dimension}")
        if not np.all(np.isfinite(funcs)):
            raise ValueError("functionals must have finite entries")
        if np.linalg.matrix_rank(funcs) < self.dimension:
            raise ValueError("degenerate norm: functionals do not span the space")
        funcs.setflags(write=False)
        object.__setattr__(self, "functionals", funcs)

    def norm(self, x) -> float:
        x = np.asarray(x, dtype=np.float64)
        return float(np.abs(self.functionals @ x).max())


def point_in_hull(poly: VPolytope, point) -> bool:
    """Is the point a convex combination of the vertices?  (LP feasibility.)"""
    point = np.asarray(point, dtype=np.float64)
    if point.shape != (poly.dimension,):
        raise ValueError(f"point must have dimension {poly.dimension}")
    return _in_hull_of(poly.vertices, point)


def _in_hull_of(vertices: np.ndarray, point: np.ndarray) -> bool:
    k = vertices.shape[0]
    a_eq = np.vstack([vertices.T, np.ones((1, k))])
    b_eq = np.concatenate([point, [1.0]])
    # Scale rows to keep the feasibility tolerance meaningful.
    scale = np.maximum(np.abs(b_eq), 1.0)
    result = lp_solve(LPProblem(np.zeros(k), None, None, a_eq / scale[:, None], b_eq / scale))
    return result.status == "optimal"


@dataclass(frozen=True)
class CubeWitness:
    """Translation vector h placing the cube inside the projection."""

    sigma: CoordinateSubset
    side: float
    translation: tuple[float, ...]


def cube_in_projection(
    poly: VPolytope,
    sigma: CoordinateSubset,
    t: float,
    translated: bool = False,
) -> CubeWitness | None:
    """Does the coordinate projection contain a cube of side t?

    Untranslated mode (symmetric bodies) checks the centered cube
    [-t/2, t/2]^sigma vertex by vertex.  Translated mode searches a
    translation h for the cube h + [0, t]^sigma with a single LP in which
    all 2^|sigma| cube vertices share the translation variable.  Boundary
    membership counts (closed bodies).
    """
    if t <= 0:
        raise ValueError("cube side must be positive")
    k = len(sigma)
    if k > CUBE_DIM_BUDGET:
        raise BudgetError(f"|sigma| = {k} exceeds the exponent budget {CUBE_DIM_BUDGET}")
    if k == 0:
        return CubeWitness(sigma, t, ())
    pts = poly.project(sigma)

    # Cheap bounding-box rejection before any LP.
    width_hi, width_lo = pts.max(axis=0), pts.min(axis=0)
    if np.any(width_hi - width_lo < t - HULL_TOL):
        return None

    if not translated:
        if not poly.symmetric:
            raise ValueError("untranslated cube test requires a symmetric polytope")
        half = t / 2.0
        if np.any(width_hi < half - HULL_TOL) or np.any(width_lo > -half + HULL_TOL):
            return None
        # By symmetry q passes iff -q does; fix the last sign positive.
        for signs in itertools.product((-1.0, 1.0), repeat=k - 1):
            q = np.array(signs + (1.0,)) * half
            if not _in_hull_of(pts, q):
                return None
        return CubeWitness(sigma, t, tuple(0.0 for _ in range(k)))

    n_pts = pts.shape[0]
    corners = np.array(list(itertools.product((0.0, t), repeat=k)))
    n_c = len(corners)
    # Variables: lambda^{(q)} (n_pts each, >= 0) then h+ and h- (k each).
    n_vars = n_c * n_pts + 2 * k
    n_rows = n_c * (k + 1)
    if n_rows * (n_vars + n_rows) > 20_000_000:
        raise BudgetError(
            f"translated cube LP too large: {n_rows} rows x {n_vars} variables "
            f"(shrink |sigma| or deduplicate vertices)"
        )
    # Rows of corner q: pts.T @ lambda^{(q)} - h+ + h- = q, then sum lambda^{(q)} = 1.
    # The block diagonal is assigned, not np.kron-ed, so that no -0.0 enters.
    lam = np.zeros((n_c, k + 1, n_c, n_pts))
    lam[range(n_c), :, range(n_c)] = np.vstack([pts.T, np.ones(n_pts)])
    shift = np.vstack([np.eye(k, 2 * k, k) - np.eye(k, 2 * k), np.zeros(2 * k)])
    a_eq = np.hstack([lam.reshape(n_rows, n_c * n_pts), np.tile(shift, (n_c, 1))])
    b_eq = np.hstack([corners, np.ones((n_c, 1))]).ravel()
    result = lp_solve(LPProblem(np.zeros(n_vars), None, None, a_eq, b_eq))
    if result.status != "optimal":
        return None
    h = result.x[n_c * n_pts : n_c * n_pts + k] - result.x[n_c * n_pts + k :]
    return CubeWitness(sigma, t, tuple(float(v) for v in h))


def passing_supports(n: int, passes) -> list[tuple[int, ...]]:
    """The nonempty supports in range(n) that pass a downward-closed
    predicate, by size and then lexicographically.  A support is tested
    only when all its one-smaller subsets passed."""
    level = [(i,) for i in range(n) if passes((i,))]
    found = []
    while level:
        found += level
        prev = set(level)
        level = [c for c in (sup + (j,) for sup in level for j in range(sup[-1] + 1, n))
                 if all(c[:i] + c[i + 1 :] in prev for i in range(len(c))) and passes(c)]
    return found


def convex_vc(poly: VPolytope, t: float) -> tuple[int, CoordinateSubset]:
    """Largest |sigma| whose projection contains a side-t cube.

    Cube containment is downward monotone in sigma (sub-projections of a
    contained cube are contained), so `passing_supports` finds every
    passing support.  Symmetric bodies take the centred cube test, others
    the translated one.  Returns the lexicographically smallest maximizer.
    """
    n = poly.dimension

    def passes(support: tuple[int, ...]) -> bool:
        sigma = CoordinateSubset(support)
        return cube_in_projection(poly, sigma, t, not poly.symmetric) is not None

    # Bodies like scaled cubes pass on every support; probing the full one
    # first skips the whole lattice walk in that case.
    full = tuple(range(n))
    if n <= CUBE_DIM_BUDGET and passes(full):
        return n, CoordinateSubset(full)
    # max keeps the first of the largest, the lexicographically smallest
    best = max(passing_supports(n, passes), key=len, default=())
    return len(best), CoordinateSubset(best)


def ell1_lower_constant(
    norm: PolyhedralNorm,
    vectors,
    sigma: CoordinateSubset,
    budget: int = CUBE_DIM_BUDGET,
) -> float:
    """min over the l1 sphere {sum_{i in sigma} |a_i| = 1} of
    ||sum a_i x_i|| — the l1-equivalence constant of the subset.

    For each sign orthant the inner problem "minimize the max of finitely
    many |linear forms| over the simplex" is one LP; the global value is
    the minimum over orthants (halved by the a -> -a symmetry).
    """
    vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    k = len(sigma)
    if k == 0:
        raise ValueError("sigma must be nonempty")
    if k > budget:
        raise BudgetError(f"|sigma| = {k} exceeds the exponent budget {budget}")
    sigma.validate_against(vectors.shape[0])
    w = norm.functionals @ vectors[list(sigma)].T  # (n_func, k)
    n_func = w.shape[0]
    best = math.inf
    for signs in itertools.product((-1.0, 1.0), repeat=k - 1):
        theta = np.array((1.0,) + signs)
        a = w * theta  # columns scaled by the orthant signs
        # Variables: u (k, >= 0, sum 1) and z; minimize z with |a @ u| <= z.
        n_vars = k + 1
        a_ub = np.zeros((2 * n_func, n_vars))
        a_ub[:n_func, :k] = a
        a_ub[n_func:, :k] = -a
        a_ub[:, k] = -1.0
        a_eq = np.zeros((1, n_vars))
        a_eq[0, :k] = 1.0
        c = np.zeros(n_vars)
        c[k] = 1.0
        result = lp_solve(LPProblem(c, a_ub, np.zeros(2 * n_func), a_eq, np.ones(1)))
        assert result.status == "optimal", "orthant LP is always feasible and bounded"
        best = min(best, result.objective)
    return float(max(best, 0.0))


# ---------------------------------------------------------------------------
# JSON I/O for polytopes and norms.
# ---------------------------------------------------------------------------

def load_polytope(path) -> VPolytope:
    doc = read_json(path, "polytope", ("dimension", "vertices"))
    where = f"polytope file {path}"
    n = read_size(doc, "dimension", where)
    vertices = read_rows(doc["vertices"], n, f"'vertices' in {where}")
    symmetric = doc.get("symmetric", False)
    if type(symmetric) is not bool:
        raise FamilyError(f"'symmetric' in {where} is not true or false")
    return VPolytope(n, vertices, symmetric)


def save_polytope(path, poly: VPolytope) -> None:
    doc = {
        "dimension": poly.dimension,
        "vertices": [[repr(float(v)) for v in row] for row in poly.vertices],
        "symmetric": poly.symmetric,
    }
    Path(path).write_text(json.dumps(doc, indent=1))


def load_norm(path) -> PolyhedralNorm:
    doc = read_json(path, "norm", ("dimension", "functionals"))
    where = f"norm file {path}"
    n = read_size(doc, "dimension", where)
    return PolyhedralNorm(n, read_rows(doc["functionals"], n, f"'functionals' in {where}"))


def load_vectors(path, dimension: int) -> np.ndarray:
    """The rows of a vectors file, a nonempty JSON list of `dimension`-number lists."""
    return read_rows(read_json(path, "vectors", None), dimension, f"vectors file {path}")


def save_norm(path, norm: PolyhedralNorm) -> None:
    doc = {
        "dimension": norm.dimension,
        "functionals": [[repr(float(v)) for v in row] for row in norm.functionals],
    }
    Path(path).write_text(json.dumps(doc, indent=1))

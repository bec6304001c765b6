import itertools

import numpy as np
import pytest

from combdim import (
    BudgetError,
    CoordinateSubset,
    PolyhedralNorm,
    VPolytope,
    convex_vc,
    cube_in_projection,
    ell1_lower_constant,
    point_in_hull,
)
from combdim.geometry import load_norm, load_polytope, save_norm, save_polytope

SQUARE = VPolytope(2, [[1, 1], [1, -1], [-1, 1], [-1, -1]], symmetric=True)
CROSS = VPolytope(2, [[1, 0], [-1, 0], [0, 1], [0, -1]], symmetric=True)
BOTH = CoordinateSubset((0, 1))


def test_point_in_hull_examples():
    assert point_in_hull(SQUARE, [0, 0])
    assert not point_in_hull(SQUARE, [1.001, 0])
    assert point_in_hull(CROSS, [0.5, 0.5])  # boundary accepted
    assert not point_in_hull(CROSS, [0.51, 0.51])


def test_symmetry_validation():
    with pytest.raises(ValueError, match="symmetric"):
        VPolytope(2, [[1, 0], [0, 1]], symmetric=True)


def test_polytope_rejects_non_finite_vertices():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            VPolytope(2, [[bad, 1.0], [1.0, 1.0], [-1.0, -1.0]])


def test_cube_in_projection_examples():
    assert cube_in_projection(SQUARE, BOTH, 2.0) is not None
    assert cube_in_projection(CROSS, BOTH, 1.0) is not None  # corner on boundary
    assert cube_in_projection(CROSS, BOTH, 1.05) is None
    w = cube_in_projection(CROSS, CoordinateSubset((0,)), 2.0)
    assert w is not None and w.translation == (0.0,)


def test_cube_in_projection_translated():
    body = VPolytope(2, [[0, 0], [3, 0], [0, 3], [3, 3]])
    w = cube_in_projection(body, BOTH, 2.0, translated=True)
    assert w is not None
    for off in itertools.product((0.0, 2.0), repeat=2):
        corner = np.array(w.translation) + off
        assert point_in_hull(body, corner)
    assert cube_in_projection(body, BOTH, 3.5, translated=True) is None


def test_cube_requires_symmetry_or_translation():
    body = VPolytope(2, [[0, 0], [1, 0], [0, 1]])
    with pytest.raises(ValueError):
        cube_in_projection(body, BOTH, 0.5, translated=False)


def test_cube_budget():
    big = VPolytope(16, np.vstack([np.eye(16), -np.eye(16)]), symmetric=True)
    with pytest.raises(BudgetError):
        cube_in_projection(big, CoordinateSubset(tuple(range(16))), 0.1)


def test_convex_vc_examples():
    assert convex_vc(SQUARE, 1.0) == (2, BOTH)
    dim, sigma = convex_vc(CROSS, 1.5)
    assert (dim, tuple(sigma)) == (1, (0,))
    assert convex_vc(SQUARE, 5.0)[0] == 0


def test_convex_vc_lex_smallest():
    # a box that is wide on coordinates 0 and 2 only
    verts = list(itertools.product((-1.0, 1.0), (-0.1, 0.1), (-1.0, 1.0)))
    body = VPolytope(3, verts, symmetric=True)
    dim, sigma = convex_vc(body, 1.0)
    assert dim == 2 and tuple(sigma) == (0, 2)


def test_cube_monotone_in_sigma_and_t():
    rng = np.random.default_rng(12)
    for trial in range(10):
        k = int(rng.integers(4, 9))
        pts = rng.uniform(-1, 1, (k, 3))
        body = VPolytope(3, np.vstack([pts, -pts]), symmetric=True)
        for t in (0.2, 0.5, 0.9):
            hits = {
                sigma: cube_in_projection(body, CoordinateSubset(sigma), t) is not None
                for r in (1, 2, 3)
                for sigma in itertools.combinations(range(3), r)
            }
            for sigma, ok in hits.items():
                if ok:
                    for r in range(1, len(sigma)):
                        for sub in itertools.combinations(sigma, r):
                            assert hits[sub], f"{sub} should pass when {sigma} does"
            # monotone in t
            for sigma, ok in hits.items():
                if ok:
                    assert cube_in_projection(body, CoordinateSubset(sigma), t / 2) is not None


def test_ell1_lower_constant_examples():
    n = 4
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
    l1 = PolyhedralNorm(n, signs)
    assert ell1_lower_constant(l1, np.eye(n), CoordinateSubset(tuple(range(n)))) == pytest.approx(1.0, abs=1e-9)

    sup = PolyhedralNorm(2, [[1, 0], [0, 1]])
    assert ell1_lower_constant(sup, np.eye(2), CoordinateSubset((0, 1))) == pytest.approx(0.5, abs=1e-9)

    same = np.array([[1.0, 0.0], [1.0, 0.0]])
    assert ell1_lower_constant(sup, same, CoordinateSubset((0, 1))) == pytest.approx(0.0, abs=1e-9)


def test_ell1_norm_validation():
    with pytest.raises(ValueError, match="degenerate"):
        PolyhedralNorm(2, [[1.0, 0.0]])


def test_norm_rejects_non_finite_functionals():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            PolyhedralNorm(2, [[bad, 1.0], [1.0, 0.0], [0.0, 1.0]])


def test_cube_test_matches_pattern_witness_oracle():
    # Independent oracle for the symmetric case: the projection contains
    # the centered side-t cube iff for every above/below pattern over
    # sigma there is a body point <= -t/2 on the "below" coordinates and
    # >= t/2 on the "above" ones (one feasibility LP per pattern, solved
    # here by scipy).  The witness map g = (f_above - f_below)/2 converts
    # pattern witnesses into cube corners and back.
    from scipy.optimize import linprog

    def oracle(body, sigma, t):
        verts = body.vertices
        k = verts.shape[0]
        for bits in itertools.product((0, 1), repeat=len(sigma)):
            a_ub = []
            b_ub = []
            for j, i in enumerate(sigma):
                col = verts[:, i]
                if bits[j]:
                    a_ub.append(-col)  # <f, e_i> >= t/2
                    b_ub.append(-t / 2)
                else:
                    a_ub.append(col)  # <f, e_i> <= -t/2
                    b_ub.append(-t / 2)
            res = linprog(
                np.zeros(k),
                A_ub=np.array(a_ub),
                b_ub=np.array(b_ub),
                A_eq=np.ones((1, k)),
                b_eq=[1.0],
                bounds=(0, None),
                method="highs",
            )
            if res.status != 0:
                return False
        return True

    rng = np.random.default_rng(2024)
    for trial in range(10):
        k = int(rng.integers(3, 7))
        pts = np.round(rng.uniform(-1, 1, (k, 3)), 2)  # rational data
        body = VPolytope(3, np.vstack([pts, -pts]), symmetric=True)
        for t in (0.15, 0.4, 0.8):
            for r in (1, 2, 3):
                for sigma in itertools.combinations(range(3), r):
                    mine = cube_in_projection(body, CoordinateSubset(sigma), t) is not None
                    assert mine == oracle(body, sigma, t), (trial, sigma, t)


def test_duality_link_randomized():
    # For the norm whose unit ball is the polar of B (functionals = the
    # vertices of B), a centered side-t cube inside P_sigma(B) forces the
    # l1 constant of the standard basis on sigma to be at least t/2.
    rng = np.random.default_rng(99)
    for trial in range(12):
        n = 3
        k = int(rng.integers(3, 7))
        pts = rng.uniform(-1, 1, (k, n))
        body = VPolytope(n, np.vstack([pts, -pts]), symmetric=True)
        norm = PolyhedralNorm(n, body.vertices)
        basis = np.eye(n)
        for t in (0.1, 0.3, 0.6):
            for r in (1, 2, 3):
                for sigma in itertools.combinations(range(n), r):
                    subset = CoordinateSubset(sigma)
                    if cube_in_projection(body, subset, t) is not None:
                        const = ell1_lower_constant(norm, basis, subset)
                        assert const >= t / 2 - 1e-6


def test_cube_body_agrees_with_function_family_shattering():
    # For an axis box the vertex family realizes every sign pattern, so
    # the function-family dimension and the projection-cube dimension
    # coincide at every scale.
    from combdim import FunctionFamily
    from combdim.shattering import vc_real

    a = 0.7
    verts = np.array(list(itertools.product((-a, a), repeat=3)))
    body = VPolytope(3, verts, symmetric=True)
    family = FunctionFamily(verts)
    for t in (0.3, 1.0, 1.39, 1.41, 2.0):
        expected = 3 if t <= 2 * a else 0
        assert convex_vc(body, t)[0] == expected
        assert vc_real(family, t) == expected


def test_polytope_norm_round_trip(tmp_path):
    path = tmp_path / "poly.json"
    save_polytope(path, CROSS)
    again = load_polytope(path)
    assert np.array_equal(again.vertices, CROSS.vertices)
    assert again.symmetric
    npath = tmp_path / "norm.json"
    norm = PolyhedralNorm(2, [[1, 0], [0, 1], [0.5, 0.5]])
    save_norm(npath, norm)
    again = load_norm(npath)
    assert np.array_equal(again.functionals, norm.functionals)

import itertools

import numpy as np
import pytest

from combdim import (
    BudgetError,
    CoordinateSubset,
    PolyhedralNorm,
    SolverError,
    VPolytope,
    convex_vc,
    cube_in_projection,
    ell1_lower_constant,
    point_in_hull,
)
from combdim import geometry
from combdim.geometry import _inscribed_radius, load_norm, load_polytope, radius_table
from combdim.geometry import save_norm, save_polytope

SQUARE = VPolytope(2, [[1, 1], [1, -1], [-1, 1], [-1, -1]])
CROSS = VPolytope(2, [[1, 0], [-1, 0], [0, 1], [0, -1]])
TRIANGLE = VPolytope(2, [[0, 0], [1, 0], [0, 1]])
BOTH = CoordinateSubset((0, 1))


def test_point_in_hull_examples():
    assert point_in_hull(SQUARE, [0, 0])
    assert not point_in_hull(SQUARE, [1.001, 0])
    assert point_in_hull(CROSS, [0.5, 0.5])  # boundary accepted
    assert not point_in_hull(CROSS, [0.51, 0.51])
    assert not point_in_hull(SQUARE, [1e6, -3e5])  # far outside
    # the vertex mean is the gauge's origin, inside without an LP
    assert point_in_hull(TRIANGLE, TRIANGLE.vertices.mean(axis=0))
    # a flat body: a segment in the plane, whose gauge is infinite off its line
    ends = np.array([[-0.7, 0.4], [0.9, -0.35]])
    segment = VPolytope(2, ends)
    for weight in (0.0, 0.3, 0.5, 1.0):
        assert point_in_hull(segment, weight * ends[0] + (1 - weight) * ends[1]), weight
    assert not point_in_hull(segment, 0.3 * ends[0] + 0.7 * ends[1] + [0.0, 1e-6])
    assert not point_in_hull(segment, 1.01 * ends[1])
    # a body that is not symmetric, whose column slices repeat projected
    # vertices: its cube decisions on each support are those of the body
    # of the deduplicated slice
    body = VPolytope(3, [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1], [1, 0, 1],
                         [0.2, 0.9, 1], [0.5, 0.5, 0.3], [1, 1, 0.3]])
    assert not body.symmetric
    for size in (1, 2, 3):
        for sigma in itertools.combinations(range(3), size):
            points = body.vertices[:, list(sigma)]
            unique = np.unique(points, axis=0)
            assert len(unique) < len(points) or size == 3
            deduplicated = VPolytope(size, unique)
            for t in (0.3, 0.6, 0.9, 1.2):
                assert ((cube_in_projection(body, CoordinateSubset(sigma), t) is None)
                        == (cube_in_projection(deduplicated, CoordinateSubset(range(size)), t)
                            is None)), (sigma, t)


def test_point_in_hull_rejects_non_finite_points():
    # NaN turned the scaled equality rows of the old membership LP to NaN,
    # and the LP then called the point inside
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            point_in_hull(SQUARE, [bad, 0.0])


def test_point_in_hull_at_a_large_scale():
    # a 1e6-scale body: its boundary points stay inside, a point 0.1
    # beyond an edge does not (the tolerance is relative beyond the unit box)
    body = VPolytope(2, 1e6 * TRIANGLE.vertices)
    for point in ([5e5, 5e5], [1e6, 0.0], [0.0, 3e5], [1e6 / 3, 2e6 / 3]):
        assert point_in_hull(body, point), point
    assert not point_in_hull(body, [5e5, 5e5 + 0.1])
    assert not point_in_hull(body, [-0.1, 5e5])


def test_symmetry_is_read_from_the_vertices():
    # within 1e-12 of the body's size: the triangle at 2^-40 lies within an
    # absolute 1e-12 of its reflection, and was once read as symmetric
    for scale in (1.0, 2.0 ** -40):
        pts = scale * np.array([[1.0, 0.2], [0.3, -1.0], [-0.5, 0.5]])
        assert VPolytope(2, np.vstack([pts, -pts])).symmetric
        assert VPolytope(2, np.vstack([pts, -pts + 1e-13 * scale])).symmetric
        assert VPolytope(2, scale * np.array([[0.0, 1.0], [-0.0, -1.0], [1.0, -0.0],
                                              [-1.0, 0.0]])).symmetric
        assert not VPolytope(2, scale * TRIANGLE.vertices).symmetric
        assert not VPolytope(2, np.vstack([pts, -pts + 1e-11 * scale])).symmetric


def test_translated_decisions_do_not_depend_on_the_scale_of_the_body():
    # point_in_hull, the translated cube_in_projection (its witness in
    # units of the scale) and convex_vc decide alike on the triangle and on
    # its copies scaled by 2^j, the points and sides scaled with it.  The
    # hull tolerance was once absolute below the unit box, so at scale 1e-9
    # the triangle held (0.6, 0.6) and a square of side 0.6; and at 2^-40
    # it was read as symmetric, with the centred witness (-t/2, -t/2)
    # outside it.
    points = [(0.25, 0.25), (0.5, 0.5), (0.5 + 2e-10, 0.5), (0.5 + 1e-8, 0.5), (0.6, 0.6),
              (-1e-8, 0.3)]
    sides = (0.3, 0.5, 0.5 + 1e-10, 0.5 + 1e-8, 0.6)

    def decisions(scale):
        body = VPolytope(2, scale * TRIANGLE.vertices)
        witnesses = [cube_in_projection(body, BOTH, scale * t) for t in sides]
        return ([point_in_hull(body, scale * np.array(point)) for point in points],
                [w and tuple(x / scale for x in w.translation) for w in witnesses],
                [(dim, tuple(sigma)) for dim, sigma in (convex_vc(body, scale * t) for t in sides)])

    reference = decisions(1.0)
    assert reference[0] == [True, True, True, False, False, False]
    assert [w is not None for w in reference[1]] == [True, True, True, False, False]
    assert [dim for dim, _ in reference[2]] == [2, 2, 2, 1, 1]
    for j in range(-40, 41):
        assert decisions(2.0 ** j) == reference, j


def test_symmetric_decisions_do_not_depend_on_the_scale_of_the_body():
    # the symmetric twin of the test above: scaling by 2^e is exact in
    # floats, and the cube rule and the box cut measure HULL_TOL in the
    # body's unit, so 2^e K at side 2^e t decides as K at t, and its radius
    # table holds the same supports with the radii scaled exactly.  With an
    # absolute HULL_TOL the square (+-1, +-1) 2^e held a side-2.2 2^e cube,
    # wider than the body, for e <= -27.
    full = CoordinateSubset((0, 1))
    for e in range(-60, 61):
        scale = 2.0 ** e
        square = VPolytope(2, scale * SQUARE.vertices)
        assert convex_vc(square, 2.2 * scale) == (0, CoordinateSubset(())), e
        assert cube_in_projection(square, full, 2.2 * scale) is None, e
        assert convex_vc(square, 2.0 * scale) == (2, full), e
    bodies = [SQUARE, CROSS] + list(_random_symmetric_bodies(6, 4))
    for body in bodies:
        n = body.dimension
        for t in (0.2, 0.6, 1.0, 2.0):
            reference = (convex_vc(body, t), radius_table(body.vertices, (t,)),
                         cube_in_projection(body, CoordinateSubset(range(n)), t) is None)
            for e in range(-60, 61, 10):
                scale = 2.0 ** e
                scaled = VPolytope(n, scale * body.vertices)
                table = radius_table(scaled.vertices, (scale * t,))
                assert convex_vc(scaled, scale * t) == reference[0], (e, t)
                assert list(table.items()) == [(sup, scale * r) for sup, r in reference[1].items()]
                assert (cube_in_projection(scaled, CoordinateSubset(range(n)), scale * t)
                        is None) == reference[2], (e, t)


def test_polytope_rejects_non_finite_vertices():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            VPolytope(2, [[bad, 1.0], [1.0, 1.0], [-1.0, -1.0]])


def test_cube_in_projection_examples():
    assert cube_in_projection(SQUARE, BOTH, 2.0) is not None
    assert cube_in_projection(CROSS, BOTH, 1.0) is not None  # corner on boundary
    assert cube_in_projection(CROSS, BOTH, 1.05) is None
    w = cube_in_projection(CROSS, CoordinateSubset((0,)), 2.0)
    assert w is not None and w.translation == (-1.0,)


def test_centred_witness_is_the_cube_corner():
    w = cube_in_projection(CROSS, BOTH, 1.0)
    assert w.translation == (-0.5, -0.5)
    for off in itertools.product((0.0, 1.0), repeat=2):
        assert point_in_hull(CROSS, np.array(w.translation) + off)


def _highs_inside(points, corner):
    # HiGHS on the convex-combination system: is corner in conv(points)?
    from scipy.optimize import linprog

    k = len(points)
    res = linprog(np.zeros(k), A_eq=np.vstack([points.T, np.ones((1, k))]),
                  b_eq=np.r_[corner, 1.0], bounds=(0, None), method="highs")
    assert res.status in (0, 2)
    return res.status == 0


def _assert_witness_corners_inside(body, witness):
    # every corner of the witness cube, checked by HiGHS, independently of
    # the gauge LPs that cube_in_projection and point_in_hull share
    points = body.vertices[:, list(witness.sigma)]
    for off in itertools.product((0.0, witness.side), repeat=len(witness.sigma)):
        assert _highs_inside(points, np.array(witness.translation) + off), off


def _largest_side(points):
    # the facet route: the hull's facets A y <= b by qhull, then one HiGHS
    # LP for the largest cube h + s [0, 1]^k inside, A h + s sum(max(A, 0)) <= b
    from scipy.optimize import linprog
    from scipy.spatial import ConvexHull

    k = points.shape[1]
    hull = ConvexHull(points)
    normals, offsets = hull.equations[:, :-1], hull.equations[:, -1]
    res = linprog(np.r_[np.zeros(k), -1.0],
                  A_ub=np.c_[normals, np.maximum(normals, 0.0).sum(axis=1)], b_ub=-offsets,
                  bounds=[(None, None)] * k + [(0, None)], method="highs")
    assert res.status == 0
    return -res.fun


def test_cube_in_projection_translated():
    body = VPolytope(2, [[0, 0], [3, 0], [0, 3], [3, 3]])
    w = cube_in_projection(body, BOTH, 2.0)
    assert w is not None
    _assert_witness_corners_inside(body, w)
    assert cube_in_projection(body, BOTH, 3.5) is None


def test_asymmetric_body_takes_the_translated_lp():
    body = VPolytope(2, [[0, 0], [1, 0], [0, 1]])
    w = cube_in_projection(body, BOTH, 0.5)
    assert w is not None
    _assert_witness_corners_inside(body, w)
    assert cube_in_projection(body, BOTH, 0.6) is None


def test_translated_cubes_match_the_facet_oracle():
    # seeded bodies in 2-4 coordinates that are not symmetric: the decision
    # agrees with the facet route's largest side s* at fixed scales and
    # 1e-6 either side of s*, and every witness corner is inside by HiGHS
    rng = np.random.default_rng(31)
    for trial in range(8):
        n = int(rng.integers(2, 5))
        body = VPolytope(n, rng.uniform(-1.0, 1.0, (int(rng.integers(n + 2, 12)), n)))
        assert not body.symmetric
        for size in range(2, n + 1):
            for sigma in itertools.combinations(range(n), size):
                support = CoordinateSubset(sigma)
                best = _largest_side(body.vertices[:, list(sigma)])
                for t in (0.1, 0.3, 0.6, best * (1 - 1e-6), best * (1 + 1e-6)):
                    if abs(t - best) < 1e-7 * best:
                        continue  # inside the tolerance band: either answer holds
                    witness = cube_in_projection(body, support, t)
                    assert (witness is not None) == (t < best), (trial, sigma, t, best)
                    if witness is not None:
                        _assert_witness_corners_inside(body, witness)


def test_translated_cube_past_the_old_joint_lp_limit():
    # the simplex conv{0, e_1, ..., e_9} holds h + s [0, 1]^9 iff h >= 0
    # and sum(h) + 9 s <= 1: largest side 1/9.  The joint corner LP had
    # 2^9 * 10 rows here and was refused; scaled by 1e6, the cube whose
    # corner touches the far facet stays inside.
    simplex = VPolytope(9, np.vstack([np.zeros(9), np.eye(9)]))
    full = CoordinateSubset(tuple(range(9)))
    assert cube_in_projection(simplex, full, (1 + 1e-6) / 9) is None
    witness = cube_in_projection(simplex, full, (1 - 1e-6) / 9)
    assert witness is not None
    _assert_witness_corners_inside(simplex, witness)
    big = VPolytope(3, 1e6 * np.vstack([np.zeros(3), np.eye(3)]))
    witness = cube_in_projection(big, CoordinateSubset((0, 1, 2)), 1e6 / 3)
    assert witness is not None
    _assert_witness_corners_inside(big, witness)
    assert cube_in_projection(big, CoordinateSubset((0, 1, 2)), 1e6 / 3 * (1 + 1e-6)) is None


def test_cutting_planes_raise_when_a_round_adds_no_cut(monkeypatch):
    # a gauge LP that keeps finding the corners outside by a cut the
    # master holds, a box facet exactly or up to roundoff, raises rather
    # than loops
    for noise in (0.0, 1e-15):
        def stuck(points, xs):
            normals = np.zeros((len(xs), points.shape[1]))
            normals[:, 0] = 1.0 - noise
            return np.full(len(xs), 2.0), normals

        monkeypatch.setattr(geometry, "_separate", stuck)
        with pytest.raises(SolverError, match="stalled"):
            cube_in_projection(TRIANGLE, BOTH, 0.1)


def test_cutting_planes_count_their_pivots(monkeypatch):
    # work, not time: convex_vc on this 20-vertex body at t = 0.5 walks
    # the cutting planes on 62 supports; with the corners' l1-distance LPs
    # it took 10,252 stacked pivots, with their gauge LPs 4,582
    from combdim import simplex

    pivots = []
    real = simplex._pivot
    monkeypatch.setattr(simplex, "_pivot", lambda *args: pivots.append(1) or real(*args))
    body = VPolytope(6, np.random.default_rng(1).uniform(-1.0, 1.0, (20, 6)))
    assert convex_vc(body, 0.5) == (4, CoordinateSubset((0, 1, 2, 3)))
    assert len(pivots) < 6000


def test_cube_budget():
    big = VPolytope(16, np.vstack([np.eye(16), -np.eye(16)]))
    with pytest.raises(BudgetError):
        cube_in_projection(big, CoordinateSubset(tuple(range(16))), 0.1)


def test_convex_vc_examples():
    assert convex_vc(SQUARE, 1.0) == (2, BOTH)
    dim, sigma = convex_vc(CROSS, 1.5)
    assert (dim, tuple(sigma)) == (1, (0,))
    assert convex_vc(SQUARE, 5.0)[0] == 0
    # bodies that are not symmetric walk the translated cutting planes
    assert convex_vc(VPolytope(2, [[0, 0], [3, 0], [0, 3], [3, 3]]), 2.0) == (2, BOTH)
    assert convex_vc(TRIANGLE, 0.5) == (2, BOTH)
    assert convex_vc(TRIANGLE, 0.6) == (1, CoordinateSubset((0,)))
    assert convex_vc(TRIANGLE, 1.1)[0] == 0
    # under the radius rule t <= 0 would pass every support and NaN none
    for body in (SQUARE, TRIANGLE):
        for t in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="cube side must be positive"):
                convex_vc(body, t)


def test_convex_vc_lex_smallest():
    # a box that is wide on coordinates 0 and 2 only, then the same box with
    # inner vertices +-(1, 0.1, 0.5) that coincide with box vertices in some
    # projections only: the slices repeat points, which the deduplicated
    # projections do not
    verts = list(itertools.product((-1.0, 1.0), (-0.1, 0.1), (-1.0, 1.0)))
    for body in (VPolytope(3, verts), VPolytope(3, verts + [(1.0, 0.1, 0.5), (-1.0, -0.1, -0.5)])):
        dim, sigma = convex_vc(body, 1.0)
        assert dim == 2 and tuple(sigma) == (0, 2)
        for t in (0.15, 1.0, 1.5):
            table = radius_table(body.vertices, (t,))
            for sup, r in table.items():
                assert r == _inscribed_radius(body.vertices, sup)
                projected = np.unique(body.vertices[:, list(sup)], axis=0)
                assert r == pytest.approx(_inscribed_radius(projected, range(len(sup))), abs=1e-12)


def test_cube_monotone_in_sigma_and_t():
    rng = np.random.default_rng(12)
    for trial in range(10):
        k = int(rng.integers(4, 9))
        pts = rng.uniform(-1, 1, (k, 3))
        body = VPolytope(3, np.vstack([pts, -pts]))
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
            # convex_vc's walk finds the first of the widest passing supports
            widest = max((sigma for sigma, ok in hits.items() if ok), key=len, default=())
            assert convex_vc(body, t) == (len(widest), CoordinateSubset(widest)), (trial, t)


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
        body = VPolytope(3, np.vstack([pts, -pts]))
        for t in (0.15, 0.4, 0.8):
            for r in (1, 2, 3):
                for sigma in itertools.combinations(range(3), r):
                    mine = cube_in_projection(body, CoordinateSubset(sigma), t) is not None
                    assert mine == oracle(body, sigma, t), (trial, sigma, t)
    # The dual bodies of the elton norms at the grid scale where their
    # supports split between passing and failing (119 of 130 pass).
    from combdim.elton import dual_body
    from combdim.experiments import random_norm_instances

    for index, (norm, vectors, _) in enumerate(random_norm_instances(1)):
        body = dual_body(norm, vectors)
        for r in range(1, body.dimension + 1):
            for sigma in itertools.combinations(range(body.dimension), r):
                mine = cube_in_projection(body, CoordinateSubset(sigma), 0.5) is not None
                assert mine == oracle(body, sigma, 0.5), (index, sigma)


def test_duality_link_randomized():
    # For the norm whose unit ball is the polar of B (functionals = the
    # vertices of B), the l1 constant r of the standard basis on sigma is
    # the half-side of the largest centred cube inside P_sigma(B): the
    # cube of side 2r fits and a slightly larger one does not.
    rng = np.random.default_rng(99)
    for trial in range(12):
        n = 3
        k = int(rng.integers(3, 7))
        pts = rng.uniform(-1, 1, (k, n))
        body = VPolytope(n, np.vstack([pts, -pts]))
        norm = PolyhedralNorm(n, body.vertices)
        basis = np.eye(n)
        for r in (1, 2, 3):
            for sigma in itertools.combinations(range(n), r):
                subset = CoordinateSubset(sigma)
                const = ell1_lower_constant(norm, basis, subset)
                assert cube_in_projection(body, subset, 2 * const) is not None, (trial, sigma)
                assert cube_in_projection(body, subset, 2 * const * (1 + 1e-6)) is None, (trial, sigma)


def test_cube_body_agrees_with_function_family_shattering():
    # For an axis box the vertex family realizes every sign pattern, so
    # the function-family dimension and the projection-cube dimension
    # coincide at every scale.
    from combdim import FunctionFamily
    from combdim.shattering import vc_real

    a = 0.7
    verts = np.array(list(itertools.product((-a, a), repeat=3)))
    body = VPolytope(3, verts)
    family = FunctionFamily(verts)
    for t in (0.3, 1.0, 1.39, 1.41, 2.0):
        expected = 3 if t <= 2 * a else 0
        assert convex_vc(body, t)[0] == expected
        assert vc_real(family, t) == expected


def _random_symmetric_bodies(seed, count):
    # symmetric bodies in 3-6 coordinates with 3-12 random vertex pairs,
    # some scaled down on a coordinate so that the walk stops early
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(3, 7))
        pts = rng.uniform(-1.0, 1.0, (int(rng.integers(3, 13)), n))
        pts[:, rng.integers(n)] *= rng.uniform(0.2, 1.0)
        yield VPolytope(n, np.vstack([pts, -pts]))


def _unit(points):
    # the body's unit, in which the cube rule and the box cut measure HULL_TOL
    return geometry._unit(np.abs(points).max())


def _reference_table(points, scales):
    # the probe of the full set unless the box cut rejects it at the
    # finest scale, then the walk solving each support when it reaches it
    n = points.shape[1]
    full = tuple(range(n))
    unit = _unit(points)
    table = {}
    if not geometry._box_cut(points, min(scales), unit):
        table[full] = _inscribed_radius(points, full)

    def passes(level, t):
        for sup in level:
            if sup not in table:
                table[sup] = _inscribed_radius(points, sup)
        return [geometry._fits(table[sup], t, unit) for sup in level]

    unsettled = [t for t in scales
                 if not (full in table and geometry._fits(table[full], t, unit))]
    if unsettled:
        geometry.passing_supports(n, lambda level: passes(level, min(unsettled)))
    return table


def _one_run_entries(points):
    # the entries of one stack of every support's orthant LPs at the full size
    n = points.shape[1]
    return (3 ** n - 1) // 2 * geometry._lp_entries(len(points), n)


def _one_run_fires(points, scales):
    # radius_table's rule for solving every support in the probe's run
    unit = _unit(points)
    return (not geometry._box_cut(points, min(scales), unit)
            and _one_run_entries(points) <= geometry.STACK_ENTRY_LIMIT
            and not geometry._fits(geometry._vertex_bound(points)[0], max(scales), unit))


def test_radius_table_solves_ahead_only_what_the_walk_reaches(monkeypatch):
    # When the rule fires, the one solving run holds every support, full
    # first.  Otherwise the probe runs alone, each later run holds one
    # level of the walk (supports of one size), and no LP is solved for a
    # support the walk does not reach; the second pass sets the stack limit
    # one entry below the one-run stack, so the rule never fires.  Either
    # way no support is solved twice, and the table keeps the walk's keys,
    # order and radii.
    real = geometry._orthant_optima
    paths = {}
    bodies = list(_random_symmetric_bodies(6, 25))
    scale_sets = ((0.2,), (0.6,), (1.0,), (1.5, 0.9, 0.4))
    # the reference walk does not read the stack limit: one table serves both passes
    references = {(b, scales): _reference_table(body.vertices, scales)
                  for b, body in enumerate(bodies) for scales in scale_sets}
    for low in (False, True):
        for b, body in enumerate(bodies):
            n = body.dimension
            full = tuple(range(n))
            unit = _unit(body.vertices)
            limit = _one_run_entries(body.vertices) - 1 if low else geometry.STACK_ENTRY_LIMIT
            for scales in scale_sets:
                runs = []  # the supports of each solving run, in order

                def recording(points, supports):
                    if supports:
                        runs.append(list(supports))
                    return real(points, supports)

                with monkeypatch.context() as hook:
                    hook.setattr(geometry, "_orthant_optima", recording)
                    hook.setattr(geometry, "STACK_ENTRY_LIMIT", limit)
                    table = radius_table(body.vertices, scales)
                    fires = _one_run_fires(body.vertices, scales)
                assert list(table.items()) == list(references[b, scales].items())
                solved = [sup for run in runs for sup in run]
                assert len(solved) == len(set(solved))

                t = min(scales)
                spared = geometry._box_cut(body.vertices, t, unit)
                path = "one run" if fires else "spared" if spared else "probe"
                paths[low, path] = paths.get((low, path), 0) + 1
                if fires:
                    assert runs == [[full] + [sigma for size in range(1, n)
                                              for sigma in itertools.combinations(range(n), size)]]
                    continue
                assert sorted(solved) == sorted(table)
                if path == "probe":  # V's one orthant LP may settle the probe: no run at all
                    assert runs[:1] in ([], [[full]])
                    assert [{len(sup) for sup in run} for run in runs[1:]] == [
                        {size} for size in range(1, len(runs))]
    assert paths == {(False, "one run"): 67, (False, "spared"): 32, (False, "probe"): 1,
                     (True, "spared"): 32, (True, "probe"): 68}


def _vertex_bound_reference(points):
    # max(0, min over the orthants theta, first sign +, of max_j min_i
    # theta_i p_ji), as one (orthants, points, n) broadcast
    n = points.shape[1]
    theta = np.array([(1.0,) + tail for tail in itertools.product((-1.0, 1.0), repeat=n - 1)])
    return max(0.0, float((theta[:, None, :] * points[None]).min(axis=2).max(axis=1).min()))


def test_vertex_bound_equals_the_broadcast_reference_bit_for_bit():
    rng = np.random.default_rng(35)
    positive = 0
    for case in range(360):
        n = case % 6 + 1
        pts = rng.uniform(-1.0, 1.0, (int(rng.integers(1, 10)), n))
        if case % 3 == 0:  # a point in every orthant
            signs = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
            pts = np.vstack([pts, signs * rng.uniform(0.1, 1.0, signs.shape)])
        pts[rng.random(pts.shape) < 0.1] = 0.0
        if case % 2 == 0:
            pts = np.vstack([pts, -pts])
        bound, theta = geometry._vertex_bound(pts)
        assert bound.hex() == _vertex_bound_reference(pts).hex(), case
        # the orthant returned attains the minimum
        assert any(np.array_equal(theta, row) for row in geometry._orthants(n)), case
        assert max(0.0, float((theta * pts).min(axis=1).max())).hex() == bound.hex(), case
        positive += bound > 0
    assert positive >= 100
    for body in _random_symmetric_bodies(5, 25):
        (optima,) = geometry._orthant_optima(body.vertices, [tuple(range(body.dimension))])
        assert geometry._vertex_bound(body.vertices)[0] <= geometry._radius(optima) + 1e-12


PERFBENCH_RUDELSON = ((5, 1.0), (5, 0.9), (5, 0.6), (6, 1.0), (6, 0.6), (7, 0.8))


def _lp_count(monkeypatch, run):
    # run()'s result and the orthant LPs it solved, counted per stack
    real, lps = geometry._generate_columns, []

    def counting(points, thetas):
        lps.append(sum(map(len, thetas)))
        return real(points, thetas)

    with monkeypatch.context() as hook:
        hook.setattr(geometry, "_generate_columns", counting)
        return run(), sum(lps)


def _one_lp_table(monkeypatch, points, scales):
    # radius_table solves one orthant LP, and its table is {full: V}
    table, lps = _lp_count(monkeypatch, lambda: radius_table(points, scales))
    return lps == 1 and table == {tuple(range(points.shape[1])): geometry._vertex_bound(points)[0]}


def test_tightness_bodies_past_n_12_take_one_orthant_lp(monkeypatch):
    from combdim.elton import DEFAULT_T_GRID, rudelson_example

    for n in (13, 14, 15):
        inst = rudelson_example(n, 0.5)
        assert _one_lp_table(monkeypatch, geometry._l1_points(inst.norm, inst.vectors),
                             DEFAULT_T_GRID), n


def test_vertex_bound_is_the_radius_of_the_tightness_bodies_bit_for_bit():
    from combdim.elton import rudelson_example

    for n, delta in PERFBENCH_RUDELSON + ((7, 0.5), (8, 0.5), (9, 0.5), (10, 0.5)):
        inst = rudelson_example(n, delta)
        points = geometry._l1_points(inst.norm, inst.vectors)
        (optima,) = geometry._orthant_optima(points, [tuple(range(n))])
        assert geometry._vertex_bound(points)[0].hex() == geometry._radius(optima).hex(), (n, delta)


def test_a_loose_vertex_bound_falls_back_to_every_orthant(monkeypatch):
    # V = 1/2 from (1/2, +-1/2), but the hull is the diamond |x| + |y| <= 3/2: r = 3/4
    half = np.array([[0.5, 0.5], [0.5, -0.5], [1.5, 0.0], [0.0, 1.5]])
    points = np.vstack([half, -half])
    assert geometry._vertex_bound(points)[0] == 0.5
    # V fits side 1: V's orthant LP returns 3/4 > V, then both orthants run
    table, lps = _lp_count(monkeypatch, lambda: radius_table(points, (1.0,)))
    assert table == {(0, 1): 0.75} and lps == 1 + 2
    # V fails side 2: the probe runs, every support in its run (2 + 1 + 1 LPs)
    table, lps = _lp_count(monkeypatch, lambda: radius_table(points, (2.0,)))
    assert table == {(0, 1): 0.75, (0,): 1.5, (1,): 1.5} and lps == 4
    for scales in ((1.0,), (2.0,), (1.6, 0.4)):
        assert list(radius_table(points, scales).items()) == list(
            _reference_table(points, scales).items()), scales


def test_both_radius_table_paths_give_the_same_answers(monkeypatch):
    # the one-run path and the probe path (the stack limit one entry below
    # the one-run stack) give identical elton results; the walk test's two
    # passes hold the radius tables of its bodies to one reference.  The
    # perfbench elton norms (seeds 1-8) never take the probe path: the one
    # run fires on 47, and single vertices settle every scale of the 48th
    from combdim import elton_subset
    from combdim.elton import DEFAULT_T_GRID, rudelson_example
    from combdim.experiments import random_norm_instances

    census = {"one run": 0, "vertex": 0}
    for seed in range(1, 9):
        for norm, vectors, _ in random_norm_instances(seed):
            points = geometry._l1_points(norm, vectors)
            if _one_run_fires(points, DEFAULT_T_GRID):
                census["one run"] += 1
            else:
                assert geometry._fits(geometry._vertex_bound(points)[0], max(DEFAULT_T_GRID),
                                      _unit(points)), seed
                census["vertex"] += 1
            if seed > 3:
                continue
            one = elton_subset(norm, vectors, samples=200)
            with monkeypatch.context() as hook:
                hook.setattr(geometry, "STACK_ENTRY_LIMIT", _one_run_entries(points) - 1)
                assert elton_subset(norm, vectors, samples=200) == one
    assert census == {"one run": 47, "vertex": 1}
    # the perfbench rudelson bodies take the one-LP path: single vertices
    # settle the coarsest grid scale (1/2), and V's orthant LP certifies r = V
    for n, delta in PERFBENCH_RUDELSON:
        inst = rudelson_example(n, delta, net_size=64, seed=0)
        points = geometry._l1_points(inst.norm, inst.vectors)
        assert geometry._fits(geometry._vertex_bound(points)[0], max(DEFAULT_T_GRID), _unit(points))
        assert _one_lp_table(monkeypatch, points, DEFAULT_T_GRID)


def test_radius_table_takes_one_vertex_bound_per_tight_body(monkeypatch):
    # the perfbench rudelson list, five rounds of its 58 calls: the table
    # hands the full support's vertex bound to the one-LP radius
    from combdim import elton_subset
    from combdim.elton import rudelson_example

    calls = []
    real = geometry._vertex_bound
    monkeypatch.setattr(geometry, "_vertex_bound", lambda points: calls.append(1) or real(points))
    bodies = [rudelson_example(n, delta, net_size=64, seed=0) for n, delta in PERFBENCH_RUDELSON]
    per_round = (16, 20, 16, 3, 2, 1)  # calls per body in one round
    made = 0
    for _ in range(5):
        for body, count in zip(bodies, per_round):
            for _ in range(count):
                elton_subset(body.norm, body.vectors, samples=100)
                made += 1
    assert made == 290
    assert len(calls) == 290


def test_shattered_sets_hold_cubes_in_the_projections_of_the_hull():
    # if F t-shatters sigma, the projection on sigma of conv F holds a
    # side-t cube: the lattice walker bounds the orthant-LP walk, and the
    # two share no code
    from combdim import FunctionFamily
    from combdim.shattering import vc_real

    rng = np.random.default_rng(5)
    strict = 0
    for _ in range(120):
        n = int(rng.integers(2, 7))
        pts = rng.uniform(-1.0, 1.0, (int(rng.integers(2, 9)), n))
        pts = np.vstack([pts, -pts])
        family, body = FunctionFamily(pts), VPolytope(n, pts)
        for t in (0.2, 0.4, 0.6, 0.8, 1.0):
            shattered, cube = vc_real(family, t), convex_vc(body, t)[0]
            assert shattered <= cube, (n, t)
            strict += shattered < cube
    assert strict == 242  # of 600: the bound is not met with equality alone


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

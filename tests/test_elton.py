import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog, minimize_scalar

from combdim import CoordinateSubset, PolyhedralNorm, elton_subset, geometry
from combdim.constants import DEFAULT_CONSTANTS
from combdim.elton import DEFAULT_T_GRID, dual_body, exact_tightness_norm, rudelson_example
from combdim.errors import BudgetError
from combdim.experiments import random_norm_instances
from combdim.geometry import HULL_TOL, convex_vc, cube_in_projection, ell1_lower_constant
from combdim.simplex import LPProblem, lp_solve


def l1_norm(n):
    return PolyhedralNorm(n, np.array(list(itertools.product((-1.0, 1.0), repeat=n))))


def test_dual_body_of_l1_basis_is_cube():
    n = 3
    body = dual_body(l1_norm(n), np.eye(n))
    assert body.symmetric
    assert body.vertices.shape == (2**n, n)
    assert set(map(tuple, body.vertices)) == set(itertools.product((-1.0, 1.0), repeat=n))


def test_elton_l1_basis():
    n = 4
    res = elton_subset(l1_norm(n), np.eye(n), samples=500, seed=3)
    assert tuple(res.sigma) == (0, 1, 2, 3)
    assert res.t == pytest.approx(1.0, abs=1e-9)
    assert res.s == pytest.approx(1.0)
    assert res.delta == pytest.approx(1.0)  # Rademacher sup is exactly n
    assert res.estimate.stderr == 0.0


def test_elton_identical_vectors():
    n = 3
    norm = PolyhedralNorm(2, [[1.0, 0.0], [0.0, 1.0]])
    vectors = np.array([[1.0, 0.0]] * n)
    res = elton_subset(norm, vectors, samples=500, seed=5)
    assert len(res.sigma) == 1
    assert res.t == pytest.approx(1.0, abs=1e-9)
    assert res.s * res.t == pytest.approx(1.0 / math.sqrt(n), abs=1e-9)


def test_elton_cube_budget_below_n(monkeypatch):
    # with n above the budget the full support is not probed, so the walk
    # decides; it stops at pairs here and never reaches the budget.  convex_vc
    # on the dual body reads the same walk.
    norm = PolyhedralNorm(2, [[1.0, 0.0], [0.0, 1.0]])
    vectors = np.array([[1.0, 0.0]] * 3)
    body = dual_body(norm, vectors)
    uncapped = elton_subset(norm, vectors, samples=500, seed=5)
    uncapped_vc = [convex_vc(body, t) for t in DEFAULT_T_GRID]
    assert uncapped_vc[0] == (1, CoordinateSubset((0,)))
    monkeypatch.setattr(geometry, "CUBE_DIM_BUDGET", 2)
    assert elton_subset(norm, vectors, samples=500, seed=5) == uncapped
    assert [convex_vc(body, t) for t in DEFAULT_T_GRID] == uncapped_vc
    # here every support passes, so the walk reaches |sigma| = 4 > 3
    monkeypatch.setattr(geometry, "CUBE_DIM_BUDGET", 3)
    with pytest.raises(BudgetError):
        elton_subset(l1_norm(4), np.eye(4), samples=100, seed=1)
    # the budget is checked before V's orthant LP would certify r = 1
    with pytest.raises(BudgetError):
        ell1_lower_constant(l1_norm(4), np.eye(4), CoordinateSubset((0, 1, 2, 3)))
    with pytest.raises(BudgetError):
        convex_vc(dual_body(l1_norm(4), np.eye(4)), 0.5)


def test_cube_rule_agrees_at_the_tolerance_edge():
    # the dual body of a * e_i under the l1 norm is the cube a[-1, 1]^3, with
    # inscribed radius a and width 2a; at side 0.5 the rule r >= t/2 - HULL_TOL
    # in the body's unit (the power of two nearest a, 1/4) passes it down to
    # a = 0.25 - HULL_TOL / 4, so a box cut must not reject it first
    full = CoordinateSubset((0, 1, 2))
    tol = HULL_TOL / 4
    for a, holds in ((0.25 - 0.75 * tol, True), (0.25 - 1.5 * tol, False)):
        vectors = a * np.eye(3)
        body = dual_body(l1_norm(3), vectors)
        assert (cube_in_projection(body, full, 0.5) is not None) == holds, a
        assert convex_vc(body, 0.5) == ((3, full) if holds else (0, CoordinateSubset(()))), a
        sweep = dict(elton_subset(l1_norm(3), vectors, samples=100, seed=0).sweep)
        assert sweep[0.5] == (3 if holds else 0), a


def test_sweep_and_certificate_match_an_exhaustive_scan():
    # elton_subset reads the sweep, the winning subset and its constant off
    # one probe and one lattice walk over l1 constants.  The reference
    # solves ell1_lower_constant on every support, with no lattice and no
    # probe, and takes at each scale the first of the widest supports with
    # r >= t/2 - HULL_TOL in the body's unit.  The full support settles
    # every scale on the tightness bodies, and several seed-2 norms leave
    # more than one scale to the walk.
    cases = [(norm, vectors) for seed in (1, 2)
             for norm, vectors, _ in random_norm_instances(seed)]
    for n, delta in ((5, 0.6), (6, 0.6)):
        inst = rudelson_example(n, delta)
        cases.append((inst.norm, inst.vectors))
    for norm, vectors in cases:
        res = elton_subset(norm, vectors, samples=200, seed=0)
        n = vectors.shape[0]
        radius = {sup: ell1_lower_constant(norm, vectors, CoordinateSubset(sup))
                  for size in range(1, n + 1) for sup in itertools.combinations(range(n), size)}
        tol = HULL_TOL * geometry._unit(np.abs(geometry._l1_points(norm, vectors)).max())

        def widest(t):
            return max((sup for sup, r in radius.items() if r >= t / 2 - tol), key=len, default=())

        assert res.sweep == tuple((t, len(widest(t))) for t in DEFAULT_T_GRID)
        assert tuple(res.sigma) == widest(res.grid_t)
        assert res.t == radius[tuple(res.sigma)]


def test_elton_rejects_big_vectors():
    norm = PolyhedralNorm(2, [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="unit ball"):
        elton_subset(norm, np.array([[1.5, 0.0]]), samples=100, seed=1)


def test_l1_entry_points_reject_non_finite_vectors():
    # NaN fails the unit-ball check's comparison and the orthant LPs read
    # it as 0, so both once answered: sigma (1,), t = 1.0, delta = nan, and
    # an l1 constant of 0.0
    norm = PolyhedralNorm(2, [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    for bad in (np.nan, np.inf, -np.inf):
        vectors = np.array([[bad, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="vectors must have finite entries"):
            elton_subset(norm, vectors, samples=100, seed=1)
        with pytest.raises(ValueError, match="vectors must have finite entries"):
            ell1_lower_constant(norm, vectors, CoordinateSubset((0, 1)))
        with pytest.raises(ValueError, match="vectors must have finite entries"):
            dual_body(norm, vectors)


def test_l1_entry_points_reject_vectors_of_another_dimension():
    # 3-coordinate vectors under a 2-dimensional norm once died inside
    # numpy's matmul, with a message that named neither
    norm = PolyhedralNorm(2, [[1.0, 0.0], [0.0, 1.0]])
    vectors = np.array([[0.5, 0.0, 0.0], [0.0, 0.5, 0.0]])
    message = "vectors have 3 coordinates, but the norm has dimension 2"
    with pytest.raises(ValueError, match=message):
        elton_subset(norm, vectors, samples=100, seed=1)
    with pytest.raises(ValueError, match=message):
        ell1_lower_constant(norm, vectors, CoordinateSubset((0, 1)))
    with pytest.raises(ValueError, match=message):
        dual_body(norm, vectors)


def test_elton_result_invariants():
    n = 4
    res = elton_subset(l1_norm(n), np.eye(n), samples=300, seed=11)
    assert len(res.sigma) == round(res.s**2 * n)
    fresh = res.recheck_t(l1_norm(n), np.eye(n))
    assert abs(fresh - res.t) <= 1e-6
    assert res.tradeoff == pytest.approx(
        res.s * res.t * math.log(2.0 / res.t) ** res.tradeoff_exponent
    )
    assert dict(res.sweep)  # the full sweep is reported


def test_exact_tightness_norm_values():
    n = 4
    delta = 0.7
    # the all-signs vector always has norm delta * n
    for signs in itertools.product((-1.0, 1.0), repeat=n):
        assert exact_tightness_norm(np.array(signs), delta) == pytest.approx(delta * n)
    # a single basis vector has norm 1 (the l1 part dominates)
    e0 = np.zeros(n)
    e0[0] = 1.0
    assert exact_tightness_norm(e0, delta) == pytest.approx(1.0)
    # delta = 1 collapses to the l1 norm
    x = np.array([0.3, -1.2, 0.5, 2.0])
    assert exact_tightness_norm(x, 1.0) == pytest.approx(float(np.abs(x).sum()))
    # delta = 1/sqrt(n) makes the polar the Euclidean ball
    for x in (np.array([0.3, -1.2, 0.5, 2.0]), np.array([0.0, 3.0, 0.0, -4.0]), np.ones(7)):
        got = exact_tightness_norm(x, 1.0 / math.sqrt(x.size))
        assert got == pytest.approx(float(np.linalg.norm(x)), rel=1e-14)
    assert exact_tightness_norm(np.zeros(n), delta) == 0.0
    # at most delta^2 n nonzeros: u = sign(x) is feasible, so the l1 norm
    for x, d in (([0.0, -2.5, 0.0, 0.7], 0.71), ([0.0, 0.0, 0.0, 1e-3], 0.5),
                 ([1.0, 0.0, -1.0, 0.0, 3.0, 0.0], 0.71)):
        assert exact_tightness_norm(np.array(x), d) == float(np.abs(x).sum())
    # tied |x_i|: m equal entries share the budget, c * cap * sqrt(m)
    x = np.array([2.0, -2.0, 2.0, -2.0, 0.0, 0.0])
    assert exact_tightness_norm(x, 0.5) == pytest.approx(2.0 * math.sqrt(1.5) * 2.0, rel=1e-14)
    # a tie after a saturated entry: j = 1 with budget cap^2 - 1 = 1 left
    x = np.array([1.0, -3.0, 1.0, 1.0])
    assert exact_tightness_norm(x, math.sqrt(0.5)) == pytest.approx(3.0 + math.sqrt(3.0), rel=1e-14)
    # positively homogeneous, exactly under powers of two, with no overflow
    x = np.array([0.3, -1.2, 0.5, 2.0, 0.0])
    for scale in (2.0 ** 600, 2.0 ** -600):
        assert exact_tightness_norm(scale * x, 0.6) == scale * exact_tightness_norm(x, 0.6)
    assert exact_tightness_norm(1e200 * x, 0.6) == pytest.approx(1e200 * exact_tightness_norm(x, 0.6))


def _split_bound(a, cap, lam):
    return float(np.maximum(a - lam, 0.0).sum() + cap * np.linalg.norm(np.minimum(a, lam)))


def test_exact_tightness_norm_meets_its_dual_bound():
    # splitting x at level lam >= 0 into an l1 part with sum (|x_i| - lam)_+
    # and an l2 part min(|x|, lam) bounds the norm above; the best split
    # attains it.  The bound is convex between consecutive |x_i|, so one
    # bounded search per gap, plus the knots themselves, finds its minimum.
    rng = np.random.default_rng(11)
    for trial in range(300):
        n = int(rng.integers(1, 13))
        x = rng.standard_normal(n)
        if trial % 3 == 1:
            x[rng.random(n) < 0.4] = 0.0
        elif trial % 3 == 2:
            x = rng.choice([-2.0, -1.0, 0.0, 0.5, 1.0, 2.0], n)  # zeros and ties
        delta = float(rng.uniform(1.0 / math.sqrt(n), 1.0))
        a, cap = np.abs(x), delta * math.sqrt(n)
        value = exact_tightness_norm(x, delta)
        knots = np.unique(np.concatenate(([0.0], a)))
        bounds = [_split_bound(a, cap, lam) for lam in knots]
        for lo, hi in zip(knots, knots[1:]):
            res = minimize_scalar(lambda lam: _split_bound(a, cap, lam), bounds=(lo, hi),
                                  method="bounded", options={"xatol": 1e-12})
            bounds.append(res.fun)
        best = min(bounds)
        assert best * (1 - 1e-12) <= value <= best * (1 + 1e-12)


def test_rudelson_instance_symmetry_and_units():
    inst = rudelson_example(2, 0.8, net_size=16, seed=1)
    # unit vectors stay unit under the approximate norm
    for i in range(2):
        assert inst.norm.norm(inst.vectors[i]) == pytest.approx(1.0)
    # approximation from inside the polar: never overestimates
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.standard_normal(2)
        assert inst.norm.norm(x) <= exact_tightness_norm(x, 0.8) + 1e-9
    assert 0.0 <= inst.norm_slack < 1.0


def test_rudelson_rademacher_mean_is_exact():
    # every sign vector has approximate norm exactly delta * n because the
    # scaled sign functionals certify it
    inst = rudelson_example(5, 0.6, net_size=8, seed=2)
    for signs in itertools.product((-1.0, 1.0), repeat=5):
        assert inst.norm.norm(np.array(signs)) == pytest.approx(0.6 * 5)


def test_rudelson_trade_off_bound():
    for n, delta in ((5, 0.6), (6, 0.5)):
        inst = rudelson_example(n, delta, net_size=32, seed=3)
        res = elton_subset(inst.norm, inst.vectors, samples=400, seed=7)
        st = res.s * res.t
        assert st <= delta + inst.norm_slack + 1e-6
        assert res.delta == pytest.approx(delta, abs=1e-12)


def _highs_orthant_minimum(points):
    # the orthant LPs of the inscribed radius of the hull of a symmetric
    # point set in primal form, solved by HiGHS: min z subject to
    # (points theta) u <= z, u in the simplex.  With points = +-(f_j(x_i))
    # it is the l1 constant.
    k = points.shape[1]
    best = math.inf
    for signs in itertools.product((-1.0, 1.0), repeat=k - 1):
        a = points * np.array((1.0,) + signs)
        res = linprog(
            np.r_[np.zeros(k), 1.0],
            A_ub=np.hstack([a, -np.ones((a.shape[0], 1))]),
            b_ub=np.zeros(a.shape[0]),
            A_eq=np.r_[np.ones(k), 0.0][None, :],
            b_eq=[1.0],
            bounds=[(0, None)] * k + [(None, None)],
            method="highs",
        )
        assert res.status == 0
        best = min(best, res.fun)
    return best


def _l1_points(norm, vectors):
    w = norm.functionals @ vectors.T
    return np.vstack([w, -w])


def test_ell1_constant_on_tall_rudelson_orthant_lps():
    # Pivot roundoff once left a basic point 1.7e-5 outside a row of one of
    # these 270 x 8 orthant LPs, and the solver's own check rejected it.
    # ell1_lower_constant solves V's orthant alone here, so every orthant
    # also runs on its own.
    inst = rudelson_example(7, 0.6, net_size=64, seed=0)
    sigma = CoordinateSubset(tuple(range(7)))
    points = _l1_points(inst.norm, inst.vectors)
    highs = _highs_orthant_minimum(points)
    assert ell1_lower_constant(inst.norm, inst.vectors, sigma) == pytest.approx(highs, abs=1e-7)
    (optima,) = geometry._orthant_optima(points, [tuple(sigma)])
    assert geometry._radius(optima) == pytest.approx(highs, abs=1e-7)


def test_ell1_constant_is_independent_of_functional_order():
    # Bland's ratio test once pivoted on entries of about 1.5e-9 in the
    # lexicographic order of the (7, 0.8) functionals, leaving a basic value
    # of -1.02 that the solver's own check rejected.
    sigma = CoordinateSubset(tuple(range(7)))
    for delta in (0.8, 0.6):
        inst = rudelson_example(7, delta, net_size=64, seed=0)
        f = inst.norm.functionals
        highs = _highs_orthant_minimum(_l1_points(inst.norm, inst.vectors))
        assert highs == pytest.approx(delta, abs=1e-7)
        orders = [np.arange(len(f)), np.lexsort(f.T[::-1])]
        orders += [np.random.default_rng(seed).permutation(len(f)) for seed in range(6)]
        for order in orders:
            norm = PolyhedralNorm(7, f[order])
            # V's orthant LP alone, then every orthant LP
            (optima,) = geometry._orthant_optima(_l1_points(norm, inst.vectors), [tuple(sigma)])
            for mine in (ell1_lower_constant(norm, inst.vectors, sigma), geometry._radius(optima)):
                assert mine == pytest.approx(delta, abs=1e-9)
                assert mine == pytest.approx(highs, abs=1e-7)


def _walk_radius_calls(monkeypatch, bodies):
    # every orthant-LP solve of the elton walk on random_norm_instances(1)
    # and (2) and on the given rudelson bodies, the probe's included: (the
    # points and supports of one call, their radii); the hook is removed on
    # return
    calls = []
    real = geometry._orthant_optima

    def recording(points, supports):
        optima = real(points, supports)
        calls.append((points, supports, list(map(geometry._radius, optima))))
        return optima

    cases = [(norm, vectors) for seed in (1, 2)
             for norm, vectors, _ in random_norm_instances(seed)]
    for n, delta in bodies:
        inst = rudelson_example(n, delta)
        cases.append((inst.norm, inst.vectors))
    with monkeypatch.context() as hook:
        hook.setattr(geometry, "_orthant_optima", recording)
        for norm, vectors in cases:
            elton_subset(norm, vectors, samples=200, seed=0)
    # the walk settles a rudelson body with V's orthant LP alone, so its
    # full support's orthant LPs are solved here
    for norm, vectors in cases[len(cases) - len(bodies):]:
        recording(_l1_points(norm, vectors), [tuple(range(len(vectors)))])
    assert len(calls) > len(cases)
    return calls


def test_dual_orthant_lps_match_the_primal_on_every_visited_support(monkeypatch):
    # the walk solves its orthant LPs in dual form, supports of several
    # sizes in one call; HiGHS on the primal form is the reference on every
    # support solved, the probe's full support included
    calls = _walk_radius_calls(monkeypatch, ((5, 0.6), (6, 0.6), (8, 0.5)))
    for points, supports, radii in calls:
        for sup, mine in zip(supports, radii):
            assert mine == pytest.approx(_highs_orthant_minimum(points[:, sup]), abs=1e-9)


def _orthant_optima_full_width(points):
    # each orthant LP of one point set over all its points as its own
    # LPProblem, solved by lp_solve on the points scaled as _orthant_optima
    # scales them, in the points' units
    peak = float(np.abs(points).max())
    scale = 2.0 ** round(math.log2(peak)) if peak > 0 else 1.0
    n_pts, k = points.shape
    c = np.r_[np.zeros(n_pts), -1.0]
    b_ub = np.r_[np.zeros(k), 1.0]
    optima = []
    for signs in itertools.product((-1.0, 1.0), repeat=k - 1):
        at = (points * (np.array((1.0,) + signs) / scale)).T
        a_ub = np.vstack([np.hstack([-at, np.ones((k, 1))]), np.r_[np.ones(n_pts), 0.0]])
        optima.append(-lp_solve(LPProblem(c, a_ub, b_ub)).objective * scale)
    return optima


def test_stacked_orthant_optima_equal_each_lp_solved_alone(monkeypatch):
    # every choice of the column-generation loop is made per LP, so an LP
    # in a stack gives the same float as a stack of one; both stay within
    # 1e-11 relative of the full-width solve
    calls = _walk_radius_calls(monkeypatch, ((5, 0.6), (7, 0.8)))
    # radius_table's one-run stack is among them: every size from 1 to n,
    # the full support first
    assert any(supports[0] == tuple(range(points.shape[1]))
               and {len(sup) for sup in supports} == set(range(1, points.shape[1] + 1))
               for points, supports, _ in calls)
    for points, supports, _ in calls:
        stacked = geometry._orthant_optima(points, supports)
        with monkeypatch.context() as alone:
            alone.setattr(geometry, "STACK_ENTRY_LIMIT", 1)
            for sup, optima in zip(supports, stacked):
                assert optima.tolist() == geometry._orthant_optima(points, [sup])[0].tolist()
                assert optima.tolist() == pytest.approx(_orthant_optima_full_width(points[:, sup]),
                                                        rel=1e-11, abs=0.0)


def test_stack_entry_cap_does_not_change_the_radii(monkeypatch):
    calls = _walk_radius_calls(monkeypatch, ((5, 0.6),))
    for limit in (1, 2_000):  # one LP per stack, then a few
        monkeypatch.setattr(geometry, "STACK_ENTRY_LIMIT", limit)
        for points, supports, radii in calls:
            assert list(map(geometry._radius, geometry._orthant_optima(points, supports))) == radii


def test_elton_on_rudelson_nine():
    inst = rudelson_example(9, 0.5)
    res = elton_subset(inst.norm, inst.vectors, samples=200, seed=0)
    assert tuple(res.sigma) == tuple(range(9))
    assert res.t == pytest.approx(0.5, abs=1e-9)


def test_elton_on_rudelson_ten():
    # 1,172 points on the full support: each orthant LP prices all of them
    inst = rudelson_example(10, 0.5)
    res = elton_subset(inst.norm, inst.vectors, samples=200, seed=0)
    assert tuple(res.sigma) == tuple(range(10))
    assert res.t == pytest.approx(0.5, abs=1e-9)


def test_rudelson_validation():
    with pytest.raises(ValueError):
        rudelson_example(20, 0.5)
    with pytest.raises(ValueError):
        rudelson_example(4, 0.1)  # below 1/sqrt(n)
    with pytest.raises(ValueError, match="net_size"):
        rudelson_example(3, 0.7, net_size=-3)


def test_random_norm_suite_pins():
    # random polyhedral norms with unit-ball vectors: s and t stay above
    # the pinned multiple of delta
    c_pin = DEFAULT_CONSTANTS.elton_c_pin
    tradeoff_pin = DEFAULT_CONSTANTS.elton_tradeoff_c_pin
    for norm, vectors, seed in random_norm_instances():
        res = elton_subset(norm, vectors, samples=1500, seed=seed)
        assert res.s >= c_pin * res.delta
        assert res.t >= c_pin * res.delta
        assert res.s * res.t * math.log(2.0 / res.t) ** 1.6 >= tradeoff_pin * res.delta


def test_elton_subset_on_vectors_too_short_for_any_grid_scale():
    # scaled by 1e-4, every l1 constant lies below half the finest grid scale
    norm, vectors, _ = random_norm_instances(1)[0]
    with pytest.raises(ValueError, match="no grid scale produced a nonempty cube projection"):
        elton_subset(norm, vectors * 1e-4, samples=100, seed=1)

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from combdim import CoordinateSubset, PolyhedralNorm, elton_subset
from combdim.constants import DEFAULT_CONSTANTS
from combdim.elton import dual_body, exact_tightness_norm, rudelson_example
from combdim.errors import BudgetError
from combdim.experiments import random_norm_instances
from combdim.geometry import convex_vc, ell1_lower_constant


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


def test_elton_cube_budget_below_n():
    # with n above the budget the full support is not probed, so the walk
    # decides; it stops at pairs here and never reaches the budget
    norm = PolyhedralNorm(2, [[1.0, 0.0], [0.0, 1.0]])
    vectors = np.array([[1.0, 0.0]] * 3)
    capped = elton_subset(norm, vectors, samples=500, seed=5, cube_budget=2)
    assert capped == elton_subset(norm, vectors, samples=500, seed=5)
    # here every support passes, so the walk reaches |sigma| = 4 > 3
    with pytest.raises(BudgetError):
        elton_subset(l1_norm(4), np.eye(4), samples=100, seed=1, cube_budget=3)


def test_sweep_and_certificate_match_the_hull_lp_walk():
    # elton_subset reads the sweep, the winning subset and its constant off
    # one walk over l1 constants; convex_vc's hull LPs on the dual body are
    # the reference for the first two, the orthant LPs for the third.  The
    # full support settles every scale on the tightness bodies, and several
    # seed-2 norms leave more than one scale to the walk.
    cases = [(norm, vectors) for seed in (1, 2)
             for norm, vectors, _ in random_norm_instances(seed)]
    for n, delta in ((5, 0.6), (6, 0.6)):
        inst = rudelson_example(n, delta)
        cases.append((inst.norm, inst.vectors))
    for norm, vectors in cases:
        res = elton_subset(norm, vectors, samples=200, seed=0)
        body = dual_body(norm, vectors)
        for t, d in res.sweep:
            assert d == convex_vc(body, t)[0]
        assert res.sigma == convex_vc(body, res.grid_t)[1]
        assert res.t == ell1_lower_constant(norm, vectors, res.sigma)


def test_elton_rejects_big_vectors():
    norm = PolyhedralNorm(2, [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="unit ball"):
        elton_subset(norm, np.array([[1.5, 0.0]]), samples=100, seed=1)


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


def _highs_orthant_minimum(norm, vectors, sigma):
    # the orthant LPs of ell1_lower_constant, solved by HiGHS
    w = norm.functionals @ vectors[list(sigma)].T
    k = w.shape[1]
    best = math.inf
    for signs in itertools.product((-1.0, 1.0), repeat=k - 1):
        a = w * np.array((1.0,) + signs)
        res = linprog(
            np.r_[np.zeros(k), 1.0],
            A_ub=np.hstack([np.vstack([a, -a]), -np.ones((2 * a.shape[0], 1))]),
            b_ub=np.zeros(2 * a.shape[0]),
            A_eq=np.r_[np.ones(k), 0.0][None, :],
            b_eq=[1.0],
            bounds=[(0, None)] * k + [(None, None)],
            method="highs",
        )
        assert res.status == 0
        best = min(best, res.fun)
    return best


def test_ell1_constant_on_tall_rudelson_orthant_lps():
    # Pivot roundoff once left a basic point 1.7e-5 outside a row of one of
    # these 270 x 8 orthant LPs, and the solver's own check rejected it.
    inst = rudelson_example(7, 0.6, net_size=64, seed=0)
    sigma = CoordinateSubset(tuple(range(7)))
    mine = ell1_lower_constant(inst.norm, inst.vectors, sigma)
    assert mine == pytest.approx(_highs_orthant_minimum(inst.norm, inst.vectors, sigma), abs=1e-7)


def test_ell1_constant_is_independent_of_functional_order():
    # Bland's ratio test once pivoted on entries of about 1.5e-9 in the
    # lexicographic order of the (7, 0.8) functionals, leaving a basic value
    # of -1.02 that the solver's own check rejected.
    sigma = CoordinateSubset(tuple(range(7)))
    for delta in (0.8, 0.6):
        inst = rudelson_example(7, delta, net_size=64, seed=0)
        f = inst.norm.functionals
        highs = _highs_orthant_minimum(inst.norm, inst.vectors, sigma)
        assert highs == pytest.approx(delta, abs=1e-7)
        orders = [np.arange(len(f)), np.lexsort(f.T[::-1])]
        orders += [np.random.default_rng(seed).permutation(len(f)) for seed in range(6)]
        for order in orders:
            norm = PolyhedralNorm(7, f[order])
            mine = ell1_lower_constant(norm, inst.vectors, sigma)
            assert mine == pytest.approx(delta, abs=1e-9)
            assert mine == pytest.approx(highs, abs=1e-7)


def test_rudelson_validation():
    with pytest.raises(ValueError):
        rudelson_example(20, 0.5)
    with pytest.raises(ValueError):
        rudelson_example(4, 0.1)  # below 1/sqrt(n)


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

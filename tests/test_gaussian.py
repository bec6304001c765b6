import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad

from combdim import (
    BudgetError,
    FunctionFamily,
    ProbabilityMeasure,
    entropy_integral,
    gaussian_sup_mc,
    gen_random_family,
    sudakov_ratio,
    vc_integral,
    weight_h,
)
from combdim.constants import DEFAULT_CONSTANTS
from combdim.experiments import run_dudley_experiment
from combdim.gaussian import WEIGHT_NORMALIZER

HALF_NORMAL_MEAN = math.sqrt(2.0 / math.pi)


def test_sup_two_opposite_points():
    pts = np.zeros((2, 3))
    pts[0, 0], pts[1, 0] = 1.0, -1.0
    est = gaussian_sup_mc(pts, 100000, seed=42)
    assert abs(est.mean - HALF_NORMAL_MEAN) <= 3 * est.stderr
    assert est.samples == 100000 and est.process_kind == "gaussian"


def test_sup_sign_cube_decouples():
    for n in (2, 5):
        cube = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
        est = gaussian_sup_mc(cube, 100000, seed=n)
        assert abs(est.mean - n * HALF_NORMAL_MEAN) <= 3 * est.stderr


def test_sup_rademacher_cube_exact():
    cube = np.array(list(itertools.product((-1.0, 1.0), repeat=4)))
    est = gaussian_sup_mc(cube, 500, seed=9, kind="rademacher")
    assert est.mean == 4.0 and est.stderr == 0.0


def _rademacher_per_draw(pts, samples, seed):
    """The Rademacher estimate with one product row per draw: the seeded
    uniforms in blocks of (1 << 22) // (n + m) draws, the sign -1 below 1/2,
    then every draw's supremum over the points."""
    m, n = pts.shape
    u = np.random.default_rng(seed).random((samples, n))
    block = max(1, min(samples, (1 << 22) // (n + m)))
    sups = np.concatenate([
        (np.where(u[i : i + block] < 0.5, -1.0, 1.0) @ pts.T).max(axis=1)
        for i in range(0, samples, block)])
    return sups.mean(), sups.std(ddof=1) / math.sqrt(samples)


@pytest.mark.parametrize("n", [1, 5, 12, 64, 65, 200])
def test_rademacher_sups_per_sign_vector_equal_the_per_draw_product(n):
    rng = np.random.default_rng([n, 11])
    for m, samples in ((3, 4000), (40, 4000), (2500, 3000)):  # 2500 points: two blocks
        pts = rng.uniform(-1.0, 1.0, (m, n)) + rng.uniform(0.0, 1.0, n)  # not symmetric
        pts = np.vstack([pts, pts[: min(m, 2)]])  # repeated points
        est = gaussian_sup_mc(pts, samples, seed=[n, m], kind="rademacher")
        assert (est.mean, est.stderr) == _rademacher_per_draw(pts, samples, [n, m]), (n, m)


def test_sup_of_empty_and_coordinate_free_point_sets():
    for kind in ("gaussian", "rademacher"):
        with pytest.raises(ValueError, match="need at least one point"):
            gaussian_sup_mc(np.zeros((0, 3)), 100, seed=1, kind=kind)
        for pts in ([], np.zeros((3, 0))):
            est = gaussian_sup_mc(pts, 100, seed=1, kind=kind)
            assert (est.mean, est.stderr) == (0.0, 0.0)


def test_sup_single_point_centered():
    a = np.array([[0.6, -0.8]])
    est = gaussian_sup_mc(a, 40000, seed=4)
    assert abs(est.mean) <= 4 * est.stderr
    assert est.stderr == pytest.approx(1.0 / math.sqrt(40000), rel=0.1)  # ||a|| = 1


def test_sup_determinism_and_validation():
    pts = np.eye(3)
    a = gaussian_sup_mc(pts, 1000, seed=5)
    b = gaussian_sup_mc(pts, 1000, seed=5)
    assert a == b
    with pytest.raises(ValueError):
        gaussian_sup_mc(pts, 1, seed=5)
    with pytest.raises(ValueError):
        gaussian_sup_mc(pts, 100, seed=5, kind="cauchy")


def test_entropy_integral_examples():
    assert entropy_integral([(1.0, 4.0)], 0.0, 1.0) == pytest.approx(2.0)
    assert entropy_integral([(1.0, 0.0)], 0.0, 1.0) == 0.0
    two_step = [(0.5, math.log(4.0)), (1.0, 0.0)]
    assert entropy_integral(two_step, 0.0, 1.0) == pytest.approx(0.5 * math.sqrt(math.log(4.0)))


def test_entropy_integral_validation():
    with pytest.raises(ValueError):
        entropy_integral([(1.0, 1.0), (0.5, 2.0)], 0.0, 1.0)  # unordered
    with pytest.raises(ValueError):
        entropy_integral([(0.5, 1.0), (1.0, 2.0)], 0.0, 1.0)  # increasing values
    with pytest.raises(ValueError):
        entropy_integral([(1.0, 1.0)], 0.8, 0.2)  # lower > upper
    assert entropy_integral([(1.0, 1.0)], 0.5, 0.5) == 0.0


def test_vc_integral_constant_curve_against_quadrature():
    oracle, err = quad(lambda t: math.sqrt(math.log(2.0 / t)), 0.0, 1.0)
    assert err < 1e-8
    # frozen from the oracle (see also the closed incomplete-gamma form)
    assert oracle == pytest.approx(1.2562276076, abs=1e-8)
    for d in (1, 4, 9):
        assert vc_integral([(1.0, d)], 0.0, 1.0) == pytest.approx(math.sqrt(d) * oracle, abs=1e-9)


def test_vc_integral_piecewise_against_quadrature():
    curve = [(0.25, 7), (0.5, 3), (1.0, 1)]

    def step(t):
        for scale, d in curve:
            if t <= scale:
                return d
        return curve[-1][1]

    oracle = quad(lambda t: math.sqrt(step(t) * math.log(2.0 / t)), 0.05, 1.0,
                  points=[0.25, 0.5], limit=200)[0]
    assert vc_integral(curve, 0.05, 1.0) == pytest.approx(oracle, abs=1e-7)


def test_vc_integral_edge_cases():
    assert vc_integral([(1.0, 0)], 0.0, 1.0) == 0.0
    assert vc_integral([(1.0, 3)], 0.7, 0.7) == 0.0


def test_weight_h_normalization_and_positivity():
    # u = ln(2/t) substitution: h integrates to c0 * int u^{-1.1} du
    val, err = quad(lambda u: WEIGHT_NORMALIZER * u**-1.1, math.log(2.0), math.inf)
    assert err < 1e-6
    assert val == pytest.approx(1.0, abs=1e-6)
    for t in (1e-9, 0.01, 0.5, 0.999):
        assert weight_h(t) > 0.0
    with pytest.raises(ValueError):
        weight_h(0.0)
    with pytest.raises(ValueError):
        weight_h(1.0)


def test_sudakov_ratio_examples():
    singleton = FunctionFamily([[0.3]])
    est = gaussian_sup_mc(singleton.values, 1000, seed=1)
    assert sudakov_ratio(singleton, ProbabilityMeasure.uniform(1), [0.1, 0.2], est) == 0.0

    pair = FunctionFamily([[1.0], [-1.0]])
    measure = ProbabilityMeasure.uniform(1)
    est = gaussian_sup_mc(pair.values, 200000, seed=2)
    grid = [0.5, 1.0, 1.5, 1.9]
    ratio = sudakov_ratio(pair, measure, grid, est)
    expected = 1.9 * math.sqrt(math.log(2.0)) / HALF_NORMAL_MEAN
    assert ratio == pytest.approx(expected, rel=0.02)

    # relabeling coordinates leaves the ratio unchanged
    fam = gen_random_family(6, 3, "uniform-real", 8)
    m3 = ProbabilityMeasure.uniform(3)
    est = gaussian_sup_mc(fam.values, 20000, seed=3)
    swapped = FunctionFamily(fam.values[:, [2, 0, 1]])
    assert sudakov_ratio(fam, m3, [0.3, 0.6], est) == pytest.approx(
        sudakov_ratio(swapped, m3, [0.3, 0.6], est)
    )


def test_sudakov_ratio_refuses_an_inexact_packing():
    fam = gen_random_family(31, 2, "uniform-real", 5)  # past PACKING_EXACT_LIMIT
    est = gaussian_sup_mc(fam.values, 1000, seed=1)
    with pytest.raises(BudgetError, match="exact packing refused for m=31 > limit 30"):
        sudakov_ratio(fam, ProbabilityMeasure.uniform(2), [0.5], est)


def test_dudley_and_vc_chain_pinned():
    # E-hat <= K * entropy integral and E-hat / sqrt(n) <= K * vc integral,
    # with K below the development-time pins on the fixed-seed suite.
    for seed in range(8):
        report = run_dudley_experiment(seed, samples=4000)
        assert report["dudley_integral"] > 0
        assert report["dudley_k"] <= DEFAULT_CONSTANTS.dudley_k_pin
        assert report["vc_integral"] > 0
        assert report["vc_chain_k"] <= DEFAULT_CONSTANTS.vc_chain_k_pin

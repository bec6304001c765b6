import itertools
import math

import numpy as np
import pytest

from combdim import (
    FunctionFamily,
    ProbabilityMeasure,
    covering_number,
    gen_random_family,
    is_separated,
    lp_distance,
    packing_number,
    pairwise_distances,
)
from combdim import entropy
from combdim.extraction import _min_subset_distance
from combdim.family import row_masks

UNIFORM2 = ProbabilityMeasure.uniform(2)
SIGN_CUBE = FunctionFamily([[1, 1], [1, -1], [-1, 1], [-1, -1]])


def brute_force_packing(family, measure, t):
    """Largest subset with all pairwise distances > t, by subset scan."""
    m = family.size
    dist = pairwise_distances(family, measure)
    best = 0
    for mask in range(1, 1 << m):
        rows = [i for i in range(m) if mask >> i & 1]
        if all(dist[i, j] > t for i, j in itertools.combinations(rows, 2)):
            best = max(best, len(rows))
    return best


def brute_force_covering(family, measure, t):
    """Smallest internal ball cover, by subset scan."""
    m = family.size
    dist = pairwise_distances(family, measure)
    for size in range(1, m + 1):
        for centers in itertools.combinations(range(m), size):
            if all(any(dist[c, j] <= t for c in centers) for j in range(m)):
                return size
    return m


def test_lp_distance_examples():
    assert lp_distance([1, 1], [-1, -1], UNIFORM2, 2) == pytest.approx(2.0)
    assert lp_distance([0.3, -0.2], [0.3, -0.2], UNIFORM2, 2) == 0.0
    assert lp_distance([1, 0], [0, 0], ProbabilityMeasure([0.25, 0.75]), 2) == pytest.approx(0.5)


def test_lp_distance_infinity_and_weights():
    measure = ProbabilityMeasure([0.0, 1.0])
    # zero-weight coordinates are invisible to the sup norm
    assert lp_distance([5 / 5, 0], [-1, 0], measure, math.inf) == 0.0
    assert lp_distance([0, 1], [0, -1], measure, math.inf) == 2.0


def test_lp_distance_length_mismatch():
    with pytest.raises(ValueError):
        lp_distance([1, 2], [1], UNIFORM2, 2)


def test_nan_p_is_rejected():
    with pytest.raises(ValueError, match="p must be >= 1"):
        lp_distance([1, 1], [-1, -1], UNIFORM2, math.nan)
    # a one-row family has no pair, so only the up-front check sees p
    with pytest.raises(ValueError, match="p must be >= 1"):
        packing_number(FunctionFamily([[1.0, -1.0]]), UNIFORM2, 0.5, p=math.nan)


def test_is_separated_examples():
    assert is_separated(FunctionFamily([[1, 1], [-1, -1]]), UNIFORM2, 1.9)
    dup = FunctionFamily([[0.5, 0.5], [0.5, 0.5]])
    assert not is_separated(dup, UNIFORM2, 0.1)
    # distances 1, sqrt(2), 1: ties at t = 1 are not strict
    trio = FunctionFamily([[1, 0], [0, 1], [-1, 0]])
    assert not is_separated(trio, UNIFORM2, 1.0)
    assert is_separated(trio, UNIFORM2, 0.99)


def test_close_pair_distance_is_exact():
    # Two rows of 0.9 with one entry shifted by 8e-7: the true distance is
    # 2.8284e-7, and the plain Gram formula gave 2.8312e-7, so t = 2.83e-7
    # read as separated.
    a = np.full(8, 0.9)
    b = a.copy()
    b[3] += 8e-7
    pair = FunctionFamily([a, b])
    mu = ProbabilityMeasure.uniform(8)
    direct = math.sqrt(float(np.mean((a - b) ** 2)))
    assert pairwise_distances(pair, mu)[0, 1] == pytest.approx(direct, rel=1e-12)
    assert not is_separated(pair, mu, 2.83e-7)
    assert packing_number(pair, mu, 2.83e-7) == (1, "exact")
    assert _min_subset_distance(pair.values) == pytest.approx(direct, rel=1e-12)


def test_distance_matrix_is_exactly_symmetric():
    rng = np.random.default_rng(5)
    for trial in range(300):
        m, n = int(rng.integers(2, 12)), int(rng.integers(1, 8))
        family = gen_random_family(m, n, "uniform-real", int(rng.integers(1 << 30)))
        measure = ProbabilityMeasure(rng.dirichlet(np.ones(n)))
        dist = pairwise_distances(family, measure)
        assert np.array_equal(dist, dist.T), trial


def test_packing_and_covering_read_one_distance_at_a_tie():
    # At t = min(d_ij, d_ji) an asymmetric matrix gave packing 7 but
    # covering 6, which fits neither reading of d_ij.
    family = gen_random_family(7, 3, "uniform-real", 8)
    mu = ProbabilityMeasure.uniform(3)
    t = 0.23526014253510166
    assert packing_number(family, mu, t) == (7, "exact")
    assert covering_number(family, mu, t) == (7, "exact")


def test_packing_examples():
    consts = FunctionFamily([[0, 0], [1, 1]])
    assert packing_number(consts, UNIFORM2, 0.5) == (2, "exact")
    assert packing_number(consts, UNIFORM2, 5.0) == (1, "exact")
    # sign cube at t = 1.2: all pairwise distances sqrt(2) or 2 exceed 1.2
    count, flag = packing_number(SIGN_CUBE, UNIFORM2, 1.2)
    assert (count, flag) == (4, "exact")
    assert brute_force_packing(SIGN_CUBE, UNIFORM2, 1.2) == 4


def test_covering_examples():
    consts = FunctionFamily([[0, 0], [1, 1]])
    assert covering_number(consts, UNIFORM2, 5.0) == (1, "exact")
    assert covering_number(consts, UNIFORM2, 0.4) == (2, "exact")
    count, flag = covering_number(SIGN_CUBE, UNIFORM2, 1.5)
    assert (count, flag) == (2, "exact")
    assert brute_force_covering(SIGN_CUBE, UNIFORM2, 1.5) == 2


def test_exact_matches_brute_force_randomized():
    rng = np.random.default_rng(3)
    for trial in range(30):
        m, n = int(rng.integers(2, 9)), int(rng.integers(1, 5))
        family = gen_random_family(m, n, "uniform-real", int(rng.integers(1 << 30)))
        measure = ProbabilityMeasure.uniform(n)
        t = float(rng.uniform(0.1, 1.5))
        assert packing_number(family, measure, t)[0] == brute_force_packing(family, measure, t)
        assert covering_number(family, measure, t)[0] == brute_force_covering(family, measure, t)


def test_sandwich_and_monotone_randomized():
    rng = np.random.default_rng(17)
    for trial in range(25):
        m, n = int(rng.integers(2, 12)), int(rng.integers(1, 6))
        family = gen_random_family(m, n, "uniform-real", int(rng.integers(1 << 30)))
        measure = ProbabilityMeasure.uniform(n)
        scales = sorted(rng.uniform(0.05, 1.8, size=3))
        counts = []
        for t in scales:
            pack, _ = packing_number(family, measure, t)
            cover, _ = covering_number(family, measure, t)
            cover_half, _ = covering_number(family, measure, t / 2)
            assert cover <= pack <= cover_half
            counts.append((pack, cover))
        for (p0, c0), (p1, c1) in zip(counts, counts[1:]):
            assert p0 >= p1 and c0 >= c1  # non-increasing in t


def test_greedy_brackets_exact(monkeypatch):
    rng = np.random.default_rng(23)
    cases = []
    for trial in range(20):
        m, n = int(rng.integers(3, 14)), int(rng.integers(1, 5))
        family = gen_random_family(m, n, "uniform-real", int(rng.integers(1 << 30)))
        measure = ProbabilityMeasure.uniform(n)
        t = float(rng.uniform(0.1, 1.2))
        exact = packing_number(family, measure, t), covering_number(family, measure, t)
        cases.append((family, measure, t, exact))
    # with both limits at 0 every family is past them, so the counts are greedy
    monkeypatch.setattr(entropy, "PACKING_EXACT_LIMIT", 0)
    monkeypatch.setattr(entropy, "COVERING_EXACT_LIMIT", 0)
    for family, measure, t, ((ep, ep_flag), (ec, ec_flag)) in cases:
        gp, gp_flag = packing_number(family, measure, t)
        gc, gc_flag = covering_number(family, measure, t)
        assert ep_flag == ec_flag == "exact"
        assert gp_flag == "lower-bound" and gc_flag == "upper-bound"
        assert gp <= ep and ec <= gc


def test_past_the_exact_limits_the_counts_are_greedy():
    m = entropy.PACKING_EXACT_LIMIT + 1  # past both limits
    family = gen_random_family(m, 2, "uniform-real", 5)
    measure = ProbabilityMeasure.uniform(2)
    dist = pairwise_distances(family, measure)
    for t in (0.1, 0.3, 0.5, 0.9):
        greedy_cover = entropy._greedy_cover(row_masks(dist <= t), (1 << m) - 1)
        assert packing_number(family, measure, t) == (entropy._greedy_packing(dist, t),
                                                      "lower-bound")
        assert covering_number(family, measure, t) == (len(greedy_cover), "upper-bound")


def test_lp_distance_general_p_properties():
    rng = np.random.default_rng(41)
    for trial in range(25):
        n = int(rng.integers(1, 6))
        w = rng.random(n) + 0.05
        measure = ProbabilityMeasure(w / w.sum())
        f, g, h = rng.uniform(-1, 1, (3, n))
        for p in (1.0, 1.5, 2.0, 3.0, math.inf):
            dfg = lp_distance(f, g, measure, p)
            dfh = lp_distance(f, h, measure, p)
            dhg = lp_distance(h, g, measure, p)
            assert dfg <= dfh + dhg + 1e-12  # triangle inequality
        # Lp(mu) norms are non-decreasing in p on a probability space
        dists = [lp_distance(f, g, measure, p) for p in (1.0, 1.5, 2.0, 3.0, math.inf)]
        assert all(a <= b + 1e-12 for a, b in zip(dists, dists[1:]))


def test_sandwich_nonuniform_measure_and_general_p():
    rng = np.random.default_rng(43)
    for trial in range(15):
        m, n = int(rng.integers(2, 10)), int(rng.integers(1, 5))
        family = gen_random_family(m, n, "uniform-real", int(rng.integers(1 << 30)))
        w = rng.random(n) + 0.05
        measure = ProbabilityMeasure(w / w.sum())
        for p in (1.0, 2.0, math.inf):
            t = float(rng.uniform(0.1, 1.2))
            pack, _ = packing_number(family, measure, t, p)
            cover, _ = covering_number(family, measure, t, p)
            cover_half, _ = covering_number(family, measure, t / 2, p)
            assert cover <= pack <= cover_half
            assert pack == brute_force_packing_p(family, measure, t, p)


def brute_force_packing_p(family, measure, t, p):
    m = family.size
    best = 0
    for mask in range(1, 1 << m):
        rows = [i for i in range(m) if mask >> i & 1]
        if all(
            lp_distance(family.values[i], family.values[j], measure, p) > t
            for i, j in itertools.combinations(rows, 2)
        ):
            best = max(best, len(rows))
    return best


def test_scale_equivariance():
    rng = np.random.default_rng(29)
    family = gen_random_family(8, 3, "uniform-real", 77)
    measure = ProbabilityMeasure.uniform(3)
    lam = 0.5
    scaled = FunctionFamily(family.values * lam)
    for t in (0.2, 0.5, 0.9):
        assert packing_number(family, measure, t)[0] == packing_number(scaled, measure, t * lam)[0]
        assert covering_number(family, measure, t)[0] == covering_number(scaled, measure, t * lam)[0]


def test_exact_size_limit(monkeypatch):
    family = gen_random_family(31, 2, "uniform-real", 5)
    measure = ProbabilityMeasure.uniform(2)
    assert packing_number(family, measure, 0.5)[1] == "lower-bound"
    monkeypatch.setattr(entropy, "PACKING_EXACT_LIMIT", 31)
    count, flag = packing_number(family, measure, 0.5)
    assert flag == "exact" and count >= 1


def test_sign_cube_counts_are_exact():
    assert packing_number(SIGN_CUBE, UNIFORM2, 1.2) == (4, "exact")
    count, flag = covering_number(SIGN_CUBE, UNIFORM2, 1.2)
    assert count >= 1 and flag == "exact"

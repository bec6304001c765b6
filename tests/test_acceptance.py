"""Acceptance suite: one test per criterion, each printing a PASS line
with its runtime.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.stats import binom

from combdim import (
    FunctionFamily,
    ProbabilityMeasure,
    PolyhedralNorm,
    acceptance_curve,
    build_separating_tree,
    covering_number,
    discretize,
    enumerate_shattered_centers,
    extract_coordinates,
    gaussian_sup_mc,
    gen_random_family,
    is_separated,
    packing_number,
    validate_tree,
)
from combdim.cli import main as cli_main
from combdim.constants import DEFAULT_CONSTANTS
from combdim.elton import elton_subset, rudelson_example
from combdim.experiments import (
    ExperimentConfig,
    gen_separated_family,
    mid_gap_scales,
    random_norm_instances,
    run_main_theorem_experiment,
)
from combdim.extraction import verify_outcome
from combdim.septree import Distribution, small_dev_split, variance
from combdim.shattering import vc_integer, vc_real


class _Timer:
    def __init__(self, name, limit):
        self.name, self.limit = name, limit

    def __enter__(self):
        self.start = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\nACCEPTANCE {self.name}: {status} ({elapsed:.1f} s, limit {self.limit} s)")
        if exc_type is None:
            assert elapsed < self.limit, f"{self.name} exceeded its {self.limit} s budget"


def _random_distribution(rng):
    k = int(rng.integers(2, 9))
    values = np.sort(rng.uniform(-3, 3, size=k))
    weights = rng.integers(1, 1000, size=k)
    return Distribution(tuple(zip(values.tolist(), weights.tolist())))


def test_c01_sandwich():
    # exact covering(t) <= packing(t) <= covering(t/2), 200 families x 5 scales
    with _Timer("1 sandwich", 60):
        checked = 0
        for i in range(200):
            rng = np.random.default_rng([2026, 1, i])
            m = int(rng.integers(2, 21))
            n = int(rng.integers(1, 9))
            kind = ("uniform-real", "convex-hull-sections", "sign-vectors")[i % 3]
            family = gen_random_family(m, n, kind, [2026, 1, i, 1])
            measure = ProbabilityMeasure.uniform(n)
            for t in mid_gap_scales(family, measure, 5):
                pack, pf = packing_number(family, measure, t)
                cover, cf = covering_number(family, measure, t)
                cover_half, _ = covering_number(family, measure, t / 2)
                assert pf == "exact" and cf == "exact"
                assert cover <= pack <= cover_half, (i, t, cover, pack, cover_half)
                checked += 1
        assert checked >= 800


def test_c02_variance_identity():
    with _Timer("2 variance identity", 5):
        rng = np.random.default_rng([2026, 2])
        for _ in range(1000):
            dist = _random_distribution(rng)
            var, pair = variance(dist)
            assert abs(pair - 2.0 * var) <= 1e-12
        # 2 * inf_a E|X - a|^2 agrees at the mean (golden-section scan)
        phi = (math.sqrt(5) - 1) / 2
        for _ in range(50):
            dist = _random_distribution(rng)
            var, pair = variance(dist)

            def mean_sq(a, atoms=dist.atoms, total=dist.total):
                return sum(w / total * (v - a) ** 2 for v, w in atoms)

            a, b = min(v for v, _ in dist.atoms), max(v for v, _ in dist.atoms)
            c, d = b - phi * (b - a), a + phi * (b - a)
            for _ in range(120):
                if mean_sq(c) < mean_sq(d):
                    b, d = d, c
                    c = b - phi * (b - a)
                else:
                    a, c = c, d
                    d = a + phi * (b - a)
            assert abs(2.0 * mean_sq((a + b) / 2) - pair) <= 1e-9


def test_c03_split_certificates():
    # a valid certificate must be found for every nonzero-variance input
    with _Timer("3 split certificates", 10):
        rng = np.random.default_rng([2026, 3])
        for _ in range(1000):
            dist = _random_distribution(rng)
            cert = small_dev_split(dist)
            assert cert.is_valid_for(dist)
            assert 0.0 < cert.beta <= 0.5
            var, _ = variance(dist)
            assert cert.gap_halfwidth == pytest.approx(math.sqrt(var) / 6.0)


def test_c04_separating_tree_guarantee():
    with _Timer("4 separating tree", 120):
        for i in range(500):
            rng = np.random.default_rng([2026, 4, i])
            n = int(rng.integers(3, 11))
            t = float(rng.uniform(0.8, 1.2))
            m_target = int(rng.integers(4, 15))
            family = gen_separated_family(n, t, [2026, 4, i, 1], m_target, kind="noisy-signs")
            measure = ProbabilityMeasure.uniform(n)
            tree = build_separating_tree(family, measure, t)
            assert tree.leaf_count() ** 2 >= family.size, i
            assert validate_tree(tree, family, t / 6.0), i


def test_c05_counting_bound():
    # exhaustive shattered-center count >= tree leaves >= sqrt(m) on
    # 6-separated integer families (range_max <= 12: strict 6-separation
    # is impossible at range 6, where the max distance equals the range)
    with _Timer("5 counting bound", 300):
        done = 0
        i = 0
        while done < 100:
            rng = np.random.default_rng([2026, 5, i])
            n = int(rng.integers(3, 7))
            grid_max = int(rng.integers(9, 13))
            m_cap = int(rng.integers(4, 11))
            i += 1
            rng2 = np.random.default_rng([2026, 5, i, 1])
            pool = np.vstack([
                (rng2.integers(0, 2, size=(150, n)) * grid_max).astype(float),
                rng2.integers(0, grid_max + 1, size=(150, n)).astype(float),
            ])
            w = np.full(n, 1.0 / n)
            rows = []
            for cand in pool:
                if len(rows) >= m_cap:
                    break
                if all(math.sqrt(float(np.dot(w, (cand - r) ** 2))) > 6.0 for r in rows):
                    rows.append(cand)
            if len(rows) < 2:
                continue
            family = FunctionFamily(np.array(rows), "integer", grid_max)
            measure = ProbabilityMeasure.uniform(n)
            assert is_separated(family, measure, 6.0)
            tree = build_separating_tree(family, measure, 6.0)
            assert validate_tree(tree, family, 1.0 - 1e-12)
            centers = enumerate_shattered_centers(family, n)
            assert len(centers) >= tree.leaf_count(), i
            assert len(centers) >= math.sqrt(family.size), i
            assert family.size <= 16
            done += 1


def test_c06_discretization_chain():
    with _Timer("6 discretization chain", 120):
        for i in range(200):
            rng = np.random.default_rng([2026, 6, i])
            n = int(rng.integers(2, 6))
            t = float(rng.uniform(0.8, 1.0))
            family = gen_separated_family(n, t, [2026, 6, i, 1], 8, kind="uniform-real")
            measure = ProbabilityMeasure.uniform(n)
            tilde = discretize(family, t)
            assert is_separated(tilde, measure, 6.0), i
            assert vc_integer(tilde) <= vc_real(family, t / 7.0), i


def test_c07_extraction():
    with _Timer("7 extraction", 60):
        pair = FunctionFamily([[1.0] * 20, [-1.0] * 20])
        n, k = 20, 5
        prob = acceptance_curve(pair, 1.9, [k])[0]
        p = k / (2 * n)
        exact = float(binom.cdf(k, n, p) - binom.pmf(0, n, p))
        assert abs(prob - exact) <= 1e-12, (prob, exact)
        # accepted subsets always re-verify the half-scale separation
        for i in range(40):
            rng = np.random.default_rng([2026, 7, i])
            n_i = int(rng.integers(8, 16))
            t = float(rng.uniform(0.8, 1.1))
            family = gen_separated_family(n_i, t, [2026, 7, i, 1], 6, kind="noisy-signs")
            outcome = extract_coordinates(family, t, max(2, n_i // 2), [2026, 7, i, 2])
            assert verify_outcome(family, t, outcome), i
            assert outcome.achieved_separation > t / 2.0


def test_c08_main_theorem_constant():
    with _Timer("8 main-theorem constant", 300):
        report = run_main_theorem_experiment(ExperimentConfig())
        assert report["k_emp_count"] >= 200
        rows = [
            row
            for inst in report["instances"]
            for row in inst["scales"]
            if not row["skipped"] and row["vc_t_over_7"] >= 1
        ]
        for row in rows:
            assert math.isfinite(row["k_emp"])
        assert report["k_emp_max"] <= DEFAULT_CONSTANTS.main_theorem_k_pin, report["k_emp_max"]


def test_c09_gaussian_closed_forms():
    with _Timer("9 gaussian closed forms", 60):
        target = math.sqrt(2.0 / math.pi)
        for n in (2, 5, 10):
            cube = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
            est = gaussian_sup_mc(cube, 100000, seed=[2026, 9, n])
            assert abs(est.mean - n * target) <= 3 * est.stderr, (n, est)
            rad = gaussian_sup_mc(cube, 2000, seed=[2026, 9, n, 1], kind="rademacher")
            assert rad.mean == float(n) and rad.stderr == 0.0


def test_c10_elton_pipeline():
    with _Timer("10 elton pipeline", 600):
        # (a) l1 basis: full subset, certified constant 1
        n = 4
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
        res = elton_subset(PolyhedralNorm(n, signs), np.eye(n), samples=500, seed=[2026, 10])
        assert tuple(res.sigma) == tuple(range(n))
        assert abs(res.t - 1.0) <= 1e-9

        # (b) identical vectors collapse to a single coordinate
        sup2 = PolyhedralNorm(2, [[1.0, 0.0], [0.0, 1.0]])
        res = elton_subset(sup2, np.array([[1.0, 0.0]] * 3), samples=500, seed=[2026, 10, 1])
        assert len(res.sigma) == 1

        # (c) tightness instances across the delta grid: s * t <= delta + slack.
        # delta = 0.3 sits below 1/sqrt(n) for every n <= 10, where the tight
        # instance is the constant-vectors one; 0.5 and 0.8 use the
        # l1-ball/Euclidean-ball hull body.
        for n_c, delta in ((8, 0.5), (6, 0.8)):
            inst = rudelson_example(n_c, delta, net_size=48, seed=[2026, 10, 2])
            res = elton_subset(inst.norm, inst.vectors, samples=600, seed=[2026, 10, 3])
            st = res.s * res.t
            assert st <= delta + inst.norm_slack + 1e-6, (n_c, delta, st)
        delta, n_c = 0.3, 10
        line = PolyhedralNorm(1, [[1.0]])
        const_vectors = np.full((n_c, 1), delta * math.sqrt(n_c))
        res = elton_subset(line, const_vectors, samples=2000, seed=[2026, 10, 4])
        assert res.s * res.t <= delta + 1e-6

        # (d) random polyhedral-norm suite stays above the pinned constants
        for norm, vectors, seed in random_norm_instances():
            res = elton_subset(norm, vectors, samples=1500, seed=seed)
            assert res.s >= DEFAULT_CONSTANTS.elton_c_pin * res.delta
            assert res.t >= DEFAULT_CONSTANTS.elton_c_pin * res.delta


def test_c11_pipeline_trace():
    with _Timer("11 pipeline trace", 300):
        assert cli_main(["pipeline", "--instances", "20", "--seed", "0"]) == 0

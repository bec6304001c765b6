import json
import math

import numpy as np
import pytest

from combdim import (
    FamilyError,
    FunctionFamily,
    ProbabilityMeasure,
    RationalizationError,
    discretize,
    gen_random_family,
    load_family,
    lp_distance,
    save_family,
    uniformize,
)
from combdim.shattering import vc_real


def test_load_family_literal(tmp_path):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({
        "domain_size": 2,
        "value_kind": "real",
        "values": [["0.5", "-1.0"]],
        "measure": ["0.5", "0.5"],
    }))
    family, measure = load_family(path)
    assert family.size == 1 and family.domain_size == 2
    assert np.array_equal(family.values, [[0.5, -1.0]])
    assert np.array_equal(measure.weights, [0.5, 0.5])


def test_load_rejects_out_of_range(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "domain_size": 1,
        "value_kind": "real",
        "values": [["1.5"]],
    }))
    with pytest.raises(FamilyError, match="row 0, column 0"):
        load_family(path)


def test_load_rejects_bad_weights(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "domain_size": 2,
        "value_kind": "real",
        "values": [["0.0", "0.0"]],
        "measure": ["0.5", "0.6"],
    }))
    with pytest.raises(FamilyError, match="sum"):
        load_family(path)


def test_save_load_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    family = FunctionFamily(rng.uniform(-1, 1, size=(4, 3)))
    w = rng.random(3)
    measure = ProbabilityMeasure(w / w.sum())
    path = tmp_path / "fam.json"
    save_family(path, family, measure)
    loaded_family, loaded_measure = load_family(path)
    assert np.array_equal(loaded_family.values, family.values)
    assert np.array_equal(loaded_measure.weights, measure.weights)
    # A second save of the loaded pair is byte-identical.
    path2 = tmp_path / "fam2.json"
    save_family(path2, loaded_family, loaded_measure)
    assert path.read_text() == path2.read_text()


def test_measure_rejects_non_finite_weights():
    for bad in (np.nan, np.inf):
        with pytest.raises(FamilyError, match="non-finite weight at coordinate 0"):
            ProbabilityMeasure(np.array([bad, 1.0]))


def test_measure_takes_no_is_uniform_argument():
    # a measure is its weights alone; a second argument is refused
    with pytest.raises(TypeError):
        ProbabilityMeasure(np.array([0.25, 0.75]), True)


def test_integer_family_invariants():
    FunctionFamily([[0, 3], [2, 1]], "integer", 3)
    with pytest.raises(FamilyError, match="row 0, column 1"):
        FunctionFamily([[0, 4]], "integer", 3)
    with pytest.raises(FamilyError, match="non-integer"):
        FunctionFamily([[0.5]], "integer", 3)


def test_uniformize_splits_thirds():
    family = FunctionFamily([[0.25, -0.5]])
    measure = ProbabilityMeasure([1 / 3, 2 / 3])
    out_family, out_measure = uniformize(family, measure, 10)
    assert out_family.domain_size == 3
    assert np.array_equal(out_family.values, [[0.25, -0.5, -0.5]])
    assert np.array_equal(out_measure.weights, np.full(3, 1 / 3))


def test_uniformize_identity_on_uniform():
    family = FunctionFamily([[0.1, 0.2]])
    out_family, out_measure = uniformize(family, ProbabilityMeasure.uniform(2), 10)
    assert np.array_equal(out_family.values, family.values)
    assert out_measure.size == 2


def test_uniformize_preserves_distance_quarters():
    # weights (0.25, 0.75): check against direct computation on the
    # 4-point uniform expansion.
    family = FunctionFamily([[1.0, 0.0], [0.0, 1.0]])
    measure = ProbabilityMeasure([0.25, 0.75])
    before = lp_distance(family.values[0], family.values[1], measure)
    assert before == pytest.approx(1.0, abs=1e-15)
    out_family, out_measure = uniformize(family, measure, 4)
    assert out_family.domain_size == 4
    after = lp_distance(out_family.values[0], out_family.values[1], out_measure)
    assert after == pytest.approx(before, abs=1e-12)


def test_uniformize_rejects_irrational_weights():
    family = FunctionFamily([[0.0, 0.0]])
    w = 1 / math.sqrt(2)
    measure = ProbabilityMeasure([w, 1 - w])
    with pytest.raises(RationalizationError):
        uniformize(family, measure, 100)


def test_uniformize_rejects_lcm_overflow():
    # each weight has denominator <= 15, but the common denominator is 30
    family = FunctionFamily([[0.0, 0.0, 0.0, 0.0]])
    measure = ProbabilityMeasure([1 / 6, 1 / 10, 1 / 15, 2 / 3])
    with pytest.raises(RationalizationError, match="common denominator"):
        uniformize(family, measure, 15)
    out, _ = uniformize(family, measure, 30)
    assert out.domain_size == 30


def test_uniformize_preserves_distances_and_vc_randomized():
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 6))
        counts = rng.integers(1, 4, size=n)
        total = int(counts.sum())
        measure = ProbabilityMeasure(counts / total)
        family = gen_random_family(m, n, "uniform-real", int(rng.integers(1 << 30)))
        out_family, out_measure = uniformize(family, measure, total)
        for i in range(m):
            for j in range(i + 1, m):
                d0 = lp_distance(family.values[i], family.values[j], measure)
                d1 = lp_distance(out_family.values[i], out_family.values[j], out_measure)
                assert abs(d0 - d1) <= 1e-12
        t = float(rng.uniform(0.2, 1.0))
        assert vc_real(family, t) == vc_real(out_family, t)


def test_discretize_examples():
    family = FunctionFamily([[0.5, -1.0]])
    out = discretize(family, 1.0)
    assert out.range_max == 14
    assert np.array_equal(out.values, [[10.0, 0.0]])
    # the lower endpoint maps to 0 at every scale
    low = FunctionFamily([[-1.0]])
    for t in (0.1, 0.35, 0.9, 1.0):
        assert discretize(low, t).values[0, 0] == 0.0


def test_discretize_rejects_bad_scale():
    family = FunctionFamily([[0.0]])
    for t in (0.0, -1.0, 2.0):
        with pytest.raises(ValueError):
            discretize(family, t)


def test_discretize_separation_pair():
    family = FunctionFamily([[1.0, 1.0], [-1.0, -1.0]])
    out = discretize(family, 1.0)
    assert np.array_equal(out.values, [[14.0, 14.0], [0.0, 0.0]])
    d = lp_distance(out.values[0], out.values[1], ProbabilityMeasure.uniform(2))
    assert d == pytest.approx(14.0) and d >= 6.0


def test_discretize_separation_lower_bound_property():
    # ||disc f - disc g|| >= (7/t) ||f - g|| - 1 for every pair.
    rng = np.random.default_rng(7)
    for trial in range(25):
        m, n = int(rng.integers(2, 7)), int(rng.integers(1, 6))
        family = gen_random_family(m, n, "uniform-real", int(rng.integers(1 << 30)))
        w = rng.random(n)
        measure = ProbabilityMeasure(w / w.sum())
        t = float(rng.uniform(0.15, 1.0))
        out = discretize(family, t)
        for i in range(m):
            for j in range(i + 1, m):
                d_in = lp_distance(family.values[i], family.values[j], measure)
                d_out = lp_distance(out.values[i], out.values[j], measure)
                assert d_out >= (7.0 / t) * d_in - 1.0 - 1e-9


def test_generator_sign_vectors_and_determinism():
    fam = gen_random_family(4, 2, "sign-vectors", seed=7)
    assert set(np.unique(fam.values)) <= {-1.0, 1.0}
    fam2 = gen_random_family(4, 2, "sign-vectors", seed=7)
    assert np.array_equal(fam.values, fam2.values)


def test_generator_ranges():
    fam = gen_random_family(50, 6, "uniform-real", seed=1)
    assert np.all(np.abs(fam.values) <= 1.0)
    fam = gen_random_family(10, 3, "integer-grid", seed=2, grid_max=5)
    assert fam.is_integer and fam.range_max == 5
    assert fam.values.min() >= 0 and fam.values.max() <= 5
    fam = gen_random_family(8, 4, "convex-hull-sections", seed=3)
    assert np.all(np.abs(fam.values) <= 1.0)


def test_generator_rejects_unknown_kind():
    with pytest.raises(ValueError):
        gen_random_family(2, 2, "nope", seed=0)

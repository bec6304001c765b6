import itertools
import math

import numpy as np
import pytest

from combdim import (
    BudgetError,
    ExtractionError,
    FunctionFamily,
    NotSeparatedError,
    bernstein_bound,
    extract_coordinates,
    extraction_success_probability,
)
from combdim import extraction
from combdim.experiments import gen_separated_family
from combdim.extraction import _min_subset_distance, verify_outcome

CONSTANT_PAIR_20 = FunctionFamily([[1.0] * 20, [-1.0] * 20])


def test_bernstein_examples():
    assert bernstein_bound(1.0, 0.0, 1.0) == 1.0  # 2 e^{-1/2} clamps to 1
    assert bernstein_bound(10.0, 0.0, 1.0) == pytest.approx(2 * math.exp(-50.0))
    assert bernstein_bound(2.0, 1.0, 1.0) < bernstein_bound(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        bernstein_bound(0.0, 1.0, 1.0)
    assert bernstein_bound(1.0, 0.0, 0.0) == 0.0


def test_bernstein_matches_reference_grid():
    # independent reimplementation of the same formula
    for u in (0.25, 1.0, 3.0, 7.5):
        for a in (0.0, 0.5, 2.0):
            for b2 in (0.0, 0.1, 4.0):
                if b2 == 0.0 and a == 0.0:
                    continue
                reference = min(1.0, 2.0 * math.exp(-(u * u) / (2.0 * (b2 + a * u / 3.0))))
                assert abs(bernstein_bound(u, a, b2) - reference) <= 1e-15


def test_extract_constant_pair():
    outcome = extract_coordinates(CONSTANT_PAIR_20, 1.9, 5, seed=42)
    assert 1 <= len(outcome.subset) <= 5
    assert outcome.achieved_separation == pytest.approx(2.0)
    assert outcome.achieved_separation > outcome.target_separation == 0.95
    assert verify_outcome(CONSTANT_PAIR_20, 1.9, outcome)


def test_extract_deterministic():
    a = extract_coordinates(CONSTANT_PAIR_20, 1.9, 5, seed=7)
    b = extract_coordinates(CONSTANT_PAIR_20, 1.9, 5, seed=7)
    assert a == b
    c = extract_coordinates(CONSTANT_PAIR_20, 1.9, 5, seed=8)
    assert tuple(a.subset) == (6,) and tuple(c.subset) == (8,)  # another seed, another draw


def test_extract_parameter_validation():
    with pytest.raises(ValueError):
        extract_coordinates(CONSTANT_PAIR_20, 1.9, 0, seed=1)
    close = FunctionFamily([[0.1] * 4, [0.2] * 4])
    with pytest.raises(NotSeparatedError):
        extract_coordinates(close, 1.5, 2, seed=1)


def test_extract_reports_best_on_failure():
    # rows differ on a single coordinate: k = 1 must hit that coordinate,
    # so most draws fail and a tiny attempt budget gets exhausted
    vals = np.zeros((2, 6))
    vals[0, 3], vals[1, 3] = 0.9, -0.9
    fam = FunctionFamily(vals)
    t = 0.7  # full distance is 1.8 / sqrt(6) = 0.7348
    with pytest.raises(ExtractionError) as err:
        extract_coordinates(fam, t, 1, seed=5, max_attempts=2)
    assert err.value.attempts == 2


def exact_acceptance_probability_single_coord(n, delta, special):
    """Sum over all 2^n indicator patterns: accepted iff sigma = {special}."""
    total = 0.0
    for bits in itertools.product((0, 1), repeat=n):
        sigma = [i for i, b in enumerate(bits) if b]
        prob = 1.0
        for b in bits:
            prob *= delta if b else (1.0 - delta)
        if sigma == [special]:
            total += prob
    return total


def test_success_probability_single_coordinate_exact():
    n, k = 4, 1
    vals = np.zeros((2, n))
    vals[0, 2], vals[1, 2] = 0.9, -0.9
    fam = FunctionFamily(vals)
    t = 0.85  # full distance 1.8 / 2 = 0.9; restricted distance on {2} is 1.8
    exact = exact_acceptance_probability_single_coord(n, k / (2 * n), 2)
    assert abs(extraction_success_probability(fam, t, k) - exact) <= 1e-12


def test_success_probability_binomial_exact():
    # constant-difference pair: acceptance iff 1 <= |sigma| <= k
    from scipy.stats import binom

    n, k = 20, 5
    exact = float(binom.cdf(k, n, k / (2 * n)) - binom.pmf(0, n, k / (2 * n)))
    assert abs(extraction_success_probability(CONSTANT_PAIR_20, 1.9, k) - exact) <= 1e-12


def test_success_probability_monotone_in_k():
    rates = [extraction_success_probability(CONSTANT_PAIR_20, 1.9, k) for k in (1, 3, 6, 10)]
    for lo, hi in zip(rates, rates[1:]):
        assert hi >= lo


def test_success_probability_validation(monkeypatch):
    monkeypatch.setattr(extraction, "ACCEPTANCE_TABLE_LIMIT", (1 << 20) - 1)
    with pytest.raises(BudgetError):
        extraction_success_probability(CONSTANT_PAIR_20, 1.9, 2)
    with pytest.raises(ValueError):
        extraction_success_probability(CONSTANT_PAIR_20, 1.9, 0)
    # scale above the diameter: the separation precondition fails upstream
    with pytest.raises(NotSeparatedError):
        extraction_success_probability(CONSTANT_PAIR_20, 2.5, 2)


def test_acceptance_table_is_built_once_per_scan(monkeypatch, tmp_path, capsys):
    from combdim.cli import main
    from combdim.experiments import estimate_extraction_constant
    from combdim.family import save_family

    builds = []
    real = extraction._accepted_support_counts
    monkeypatch.setattr(extraction, "_accepted_support_counts",
                        lambda fam, t: builds.append(t) or real(fam, t))
    fam = FunctionFamily([[0.0] * 11 + [0.9], [0.0] * 11 + [-0.9]])  # P < 1/2 until k = n
    assert estimate_extraction_constant(fam, 0.4)["k_half"] == 12
    assert len(builds) == 1
    path = tmp_path / "pair.json"
    save_family(path, fam)
    assert main(["extract-curve", "--family", str(path), "--scale", "0.4",
                 "--k-grid", "1,5,12,30"]) == 0
    assert len(builds) == 2
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:-1]]
    assert [int(k) for k, _ in rows] == [1, 5, 12, 30]
    for k, rate in rows:
        assert float(rate) == extraction_success_probability(fam, 0.4, int(k))


def _pipeline_family(seed):
    # the family and scale run_pipeline_trace draws for this seed
    rng = np.random.default_rng([seed, 99])
    n = int(rng.integers(6, 10))
    m_target = int(rng.integers(6, 12))
    t = float(rng.uniform(0.95, 1.2))
    return gen_separated_family(n, t, [seed, 7], m_target, kind="noisy-signs"), t


def test_success_probability_matches_support_enumeration():
    # the exact sum against the draw's own acceptance test on every support
    for seed in range(40):
        fam, t = _pipeline_family(seed)
        n = fam.domain_size
        accepted = [
            len(sigma)
            for j in range(1, n + 1)
            for sigma in itertools.combinations(range(n), j)
            if _min_subset_distance(fam, np.array(sigma)) > t / 2.0
        ]
        for k in [*range(1, n + 1), 2 * n + 1]:
            p = min(1.0, k / (2 * n))
            brute = sum(p**j * (1 - p) ** (n - j) for j in accepted if j <= k)
            assert abs(extraction_success_probability(fam, t, k) - brute) <= 1e-12, (seed, k)


def test_accepted_subsets_reverify():
    rng = np.random.default_rng(67)
    for trial in range(15):
        n = int(rng.integers(8, 16))
        t = float(rng.uniform(0.8, 1.1))
        fam = gen_separated_family(n, t, int(rng.integers(1 << 30)), 6, kind="noisy-signs")
        try:
            outcome = extract_coordinates(fam, t, max(2, n // 2), int(rng.integers(1 << 30)))
        except ExtractionError:
            continue
        assert verify_outcome(fam, t, outcome)
        assert len(outcome.subset) <= max(2, n // 2)

import itertools
import math

import numpy as np
import pytest

from combdim import (
    BudgetError,
    ExtractionError,
    FunctionFamily,
    NotSeparatedError,
    acceptance_curve,
    bernstein_bound,
    extract_coordinates,
)
from combdim import extraction
from combdim.entropy import distances_from_gram, pairwise_distances
from combdim.experiments import gen_separated_family, pipeline_instance
from combdim.extraction import _min_subset_distance, verify_outcome
from combdim.family import CoordinateSubset, ProbabilityMeasure, gen_random_family

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
    with pytest.raises(NotSeparatedError) as err:
        extract_coordinates(close, 1.5, 2, seed=1)
    assert err.value.pair == (0, 1)
    assert str(err.value) == ("family is not 1.5-separated under the uniform measure: "
                              "rows 0 and 1 at distance 0.1")
    # the attempt budget is checked before the separation test
    with pytest.raises(ValueError, match="max_attempts must be >= 1, got 0"):
        extract_coordinates(close, 1.5, 2, seed=1, max_attempts=0)


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
    assert abs(acceptance_curve(fam, t, [k])[0] - exact) <= 1e-12


def test_success_probability_binomial_exact():
    # constant-difference pair: acceptance iff 1 <= |sigma| <= k
    from scipy.stats import binom

    n, k = 20, 5
    exact = float(binom.cdf(k, n, k / (2 * n)) - binom.pmf(0, n, k / (2 * n)))
    assert abs(acceptance_curve(CONSTANT_PAIR_20, 1.9, [k])[0] - exact) <= 1e-12


def test_success_probability_monotone_in_k():
    rates = [acceptance_curve(CONSTANT_PAIR_20, 1.9, [k])[0] for k in (1, 3, 6, 10)]
    for lo, hi in zip(rates, rates[1:]):
        assert hi >= lo


def test_success_probability_validation(monkeypatch):
    monkeypatch.setattr(extraction, "ACCEPTANCE_TABLE_LIMIT", (1 << 20) - 1)
    with pytest.raises(BudgetError):
        acceptance_curve(CONSTANT_PAIR_20, 1.9, [2])
    with pytest.raises(ValueError):
        acceptance_curve(CONSTANT_PAIR_20, 1.9, [0])
    # scale above the diameter: the separation precondition fails upstream
    with pytest.raises(NotSeparatedError) as err:
        acceptance_curve(CONSTANT_PAIR_20, 2.5, [2])
    assert err.value.pair == (0, 1)
    assert str(err.value) == ("family is not 2.5-separated under the uniform measure: "
                              "rows 0 and 1 at distance 2.0")


def test_acceptance_table_is_built_once_per_scan(monkeypatch, tmp_path, capsys):
    from combdim.cli import main
    from combdim.experiments import extraction_constant_fit
    from combdim.family import save_family

    builds = []
    real = extraction._accepted_support_counts
    monkeypatch.setattr(extraction, "_accepted_support_counts",
                        lambda fam, t: builds.append(t) or real(fam, t))
    fam = FunctionFamily([[0.0] * 11 + [0.9], [0.0] * 11 + [-0.9]])  # P < 1/2 until k = n
    assert extraction_constant_fit(fam, 0.4, acceptance_curve(fam, 0.4, range(1, 13)))["k_half"] == 12
    assert len(builds) == 1
    path = tmp_path / "pair.json"
    save_family(path, fam)
    assert main(["extract-curve", "--family", str(path), "--scale", "0.4",
                 "--k-grid", "1,5,12,30"]) == 0
    assert len(builds) == 2
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:-1]]
    assert [int(k) for k, _ in rows] == [1, 5, 12, 30]
    for k, rate in rows:
        assert float(rate) == acceptance_curve(fam, 0.4, [int(k)])[0]


def test_success_probability_matches_support_enumeration():
    # the exact sum against the draw's own acceptance test on every support
    for seed in range(40):
        fam, t, _ = pipeline_instance(seed)
        n = fam.domain_size
        accepted = [
            len(sigma)
            for j in range(1, n + 1)
            for sigma in itertools.combinations(range(n), j)
            if _min_subset_distance(fam.values[:, list(sigma)]) > t / 2.0
        ]
        for k in [*range(1, n + 1), 2 * n + 1]:
            p = min(1.0, k / (2 * n))
            brute = sum(p**j * (1 - p) ** (n - j) for j in accepted if j <= k)
            assert abs(acceptance_curve(fam, t, [k])[0] - brute) <= 1e-12, (seed, k)


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


# ---------------------------------------------------------------------------
# Exactness of the filtered draw loop: the reference computes every
# admissible draw's distance with the Gram kernel, as the loop did before
# the filter.
# ---------------------------------------------------------------------------

def _reference_min_subset_distance(family, sigma):
    sub = family.values[:, sigma]
    m = sub.shape[0]
    if m < 2:
        return math.inf
    weights = np.full(sigma.size, 1.0 / sigma.size)
    dist = distances_from_gram(sub, weights, sub @ sub.T / sigma.size)
    return float(dist[np.triu_indices(m, k=1)].min())


def _reference_extract(family, t, k, seed, max_attempts=100):
    """(repr of the outcome, or message, best and attempts of the error;
    the log of (attempt, sigma, distance) over the admissible draws)."""
    n = family.domain_size
    best = None
    log = []
    for attempt in range(max_attempts):
        rng = np.random.default_rng([seed, attempt])
        sigma = np.flatnonzero(rng.random(n) < k / (2.0 * n))
        if sigma.size == 0 or sigma.size > k:
            continue
        d = _reference_min_subset_distance(family, sigma)
        log.append((attempt, tuple(sigma.tolist()), d))
        if best is None or d > best:
            best = d
        if d > t / 2.0:
            outcome = extraction.ExtractionOutcome(
                subset=CoordinateSubset(tuple(int(i) for i in sigma)),
                attempts=attempt + 1, achieved_separation=d, target_separation=t / 2.0)
            return repr(outcome), log
    message = (f"no accepted subset in {max_attempts} attempts "
               f"(best separation seen: {best}, target {t / 2.0})")
    return repr((message, best, max_attempts)), log


def _extract(family, t, k, seed, max_attempts=100):
    try:
        return repr(extract_coordinates(family, t, k, seed, max_attempts))
    except ExtractionError as exc:
        return repr((str(exc), exc.best_separation, exc.attempts))


def _pipeline_case(seed):
    # the family, scale, k and extraction seed of run_pipeline_trace
    return *pipeline_instance(seed), [seed, 13], 100


def _random_families():
    # every generator kind, rows made distinct: (family, seed, least distance)
    for seed in range(24):
        kind = ("uniform-real", "convex-hull-sections", "sign-vectors", "integer-grid")[seed % 4]
        rng = np.random.default_rng([seed, 29])
        m, n = int(rng.integers(2, 13)), int(rng.integers(1, 11))
        fam = gen_random_family(m, n, kind, [seed, 31], grid_max=3)
        fam = fam.subfamily(sorted(np.unique(fam.values, axis=0, return_index=True)[1].tolist()))
        if fam.size >= 2:
            dist = pairwise_distances(fam, ProbabilityMeasure.uniform(n))
            yield fam, [seed, 37], float(dist[~np.eye(fam.size, dtype=bool)].min())


def _sizes(n):
    return sorted({1, math.ceil(n / 2), n})


def _random_cases():
    # two scales below the least distance
    for fam, seed, least in _random_families():
        for t in (0.999 * least, 0.5 * least):
            for k in _sizes(fam.domain_size):
                yield fam, t, k, seed, 100


def _tie_cases():
    # scales at which some draw's exact distance is t/2 exactly, with all
    # attempts and with the attempts cut after that draw, so that it may be
    # the best of a failure; integer and sign families also repeat
    # distances, so draws tie the best seen
    for fam, seed, least in _random_families():
        for k in _sizes(fam.domain_size):
            _, log = _reference_extract(fam, math.inf, k, seed)  # every draw's distance
            ties = sorted({(d, attempt) for attempt, _, d in log if 0 < 2 * d < least})
            for d, attempt in ties[:3] + ties[-2:]:
                yield fam, 2 * d, k, seed, 100
                yield fam, 2 * d, k, seed, attempt + 1


def test_extraction_matches_every_draw_reference_on_pipeline_families():
    failures = 0
    for seed in range(300):
        case = _pipeline_case(seed)
        expected, _ = _reference_extract(*case)
        assert _extract(*case) == expected, seed
        failures += "no accepted subset" in expected
    assert failures == 1  # seed 98: its message and best_separation matched


def test_extraction_matches_every_draw_reference_on_random_families_and_ties():
    ties = failures_at_a_tie = 0
    for case in itertools.chain(_random_cases(), _tie_cases()):
        expected, log = _reference_extract(*case)
        assert _extract(*case) == expected, (case[0].values.tolist(), *case[1:])
        t = case[1]
        ties += any(d == t / 2.0 for _, _, d in log)
        failures_at_a_tie += "no accepted subset" in expected and f"seen: {t / 2.0}," in expected
    assert ties >= 20 and failures_at_a_tie >= 5


def test_exact_kernel_runs_only_on_draws_that_can_accept_or_raise_the_best(monkeypatch):
    calls = []
    real = extraction._min_subset_distance
    monkeypatch.setattr(extraction, "_min_subset_distance",
                        lambda sub, gram=None: calls.append(sub.tolist()) or real(sub, gram))
    draws = kernels = 0
    for seed in range(40):
        case = _pipeline_case(seed)
        t = case[1]
        _, log = _reference_extract(*case)
        expected, best, seen = [], None, set()
        for _, sigma, d in log:
            # a repeated subset runs nothing; a new one that ties the best
            # runs it: no margin proves its distance below the best
            if sigma not in seen and (best is None or d >= best or d > t / 2.0):
                expected.append(case[0].values[:, list(sigma)].tolist())
            seen.add(sigma)
            best = d if best is None else max(best, d)
        calls.clear()
        _extract(*case)
        assert calls == expected, seed
        draws, kernels = draws + len(log), kernels + len(calls)
    assert (draws, kernels) == (435, 123)


def test_distance_bound_is_never_below_the_kernel():
    # near-duplicate rows exercise the kernel's recompute from differences;
    # the real scales reach underflow, the integer ones large magnitudes
    rng = np.random.default_rng(41)
    for trial in range(300):
        m, n = int(rng.integers(2, 9)), int(rng.integers(1, 12))
        scale = (1e-170, 1e-150, 1e-8, 1.0, 1e6, 2.0**40)[trial % 6]
        vals = rng.integers(0, 4, size=(m, n)) / 4.0
        vals[1:] = vals[0] + rng.choice([0.0, 1e-9, 1e-15], size=(m - 1, 1)) * vals[1:]
        if scale < 1:
            fam = FunctionFamily(np.clip(vals + rng.uniform(-0.5, 0.5, (m, n)), -1, 1) * scale)
        else:
            vals = np.rint(vals * scale) + rng.integers(0, 3, size=(m, n))
            fam = FunctionFamily(vals, "integer", int(vals.max()))
        for _ in range(5):
            sigma = np.flatnonzero(rng.random(n) < 0.6)
            if not sigma.size:
                continue
            sub = fam.values[:, sigma]
            bound = extraction._min_distance_bound(sub @ sub.T / sigma.size, sigma.size)
            assert bound >= _min_subset_distance(sub), (trial, sigma)

"""Randomized coordinate-subset extraction preserving pairwise separation.

Coordinates are kept independently with probability k/(2n); a draw is
accepted when the subset is nonempty, has at most k coordinates, and the
family stays (t/2)-separated in L2 of the uniform measure on the subset.
The per-draw failure probability is controlled by a Bernstein tail bound,
which is exposed as a first-class evaluator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import distances_from_gram, first_violating_pair, is_separated
from .errors import ExtractionError, NotSeparatedError
from .family import CoordinateSubset, FunctionFamily, ProbabilityMeasure


def bernstein_bound(u: float, sup_bound: float, variance_sum: float) -> float:
    """Tail bound min(1, 2 exp(-u^2 / (2 (b^2 + a u / 3)))) for a sum of
    independent centered variables with |X_i| <= a and sum E X_i^2 = b^2."""
    if u <= 0:
        raise ValueError("deviation u must be positive")
    if sup_bound < 0 or variance_sum < 0:
        raise ValueError("sup bound and variance sum must be nonnegative")
    denom = 2.0 * (variance_sum + sup_bound * u / 3.0)
    if denom == 0.0:
        return 0.0
    return min(1.0, 2.0 * math.exp(-u * u / denom))


@dataclass(frozen=True)
class ExtractionOutcome:
    subset: CoordinateSubset
    attempts: int
    achieved_separation: float
    target_separation: float


def _min_subset_distance(family: FunctionFamily, sigma: np.ndarray) -> float:
    """Smallest pairwise L2 distance under the uniform measure on sigma."""
    sub = family.values[:, sigma]
    m = sub.shape[0]
    if m < 2:
        return math.inf
    weights = np.full(sigma.size, 1.0 / sigma.size)
    dist = distances_from_gram(sub, weights, sub @ sub.T / sigma.size)
    return float(dist[np.triu_indices(m, k=1)].min())


def _check_precondition(family: FunctionFamily, t: float, k: int) -> None:
    if k < 1:
        raise ValueError(f"target size k must be >= 1, got {k}")
    if not t > 0:
        raise ValueError(f"separation scale must be positive, got {t!r}")
    uniform = ProbabilityMeasure.uniform(family.domain_size)
    bad = first_violating_pair(family, uniform, t)
    if bad is not None:
        i, j, d = bad
        raise NotSeparatedError(
            f"family is not {t}-separated under the uniform measure: "
            f"rows {i}, {j} at distance {d}",
            pair=(i, j),
            distance=d,
        )


def _single_draw(family: FunctionFamily, t: float, k: int, seed, index: int):
    """One Bernoulli(k/2n) draw; returns (accepted, sigma, min_distance)."""
    n = family.domain_size
    rng = np.random.default_rng([seed, index])
    sigma = np.flatnonzero(rng.random(n) < k / (2.0 * n))
    if sigma.size == 0 or sigma.size > k:
        return False, sigma, None
    d = _min_subset_distance(family, sigma)
    return d > t / 2.0, sigma, d


def extract_coordinates(
    family: FunctionFamily,
    t: float,
    k: int,
    seed,
    max_attempts: int = 100,
) -> ExtractionOutcome:
    """First accepted coordinate subset, deterministic for a fixed seed.

    Raises ExtractionError when max_attempts draws all fail, reporting the
    best separation seen among draws of admissible size.
    """
    _check_precondition(family, t, k)
    best = None
    for attempt in range(max_attempts):
        accepted, sigma, d = _single_draw(family, t, k, seed, attempt)
        if d is not None and (best is None or d > best):
            best = d
        if accepted:
            return ExtractionOutcome(
                subset=CoordinateSubset(tuple(int(i) for i in sigma)),
                attempts=attempt + 1,
                achieved_separation=d,
                target_separation=t / 2.0,
            )
    raise ExtractionError(
        f"no accepted subset in {max_attempts} attempts "
        f"(best separation seen: {best}, target {t / 2.0})",
        attempts=max_attempts,
        best_separation=best,
    )


def extraction_success_probability(
    family: FunctionFamily,
    t: float,
    k: int,
    trials: int,
    seed,
) -> float:
    """Monte-Carlo frequency of single-draw acceptance.

    Trials use derived seeds (seed, trial index), so the estimate is
    deterministic and independent of evaluation order.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    _check_precondition(family, t, k)
    hits = 0
    for i in range(trials):
        accepted, _, _ = _single_draw(family, t, k, seed, i)
        hits += accepted
    return hits / trials


def verify_outcome(family: FunctionFamily, t: float, outcome: ExtractionOutcome) -> bool:
    """Independent re-check of an extraction outcome via is_separated."""
    coords = list(outcome.subset)
    if not coords:
        return False
    sub = family.restrict(coords)
    uniform = ProbabilityMeasure.uniform(len(coords))
    return sub.size < 2 or is_separated(sub, uniform, t / 2.0)

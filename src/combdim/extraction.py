"""Randomized coordinate-subset extraction preserving pairwise separation.

Coordinates are kept independently with probability min(1, k/(2n)); a
draw is accepted when the subset is nonempty, has at most k coordinates,
and the family stays (t/2)-separated in L2 of the uniform measure on the
subset.  A draw's least distance is computed exactly only when it could
be accepted or become the best one seen: a bound read off the draw's
Gram matrix rules out the rest.  The acceptance probability is an exact
sum over supports; the Bernstein tail bound on the failure probability
is a first-class evaluator.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .constants import DEFAULT_CONSTANTS
from .entropy import first_violating_pair, is_separated, not_separated, squares_from_gram
from .errors import BudgetError, ExtractionError
from .family import CoordinateSubset, FunctionFamily, ProbabilityMeasure

ACCEPTANCE_TABLE_LIMIT = 1 << 24  # pairs x 2^n subset sums for exact acceptance


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


def _min_subset_distance(sub: np.ndarray, gram: np.ndarray | None = None) -> float:
    """Smallest pairwise L2 distance between the rows of sub, a family's
    values on a coordinate subset, under the uniform measure on its
    columns.  gram, when given, is sub @ sub.T / columns, and is consumed."""
    m, size = sub.shape
    if m < 2:
        return math.inf
    if gram is None:
        gram = sub @ sub.T / size
    squares = squares_from_gram(sub, np.full(size, 1.0 / size), gram)
    rows = np.arange(m)
    return math.sqrt(max(float(squares[rows[:, None] < rows].min()), 0.0))


def _min_distance_bound(gram: np.ndarray, size: int) -> float:
    """A float no smaller than the distance _min_subset_distance returns
    from gram = sub @ sub.T / size, on size coordinates, with N its
    largest diagonal entry.

    The bound is sqrt(min_{i != j} (g_ii + g_jj - 2 g_ij) + margin), margin
    = 1e-12 (size + 6) N.  Against the exact squared distance D_ij of a
    pair, with u = 2^-53 and Cauchy-Schwarz on each dot product:
    - the kernel's own value, Gram form or recomputed from differences,
      is within 4 (size + 5) u N of D_ij (a few ulps of g_ii + g_jj);
    - the Gram form here, with its two subtractions, is within
      4 (size + 6) u N of D_ij;
    so the kernel's least square exceeds the least one here by at most
    8 (size + 6) u N, under a thousandth of the margin, and the clamp at
    0 and the rounding of the sum stay inside the rest.  The correctly
    rounded sqrt is monotone, so the kernel's distance, the sqrt of its
    least square, is at most the bound: comparing the bound with t/2
    needs no slack for the sqrt.  An overflowing Gram matrix gives nan,
    which rules nothing out.  N is floored at the least normal float, so
    the margin also covers the absolute error of a product that underflows."""
    norms = gram.diagonal()
    sq = np.add.outer(norms, norms)
    sq -= gram
    sq -= gram
    np.fill_diagonal(sq, np.inf)
    return math.sqrt(sq.min() + 1e-12 * (size + 6) * norms.max(initial=sys.float_info.min))


def _check_precondition(family: FunctionFamily, t: float, k: int, max_attempts: int = 1) -> None:
    """Check k, t and max_attempts, then, only if they pass, that the
    family is t-separated under the uniform measure."""
    if k < 1:
        raise ValueError(f"target size k must be >= 1, got {k}")
    if not t > 0:
        raise ValueError(f"separation scale must be positive, got {t!r}")
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    uniform = ProbabilityMeasure.uniform(family.domain_size)
    bad = first_violating_pair(family, uniform, t)
    if bad is not None:
        raise not_separated(t, bad, " under the uniform measure")


def extract_coordinates(
    family: FunctionFamily,
    t: float,
    k: int,
    seed,
    max_attempts: int = DEFAULT_CONSTANTS.extraction_max_attempts,
) -> ExtractionOutcome:
    """First accepted coordinate subset, deterministic for a fixed seed.

    Raises ExtractionError when max_attempts draws all fail, reporting the
    best separation seen among draws of admissible size.

    After the first admissible draw, a draw's exact least distance (the
    Gram kernel _min_subset_distance) runs only when the draw could be
    accepted or raise the best: it is skipped when _min_distance_bound,
    read off the same Gram product, is <= t/2 and < best, which proves
    the exact distance is too.  A draw of a subset drawn before is skipped
    outright: its first draw had d <= t/2 and best >= d since.  The
    draws, attempts, distances and messages are therefore those of
    computing every draw exactly.
    """
    _check_precondition(family, t, k, max_attempts)
    return _extract(family, t, k, seed, max_attempts)


def _extract(
    family: FunctionFamily,
    t: float,
    k: int,
    seed,
    max_attempts: int = DEFAULT_CONSTANTS.extraction_max_attempts,
) -> ExtractionOutcome:
    """extract_coordinates without its checks, for a caller that has
    already found the family t-separated under the uniform measure, with
    k >= 1, t > 0 and max_attempts >= 1."""
    n = family.domain_size
    best, seen = None, set()
    for attempt in range(max_attempts):
        rng = np.random.default_rng([seed, attempt])
        sigma = np.flatnonzero(rng.random(n) < k / (2.0 * n))
        if sigma.size == 0 or sigma.size > k or sigma.tobytes() in seen:
            continue
        seen.add(sigma.tobytes())
        sub = family.values[:, sigma]
        gram = sub @ sub.T / sigma.size
        if best is not None:
            bound = _min_distance_bound(gram, sigma.size)
            if bound <= t / 2.0 and bound < best:
                continue
        d = _min_subset_distance(sub, gram)
        if best is None or d > best:
            best = d
        if d > t / 2.0:
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


def _accepted_support_counts(family: FunctionFamily, t: float) -> np.ndarray:
    """A[j] = number of size-j supports on which every pair keeps
    sum_{i in sigma} (f_i - g_i)^2 > j t^2 / 4, i.e. stays (t/2)-separated.
    Bit i of a support's index is coordinate i; one pair's sums at a time."""
    n = family.domain_size
    size = np.zeros(1 << n, dtype=np.uint8)
    sums = np.zeros(1 << n)
    for i in range(n):
        np.add(size[: 1 << i], 1, out=size[1 << i : 2 << i])
    threshold = size * (t * t / 4.0)
    ok = size > 0
    vals = family.values
    for a in range(family.size):
        for b in range(a + 1, family.size):
            for i, sq in enumerate((vals[a] - vals[b]) ** 2):
                np.add(sums[: 1 << i], sq, out=sums[1 << i : 2 << i])
            ok &= sums > threshold
    return np.bincount(size[ok], minlength=n + 1)


def acceptance_curve(family: FunctionFamily, t: float, ks) -> list[float]:
    """Exact probability that one draw of extract_coordinates is accepted,
    at each k of ks: sum over j = 1..min(k, n) of A_j p^j (1 - p)^(n - j),
    p = min(1, k/2n).  The counts A_j do not depend on k, so one table
    serves every k.  BudgetError above ACCEPTANCE_TABLE_LIMIT entries
    (pairs x 2^n)."""
    ks = list(ks)
    _check_precondition(family, t, min(ks, default=1))
    m, n = family.size, family.domain_size
    entries = max(1, m * (m - 1) // 2) << n
    if entries > ACCEPTANCE_TABLE_LIMIT:
        raise BudgetError(f"exact acceptance probability refused for {entries} "
                          f"table entries > limit {ACCEPTANCE_TABLE_LIMIT}")
    counts = _accepted_support_counts(family, t)
    curve = []
    for k in ks:
        p = min(1.0, k / (2.0 * n))
        curve.append(sum(float(counts[j]) * p**j * (1.0 - p) ** (n - j)
                         for j in range(1, min(k, n) + 1)))
    return curve


def verify_outcome(family: FunctionFamily, t: float, outcome: ExtractionOutcome) -> bool:
    """Independent re-check of an extraction outcome via is_separated."""
    coords = list(outcome.subset)
    if not coords:
        return False
    sub = family.restrict(coords)
    uniform = ProbabilityMeasure.uniform(len(coords))
    return sub.size < 2 or is_separated(sub, uniform, t / 2.0)

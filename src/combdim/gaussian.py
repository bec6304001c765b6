"""Monte-Carlo suprema of Gaussian/Rademacher processes over finite point
sets, entropy-integral evaluators, and the Sudakov-ratio diagnostic.

The process indexed by a point set A in R^n is X_a = sum_i g_i a(i); the
supremum over a finite A is an exact maximum per sample.  A block of
Rademacher draws repeats sign vectors once it holds more than 2^n of
them, so each distinct sign vector's supremum is computed once, by the
same BLAS product over fewer rows, and copied to every draw that shares
it.  The values are those of one product row per draw wherever BLAS
rounds a row alike in calls of either shape, as on every workload and
digest instance (CHANGES.md lists the shapes where it does not).  All
logarithms are natural.  scipy.special is imported only where it runs
(Gaussian variates and `vc_integral`), so `import combdim` loads numpy
alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import PACKING_EXACT_LIMIT, packing_number
from .errors import BudgetError
from .family import FunctionFamily, ProbabilityMeasure

# Normalizer for the averaging weight t -> c0 / (t ln^{1.1}(2/t)): the
# substitution u = ln(2/t) gives integral 10 * (ln 2)^{-0.1} over (0, 1),
# so c0 = 0.1 * (ln 2)^{0.1}.  Frozen here; scripts/derive_constants.py
# recomputes it by quadrature.
WEIGHT_NORMALIZER = 0.1 * math.log(2.0) ** 0.1


@dataclass(frozen=True)
class SupEstimate:
    mean: float
    stderr: float
    samples: int
    process_kind: str


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, label) for a boolean matrix: the index of the first of each
    group of equal rows, and each row's group as a position in `first`.

    Rows are packed into bytes and sorted on them, so any row width works.
    """
    packed = np.packbits(rows, axis=1)
    order = np.lexsort(packed.T)
    ranked = packed[order]
    starts = np.ones(len(order), dtype=bool)
    np.any(ranked[1:] != ranked[:-1], axis=1, out=starts[1:])
    label = np.empty(len(order), dtype=np.intp)
    label[order] = np.cumsum(starts) - 1
    return order[starts], label


def gaussian_sup_mc(family_or_points, samples: int, seed, kind: str = "gaussian") -> SupEstimate:
    """Monte-Carlo estimate of E sup_a sum_i g_i a(i).

    Gaussian variates come from the inverse normal CDF applied to the
    seeded uniform stream, which pins the exact variates to the seed;
    "rademacher" uses signs of the same stream and takes the supremum
    once per distinct sign vector of each block.  A point set with no
    coordinates has supremum 0 on every draw.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    if kind not in ("gaussian", "rademacher"):
        raise ValueError(f"unknown process kind {kind!r}")
    if isinstance(family_or_points, FunctionFamily):
        family_or_points = family_or_points.values
    pts = np.atleast_2d(np.asarray(family_or_points, dtype=np.float64))
    m, n = pts.shape
    if m == 0:
        raise ValueError("need at least one point")
    if n == 0:  # lexsort needs a key: every draw's sum over no coordinates is 0
        return SupEstimate(0.0, 0.0, samples, kind)
    rng = np.random.default_rng(seed)
    sups = np.empty(samples)
    block = max(1, min(samples, (1 << 22) // (n + m)))
    done = 0
    while done < samples:
        b = min(block, samples - done)
        u = rng.random((b, n))
        if kind == "gaussian":
            from scipy.special import ndtri  # deferred: scipy adds 0.2 s to every command
            g, label = ndtri(np.clip(u, 1e-16, 1.0 - 1e-16)), slice(None)
        else:
            neg = u < 0.5
            first, label = _distinct_rows(neg)
            g = np.where(neg[first], -1.0, 1.0)
        sups[done : done + b] = (g @ pts.T).max(axis=1)[label]
        done += b
    mean = float(sups.mean())
    stderr = float(sups.std(ddof=1) / math.sqrt(samples))
    return SupEstimate(mean, stderr, samples, kind)


def _validate_curve(curve) -> list[tuple[float, float]]:
    pts = [(float(t), float(v)) for t, v in curve]
    if not pts:
        raise ValueError("curve must be nonempty")
    for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
        if t1 <= t0:
            raise ValueError(f"curve scales must increase strictly: {t0} then {t1}")
        if v1 > v0 + 1e-12:
            raise ValueError(f"curve values must be non-increasing: {v0} then {v1}")
    if any(v < 0 for _, v in pts):
        raise ValueError("curve values must be nonnegative")
    return pts


def _step_segments(pts, lower: float, upper: float):
    """Split [lower, upper] into segments where the step curve is constant.

    The sampled value v_i holds on (t_{i-1}, t_i]; below the first sample
    the first value extends, above the last sample the last one does.
    """
    cuts = [lower] + [t for t, _ in pts if lower < t < upper] + [upper]
    for a, b in zip(cuts, cuts[1:]):
        v = pts[-1][1]
        for t, val in pts:
            if t >= b:
                v = val
                break
        yield a, b, v


def entropy_integral(curve, lower: float, upper: float) -> float:
    """Integral of sqrt(log_count(t)) dt over [lower, upper] on the step
    curve; exact on step functions (covering numbers are piecewise
    constant).  The curve holds (scale, natural-log count) pairs."""
    pts = _validate_curve(curve)
    if lower > upper:
        raise ValueError(f"lower {lower} exceeds upper {upper}")
    return sum((b - a) * math.sqrt(v) for a, b, v in _step_segments(pts, lower, upper))


def _sqrt_log_primitive(a: float, b: float) -> float:
    """Exact integral of sqrt(ln(2/t)) over [a, b] (0 < a <= b <= 2) via
    the upper incomplete gamma function."""
    if b <= a:
        return 0.0
    from scipy.special import gammaincc  # deferred: scipy adds 0.2 s to every command
    ua, ub = math.log(2.0 / a), math.log(2.0 / b)
    coeff = 2.0 * math.gamma(1.5)
    return coeff * (gammaincc(1.5, ub) - gammaincc(1.5, ua))


def vc_integral(curve, lower: float, upper: float = 1.0) -> float:
    """Integral of sqrt(vc(t) * ln(2/t)) dt on the step vc curve."""
    pts = _validate_curve(curve)
    if lower > upper:
        raise ValueError(f"lower {lower} exceeds upper {upper}")
    if upper > 2.0 or lower < 0.0:
        raise ValueError("integration limits must lie in [0, 2]")
    total = 0.0
    for a, b, d in _step_segments(pts, lower, upper):
        if d > 0:
            total += math.sqrt(d) * _sqrt_log_primitive(max(a, 1e-300), b)
    return total


def sudakov_ratio(
    family: FunctionFamily, measure: ProbabilityMeasure, t_grid, sup_estimate: SupEstimate
) -> float:
    """max over the grid of t * sqrt(ln packing(t)) / E-hat, with exact packing.

    A diagnostic for the constant in the lower bound relating packing
    numbers to the process supremum; no pass/fail judgement here.
    BudgetError when the family is too large for an exact packing.
    """
    if sup_estimate.mean <= 0:
        raise ValueError("sup estimate must be positive")
    best = 0.0
    for t in t_grid:
        count, flag = packing_number(family, measure, float(t))
        if flag != "exact":
            raise BudgetError(f"exact packing refused for m={family.size} > limit "
                              f"{PACKING_EXACT_LIMIT}")
        if count > 1:
            best = max(best, float(t) * math.sqrt(math.log(count)) / sup_estimate.mean)
    return best


def weight_h(t: float) -> float:
    """Averaging weight c0 / (t ln^{1.1}(2/t)) with unit integral on (0, 1)."""
    if not (0.0 < t < 1.0):
        raise ValueError(f"t must lie in (0, 1), got {t!r}")
    return WEIGHT_NORMALIZER / (t * math.log(2.0 / t) ** 1.1)

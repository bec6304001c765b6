"""l1-subset extraction for vectors in the unit ball of a polyhedral norm.

Given x_1, ..., x_n with E || sum eps_i x_i || >= delta * n, a coordinate
subset sigma of size s^2 n exists on which the vectors are t-equivalent
to the l1 basis with s, t comparable to delta.  The driver estimates delta
by Monte Carlo (Rademacher signs) and reads everything else off one
`geometry.radius_table` of l1 constants r(sigma) over the scale grid.
By duality r is the half-side of the largest centred cube in the
projection on sigma of B = conv{+-(f_j(x_i))_i}, so the sweep is
`convex_vc` of that body at each grid scale, and the certified constant
of the winning subset is its table entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import DEFAULT_CONSTANTS
from .family import CoordinateSubset
from .gaussian import SupEstimate, gaussian_sup_mc, weight_h
from .geometry import CUBE_DIM_BUDGET, PolyhedralNorm, VPolytope, _l1_points
from .geometry import ell1_lower_constant, radius_table
from .geometry import convex_vc  # noqa: F401  perfbench/spans.py wraps convex_vc at this name

DEFAULT_T_GRID = tuple(2.0 ** -j for j in range(1, 9))  # the sweep scales, descending
NORM_SLACK_PROBES = 256


@dataclass(frozen=True)
class EltonResult:
    """Certified l1 subset: sigma with |sigma| = s^2 n and l1 constant t.

    `t` is r(sigma), the orthant-LP constant the walk solved for sigma, so at least
    grid_t/2 - HULL_TOL in the body's `_unit`; `grid_t` records the winning sweep scale.
    `tradeoff` is s * t * ln(2/t)^exponent.
    """

    sigma: CoordinateSubset
    t: float
    s: float
    delta: float
    tradeoff: float
    grid_t: float
    tradeoff_exponent: float
    estimate: SupEstimate
    sweep: tuple[tuple[float, int], ...] = ()
    favored_grid_t: float | None = None

    def recheck_t(self, norm: PolyhedralNorm, vectors) -> float:
        """Recompute the certified constant: a fresh `ell1_lower_constant` of sigma, which
        solves V's orthant LP alone when it certifies r = V, else every orthant LP."""
        return ell1_lower_constant(norm, vectors, self.sigma)


def dual_body(norm: PolyhedralNorm, vectors) -> VPolytope:
    """Symmetric body conv{+-rows of (f_j(x_i))_ij} in R^n: the hull of `_l1_points`.

    In the coordinates where the vectors become the standard basis, this
    is the polar of the norm's unit ball; its coordinate projections
    containing cubes certify l1 lower bounds for the vector subset.
    """
    points = _l1_points(norm, vectors)
    return VPolytope(points.shape[1], np.unique(points, axis=0))


def elton_subset(
    norm: PolyhedralNorm,
    vectors,
    samples: int = 2000,
    seed=0,
) -> EltonResult:
    """Extract a coordinate subset l1-equivalent to its span.

    One `radius_table` over the grid holds the l1 constants r(support).
    The sweep entry at t is the size of its widest fitting support, the pick
    maximizes s * t over the grid (ties toward larger t), and the reported
    t is r(sigma) read from the table.  The `favored_grid_t` diagnostic
    reports the grid point the averaging weight would single out.  The
    vectors are read by `_l1_points` and must lie in the norm's unit ball.
    """
    points = _l1_points(norm, vectors)
    n = points.shape[1]
    worst = float(np.abs(points).max())  # max_i ||x_i||: column i holds +-f_j(x_i)
    if worst > 1.0 + 1e-9:
        raise ValueError(f"vector norm {worst} exceeds the unit ball")
    estimate = gaussian_sup_mc(points, samples, seed, "rademacher")
    delta = estimate.mean / n

    table, widest = radius_table(points, DEFAULT_T_GRID)
    sweep = [(t, len(widest[t])) for t in DEFAULT_T_GRID]
    best_t, best_score = None, -1.0
    for t, d in sweep:
        score = math.sqrt(d / n) * t
        if score > best_score + 1e-15:
            best_t, best_score = t, score
    support = widest[best_t]
    if not support:
        raise ValueError("no grid scale produced a nonempty cube projection")
    s = math.sqrt(len(support) / n)
    certified = table[support]
    exponent = DEFAULT_CONSTANTS.tradeoff_exponent
    tradeoff = s * certified * math.log(2.0 / certified) ** exponent if certified > 0 else 0.0

    favored, favored_score = None, -math.inf
    for t, d in sweep:
        if 0.0 < t < 1.0 and delta > 0:
            score = math.sqrt(d / n * math.log(2.0 / t)) / (delta * weight_h(t))
            if score > favored_score:
                favored, favored_score = t, score

    return EltonResult(
        sigma=CoordinateSubset(support),
        t=certified,
        s=s,
        delta=delta,
        tradeoff=tradeoff,
        grid_t=best_t,
        tradeoff_exponent=exponent,
        estimate=estimate,
        sweep=tuple(sweep),
        favored_grid_t=favored,
    )


# ---------------------------------------------------------------------------
# The tightness example: conv(l1 ball  union  (1 / (delta sqrt(n))) *
# Euclidean ball), with the standard basis as vectors.
# ---------------------------------------------------------------------------

def exact_tightness_norm(x, delta: float) -> float:
    """Exact norm of the tightness body: max of <x, u> over its polar
    {||u||_inf <= 1, ||u||_2 <= cap}, cap = delta sqrt(n), i.e. the l1-l2
    K-functional (Holmstedt 1970; Montgomery-Smith 1990) in closed form.
    With a = |x| sorted descending and S_j = sum_{i>=j} a_i^2, the maximizer
    saturates a's first j entries, j the first with (cap^2 - j) a_j^2 <= S_j
    (true once cap^2 - j <= 1), and scales the rest to the l2 budget left:
    the norm is sum_{i<j} a_i + sqrt((cap^2 - j) S_j).  a is first scaled by
    a power of two, which is exact, so that its squares do not overflow."""
    absx = np.abs(np.asarray(x, dtype=np.float64))
    n = absx.size
    cap = delta * math.sqrt(n)
    if math.sqrt(n) <= cap or np.count_nonzero(absx) <= cap * cap:
        return float(absx.sum())  # u = sign(x) is feasible
    exp = math.frexp(absx.max())[1]
    a = np.ldexp(np.sort(absx)[::-1], -exp)
    tail = np.cumsum((a * a)[::-1])[::-1]
    room = cap * cap - np.arange(n)
    j = int(np.argmax(room * (a * a) <= tail))
    return math.ldexp(float(a[:j].sum() + math.sqrt(room[j] * tail[j])), exp)


@dataclass(frozen=True)
class RudelsonInstance:
    """Polyhedral approximation of the tightness example.

    Functionals are points on the boundary of the polar region
    B_inf  intersect  (delta sqrt(n)) B_2: the scaled sign vectors, the
    standard basis, and a scaled random spherical net.  Every functional
    lies inside the polar, so the approximate norm underestimates the
    exact one and the s*t <= delta check errs on the conservative side;
    norm_slack reports the largest relative underestimate seen on random
    probe directions.
    """

    norm: PolyhedralNorm
    vectors: np.ndarray
    delta: float
    norm_slack: float


def rudelson_example(n: int, delta: float, net_size: int = 64, seed: int = 0) -> RudelsonInstance:
    if n < 1 or n > CUBE_DIM_BUDGET:
        raise ValueError(f"n must lie in [1, {CUBE_DIM_BUDGET}], got {n}")
    if not (1.0 / math.sqrt(n) - 1e-12 <= delta <= 1.0):
        raise ValueError(f"delta must lie in [1/sqrt(n), 1], got {delta}")
    if net_size < 0:
        raise ValueError(f"net_size must be >= 0, got {net_size}")
    cap = delta * math.sqrt(n)

    def clip_into_polar(u: np.ndarray) -> np.ndarray:
        linf = np.abs(u).max()
        l2 = float(np.linalg.norm(u))
        lam = min(1.0 / linf if linf > 0 else math.inf, cap / l2 if l2 > 0 else math.inf)
        return u * lam

    directions = []
    for bits in range(1 << (n - 1)):
        signs = [1.0] + [1.0 if bits >> j & 1 else -1.0 for j in range(n - 1)]
        directions.append(np.array(signs))
    directions.extend(np.eye(n))
    rng = np.random.default_rng(seed)
    for _ in range(net_size):
        u = rng.standard_normal(n)
        norm2 = np.linalg.norm(u)
        if norm2 > 1e-12:
            directions.append(u / norm2)
    functionals = np.array([clip_into_polar(u) for u in directions])
    norm = PolyhedralNorm(n, functionals)

    slack = 0.0
    for _ in range(NORM_SLACK_PROBES):
        x = rng.standard_normal(n)
        exact = exact_tightness_norm(x, delta)
        approx = norm.norm(x)
        if exact > 0:
            slack = max(slack, 1.0 - approx / exact)
    return RudelsonInstance(norm, np.eye(n), delta, slack)

"""l1-subset extraction for vectors in the unit ball of a polyhedral norm.

Given x_1, ..., x_n with E || sum eps_i x_i || >= delta * n, a coordinate
subset sigma of size s^2 n exists on which the vectors are t-equivalent
to the l1 basis with s, t comparable to delta.  The driver estimates delta
by Monte Carlo and walks the coordinate lattice once, solving the orthant
LPs for the l1 constant r(sigma) of each visited subset.  By duality r is
the half-side of the largest centred cube in the projection on sigma of
B = conv{+-(f_j(x_i))_i}, so the scale sweep and the certified constant of
the winning subset are both read off that one table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import DEFAULT_CONSTANTS
from .family import CoordinateSubset
from .gaussian import SupEstimate, gaussian_sup_mc, weight_h
from .geometry import CUBE_DIM_BUDGET, HULL_TOL, PolyhedralNorm, VPolytope, ell1_lower_constant
from .geometry import passing_supports
from .geometry import convex_vc  # noqa: F401  perfbench/spans.py wraps convex_vc at this name

DEFAULT_T_GRID = tuple(2.0 ** -j for j in range(1, 9))  # the sweep scales, descending
NORM_SLACK_PROBES = 256
RUDELSON_MAX_DIM = 12


@dataclass(frozen=True)
class EltonResult:
    """Certified l1 subset: sigma with |sigma| = s^2 n and l1 constant t.

    `t` is r(sigma), the orthant-LP constant the walk solved for sigma, so
    at least grid_t/2 - HULL_TOL; `grid_t` records the winning sweep scale.
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
        """Recompute the certified constant: a fresh run of the same orthant LPs."""
        return ell1_lower_constant(norm, vectors, self.sigma)


def dual_body(norm: PolyhedralNorm, vectors) -> VPolytope:
    """Symmetric body conv{+-rows of (f_j(x_i))_ij} in R^n.

    In the coordinates where the vectors become the standard basis, this
    is the polar of the norm's unit ball; its coordinate projections
    containing cubes certify l1 lower bounds for the vector subset.
    """
    vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    w = norm.functionals @ vectors.T  # (n_func, n)
    verts = np.unique(np.vstack([w, -w]), axis=0)
    return VPolytope(vectors.shape[0], verts, symmetric=True)


def elton_subset(
    norm: PolyhedralNorm,
    vectors,
    samples: int = 2000,
    seed=0,
    kind: str = "rademacher",
    cube_budget: int = CUBE_DIM_BUDGET,
) -> EltonResult:
    """Extract a coordinate subset l1-equivalent to its span.

    One lattice walk fills a table of l1 constants r(support).  The sweep
    entry at t is the largest size of a support with r >= t/2 - HULL_TOL,
    the pick maximizes s * t over the grid (ties toward larger t), and the
    reported t is r(sigma) read from the table.  The `favored_grid_t`
    diagnostic reports the grid point the averaging weight would single out.
    """
    vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    n = vectors.shape[0]
    worst = max(norm.norm(x) for x in vectors)
    if worst > 1.0 + 1e-9:
        raise ValueError(f"vector norm {worst} exceeds the unit ball")
    w = norm.functionals @ vectors.T
    estimate = gaussian_sup_mc(np.vstack([w, -w]), samples, seed, kind)
    delta = estimate.mean / n

    radius: dict[tuple[int, ...], float] = {}

    def passes(support: tuple[int, ...], t: float) -> bool:
        if support not in radius:
            sigma = CoordinateSubset(support)
            radius[support] = ell1_lower_constant(norm, vectors, sigma, budget=cube_budget)
        return radius[support] >= t / 2.0 - HULL_TOL

    # As in convex_vc, a probe of the full support settles every scale it
    # passes.  r only shrinks as a support grows, so one walk at the finest
    # unsettled scale visits every support that passes at a coarser one.
    table = [tuple(range(n))] if n <= cube_budget else []
    unsettled = [t for t in DEFAULT_T_GRID if not (table and passes(table[0], t))]
    if unsettled:
        table += passing_supports(n, lambda support: passes(support, unsettled[-1]))

    def best_at(t: float) -> tuple[int, ...]:  # max keeps the lexicographically first
        return max((sup for sup in table if passes(sup, t)), key=len, default=())

    sweep = [(t, len(best_at(t))) for t in DEFAULT_T_GRID]
    best_t, best_score = None, -1.0
    for t, d in sweep:
        score = math.sqrt(d / n) * t
        if score > best_score + 1e-15:
            best_t, best_score = t, score
    support = best_at(best_t) if best_t is not None else ()
    if not support:
        raise ValueError("no grid scale produced a nonempty cube projection")
    s = math.sqrt(len(support) / n)
    certified = radius[support]
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
    """Exact norm of the tightness body: max of <x, u> over the polar
    region {||u||_inf <= 1, ||u||_2 <= delta sqrt(n)}, computed by
    water-filling u_i = sign(x_i) min(1, nu |x_i|) with a bisection on nu."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    cap = delta * math.sqrt(n)
    absx = np.abs(x)
    if math.sqrt(n) <= cap:
        return float(absx.sum())

    def l2_at(nu: float) -> float:
        return float(np.sqrt((np.minimum(1.0, nu * absx) ** 2).sum()))

    lo, hi = 0.0, 1.0
    while l2_at(hi) < cap:
        hi *= 2.0
        if hi > 1e18:
            break
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if l2_at(mid) < cap:
            lo = mid
        else:
            hi = mid
    nu = (lo + hi) / 2.0
    return float((absx * np.minimum(1.0, nu * absx)).sum())


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
    if n < 1 or n > RUDELSON_MAX_DIM:
        raise ValueError(f"n must lie in [1, {RUDELSON_MAX_DIM}]")
    if not (1.0 / math.sqrt(n) - 1e-12 <= delta <= 1.0):
        raise ValueError(f"delta must lie in [1/sqrt(n), 1], got {delta}")
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

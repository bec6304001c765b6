"""Lp(mu) distances, separation tests, packing and covering numbers.

Packing and covering are exact up to PACKING_EXACT_LIMIT and
COVERING_EXACT_LIMIT rows; past them the greedy count is returned,
flagged as a one-sided bound.

Conventions: a pair is t-separated when its distance is strictly greater
than t; a ball of radius t uses non-strict membership (distance <= t).
Covering is internal: centers are drawn from the family itself.  With
these conventions the sandwich covering(t) <= packing(t) <= covering(t/2)
holds exactly.
"""

from __future__ import annotations

import math
import numpy as np

from .errors import NotSeparatedError
from .family import FunctionFamily, ProbabilityMeasure, row_masks

PACKING_EXACT_LIMIT = 30
COVERING_EXACT_LIMIT = 25


def lp_distance(f, g, measure: ProbabilityMeasure, p: float = 2.0) -> float:
    """(sum_i w_i |f(i) - g(i)|^p)^(1/p); p = math.inf takes the max over
    coordinates of positive weight."""
    f = np.asarray(f, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if f.shape != g.shape or f.ndim != 1:
        raise ValueError(f"row length mismatch: {f.shape} vs {g.shape}")
    if f.shape[0] != measure.size:
        raise ValueError(f"rows have {f.shape[0]} entries, measure has {measure.size}")
    diff = np.abs(f - g)
    if p == math.inf:
        support = measure.weights > 0
        return float(diff[support].max()) if support.any() else 0.0
    if not p >= 1:
        raise ValueError(f"p must be >= 1 or inf, got {p!r}")
    return float(np.dot(measure.weights, diff**p) ** (1.0 / p))


BLOCK_ENTRIES = 8192  # Gram-form squares made at once: a 64 KB block stays in cache


def squares_from_gram(vals: np.ndarray, weights: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Squared L2(weights) distances between the rows of vals, written
    over their weighted Gram matrix: entry (i, j), i < j, holds pair
    (i, j)'s square, the diagonal and lower triangle hold 0.  The Gram
    form g_ii + g_jj - 2 g_ij is off by a few ulps of g_ii + g_jj, so a
    value above 2e-4 of the largest g_ii keeps about 11 digits; smaller
    ones off the diagonal (cancellation range) are recomputed from
    differences, those of both triangles in one row-major matrix-vector
    product (BLAS may round a row differently in a product of another
    shape).  The squares are made one row block of about BLOCK_ENTRIES
    at a time, so no other matrix as large as gram is alive."""
    m = len(gram)
    norms = gram.diagonal().copy()
    limit = 2e-4 * norms.max()
    step = min(m, max(1, BLOCK_ENTRIES // m))
    lead = np.tri(step, dtype=bool)  # a block's pairs (first + r, first + c), c <= r
    close = []
    for first in range(0, m, step):
        block = gram[first:first + step]
        rows = len(block)
        np.subtract(norms[first:first + rows, None] + norms, 2.0 * block, out=block)
        near = block <= limit
        np.fill_diagonal(near[:, first:], False)
        if near.any():
            i, j = np.nonzero(near)
            close.append((i + first, j))
        block[:, :first] = 0.0
        block[:, first:first + rows][lead[:rows, :rows]] = 0.0
    if close:
        i, j = (np.concatenate(side) for side in zip(*close))
        upper = i < j
        gram[i[upper], j[upper]] = ((vals[i] - vals[j]) ** 2 @ weights)[upper]
    return gram


def distances_from_gram(vals: np.ndarray, weights: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """L2(weights) distances between the rows of vals from their weighted
    Gram matrix, which is consumed: the distances are written over it,
    from `squares_from_gram`.  The upper triangle is mirrored, so the
    matrix is exactly symmetric."""
    squares_from_gram(vals, weights, gram)
    np.maximum(gram, 0.0, out=gram)
    np.sqrt(gram, out=gram)
    side = math.isqrt(BLOCK_ENTRIES)  # one row strip at a time, so the transposed read stays in cache
    for first in range(0, len(gram), side):
        gram[first:first + side, :first] = gram[:first, first:first + side].T
        tile = gram[first:first + side, first:first + side]
        tile += tile.T  # its lower triangle holds 0, and x + 0 is x
    return gram


def pairwise_distances(family: FunctionFamily, measure: ProbabilityMeasure, p: float = 2.0) -> np.ndarray:
    """Symmetric m x m matrix of Lp(mu) distances between rows."""
    if not p >= 1:
        raise ValueError(f"p must be >= 1 or inf, got {p!r}")
    vals = family.values
    m = family.size
    if p == 2.0:
        # Weighted Gram trick keeps this O(m^2 n) in vectorized numpy.
        w = measure.weights
        return distances_from_gram(vals, w, (vals * w) @ vals.T)
    out = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            out[i, j] = out[j, i] = lp_distance(vals[i], vals[j], measure, p)
    return out


def first_violating_pair(family: FunctionFamily, measure: ProbabilityMeasure, t: float):
    """First pair (i, j, L2 distance) with distance <= t, or None."""
    dist = pairwise_distances(family, measure)
    hits = np.argwhere(np.triu(dist <= t, 1))  # row-major, so the first pair comes first
    if not hits.size:
        return None
    i, j = hits[0]
    return int(i), int(j), float(dist[i, j])


def not_separated(t: float, bad, where: str = "") -> NotSeparatedError:
    """The error for the pair (i, j, distance) that first_violating_pair found."""
    i, j, d = bad
    return NotSeparatedError(f"family is not {t}-separated{where}: rows {i} and {j} at distance {d}",
                             pair=(i, j), distance=d)


def is_separated(family: FunctionFamily, measure: ProbabilityMeasure, t: float) -> bool:
    """True iff every pair of distinct rows is at L2 distance strictly > t."""
    if not t > 0:
        raise ValueError(f"separation scale must be positive, got {t!r}")
    return first_violating_pair(family, measure, t) is None


# ---------------------------------------------------------------------------
# Packing: maximum subset with all pairwise distances > t.  The exact count
# is a maximum-clique branch and bound on the "distance > t" graph.
# ---------------------------------------------------------------------------

def _max_clique_size(sel: np.ndarray) -> int:
    """Clique number of the graph with boolean adjacency matrix sel."""
    n = len(sel)
    order = np.argsort(-sel.sum(axis=1), kind="stable")  # degree descending, then index
    radj = row_masks(sel[np.ix_(order, order)])
    best = 1 if n else 0

    def expand(cand: int, size: int):
        nonlocal best
        while cand:
            if size + cand.bit_count() <= best:
                return
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            nxt = radj[v] & cand
            if size + 1 + nxt.bit_count() > best:
                expand(nxt, size + 1)
            if size + 1 > best:
                best = size + 1

    expand((1 << n) - 1, 0)
    return best


def _greedy_packing(dist: np.ndarray, t: float) -> int:
    chosen: list[int] = []
    for i in range(dist.shape[0]):
        if all(dist[i, j] > t for j in chosen):
            chosen.append(i)
    return len(chosen)


def packing_number(
    family: FunctionFamily,
    measure: ProbabilityMeasure,
    t: float,
    p: float = 2.0,
) -> tuple[int, str]:
    """Maximal size of a t-separated subset.

    Returns (count, flag): flag "exact" up to PACKING_EXACT_LIMIT rows,
    past it "lower-bound" with the size of a greedy maximal-by-inclusion
    subset.
    """
    if not t > 0:
        raise ValueError(f"packing scale must be positive, got {t!r}")
    return _packing_from_distances(pairwise_distances(family, measure, p), t)


def _packing_from_distances(dist: np.ndarray, t: float) -> tuple[int, str]:
    """packing_number at scale t > 0 from the family's distance matrix."""
    if len(dist) > PACKING_EXACT_LIMIT:
        return _greedy_packing(dist, t), "lower-bound"
    return _max_clique_size(dist > t), "exact"  # dist[i, i] = 0 < t


# ---------------------------------------------------------------------------
# Covering: minimum number of balls of radius t centered at family rows.
# The exact count is a set-cover branch and bound.
# ---------------------------------------------------------------------------

def _greedy_cover(ball: list[int], universe: int) -> list[int]:
    covered = 0
    chosen = []
    while covered != universe:
        gain, pick = -1, -1
        for i, b in enumerate(ball):
            g = (b & ~covered).bit_count()
            if g > gain:
                gain, pick = g, i
        covered |= ball[pick]
        chosen.append(pick)
    return chosen


def _exact_cover_size(ball: list[int], m: int) -> int:
    universe = (1 << m) - 1
    best = len(_greedy_cover(ball, universe))
    max_ball = max(b.bit_count() for b in ball)
    covers = [[i for i in range(m) if ball[i] >> e & 1] for e in range(m)]

    def bnb(covered: int, used: int):
        nonlocal best
        if covered == universe:
            best = min(best, used)
            return
        todo = universe & ~covered
        if used + math.ceil(todo.bit_count() / max_ball) >= best:
            return
        # Branch on the first uncovered element with the fewest covering balls.
        for i in min((covers[e] for e in range(m) if todo >> e & 1), key=len):
            bnb(covered | ball[i], used + 1)

    bnb(0, 0)
    return best


def covering_number(
    family: FunctionFamily,
    measure: ProbabilityMeasure,
    t: float,
    p: float = 2.0,
) -> tuple[int, str]:
    """Minimal number of radius-t balls centered at rows covering the family.

    Returns (count, flag): flag "exact" up to COVERING_EXACT_LIMIT rows,
    past it "upper-bound" with the size of the greedy cover.
    """
    if not t > 0:
        raise ValueError(f"covering scale must be positive, got {t!r}")
    dist = pairwise_distances(family, measure, p)
    m = family.size
    ball = row_masks(dist <= t)
    if m > COVERING_EXACT_LIMIT:
        return len(_greedy_cover(ball, (1 << m) - 1)), "upper-bound"
    return _exact_cover_size(ball, m), "exact"

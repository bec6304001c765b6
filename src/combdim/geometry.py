"""Vertex-represented polytopes, polyhedral norms, and the cube-in-
projection certificates that tie shattering of convex bodies to
l1-equivalence constants.

All predicates reduce to small dense LPs whose origin is feasible: hull
membership is a gauge of at most 1 + HULL_TOL about the vertex mean
(`_separate`), and the inscribed radius r of a symmetric body (the
half-side of its largest centred cube) is one LP per sign orthant over
weights on the vertices, |sigma| + 1 rows however many vertices.
A body is one point matrix (rows), and its projection on a support
sigma is the column slice points[:, sigma].  The orthant LPs of the
supports in a call share their costs, right-hand sides and point count,
so they run as stacks through the simplex loop, LPs of smaller |sigma|
padded with inert rows, each LP on a working set of its points that
pricing with the LP's duals grows until no point of the set improves it
(column generation).  Single vertices bound r from below (weak duality),
and when that bound V is positive, `_inscribed_radius` runs the LP of the
orthant where it is least first: an optimum of at most V certifies
r = V, and no other orthant runs.  A symmetric body holds a side-t cube iff r >= t/2
- HULL_TOL in its `_unit`.  `radius_table` solves the full support
first, with every other support in the same run when V fails the
coarsest scale and all their LPs fit one stack, else by
`_inscribed_radius`; it then walks the coordinate lattice once for all
scales of a question, solving each level it reaches, and gives each
scale's widest fitting support to `convex_vc` and the elton sweep.  A
cube in any other body is found by cutting planes (Kelley 1960) on gauge LPs.
The l1 constant is r of conv{+-(f_j(x_i))} (exact for polyhedral norms).
Symmetry is read from the vertices, never declared.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, SolverError
from .family import CoordinateSubset, decimal_rows, read_json, read_rows, read_size, write_json
from .simplex import FEAS_TOL, LPProblem, lp_solve
from .simplex import _append_columns, _duals, _ordered_dot, _phase2, _tableau

HULL_TOL = 1e-9
CUBE_DIM_BUDGET = 15
# Entries of one stacked orthant solve (8 bytes each): its starting restricted
# tableaux and its pricing products, one reduced cost per point and LP.  A
# memory bound: a full support of 12 coordinates has 2,048 orthant LPs, so
# over 4,248 points (the size of rudelson_example(12, .)) one stack would
# hold 8.7 M reduced costs per pricing pass.
STACK_ENTRY_LIMIT = 150_000


@dataclass(frozen=True, eq=False)
class VPolytope:
    """Convex body given as the hull of finitely many vertices.  It is
    `symmetric` when every -v is a vertex, up to 1e-12 times the largest
    absolute vertex entry."""

    dimension: int
    vertices: np.ndarray
    symmetric: bool = field(init=False)

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError(f"polytope dimension must be at least 1, got {self.dimension}")
        verts = np.atleast_2d(np.asarray(self.vertices, dtype=np.float64))
        if verts.shape[0] < 1 or verts.shape[1] != self.dimension:
            raise ValueError(
                f"vertices must be nonempty points in dimension {self.dimension}"
            )
        if not np.all(np.isfinite(verts)):
            raise ValueError("vertices must have finite coordinates")
        verts.setflags(write=False)
        object.__setattr__(self, "vertices", verts)
        # Match each -v exactly first (+ 0.0 turns -0.0 into 0.0), then
        # search within the tolerance only for the vertices left unmatched.
        rows = {row.tobytes() for row in verts + 0.0}
        tol = 1e-12 * np.abs(verts).max()
        symmetric = all(np.abs(verts + v).max(axis=1).min() <= tol
                        for v in verts if (0.0 - v).tobytes() not in rows)
        object.__setattr__(self, "symmetric", symmetric)


@dataclass(frozen=True, eq=False)
class PolyhedralNorm:
    """Norm x -> max_j |<f_j, x>| over finitely many functionals."""

    dimension: int
    functionals: np.ndarray

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError(f"norm dimension must be at least 1, got {self.dimension}")
        funcs = np.atleast_2d(np.asarray(self.functionals, dtype=np.float64))
        if funcs.shape[1] != self.dimension:
            raise ValueError(f"functionals must live in dimension {self.dimension}")
        if not np.all(np.isfinite(funcs)):
            raise ValueError("functionals must have finite entries")
        if np.linalg.matrix_rank(funcs) < self.dimension:
            raise ValueError("degenerate norm: functionals do not span the space")
        funcs.setflags(write=False)
        object.__setattr__(self, "functionals", funcs)

    def norm(self, x) -> float:
        x = np.asarray(x, dtype=np.float64)
        return float(np.abs(self.functionals @ x).max())


def point_in_hull(poly: VPolytope, point) -> bool:
    """Is the gauge of the hull at the point at most 1 + HULL_TOL (`_normalized` units)?"""
    point = np.asarray(point, dtype=np.float64)
    if point.shape != (poly.dimension,):
        raise ValueError(f"point must have dimension {poly.dimension}")
    if not np.all(np.isfinite(point)):
        raise ValueError("point must have finite coordinates")
    pts, mean, factor = _normalized(poly.vertices)
    return bool(_separate(pts, ((point - mean) / factor)[None])[0][0] <= 1.0 + HULL_TOL)


def _unit(peak: float) -> float:
    """The power of two nearest a body's largest absolute entry (1 for 0): its tolerances' unit."""
    return 2.0 ** round(math.log2(peak)) if peak > 0 else 1.0


def _normalized(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """The points (rows) centred on their mean and divided by their `_unit`,
    with the mean and factor: tolerances are relative to the body's size."""
    mean = points.mean(axis=0)
    centred = points - mean
    factor = _unit(np.abs(centred).max())
    return centred / factor, mean, factor


def _separate(points: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The gauge of the hull of the points (rows, their mean the origin)
    at each x (rows of xs), |x|_inf / mu for the LP max mu subject to mu x^
    = P^T y (two blocks of rows) and sum(y) <= 1, x^ = x / |x|_inf (inf
    off the points' span), and a cut normal: the duals u, v, w of the
    blocks give a = u - v with a . p_j <= w = mu for every point and a . x^
    >= 1 (Rockafellar 1970, sections 14-15).  Right-hand sides are 0 or 1
    and mu <= max_j |p_j|_inf, so the LPs (2k + 1 rows) run as stacks
    within STACK_ENTRY_LIMIT entries."""
    n_pts, k = points.shape
    norms = np.abs(xs).max(axis=1)
    b_ub, c = np.r_[np.zeros(2 * k), 1.0], np.r_[-1.0, np.zeros(n_pts)]
    size = max(1, STACK_ENTRY_LIMIT // ((2 * k + 1) * (n_pts + 2 * k + 3)))
    gauges, normals = np.where(norms > 0.0, np.inf, 0.0), np.zeros((len(xs), k))
    away = np.flatnonzero(norms > 0.0)  # x = 0 has gauge 0 and no LP
    for lps in (away[lo : lo + size] for lo in range(0, away.size, size)):
        a_ub = np.zeros((lps.size, 2 * k + 1, n_pts + 1))
        a_ub[:, :-1, 0] = np.c_[xs[lps], -xs[lps]] / norms[lps, None]
        a_ub[:, :, 1:] = np.r_[-points.T, points.T, np.ones((1, n_pts))]
        tableau, basis = _tableau(a_ub, b_ub)
        status, x = _phase2(c, tableau, basis, a_ub, b_ub)
        assert status == "optimal", "gauge LPs are bounded: mu <= max_j |p_j|_inf"
        duals = _duals(c, tableau, basis)  # -(u, v, w)
        gauges[lps] = np.divide(norms[lps], x[:, 0], out=gauges[lps], where=x[:, 0] > 0.0)
        normals[lps] = duals[:, k:-1] - duals[:, :k]
    return gauges, normals


@dataclass(frozen=True)
class CubeWitness:
    """Corner h of the cube h + [0, side]^sigma inside the projection."""

    sigma: CoordinateSubset
    side: float
    translation: tuple[float, ...]


def cube_in_projection(
    poly: VPolytope,
    sigma: CoordinateSubset,
    t: float,
) -> CubeWitness | None:
    """Does the coordinate projection contain a cube of side t?

    A symmetric body contains a side-t cube iff it contains the centred
    one (average the cube with its reflection), iff its inscribed radius
    on sigma is at least t/2 - HULL_TOL in the body's `_unit`.  Any other
    body, `_normalized` on sigma so that cuts a . y <= b have b >= 0, is
    cut down from its box: a master LP maximizes s subject to a . h + s *
    sum_i max(a_i, 0) <= b on every cut.  s < t - 2 HULL_TOL: no cube;
    every corner of h + min(s, t) [0, 1]^sigma of gauge at most 1 +
    HULL_TOL (`_separate`): witness h; else the corners outside add cuts.
    Boundary membership counts (closed bodies).
    """
    if not t > 0:
        raise ValueError("cube side must be positive")
    sigma.validate_against(poly.dimension)
    k = _within_budget(len(sigma))
    if k == 0:
        return CubeWitness(sigma, t, ())
    pts = poly.vertices[:, list(sigma)]
    if poly.symmetric:
        unit = _unit(np.abs(poly.vertices).max())
        if _box_cut(pts, t, unit) or not _fits(_inscribed_radius(pts, range(k)), t, unit):
            return None
        return CubeWitness(sigma, t, (-t / 2.0,) * k)

    pts, mean, factor = _normalized(pts)
    side = t / factor
    corners = np.array(list(itertools.product((0.0, 1.0), repeat=k)))

    def cuts_of(normals):  # rows (a, b); b >= 0 but for roundoff: the origin is inside
        return np.c_[normals, np.maximum((normals @ pts.T).max(axis=1), 0.0)]

    cuts = cuts_of(np.vstack([np.eye(k), -np.eye(k)]))  # the box facets
    while True:
        a = cuts[:, :k]  # h = h+ - h-
        x = lp_solve(LPProblem(np.r_[np.zeros(2 * k), -1.0],
                               np.c_[a, -a, np.maximum(a, 0.0).sum(axis=1)], cuts[:, k])).x
        h, s = x[:k] - x[k:-1], x[-1]
        if s < side - 2.0 * HULL_TOL:
            return None
        gauges, normals = _separate(pts, h + min(s, side) * corners)
        outside = np.argsort(-gauges, kind="stable")[: np.count_nonzero(gauges > 1.0 + HULL_TOL)]
        if not outside.size:
            return CubeWitness(sigma, t, tuple((h * factor + mean).tolist()))
        # at most |sigma| new cuts a round, as the master's tableau is dense; a cut
        # within HULL_TOL of one held is its roundoff twin, which makes bases singular
        count = len(cuts)
        for cut in cuts_of(normals[outside]):
            if np.abs(cuts - cut).max(axis=1).min() > HULL_TOL:
                cuts = np.vstack([cuts, cut])
                if len(cuts) == count + k:
                    break
        if len(cuts) == count:
            raise SolverError(f"cutting planes stalled on |sigma| = {k}: no corner gave a new cut")


def passing_supports(n: int, passes) -> list[tuple[int, ...]]:
    """The nonempty supports in range(n) that pass a downward-closed
    predicate, by size and then lexicographically.  A support is a
    candidate only when all its one-smaller subsets passed; `passes` takes
    the candidate list of one size and returns one bool per candidate."""
    level = [(i,) for i in range(n)]
    found = []
    while level:
        level = [sup for sup, ok in zip(level, passes(level)) if ok]
        found += level
        level = _candidates(level, n)
    return found


def _candidates(level: list[tuple[int, ...]], n: int) -> list[tuple[int, ...]]:
    """The supports in range(n) one larger than those of `level` (one size,
    lexicographic) all of whose one-smaller subsets are in it, in order."""
    prev = set(level)
    return [c for c in (sup + (j,) for sup in level for j in range(sup[-1] + 1, n))
            if all(c[:i] + c[i + 1 :] in prev for i in range(len(c)))]


def _box_cut(points: np.ndarray, t: float, unit: float) -> bool:
    """Is some width of the point set (rows) below t - 2 HULL_TOL unit?  Then
    no side-t cube fits, and a symmetric set has r <= width/2, failing `_fits`."""
    return bool((points.max(axis=0) - points.min(axis=0)).min() < t - 2.0 * HULL_TOL * unit)


def _fits(radius: float, t: float, unit: float) -> bool:
    """The cube rule: a symmetric body of inscribed radius r and `_unit` holds a side-t cube."""
    return radius >= t / 2.0 - HULL_TOL * unit


def radius_table(points: np.ndarray, scales) -> tuple[dict[tuple[int, ...], float],
                                                      dict[float, tuple[int, ...]]]:
    """Inscribed radius of the symmetric point set `points` (rows, n
    columns) on each support in range(n) the walk reaches, its set the
    slice points[:, support], and each scale's widest support holding a
    side-t cube (the first of equals, () if none).  A probe of the full
    support (within CUBE_DIM_BUDGET) settles each scale it passes; it is
    spared when `_box_cut` rejects the full set at the finest scale, which
    then rejects it at every scale.  r only shrinks as a support grows, so
    one walk at the finest scale the probe fails visits every support
    passing at a coarser one, in lexicographic order within a size.

    When `_vertex_bound` V fails the coarsest scale and all (3^n - 1)/2
    orthant LPs fit one stack, the probe takes every other support along
    in its run; else it is the full support's `_inscribed_radius`, V's one
    orthant LP when that certifies r = V.  The full support's radius
    enters the table right after the probe, ahead of the walk's radii;
    any other radius enters when the walk reaches its support, so the
    table's keys and their order do not depend on which supports were
    solved ahead.
    """
    n = points.shape[1]
    unit = _unit(np.abs(points).max())
    table: dict[tuple[int, ...], float] = {}
    solved: dict[tuple[int, ...], float] = {}

    def solve(supports) -> None:
        # the radii of the supports not yet solved, into `solved`
        new = [sup for sup in supports if sup not in solved]
        solved.update(zip(new, map(_radius, _orthant_optima(points, new))))

    def passes(level: list[tuple[int, ...]], t: float) -> list[bool]:
        solve(level)
        table.update((sup, solved[sup]) for sup in level)
        return [_fits(solved[sup], t, unit) for sup in level]

    full = tuple(range(n))
    if n <= CUBE_DIM_BUDGET and not _box_cut(points, min(scales), unit):
        vertex = _vertex_bound(points)
        if (not _fits(vertex[0], max(scales), unit)
                and (3 ** n - 1) // 2 * _lp_entries(len(points), n) <= STACK_ENTRY_LIMIT):
            solve([full] + [sup for k in range(1, n)
                            for sup in itertools.combinations(range(n), k)])
        else:
            solved[full] = _inscribed_radius(points, full, vertex)
        table[full] = solved[full]
    unsettled = [t for t in scales if not (full in table and _fits(table[full], t, unit))]
    if unsettled:
        passing_supports(n, lambda level: passes(level, min(unsettled)))
    widest = {t: max((sup for sup, r in table.items() if _fits(r, t, unit)), key=len, default=())
              for t in scales}
    return table, widest


def _vertex_bound(points: np.ndarray) -> tuple[float, np.ndarray]:
    """A lower bound of r on the full support of the point set (rows),
    with an orthant attaining it: max(0, min over the sign orthants theta,
    first sign +, of max_j min_i theta_i p_ji), weak duality with y = e_j.
    Only a point of sign vector theta scores above 0 on theta, and it
    scores min_i |p_ji| there; so each code of n sign bits (coordinate 0
    the highest, a zero coordinate counted +, where the point scores 0
    anyway) keeps the best score of its points, 0 if it has none, and the
    bound is the least over the codes of first sign +, the first least
    code's orthant the row 2^(n-1) - 1 - code of `_orthants(n)`.  -theta
    is kept apart from theta, so the bound holds for any point set,
    symmetric or not."""
    n = points.shape[1]
    coords = points.T.copy()  # numpy reduces a short axis of rows slowly
    codes = (1 << np.arange(n - 1, -1, -1)) @ (coords < 0.0)
    best = np.zeros(1 << n)
    np.maximum.at(best, codes, np.abs(coords).min(axis=0))
    code = int(best[: 1 << (n - 1)].argmin())
    return float(best[code]), _orthants(n)[(1 << (n - 1)) - 1 - code]


def convex_vc(poly: VPolytope, t: float) -> tuple[int, CoordinateSubset]:
    """Largest |sigma| whose projection contains a side-t cube, and the
    lexicographically smallest such sigma.  A symmetric body reads it off
    the `radius_table` of its vertices; any other body walks
    `passing_supports` with the cutting planes of `cube_in_projection`
    (sub-projections of a contained cube are contained).
    """
    if not t > 0:
        raise ValueError("cube side must be positive")
    n = poly.dimension
    if poly.symmetric:
        best = radius_table(poly.vertices, (t,))[1][t]
    else:
        best = max(passing_supports(n, lambda level: [cube_in_projection(
            poly, CoordinateSubset(sup), t) is not None for sup in level]), key=len, default=())
    return len(best), CoordinateSubset(best)


def _orthant_optima(points: np.ndarray, supports) -> list[np.ndarray]:
    """Orthant-LP optima of the symmetric point set `points` (rows) on
    each of the nonempty supports, one array per support over its sign
    orthants, in the points' units.  For a sign orthant theta (first sign
    +, since theta ~ -theta) of sigma the LP in weights y >= 0 on the
    points and mu maximizes mu subject to mu <= theta_i (points^T y)_i, i
    in sigma, and sum(y) <= 1: |sigma| + 1 rows with right-hand sides 0
    and 1.  The LPs run by column generation (`_generate_columns`) in
    stacks taken in order (`_stacks`).
    """
    ks = [len(sup) for sup in supports]
    _within_budget(max(ks, default=0))
    optima: list[np.ndarray] = []
    for stack in _stacks(len(points), ks):
        # The stack's slices zero-padded to its largest |sigma|
        # (`_generate_columns` keeps the padding out of every LP), each
        # divided by its `_unit` for the solver's absolute tolerances, exactly
        # (r is homogeneous in the points), its optima scaled back.
        block = np.zeros((len(stack), len(points), max(ks[s] for s, _, _ in stack)))
        for sliced, (s, _, _) in zip(block, stack):
            sliced[:, : ks[s]] = points[:, supports[s]]
        factors = [_unit(p) for p in np.abs(block).max(axis=(1, 2)).tolist()]
        block /= np.array(factors)[:, None, None]
        found = _generate_columns(block, [_orthants(ks[s])[lo:hi] for s, lo, hi in stack])
        for (s, lo, _), values, factor in zip(stack, found, factors):
            values = values * factor
            if lo == 0:  # supports come in order, each whole or in consecutive shares
                optima.append(values)
            else:
                optima[s] = np.concatenate([optima[s], values])
    return optima


@functools.cache
def _orthants(k: int) -> np.ndarray:
    """The 2^(k-1) sign orthants theta of k coordinates, first sign +, the
    others in `itertools.product` order (- before +)."""
    theta = np.array([(1.0,) + signs for signs in itertools.product((-1.0, 1.0), repeat=k - 1)])
    theta.setflags(write=False)
    return theta


def _stacks(n_pts: int, ks):
    """The stacks, as lists of (support, first orthant, end orthant), of
    the orthant LPs of supports of sizes ks on n_pts points, in order, cut
    by one greedy pass: a stack takes the next LP as long as all its LPs,
    padded to its grown largest k (`_generate_columns` pads them), stay
    within STACK_ENTRY_LIMIT entries of starting tableaux and pricing
    products; one LP always fits.  A support runs whole or in consecutive
    shares of its orthants."""

    stack, top, lps = [], 0, 0
    for s, k in enumerate(ks):
        lo, count = 0, 1 << (k - 1)
        while lo < count:
            room = STACK_ENTRY_LIMIT // _lp_entries(n_pts, max(top, k)) - lps
            if stack and room < 1:
                yield stack
                stack, top, lps = [], 0, 0
                continue
            hi = min(count, lo + max(room, 1))
            stack.append((s, lo, hi))
            top, lps, lo = max(top, k), lps + hi - lo, hi
    if stack:
        yield stack


def _lp_entries(n_pts: int, k: int) -> int:
    """Entries of one orthant LP padded to k coordinates on n_pts points in
    a stack: mu, the working set, k + 1 slacks and the rhs on k + 1 rows,
    and one reduced cost per point (the score, then the pricing product)."""
    return (k + 1) * (min(n_pts, 2 * k) + k + 3) + n_pts


def _generate_columns(points: np.ndarray, thetas) -> list[np.ndarray]:
    """Optima of the orthant LPs of point sets in sign orthants, one stack:
    set s is points[s] (sets, n_pts, k), its coordinates past its own k
    zero, and runs in the orthants thetas[s] (orthants, its k); each gives
    an array over its orthants.

    Each LP starts on a working set of its min(n_pts, 2k) points of
    largest theta-score sum_i theta_i p_i, best first and ties to the
    smaller index, its columns after mu.  Once the restricted stack is
    optimal, the duals c_B B^-1 read off the slack block price every point
    of each LP's set; an LP appends its (at most k) points of least
    reduced cost below -FEAS_TOL that are not yet in its working set,
    least first, as columns B^-1 a, and pivots on from its basis.  It is
    done when no point prices below -FEAS_TOL, so its last pricing pass
    certifies dual feasibility over its whole set (the working set by the
    restricted optimum).

    LPs are padded to the stack's largest k: a set of k < K coordinates
    gets inert rows k..K-1 before its sum row (zero mu coefficient, zero
    coordinates and sign, rhs 0), and a narrower working set or a shorter
    append zero columns.  Inert slacks never pass the ratio test, pivots
    subtract zeros from their rows, and their duals are 0; zero columns
    never enter under Bland's rule.  Every
    choice is made per LP, the scores, prices and new columns are summed
    in a fixed order, and the pivot loop's reduced costs and the duals are
    exact here (-1 on mu is the only cost), so an LP gives the same float
    in any stack.  An LP leaves the pivot loop in the iteration it is
    optimal, and the stack once a pricing pass finds it no point.  Pricing
    shares each set's points across its orthants, and runs of sets in the
    same orthants share one product: same k, share size and orthant range,
    since one set's tail share and the next set's head share can agree in
    k and size alone.
    """
    _, n_pts, k = points.shape
    k_of = np.array([theta.shape[1] for theta in thetas])
    sizes = [len(theta) for theta in thetas]
    lps = sum(sizes)
    every = np.arange(lps)
    set_of = np.repeat(np.arange(len(thetas)), sizes)
    signs = np.zeros((lps, k))
    # runs of sets in the same orthants: (sets, LPs, k, orthants)
    runs, s0, l0 = [], 0, 0
    for _, run in itertools.groupby(thetas, key=lambda theta: (theta.shape, theta.tobytes())):
        count = len(list(run))
        size, kk = thetas[s0].shape
        runs.append((slice(s0, s0 + count), slice(l0, l0 + count * size), kk, size))
        signs[l0 : l0 + count * size, :kk] = np.tile(thetas[s0], (count, 1))
        s0, l0 = s0 + count, l0 + count * size

    def products(weights: np.ndarray) -> np.ndarray:
        # sum_i weights_i p_i (lps, n_pts) over each LP's own coordinates
        out = np.empty((lps, n_pts))
        for sets, lp, kk, size in runs:
            _ordered_dot(weights[lp, :kk].reshape(-1, size, 1, kk), points[sets, None, :, :kk],
                         out=out[lp].reshape(-1, size, n_pts))
        return out

    def columns(live: np.ndarray, chosen: np.ndarray) -> np.ndarray:
        # the columns [-theta * p; 1] (live, k + 1, chosen) of the chosen
        # points in the original rows; a zero column where chosen is n_pts
        col = np.empty((live.size, k + 1, chosen.shape[1]))
        col[:, :k] = points[set_of[live, None], np.minimum(chosen, n_pts - 1)].transpose(0, 2, 1)
        col[:, :k] *= -signs[live, :, None]
        col[:, k] = 1.0
        return col * (chosen < n_pts)[:, None]

    widths = np.minimum(n_pts, 2 * k_of[set_of])
    # The working set of each LP, plus a last column that `_least`'s padding marks
    in_set = np.zeros((lps, n_pts + 1), dtype=bool)
    chosen = _least(-products(signs), widths)
    in_set[every[:, None], chosen] = True
    live = every
    # Columns: mu, then the working set; minimize -mu.
    a_ub = np.zeros((lps, k + 1, chosen.shape[1] + 1))
    a_ub[:, :k, 0] = np.arange(k) < k_of[set_of, None]
    a_ub[:, :, 1:] = columns(live, chosen)
    b_ub = np.zeros(k + 1)
    b_ub[k] = 1.0
    tableau, basis = _tableau(a_ub, b_ub)
    optima = np.empty(lps)
    duals = np.zeros((lps, k + 1))  # zero for a finished LP, which then prices nothing
    while True:
        c = np.zeros(a_ub.shape[2])
        c[0] = -1.0
        status, x = _phase2(c, tableau, basis, a_ub, b_ub)
        assert status == "optimal", "orthant LPs are always feasible and bounded"
        optima[live] = x[:, 0]
        # The reduced cost of point p is -duals . [-theta * p; 1].
        duals[live] = _duals(c, tableau, basis)
        reduced = products(duals[:, :k] * signs) - duals[:, k:]
        duals[live] = 0.0
        reduced[in_set[:, :n_pts]] = np.inf
        best = _least(reduced, k_of[set_of], -FEAS_TOL)
        if not best.size:
            break
        in_set[every[:, None], best] = True
        keep = best[live, 0] < n_pts  # only a live LP prices a point below zero
        live = live[keep]
        added = columns(live, best[live])
        tableau, basis = _append_columns(tableau[keep], basis[keep], a_ub.shape[2], added)
        a_ub = np.concatenate([a_ub[keep], added], axis=2)
    return [optima[a:b] for a, b in itertools.pairwise(itertools.accumulate(sizes, initial=0))]


def _least(values: np.ndarray, counts, below: float = np.inf) -> np.ndarray:
    """Column indices (rows, up to the largest count) of the least entries
    of each row of values that lie below `below`, at most counts[r] of row
    r, least first and ties to the smaller index, padded with the row
    length; the picks are set to inf in values."""
    rows = np.arange(values.shape[0])
    found = np.minimum(np.count_nonzero(values < below, axis=1), counts)
    picks = np.empty((values.shape[0], int(found.max(initial=0))), dtype=np.intp)
    for j in range(picks.shape[1]):
        picks[:, j] = values.argmin(axis=1)
        values[rows, picks[:, j]] = np.inf
    picks[np.arange(picks.shape[1]) >= found[:, None]] = values.shape[1]
    return picks


def _within_budget(k: int) -> int:
    """k, once checked against CUBE_DIM_BUDGET: |sigma| past it raises `BudgetError`."""
    if k > CUBE_DIM_BUDGET:
        raise BudgetError(f"|sigma| = {k} exceeds the exponent budget {CUBE_DIM_BUDGET}")
    return k


def _radius(optima: np.ndarray) -> float:
    """r of one point set: the least of its orthant optima."""
    return max(0.0, min(optima.tolist()))


def _inscribed_radius(points: np.ndarray, sigma, vertex=None) -> float:
    """Half-side r of the largest centred cube in the projection on sigma
    of the hull of a symmetric point set (rows).  By weak duality an
    optimal y certifies the lower bound.  r >= V = `_vertex_bound` of the
    slice (`vertex`, when the caller has it), and r is at most the optimum
    of V's orthant LP; so when V > 0 and that one LP (in the slice's
    `_unit`, as `_orthant_optima` solves it) returns at most V, r = V and
    no other orthant runs."""
    sigma = tuple(sigma)
    _within_budget(len(sigma))
    sliced = points[:, sigma]
    bound, theta = _vertex_bound(sliced) if vertex is None else vertex
    if bound > 0.0:
        factor = _unit(np.abs(sliced).max())
        if _generate_columns((sliced / factor)[None], [theta[None]])[0][0] * factor <= bound:
            return bound
    return _radius(_orthant_optima(points, [sigma])[0])


def _l1_points(norm: PolyhedralNorm, vectors) -> np.ndarray:
    """+-w for w = (f_j(x_i)) (rows j, one column per vector x_i): the
    points whose inscribed radius on a support is the l1 constant of the
    support.  The one reader of a vector list: it checks that the vectors
    have finite entries and the norm's dimension."""
    vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    if not np.all(np.isfinite(vectors)):
        raise ValueError("vectors must have finite entries")
    if vectors.shape[1] != norm.dimension:
        raise ValueError(f"vectors have {vectors.shape[1]} coordinates, "
                         f"but the norm has dimension {norm.dimension}")
    w = norm.functionals @ vectors.T  # (n_func, n)
    return np.concatenate([w, -w])


def ell1_lower_constant(norm: PolyhedralNorm, vectors, sigma: CoordinateSubset) -> float:
    """min over the l1 sphere {sum_{i in sigma} |a_i| = 1} of
    ||sum a_i x_i|| — the l1-equivalence constant of the subset.

    With w = (f_j(x_i)) the functionals on the subset, the value on the
    orthant of signs theta is min over the simplex of max_j |(w theta u)_j|.
    By the minimax theorem it equals max over ||y||_1 <= 1 of
    min_i theta_i (w^T y)_i, the inscribed radius of conv{+-rows of w},
    the points that `_l1_points` reads off the vectors.
    """
    points = _l1_points(norm, vectors)
    if len(sigma) == 0:
        raise ValueError("sigma must be nonempty")
    sigma.validate_against(points.shape[1])
    return _inscribed_radius(points, sigma)


# ---------------------------------------------------------------------------
# JSON I/O for polytopes and norms: {"dimension": n, <rows_key>: rows}.
# ---------------------------------------------------------------------------

def _read_body(path, kind: str, rows_key: str) -> tuple[int, np.ndarray]:
    """(dimension, rows) of a polytope or norm file."""
    doc = read_json(path, kind, ("dimension", rows_key))
    where = f"{kind} file {path}"
    n = read_size(doc, "dimension", where)
    return n, read_rows(doc[rows_key], n, f"'{rows_key}' in {where}")


def load_polytope(path) -> VPolytope:
    return VPolytope(*_read_body(path, "polytope", "vertices"))


def save_polytope(path, poly: VPolytope) -> None:
    write_json(path, {"dimension": poly.dimension, "vertices": decimal_rows(poly.vertices)})


def load_norm(path) -> PolyhedralNorm:
    return PolyhedralNorm(*_read_body(path, "norm", "functionals"))


def load_vectors(path, dimension: int) -> np.ndarray:
    """The rows of a vectors file, a nonempty JSON list of `dimension`-number lists."""
    return read_rows(read_json(path, "vectors", None), dimension, f"vectors file {path}")


def save_norm(path, norm: PolyhedralNorm) -> None:
    write_json(path, {"dimension": norm.dimension, "functionals": decimal_rows(norm.functionals)})

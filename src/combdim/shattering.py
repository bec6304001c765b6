"""Shattered centers of integer families and scale-sensitive shattering
dimension of real families.

A center is a coordinate subset with an integer level per coordinate.  An
integer family shatters a center when every above/below sign pattern over
the support is realized with strict inequalities; the maximal dimension
of a shattered center is vc_integer.  For real families, vc_real(A, t) is
the largest support admitting a level function h such that every pattern
is realized with f <= h below and f >= h + t above (non-strict).  The two
notions are implemented exactly as defined and never mixed; they differ
only in where the level table cuts each sorted column.

One walker serves both.  It extends a shattered center one coordinate at
a time; restrictions of shattered centers are shattered, so every one is
reached through its prefix chain.  Witness sets per sign pattern are row
bitmasks, which makes the extension check a handful of integer ANDs.
Along a coordinate's ascending levels the masks are nested, so the levels
that extend a center form one run, found by two bisections; the budget
charges one check per table entry scanned.  Count mode counts centers per
dimension and walks runs of consecutive levels with equal masks, one entry
each: a level of a run extends a center exactly when all of them do.  Max
mode seeks the largest dimension only and prunes what cannot raise it; it
tests a child's pattern masks before entering it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, groupby
from operator import or_

import numpy as np

from .errors import BudgetError, FamilyError
from .family import CoordinateSubset, FunctionFamily

DEFAULT_BUDGET = 10_000_000


@dataclass(frozen=True)
class Center:
    """Coordinate subset plus one integer level per support coordinate."""

    support: CoordinateSubset
    levels: tuple[int, ...]

    def __post_init__(self):
        if len(self.levels) != len(self.support):
            raise FamilyError("levels length must equal support length")
        object.__setattr__(self, "levels", tuple(int(v) for v in self.levels))

    @property
    def dimension(self) -> int:
        return len(self.support)


@dataclass(frozen=True)
class ShatterWitness:
    """For each sign pattern over the support, a row index realizing it.

    Patterns are tuples over {-1, +1}, one sign per support coordinate;
    +1 demands a row strictly above the level, -1 strictly below.
    """

    center: Center
    assignments: dict[tuple[int, ...], int]

    def verify(self, family: FunctionFamily) -> bool:
        vals = family.int_values()
        coords = self.center.support.indices
        levels = self.center.levels
        if set(self.assignments) != set(_sign_patterns(len(coords))):
            return False
        for theta, row in self.assignments.items():
            for i, h, s in zip(coords, levels, theta):
                v = vals[row, i]
                if s == 1 and not v > h:
                    return False
                if s == -1 and not v < h:
                    return False
        return True


def _sign_patterns(d: int):
    for bits in range(1 << d):
        yield tuple(1 if bits >> j & 1 else -1 for j in range(d))


def _check_integer(family: FunctionFamily) -> np.ndarray:
    if not family.is_integer:
        raise FamilyError("operation requires an integer-grid family")
    return family.int_values()


def _witness(center: Center, lanes: int, m: int) -> ShatterWitness:
    """Lowest row of each pattern mask, read from the walk's packed masks
    (lane p holds pattern p; bit j of p is the sign of coordinate j)."""
    masks = [lanes >> (p * (m + 1)) & ((1 << m) - 1) for p in range(1 << center.dimension)]
    rows = [(w & -w).bit_length() - 1 for w in masks]
    return ShatterWitness(center, dict(zip(_sign_patterns(center.dimension), rows)))


def shatters(family: FunctionFamily, center: Center) -> ShatterWitness | None:
    """Witness that the family shatters the center, or None.

    The trivial center is shattered by every nonempty family.
    """
    vals = _check_integer(family)
    center.support.validate_against(family.domain_size)
    cols = vals[:, list(center.support.indices)]
    table = _level_table(_sorted_columns(cols), levels=[[h] for h in center.levels])
    record: list[tuple] = []
    _walk(table, family.size, center.dimension, False, record)
    full = [lanes for support, _, lanes in record if len(support) == center.dimension]
    return _witness(center, full[0], family.size) if full else None


def _sorted_columns(vals: np.ndarray) -> list[tuple[list, list[int]]]:
    """For each column, its values ascending (one stable sort) and the
    running OR of their rows' bits, prefix[k] holding the first k rows of
    the sorted order.  _level_table cuts its masks from these, so one sort
    serves every scale of a family."""
    order = np.argsort(vals, axis=0, kind="stable")
    ranked = vals[order, np.arange(vals.shape[1])]
    return [(col, list(accumulate((1 << r for r in rows), or_, initial=0)))
            for col, rows in zip(ranked.T.tolist(), order.T.tolist())]


def _level_table(columns: list[tuple[list, list[int]]], t: float | None = None,
                 levels=None) -> list[list[tuple]]:
    """For each coordinate, one (level, below_mask, above_mask) entry per
    candidate level, from its _sorted_columns entry: a below mask is a
    prefix of the sorted rows and an above mask a suffix, cut from the
    running OR of their bits.  One forward sweep per column moves both
    cuts by bisection from where the previous level left them.

    With t None the masks are strict, f < h and f > h; the levels are the
    given ones (an ascending list per coordinate), by default the integers
    strictly between the column min and max (no other level can be
    shattered).  With t the masks are f <= h and f >= h + t, and the levels
    are the attained values v with v + t <= max: a feasible level function
    can be lowered coordinatewise to attained values, and no row can sit t
    above a larger one.  fl(v + t) grows with v, so those values are a
    prefix of the distinct ones (equal under ==, the first of a run kept).
    t is read as a Python float: a float32 t would round v + t in float32."""
    t = None if t is None else float(t)
    table = []
    for j, (col, prefix) in enumerate(columns):
        full, entries, end, start = prefix[-1], [], 0, 0
        if t is None:
            for h in levels[j] if levels is not None else range(col[0] + 1, col[-1]):
                end, start = bisect_left(col, h, end), bisect_right(col, h, start)
                entries.append((h, prefix[end], full ^ prefix[start]))
        else:
            while end < len(col) and col[-1] >= (v := col[end]) + t:
                end, start = bisect_right(col, v, end), bisect_left(col, v + t, start)
                entries.append((v, prefix[end], full ^ prefix[start]))
        table.append(entries)
    return table


def _integer_table(family: FunctionFamily) -> list[list[tuple]]:
    return _level_table(_sorted_columns(_check_integer(family)))


def _real_table(family: FunctionFamily, t: float) -> list[list[tuple]]:
    return _level_table(_sorted_columns(family.values), t)


def _undominated(table: list[list[tuple]]) -> list[list[tuple]]:
    """Drop levels whose (below, above) pair is contained in another
    level's pair (of equal pairs the first stays).  Such a level can be
    swapped for the one containing it in any shattered center, so the
    largest dimension is unchanged.  Levels ascend, so below masks grow and
    above masks shrink along each list: equal pairs are consecutive, and a
    pair is contained in another iff the previous level shares its below
    mask or the next distinct pair shares its above mask.  No mask is
    empty: an integer level lies strictly between the column min and max,
    and a real level v is attained with v + t <= max."""
    out = []
    for entries in table:
        kept = []
        for j, e in enumerate(entries):
            if j and entries[j - 1][1] == e[1]:
                continue  # equal to the previous pair or inside it
            if kept and kept[-1][2] == e[2]:
                kept.pop()  # the last kept pair is inside e's
            kept.append(e)
        out.append(kept)
    return out


def _runs(table: list[list[tuple]]) -> list[list[tuple]]:
    """Each coordinate's consecutive entries with equal (below, above) masks
    merged into one (run length, below, above) entry."""
    return [[(sum(1 for _ in run), *masks) for masks, run in groupby(entries, lambda e: e[1:])]
            for entries in table]


def _walk(table, m: int, max_dim: int, best_only: bool, record=None, floor: int = 0):
    """Depth-first walk over shattered centers of dimension k <= max_dim
    with 2^k <= m.  Coordinates are added in increasing order, each one's
    entries in table order.  The pattern masks of a center travel as lanes
    of one integer, each with a guard bit above it: adding 2^m - 1 to
    every lane sets all guard bits iff no lane is empty.  A coordinate's
    entries are copied into the lanes of a depth when a center of that
    depth first scans it.  Levels ascend,
    so a coordinate's below masks grow and its above masks shrink: "every
    lane meets below" turns on once and "every lane meets above" turns off
    once, and the entries that extend a center form one run, found by two
    bisections.  The budget charges a scanned coordinate one check per
    entry, up to DEFAULT_BUDGET checks a walk.

    Count mode returns counts[k], the number of centers of dimension k,
    and appends (support, levels, packed masks) of every center, trivial
    one first, to record if given.  Without record it builds no supports,
    reads each entry's first field as the number of levels it stands for
    (a table of _runs), and adds weight x run length per center, weight
    being the number of centers its prefix stands for (the other modes
    pass a level there and never read it).  Max mode
    (best_only) returns (dimension, support, levels) of the first largest
    center it meets and skips branches whose deepest completion cannot
    beat the best; it enters a child only if the child's own first test
    would pass, so skipping changes no scan and no charge.  A floor, a
    dimension known to be shattered, starts the best there: the walk
    returns the larger of it and the largest dimension met (as (floor, (),
    ()) when none beats it) and, pruning at least as much at every step,
    never charges more checks than the walk from 0.
    """
    if max_dim < 0:
        raise ValueError(f"max_dim must be >= 0, got {max_dim}")
    n = len(table)
    depth = min(max_dim, m.bit_length() - 1)
    width, full = m + 1, (1 << m) - 1
    reps = [sum(1 << (p * width) for p in range(1 << k)) for k in range(depth)]
    ones_at, guards_at = [full * r for r in reps], [(full + 1) * r for r in reps]
    tables = [[None] * n for _ in reps]  # lane copies per depth and coordinate, built on first use
    counts = [1] + [0] * depth
    best = (floor, (), ())
    checks, budget = 0, DEFAULT_BUDGET
    named = best_only or record is not None
    if record is not None:
        record.append(((), (), full))

    def can_beat(masks: int, k: int) -> bool:
        """Whether a center of dimension k passes the cap test extend()
        makes first: every lane holds 2^(best + 1 - k) rows (the coordinate
        and depth parts of that test hold wherever a child is made).  Clears
        each lane's lowest bit that many times less one (emptied lanes stay 0)."""
        for _ in range((1 << max(best[0] + 1 - k, 0)) - 1):
            masks &= masks - reps[k]
        return (masks + ones_at[k]) & guards_at[k] == guards_at[k]

    def extend(start: int, k: int, support: tuple, levels: tuple, masks: int, weight: int):
        nonlocal best, checks
        lanes, ones, guards, shift = tables[k], ones_at[k], guards_at[k], width << k
        cap = depth
        if best_only:  # reaching dimension d splits every lane into 2^(d - k) nonempty ones
            fewest = min((masks >> (p * width) & full).bit_count() for p in range(1 << k))
            cap = min(depth, k + fewest.bit_length() - 1)
        for i in range(start, n):
            reach = min(k + n - i, cap)
            if best_only and reach <= best[0]:
                return
            entries = lanes[i]
            if entries is None:
                r = reps[k]
                entries = lanes[i] = [(v, b * r, a * r) for v, b, a in table[i]]
            checks += len(entries)
            if checks > budget:
                got = (f"best dimension found: {best[0]}" if best_only
                       else f"centers counted: {sum(counts)}")
                stuck = support if named else None  # counting keeps no supports
                raise BudgetError(f"shattering walk exceeded budget {budget} level checks ({got}); "
                                  f"stopped extending support {stuck} of dimension {k}", stuck, k)
            a = bisect_left(entries, True, key=lambda e: ((masks & e[1]) + ones) & guards == guards)
            b = bisect_left(entries, True, a, key=lambda e: ((masks & e[2]) + ones) & guards != guards)
            for v, below, above in entries[a:b]:
                child = masks & below | (masks & above) << shift
                if not named:
                    grown, at, v = (), (), weight * v
                    counts[k + 1] += v
                else:
                    grown, at = support + (i,), levels + (v,)
                    if best_only:
                        if k + 1 > best[0]:
                            best = (k + 1, grown, at)
                    else:
                        counts[k + 1] += 1
                        record.append((grown, at, child))
                if k + 1 < depth and i + 1 < n and (not best_only or can_beat(child, k + 1)):
                    extend(i + 1, k + 1, grown, at, child, v)
                if best_only and reach <= best[0]:
                    return

    if depth > 0:
        extend(0, 0, (), (), full, 1)
    return best if best_only else [c for c in counts if c]  # nonzero counts form a prefix


def shattered_center_counts(family: FunctionFamily, max_dim: int) -> list[int]:
    """Number of shattered centers of each dimension 0..d (index = dimension,
    the trivial center included), d being the largest dimension <= max_dim
    that occurs.  Builds no center objects and walks runs of levels."""
    return _walk(_runs(_integer_table(family)), family.size, max_dim, False)


def shatter_witnesses(family: FunctionFamily, max_dim: int) -> list[ShatterWitness]:
    """Every shattered center of dimension <= max_dim (trivial one first,
    then in lexicographic order of (support, levels) along prefix chains),
    each with the witness shatters() gives it, read from the walk's masks."""
    record: list[tuple] = []
    _walk(_integer_table(family), family.size, max_dim, False, record)
    return [_witness(Center(CoordinateSubset(s), v), lanes, family.size) for s, v, lanes in record]


def enumerate_shattered_centers(family: FunctionFamily, max_dim: int) -> list[Center]:
    """All shattered centers of dimension <= max_dim, in the order of
    shatter_witnesses."""
    record: list[tuple] = []
    _walk(_integer_table(family), family.size, max_dim, False, record)
    return [Center(CoordinateSubset(s), v) for s, v, _ in record]


def vc_integer(family: FunctionFamily) -> int:
    """Maximal dimension of a center shattered by the integer family."""
    table = _undominated(_integer_table(family))
    return _walk(table, family.size, family.domain_size, True)[0]


def vc_real_witness(
    family: FunctionFamily, t: float
) -> tuple[int, CoordinateSubset, tuple[float, ...]]:
    """(dimension, support, levels) of a maximum t-shattered set.

    The witness is the first maximum set met by a depth-first walk that
    adds coordinates in increasing order and tries each coordinate's
    attained values in increasing order, skipping dominated values.  It
    need not have the lexicographically smallest maximizing support."""
    if not t > 0:
        raise ValueError("shattering scale must be positive")
    table = _undominated(_real_table(family, t))
    dim, support, levels = _walk(table, family.size, family.domain_size, True)
    return dim, CoordinateSubset(support), levels


def vc_real(family: FunctionFamily, t: float) -> int:
    """Maximal cardinality of a set t-shattered by the real family."""
    return vc_real_witness(family, t)[0]


def _vc_real_scales(family: FunctionFamily, scales) -> list[int | BudgetError]:
    """vc_real at each of the scales, or the BudgetError its walk raised.

    One sort of the family's columns serves every scale.  Each distinct
    scale is walked once, coarsest first, from the dimension the last
    coarser walk proved: a set t'-shattered is t-shattered for t < t'
    (fl(h + t) <= fl(h + t')).  A walk past the budget proves nothing and
    leaves that floor where it was.  Returns dimensions only: a walk whose
    floor is the answer meets no witness."""
    if not all(t > 0 for t in scales):
        raise ValueError("shattering scale must be positive")
    columns, dims, floor = _sorted_columns(family.values), {}, 0
    depth = min(family.domain_size, family.size.bit_length() - 1)  # as deep as _walk goes
    for t in sorted(set(scales), reverse=True):
        if floor == depth:  # no walk can beat the floor: build no table
            dims[t] = floor
            continue
        table = _undominated(_level_table(columns, t))
        try:
            dims[t] = floor = _walk(table, family.size, family.domain_size, True, floor=floor)[0]
        except BudgetError as exc:
            dims[t] = exc
    return [dims[t] for t in scales]


def vc_curve(family: FunctionFamily, t_grid) -> list[tuple[float, int]]:
    """vc_real sampled over a grid of scales (returned sorted ascending, one
    entry per grid point).  One sort of the columns serves the whole grid,
    and the walks go coarse to fine, each from the dimension the coarser
    walk proved; vc_real_witness, which must meet a witness, walks from 0.
    Raises the BudgetError of the finest scale past the budget."""
    grid = sorted(float(t) for t in t_grid)
    dims = _vc_real_scales(family, grid)
    for d in dims:
        if isinstance(d, BudgetError):
            raise d
    assert all(a >= b for a, b in zip(dims, dims[1:])), "vc curve must be non-increasing"
    return list(zip(grid, dims))

"""Separating trees for separated function families.

The pipeline: a family that is t-separated in L2(mu) has a coordinate on
which the empirical value distribution (uniform over the rows) has
standard deviation >= t/2; a small-deviation split of that distribution
yields two sub-families separated by a gap t/6 on that coordinate, with
certified mass lower bounds (1 - beta) and beta/2.  Masses are row
counts, so each certificate inequality is decided exactly, in integers,
with no tolerance.  Splitting the sons again yields a binary tree whose
leaf count is at least sqrt(m), held as a flat node list, breadth first
from the root, each split naming the list positions of its sons, so no
step recurses.  `save_tree` and `load_tree` write and read that list,
with scale and gap, as a tree file.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .entropy import first_violating_pair, not_separated
from .errors import FamilyError, NotSeparatedError
from .family import FunctionFamily, ProbabilityMeasure, read_json, read_number, write_json


@dataclass(frozen=True)
class Distribution:
    """Finite distribution given as (value, weight) atoms: the weights are
    row counts, an atom's probability is weight / total, and the values
    strictly increase."""

    atoms: tuple[tuple[float, int], ...]
    total: int = field(init=False)

    def __post_init__(self):
        atoms = tuple((float(v), w) for v, w in self.atoms)
        if not all(isinstance(w, int) and w >= 0 for _, w in atoms):
            raise ValueError("atom weights must be integers >= 0")
        if not all(a < b for (a, _), (b, _) in zip(atoms, atoms[1:])):
            raise ValueError("atom values must strictly increase")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "total", sum(w for _, w in atoms))
        if self.total <= 0:
            raise ValueError("atom weights must have a positive total")

    @classmethod
    def from_sample(cls, values) -> "Distribution":
        """Empirical distribution of a sample, each value weighted by its count."""
        uniq, counts = np.unique(np.asarray(values, dtype=np.float64), return_counts=True)
        return cls(tuple(zip(uniq.tolist(), counts.tolist())))

    def tail_above(self, x: float) -> int:
        return sum(w for v, w in self.atoms if v > x)

    def tail_below(self, x: float) -> int:
        return sum(w for v, w in self.atoms if v < x)


def _moment_variance(atoms) -> float:
    """Variance E(X - EX)^2 in moment form, linear in the (value, weight) atoms."""
    n = sum(w for _, w in atoms)
    mean = sum(w / n * v for v, w in atoms)
    return sum(w / n * (v - mean) ** 2 for v, w in atoms)


def variance(dist: Distribution) -> tuple[float, float]:
    """(variance, pair expectation E|X - X'|^2) of the distribution.

    The two are computed independently (moment form vs. double sum over
    atom pairs) so that the identity pair = 2 * variance is a genuine
    cross-check rather than an algebraic tautology.
    """
    n = dist.total
    pair = sum(
        wi / n * (wj / n) * (vi - vj) ** 2 for vi, wi in dist.atoms for vj, wj in dist.atoms
    )
    return _moment_variance(dist.atoms), pair


@dataclass(frozen=True)
class SplitCertificate:
    """Witness that a distribution of `total` rows splits into a heavy and
    a light tail.

    With g = gap_halfwidth, `upper` rows lie above a + g and `lower` rows
    below a - g.  beta = share / (2 * total); side "upper-heavy" certifies
    upper >= (1 - beta) * total and lower >= beta/2 * total, "lower-heavy"
    the mirror.  Every inequality is checked in integers.
    """

    threshold: float
    share: int
    total: int
    gap_halfwidth: float
    side: str
    upper: int
    lower: int

    @property
    def beta(self) -> float:
        return self.share / (2 * self.total)

    def is_valid_for(self, dist: Distribution) -> bool:
        """Re-count both tails in the distribution's rows and re-check."""
        recount = (dist.total, dist.tail_above(self.threshold + self.gap_halfwidth),
                   dist.tail_below(self.threshold - self.gap_halfwidth))
        return (self.total, self.upper, self.lower) == recount and self._holds()

    def _holds(self) -> bool:
        """The certificate's inequalities on its own tail counts."""
        sides = {"upper-heavy": (self.upper, self.lower), "lower-heavy": (self.lower, self.upper)}
        if self.side not in sides or not 0 < self.share <= self.total or not self.gap_halfwidth > 0:
            return False
        heavy, light = sides[self.side]
        return 2 * heavy >= 2 * self.total - self.share and 4 * light >= self.share


def small_dev_split(dist: Distribution) -> SplitCertificate:
    """Find a split certificate with gap sigma(X)/6.

    For every nonzero-variance distribution such a certificate exists, so
    failure of the direct search is a software defect.  Candidate
    thresholds cover every regime of the two tail functions; beta runs
    over partial counts of atom weights.  Among valid certificates the
    one maximizing min(p_heavy - (1 - beta), p_light - beta/2) wins, ties
    broken toward larger beta, then toward the upper-heavy side, then
    toward the smaller threshold.  Scores are compared exactly, as
    integers 4 * total times that minimum.  Tails are counted by one
    sweep over the ascending candidates with two pointers into the atoms,
    each moving only forward, and each (threshold, side) scores only the
    two shares around its best one.  The tail counts are monotone in the
    threshold, so equal (upper, lower) pairs come in runs of consecutive
    candidates, and only the first of a run is scored: the others could
    only tie, and a tie keeps the smaller threshold.  A side whose heavy
    count is below total/2 scores below 0 at every share, and one whose
    score bound at the crossing of the two score terms is below the best
    score so far can neither beat nor tie it; neither is scored.
    """
    dev = math.sqrt(_moment_variance(dist.atoms)) / 6.0
    return _split(dist.atoms, dev, dev)


def _split(atoms, dev: float, gap: float) -> SplitCertificate:
    """small_dev_split of the distribution with these (value, row count)
    atoms, given dev = sigma/6, its certificate stated at `gap` <= dev
    with both tails counted there: shrinking the gap only grows the
    tails, so the certificate stays valid."""
    if not dev > 0.0:
        raise ValueError("small-deviation split needs nonzero variance")
    values = [v for v, _ in atoms]
    below = [0, *itertools.accumulate(w for _, w in atoms)]  # rows in the first k atoms
    total = below[-1]

    candidates = set(values)
    candidates.update((a + b) / 2.0 for a, b in zip(values, values[1:]))
    breaks = sorted({v - dev for v in values} | {v + dev for v in values})
    candidates.update(breaks)
    candidates.update((a + b) / 2.0 for a, b in zip(breaks, breaks[1:]))

    # shares 2 * total * beta: doubled partial counts and their complements, clipped at beta = 1/2
    shares = sorted({total} | {min(2 * c, total) for acc in below[1:]
                               for c in (acc, total - acc) if c > 0})
    best, top = None, 0  # ((score, share, upper_heavy), threshold) and its score
    k = len(values)
    hi = lo = 0  # atoms at or below a + dev, atoms below a - dev
    last = None
    for a in sorted(candidates):  # ascending, and ties keep the first: the smaller threshold
        # a +- dev ascend with a (rounding is monotone), so both pointers only move forward
        x = a + dev
        while hi < k and values[hi] <= x:
            hi += 1
        x = a - dev
        while lo < k and values[lo] < x:
            lo += 1
        tails = total - below[hi], below[lo]  # rows above a + dev, rows below a - dev
        if tails == last:
            continue
        last = up, down = tails
        for upper_heavy, heavy, light in ((True, up, down), (False, down, up)):
            # 3 * score <= 4 heavy - 4 total + 8 light at every share (where the
            # two terms cross), so a side below that bound cannot reach `top`
            if 2 * heavy < total or 4 * (heavy - total + 2 * light) < 3 * top:
                continue
            # the score rises strictly in the share below s* = 4 (light - heavy + total) / 3
            # and falls strictly above it, so the best share is one of the two around s*
            cut = bisect.bisect_right(shares, 4 * (light - heavy + total) // 3)
            for share in shares[max(cut - 1, 0) : cut + 1]:
                score = min(4 * heavy - 4 * total + 2 * share, 4 * light - share)
                if score < top:
                    continue
                key = (score, share, upper_heavy)
                if best is None or key > best[0]:
                    best, top = (key, a), score
    assert best is not None, "no split certificate found for a nonzero-variance distribution"
    (_, share, upper_heavy), a = best
    up = total - below[bisect.bisect_right(values, a + gap)]
    down = below[bisect.bisect_left(values, a - gap)]
    cert = SplitCertificate(a, share, total, gap, "upper-heavy" if upper_heavy else "lower-heavy",
                            up, down)
    assert cert._holds(), "split certificate fails its inequalities at its gap"
    return cert


def _require_separated(family: FunctionFamily, measure: ProbabilityMeasure, t: float) -> None:
    bad = first_violating_pair(family, measure, t)
    if bad is not None:
        raise not_separated(t, bad)


def find_separating_coordinate(
    family: FunctionFamily,
    measure: ProbabilityMeasure,
    t: float,
) -> tuple[int, SplitCertificate]:
    """Coordinate whose row-value distribution splits with gap t/12.

    Requires the family to be t-separated in L2(measure) with m >= 2; the
    argument via the pair-difference variance identity guarantees a
    coordinate with sigma(values) >= t/2, whose sigma/6 split certificate
    remains valid at gap t/12.  The coordinate of largest variance is
    taken: if it fails, every other one does.  Variances are computed in
    one pass over the value matrix with each column sorted first, so equal
    value multisets get equal variances and ties go to the smaller index;
    the chosen column's value counts are read off the same sort, and no
    Distribution is built.
    """
    if not t > 0:
        raise ValueError("split scale must be positive")
    if family.size < 2:
        raise NotSeparatedError("need at least two rows to separate", pair=None)
    _require_separated(family, measure, t)
    return _split_coordinate(family.values, t)


def _split_coordinate(values: np.ndarray, t: float) -> tuple[int, SplitCertificate]:
    """find_separating_coordinate on the value rows (m >= 2) of a family
    that the caller has already found t-separated under some probability
    measure.  Nothing here checks that: without a coordinate of sigma >=
    t/2 it raises AssertionError.  Each column's variance is np.var's
    arithmetic written out on the sorted matrix (the mean, the squared
    deviations, their sum over m: the same sums in the same order, without
    np.var's Python wrapper), and the chosen column's atoms are read off
    the same sort by sorted_atoms."""
    ordered = np.sort(values, axis=0)
    m = len(ordered)
    squares = ordered - np.add.reduce(ordered, axis=0, keepdims=True) / m
    np.square(squares, out=squares)
    i = int((np.add.reduce(squares, axis=0) / m).argmax())
    atoms = sorted_atoms(ordered[:, i].tolist())
    dev = math.sqrt(_moment_variance(atoms)) / 6.0
    # Exact comparison: sigma/6 >= t/12 makes the certificate's gap t/12 a
    # shrink of sigma/6, under which tail masses can only grow.
    if not dev >= t / 12.0:
        raise AssertionError(f"no coordinate with sigma >= {t / 2} found on a {t}-separated family")
    return i, _split(atoms, dev, t / 12.0)


def sorted_atoms(column: list[float]) -> tuple[tuple[float, int], ...]:
    """(value, row count) atoms of an ascending list of values: each run of
    equal values is one atom, its first value as `np.unique` keeps it."""
    values, counts = [], []
    for v in column:
        if counts and v == values[-1]:
            counts[-1] += 1
        else:
            values.append(v)
            counts.append(1)
    return tuple(zip(values, counts))


@dataclass(frozen=True)
class TreeNode:
    """A node of SeparatingTree.nodes: its rows and, for a split, the
    coordinate, the threshold and the list positions of its two sons."""

    indices: tuple[int, ...]
    coordinate: int | None = None
    threshold: float | None = None
    plus: int | None = None
    minus: int | None = None

    @property
    def is_leaf(self) -> bool:
        return self.plus is None and self.minus is None


@dataclass(frozen=True)
class SeparatingTree:
    """Binary tree of sub-families, listed breadth first from the root
    nodes[0]; the sons of every split are `gap` apart on its coordinate."""

    nodes: tuple[TreeNode, ...]
    scale: float
    gap: float

    def leaf_count(self) -> int:
        return sum(node.is_leaf for node in self.nodes)


def save_tree(path, tree: SeparatingTree) -> None:
    """Write a tree file: scale, gap and one object per node, its unset fields left out."""
    nodes = [{key: value for key, value in vars(node).items() if value is not None}
             for node in tree.nodes]
    write_json(path, {"scale": tree.scale, "gap": tree.gap, "nodes": nodes})


def load_tree(path) -> SeparatingTree:
    """The tree in a file written by save_tree.  FamilyError names the
    file when it or one of its nodes misses a key or holds a bad value;
    whether the node list forms a tree is left to validate_tree."""
    doc = read_json(path, "tree", ("scale", "gap", "nodes"))
    where = f"tree file {path}"
    scale, gap = (read_number(doc[key], f"{key!r} in {where}") for key in ("scale", "gap"))
    try:
        nodes = tuple(_read_node(node, f"node {k} of {where}")
                      for k, node in enumerate(doc["nodes"]))
    except KeyError as exc:
        raise FamilyError(f"missing key {exc} in a node of {where}") from None
    except TypeError as exc:
        raise FamilyError(f"bad node in {where}: {exc}") from None
    return SeparatingTree(nodes, scale, gap)


def _read_node(doc: dict, where: str) -> TreeNode:
    """One node of a tree file; `where` names it in a bad threshold's message."""
    indices = tuple(map(_json_integer, doc["indices"]))
    if "plus" not in doc:
        return TreeNode(indices)
    return TreeNode(indices, _json_integer(doc["coordinate"]),
                    read_number(doc["threshold"], f"'threshold' in {where}"),
                    _json_integer(doc["plus"], "son position"),
                    _json_integer(doc["minus"], "son position"))


def _json_integer(value, what: str = "row index or coordinate") -> int:
    """A row index, coordinate or son position of a tree file: a JSON integer, not a bool."""
    if type(value) is not int:
        raise TypeError(f"{what} {value!r} is not an integer")
    return value


def build_separating_tree(
    family: FunctionFamily,
    measure: ProbabilityMeasure,
    t: float,
) -> SeparatingTree:
    """(t/6)-separating tree with at least sqrt(m) leaves.

    Each non-leaf splits on a certified coordinate: the plus son keeps the
    rows with value > a + t/12, the minus son those with value < a - t/12;
    rows in the middle band are dropped.  The certificate guarantees both
    sons are nonempty and together hold at least (1 - beta/2) of the rows,
    which drives the leaf-count bound leaf_count^2 >= m.
    """
    if not t > 0:
        raise ValueError("tree scale must be positive")
    # Row subsets of a t-separated family are t-separated: one check covers all nodes.
    _require_separated(family, measure, t)
    return _build_tree(family.values, t)


def _build_tree(values: np.ndarray, t: float) -> SeparatingTree:
    """build_separating_tree without its checks, on the value rows of a
    family that the caller has already found t-separated (under any
    probability measure: the splits read none).  A node with no coordinate
    of sigma >= t/2 fails _split_coordinate's assertion."""
    queue = [tuple(range(len(values)))]
    nodes = []
    for indices in queue:  # breadth first: each split appends its sons to the queue
        if len(indices) == 1:
            nodes.append(TreeNode(indices))
            continue
        rows = values[list(indices)]
        coord, cert = _split_coordinate(rows, t)
        col = rows[:, coord]
        hi = cert.threshold + cert.gap_halfwidth
        lo = cert.threshold - cert.gap_halfwidth
        plus = tuple(r for r, v in zip(indices, col) if v > hi)
        minus = tuple(r for r, v in zip(indices, col) if v < lo)
        assert plus and minus, "split certificate produced an empty son"
        nodes.append(TreeNode(indices, coord, cert.threshold, len(queue), len(queue) + 1))
        queue += [plus, minus]
    return SeparatingTree(tuple(nodes), t, t / 6.0)


@dataclass(frozen=True)
class TreeValidation:
    ok: bool
    failure: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _structure_failure(nodes: tuple[TreeNode, ...]) -> str | None:
    """Why the node list is not a tree rooted at nodes[0] with every son
    listed after its parent, or None."""
    if not nodes:
        return "tree has no nodes"
    parent = {}
    for k, node in enumerate(nodes):
        if (node.plus is None) != (node.minus is None):
            return f"non-leaf {node.indices} lacks two sons"
        for son in () if node.is_leaf else (node.plus, node.minus):
            if not 0 <= son < len(nodes):
                return f"son position {son} out of range at node {node.indices}"
            if son <= k:
                return f"son at position {son} is not listed after its parent at position {k}"
            if son in parent:
                return f"node at position {son} is a son of positions {parent[son]} and {k}"
            parent[son] = k
    orphan = min(set(range(1, len(nodes))) - parent.keys(), default=None)
    return None if orphan is None else f"node at position {orphan} is the son of no node"


def validate_tree(tree: SeparatingTree, family: FunctionFamily, gap: float) -> TreeValidation:
    """Exhaustively re-check the separating-tree conditions at a given gap.

    Independent of the construction path: checks that the node list is a
    tree, then reads the raw values and checks, for every non-leaf, that
    the sons are disjoint nonempty subsets of the parent and that every
    plus-row beats every minus-row by more than `gap` on the stored
    coordinate.  The gap check reads that one column as Python floats
    and compares the least plus value with the largest minus value plus
    `gap`; on failure it names the first pair, plus rows then minus rows
    in order, that breaks the gap.  The failure named is the structural
    one, else that of the first failing node in list order.
    """
    if not gap > 0:
        raise ValueError(f"tree gap must be positive, got {gap!r}")
    values = family.values
    m, n = values.shape

    def failure(node: TreeNode) -> str | None:
        if not node.indices:
            return "empty node"
        if len(set(node.indices)) < len(node.indices):
            return f"row listed twice in node {node.indices}"
        if any(r < 0 or r >= m for r in node.indices):
            return f"row index out of range in node {node.indices}"
        if node.is_leaf:
            return None
        if node.coordinate is None or not (0 <= node.coordinate < n):
            return f"bad split coordinate at node {node.indices}"
        i, plus, minus = node.coordinate, tree.nodes[node.plus].indices, tree.nodes[node.minus].indices
        pset, mset = set(plus), set(minus)
        if pset & mset:
            return f"sons overlap at node {node.indices}: {sorted(pset & mset)}"
        if not (pset <= set(node.indices) and mset <= set(node.indices)):
            return f"sons escape their parent at node {node.indices}"
        if not pset or not mset:
            return f"empty son at node {node.indices}"
        col = values[:, i].tolist()
        # rounding is monotone, so the extremes decide every plus-minus pair
        if not min(col[f] for f in plus) > max(col[g] for g in minus) + gap:
            f, g = next((f, g) for f in plus for g in minus if not col[f] > col[g] + gap)
            return (f"gap violated at node {node.indices}: rows {f},{g} on "
                    f"coordinate {i} differ by {col[f] - col[g]!r} <= {float(gap)!r}")
        return None

    reason = _structure_failure(tree.nodes) or next(filter(None, map(failure, tree.nodes)), None)
    return TreeValidation(reason is None, reason)

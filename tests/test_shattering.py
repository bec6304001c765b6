import collections
import itertools
import math

import numpy as np
import pytest

from combdim import (
    BudgetError,
    Center,
    CoordinateSubset,
    FunctionFamily,
    ProbabilityMeasure,
    ShatterWitness,
    build_separating_tree,
    discretize,
    enumerate_shattered_centers,
    gen_random_family,
    is_separated,
    shattered_center_counts,
    shatter_witnesses,
    shatters,
    vc_curve,
    vc_integer,
    vc_real,
)
from combdim import shattering
from combdim.experiments import gen_separated_family
from combdim.shattering import _integer_table, _real_table, _undominated, vc_real_witness

SIGN_CUBE = FunctionFamily([[1, 1], [1, -1], [-1, 1], [-1, -1]])


# ---------------------------------------------------------------------------
# Independent brute-force oracles (plain nested loops, no shared machinery
# with the implementation's prefix-extension search).
# ---------------------------------------------------------------------------

def oracle_shatters_integer(vals, support, levels):
    for pattern in itertools.product((1, -1), repeat=len(support)):
        found = False
        for row in vals:
            ok = True
            for i, h, s in zip(support, levels, pattern):
                if s == 1 and not row[i] > h:
                    ok = False
                    break
                if s == -1 and not row[i] < h:
                    ok = False
                    break
            if ok:
                found = True
                break
        if not found:
            return False
    return True


def oracle_centers(family, max_dim):
    vals = family.int_values()
    n = family.domain_size
    found = [((), ())]
    for k in range(1, max_dim + 1):
        for support in itertools.combinations(range(n), k):
            ranges = [
                range(int(vals[:, i].min()) + 1, int(vals[:, i].max()))
                for i in support
            ]
            for levels in itertools.product(*ranges):
                if oracle_shatters_integer(vals, support, levels):
                    found.append((support, levels))
    return found


def oracle_vc_real(family, t):
    vals = family.values
    m, n = vals.shape
    best = 0
    for k in range(1, n + 1):
        hit = False
        for support in itertools.combinations(range(n), k):
            level_sets = [sorted(set(vals[:, i])) for i in support]
            for levels in itertools.product(*level_sets):
                ok = True
                for pattern_bits in range(1 << k):
                    witness = False
                    for row in vals:
                        good = True
                        for j, (i, h) in enumerate(zip(support, levels)):
                            if pattern_bits >> j & 1:
                                if not row[i] <= h:
                                    good = False
                                    break
                            else:
                                if not row[i] >= h + t:
                                    good = False
                                    break
                        if good:
                            witness = True
                            break
                    if not witness:
                        ok = False
                        break
                if ok:
                    hit = True
                    break
            if hit:
                break
        if hit:
            best = k
        else:
            break
    return best


# ---------------------------------------------------------------------------
# Integer-center shattering.
# ---------------------------------------------------------------------------

def test_trivial_center_shattered_by_nonempty():
    fam = FunctionFamily([[0, 0]], "integer", 0)
    witness = shatters(fam, Center(CoordinateSubset(()), ()))
    assert witness is not None and witness.verify(fam)


def test_strictness_of_center_shattering():
    fam = FunctionFamily([[2], [0]], "integer", 2)
    assert shatters(fam, Center(CoordinateSubset((0,)), (1,))) is not None
    # level 0: no function strictly below 0
    assert shatters(fam, Center(CoordinateSubset((0,)), (0,))) is None


def test_shatters_out_of_range_support():
    fam = FunctionFamily([[0]], "integer", 0)
    with pytest.raises(Exception):
        shatters(fam, Center(CoordinateSubset((3,)), (0,)))


def test_witness_satisfies_strict_inequalities():
    fam = FunctionFamily([[0, 0], [0, 2], [2, 0], [2, 2]], "integer", 2)
    witness = shatters(fam, Center(CoordinateSubset((0, 1)), (1, 1)))
    assert witness is not None
    assert witness.verify(fam)
    vals = fam.int_values()
    for theta, row in witness.assignments.items():
        for i, h, s in zip((0, 1), (1, 1), theta):
            assert vals[row, i] > h if s == 1 else vals[row, i] < h


def test_enumerate_two_constants():
    fam = FunctionFamily([[0], [2]], "integer", 2)
    centers = enumerate_shattered_centers(fam, 1)
    got = [(tuple(c.support), c.levels) for c in centers]
    assert got == [((), ()), ((0,), (1,))]


def test_enumerate_sign_pattern_square():
    fam = FunctionFamily([[0, 0], [0, 2], [2, 0], [2, 2]], "integer", 2)
    centers = enumerate_shattered_centers(fam, 2)
    # oracle-confirmed count: trivial + ({0},1) + ({1},1) + ({0,1},(1,1))
    assert len(centers) == 4
    assert (oracle := oracle_centers(fam, 2)) is not None and len(oracle) == 4
    assert {(tuple(c.support), c.levels) for c in centers} == set(oracle)


def test_enumerate_matches_oracle_randomized():
    rng = np.random.default_rng(31)
    for trial in range(25):
        m = int(rng.integers(2, 8))
        n = int(rng.integers(1, 4))
        p = int(rng.integers(2, 6))
        fam = gen_random_family(m, n, "integer-grid", int(rng.integers(1 << 30)), grid_max=p)
        centers = enumerate_shattered_centers(fam, n)
        oracle = oracle_centers(fam, n)
        assert {(tuple(c.support), c.levels) for c in centers} == set(oracle)


def test_enumeration_budget(monkeypatch):
    fam = gen_random_family(10, 4, "integer-grid", 3, grid_max=8)
    monkeypatch.setattr(shattering, "DEFAULT_BUDGET", 2)
    # the first coordinate's levels alone exceed the budget: only the
    # trivial center is counted, and max mode has found dimension 0
    counted = r"exceeded budget 2 level checks \(centers counted: 1\)"
    with pytest.raises(BudgetError, match=counted):
        enumerate_shattered_centers(fam, 4)
    with pytest.raises(BudgetError, match=counted):
        shattered_center_counts(fam, 4)
    with pytest.raises(BudgetError, match=counted):
        shatter_witnesses(fam, 4)
    with pytest.raises(BudgetError, match=r"exceeded budget 2 level checks \(best dimension found: 0\)"):
        vc_integer(fam)
    # with room for a few coordinates, the message shows the walk's progress
    monkeypatch.setattr(shattering, "DEFAULT_BUDGET", 10)
    with pytest.raises(BudgetError, match=r"\(centers counted: 2\)"):
        shattered_center_counts(fam, 4)
    with pytest.raises(BudgetError, match=r"\(best dimension found: 2\)"):
        vc_integer(fam)


def test_budget_error_says_where_the_walk_stopped(monkeypatch):
    fam = gen_random_family(10, 4, "integer-grid", 3, grid_max=8)
    monkeypatch.setattr(shattering, "DEFAULT_BUDGET", 10)
    with pytest.raises(BudgetError, match=r"stopped extending support \(0, 1\) of dimension 2") as exc:
        vc_integer(fam)
    assert (exc.value.support, exc.value.dimension) == ((0, 1), 2)
    with pytest.raises(BudgetError) as exc:
        enumerate_shattered_centers(fam, 4)
    assert (exc.value.support, exc.value.dimension) == ((0,), 1)
    with pytest.raises(BudgetError, match=r"support None of dimension 1") as exc:
        shattered_center_counts(fam, 4)  # counting keeps no supports
    assert (exc.value.support, exc.value.dimension) == (None, 1)


def test_center_counts_match_oracle_per_dimension():
    rng = np.random.default_rng(41)
    for trial in range(40):
        m = int(rng.integers(2, 17))
        n = int(rng.integers(1, 5))
        p = int(rng.integers(2, 7))
        fam = gen_random_family(m, n, "integer-grid", int(rng.integers(1 << 30)), grid_max=p)
        max_dim = int(rng.integers(0, n + 1))
        per_dim = [0] * (max_dim + 1)
        for support, _ in oracle_centers(fam, max_dim):
            per_dim[len(support)] += 1
        while per_dim[-1] == 0:
            per_dim.pop()
        counts = shattered_center_counts(fam, max_dim)
        assert counts == per_dim
        assert sum(counts) == len(enumerate_shattered_centers(fam, max_dim))
        if max_dim == n:
            assert vc_integer(fam) == len(counts) - 1


def test_witnesses_from_walk_match_shatters():
    fam = gen_random_family(14, 4, "integer-grid", 5, grid_max=5)
    witnesses = shatter_witnesses(fam, 4)
    assert [w.center for w in witnesses] == enumerate_shattered_centers(fam, 4)
    for w in witnesses:
        assert w == shatters(fam, w.center)


def test_undominated_levels_match_pairwise_containment():
    # The level filter reads containment off neighbours, which relies on the
    # masks being monotone along each table; check it against all pairs.
    def pairwise(table):
        out = []
        for entries in table:
            live = [e for e in entries if e[1] and e[2]]
            out.append([e for j, e in enumerate(live) if not any(
                e[1] | f[1] == f[1] and e[2] | f[2] == f[2] and (k < j or e[1:] != f[1:])
                for k, f in enumerate(live) if k != j
            )])
        return out

    rng = np.random.default_rng(61)
    for trial in range(60):
        m = int(rng.integers(2, 25))
        n = int(rng.integers(1, 4))
        if trial % 2:
            grid = int(rng.integers(2, 12))
            table = _integer_table(gen_random_family(m, n, "integer-grid", trial, grid_max=grid))
        else:
            kind = ("uniform-real", "sign-vectors")[trial % 4 // 2]
            table = _real_table(gen_random_family(m, n, kind, trial), float(rng.uniform(0.01, 1.0)))
        assert _undominated(table) == pairwise(table)


def scan_walk(table, m, max_dim):
    """Every center the table's levels shatter, of dimension <= max_dim with
    2^dimension <= m, in depth-first preorder, each with one row mask per
    sign pattern (pattern p: bit j set = above on the j-th coordinate).
    Unlike the walk, it tries every level of every coordinate."""
    depth = min(max_dim, m.bit_length() - 1)
    found = [((), (), [(1 << m) - 1])]

    def extend(start, support, levels, masks):
        for i in range(start, len(table)):
            for v, below, above in table[i]:
                child = [w & below for w in masks] + [w & above for w in masks]
                if all(child):
                    found.append((support + (i,), levels + (v,), child))
                    if len(support) + 1 < depth:
                        extend(i + 1, support + (i,), levels + (v,), child)

    if depth > 0:
        extend(0, (), (), [(1 << m) - 1])
    return found


def scan_witness(support, levels, masks):
    patterns = [tuple(1 if p >> j & 1 else -1 for j in range(len(support)))
                for p in range(len(masks))]
    rows = [(w & -w).bit_length() - 1 for w in masks]
    return ShatterWitness(Center(CoordinateSubset(support), levels), dict(zip(patterns, rows)))


def cube_family(rng, extra):
    """The 16 rows of {0, 2}^4 plus `extra` random columns over {0, ..., 3},
    rows and columns shuffled: it shatters a 4-dimensional center."""
    cube = 2 * np.array(list(itertools.product((0, 1), repeat=4)))
    vals = np.hstack([cube, rng.integers(0, 4, size=(16, extra))])
    return FunctionFamily(vals[rng.permutation(16)][:, rng.permutation(4 + extra)], "integer", 3)


def test_bisected_walk_matches_a_plain_level_scan():
    rng = np.random.default_rng(71)
    deepest = 0
    for trial in range(150):
        m = int(rng.integers(2, 17))
        n = int(rng.integers(1, 6))
        seed = int(rng.integers(1 << 30))
        if trial % 3 == 0:
            t = float(rng.uniform(0.02, 0.6))
            fam = gen_random_family(m, n, "uniform-real", seed)
            found = scan_walk(_undominated(_real_table(fam, t)), m, n)
            dim = max(len(s) for s, _, _ in found)
            support, levels, _ = next(f for f in found if len(f[0]) == dim)
            assert vc_real_witness(fam, t) == (dim, CoordinateSubset(support), levels)
            continue
        if trial % 3 == 1:  # integer grid with many ties
            fam = gen_random_family(m, n, "integer-grid", seed, grid_max=int(rng.integers(1, 5)))
        else:
            fam = cube_family(rng, int(rng.integers(0, 3)))
        m, n = fam.size, fam.domain_size
        max_dim = int(rng.integers(0, n + 1))
        found = scan_walk(_integer_table(fam), m, max_dim)
        per_dim = collections.Counter(len(s) for s, _, _ in found)
        assert shattered_center_counts(fam, max_dim) == [per_dim[k] for k in range(len(per_dim))]
        expected = [scan_witness(*f) for f in found]
        assert shatter_witnesses(fam, max_dim) == expected
        for w in expected:
            assert shatters(fam, w.center) == w
        everything = scan_walk(_integer_table(fam), m, n)
        shattered = {(s, v) for s, v, _ in everything}
        vals = fam.int_values()
        for _ in range(20):
            support = tuple(sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)))
            levels = tuple(int(rng.integers(vals[:, i].min(), vals[:, i].max() + 1)) for i in support)
            got = shatters(fam, Center(CoordinateSubset(support), levels))
            assert (got is not None) == ((support, levels) in shattered)
        top = max(len(s) for s, _, _ in everything)
        assert vc_integer(fam) == top
        assert top == max(len(s) for s, _, _ in scan_walk(_undominated(_integer_table(fam)), m, n))
        deepest = max(deepest, len(per_dim) - 1)
    assert deepest == 4


def long_run_families(rng, count):
    """Integer grids with 20-30 levels per coordinate, alternating with
    discretized pipeline families (a coordinate subset of a noisy-signs
    family at scale t, discretized at t/2): few distinct masks per
    coordinate, so long runs of equal-mask levels."""
    for trial in range(count):
        if trial % 2 == 0:
            m, n = int(rng.integers(2, 13)), int(rng.integers(1, 6))
            yield gen_random_family(m, n, "integer-grid", int(rng.integers(1 << 30)),
                                    grid_max=int(rng.integers(20, 31)))
        else:
            n, t = int(rng.integers(6, 10)), float(rng.uniform(0.95, 1.2))
            fam = gen_separated_family(n, t, int(rng.integers(1 << 30)),
                                       int(rng.integers(6, 12)), kind="noisy-signs")
            coords = sorted(rng.choice(n, size=int(rng.integers(2, 6)), replace=False).tolist())
            yield discretize(fam.restrict(coords), t / 2.0)


def test_counts_over_runs_match_the_per_level_walks():
    rng = np.random.default_rng(73)
    deepest = 0
    for fam in long_run_families(rng, 30):
        m, n = fam.size, fam.domain_size
        counts = shattered_center_counts(fam, n)
        listed = collections.Counter(c.dimension for c in enumerate_shattered_centers(fam, n))
        scanned = collections.Counter(len(s) for s, _, _ in scan_walk(_integer_table(fam), m, n))
        assert counts == [listed[k] for k in range(len(listed))]
        assert counts == [scanned[k] for k in range(len(scanned))]
        assert vc_integer(fam) == len(counts) - 1
        deepest = max(deepest, len(counts) - 1)
    assert deepest == 3


def test_count_mode_charges_one_check_per_run(monkeypatch):
    # a discretized pipeline family: about 28 levels per coordinate, but
    # few distinct masks, so counting scans far fewer entries than listing
    fam = gen_separated_family(8, 1.0, [3, 7], 10, kind="noisy-signs")
    tilde = discretize(fam.restrict([0, 1, 2, 3, 4]), 0.5)
    counts = shattered_center_counts(tilde, 5)
    assert counts == [1, 130, 5374]
    monkeypatch.setattr(shattering, "DEFAULT_BUDGET", 1000)
    assert shattered_center_counts(tilde, 5) == counts
    with pytest.raises(BudgetError, match=r"exceeded budget 1000 level checks"):
        enumerate_shattered_centers(tilde, 5)


def test_level_masks_are_nested_along_each_coordinate():
    # The walk bisects each coordinate's levels for the run that splits every
    # pattern, which needs the below masks to grow and the above masks to
    # shrink as the level ascends, in every table it walks.
    def nested(table):
        return all(b | b2 == b2 and a | a2 == a and v < v2
                   for entries in table
                   for (v, b, a), (v2, b2, a2) in zip(entries, entries[1:]))

    rng = np.random.default_rng(67)
    tables = []
    for trial in range(30):
        m = int(rng.integers(2, 25))
        n = int(rng.integers(1, 5))
        grid = int(rng.integers(1, 10))
        tables.append(_integer_table(gen_random_family(m, n, "integer-grid", trial, grid_max=grid)))
        kind = ("uniform-real", "sign-vectors", "convex-hull-sections")[trial % 3]
        fam = gen_random_family(m, n, kind, trial)
        tables.append(_real_table(fam, float(rng.uniform(0.01, 1.0))))
        # quarter steps: repeated values, and t equal to a within-column difference
        quarters = FunctionFamily(np.round(fam.values * 4) / 4)
        tables.append(_real_table(quarters, 0.25 * int(rng.integers(1, 5))))
    ties = FunctionFamily([[0.0, 0.5], [0.25, 0.5], [0.25, 1.0], [0.75, 0.0], [0.0, 1.0]])
    for t in (0.25, 0.5, 0.75):
        tables.append(_real_table(ties, t))
    assert _real_table(ties, 0.5)[0][:2] == [(0.0, 0b10001, 0b01000), (0.25, 0b10111, 0b01000)]
    for table in tables:
        assert nested(table)
        assert nested(_undominated(table))


def predicate_table(vals, levels, t=None):
    """The level table from its definition: per coordinate and level, the
    rows with f < h and f > h (t None) or f <= h and f >= h + t."""
    def mask(sel):
        return sum(1 << int(r) for r in np.flatnonzero(sel))

    if t is None:
        return [[(h, mask(np.less(col, h)), mask(np.greater(col, h))) for h in cands]
                for col, cands in zip(vals.T, levels)]
    return [[(h, mask(col <= h), mask(col >= h + t)) for h in cands]
            for col, cands in zip(vals.T, levels)]


def test_sorted_level_tables_match_the_predicate_definition(monkeypatch):
    def integer_levels(vals):
        return [list(range(int(col.min()) + 1, int(col.max()))) for col in vals.T]

    def real_levels(vals, t):
        return [[float(v) for v in np.unique(col) if col.max() >= v + t] for col in vals.T]

    def check_real(fam, t):
        table = _real_table(fam, t)
        assert table == predicate_table(fam.values, real_levels(fam.values, t), t)
        assert all(type(v) is float for entries in table for v, _, _ in entries)

    walked = []
    walk = shattering._walk
    monkeypatch.setattr(shattering, "_walk", lambda table, *rest: walked.append(table) or walk(table, *rest))
    rng = np.random.default_rng(89)
    for trial in range(40):
        m = int(rng.integers(1, 25))
        n = int(rng.integers(1, 5))
        fam = gen_random_family(m, n, "integer-grid", trial, grid_max=int(rng.integers(0, 10)))
        vals = fam.int_values()
        table = _integer_table(fam)
        assert table == predicate_table(vals, integer_levels(vals))
        assert all(type(v) is int for entries in table for v, _, _ in entries)
        # shatters builds a one-level table, its levels possibly outside the attained range
        support = tuple(sorted(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)))
        levels = tuple(int(rng.integers(-2, fam.range_max + 3)) for _ in support)
        shatters(fam, Center(CoordinateSubset(support), levels))
        cols = vals[:, list(support)]
        assert walked.pop() == predicate_table(cols, [[h] for h in levels])
        real = gen_random_family(m, n, ("uniform-real", "convex-hull-sections")[trial % 2], trial)
        check_real(real, float(rng.uniform(0.01, 1.0)))
        # quarter steps: repeated values, and t equal to a within-column difference
        check_real(FunctionFamily(np.round(real.values * 4) / 4), 0.25 * int(rng.integers(1, 5)))
    # 65-300 rows: masks wider than a machine word
    for trial in range(6):
        m = int(rng.integers(65, 301))
        fam = gen_random_family(m, 3, "integer-grid", trial, grid_max=int(rng.integers(1, 10)))
        vals = fam.int_values()
        assert _integer_table(fam) == predicate_table(vals, integer_levels(vals))
        levels = (int(vals[:, 0].max()) + 1, int(vals[0, 2]))  # coordinate 0 above its range
        shatters(fam, Center(CoordinateSubset((0, 2)), levels))
        assert walked.pop() == predicate_table(vals[:, [0, 2]], [[h] for h in levels])
        real = gen_random_family(m, 3, "uniform-real", trial)
        check_real(FunctionFamily(np.round(real.values * 4) / 4), 0.25 * int(rng.integers(1, 5)))
    ties = FunctionFamily([[0.0, 0.5], [0.25, 0.5], [0.25, 1.0], [0.75, 0.0], [0.0, 1.0]])
    for t in (0.25, 0.5, 0.75, 1.0, 2.0):
        check_real(ties, t)


def test_vc_real_on_larger_families_matches_oracle():
    # Enough rows (up to 16) for the dimension caps and the level pruning
    # of the maximum search to take effect.
    rng = np.random.default_rng(29)
    for trial in range(12):
        m = int(rng.integers(8, 17))
        n = int(rng.integers(2, 5))
        kind = ("uniform-real", "convex-hull-sections", "sign-vectors")[trial % 3]
        fam = gen_random_family(m, n, kind, int(rng.integers(1 << 30)))
        t = float(rng.uniform(0.05, 0.8))
        assert vc_real(fam, t) == oracle_vc_real(fam, t)


def test_vc_real_witness_realizes_every_pattern():
    rng = np.random.default_rng(53)
    checked = 0
    for trial in range(30):
        m = int(rng.integers(4, 24))
        n = int(rng.integers(2, 8))
        kind = ("uniform-real", "convex-hull-sections", "sign-vectors")[trial % 3]
        fam = gen_random_family(m, n, kind, int(rng.integers(1 << 30)))
        t = float(rng.uniform(0.02, 0.5))
        dim, support, levels = vc_real_witness(fam, t)
        assert dim == vc_real(fam, t) == len(support) == len(levels)
        vals = fam.values
        for pattern in itertools.product((False, True), repeat=dim):
            assert any(
                all(row[i] >= h + t if up else row[i] <= h
                    for i, h, up in zip(support, levels, pattern))
                for row in vals
            ), (trial, support, levels, pattern)
        checked += dim > 0
    assert checked >= 10


def unpruned_max_walk(table, m, max_dim):
    """The max-mode walk with no test before entering a child: every child
    is entered, caps itself by its thinnest lane and returns when it cannot
    beat the best.  Scans each coordinate's entries in full for the ones
    whose masks split every lane, charging the walk's one check per entry.
    Returns ((dimension, support, levels), checks)."""
    n = len(table)
    depth = min(max_dim, m.bit_length() - 1)
    best, checks = (0, (), ()), 0

    def extend(start, k, support, levels, masks):
        nonlocal best, checks
        cap = min(depth, k + min(w.bit_count() for w in masks).bit_length() - 1)
        for i in range(start, n):
            reach = min(k + n - i, cap)
            if reach <= best[0]:
                return
            checks += len(table[i])
            for v, below, above in table[i]:
                child = [w & below for w in masks] + [w & above for w in masks]
                if not all(child):
                    continue
                if k + 1 > best[0]:
                    best = (k + 1, support + (i,), levels + (v,))
                if k + 1 < depth and i + 1 < n:
                    extend(i + 1, k + 1, support + (i,), levels + (v,), child)
                if reach <= best[0]:
                    return

    if depth > 0:
        extend(0, 0, (), (), [(1 << m) - 1])
    return best, checks


def test_max_mode_pruning_keeps_answers_and_budget(monkeypatch):
    # Testing a child's lanes before entering it is the negation of the
    # child's own first cap test: the same answers, the same level checks,
    # so a budget of exactly that many checks suffices and one less does not.
    def budget_holds_at(run, checks):
        monkeypatch.setattr(shattering, "DEFAULT_BUDGET", checks)
        run()
        if checks:
            monkeypatch.setattr(shattering, "DEFAULT_BUDGET", checks - 1)
            with pytest.raises(BudgetError):
                run()
        monkeypatch.undo()

    rng = np.random.default_rng(97)
    dims = collections.Counter()
    for trial in range(90):
        m = int(rng.integers(2, 25))
        n = int(rng.integers(1, 8))
        seed = int(rng.integers(1 << 30))
        if trial % 3 == 2:
            fam = gen_random_family(m, n, "integer-grid", seed, grid_max=int(rng.integers(1, 8)))
            (dim, support, levels), checks = unpruned_max_walk(
                _undominated(_integer_table(fam)), m, n)
            assert shattering._walk(_undominated(_integer_table(fam)), m, n, True) == (
                dim, support, levels)
            assert vc_integer(fam) == dim
            budget_holds_at(lambda: vc_integer(fam), checks)
        else:
            kind = ("uniform-real", "convex-hull-sections", "sign-vectors")[trial // 3 % 3]
            fam = gen_random_family(m, n, kind, seed)
            t = float(rng.uniform(0.02, 0.6))
            (dim, support, levels), checks = unpruned_max_walk(
                _undominated(_real_table(fam, t)), m, n)
            assert vc_real_witness(fam, t) == (dim, CoordinateSubset(support), levels)
            budget_holds_at(lambda: vc_real(fam, t), checks)
        dims[dim] += 1
    assert min(dims) == 0 and max(dims) >= 3


def charged_checks(monkeypatch, run, limit):
    """The fewest level checks run() needs, found by bisection over
    budgets up to `limit`, at which it must succeed."""
    def fits(budget):
        monkeypatch.setattr(shattering, "DEFAULT_BUDGET", budget)
        try:
            run()
        except BudgetError:
            return False
        finally:
            monkeypatch.undo()
        return True

    assert fits(limit)
    low, high = 0, limit
    while low < high:
        mid = (low + high) // 2
        low, high = (low, mid) if fits(mid) else (mid + 1, high)
    return low


def test_floored_walks_fit_the_unseeded_budget(monkeypatch):
    # A walk from a floor at most its dimension answers the dimension and
    # charges no more checks than the walk from 0, so with the budget at
    # the largest unseeded per-scale count every scale gets a dimension.
    rng = np.random.default_rng(103)
    saved = 0
    for trial in range(24):
        m = int(rng.integers(4, 25))
        n = int(rng.integers(2, 8))
        kind = ("uniform-real", "convex-hull-sections", "sign-vectors")[trial % 3]
        fam = gen_random_family(m, n, kind, int(rng.integers(1 << 30)))
        scales = sorted(float(t) for t in rng.uniform(0.02, 0.6, size=3))
        tables = [_undominated(_real_table(fam, t)) for t in scales]
        walks = [unpruned_max_walk(table, m, n) for table in tables]
        dims = [dim for (dim, _, _), _ in walks]
        most = max(checks for _, checks in walks)
        monkeypatch.setattr(shattering, "DEFAULT_BUDGET", most)
        assert shattering._vc_real_scales(fam, scales) == dims
        coarsest = walks[-1][1]  # the first walk, from no floor
        if coarsest:
            monkeypatch.setattr(shattering, "DEFAULT_BUDGET", coarsest - 1)
            assert isinstance(shattering._vc_real_scales(fam, scales)[-1], BudgetError)
            with pytest.raises(BudgetError):
                vc_curve(fam, scales)
        monkeypatch.undo()
        for table, ((dim, _, _), checks) in zip(tables, walks):
            for floor in range(dim + 1):
                def run(table=table, floor=floor, dim=dim):
                    assert shattering._walk(table, m, n, True, floor=floor)[0] == dim
                charged = charged_checks(monkeypatch, run, checks)
                assert charged == checks if floor == 0 else charged <= checks
                saved += checks - charged
    assert saved > 0


def test_vc_real_scales_match_vc_real_and_the_oracle(monkeypatch):
    # Duplicate scales, a float32 scale (read as a float64 t, as vc_real
    # reads it) and a scale above every column's range (dimension 0).
    # Each distinct scale gets one table, coarsest first, until a dimension
    # reaches the deepest any walk goes; the finer scales get no table.
    built, level_table = [], shattering._level_table
    monkeypatch.setattr(shattering, "_level_table", lambda cols, t: built.append(t) or level_table(cols, t))
    rng = np.random.default_rng(101)
    for trial in range(48):
        small = trial % 2 == 0
        m = int(rng.integers(2, 9 if small else 25))
        n = int(rng.integers(1, 4 if small else 8))
        kind = ("uniform-real", "convex-hull-sections", "sign-vectors")[trial // 2 % 3]
        fam = gen_random_family(m, n, kind, int(rng.integers(1 << 30)))
        spread = float((fam.values.max(axis=0) - fam.values.min(axis=0)).max())
        t = rng.uniform(0.02, 0.8, size=3)
        scales = [float(t[0]), float(t[1]), np.float32(t[2]), float(t[1]), spread + 0.01]
        built.clear()
        dims = shattering._vc_real_scales(fam, scales)
        walked = sorted(set(scales), reverse=True)
        deepest = [dict(zip(scales, dims))[s] == min(n, m.bit_length() - 1) for s in walked]
        assert built == (walked[:deepest.index(True) + 1] if True in deepest else walked)
        assert dims == [vc_real(fam, s) for s in scales]
        assert dims[1] == dims[3] and dims[4] == 0
        if small:
            assert dims == [oracle_vc_real(fam, float(s)) for s in scales]


def test_vc_integer_examples():
    assert vc_integer(FunctionFamily([[0, 0], [0, 2], [2, 0], [2, 2]], "integer", 2)) == 2
    assert vc_integer(FunctionFamily([[1, 1]], "integer", 1)) == 0
    assert vc_integer(FunctionFamily([[0], [1], [2]], "integer", 2)) == 1


def test_vc_integer_equals_max_enumerated_dimension():
    rng = np.random.default_rng(37)
    for trial in range(15):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(1, 4))
        p = int(rng.integers(2, 6))
        fam = gen_random_family(m, n, "integer-grid", int(rng.integers(1 << 30)), grid_max=p)
        centers = enumerate_shattered_centers(fam, n)
        assert vc_integer(fam) == max(c.dimension for c in centers)


# ---------------------------------------------------------------------------
# Real families.
# ---------------------------------------------------------------------------

def test_vc_real_examples():
    assert vc_real(SIGN_CUBE, 2.0) == 2
    assert vc_real(SIGN_CUBE, 2.5) == 0
    fam = FunctionFamily([[0.9, 0], [0, 0.9], [0.9, 0.9], [0, 0]])
    assert vc_real(fam, 0.9) == 2


def test_vc_real_matches_oracle_randomized():
    rng = np.random.default_rng(13)
    for trial in range(20):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(1, 4))
        fam = gen_random_family(m, n, "uniform-real", int(rng.integers(1 << 30)))
        t = float(rng.uniform(0.1, 1.2))
        assert vc_real(fam, t) == oracle_vc_real(fam, t)


def test_vc_real_basic_bounds():
    rng = np.random.default_rng(47)
    for trial in range(10):
        fam = gen_random_family(6, 3, "uniform-real", int(rng.integers(1 << 30)))
        spread = float((fam.values.max(axis=0) - fam.values.min(axis=0)).max())
        assert vc_real(fam, spread + 0.01) == 0
        assert vc_real(fam, 0.05) <= fam.domain_size


def test_vc_curve_non_increasing():
    assert vc_curve(SIGN_CUBE, [0.5, 1.0, 2.0]) == [(0.5, 2), (1.0, 2), (2.0, 2)]
    assert vc_curve(SIGN_CUBE, [2.5, 1.0, 2.5]) == [(1.0, 2), (2.5, 0), (2.5, 0)]
    assert vc_curve(SIGN_CUBE, [2.5]) == [(2.5, 0)]
    rng = np.random.default_rng(91)
    fam = gen_random_family(10, 4, "uniform-real", 419)
    grid = sorted(rng.uniform(0.05, 1.8, size=6))
    curve = vc_curve(fam, grid)
    dims = [d for _, d in curve]
    assert all(a >= b for a, b in zip(dims, dims[1:]))
    for t, d in curve:
        assert d == oracle_vc_real(fam, t)


# ---------------------------------------------------------------------------
# Cross-representation chain and counting bounds.
# ---------------------------------------------------------------------------

def test_vc_chain_discretization():
    rng = np.random.default_rng(83)
    for trial in range(15):
        n = int(rng.integers(2, 5))
        t = float(rng.uniform(0.8, 1.0))
        fam = gen_separated_family(n, t, int(rng.integers(1 << 30)), m_target=8)
        tilde = discretize(fam, t)
        assert vc_integer(tilde) <= vc_real(fam, t / 7.0)


def test_center_count_vs_leaves_and_sqrt_m():
    # integer families, strictly 6-separated, small enough to enumerate
    rng = np.random.default_rng(59)
    done = 0
    for trial in range(60):
        n = int(rng.integers(2, 5))
        fam = gen_separated_family(
            n, 6.0, int(rng.integers(1 << 30)), m_target=10,
            kind="integer-grid",
        )
        measure = ProbabilityMeasure.uniform(n)
        if fam.size < 2:
            continue
        assert is_separated(fam, measure, 6.0)
        tree = build_separating_tree(fam, measure, 6.0)
        centers = enumerate_shattered_centers(fam, n)
        assert len(centers) >= tree.leaf_count()
        assert len(centers) >= math.sqrt(fam.size)
        done += 1
    assert done >= 20


def test_shatter_witness_verify_rejects_a_bad_witness():
    # one coordinate with values 0 and 2: pattern (1,) needs a row above the
    # level, (-1,) a row below it, both strictly
    fam = FunctionFamily([[0], [2]], "integer", 2)

    def witness(level, assignments):
        return ShatterWitness(Center(CoordinateSubset((0,)), (level,)), assignments)

    assert witness(1, {(1,): 1, (-1,): 0}).verify(fam)
    assert not witness(1, {(1,): 1}).verify(fam)  # pattern (-1,) is missing
    assert not witness(2, {(1,): 1, (-1,): 0}).verify(fam)  # 2 is not above level 2
    assert not witness(0, {(1,): 1, (-1,): 0}).verify(fam)  # 0 is on level 0, not below it

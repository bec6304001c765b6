import bisect
import itertools
import json
import math
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from combdim import (
    Distribution,
    FunctionFamily,
    NotSeparatedError,
    ProbabilityMeasure,
    build_separating_tree,
    find_separating_coordinate,
    is_separated,
    validate_tree,
    variance,
)
from combdim.errors import FamilyError
from combdim.septree import (
    SeparatingTree,
    SplitCertificate,
    TreeNode,
    _moment_variance,
    _split,
    _split_coordinate,
    load_tree,
    save_tree,
    small_dev_split,
    sorted_atoms,
)
from combdim.experiments import gen_separated_family
from combdim.family import discretize, gen_random_family

UNIFORM2 = ProbabilityMeasure.uniform(2)
SIGN_CUBE = FunctionFamily([[1, 1], [1, -1], [-1, 1], [-1, -1]])


def random_distribution(rng, max_atoms=8):
    k = int(rng.integers(2, max_atoms))
    values = np.sort(rng.uniform(-3, 3, size=k))
    weights = rng.integers(1, 1000, size=k)
    return Distribution(tuple(zip(values.tolist(), weights.tolist())))


def test_variance_examples():
    var, pair = variance(Distribution(((0, 1), (1, 1))))
    assert var == pytest.approx(0.25, abs=1e-15)
    assert pair == pytest.approx(0.5, abs=1e-15)
    var, pair = variance(Distribution(((3.0, 1),)))
    assert var == 0.0 and pair == 0.0
    var, pair = variance(Distribution(((0, 3), (1, 1))))
    assert var == pytest.approx(3 / 16, abs=1e-15)
    assert pair == pytest.approx(3 / 8, abs=1e-15)


def test_variance_identity_randomized():
    rng = np.random.default_rng(101)
    for trial in range(1000):
        dist = random_distribution(rng)
        var, pair = variance(dist)
        assert abs(pair - 2.0 * var) <= 1e-12


def test_large_samples_sum_to_one():
    # weights are row counts, so m distinct values total exactly m rows
    for m in (10**5, 10**6):
        dist = Distribution.from_sample(np.arange(float(m)))
        assert len(dist.atoms) == m and dist.total == m
        assert all(w == 1 for _, w in dist.atoms)


def test_distribution_checks_its_atoms():
    assert Distribution(((0.0, 2), (1.0, 0))).total == 2
    for atoms in (
        ((0.0, 0.5), (1.0, 0.5)),  # float weights
        ((0.0, 1.0),),
        ((0.0, 2), (1.0, -1)),  # negative weight
        ((0.0, 0), (1.0, 0)),  # zero total
        (),
        ((0.0, 1), (0.0, 1)),  # repeated value
        ((1.0, 1), (0.0, 1)),  # descending values
    ):
        with pytest.raises(ValueError):
            Distribution(atoms)
    dist = Distribution.from_sample([2.0, -1.0, 2.0, 0.5, 2.0])
    assert dist.atoms == ((-1.0, 1), (0.5, 1), (2.0, 3)) and dist.total == 5


def golden_section_min(fn, lo, hi, iters=200):
    phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fn(d)
    return fn((a + b) / 2)


def test_variance_is_min_mean_square_deviation():
    rng = np.random.default_rng(55)
    for trial in range(50):
        dist = random_distribution(rng)
        var, _ = variance(dist)

        def mean_sq(a):
            return sum(w / dist.total * (v - a) ** 2 for v, w in dist.atoms)

        lo = min(v for v, _ in dist.atoms)
        hi = max(v for v, _ in dist.atoms)
        assert golden_section_min(mean_sq, lo, hi) == pytest.approx(var, abs=1e-9)


def test_small_dev_split_symmetric_two_point():
    dist = Distribution(((-1, 1), (1, 1)))
    cert = small_dev_split(dist)
    assert cert.threshold == pytest.approx(0.0)
    assert cert.beta == 0.5 and cert.share == cert.total == 2
    assert cert.side == "upper-heavy"  # tie rule prefers upper-heavy
    assert cert.upper == 1 and cert.lower == 1
    assert cert.gap_halfwidth == pytest.approx(1 / 6)
    assert cert.is_valid_for(dist)


def test_small_dev_split_skewed():
    dist = Distribution(((0, 3), (1, 1)))
    cert = small_dev_split(dist)
    assert cert.side == "lower-heavy"
    assert cert.threshold == pytest.approx(0.5)
    assert cert.beta == 0.5
    assert cert.lower == 3 and cert.upper == 1 and cert.total == 4
    assert cert.gap_halfwidth == pytest.approx(math.sqrt(3 / 16) / 6)
    assert cert.is_valid_for(dist)


def test_small_dev_split_rejects_point_mass():
    # one value carries every row, next to atoms of weight 0
    for atoms in (((3.0, 1),), ((0.2, 7), (5.0, 0)), ((-1.0, 0), (0.2, 7), (5.0, 0))):
        with pytest.raises(ValueError, match="needs nonzero variance"):
            small_dev_split(Distribution(atoms))


def test_small_dev_split_exists_randomized():
    # existence is guaranteed for every nonzero-variance distribution
    rng = np.random.default_rng(202)
    for trial in range(1000):
        dist = random_distribution(rng)
        cert = small_dev_split(dist)
        assert cert.is_valid_for(dist)
        assert 0 < cert.beta <= 0.5
        var, _ = variance(dist)
        assert cert.gap_halfwidth == pytest.approx(math.sqrt(var) / 6)


def test_certificates_are_checked_in_row_counts():
    # the upper tail is one row short of half of 2 * 10^12 rows
    big = 10**12
    dist = Distribution(((0.0, big + 1), (1.0, big - 1)))
    cert = SplitCertificate(0.5, 2 * big, 2 * big, 0.1, "upper-heavy", big - 1, big + 1)
    assert cert.beta == 0.5
    assert not cert.is_valid_for(dist)
    assert replace(cert, side="lower-heavy").is_valid_for(dist)
    for bad in (
        replace(cert, side="middle"),
        replace(cert, side="lower-heavy", lower=big),  # tail miscounted
        replace(cert, side="lower-heavy", total=2 * big + 1),
        replace(cert, side="lower-heavy", share=0),
        replace(cert, side="lower-heavy", share=2 * big + 1),  # beta above 1/2
        replace(cert, side="lower-heavy", gap_halfwidth=0.0),
    ):
        assert not bad.is_valid_for(dist), bad


def _exact_best_split(values, weights):
    """small_dev_split by brute force over its own float thresholds, with
    tails counted in rows and the key (score, beta, upper-heavy, smaller
    threshold) compared in Fraction."""
    total = sum(weights)
    probs = [w / total for w in weights]
    mean = sum(p * v for v, p in zip(values, probs))
    gap = math.sqrt(sum(p * (v - mean) ** 2 for v, p in zip(values, probs))) / 6.0
    thresholds = set(values)
    thresholds.update((a + b) / 2.0 for a, b in zip(values, values[1:]))
    breaks = sorted({v - gap for v in values} | {v + gap for v in values})
    thresholds.update(breaks)
    thresholds.update((a + b) / 2.0 for a, b in zip(breaks, breaks[1:]))
    half = Fraction(1, 2)
    betas, acc = {half}, 0
    for w in weights:
        acc += w
        betas.update(min(Fraction(c, total), half) for c in (acc, total - acc) if c)
    bounds = [(beta, 1 - beta, beta / 2) for beta in betas]
    best, seen = None, set()
    for a in sorted(thresholds):
        tails = (sum(w for v, w in zip(values, weights) if v > a + gap),
                 sum(w for v, w in zip(values, weights) if v < a - gap))
        if tails in seen:
            continue  # an earlier, smaller threshold with these tails wins every tie
        seen.add(tails)
        up, lo = (Fraction(c, total) for c in tails)
        for side, heavy, light in (("upper-heavy", up, lo), ("lower-heavy", lo, up)):
            for beta, heavy_min, light_min in bounds:
                if heavy >= heavy_min and light >= light_min:
                    key = (min(heavy - heavy_min, light - light_min), beta, side == "upper-heavy")
                    if best is None or key > best[0]:
                        best = (key, a, side, beta)
    return best[1:]


def test_small_dev_split_follows_its_tie_order_exactly():
    # integer columns repeat values, so tail masses like 5/12 tie exactly
    # between thresholds and shares; a float score rounds such ties apart
    mismatches = []
    for seed in range(300):
        rng = np.random.default_rng([seed, 1])
        m, n, grid_max = int(rng.integers(2, 40)), int(rng.integers(1, 6)), int(rng.integers(1, 7))
        family = gen_random_family(m, n, "integer-grid", [seed, 2], grid_max=grid_max)
        for col in family.values.T:
            dist = Distribution.from_sample(col)
            if len(dist.atoms) < 2:
                continue
            threshold, side, beta = _exact_best_split(*map(list, zip(*dist.atoms)))
            cert = small_dev_split(dist)
            if (cert.threshold, cert.side, cert.beta) != (threshold, side, float(beta)):
                mismatches.append((seed, cert, threshold, side, beta))
    assert not mismatches, mismatches[:3]


def test_small_dev_split_is_the_exact_best_split_at_large_row_counts():
    # counts up to 10^6 space the shares far apart, so the crossing of the two
    # score terms falls strictly between shares and only its two neighbours are scored
    rng = np.random.default_rng(31)
    for trial in range(200):
        k = int(rng.integers(2, 9))
        draw = rng.integers(0, 12, k) / 12.0 if trial % 2 else rng.uniform(-1, 1, k)
        values = sorted(set(draw.tolist()))
        weights = rng.integers(0, [1, 10, 1000, 10**6][trial % 4] + 1, len(values)).tolist()
        if len(values) < 2 or sum(w > 0 for w in weights) < 2:
            continue
        cert = small_dev_split(Distribution(tuple(zip(values, weights))))
        threshold, side, beta = _exact_best_split(values, weights)
        assert (cert.threshold, cert.side, cert.beta) == (threshold, side, float(beta)), trial


def _unpruned_split(dist):
    """small_dev_split scoring every candidate threshold and both sides,
    building a certificate at each improvement."""
    import bisect
    import itertools

    gap = math.sqrt(_moment_variance(dist.atoms)) / 6.0
    values = [v for v, _ in dist.atoms]
    candidates = set(values)
    candidates.update((a + b) / 2.0 for a, b in zip(values, values[1:]))
    breaks = sorted({v - gap for v in values} | {v + gap for v in values})
    candidates.update(breaks)
    candidates.update((a + b) / 2.0 for a, b in zip(breaks, breaks[1:]))
    total = dist.total
    below = [0, *itertools.accumulate(w for _, w in dist.atoms)]
    shares = sorted({total} | {min(2 * c, total) for acc in below[1:]
                               for c in (acc, total - acc) if c > 0})
    best = None
    best_key = None
    for a in sorted(candidates):
        up = total - below[bisect.bisect_right(values, a + gap)]
        lo = below[bisect.bisect_left(values, a - gap)]
        for side, heavy, light in (("upper-heavy", up, lo), ("lower-heavy", lo, up)):
            cut = bisect.bisect_right(shares, 4 * (light - heavy + total) // 3)
            for share in shares[max(cut - 1, 0) : cut + 1]:
                score = min(4 * heavy - 4 * total + 2 * share, 4 * light - share)
                if score < 0:
                    continue
                key = (score, share, side == "upper-heavy")
                if best_key is None or key > best_key:
                    best_key = key
                    best = SplitCertificate(a, share, total, gap, side, up, lo)
    return best


def test_small_dev_split_scores_each_tail_regime_once():
    # grid values and equal counts make many thresholds tie; the zero atom is
    # -0.0 in half the trials, and the thresholds must match in sign too
    rng = np.random.default_rng(53)
    checked = 0
    for trial in range(1500):
        k = int(rng.integers(2, 13))
        grid = rng.choice(np.arange(-6, 7), size=k, replace=False) / 4.0
        values = sorted((-0.0 if v == 0 and trial % 2 else float(v)) for v in grid)
        cap = [1, 3, 100, 10**6][trial % 4]
        weights = ([int(rng.integers(1, cap + 1))] * k if trial % 3 == 0
                   else rng.integers(0, cap + 1, k).tolist())
        if sum(w > 0 for w in weights) < 2:
            continue
        dist = Distribution(tuple(zip(values, weights)))
        assert repr(small_dev_split(dist)) == repr(_unpruned_split(dist)), trial
        checked += 1
    assert checked > 1300


def _bisection_split(atoms, dev: float, gap: float) -> SplitCertificate:
    """The split search as it counted both tails by bisection at every
    candidate threshold: the reference for _split's pointer sweep."""
    if not dev > 0.0:
        raise ValueError("small-deviation split needs nonzero variance")
    values = [v for v, _ in atoms]
    below = [0, *itertools.accumulate(w for _, w in atoms)]  # rows in the first k atoms
    total = below[-1]

    def tails(a: float, g: float) -> tuple[int, int]:
        # rows above a + g, rows below a - g
        above = total - below[bisect.bisect_right(values, a + g)]
        return above, below[bisect.bisect_left(values, a - g)]

    candidates = set(values)
    candidates.update((a + b) / 2.0 for a, b in zip(values, values[1:]))
    breaks = sorted({v - dev for v in values} | {v + dev for v in values})
    candidates.update(breaks)
    candidates.update((a + b) / 2.0 for a, b in zip(breaks, breaks[1:]))

    # shares 2 * total * beta: doubled partial counts and their complements, clipped at beta = 1/2
    shares = sorted({total} | {min(2 * c, total) for acc in below[1:]
                               for c in (acc, total - acc) if c > 0})
    best = None  # (key, threshold)
    last = None
    for a in sorted(candidates):  # ascending, and ties keep the first: the smaller threshold
        up, lo = tails(a, dev)
        if (up, lo) == last:
            continue
        last = up, lo
        for upper_heavy, heavy, light in ((True, up, lo), (False, lo, up)):
            if 2 * heavy < total:
                continue
            # the score rises strictly in the share below s* = 4 (light - heavy + total) / 3
            # and falls strictly above it, so the best share is one of the two around s*
            cut = bisect.bisect_right(shares, 4 * (light - heavy + total) // 3)
            for share in shares[max(cut - 1, 0) : cut + 1]:
                score = min(4 * heavy - 4 * total + 2 * share, 4 * light - share)
                if score < 0:
                    continue
                key = (score, share, upper_heavy)
                if best is None or key > best[0]:
                    best = key, a
    assert best is not None, "no split certificate found for a nonzero-variance distribution"
    (_, share, upper_heavy), a = best
    cert = SplitCertificate(a, share, total, gap, "upper-heavy" if upper_heavy else "lower-heavy",
                            *tails(a, gap))
    assert cert._holds(), "split certificate fails its inequalities at its gap"
    return cert


def _search_outcome(search, atoms, dev, gap):
    """The certificate's repr, or the type and message of the error raised
    (its first line: pytest appends the failing expression to a test
    module's own assert messages)."""
    try:
        return repr(search(atoms, dev, gap))
    except (AssertionError, ValueError) as exc:
        return type(exc).__name__, str(exc).splitlines()[0]


def _assert_searches_agree(atoms, dev):
    # gap == dev as small_dev_split states it, and shrunk gaps as trees state them
    for gap in (dev, dev / 2.0, dev * 0.999, dev / 12.0):
        expected = _search_outcome(_bisection_split, atoms, dev, gap)
        assert _search_outcome(_split, atoms, dev, gap) == expected, (atoms, dev, gap)


def test_split_search_matches_the_bisection_search_on_grids():
    # tie-heavy grids: values a step apart (1, 0.1 and 1/3, so grid points
    # round), 1-12 atoms of 1-4 rows; one atom has no variance and raises
    rng = np.random.default_rng(29)
    for trial in range(3000):
        step = (1.0, 0.1, 1 / 3)[trial % 3]
        k = int(rng.integers(1, 13))
        values = rng.choice(np.arange(-9, 10), size=k, replace=False) * step
        atoms = tuple((v, int(w)) for v, w in zip(sorted(values.tolist()), rng.integers(1, 5, k)))
        _assert_searches_agree(atoms, math.sqrt(_moment_variance(atoms)) / 6.0)


def test_split_search_matches_the_bisection_search_where_thresholds_round():
    # values a few ulps apart near -1, 1 and 1e-300, where a +- dev rounds
    # onto the atoms; dev is sigma/6 and also scaled off it, so some
    # searches find no certificate and both must fail alike
    rng = np.random.default_rng(31)
    for trial in range(1000):
        base = (-1.0, 1.0, 1e-300)[trial % 3]
        ulp = math.ulp(base)
        k = int(rng.integers(1, 13))
        offsets = rng.choice(np.arange(-12, 13), size=k, replace=False).tolist()
        values = sorted({base + j * ulp for j in offsets})
        atoms = tuple((v, int(rng.integers(1, 5))) for v in values)
        sigma = math.sqrt(_moment_variance(atoms))
        for dev in (sigma / 6.0, sigma, ulp / 2.0, ulp * 1.5):
            if dev > 0.0:
                _assert_searches_agree(atoms, dev)


def test_column_choice_is_the_argmax_of_np_var():
    # tie-heavy matrices, 2-40 rows: from 8 rows up numpy's axis-0 sums of
    # a column-major matrix (as `restrict` makes) are pairwise, not
    # sequential, and the choice must round as np.var does.  Negated and
    # shifted copies of a column have its exact variance, so rounding alone
    # orders them.
    rng = np.random.default_rng(37)
    large = 0
    for trial in range(1500):
        m, n = int(rng.integers(2, 41)), int(rng.integers(1, 10))
        values = (rng.integers(0, int(rng.integers(2, 6)), size=(m, n)).astype(float)
                  if trial % 3 == 0 else
                  np.round(rng.uniform(-1, 1, size=(m, n)), 1) if trial % 3 == 1 else
                  rng.integers(-3, 4, size=(m, n)) / 3.0)
        if trial % 2:
            col = values[:, 0]
            copies = [col, -col, col + 0.1, 0.7 - col, col - 1 / 3, col * 3.0]
            values = np.column_stack([copies[j % len(copies)] for j in range(n)])
        if trial % 4 >= 2:
            values = np.asfortranarray(values)
        ordered = np.sort(values, axis=0)
        i = int(np.argmax(ordered.var(axis=0)))
        sigma = math.sqrt(_moment_variance(sorted_atoms(ordered[:, i].tolist())))
        if sigma == 0.0:
            continue
        assert _split_coordinate(values, sigma)[0] == i, trial
        large += m >= 8
    assert large > 1000

    flat = np.full((9, 3), 0.25)
    with pytest.raises(AssertionError, match="no coordinate with sigma"):
        _split_coordinate(flat, 1.0)
    with pytest.raises(ValueError, match="needs nonzero variance"):
        _split_coordinate(flat, 0.0)


def test_sorted_atoms_are_the_distribution_atoms():
    rng = np.random.default_rng(41)
    for trial in range(300):
        col = np.round(rng.uniform(-1, 1, size=int(rng.integers(1, 30))), 1)
        assert sorted_atoms(np.sort(col).tolist()) == Distribution.from_sample(col).atoms


def test_find_separating_coordinate_examples():
    fam = FunctionFamily([[1, 0], [-1, 0]])
    i, cert = find_separating_coordinate(fam, UNIFORM2, 1.4)
    assert i == 0
    assert cert.threshold == pytest.approx(0.0)
    assert cert.gap_halfwidth == pytest.approx(1.4 / 12)

    fam = FunctionFamily([[1, 1], [-1, -1]])
    i, cert = find_separating_coordinate(fam, UNIFORM2, 1.9)
    assert i == 0  # variance tie broken toward the smaller index

    dup = FunctionFamily([[0.3, 0.3], [0.3, 0.3]])
    with pytest.raises(NotSeparatedError) as err:
        find_separating_coordinate(dup, UNIFORM2, 0.5)
    assert err.value.pair == (0, 1)
    assert str(err.value) == "family is not 0.5-separated: rows 0 and 1 at distance 0.0"


def test_split_picks_the_first_of_columns_with_equal_values():
    # a column's variance is taken over its sorted values, so permuted
    # columns tie exactly and the smaller index wins
    rng = np.random.default_rng(17)
    for trial in range(300):
        m, n = int(rng.integers(2, 13)), int(rng.integers(2, 8))
        col = (rng.integers(0, int(rng.integers(2, 6)), size=m).astype(float) if trial % 2
               else np.round(rng.uniform(-1, 1, size=m), 1))
        if col.min() == col.max():
            continue
        values = np.column_stack([col] + [rng.permutation(col) for _ in range(n - 1)])
        i, cert = _split_coordinate(values, float(np.std(col)))
        assert i == 0
        assert cert.is_valid_for(Distribution.from_sample(col))


def test_split_column_has_the_largest_variance():
    rng = np.random.default_rng(19)
    for trial in range(200):
        m, n = int(rng.integers(2, 13)), int(rng.integers(1, 8))
        values = (rng.integers(0, int(rng.integers(2, 9)), size=(m, n)).astype(float) if trial % 2
                  else rng.uniform(-1, 1, size=(m, n)))
        variances = [_moment_variance(Distribution.from_sample(col).atoms) for col in values.T]
        top = max(variances)
        if top == 0.0:
            continue
        i, _ = _split_coordinate(values, math.sqrt(top))
        assert variances[i] >= top * (1.0 - 1e-12)


def test_tree_builds_no_distribution(monkeypatch):
    built = []
    real = Distribution.__post_init__

    def counting(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(Distribution, "__post_init__", counting)
    family = gen_separated_family(7, 1.0, 45, m_target=12, kind="noisy-signs")
    tree = build_separating_tree(family, ProbabilityMeasure.uniform(7), 1.0)
    assert len([node for node in tree.nodes if not node.is_leaf]) >= 3
    assert built == []


def _shrunk_reference(col, t):
    """small_dev_split of the column's Distribution, its gap shrunk to
    t/12 and both tails recounted there."""
    dist = Distribution.from_sample(col)
    cert = small_dev_split(dist)
    gap = t / 12.0
    return replace(cert, gap_halfwidth=gap, upper=dist.tail_above(cert.threshold + gap),
                   lower=dist.tail_below(cert.threshold - gap))


def test_split_certificates_match_the_distribution_path_on_ties():
    # tie-heavy value matrices: repeated values, so atoms have counts above 1
    rng = np.random.default_rng(0)
    checked = 0
    for trial in range(2000):
        m, n = int(rng.integers(2, 13)), int(rng.integers(2, 8))
        values = (rng.integers(0, int(rng.integers(2, 6)), size=(m, n)).astype(float) if trial % 2
                  else np.round(rng.uniform(-1, 1, size=(m, n)), 1))
        i = int(np.argmax(np.sort(values, axis=0).var(axis=0)))
        sigma = math.sqrt(_moment_variance(Distribution.from_sample(values[:, i]).atoms))
        if sigma == 0.0:
            continue
        for t in (2.0 * sigma, sigma, 0.3 * sigma):
            coord, cert = _split_coordinate(values, t)
            assert coord == i
            assert repr(cert) == repr(_shrunk_reference(values[:, i], t)), (trial, t)
            checked += 1
    assert checked > 5000


def test_tree_splits_match_the_distribution_path():
    # integer trees as the pipeline's center-count stage builds them: the
    # discretized family repeats values, so split atoms have counts above 1
    splits = 0
    for seed in range(8):
        family = discretize(gen_separated_family(6, 1.0, seed, 11, kind="noisy-signs"), 0.5)
        tree = build_separating_tree(family, ProbabilityMeasure.uniform(6), 6.0)
        for node in tree.nodes:
            if node.is_leaf:
                continue
            values = family.values[list(node.indices)]
            i = int(np.argmax(np.sort(values, axis=0).var(axis=0)))
            assert (node.coordinate, node.threshold) == (i, _shrunk_reference(values[:, i], 6.0).threshold)
            splits += 1
    assert splits >= 40


def test_build_tree_sign_cube():
    t = 1.4
    tree = build_separating_tree(SIGN_CUBE, UNIFORM2, t)
    assert tree.leaf_count() == 4
    root = tree.nodes[0]
    assert root.coordinate == 0
    assert tree.nodes[root.plus].coordinate == 1
    assert validate_tree(tree, SIGN_CUBE, t / 6.0)
    # doubled gap: son values differ by exactly 2 > 2 * (1.4 / 6)
    assert validate_tree(tree, SIGN_CUBE, 2 * t / 6.0)
    # but the gap cannot exceed the actual value difference
    assert not validate_tree(tree, SIGN_CUBE, 2.1)


def test_build_tree_pair_and_singleton():
    pair = FunctionFamily([[1, 1], [-1, -1]])
    tree = build_separating_tree(pair, UNIFORM2, 1.9)
    assert tree.leaf_count() == 2
    single = FunctionFamily([[0.5, 0.5]])
    tree = build_separating_tree(single, UNIFORM2, 1.0)
    assert tree.leaf_count() == 1 and tree.nodes == (TreeNode((0,)),)


def test_validate_rejects_overlapping_sons():
    fam = FunctionFamily([[1, 0], [-1, 0]])
    bad = SeparatingTree(
        (
            TreeNode((0, 1), 0, 0.0, 1, 2),
            TreeNode((0, 1)),  # overlaps with the minus son
            TreeNode((1,)),
        ),
        1.2, 0.2,
    )
    result = validate_tree(bad, fam, 0.2)
    assert not result and "overlap" in result.failure


def test_validate_rejects_foreign_rows():
    fam = FunctionFamily([[1, 0], [-1, 0], [0, 0]])
    bad = SeparatingTree((TreeNode((0, 1), 0, 0.0, 1, 2), TreeNode((0,)), TreeNode((2,))), 1.2, 0.2)
    result = validate_tree(bad, fam, 0.2)
    assert not result and "escape" in result.failure


def test_validate_names_the_first_violating_pair():
    # plus rows 0, 1 and minus rows 2, 3 on coordinate 0: pairs (0, 2) and
    # (1, 2) break the gap 0.5; the first in plus-then-minus order is named,
    # not the pair of extremes (1, 2)
    fam = FunctionFamily([[0.4, 0], [0.2, 0], [0.0, 0], [-0.5, 0]])
    tree = SeparatingTree(
        (TreeNode((0, 1, 2, 3), 0, 0.0, 1, 2), TreeNode((0, 1)), TreeNode((2, 3))), 3.0, 0.5,
    )
    result = validate_tree(tree, fam, 0.5)
    assert result.failure == (
        "gap violated at node (0, 1, 2, 3): rows 0,2 on coordinate 0 differ by 0.4 <= 0.5"
    )


def test_validate_names_each_broken_list():
    # on the sign square: root (0, 1, 2, 3) at 0 with sons (0, 1) at 1 and
    # (2, 3) at 2; (0, 1) splits into (0,) at 3 and (1,) at 4
    nodes = (TreeNode((0, 1, 2, 3), 0, 0.0, 1, 2), TreeNode((0, 1), 1, 0.0, 3, 4),
             TreeNode((2, 3)), TreeNode((0,)), TreeNode((1,)))
    assert validate_tree(SeparatingTree(nodes, 1.4, 0.2), SIGN_CUBE, 0.2)
    root, split, rest = nodes[0], nodes[1], nodes[2:]
    cases = [
        ((root, replace(split, plus=5)) + rest, "son position 5 out of range at node (0, 1)"),
        ((root, replace(split, minus=-1)) + rest, "son position -1 out of range at node (0, 1)"),
        # (0, 1) moved to the end, its plus son (0,) now listed before it
        ((replace(root, plus=4), TreeNode((0,)), nodes[2], TreeNode((1,)),
          replace(split, plus=1, minus=3)),
         "son at position 1 is not listed after its parent at position 4"),
        ((root, replace(split, minus=2)) + rest, "node at position 2 is a son of positions 0 and 1"),
        (nodes + (TreeNode((3,)),), "node at position 5 is the son of no node"),
        ((root, replace(split, minus=None)) + rest, "non-leaf (0, 1) lacks two sons"),
        ((), "tree has no nodes"),
    ]
    for bad, failure in cases:
        assert validate_tree(SeparatingTree(bad, 1.4, 0.2), SIGN_CUBE, 0.2).failure == failure


def _pairwise_gap_failure(tree, values, gap):
    """The gap check of validate_tree as the per-pair loop it replaces."""
    for node in tree.nodes:
        if node.is_leaf:
            continue
        i = node.coordinate
        for f in tree.nodes[node.plus].indices:
            for g in tree.nodes[node.minus].indices:
                if not values[f, i] > values[g, i] + gap:
                    return (f"gap violated at node {node.indices}: rows {f},{g} on coordinate {i} "
                            f"differ by {float(values[f, i] - values[g, i])!r} <= {float(gap)!r}")
    return None


def test_validate_gap_check_matches_the_pairwise_loop():
    rng = np.random.default_rng(404)
    for trial in range(20):
        signs = np.unique(rng.integers(0, 2, size=(12, 4)) * 2.0 - 1.0, axis=0)
        fam = FunctionFamily(signs * rng.uniform(0.8, 1.0, size=signs.shape))
        tree = build_separating_tree(fam, ProbabilityMeasure.uniform(4), 0.7)
        root = tree.nodes[0]
        diffs = np.subtract.outer(fam.values[list(tree.nodes[root.plus].indices), root.coordinate],
                                  fam.values[list(tree.nodes[root.minus].indices), root.coordinate])
        # every gap at which some root pair ties, plus gaps between and beyond
        for gap in sorted(set(diffs.ravel())) + [0.05, 1.0, 1.7]:
            expected = _pairwise_gap_failure(tree, fam.values, gap)
            assert validate_tree(tree, fam, gap).failure == expected, (trial, gap)


def test_validate_names_the_pairwise_pair_on_swapped_sons():
    # swapping one split's sons breaks its gap; on real and integer trees
    # the failure names the first pair of the per-pair loop
    checked = 0
    for seed in range(10):
        family = gen_separated_family(6, 1.0, seed, 11, kind="noisy-signs")
        for fam, t in ((family, 1.0), (discretize(family, 0.5), 6.0)):
            tree = build_separating_tree(fam, ProbabilityMeasure.uniform(6), t)
            for k, node in enumerate(tree.nodes):
                if node.is_leaf:
                    continue
                nodes = list(tree.nodes)
                nodes[k] = replace(node, plus=node.minus, minus=node.plus)
                bad = replace(tree, nodes=tuple(nodes))
                for gap in (t / 6.0, 1e-9, 2.0 * t):
                    expected = _pairwise_gap_failure(bad, fam.values, gap)
                    assert expected is not None
                    assert validate_tree(bad, fam, gap).failure == expected, (seed, k, gap)
                    checked += 1
    assert checked > 150


def test_load_tree_names_the_file_of_a_node_without_minus(tmp_path):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps({"scale": 1.4, "gap": 0.2, "nodes": [
        {"indices": [0, 1], "coordinate": 0, "threshold": 0.0, "plus": 1}, {"indices": [0]}]}))
    with pytest.raises(FamilyError, match=f"missing key 'minus' in a node of tree file {path}"):
        load_tree(path)


def test_tree_round_trip_dict(tmp_path):
    # each node is one JSON object in the file and loads back to itself
    tree = build_separating_tree(SIGN_CUBE, UNIFORM2, 1.4)
    path = tmp_path / "tree.json"
    save_tree(path, tree)
    docs = json.loads(path.read_text())["nodes"]
    assert len(docs) == len(tree.nodes) == 7
    for doc, node in zip(docs, tree.nodes):
        assert doc == ({"indices": list(node.indices)} if node.is_leaf else
                       {"indices": list(node.indices), "coordinate": node.coordinate,
                        "threshold": node.threshold, "plus": node.plus, "minus": node.minus})
    again = load_tree(path)
    assert again == tree
    assert again.leaf_count() == tree.leaf_count()
    assert validate_tree(again, SIGN_CUBE, tree.gap)


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_deep_chain_tree_needs_no_recursion(tmp_path):
    # eye(m) at scale 1/sqrt(m) splits one row off per level: a chain of
    # m - 1 levels, built, counted, validated, saved and loaded in 60
    # frames of stack
    m = 120
    family = FunctionFamily(np.eye(m))
    path = tmp_path / "chain.json"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 60)
    try:
        tree = build_separating_tree(family, ProbabilityMeasure.uniform(m), 1 / math.sqrt(m))
        leaves = tree.leaf_count()
        valid = validate_tree(tree, family, tree.gap)
        save_tree(path, tree)
        again = load_tree(path)
        valid_again = validate_tree(again, family, tree.gap)
    finally:
        sys.setrecursionlimit(limit)
    assert leaves == m and valid
    assert again == tree and again.leaf_count() == m and valid_again
    node, levels = tree.nodes[0], 0
    while not node.is_leaf:
        node = max(tree.nodes[node.plus], tree.nodes[node.minus], key=lambda s: len(s.indices))
        levels += 1
    assert levels == m - 1


def test_tree_with_nonuniform_measure():
    # the separation precondition lives in L2(mu); the split itself is
    # measure-free, so the guarantees survive non-uniform weights
    rng = np.random.default_rng(121)
    for trial in range(20):
        n = int(rng.integers(3, 7))
        w = rng.random(n) + 0.1
        measure = ProbabilityMeasure(w / w.sum())
        signs = rng.integers(0, 2, size=(60, n)) * 2.0 - 1.0
        pool = FunctionFamily(signs * rng.uniform(0.8, 1.0, size=(60, n)))
        t = float(rng.uniform(0.7, 1.0))
        from combdim.entropy import pairwise_distances

        dist = pairwise_distances(pool, measure)
        rows = [0]
        for i in range(1, 60):
            if all(dist[i, j] > t for j in rows):
                rows.append(i)
            if len(rows) == 8:
                break
        if len(rows) < 2:
            continue
        family = pool.subfamily(rows)
        tree = build_separating_tree(family, measure, t)
        assert tree.leaf_count() ** 2 >= family.size
        assert validate_tree(tree, family, t / 6.0)


def test_leaf_count_guarantee_randomized():
    rng = np.random.default_rng(71)
    for trial in range(40):
        n = int(rng.integers(3, 8))
        t = float(rng.uniform(0.8, 1.2))
        family = gen_separated_family(
            n, t, int(rng.integers(1 << 30)), m_target=12, kind="noisy-signs"
        )
        measure = ProbabilityMeasure.uniform(n)
        assert is_separated(family, measure, t)
        tree = build_separating_tree(family, measure, t)
        leaves = tree.leaf_count()
        assert leaves * leaves >= family.size
        assert validate_tree(tree, family, t / 6.0)
        # sons and dropped middle bands partition within the parent
        for node in tree.nodes:
            if not node.is_leaf:
                sons = set(tree.nodes[node.plus].indices) | set(tree.nodes[node.minus].indices)
                assert sons <= set(node.indices)


def test_separation_is_checked_once_per_tree(monkeypatch):
    from combdim import septree

    calls = []
    real = septree.first_violating_pair

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(septree, "first_violating_pair", counting)
    family = gen_separated_family(5, 1.0, 44, m_target=12, kind="noisy-signs")
    measure = ProbabilityMeasure.uniform(5)
    tree = build_separating_tree(family, measure, 1.0)
    assert len(calls) == 1
    assert tree.leaf_count() > 2  # the root check covered several splits
    assert validate_tree(tree, family, 1.0 / 6.0)

    calls.clear()
    dup = FunctionFamily([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(NotSeparatedError) as err:
        build_separating_tree(dup, UNIFORM2, 0.5)
    assert err.value.pair == (0, 2)
    assert str(err.value) == "family is not 0.5-separated: rows 0 and 2 at distance 0.0"
    assert len(calls) == 1

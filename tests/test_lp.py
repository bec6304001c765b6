import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from combdim.errors import IterationCapError
from combdim.geometry import VPolytope, point_in_hull
from combdim.simplex import LPProblem, lp_solve


def test_maximize_single_variable():
    # maximize x s.t. x <= 3  ==  minimize -x
    result = lp_solve(LPProblem([-1.0], [[1.0]], [3.0]))
    assert result.status == "optimal"
    assert result.x[0] == pytest.approx(3.0)
    assert result.objective == pytest.approx(-3.0)


def test_unbounded():
    result = lp_solve(LPProblem([-1.0]))
    assert result.status == "unbounded"


def test_determinism():
    rng = np.random.default_rng(5)
    c = rng.uniform(-1, 1, 6)
    a_ub = rng.uniform(-1, 1, (4, 6))
    b_ub = rng.uniform(0.5, 2.0, 4)
    r1 = lp_solve(LPProblem(c, a_ub, b_ub))
    r2 = lp_solve(LPProblem(c, a_ub, b_ub))
    assert r1.status == r2.status
    assert np.array_equal(r1.x, r2.x)
    assert r1.objective == r2.objective


def test_degenerate_duplicate_constraints():
    # duplicated rows and a redundant multiple of the binding row; Bland's
    # rule must not cycle
    c = [-1.0, -1.0]
    a_ub = [[1, 0], [1, 0], [0, 1], [0, 1], [1, 1], [2, 2]]
    b_ub = [1.0, 1.0, 1.0, 1.0, 1.0, 2.0]
    result = lp_solve(LPProblem(c, a_ub, b_ub))
    assert result.status == "optimal"
    assert result.objective == pytest.approx(-1.0)


def test_lp_solve_takes_only_rows_its_slack_basis_satisfies():
    # every LP starts on its slack basis (x = 0), so equality rows and
    # negative right-hand sides are refused rather than solved
    for problem in (LPProblem([1.0], a_eq=[[1.0]], b_eq=[1.0]),
                    LPProblem([1.0], a_eq=[[1.0]], b_eq=[0.0]),
                    LPProblem([1.0], [[1.0], [-1.0]], [1.0, -1.0]),
                    LPProblem([1.0], [[1.0]], [np.nan])):
        with pytest.raises(ValueError, match="right-hand sides >= 0"):
            lp_solve(problem)
    assert lp_solve(LPProblem([1.0], [[-1.0]], [0.0])).objective == 0.0


def _scipy_check(c, a_ub, b_ub):
    mine = lp_solve(LPProblem(c, a_ub, b_ub))
    ref = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    if ref.status == 3:
        assert mine.status == "unbounded"
    else:
        assert ref.status == 0
        assert mine.status == "optimal"
        assert mine.objective == pytest.approx(ref.fun, abs=1e-7, rel=1e-7)
    return mine.status


def test_random_lps_against_scipy():
    # the draws of the same stream that have no equality rows and b_ub >= 0
    rng = np.random.default_rng(2718)
    kept = 0
    for trial in range(60):
        n = int(rng.integers(1, 7))
        m_ub = int(rng.integers(0, 5))
        m_eq = int(rng.integers(0, 3))
        c = rng.uniform(-1, 1, n)
        a_ub = rng.uniform(-1, 1, (m_ub, n)) if m_ub else None
        b_ub = rng.uniform(-0.2, 1.5, m_ub) if m_ub else None
        if m_eq:  # drawn and dropped, so that the stream and the kept draws stay
            rng.uniform(-1, 1, (m_eq, n)), rng.uniform(-0.5, 1.0, m_eq)
        if m_eq or (m_ub and b_ub.min() < 0):
            continue
        _scipy_check(c, a_ub, b_ub)
        kept += 1
    assert kept >= 10


def _hull_check(vertices, point):
    # point_in_hull, whose gauge LP starts at its slack basis, against
    # HiGHS on the convex-combination system
    k = len(vertices)
    ref = linprog(np.zeros(k), A_eq=np.vstack([vertices.T, np.ones((1, k))]),
                  b_eq=np.r_[point, 1.0], bounds=(0, None), method="highs")
    assert ref.status in (0, 2)
    assert point_in_hull(VPolytope(vertices.shape[1], vertices), point) == (ref.status == 0)
    return ref.status == 0


def test_random_feasibility_lps_against_scipy():
    # convex-combination membership, answered by the gauge LP
    rng = np.random.default_rng(777)
    inside = []
    for trial in range(40):
        dim = int(rng.integers(1, 4))
        k = int(rng.integers(2, 8))
        vertices = rng.uniform(-1, 1, (k, dim))
        point = rng.uniform(-1.2, 1.2, dim)
        inside.append(_hull_check(vertices, point))
    assert 0 < sum(inside) < len(inside)
    # the gauge's edge cases: the vertex mean (its origin), a segment in
    # the plane with points on it and just off it, a point far outside,
    # and a body that repeats vertices
    body = rng.uniform(-1, 1, (6, 3))
    ends = np.array([[-0.7, 0.4], [0.9, -0.35]])
    cases = [(body, body.mean(axis=0), True), (body, 1e6 * body[0], False),
             (ends, 0.3 * ends[0] + 0.7 * ends[1], True),
             (ends, 0.3 * ends[0] + 0.7 * ends[1] + [0.0, 1e-6], False),
             (ends, ends.mean(axis=0), True), (ends, 1.01 * ends[1], False),
             (np.vstack([body, body[:3]]), body[:3].mean(axis=0), True)]
    for vertices, point, expected in cases:
        assert _hull_check(vertices, point) == expected, point


def test_wide_degenerate_hull_systems_against_scipy():
    # many columns, duplicated vertices, boundary points: the regime where
    # accumulated pivot roundoff once pushed a basic value negative
    rng = np.random.default_rng(424242)
    for trial in range(25):
        dim = int(rng.integers(2, 9))
        k = int(rng.integers(20, 200))
        vertices = np.round(rng.uniform(-0.5, 0.5, (k, dim)), 3)
        vertices[rng.integers(0, k)] = vertices[0]  # exact duplicate
        if trial % 3 == 0:
            point = vertices[int(rng.integers(0, k))]  # vertex: boundary case
        elif trial % 3 == 1:
            lam = rng.dirichlet(np.ones(k))
            point = lam @ vertices  # interior by construction
        else:
            point = rng.uniform(-0.8, 0.8, dim)  # usually outside
        _hull_check(vertices, point)


def test_wide_dual_orthant_shaped_lps_against_scipy():
    # the shape of the ell1 orthant LPs in dual form: k + 1 rows with zero
    # right-hand sides but the last, 2 * n_func + 1 columns, rounded and
    # duplicated functionals so that ties and degenerate pivots abound
    rng = np.random.default_rng(1729)
    for trial in range(30):
        k = int(rng.integers(2, 9))
        n_func = int(rng.integers(10, 151))
        at = np.round(rng.uniform(-1, 1, (k, n_func)), 1)
        at[:, rng.integers(0, n_func, n_func // 4)] = at[:, :1]  # duplicates
        at[:, -1] = 0.0  # a functional that vanishes on the subset
        a_ub = np.vstack([np.hstack([-at, at, np.ones((k, 1))]),
                          np.r_[np.ones(2 * n_func), 0.0]])
        b_ub = np.r_[np.zeros(k), 1.0]
        c = np.r_[np.zeros(2 * n_func), -1.0]
        if trial % 3 == 2:
            c[:-1] = np.round(rng.uniform(-0.5, 0.5, 2 * n_func), 1)
        assert _scipy_check(c, a_ub, b_ub) == "optimal"


def test_large_negative_entry_does_not_hide_a_positive_pivot():
    # the column of x is [1, -big]: only its positive entry can bound the
    # step of min -x
    for big in (1e8, 1e9):
        assert _scipy_check([-1.0], [[1.0], [-big]], [1.0, 5.0]) == "optimal"


def test_small_pivot_entry_still_bounds_the_step():
    # 5e-9 is tiny against the column's other entry, 1, but its row allows
    # the smaller step (200 < 1000); skipping it would end 4e-6 outside
    # that row
    result = lp_solve(LPProblem([-1.0], [[1.0], [5e-9]], [1e3, 1e-6]))
    assert result.status == "optimal" and result.x[0] == pytest.approx(200.0)
    _scipy_check([-1.0], [[1.0], [5e-9]], [1e3, 1e-6])


def test_badly_scaled_rows_keep_blands_leaving_row():
    # entries span eight decades; passing over the rows with small pivot
    # entries, as the solver once did, ended 3.4e-9 off the zero-rhs
    # equality 18 x0 + 0.76 x2 = 0, here its two inequality rows, and
    # raised, though Bland's choice reaches the optimum (0, 10, 0)
    c = [-0.5, -0.11, -0.79]
    a_ub = [[220000.0, 0.0, 0.0], [0.57, 0.0, 9.5e7], [0.0, 0.0, -2.0], [1.0, 1.0, 1.0],
            [18.0, 0.0, 0.76], [-18.0, 0.0, -0.76]]
    b_ub = [0.74, 0.42, 0.65, 10.0, 0.0, 0.0]
    assert _scipy_check(c, a_ub, b_ub) == "optimal"
    result = lp_solve(LPProblem(c, a_ub, b_ub))
    assert result.x == pytest.approx([0.0, 10.0, 0.0], abs=1e-12)
    assert result.objective == pytest.approx(-1.1)


def test_iteration_cap_message_names_count_and_shape(monkeypatch):
    # max x + y over the unit box takes two pivots from the slack basis
    problem = LPProblem([-1.0, -1.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
    assert lp_solve(problem).objective == pytest.approx(-2.0)
    from combdim import simplex

    monkeypatch.setattr(simplex, "ITER_FACTOR", 0)
    with pytest.raises(IterationCapError) as info:
        lp_solve(problem)
    message = str(info.value)
    assert "phase" not in message
    assert "ran 0 iterations" in message
    assert "2x5 tableau" in message
    assert "1 of 1 LPs" in message


def test_iteration_cap_on_a_stack_names_the_lps_still_running(monkeypatch):
    # two supports of 3 coordinates on 12 points: 2 x 4 orthant LPs of
    # 4 rows over mu, a working set of 6 weights, 4 slacks and the rhs,
    # stacked in one run
    from combdim import geometry, simplex

    w = np.random.default_rng(0).uniform(-1.0, 1.0, (6, 3))
    points = np.vstack([w, -w])
    points = np.hstack([points, 2 * points])
    supports = [(0, 1, 2), (3, 4, 5)]
    assert geometry._radius(geometry._orthant_optima(points, supports)[1]) > 0
    monkeypatch.setattr(simplex, "ITER_FACTOR", 0)
    with pytest.raises(IterationCapError) as info:
        geometry._orthant_optima(points, supports)
    message = str(info.value)
    assert "ran 0 iterations" in message
    assert "4x12 tableau" in message
    assert "8 of 8 LPs" in message


def test_iteration_cap_counts_only_the_lps_still_running(monkeypatch):
    # LPs that reach their optimum before the cap stay in the stack but are
    # not counted as running; the count is the number of LPs that a cap of
    # `cap` pivots stops when each is solved alone.  Four point pairs in four
    # coordinates: each LP starts on all its points, so it runs once.
    from combdim import geometry, simplex

    w = np.random.default_rng(3).uniform(-1.0, 1.0, (4, 4))
    points = np.vstack([w, -w])
    scaled = points / 2.0 ** round(math.log2(np.abs(points).max()))  # as _orthant_optima scales
    for cap in (4, 5, 6, 7):
        monkeypatch.setattr(simplex, "_max_iter", lambda a_ub: cap)
        stopped = 0
        for theta in itertools.product((-1.0, 1.0), repeat=3):
            try:
                orthant = np.array([(1.0,) + theta])
                geometry._generate_columns(scaled[None], [orthant])
            except IterationCapError:
                stopped += 1
        assert 0 < stopped < 8
        with pytest.raises(IterationCapError, match=f"; {stopped} of 8 LPs in the stack"):
            geometry._inscribed_radius(points, range(4))


def _symmetric_body(rng, count):
    # a symmetric point set of 1-9 point pairs in 8 coordinates, some with
    # zero rows appended and some with a repeated pair, and `count` random
    # supports of 1-5 coordinates on it
    w = rng.uniform(-1.0, 1.0, (int(rng.integers(1, 10)), 8))
    if rng.random() < 0.3:
        w = np.vstack([w, w[:1]])
    points = np.vstack([w, -w])
    if rng.random() < 0.4:
        points = np.vstack([points, np.zeros((int(rng.integers(1, 6)), 8))])
    supports = [tuple(sorted(rng.choice(8, int(rng.integers(1, 6)), replace=False).tolist()))
                for _ in range(count)]
    return points, supports


def _bits(values):
    # the exact floats, signed zeros included
    return [float(v).hex() for v in values]


def test_mixed_size_stack_gives_each_lp_its_own_size_float():
    # orthant LPs of supports of different |sigma| share one stack, padded
    # with inert rows and columns; each optimum is the very float of its
    # support solved alone and of a stack of its own size
    from combdim import geometry

    rng = np.random.default_rng(11)
    for _ in range(12):
        points, supports = _symmetric_body(rng, 8)
        assert len(list(geometry._stacks(len(points), list(map(len, supports))))) == 1
        mixed = geometry._orthant_optima(points, supports)
        for sup, optima in zip(supports, mixed):
            alone = geometry._orthant_optima(points, [sup])[0]
            assert _bits(optima) == _bits(alone)
            same = [s for s in supports if len(s) == len(sup)]
            own = geometry._orthant_optima(points, same)[same.index(sup)]
            assert _bits(optima) == _bits(own)


def test_mixed_size_stacks_keep_within_the_entry_limit(monkeypatch):
    from combdim import geometry

    rng = np.random.default_rng(12)
    points, supports = _symmetric_body(rng, 40)
    n_pts, ks = len(points), [len(sup) for sup in supports]

    def entries(stack):
        # the padded size of a stack: its LPs at the largest k of its supports
        k = max(ks[s] for s, _, _ in stack)
        return sum(hi - lo for _, lo, hi in stack) * ((k + 1) * (min(n_pts, 2 * k) + k + 3) + n_pts)

    def optima():
        return [values.tolist() for values in geometry._orthant_optima(points, supports)]

    reference = optima()
    for limit in (1, 300, 3_000, 150_000):
        monkeypatch.setattr(geometry, "STACK_ENTRY_LIMIT", limit)
        stacks = list(geometry._stacks(n_pts, ks))
        covered = [(s, o) for stack in stacks for s, lo, hi in stack for o in range(lo, hi)]
        assert covered == [(s, o) for s, k in enumerate(ks) for o in range(1 << (k - 1))]
        for stack in stacks:
            assert entries(stack) <= limit or sum(hi - lo for _, lo, hi in stack) == 1
        # the greedy cut is maximal: the next LP in order, at the grown
        # shape, would have taken each stack but the last over the limit
        for stack, after in itertools.pairwise(stacks):
            s, lo, _ = after[0]
            assert entries(stack + [(s, lo, lo + 1)]) > limit
        assert optima() == reference


def test_every_support_fits_one_stack_exactly_when_its_entries_do(monkeypatch):
    # radius_table's one-run check: the (3^n - 1)/2 orthant LPs of every
    # support, full support first, all padded to n, fit the entry limit
    # iff `_stacks` cuts them into one stack (n >= 2: one LP always fits)
    from combdim import geometry

    for n in range(2, 7):
        ks = [n] + [k for k in range(1, n) for _ in itertools.combinations(range(n), k)]
        assert sum(1 << (k - 1) for k in ks) == (3 ** n - 1) // 2
        for n_pts in (2, 2 * n, 5 * n + 1):
            entries = (3 ** n - 1) // 2 * ((n + 1) * (min(n_pts, 2 * n) + n + 3) + n_pts)
            for limit in (entries - 1, entries):
                monkeypatch.setattr(geometry, "STACK_ENTRY_LIMIT", limit)
                assert (len(list(geometry._stacks(n_pts, ks))) == 1) == (limit >= entries)


def test_a_stack_of_one_sets_tail_and_the_next_sets_head_gives_each_lp_its_own_float():
    # a stack holds the last two orthants of one support and the first two
    # of the next, equal in k and share size but not in orthants; each LP
    # gives the very float it gives alone
    from combdim import geometry

    rng = np.random.default_rng(13)
    theta = geometry._orthants(3)
    for _ in range(6):
        points, supports = _symmetric_body(rng, 40)
        block = np.array([points[:, sup] for sup in supports if len(sup) == 3][:2])
        assert len(block) == 2
        shares = [theta[2:], theta[:2]]
        stacked = geometry._generate_columns(block, shares)
        for s, share in enumerate(shares):
            for o in range(len(share)):
                alone = geometry._generate_columns(block[s][None], [share[o : o + 1]])
                assert _bits(stacked[s][o : o + 1]) == _bits(alone[0])


def test_optimal_lps_stay_bit_for_bit_while_their_stack_runs():
    # orthant LPs of one point set (with zero coordinates, so the tableaux
    # hold signed zeros) finish at different pivots; one that is optimal
    # early leaves the stack at once, and each final tableau and basis is
    # the one its LP ends with alone
    from combdim import simplex

    rng = np.random.default_rng(7)
    for _ in range(6):
        k, pairs = 5, 12
        w = rng.uniform(-1.0, 1.0, (pairs, k))
        w[rng.random(w.shape) < 0.25] = 0.0
        points = np.vstack([w, -w])
        theta = np.array([(1.0,) + signs for signs in itertools.product((-1.0, 1.0), repeat=k - 1)])
        a_ub = np.zeros((len(theta), k + 1, 1 + len(points)))
        a_ub[:, :k, 0] = 1.0
        a_ub[:, :k, 1:] = -theta[:, :, None] * points.T[None]
        a_ub[:, k, 1:] = 1.0
        b_ub = np.zeros(k + 1)
        b_ub[k] = 1.0
        cost = np.zeros(a_ub.shape[2] + k + 1)
        cost[0] = -1.0
        tableau, basis = simplex._tableau(a_ub, b_ub)
        stacked, stacked_basis = tableau.copy(), basis.copy()
        assert not simplex._run_simplex(stacked, stacked_basis, cost, 1000)
        for lp in range(len(theta)):
            alone, alone_basis = tableau[lp : lp + 1].copy(), basis[lp : lp + 1].copy()
            assert not simplex._run_simplex(alone, alone_basis, cost, 1000)
            assert alone.tobytes() == stacked[lp : lp + 1].tobytes()
            assert alone_basis.tolist() == stacked_basis[lp : lp + 1].tolist()


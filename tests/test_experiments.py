import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from combdim import (
    FunctionFamily,
    ProbabilityMeasure,
    acceptance_curve,
    gen_random_family,
    is_separated,
    packing_number,
)
from combdim import experiments
from combdim.entropy import distances_from_gram
from combdim.experiments import (
    ExperimentConfig,
    extraction_constant_fit,
    gen_separated_family,
    main_theorem_constant,
    mid_gap_scales,
    pipeline_instance,
    run_main_theorem_experiment,
    run_pipeline_trace,
)
from combdim.family import write_json
from combdim.shattering import vc_real


def test_main_theorem_constant_examples():
    # sign cube on d coordinates: packing 2^d at small t, dimension d
    for d, t in ((2, 0.5), (3, 0.25)):
        k = main_theorem_constant(2**d, d, t)
        assert k == pytest.approx(math.log(2.0) / math.log(2.0 / t))
        assert k <= 1.0
    # singleton: the max(1, .) guard pins the ratio to 0
    assert main_theorem_constant(1, 0, 0.5) == 0.0


def test_sign_cube_instance_end_to_end():
    d = 3
    cube = FunctionFamily(np.array(list(itertools.product((-1.0, 1.0), repeat=d))))
    measure = ProbabilityMeasure.uniform(d)
    t = 0.5
    pack, _ = packing_number(cube, measure, t)
    dim = vc_real(cube, t / 7.0)
    assert pack == 2**d and dim == d
    assert main_theorem_constant(pack, dim, t) <= 1.0


def test_main_theorem_report_reproducible():
    config = ExperimentConfig(instances=8)
    a = run_main_theorem_experiment(config)
    b = run_main_theorem_experiment(config)
    assert a == b


def test_main_theorem_skips_scales_without_exact_packing():
    report = run_main_theorem_experiment(
        ExperimentConfig(seed=0, instances=1, max_rows=35, max_coords=3))
    (instance,) = report["instances"]
    assert instance["m"] == 31  # past PACKING_EXACT_LIMIT
    assert [row["skipped"] for row in instance["scales"]] == [True, True]
    assert report["k_emp_count"] == 0 and report["skipped_scales"] == 2


def test_mid_gap_scales_avoid_ties():
    fam = gen_random_family(8, 3, "sign-vectors", 3)
    measure = ProbabilityMeasure.uniform(3)
    from combdim.entropy import pairwise_distances

    dist = pairwise_distances(fam, measure)
    values = {round(float(v), 12) for v in dist[np.triu_indices(8, 1)]}
    for t in mid_gap_scales(fam, measure, 5):
        assert t > 0
        assert round(t, 12) not in values


def mid_gap_list_form(dist, count):
    # the scales as Python lists: filter, pair up neighbours, thin to count
    vals = np.unique(dist[np.triu_indices(dist.shape[0], 1)]).tolist()
    vals = [v for v in vals if v > 1e-12]
    gaps = [0.5 * (a + b) for a, b in zip(vals, vals[1:]) if b - a > 1e-9]
    inner = [0.5 * vals[0]] + gaps if vals else []
    if len(inner) <= count:
        return inner
    idx = np.linspace(0, len(inner) - 1, count).round().astype(int)
    return [inner[i] for i in sorted(set(int(i) for i in idx))]


def test_mid_gap_scales_match_the_list_form(monkeypatch):
    # Distance sets with repeats, zeros and near-zeros, and neighbours exactly
    # 1e-9 apart (not a gap) or one step further (a gap), fed to
    # mid_gap_scales as the upper triangle of a symmetric matrix.
    from combdim import experiments

    rng = np.random.default_rng(83)
    exact = [a for a in rng.uniform(1e-9, 1e-8, 400) if (a + 1e-9) - a == 1e-9]
    assert len(exact) >= 5  # a difference of exactly 1e-9 needs a small a
    for trial in range(60):
        m = int(rng.integers(2, 24))
        pairs = m * (m - 1) // 2
        pool = list(rng.uniform(0.0, 2.0, 4))
        pool += [0.0, 1e-13, 1e-12, 2e-12][: int(rng.integers(0, 5))]
        for a in rng.choice(exact, size=int(rng.integers(0, 4))):
            pool += [a, a + 1e-9]
        for a in rng.uniform(1e-9, 2.0, size=int(rng.integers(0, 3))):
            pool += [a, a + 1e-9, np.nextafter(a + 1e-9, 3.0)]
        if trial % 3 == 0:
            pool += list(rng.uniform(0.0, 2.0, pairs))
        vals = rng.choice(pool, size=pairs)  # drawn with repeats
        dist = np.zeros((m, m))
        dist[np.triu_indices(m, 1)] = vals
        dist += dist.T
        monkeypatch.setattr(experiments.entropy, "pairwise_distances", lambda f, mu: dist)
        for count in (1, 3, 12):
            got = mid_gap_scales(None, None, count)
            assert got == mid_gap_list_form(dist, count)
            assert all(type(t) is float for t in got)


def test_gen_separated_family_is_separated():
    rng = np.random.default_rng(1)
    for trial in range(10):
        n = int(rng.integers(2, 8))
        t = float(rng.uniform(0.5, 1.1))
        fam = gen_separated_family(n, t, int(rng.integers(1 << 30)), 10, kind="noisy-signs")
        assert is_separated(fam, ProbabilityMeasure.uniform(n), t)
        assert 2 <= fam.size <= 10


def _reference_distances(vals, weights, gram):
    """The pool's full distance matrix as the draw once built it (the
    Gram form, its cancellation-range pairs recomputed in one product)."""
    norms = gram.diagonal().copy()
    sq = np.add.outer(norms, norms)
    gram *= 2.0
    sq -= gram
    close = sq <= 2e-4 * norms.max()
    np.fill_diagonal(close, False)
    if close.any():
        i, j = np.nonzero(close)
        sq[i, j] = (vals[i] - vals[j]) ** 2 @ weights
    np.fill_diagonal(sq, 0.0)
    np.maximum(sq, 0.0, out=sq)
    np.sqrt(sq, out=sq)
    np.copyto(gram, sq)
    np.copyto(gram, sq.T, where=np.tri(len(sq), k=-1, dtype=bool))
    return gram


def _reference_draw(pool, t, m_target):
    """The matrix-and-greedy draw: the first row-major maximum of the full
    distance matrix, then each row farther than t from every row kept."""
    vals = pool.values
    n = vals.shape[1]
    w = ProbabilityMeasure.uniform(n).weights
    dist = _reference_distances(vals, w, (vals * w) @ vals.T)
    i0, j0 = np.unravel_index(int(np.argmax(dist)), dist.shape)
    if dist[i0, j0] <= t:
        raise ValueError(f"could not find 2 rows {t}-separated in dimension {n}")
    rows = [int(min(i0, j0)), int(max(i0, j0))]
    for i in range(len(vals)):
        if len(rows) >= m_target:
            break
        if i in rows:
            continue
        if all(dist[i, j] > t for j in rows):
            rows.append(i)
    return pool.subfamily(sorted(rows))


def _pool(n, seed, kind):
    if kind == "noisy-signs":
        rng = np.random.default_rng(seed)
        signs = rng.integers(0, 2, size=(experiments.POOL_ROWS, n)) * 2.0 - 1.0
        return FunctionFamily(signs * rng.uniform(0.8, 1.0, size=(experiments.POOL_ROWS, n)))
    return gen_random_family(experiments.POOL_ROWS, n, kind, seed, grid_max=experiments.POOL_GRID_MAX)


def _assert_same_draw(pool, n, t, m_target, seed, kind):
    """gen_separated_family on this pool equals the reference bit for bit,
    or raises the same error; True when it raised."""
    try:
        want = _reference_draw(pool, t, m_target)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            gen_separated_family(n, t, seed, m_target, kind)
        assert str(got.value) == str(exc)
        return True
    got = gen_separated_family(n, t, seed, m_target, kind)
    assert got.values.tobytes() == want.values.tobytes(), (n, t, m_target, seed, kind)
    return False


def test_draw_matches_the_full_matrix_greedy():
    # t from 1e-3 up: the smallest scales lie in the cancellation range,
    # where distances come from differences, not from the Gram form
    raised = 0
    for k, kind in enumerate(("uniform-real", "convex-hull-sections", "sign-vectors",
                              "integer-grid", "noisy-signs")):
        for n in range(1, 10):
            seed = [k, n]
            pool = _pool(n, seed, kind)
            for t in (1e-3, 4e-3, 0.013, 0.1, 0.6, 0.95, 1.2):
                for m_target in (3, 11):
                    raised += _assert_same_draw(pool, n, t, m_target, seed, kind)
    assert raised > 0


def test_draw_matches_on_duplicate_and_near_duplicate_rows(monkeypatch):
    rng = np.random.default_rng(5)
    for n in (1, 2, 5, 9):
        base = rng.uniform(-0.9, 0.9, size=(50, n))
        copies = [base + rng.uniform(-1, 1, size=base.shape) * scale
                  for scale in (0.0, 1e-12, 1e-9, 1e-6, 1e-3)]
        values = np.vstack([base, *copies])
        pool = FunctionFamily(values[rng.permutation(len(values))])
        monkeypatch.setattr(experiments, "gen_random_family", lambda *args, **kwargs: pool)
        for t in (1e-13, 1e-10, 1e-7, 1e-5, 2e-3, 0.05, 0.5, 1.2):
            for m_target in (2, 12, 300):
                _assert_same_draw(pool, n, t, m_target, 0, "uniform-real")
        # the distances themselves, and draws at scales equal to them: the
        # near copies of a farthest row are decided by their last bit
        vals = pool.values
        w = ProbabilityMeasure.uniform(n).weights
        dist = _reference_distances(vals, w, (vals * w) @ vals.T)
        assert distances_from_gram(vals, w, (vals * w) @ vals.T).tobytes() == dist.tobytes()
        row = dist[np.unravel_index(int(np.argmax(dist)), dist.shape)[0]]
        for t in row[(row > 0.0) & (row < 0.01)].tolist():
            _assert_same_draw(pool, n, t, experiments.POOL_ROWS, 0, "uniform-real")
    # every row the same: no pair is separated at any scale
    same = FunctionFamily(np.full((experiments.POOL_ROWS, 3), 0.25))
    monkeypatch.setattr(experiments, "gen_random_family", lambda *args, **kwargs: same)
    assert _assert_same_draw(same, 3, 1e-3, 5, 0, "uniform-real")


def test_draw_breaks_a_root_tie_as_the_matrix_does(monkeypatch):
    # antipodal rows at one radius: several farthest pairs whose Gram-form
    # squares differ in the last bit but whose roots round alike
    rng = np.random.default_rng(31)
    x = rng.normal(size=(8, 2))
    x *= 0.9 / np.sqrt((x**2).mean(axis=1))[:, None]
    x = np.clip(x, -1, 1)
    pool = FunctionFamily(np.vstack([x, -x, rng.uniform(-0.2, 0.2, size=(284, 2))]))
    vals = pool.values
    w = ProbabilityMeasure.uniform(2).weights
    gram = (vals * w) @ vals.T
    squares = np.triu(np.add.outer(gram.diagonal(), gram.diagonal()) - 2.0 * gram, 1)
    dist = _reference_distances(vals, w, gram)
    first = np.unravel_index(int(np.argmax(dist)), dist.shape)
    largest = np.unravel_index(int(np.argmax(squares)), dist.shape)
    assert first < largest and squares[first] < squares[largest]
    assert dist[first] == dist[largest]
    monkeypatch.setattr(experiments, "gen_random_family", lambda *args, **kwargs: pool)
    for t in (0.5, 1.79):
        for m_target in (2, 6):
            _assert_same_draw(pool, 2, t, m_target, 0, "uniform-real")
    drawn = gen_separated_family(2, 1.79, 0, 2)
    assert drawn.values.tobytes() == vals[list(first)].tobytes()


def test_draw_keeps_one_pool_sized_matrix():
    # the pipeline's family rule, seeds 0-39: the traced peak of one draw
    # stays under 1.5 pool-sized float64 matrices
    limit = 1.5 * experiments.POOL_ROWS**2 * 8
    for seed in range(40):
        tracemalloc.start()
        try:
            pipeline_instance(seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit, (seed, peak)


def test_pipeline_trace_report_shape():
    report = run_pipeline_trace(3)
    stages = [s["stage"] for s in report["stages"]]
    assert stages == [
        "variance-identity",
        "separating-coordinate",
        "separating-tree",
        "extraction",
        "discretization",
        "center-count",
        "vc-chain",
    ]
    assert all(s["ok"] for s in report["stages"])
    assert "c_emp" in report


def test_pipeline_reads_atoms_without_sampling_distributions(monkeypatch):
    # the variance stage reads every coordinate's atoms off one sort and the
    # trees build none, so no Distribution is taken from a sample
    from combdim import septree

    sampled = []
    real = septree.Distribution.from_sample.__func__

    def counting(cls, values):
        sampled.append(values)
        return real(cls, values)

    monkeypatch.setattr(septree.Distribution, "from_sample", classmethod(counting))
    for seed in range(40):
        assert all(stage["ok"] for stage in run_pipeline_trace(seed)["stages"])
    assert sampled == []


def test_pipeline_checks_each_separation_once(monkeypatch):
    # each separation the chain rests on is tested once, in the stage that
    # reports it: the drawn family at t (by the tree builder, before the
    # coordinate stage), the extracted subset at t/2 and the discretized
    # family at 6; the builders that follow a test assume it
    from combdim import entropy, extraction, septree

    calls, measures = [], []
    real = entropy.first_violating_pair
    real_uniform = ProbabilityMeasure.uniform.__func__

    def counting(family, measure, t):
        calls.append((family, t))
        return real(family, measure, t)

    def uniform(cls, n):
        measures.append(n)
        return real_uniform(cls, n)

    for module in (entropy, septree, extraction):
        monkeypatch.setattr(module, "first_violating_pair", counting)
    monkeypatch.setattr(ProbabilityMeasure, "uniform", classmethod(uniform))
    for seed in range(40):
        calls.clear()
        measures.clear()
        report = run_pipeline_trace(seed)
        m, n, t = report["m"], report["n"], report["t"]
        subset = next(s["subset"] for s in report["stages"] if s["stage"] == "extraction")
        assert [(f.size, f.domain_size, scale) for f, scale in calls] == [
            (m, n, t), (m, len(subset), t / 2.0), (m, len(subset), 6.0)]
        drawn, verified, tilde = (f.values for f, _ in calls)
        assert np.array_equal(tilde, np.round(tilde))  # the discretized family
        assert np.array_equal(verified, drawn[:, subset])
        assert len(measures) == 4


def test_pipeline_trace_fault_injection(monkeypatch):
    # corrupt the tree builder: the tree stage must fail with its name
    # and the certificate payload attached
    import combdim.experiments as exp

    real_build = exp.septree.build_separating_tree

    def corrupt_build(family, measure, t):
        tree = real_build(family, measure, t)
        root = tree.nodes[0]
        if root.is_leaf:
            return tree
        from dataclasses import replace

        nodes = list(tree.nodes)
        # the minus son copies the plus son's rows: sons overlap
        nodes[root.minus] = replace(nodes[root.minus], indices=nodes[root.plus].indices)
        return replace(tree, nodes=tuple(nodes))

    monkeypatch.setattr(exp.septree, "build_separating_tree", corrupt_build)
    from combdim import PipelineError

    with pytest.raises(PipelineError) as err:
        run_pipeline_trace(3)
    assert err.value.stage == "separating-tree"
    assert err.value.certificate is not None
    assert "sons overlap" in err.value.certificate["validation"]


def test_pipeline_extraction_failure_reports_a_refused_acceptance(monkeypatch):
    # n = 20, m = 217, k = 14 (the k rule's value): all 100 draws fail,
    # and the exact acceptance table (pairs x 2^20 entries) is over its
    # limit; the stage fails with its certificate, not with BudgetError
    from combdim import PipelineError

    family = gen_separated_family(20, 0.8, [5, 7], 300, kind="noisy-signs")
    assert family.size == 217
    monkeypatch.setattr(experiments, "pipeline_instance", lambda seed: (family, 0.8, 14))
    with pytest.raises(PipelineError) as err:
        run_pipeline_trace(0)
    assert err.value.stage == "extraction"
    cert = err.value.certificate
    assert cert["k"] == 14 and cert["p_accept"] is None
    assert cert["error"].startswith("no accepted subset in 100 attempts")
    assert cert["p_accept_refused"].startswith("exact acceptance probability refused")


def test_extraction_constant_fit():
    pair = FunctionFamily([[1.0] * 16, [-1.0] * 16])
    fit = extraction_constant_fit(pair, 1.9, acceptance_curve(pair, 1.9, range(1, 17)))
    assert fit["k_half"] is not None and 1 <= fit["k_half"] <= 16
    assert fit["c_emp"] > 0


def test_emit_report_json_round_trip_and_determinism(tmp_path):
    report = {"config": {"seed": 1}, "value": 0.123456789012345, "rows": [[1, 2.5]]}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_json(p1, report)
    write_json(p2, report)
    assert p1.read_bytes() == p2.read_bytes()
    assert json.loads(p1.read_text()) == report


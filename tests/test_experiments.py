import itertools
import json
import math

import numpy as np
import pytest

from combdim import (
    FunctionFamily,
    ProbabilityMeasure,
    gen_random_family,
    is_separated,
    packing_number,
)
from combdim.experiments import (
    ExperimentConfig,
    estimate_extraction_constant,
    gen_separated_family,
    main_theorem_constant,
    mid_gap_scales,
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
    parallel = run_main_theorem_experiment(ExperimentConfig(instances=8, jobs=2))
    assert parallel["instances"] == a["instances"]  # ordered reduction


def test_main_theorem_skips_scales_without_exact_packing():
    report = run_main_theorem_experiment(
        ExperimentConfig(seed=0, instances=1, max_rows=35, max_coords=3, jobs=1))
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


def test_estimate_extraction_constant():
    pair = FunctionFamily([[1.0] * 16, [-1.0] * 16])
    fit = estimate_extraction_constant(pair, 1.9)
    assert fit["k_half"] is not None and 1 <= fit["k_half"] <= 16
    assert fit["c_emp"] > 0


def test_emit_report_json_round_trip_and_determinism(tmp_path):
    report = {"config": {"seed": 1}, "value": 0.123456789012345, "rows": [[1, 2.5]]}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_json(p1, report)
    write_json(p2, report)
    assert p1.read_bytes() == p2.read_bytes()
    assert json.loads(p1.read_text()) == report


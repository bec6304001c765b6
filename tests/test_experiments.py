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
    emit_report,
    estimate_extraction_constant,
    gen_separated_family,
    main_theorem_constant,
    mid_gap_scales,
    run_main_theorem_experiment,
    run_pipeline_trace,
)
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


def test_mid_gap_scales_avoid_ties():
    fam = gen_random_family(8, 3, "sign-vectors", 3)
    measure = ProbabilityMeasure.uniform(3)
    from combdim.entropy import pairwise_distances

    dist = pairwise_distances(fam, measure)
    values = {round(float(v), 12) for v in dist[np.triu_indices(8, 1)]}
    for t in mid_gap_scales(fam, measure, 5):
        assert t > 0
        assert round(t, 12) not in values


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
        if tree.root.is_leaf:
            return tree
        from combdim.septree import SeparatingTree, TreeNode

        bad_root = TreeNode(
            tree.root.indices,
            tree.root.coordinate,
            tree.root.threshold,
            tree.root.gap,
            tree.root.plus_son,
            tree.root.plus_son,  # duplicated son: sons overlap
        )
        return SeparatingTree(bad_root, tree.scale, tree.gap)

    monkeypatch.setattr(exp.septree, "build_separating_tree", corrupt_build)
    from combdim import PipelineError

    with pytest.raises(PipelineError) as err:
        run_pipeline_trace(3)
    assert err.value.stage == "separating-tree"
    assert err.value.certificate is not None


def test_estimate_extraction_constant():
    pair = FunctionFamily([[1.0] * 16, [-1.0] * 16])
    fit = estimate_extraction_constant(pair, 1.9, seed=5, trials=800)
    assert fit["k_half"] is not None and 1 <= fit["k_half"] <= 16
    assert fit["c_emp"] > 0


def test_emit_report_json_round_trip_and_determinism(tmp_path):
    report = {"config": {"seed": 1}, "value": 0.123456789012345, "rows": [[1, 2.5]]}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    emit_report(report, p1)
    emit_report(report, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert json.loads(p1.read_text()) == report


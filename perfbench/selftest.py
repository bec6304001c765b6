"""Fast test of the benchmark itself, on tiny instance lists.

    python3 -m pytest perfbench/selftest.py

It is not named test_*.py, so the repository's own test run does not
collect it and its wall time stays the library's.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import calibration  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def bench(workload: str, trace: int, seed: int = 3) -> dict:
    cmd = [*BENCHMARK["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--instances", "2"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    lines = proc.stdout.strip().splitlines()
    doc = json.loads(lines[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    if not trace:
        prefix = "unscaled wall time: "
        assert lines[-2].startswith(prefix)
        assert list(json.loads(lines[-2][len(prefix):])) == list(doc["metrics"])
    return doc


@pytest.mark.parametrize("workload", NAMES)
def test_metric_names_and_units_match_benchmark_json(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        doc = bench(workload, trace)
        assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 2
        expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        assert {k: v["unit"] for k, v in doc["metrics"].items()} == expected
        assert list(doc["metrics"]) == list(expected)


def test_traced_counts_repeat_and_self_times_add_up():
    counts = []
    for _ in range(2):
        doc = bench("pipeline", 1)
        counts.append({k: v["value"] for k, v in doc["metrics"].items() if v["unit"] == "count"})
    calls = doc["attempted"]
    assert counts[0] == counts[1]
    assert counts[0]["entropy.pairwise_distances.calls"] > 0

    spans = json.loads((HERE / "runs" / "trace-pipeline-seed3.json").read_text())["spans"]
    per_instance = defaultdict(float)
    roots = {}
    for name, start, end, parent, instance, own in spans:
        per_instance[tuple(instance)] += own
        if parent is None:
            assert name == "instance"
            roots[tuple(instance)] = end - start
        else:
            p = spans[parent]
            assert p[1] <= start <= end <= p[2] and p[4] == instance
    assert len(roots) == calls
    for instance, total in roots.items():
        # layer self times plus the unwrapped remainder (the root's own
        # self time) make up the instance's traced wall time
        assert per_instance[instance] == pytest.approx(total, rel=1e-9, abs=1e-12)


def test_calibration_scales_follow_the_local_median():
    samples = [0.002] * 5 + [0.004] * 5
    scales = calibration.scales(samples)
    assert scales[0] == pytest.approx(calibration.REFERENCE_S / 0.002)
    assert scales[-1] == pytest.approx(calibration.REFERENCE_S / 0.004)
    # one outlier among its neighbours does not move a call's scale
    assert calibration.scales([0.002, 0.002, 0.050, 0.002, 0.002])[2] == scales[0]


def test_main_theorem_schedule_repeats_the_fast_instances():
    wl = workloads.WORKLOADS["main-theorem"](0, None)
    per_instance = {pos: wl.schedule.count(pos) for pos in range(len(wl.instances))}
    for pos, (index, _) in enumerate(wl.instances):
        assert per_instance[pos] == (1 if index in wl.once else wl.repeats)
    assert wl.schedule != sorted(wl.schedule)


def first_result(name: str):
    wl = workloads.WORKLOADS[name](0, 1)
    (index, spec), = wl.instances
    result = wl.call(index, spec)
    assert wl.check(index, spec, result) == []
    return wl, index, spec, result


def test_pipeline_checks_fail_on_corrupted_results():
    wl, index, seed, report = first_result("pipeline")

    def stage(doc, name):
        return next(s for s in doc["stages"] if s["stage"] == name)

    def corrupt(edit):
        doc = copy.deepcopy(report)
        edit(doc)
        return wl.check(index, seed, doc)

    assert "family-regenerated" in corrupt(lambda d: d.update(t=d["t"] + 1e-9))
    assert "subset-separated" in corrupt(lambda d: stage(d, "extraction").update(subset=[0]))
    assert "leaves-squared" in corrupt(lambda d: stage(d, "separating-tree").update(leaves=1))
    assert "centers-count" in corrupt(lambda d: stage(d, "center-count").update(centers=1))
    assert "vc-chain" in corrupt(
        lambda d: stage(d, "vc-chain").update(vc_integer=stage(d, "vc-chain")["vc_real_t_over_7"] + 1)
    )
    values = workloads.pipeline_family(seed)[0].values.copy()
    values[1] = values[0]
    assert "family-separated" in checks.check_pipeline(values, report)


def test_main_theorem_checks_fail_on_corrupted_results():
    wl, index, seed, report = first_result("main-theorem")
    rows = report["instances"][0]["scales"]
    assert len(rows) >= 2 and any(r["packing"] > 1 and r["vc_t_over_7"] >= 1 for r in rows)

    def corrupt(edit):
        doc = copy.deepcopy(report)
        edit(doc["instances"][0]["scales"])
        return wl.check(index, seed, doc)

    def drop_dim(rs):
        row = next(r for r in rs if r["packing"] > 1)
        row["vc_t_over_7"] = 0

    def raise_coarsest(rs):
        coarse = max(rs, key=lambda r: r["t"])
        coarse["vc_t_over_7"] = max(r["vc_t_over_7"] for r in rs) + 1

    assert "packing-exact" in corrupt(lambda rs: rs[0].update(packing=rs[0]["packing"] + 1))
    assert "vc-witness" in corrupt(lambda rs: rs[0].update(vc_t_over_7=rs[0]["vc_t_over_7"] + 1))
    assert "main-theorem-bound" in corrupt(drop_dim)
    assert "dims-monotone" in corrupt(raise_coarsest)

    inst = report["instances"][0]
    family = workloads.gen_random_family(inst["m"], inst["n"], inst["kind"], [seed, 0, 1])
    witnesses = [
        workloads.shattering.vc_real_witness(family, r["t"] / 7.0) for r in rows if not r["skipped"]
    ]
    bad = [(d, list(s), tuple(v + 10.0 for v in lv)) for d, s, lv in witnesses]
    assert "vc-witness" in checks.check_main_theorem(family.values, inst, bad, 1.0e9)


@pytest.mark.parametrize("name,bound", [("elton", "elton-constant"), ("rudelson", "tradeoff-bound")])
def test_l1_subset_checks_fail_on_corrupted_results(name, bound):
    wl, index, spec, result = first_result(name)
    assert "lp-certificate" in wl.check(index, spec, dataclasses.replace(result, t=result.t + 1e-6))
    assert "l1-lower-bound" in wl.check(index, spec, dataclasses.replace(result, t=100.0))
    worse = {"elton-constant": {"delta": 100.0}, "tradeoff-bound": {"s": 100.0}}[bound]
    assert bound in wl.check(index, spec, dataclasses.replace(result, **worse))


def test_max_clique_matches_brute_force():
    import itertools
    import random

    rnd = random.Random(7)
    for _ in range(50):
        m = rnd.randint(1, 9)
        edges = {(i, j) for i in range(m) for j in range(i + 1, m) if rnd.random() < 0.5}
        adj = [sum(1 << j for j in range(m) if (min(i, j), max(i, j)) in edges) for i in range(m)]
        brute = max(
            len(c) for r in range(1, m + 1) for c in itertools.combinations(range(m), r)
            if all((a, b) in edges for a, b in itertools.combinations(c, 2))
        )
        assert checks.max_clique(adj) == brute

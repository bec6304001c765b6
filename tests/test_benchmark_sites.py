"""The benchmark harness wraps library functions by module and name
(`perfbench/spans.py`, SITES) and keeps its own copy of the pipeline
family rule (`perfbench/workloads.py`, pipeline_family).  A rename or
deletion in `src/` that drops one of those names, or a change to the
family rule, would otherwise surface only in the harness's own
self-test."""

import importlib
import importlib.util
import sys
from pathlib import Path

from combdim.experiments import pipeline_instance

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_site_resolves_to_a_callable():
    spans = _load("spans")
    missing = [
        (module, attribute)
        for module, attribute, *_ in spans.SITES
        if not callable(getattr(importlib.import_module(module), attribute, None))
    ]
    assert spans.SITES and not missing


def test_benchmark_pipeline_family_matches_pipeline_instance(monkeypatch):
    monkeypatch.setitem(sys.modules, "checks", _load("checks"))  # workloads imports it by bare name
    workloads = _load("workloads")
    for seed in workloads.PIPELINE_SEEDS:
        family, n, t = workloads.pipeline_family(seed)
        expected, expected_t, _ = pipeline_instance(seed)
        assert family.values.tobytes() == expected.values.tobytes(), seed
        assert (n, t) == (expected.domain_size, expected_t), seed

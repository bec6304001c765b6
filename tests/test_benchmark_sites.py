"""The benchmark harness wraps library functions by module and name
(`perfbench/spans.py`, SITES).  A rename or deletion in `src/` that drops
one of those names would otherwise surface only in the harness's own
self-test."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_span_site_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        (module, attribute)
        for module, attribute, *_ in spans.SITES
        if not callable(getattr(importlib.import_module(module), attribute, None))
    ]
    assert spans.SITES and not missing

"""Spans around the library's layers, recorded from outside the library.

Each layer function is wrapped at the place where its caller looks it up
(a module attribute), so nothing under src/ changes.  A span records its
name, start, end, parent span and instance.  Spans stay in memory and are
written out once, when the run ends.  Self time is a span's duration minus
the part of that interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import defaultdict

INSTANCE = "instance"  # the benchmark's own span around one entry-point call


def _lp_rows(args, result):
    return sum(a.shape[0] for a in (args[0].a_ub, args[0].a_eq) if a is not None)


def _cube_hits(args, result):
    return int(result is not None)


def _centers(args, result):
    return len(result)


def _attempts(args, result):
    return result.attempts


# (module, attribute, layer, extra counter).  A layer that several callers
# import by name is wrapped at each of those lookup sites.
SITES = (
    ("combdim.geometry", "lp_solve", "simplex.lp_solve", ("rows", _lp_rows)),
    ("combdim.geometry", "cube_in_projection", "geometry.cube_in_projection", ("hits", _cube_hits)),
    ("combdim.elton", "convex_vc", "geometry.convex_vc", None),
    ("combdim.elton", "ell1_lower_constant", "geometry.ell1_lower_constant", None),
    ("combdim.elton", "gaussian_sup_mc", "gaussian.gaussian_sup_mc", None),
    ("combdim.elton", "elton_subset", "elton.elton_subset", None),
    ("combdim.shattering", "enumerate_shattered_centers",
     "shattering.enumerate_shattered_centers", ("centers", _centers)),
    ("combdim.shattering", "vc_integer", "shattering.vc_integer", None),
    ("combdim.shattering", "vc_real", "shattering.vc_real", None),
    ("combdim.entropy", "packing_number", "entropy.packing_number", None),
    ("combdim.entropy", "pairwise_distances", "entropy.pairwise_distances", None),
    ("combdim.entropy", "first_violating_pair", "entropy.first_violating_pair", None),
    ("combdim.septree", "first_violating_pair", "entropy.first_violating_pair", None),
    ("combdim.extraction", "first_violating_pair", "entropy.first_violating_pair", None),
    ("combdim.septree", "find_separating_coordinate", "septree.find_separating_coordinate", None),
    ("combdim.septree", "build_separating_tree", "septree.build_separating_tree", None),
    ("combdim.septree", "validate_tree", "septree.validate_tree", None),
    ("combdim.extraction", "extract_coordinates", "extraction.extract_coordinates",
     ("attempts", _attempts)),
    ("combdim.extraction", "verify_outcome", "extraction.verify_outcome", None),
    ("combdim.experiments", "gen_separated_family", "experiments.gen_separated_family", None),
    ("combdim.experiments", "mid_gap_scales", "experiments.mid_gap_scales", None),
    ("combdim.experiments", "run_pipeline_trace", "experiments.run_pipeline_trace", None),
    ("combdim.experiments", "run_main_theorem_experiment",
     "experiments.run_main_theorem_experiment", None),
)

# Per-layer metrics a traced run reports, in the order of BENCHMARK.json.
LAYER_METRICS = (
    ("simplex.lp_solve.calls", "count", "lower"),
    ("simplex.lp_solve.self_s", "s", "lower"),
    ("simplex.lp_solve.rows", "count", "lower"),
    ("geometry.cube_in_projection.calls", "count", "lower"),
    ("geometry.cube_in_projection.hits", "count", "higher"),
    ("geometry.cube_in_projection.self_s", "s", "lower"),
    ("geometry.convex_vc.self_s", "s", "lower"),
    ("geometry.ell1_lower_constant.calls", "count", "lower"),
    ("geometry.ell1_lower_constant.self_s", "s", "lower"),
    ("gaussian.gaussian_sup_mc.self_s", "s", "lower"),
    ("elton.elton_subset.self_s", "s", "lower"),
    ("shattering.enumerate_shattered_centers.self_s", "s", "lower"),
    ("shattering.enumerate_shattered_centers.centers", "count", "lower"),
    ("shattering.vc_integer.self_s", "s", "lower"),
    ("shattering.vc_real.calls", "count", "lower"),
    ("shattering.vc_real.self_s", "s", "lower"),
    ("entropy.packing_number.calls", "count", "lower"),
    ("entropy.packing_number.self_s", "s", "lower"),
    ("entropy.pairwise_distances.calls", "count", "lower"),
    ("entropy.pairwise_distances.self_s", "s", "lower"),
    ("experiments.mid_gap_scales.self_s", "s", "lower"),
    ("entropy.first_violating_pair.calls", "count", "lower"),
    ("entropy.first_violating_pair.self_s", "s", "lower"),
    ("septree.find_separating_coordinate.calls", "count", "lower"),
    ("septree.find_separating_coordinate.self_s", "s", "lower"),
    ("septree.build_separating_tree.self_s", "s", "lower"),
    ("septree.validate_tree.self_s", "s", "lower"),
    ("extraction.extract_coordinates.self_s", "s", "lower"),
    ("extraction.extract_coordinates.attempts", "count", "lower"),
    ("extraction.verify_outcome.self_s", "s", "lower"),
    ("experiments.gen_separated_family.self_s", "s", "lower"),
)


class Tracer:
    """In-memory span recorder.  Spans are lists
    [name, start, end, parent index or None, instance id]."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._instance = None

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._instance])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def instance(self, instance_id):
        """Root span of one entry-point call; every span opened inside it
        belongs to that instance."""
        self._instance = instance_id
        index = self._open(INSTANCE)
        try:
            yield
        finally:
            self._close(index)
            self._instance = None

    def wrap(self, layer: str, fn, extra):
        def traced(*args, **kwargs):
            if self._instance is None:  # output checks and warm-up are not traced
                return fn(*args, **kwargs)
            index = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if extra is not None:
                self.counters[f"{layer}.{extra[0]}"] += extra[1](args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every site for the duration of the block, then restore."""
        saved = []
        try:
            for module_name, attr, layer, extra in SITES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(layer, original, extra))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Self time of every span, aligned with self.spans."""
        children = defaultdict(list)
        for index, span in enumerate(self.spans):
            if span[3] is not None:
                children[span[3]].append(index)
        out = []
        for index, (_, start, end, _, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for child in sorted(children[index], key=lambda c: self.spans[c][1]):
                lo = max(self.spans[child][1], reach)
                hi = min(self.spans[child][2], end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append((end - start) - covered)
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Every metric of LAYER_METRICS, summed over the run."""
        totals: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            totals[f"{span[0]}.calls"] += 1
            totals[f"{span[0]}.self_s"] += own
        totals.update(self.counters)
        return {
            name: int(totals[name]) if unit == "count" else totals[name]
            for name, unit, _ in LAYER_METRICS
        }

    def dump(self, path) -> None:
        own = self.self_times()
        doc = {
            "fields": ["name", "start", "end", "parent", "instance", "self_s"],
            "spans": [span + [s] for span, s in zip(self.spans, own)],
        }
        path.write_text(json.dumps(doc))

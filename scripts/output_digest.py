#!/usr/bin/env python3
"""Print one sha256 per fixed-seed suite, over the repr of every output.

Run from the repository root:

    PYTHONPATH=src python3 scripts/output_digest.py [--dump DIR]

A change that must keep outputs identical leaves all sixteen lines as
they were.  With `--dump DIR` the script also writes each suite's reprs,
one output per line, to DIR/<suite>.txt, so that diffing the dumps of two
runs locates and sizes every value that moved.  The suites:

- pipeline: `run_pipeline_trace` for seeds 0-299; a failing seed (98
  fails its extraction stage) is digested as its error message;
- extraction: `acceptance_curve` at k = 1..n, from one acceptance table,
  on the family and scale of each pipeline seed 0-299;
- tree: the separating tree `build_separating_tree` builds on the family
  and at the scale of each pipeline seed 0-299, as its nodes (rows,
  coordinate, threshold, plus rows, minus rows) sorted by rows, so the
  line does not depend on the order in which the tree lists its nodes;
- itree: for each pipeline seed 0-299, the integer tree of its
  center-count stage: `build_separating_tree` at scale 6 on the family
  restricted to the extraction stage's `subset` and discretized at t/2,
  as nodes in the form of the `tree` line; the failing seed is digested
  as its error message.  Unlike the `tree` line, its families repeat
  values, so its split distributions have counts above 1;
- main-theorem: `run_main_theorem_experiment` at caps 23/7, seeds 0-39;
- elton: `elton_subset` (sigma, t, s, delta, sweep, grid_t) on the 56
  instances below;
- l1-table: `ell1_lower_constant` on every nonempty support of the same
  56 instances;
- convex-vc: `convex_vc` on the dual bodies of the same 56 instances at
  every scale of `DEFAULT_T_GRID`;
- walk: the `radius_table` items (support, radius), in table order, at
  every scale of `DEFAULT_T_GRID` alone, on the dual bodies of the same 56
  instances and on the six seeded n = 8 bodies below, which take the
  probe-then-walk path (the probe alone, then one run per walk level);
- tightness: the functionals and `norm_slack` of the eight tightness
  bodies below;
- orders: `ell1_lower_constant` on all coordinates of the eleven
  tightness bodies in ORDER_BODIES, net size 64, net seed 0, with each
  body's functionals in seven row orders: as built, lexicographic, and
  permuted by `default_rng(seed)` for seeds 0-4;
- entropy: `packing_number` and `covering_number` (count and flag) at
  every scale of `mid_gap_scales(family, measure, 12)` on the families
  `main_theorem_family` draws for seed 2026, instances 0-59, at caps
  23/7 (all three generator kinds, m <= 23);
- shatter: `vc_real_witness` (dimension, support, levels) at t/7 for every
  scale t of the entropy line, on the same families;
- dudley: `run_dudley_experiment(seed, samples=4000)` for seeds 0-7,
  then `gaussian_sup_mc` of kind "gaussian" and "rademacher" on three
  seeded `gen_random_family` families: the paths that call scipy;
- extract: `extract_coordinates` (its outcome, or the error's message,
  best separation and attempts) on the cases of
  `tests/test_extraction.py`: the family, scale, k and seed of each
  pipeline seed 0-299, `gen_random_family` families of all four kinds at
  k = 1, ceil(n/2) and n, and scales at which a draw's distance is
  exactly t/2, with 100 attempts and with the attempts cut after that
  draw;
- translated: on the ten translated bodies below, none symmetric, at the
  scales 0.25, 0.5 and 1: `convex_vc` (dimension, support), then whether
  `cube_in_projection` finds a cube on each nonempty support, by size and
  then lexicographically.  Witness translations are left out: any corner
  of a contained cube is a witness, so a change of solver may move them.

The 56 instances are the six norms of each `random_norm_instances(1..8)`
and eight tightness bodies, net size 64, net seed 0.  The six n = 8
bodies are `dual_body` of 30 functionals `standard_normal((30, 8))` and
vectors `0.3 * standard_normal((8, 8))`, drawn in turn from
`default_rng(0)`.  Translated body i (0-9) draws from
`default_rng([i, 16])` a dimension n in 2-5, then n + 2 to 12 vertices
uniform in [-1, 1]^n.
"""

import argparse
import hashlib
import importlib.util
import itertools
from pathlib import Path

import numpy as np

from combdim.elton import DEFAULT_T_GRID, dual_body, elton_subset, rudelson_example
from combdim.entropy import covering_number, packing_number
from combdim.errors import ExtractionError, PipelineError
from combdim.extraction import acceptance_curve, extract_coordinates
from combdim.experiments import (
    ExperimentConfig,
    main_theorem_family,
    mid_gap_scales,
    pipeline_instance,
    random_norm_instances,
    run_dudley_experiment,
    run_main_theorem_experiment,
    run_pipeline_trace,
)
from combdim.family import CoordinateSubset, ProbabilityMeasure, discretize, gen_random_family
from combdim.gaussian import gaussian_sup_mc
from combdim.geometry import PolyhedralNorm, VPolytope, convex_vc, cube_in_projection
from combdim.geometry import ell1_lower_constant, radius_table
from combdim.septree import build_separating_tree
from combdim.shattering import vc_real_witness

RUDELSON_BODIES = ((5, 1.0), (5, 0.9), (5, 0.6), (6, 1.0), (6, 0.6), (7, 1.0), (7, 0.8), (7, 0.6))
ORDER_BODIES = ((6, 1.0), (6, 0.8), (6, 0.6), (6, 0.5), (7, 1.0), (7, 0.8), (7, 0.6), (7, 0.5),
                (8, 0.8), (8, 0.6), (8, 0.5))
TRANSLATED_SCALES = (0.25, 0.5, 1.0)


def report(suite: str, outputs, dump: Path | None) -> None:
    """Print the suite's digest line; with a dump directory, also write its
    reprs there, one output per line."""
    text = "".join(repr(out) + "\n" for out in outputs)
    if dump is not None:
        (dump / f"{suite}.txt").write_text(text)
    print(suite, hashlib.sha256(text.encode()).hexdigest())


def pipeline(seed: int):
    try:
        return run_pipeline_trace(seed)
    except PipelineError as exc:
        return str(exc)


def extraction_cases():
    # the cases of the extraction exactness tests, loaded from the test file
    path = Path(__file__).resolve().parents[1] / "tests" / "test_extraction.py"
    spec = importlib.util.spec_from_file_location("extraction_tests", path)
    tests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tests)
    return itertools.chain((tests._pipeline_case(seed) for seed in range(300)),
                           tests._random_cases(), tests._tie_cases())


def extraction_outcome(family, t, k, seed, max_attempts):
    try:
        return extract_coordinates(family, t, k, seed, max_attempts)
    except ExtractionError as exc:
        return str(exc), exc.best_separation, exc.attempts


def pipeline_acceptance_curve(seed: int):
    family, t = pipeline_instance(seed)[:2]
    return acceptance_curve(family, t, range(1, family.domain_size + 1))


def tree_nodes(family, t: float):
    tree = build_separating_tree(family, ProbabilityMeasure.uniform(family.domain_size), t)
    rows = {None: None} | {k: node.indices for k, node in enumerate(tree.nodes)}  # leaf sons: None
    return sorted((node.indices, node.coordinate, node.threshold, rows[node.plus], rows[node.minus])
                  for node in tree.nodes)


def integer_tree_nodes(seed: int, trace):
    # the integer tree of the pipeline's center-count stage, rebuilt from its extraction subset
    if isinstance(trace, str):
        return trace
    family, t = pipeline_instance(seed)[:2]
    subset = next(stage["subset"] for stage in trace["stages"] if stage["stage"] == "extraction")
    return tree_nodes(discretize(family.restrict(subset), t / 2.0), 6.0)


def l1_instances():
    for seed in range(1, 9):
        for norm, vectors, _ in random_norm_instances(seed):
            yield norm, vectors
    for n, delta in RUDELSON_BODIES:
        body = rudelson_example(n, delta, net_size=64, seed=0)
        yield body.norm, body.vectors


def elton(norm, vectors):
    res = elton_subset(norm, vectors, samples=2000, seed=0)
    return tuple(res.sigma), res.t, res.s, res.delta, res.sweep, res.grid_t


def l1_table(norm, vectors):
    n = vectors.shape[0]
    return [ell1_lower_constant(norm, vectors, CoordinateSubset(support))
            for size in range(1, n + 1) for support in itertools.combinations(range(n), size)]


def walk_bodies():
    rng = np.random.default_rng(0)
    bodies = []
    for _ in range(6):
        funcs = rng.standard_normal((30, 8))
        bodies.append(dual_body(PolyhedralNorm(8, funcs), 0.3 * rng.standard_normal((8, 8))))
    return bodies


def walk_items(body):
    return [list(radius_table(body.vertices, (t,))[0].items()) for t in DEFAULT_T_GRID]


def translated_body(index: int) -> VPolytope:
    rng = np.random.default_rng([index, 16])
    n = int(rng.integers(2, 6))
    return VPolytope(n, rng.uniform(-1.0, 1.0, (int(rng.integers(n + 2, 13)), n)))


def translated_decisions(body: VPolytope):
    n = body.dimension
    supports = [CoordinateSubset(support) for size in range(1, n + 1)
                for support in itertools.combinations(range(n), size)]
    decisions = []
    for t in TRANSLATED_SCALES:
        dim, sigma = convex_vc(body, t)
        decisions.append((t, dim, tuple(sigma),
                          [cube_in_projection(body, support, t) is not None for support in supports]))
    return decisions


def row_orders(n: int, delta: float):
    body = rudelson_example(n, delta, net_size=64, seed=0)
    funcs = body.norm.functionals
    orders = [funcs, np.array(sorted(funcs.tolist()))]
    orders += [funcs[np.random.default_rng(seed).permutation(len(funcs))] for seed in range(5)]
    sigma = CoordinateSubset(tuple(range(body.vectors.shape[0])))
    return [ell1_lower_constant(PolyhedralNorm(body.norm.dimension, f), body.vectors, sigma)
            for f in orders]


def entropy_family(index: int):
    family, _ = main_theorem_family(ExperimentConfig(seed=2026, max_rows=23, max_coords=7), index)
    return family, ProbabilityMeasure.uniform(family.domain_size)


def entropy_counts(index: int):
    family, measure = entropy_family(index)
    return [(t, packing_number(family, measure, t), covering_number(family, measure, t))
            for t in mid_gap_scales(family, measure, 12)]


def shatter_witnesses(index: int):
    family, measure = entropy_family(index)
    return [(dim, tuple(support), levels) for dim, support, levels in
            (vc_real_witness(family, t / 7.0) for t in mid_gap_scales(family, measure, 12))]


def main() -> None:
    parser = argparse.ArgumentParser(description="Digest every fixed-seed suite's outputs.")
    parser.add_argument("--dump", type=Path, metavar="DIR",
                        help="also write each suite's reprs to DIR/<suite>.txt")
    dump = parser.parse_args().dump
    if dump is not None:
        dump.mkdir(parents=True, exist_ok=True)
    traces = [pipeline(seed) for seed in range(300)]
    report("pipeline", traces, dump)
    report("extraction", (pipeline_acceptance_curve(seed) for seed in range(300)), dump)
    report("tree", (tree_nodes(*pipeline_instance(seed)[:2]) for seed in range(300)), dump)
    report("itree", (integer_tree_nodes(seed, trace) for seed, trace in enumerate(traces)), dump)
    report("main-theorem", (
        run_main_theorem_experiment(
            ExperimentConfig(seed=seed, instances=1, max_rows=23, max_coords=7))
        for seed in range(40)), dump)
    instances = list(l1_instances())
    report("elton", (elton(norm, vectors) for norm, vectors in instances), dump)
    report("l1-table", (l1_table(norm, vectors) for norm, vectors in instances), dump)
    bodies = [dual_body(norm, vectors) for norm, vectors in instances]
    report("convex-vc", (
        (dim, tuple(sigma)) for body in bodies for dim, sigma in
        (convex_vc(body, t) for t in DEFAULT_T_GRID)), dump)
    report("walk", (walk_items(body) for body in bodies + walk_bodies()), dump)
    report("tightness", (
        (body.norm.functionals.tolist(), body.norm_slack) for body in
        (rudelson_example(n, delta, net_size=64, seed=0) for n, delta in RUDELSON_BODIES)), dump)
    report("orders", (row_orders(n, delta) for n, delta in ORDER_BODIES), dump)
    report("entropy", (entropy_counts(index) for index in range(60)), dump)
    report("shatter", (shatter_witnesses(index) for index in range(60)), dump)
    families = [gen_random_family(9, 5, kind, [seed, 5]) for seed, kind in
                enumerate(("uniform-real", "convex-hull-sections", "sign-vectors"))]
    report("dudley", itertools.chain(
        (run_dudley_experiment(seed, samples=4000) for seed in range(8)),
        (gaussian_sup_mc(family, 4000, [seed, 6], kind) for seed, family in enumerate(families)
         for kind in ("gaussian", "rademacher"))), dump)
    report("extract", (extraction_outcome(*case) for case in extraction_cases()), dump)
    report("translated", (translated_decisions(translated_body(index)) for index in range(10)), dump)

if __name__ == "__main__":
    main()

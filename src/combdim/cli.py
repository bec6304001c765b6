"""Command-line front end.

Exit codes: 0 success, 2 assertion/validation failure, 3 enumeration
budget exceeded, 1 other errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import entropy, extraction, septree, shattering
from .constants import DEFAULT_CONSTANTS
from .errors import BudgetError, ExtractionError, FamilyError, PipelineError
from .experiments import (
    ExperimentConfig,
    emit_report,
    estimate_extraction_constant,
    run_dudley_experiment,
    run_main_theorem_experiment,
    run_pipeline_trace,
)
from .family import CoordinateSubset, gen_random_family, load_family, read_json, save_family
from .gaussian import gaussian_sup_mc
from .geometry import (
    convex_vc,
    cube_in_projection,
    ell1_lower_constant,
    load_norm,
    load_polytope,
    load_vectors,
)
from .elton import elton_subset, rudelson_example
from .septree import SeparatingTree


def _write_or_print(path, text: str) -> None:
    if path:
        Path(path).write_text(text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def cmd_gen(args) -> int:
    family = gen_random_family(args.m, args.n, args.kind, args.seed, grid_max=args.grid_max)
    save_family(args.out, family)
    print(f"wrote {args.out}: m={family.size} n={family.domain_size} kind={family.kind}")
    return 0


def cmd_entropy(args) -> int:
    family, measure = load_family(args.family)
    lines = ["t,packing,packing_flag,covering,covering_flag"]
    for t in args.scale:
        rep = entropy.entropy_report(family, measure, t, p=args.p, mode=args.mode)
        lines.append(
            f"{t!r},{rep.packing_count},{rep.packing_flag},"
            f"{rep.covering_count},{rep.covering_flag}"
        )
    _write_or_print(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_vc(args) -> int:
    family, _ = load_family(args.family)
    if family.is_integer and args.scale is None:
        print(shattering.vc_integer(family))
    else:
        if args.scale is None:
            raise ValueError("real families need --scale")
        print(shattering.vc_real(family, args.scale))
    return 0


def cmd_centers(args) -> int:
    family, _ = load_family(args.family)
    doc = [
        {
            "support": list(w.center.support),
            "levels": list(w.center.levels),
            "witness": {str(k): v for k, v in w.assignments.items()},
        }
        for w in shattering.shatter_witnesses(family, args.max_dim)
    ]
    _write_or_print(args.out, json.dumps(doc, indent=1) + "\n")
    return 0


def cmd_tree(args) -> int:
    family, measure = load_family(args.family)
    tree = septree.build_separating_tree(family, measure, args.scale)
    if args.emit:
        Path(args.emit).write_text(json.dumps(tree.to_dict(), indent=1))
    leaves = tree.leaf_count()
    print(f"leaves={leaves} sqrt_m={math.sqrt(family.size):.4f}")
    if args.validate:
        result = septree.validate_tree(tree, family, args.scale / 6.0)
        print(f"validate(gap={args.scale / 6.0!r}): {'ok' if result else result.failure}")
        if not result:
            return 2
    return 0


def cmd_extract(args) -> int:
    family, _ = load_family(args.family)
    outcome = extraction.extract_coordinates(
        family, args.scale, args.target_size, args.seed, args.max_attempts
    )
    doc = {
        "subset": list(outcome.subset),
        "attempts": outcome.attempts,
        "achieved_separation": outcome.achieved_separation,
        "target_separation": outcome.target_separation,
    }
    _write_or_print(args.out, json.dumps(doc, indent=1) + "\n")
    return 0


def cmd_extract_curve(args) -> int:
    family, _ = load_family(args.family)
    ks = [int(k) for k in args.k_grid.split(",")]
    lines = ["k,success_rate,stderr"]
    for k in ks:
        rate = extraction.extraction_success_probability(
            family, args.scale, k, args.trials, args.seed
        )
        stderr = math.sqrt(max(rate * (1 - rate), 1e-12) / args.trials)
        lines.append(f"{k},{rate!r},{stderr!r}")
    fit = estimate_extraction_constant(family, args.scale, args.seed, args.trials)
    lines.append(f"# k_half={fit['k_half']} c_emp={fit['c_emp']}")
    _write_or_print(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_gsup(args) -> int:
    family, _ = load_family(args.family)
    est = gaussian_sup_mc(family, args.samples, args.seed, args.kind)
    print(json.dumps({"mean": est.mean, "stderr": est.stderr, "samples": est.samples,
                      "kind": est.process_kind}))
    return 0


def cmd_dudley(args) -> int:
    report = run_dudley_experiment(args.seed, samples=args.samples)
    if args.out:
        emit_report(report, args.out)
    print(
        f"e_hat={report['e_hat']:.4f} dudley_k={report['dudley_k']:.4f} "
        f"vc_chain_k={report['vc_chain_k']:.4f}"
    )
    return 0


def cmd_elton(args) -> int:
    norm = load_norm(args.norm)
    vectors = load_vectors(args.vectors, norm.dimension)
    result = elton_subset(norm, vectors, samples=args.samples, seed=args.seed, kind=args.kind)
    doc = {
        "config": {
            "norm": str(args.norm),
            "vectors": str(args.vectors),
            "samples": args.samples,
            "seed": args.seed,
            "kind": args.kind,
        },
        "sigma": list(result.sigma),
        "t_certified": result.t,
        "s": result.s,
        "delta": result.delta,
        "tradeoff": result.tradeoff,
        "grid_t": result.grid_t,
        "sweep": [list(row) for row in result.sweep],
        "favored_grid_t": result.favored_grid_t,
        "delta_stderr": result.estimate.stderr,
    }
    _write_or_print(args.report, json.dumps(doc, indent=1) + "\n")
    return 0


def cmd_rudelson(args) -> int:
    inst = rudelson_example(args.n, args.delta, net_size=args.net_size, seed=args.seed)
    result = elton_subset(inst.norm, inst.vectors, samples=args.samples, seed=args.seed)
    st = result.s * result.t
    doc = {
        "n": args.n,
        "delta": args.delta,
        "net_size": args.net_size,
        "norm_slack": inst.norm_slack,
        "sigma": list(result.sigma),
        "s": result.s,
        "t_certified": result.t,
        "s_times_t": st,
        "bound_holds": st <= args.delta + inst.norm_slack + 1e-6,
        "delta_measured": result.delta,
    }
    _write_or_print(args.report, json.dumps(doc, indent=1) + "\n")
    return 0 if doc["bound_holds"] else 2


def cmd_main_theorem(args) -> int:
    config = ExperimentConfig(seed=args.seed, instances=args.instances, jobs=args.jobs)
    report = run_main_theorem_experiment(config)
    if args.out:
        emit_report(report, args.out)
    print(
        f"instances={args.instances} k_emp_max={report['k_emp_max']} "
        f"median={report['k_emp_median']} skipped={report['skipped_scales']}"
    )
    return 0


def cmd_pipeline(args) -> int:
    for i in range(args.instances):
        report = run_pipeline_trace(args.seed + i)
        stages = ", ".join(s["stage"] for s in report["stages"])
        print(f"seed={args.seed + i}: all stages passed ({stages})")
        if args.out:
            emit_report(report, f"{args.out}.{args.seed + i}.json")
    return 0


def cmd_cube_test(args) -> int:
    poly = load_polytope(args.polytope)
    sigma = CoordinateSubset(tuple(int(i) for i in args.sigma.split(",")))
    witness = cube_in_projection(poly, sigma, args.scale, translated=args.translated)
    doc = {
        "sigma": list(sigma),
        "side": args.scale,
        "contained": witness is not None,
        "translation": list(witness.translation) if witness else None,
    }
    print(json.dumps(doc))
    return 0


def cmd_convex_vc(args) -> int:
    poly = load_polytope(args.polytope)
    dim, sigma = convex_vc(poly, args.scale)
    print(json.dumps({"dimension": dim, "sigma": list(sigma)}))
    return 0


def cmd_l1_const(args) -> int:
    norm = load_norm(args.norm)
    vectors = load_vectors(args.vectors, norm.dimension)
    if args.sigma:
        sigma = CoordinateSubset(tuple(int(i) for i in args.sigma.split(",")))
    else:
        sigma = CoordinateSubset(tuple(range(vectors.shape[0])))
    const = ell1_lower_constant(norm, vectors, sigma)
    print(json.dumps({"sigma": list(sigma), "l1_constant": const}))
    return 0


def cmd_validate(args) -> int:
    family, _ = load_family(args.family)
    doc = read_json(args.tree, "tree", ("scale", "gap", "root"))
    try:
        tree = SeparatingTree.from_dict(doc)
    except KeyError as exc:
        raise FamilyError(f"missing key {exc} in a node of tree file {args.tree}") from None
    except (TypeError, ValueError) as exc:
        raise FamilyError(f"bad node in tree file {args.tree}: {exc}") from None
    gap = args.gap if args.gap is not None else tree.gap
    result = septree.validate_tree(tree, family, gap)
    leaves = tree.leaf_count()
    print(
        f"leaves={leaves} sqrt_m={math.sqrt(family.size):.4f} "
        f"valid={'ok' if result else result.failure}"
    )
    return 0 if result else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="combdim",
        description="Packing/covering numbers, shattering dimension, separating "
        "trees, coordinate extraction and l1-subset certificates for finite "
        "function families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("gen", cmd_gen, help="generate a random family file")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", default="uniform-real")
    p.add_argument("--grid-max", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = add("entropy", cmd_entropy, help="packing/covering numbers per scale (CSV)")
    p.add_argument("--family", required=True)
    p.add_argument("--scale", type=float, action="append", required=True)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--mode", choices=("exact", "greedy"), default="exact")
    p.add_argument("--out")

    p = add("vc", cmd_vc, help="shattering dimension")
    p.add_argument("--family", required=True)
    p.add_argument("--scale", type=float, default=None)

    p = add("centers", cmd_centers, help="enumerate shattered centers (JSON)")
    p.add_argument("--family", required=True)
    p.add_argument("--max-dim", type=int, required=True)
    p.add_argument("--out")

    p = add("tree", cmd_tree, help="build a separating tree")
    p.add_argument("--family", required=True)
    p.add_argument("--scale", type=float, required=True)
    p.add_argument("--emit")
    p.add_argument("--validate", action="store_true")

    p = add("extract", cmd_extract, help="random separation-preserving coordinate subset")
    p.add_argument("--family", required=True)
    p.add_argument("--scale", type=float, required=True)
    p.add_argument("--target-size", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-attempts", type=int, default=DEFAULT_CONSTANTS.extraction_max_attempts)
    p.add_argument("--out")

    p = add("extract-curve", cmd_extract_curve, help="acceptance rate vs subset size (CSV)")
    p.add_argument("--family", required=True)
    p.add_argument("--scale", type=float, required=True)
    p.add_argument("--k-grid", required=True)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    p = add("gsup", cmd_gsup, help="Monte-Carlo process supremum")
    p.add_argument("--family", required=True)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kind", choices=("gaussian", "rademacher"), default="gaussian")

    p = add("dudley", cmd_dudley, help="entropy-integral bound experiment")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--out")

    p = add("elton", cmd_elton, help="l1-subset extraction")
    p.add_argument("--norm", required=True)
    p.add_argument("--vectors", required=True)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kind", choices=("rademacher", "gaussian"), default="rademacher")
    p.add_argument("--report")

    p = add("rudelson", cmd_rudelson, help="tightness example for the s*t trade-off")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--net-size", type=int, default=64)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report")

    p = add("main-theorem", cmd_main_theorem, help="empirical entropy-vs-dimension constant")
    p.add_argument("--instances", type=int, default=200)
    p.add_argument("--seed", type=int, default=2026)
    p.add_argument("--jobs", type=int, default=max(1, os.cpu_count() or 1))
    p.add_argument("--out")

    p = add("pipeline", cmd_pipeline, help="full constructive chain with stage assertions")
    p.add_argument("--instances", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    p = add("cube-test", cmd_cube_test, help="cube-in-coordinate-projection certificate")
    p.add_argument("--polytope", required=True)
    p.add_argument("--sigma", required=True, help="comma-separated coordinates")
    p.add_argument("--scale", type=float, required=True)
    p.add_argument("--translated", action="store_true")

    p = add("convex-vc", cmd_convex_vc, help="largest cube-admitting projection")
    p.add_argument("--polytope", required=True)
    p.add_argument("--scale", type=float, required=True)

    p = add("l1-const", cmd_l1_const, help="l1-equivalence constant of a vector subset")
    p.add_argument("--norm", required=True)
    p.add_argument("--vectors", required=True)
    p.add_argument("--sigma", default=None, help="comma-separated coordinates (default all)")

    p = add("validate", cmd_validate, help="re-check an emitted tree file")
    p.add_argument("--family", required=True)
    p.add_argument("--tree", required=True)
    p.add_argument("--gap", type=float, default=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 3
    except (PipelineError, AssertionError) as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return 2
    except ExtractionError as exc:
        print(f"extraction failed: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # argparse handles usage errors before this
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Experiment orchestration: seeded instance suites, the main-theorem
constant sweep, the end-to-end pipeline trace, and report emission."""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import entropy, extraction, septree, shattering
from .constants import DEFAULT_CONSTANTS
from .errors import BudgetError, ExtractionError, PipelineError
from .family import FunctionFamily, ProbabilityMeasure, discretize, gen_random_family
from .gaussian import entropy_integral, gaussian_sup_mc, vc_integral
from .geometry import PolyhedralNorm


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 2026
    instances: int = 200
    max_rows: int = 14
    max_coords: int = 5
    jobs: int = 1


# ---------------------------------------------------------------------------
# Instance generators.  Separated families are built by greedy packing of
# random candidates, which guarantees strict pairwise separation and
# avoids adversarial distance ties.
# ---------------------------------------------------------------------------

POOL_ROWS = 300  # random rows the greedy filter draws from


def gen_separated_family(
    n: int,
    t: float,
    seed,
    m_target: int,
    kind: str = "uniform-real",
    grid_max: int | None = None,
) -> FunctionFamily:
    """Random family, strictly t-separated under the uniform measure.

    Greedy filter over a pool of random rows.  Besides the family
    generator kinds, "noisy-signs" draws sign patterns with per-entry
    amplitude noise in [0.8, 1]: pairwise distances stay large (good for
    scales near 1) while remaining generic, so no exact distance ties.
    """
    if kind == "noisy-signs":
        rng = np.random.default_rng(seed)
        signs = rng.integers(0, 2, size=(POOL_ROWS, n)) * 2.0 - 1.0
        pool = FunctionFamily(signs * rng.uniform(0.8, 1.0, size=(POOL_ROWS, n)))
    else:
        pool = gen_random_family(POOL_ROWS, n, kind, seed, grid_max=grid_max)
    measure = ProbabilityMeasure.uniform(n)
    dist = entropy.pairwise_distances(pool, measure)
    # Seed with the farthest pool pair, then fill greedily: anchoring on an
    # arbitrary first row can strand the greedy when that row is central.
    i0, j0 = np.unravel_index(int(np.argmax(dist)), dist.shape)
    if dist[i0, j0] <= t:
        raise ValueError(f"could not find 2 rows {t}-separated in dimension {n}")
    rows = [int(min(i0, j0)), int(max(i0, j0))]
    for i in range(POOL_ROWS):
        if len(rows) >= m_target:
            break
        if i in rows:
            continue
        if all(dist[i, j] > t for j in rows):
            rows.append(i)
    return pool.subfamily(sorted(rows))


def mid_gap_scales(family: FunctionFamily, measure: ProbabilityMeasure, count: int) -> list[float]:
    """Scales placed at midpoints between distinct pairwise distances, so
    exact packing/covering never sees a tie at the scale itself."""
    dist = entropy.pairwise_distances(family, measure)
    vals = np.unique(dist[np.triu_indices(dist.shape[0], 1)]).tolist()
    vals = [v for v in vals if v > 1e-12]
    gaps = [0.5 * (a + b) for a, b in zip(vals, vals[1:]) if b - a > 1e-9]
    inner = [0.5 * vals[0]] + gaps if vals else []
    if not inner:
        return []
    if len(inner) <= count:
        return inner
    idx = np.linspace(0, len(inner) - 1, count).round().astype(int)
    return [inner[i] for i in sorted(set(int(i) for i in idx))]


# ---------------------------------------------------------------------------
# Main-theorem experiment: the empirical constant in
# ln N_pack(t) <= K * vc(A, t/7) * ln(2/t).
# ---------------------------------------------------------------------------

def main_theorem_constant(packing: int, dim: int, t: float) -> float:
    """ln(packing) / max(1, dim * ln(2/t)); the guard pins the singleton
    case (packing 1, dim 0) to 0 instead of 0/0."""
    return math.log(packing) / max(1.0, dim * math.log(2.0 / t))


def _main_theorem_instance(args) -> dict:
    index, config = args
    rng = np.random.default_rng([config.seed, index])
    m = int(rng.integers(4, config.max_rows + 1))
    n = int(rng.integers(2, config.max_coords + 1))
    kind = ("uniform-real", "convex-hull-sections", "sign-vectors")[index % 3]
    family = gen_random_family(m, n, kind, [config.seed, index, 1])
    measure = ProbabilityMeasure.uniform(n)
    scales = [t for t in mid_gap_scales(family, measure, 3) if 0 < t < 1]
    rows = []
    for t in scales:
        try:
            pack, _ = entropy.packing_number(family, measure, t, mode="exact")
            dim = shattering.vc_real(family, t / 7.0)
        except BudgetError:
            rows.append({"t": t, "skipped": True})
            continue
        rows.append(
            {
                "t": t,
                "packing": pack,
                "vc_t_over_7": dim,
                "k_emp": main_theorem_constant(pack, dim, t),
                "skipped": False,
            }
        )
    return {"instance": index, "m": m, "n": n, "kind": kind, "scales": rows}


def run_main_theorem_experiment(config: ExperimentConfig) -> dict:
    """Empirical main-theorem constants over the seeded suite; skipped
    instances (budget errors) are logged and excluded from the fit."""
    tasks = [(i, config) for i in range(config.instances)]
    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            per_instance = list(pool.map(_main_theorem_instance, tasks))
    else:
        per_instance = [_main_theorem_instance(t) for t in tasks]
    k_values = [
        row["k_emp"]
        for inst in per_instance
        for row in inst["scales"]
        if not row["skipped"] and row["vc_t_over_7"] >= 1
    ]
    skipped = sum(1 for inst in per_instance for row in inst["scales"] if row["skipped"])
    k_sorted = sorted(k_values)

    def quantile(q: float) -> float | None:
        if not k_sorted:
            return None
        return k_sorted[min(len(k_sorted) - 1, int(q * len(k_sorted)))]

    return {
        "config": asdict(config),
        "instances": per_instance,
        "k_emp_count": len(k_values),
        "k_emp_max": max(k_values) if k_values else None,
        "k_emp_median": quantile(0.5),
        "k_emp_q90": quantile(0.9),
        "skipped_scales": skipped,
    }


# ---------------------------------------------------------------------------
# Full pipeline trace: every stage of the separation -> extraction ->
# discretization -> tree -> center-count chain, with assertions.
# ---------------------------------------------------------------------------

def run_pipeline_trace(seed: int) -> dict:
    """Run the whole constructive chain on one seeded instance and assert
    every stage's conclusion.  Raises PipelineError on the first failure;
    returns the stage-by-stage certificate report."""
    rng = np.random.default_rng([seed, 99])
    n = int(rng.integers(6, 10))
    m_target = int(rng.integers(6, 12))
    t = float(rng.uniform(0.95, 1.2))
    family = gen_separated_family(n, t, [seed, 7], m_target, kind="noisy-signs")
    measure = ProbabilityMeasure.uniform(n)
    m = family.size
    report: dict = {
        "seed": seed,
        "m": m,
        "n": n,
        "t": t,
        "stages": [],
    }

    def stage(name: str, ok: bool, detail: dict):
        report["stages"].append({"stage": name, "ok": bool(ok), **detail})
        if not ok:
            raise PipelineError(name, json.dumps(detail, default=str), certificate=detail)

    if m == 1:
        stage("degenerate", True, {"note": "single function, chain is vacuous"})
        return report

    # Variance identity on every coordinate's empirical distribution.
    worst = 0.0
    for dist in septree.coordinate_distributions(family):
        var, pair = septree.variance(dist)
        worst = max(worst, abs(pair - 2.0 * var))
    stage("variance-identity", worst <= 1e-12, {"max_gap": worst})

    # A coordinate with sigma >= t/2 admitting a gap t/12 split.
    coord, cert = septree.find_separating_coordinate(family, measure, t)
    dists = septree.coordinate_distributions(family)
    stage(
        "separating-coordinate",
        cert.is_valid_for(dists[coord]) and cert.gap_halfwidth >= t / 12.0 - 1e-12,
        {"coordinate": coord, "threshold": cert.threshold, "beta": cert.beta,
         "side": cert.side, "gap_halfwidth": cert.gap_halfwidth},
    )

    # Separating tree with leaf_count^2 >= m, valid at gap t/6.
    tree = septree.build_separating_tree(family, measure, t)
    leaves = tree.leaf_count()
    valid = septree.validate_tree(tree, family, t / 6.0)
    stage(
        "separating-tree",
        bool(valid) and leaves * leaves >= m,
        {"leaves": leaves, "sqrt_m": math.sqrt(m), "validation": valid.failure},
    )

    # Random coordinate extraction at half scale.  The cardinality-driven
    # subset size log|A|/t^4 exceeds n at desk scale, so cap at n/2 + 1.
    k = max(2, min(n, int(math.ceil(math.log(2.0 * m) / t**4 / 4.0)) + n // 2))
    try:
        outcome = extraction.extract_coordinates(
            family, t, k, [seed, 13], max_attempts=DEFAULT_CONSTANTS.extraction_max_attempts
        )
    except ExtractionError as exc:
        stage("extraction", False, {"error": str(exc), "k": k})
        raise AssertionError("unreachable")  # pragma: no cover
    recheck = extraction.verify_outcome(family, t, outcome)
    stage(
        "extraction",
        recheck and outcome.achieved_separation > t / 2.0,
        {"k": k, "subset": list(outcome.subset), "attempts": outcome.attempts,
         "achieved": outcome.achieved_separation, "target": outcome.target_separation},
    )

    # Discretize the extracted family at scale t/2: 6-separated integers.
    sub = family.restrict(list(outcome.subset))
    sub_measure = ProbabilityMeasure.uniform(len(outcome.subset))
    tilde = discretize(sub, t / 2.0)
    six_sep = entropy.is_separated(tilde, sub_measure, 6.0)
    stage(
        "discretization",
        six_sep,
        {"range_max": tilde.range_max, "coords": len(outcome.subset)},
    )

    # Integer tree at scale 6 has gap 1 between sons; centers >= leaves.
    itree = septree.build_separating_tree(tilde, sub_measure, 6.0)
    ivalid = septree.validate_tree(itree, tilde, 1.0 - 1e-12)
    ileaves = itree.leaf_count()
    counts = shattering.shattered_center_counts(tilde, tilde.domain_size)
    centers = sum(counts)
    stage(
        "center-count",
        bool(ivalid) and centers >= ileaves and centers >= math.sqrt(m) - 1e-12,
        {"leaves": ileaves, "centers": centers, "sqrt_m": math.sqrt(m),
         "validation": ivalid.failure},
    )

    # Dimension chain across representations.
    d_int = len(counts) - 1
    d_real = shattering.vc_real(sub, (t / 2.0) / 7.0)
    stage("vc-chain", d_int <= d_real, {"vc_integer": d_int, "vc_real_t_over_7": d_real})

    # Implied main-bound constant, for the report only.
    p = tilde.range_max
    n_sigma = tilde.domain_size
    if d_int >= 1 and p * n_sigma > d_int:
        c_emp = math.log(m) / (d_int * math.log(p * n_sigma / d_int))
    else:
        c_emp = 0.0
    report["c_emp"] = c_emp
    return report


# ---------------------------------------------------------------------------
# Dudley-form experiment: E <= K * integral of sqrt(ln N_pack) over
# Euclidean scales above c * E / sqrt(n).
# ---------------------------------------------------------------------------

def run_dudley_experiment(seed: int, samples: int = 20000) -> dict:
    """One instance: MC supremum, exact packing curve, both integral forms."""
    m, n = 12, 6
    family = gen_random_family(m, n, "uniform-real", [seed, 3])
    measure = ProbabilityMeasure.uniform(n)
    est = gaussian_sup_mc(family, samples, [seed, 4], "gaussian")
    e_hat = est.mean

    dist = entropy.pairwise_distances(family, measure)
    diam_l2mu = float(dist.max())
    scales = [s for s in mid_gap_scales(family, measure, 12) if s > 0]
    curve = []
    for s in scales:
        count, _ = entropy.packing_number(family, measure, s, mode="exact")
        curve.append((s * math.sqrt(n), math.log(count)))  # Euclidean scale
    lower = DEFAULT_CONSTANTS.dudley_lower_c * e_hat / math.sqrt(n)
    upper = diam_l2mu * math.sqrt(n)
    integral = entropy_integral(curve, lower, max(upper, lower)) if curve else 0.0
    k_dudley = e_hat / integral if integral > 0 else math.inf

    vc_pts = shattering.vc_curve(family, [s for s in scales if s < 1] or [0.5])
    vlower = DEFAULT_CONSTANTS.vc_integral_lower_c * e_hat / n
    vintegral = vc_integral(vc_pts, min(vlower, 1.0), 1.0)
    k_vc_chain = e_hat / (math.sqrt(n) * vintegral) if vintegral > 0 else math.inf

    return {
        "seed": seed,
        "m": m,
        "n": n,
        "e_hat": e_hat,
        "stderr": est.stderr,
        "packing_curve": curve,
        "dudley_integral": integral,
        "dudley_k": k_dudley,
        "vc_curve": vc_pts,
        "vc_integral": vintegral,
        "vc_chain_k": k_vc_chain,
    }


# ---------------------------------------------------------------------------
# Fixed random-norm suite shared by the constant-fitting script and the
# regression tests.
# ---------------------------------------------------------------------------

def random_norm_instances(seed: int = 31415):
    """Six random polyhedral norms with the renormalized basis as vectors."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(6):
        n = int(rng.integers(3, 6))
        k = int(rng.integers(n, 2 * n + 2))
        funcs = rng.uniform(-1.0, 1.0, (k, n))
        funcs += np.sign(funcs) * 0.05  # keep the norm nondegenerate
        norm = PolyhedralNorm(n, funcs)
        vectors = []
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            vectors.append(e / max(norm.norm(e), 1e-9))
        out.append((norm, np.array(vectors), int(rng.integers(1 << 30))))
    return out


# ---------------------------------------------------------------------------
# Extraction-constant estimation: bisect k at success level 1/2.
# ---------------------------------------------------------------------------

def estimate_extraction_constant(
    family: FunctionFamily, t: float, seed, trials: int = 2000
) -> dict:
    """Smallest k with acceptance rate >= 1/2 (by bisection over k) and
    the implied constant ln(2m) / (t^4 k)."""
    n = family.domain_size
    lo, hi = 1, n

    def rate(k: int) -> float:
        return extraction.extraction_success_probability(family, t, k, trials, [seed, k])

    if rate(hi) < 0.5:
        return {"k_half": None, "c_emp": None, "note": "never reaches 1/2 on this domain"}
    while lo < hi:
        mid = (lo + hi) // 2
        if rate(mid) >= 0.5:
            hi = mid
        else:
            lo = mid + 1
    k_half = lo
    c_emp = math.log(2.0 * family.size) / (t**4 * k_half)
    return {"k_half": k_half, "c_emp": c_emp}


# ---------------------------------------------------------------------------
# Report emission.
# ---------------------------------------------------------------------------

def emit_report(report: dict, path) -> None:
    """Write a report as JSON with stable field ordering (byte-identical
    for identical content)."""
    Path(path).write_text(json.dumps(report, indent=1, default=_json_default))


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if hasattr(obj, "to_dict"):
        return obj.to_dict()
    if hasattr(obj, "__dict__"):
        return obj.__dict__
    return str(obj)

"""Experiment orchestration: seeded instance suites, the main-theorem
constant sweep and the end-to-end pipeline trace."""

from __future__ import annotations

import json
import math
from dataclasses import InitVar, asdict, dataclass

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
    jobs: InitVar[int] = 1  # only perfbench's jobs=1; goes when perfbench stops passing it

    def __post_init__(self, jobs):
        # main_theorem_family draws 4..max_rows rows and 2..max_coords coordinates
        for name, least in (("seed", 0), ("instances", 0), ("max_rows", 4), ("max_coords", 2)):
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        if jobs != 1:
            raise ValueError(f"jobs must be 1, got {jobs}")


# ---------------------------------------------------------------------------
# Instance generators.  Separated families are built by greedy packing of
# random candidates, which guarantees strict pairwise separation and
# avoids adversarial distance ties.
# ---------------------------------------------------------------------------

POOL_ROWS = 300  # random rows the greedy filter draws from
POOL_GRID_MAX = 12  # entries of "integer-grid" pool rows lie in {0, ..., 12}


def gen_separated_family(
    n: int,
    t: float,
    seed,
    m_target: int,
    kind: str = "uniform-real",
) -> FunctionFamily:
    """Random family, strictly t-separated under the uniform measure.

    Greedy filter over a pool of random rows.  Besides the family
    generator kinds, "noisy-signs" draws sign patterns with per-entry
    amplitude noise in [0.8, 1]: pairwise distances stay large (good for
    scales near 1) while remaining generic, so no exact distance ties.

    The family is the one the pool's full distance matrix
    (`entropy.pairwise_distances`) gives: its farthest pair, the first in
    row-major order, then each row in order that lies farther than t from
    every row kept.  The draw reads only what that needs off the pool's
    squared distances (`entropy.squares_from_gram`, written over the
    pool's weighted Gram matrix with no second pool-sized matrix alive):
    the largest square and the first pair whose distance rounds to its
    root, then one distance column per kept row.  Each distance is the
    matrix's own value, the root of the square its upper triangle holds.
    """
    if kind == "noisy-signs":
        rng = np.random.default_rng(seed)
        signs = rng.integers(0, 2, size=(POOL_ROWS, n)) * 2.0 - 1.0
        pool = FunctionFamily(signs * rng.uniform(0.8, 1.0, size=(POOL_ROWS, n)))
    else:
        pool = gen_random_family(POOL_ROWS, n, kind, seed, grid_max=POOL_GRID_MAX)
    vals = pool.values
    weights = ProbabilityMeasure.uniform(n).weights
    sq = entropy.squares_from_gram(vals, weights, (vals * weights) @ vals.T)
    # Seed with the farthest pool pair, then fill greedily: anchoring on an
    # arbitrary first row can strand the greedy when that row is central.
    top = float(sq.max())  # >= 0: the diagonal holds 0
    far = math.sqrt(top)
    low = top  # the least square whose root is far: the squares >= low tie at distance far
    while low > 0.0 and math.sqrt(math.nextafter(low, 0.0)) == far:
        low = math.nextafter(low, 0.0)
    i0, j0 = divmod(int(np.argmax(sq >= low)), len(sq))
    if far <= t:
        raise ValueError(f"could not find 2 rows {t}-separated in dimension {n}")

    def separated(k: int) -> np.ndarray:
        # rows farther than t from row k: each pair's square where the upper triangle holds it
        col = np.concatenate((sq[:k, k], sq[k, k:]))
        return np.sqrt(np.maximum(col, 0.0)) > t

    rows = [i0, j0]
    keep = separated(i0) & separated(j0)
    keep[rows] = False
    while len(rows) < m_target and keep.any():
        rows.append(int(keep.argmax()))  # the first row farther than t from every kept row
        keep &= separated(rows[-1])
        keep[rows[-1]] = False
    return pool.subfamily(sorted(rows))


def mid_gap_scales(family: FunctionFamily, measure: ProbabilityMeasure, count: int) -> list[float]:
    """Scales placed at midpoints between distinct pairwise distances, so
    exact packing/covering never sees a tie at the scale itself."""
    return _mid_gap_scales(entropy.pairwise_distances(family, measure), count)


def _mid_gap_scales(dist: np.ndarray, count: int) -> list[float]:
    """mid_gap_scales from the family's distance matrix."""
    rows = np.arange(dist.shape[0])
    vals = np.unique(dist[rows[:, None] < rows])  # the distances above the diagonal
    vals = vals[vals > 1e-12]
    if not vals.size:
        return []
    gaps = (0.5 * (vals[:-1] + vals[1:]))[np.diff(vals) > 1e-9]
    inner = [0.5 * float(vals[0])] + gaps.tolist()
    if len(inner) <= count:
        return inner
    idx = np.linspace(0, len(inner) - 1, count).round().astype(int)
    return [inner[i] for i in np.unique(idx).tolist()]


# ---------------------------------------------------------------------------
# Main-theorem experiment: the empirical constant in
# ln N_pack(t) <= K * vc(A, t/7) * ln(2/t).
# ---------------------------------------------------------------------------

def main_theorem_constant(packing: int, dim: int, t: float) -> float:
    """ln(packing) / max(1, dim * ln(2/t)); the guard pins the singleton
    case (packing 1, dim 0) to 0 instead of 0/0."""
    return math.log(packing) / max(1.0, dim * math.log(2.0 / t))


def main_theorem_family(config: ExperimentConfig, index: int) -> tuple[FunctionFamily, str]:
    """(family, kind) of the instance run_main_theorem_experiment draws at `index`."""
    rng = np.random.default_rng([config.seed, index])
    m = int(rng.integers(4, config.max_rows + 1))
    n = int(rng.integers(2, config.max_coords + 1))
    kind = ("uniform-real", "convex-hull-sections", "sign-vectors")[index % 3]
    return gen_random_family(m, n, kind, [config.seed, index, 1]), kind


def _main_theorem_instance(index: int, config: ExperimentConfig) -> dict:
    family, kind = main_theorem_family(config, index)
    m, n = family.values.shape
    dist = entropy.pairwise_distances(family, ProbabilityMeasure.uniform(n))
    scales = [t for t in _mid_gap_scales(dist, 3) if 0 < t < 1]  # ascending
    packs, floor = {}, 0
    for t in reversed(scales):  # coarsest first: each count is a floor for the finer scales
        packs[t] = entropy._packing_from_distances(dist, t, floor)
        floor = packs[t][0]
    exact = [t for t in scales if packs[t][1] == "exact"]
    dims = dict(zip(exact, shattering._vc_real_scales(family, [t / 7.0 for t in exact])))
    rows = []
    for t in scales:
        pack, dim = packs[t][0], dims.get(t)
        if not isinstance(dim, int):  # packing not exact, or the walk exceeded its budget
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
    scales (packing not exact, or a budget error) are logged and excluded
    from the fit."""
    per_instance = [_main_theorem_instance(i, config) for i in range(config.instances)]
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

def pipeline_instance(seed: int) -> tuple[FunctionFamily, float, int]:
    """(family, scale t, extraction size k) of the pipeline instance that
    run_pipeline_trace draws for `seed`."""
    rng = np.random.default_rng([seed, 99])
    n = int(rng.integers(6, 10))
    m_target = int(rng.integers(6, 12))
    t = float(rng.uniform(0.95, 1.2))
    family = gen_separated_family(n, t, [seed, 7], m_target, kind="noisy-signs")
    # The cardinality-driven size log|A|/t^4 exceeds n at desk scale, so cap at n/2 + 1.
    k = max(2, min(n, int(math.ceil(math.log(2.0 * family.size) / t**4 / 4.0)) + n // 2))
    return family, t, k


def run_pipeline_trace(seed: int) -> dict:
    """Run the whole constructive chain on one seeded instance and assert
    every stage's conclusion.  Raises PipelineError on the first failure;
    returns the stage-by-stage certificate report."""
    family, t, k = pipeline_instance(seed)
    n, m = family.domain_size, family.size
    measure = ProbabilityMeasure.uniform(n)
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

    # Variance identity on every coordinate's empirical distribution, its
    # atoms read off one sort of the value matrix.
    ordered = np.sort(family.values, axis=0)
    dists = [septree.Distribution(septree.sorted_atoms(col)) for col in ordered.T.tolist()]
    worst = 0.0
    for dist in dists:
        var, pair = septree.variance(dist)
        worst = max(worst, abs(pair - 2.0 * var))
    stage("variance-identity", worst <= 1e-12, {"max_gap": worst})

    # The tree comes first so that its public builder's check is the one
    # test of the drawn family at t: the draw decided separation on the
    # pool's Gram product, which may round differently from the family's.
    # Every later stage on this family assumes that test.
    tree = septree.build_separating_tree(family, measure, t)

    # A coordinate with sigma >= t/2 admitting a gap t/12 split.
    coord, cert = septree._split_coordinate(family.values, t)
    stage(
        "separating-coordinate",
        cert.is_valid_for(dists[coord]) and cert.gap_halfwidth >= t / 12.0,
        {"coordinate": coord, "threshold": cert.threshold, "beta": cert.beta,
         "side": cert.side, "gap_halfwidth": cert.gap_halfwidth},
    )

    # Separating tree with leaf_count^2 >= m, valid at gap t/6.
    leaves = tree.leaf_count()
    valid = septree.validate_tree(tree, family, t / 6.0)
    stage(
        "separating-tree",
        bool(valid) and leaves * leaves >= m,
        {"leaves": leaves, "sqrt_m": math.sqrt(m), "validation": valid.failure},
    )

    # Random coordinate extraction at half scale.
    try:
        outcome = extraction._extract(family, t, k, [seed, 13])
    except ExtractionError as exc:
        detail = {"error": str(exc), "k": k}
        try:
            detail["p_accept"] = extraction.acceptance_curve(family, t, [k])[0]
        except BudgetError as refused:
            detail |= {"p_accept": None, "p_accept_refused": str(refused)}
        stage("extraction", False, detail)
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
    # The discretization stage has just found tilde 6-separated.
    itree = septree._build_tree(tilde.values, 6.0)
    ivalid = septree.validate_tree(itree, tilde, 1.0 - 1e-12)
    ileaves = itree.leaf_count()
    counts = shattering.shattered_center_counts(tilde, tilde.domain_size)
    centers = sum(counts)
    stage(
        "center-count",
        bool(ivalid) and centers >= ileaves and centers * centers >= m,
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
    scales = _mid_gap_scales(dist, 12)
    curve = []
    for s in scales:
        count, _ = entropy._packing_from_distances(dist, s)
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
        # ||e_i|| is column i's largest |entry|: F @ e_i is exact
        scale = np.maximum(np.abs(norm.functionals).max(axis=0), 1e-9)
        out.append((norm, np.eye(n) / scale[:, None], int(rng.integers(1 << 30))))
    return out


# ---------------------------------------------------------------------------
# Extraction-constant estimation: smallest k at success level 1/2.
# ---------------------------------------------------------------------------

def extraction_constant_fit(family: FunctionFamily, t: float, curve) -> dict:
    """Smallest k <= n with exact acceptance probability >= 1/2 and the
    implied constant ln(2m) / (t^4 k), read off curve[k - 1], the
    acceptance_curve value at k = 1..n, by a scan that assumes no
    monotonicity in k."""
    for k, probability in enumerate(curve, start=1):
        if probability >= 0.5:
            return {"k_half": k, "c_emp": math.log(2.0 * family.size) / (t**4 * k)}
    return {"k_half": None, "c_emp": None, "note": "never reaches 1/2 on this domain"}

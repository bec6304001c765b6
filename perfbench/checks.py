"""Output checks, computed apart from the library or taken from properties
the method must have.  Each check function returns the names of the
checks that failed (an empty list when the output is correct); none of
them compares against a stored copy of earlier output.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def _direct_distances(values: np.ndarray) -> np.ndarray:
    """L2(uniform) distances from row differences, not the Gram trick."""
    diff = values[:, None, :] - values[None, :, :]
    return np.sqrt((diff * diff).mean(axis=2))


def _strictly_separated(values: np.ndarray, t: float) -> bool:
    dist = _direct_distances(values)
    iu = np.triu_indices(values.shape[0], k=1)
    return bool(np.all(dist[iu] > t))


def max_clique(adj: list[int]) -> int:
    """Maximum clique size by Bron-Kerbosch with pivoting on bitmasks."""
    best = 0

    def expand(size: int, cand: int, excl: int) -> None:
        nonlocal best
        if not cand and not excl:
            best = max(best, size)
            return
        if size + cand.bit_count() <= best:
            return
        pivot_pool = cand | excl
        pivot = max(
            (v for v in range(len(adj)) if pivot_pool >> v & 1),
            key=lambda v: (adj[v] & cand).bit_count(),
        )
        todo = cand & ~adj[pivot]
        while todo:
            low = todo & -todo
            v = low.bit_length() - 1
            expand(size + 1, cand & adj[v], excl & adj[v])
            cand &= ~low
            excl |= low
            todo &= ~low

    expand(0, (1 << len(adj)) - 1, 0)
    return best


def realizes_all_patterns(values: np.ndarray, support, levels, margin: float) -> bool:
    """Every sign pattern over the support has a row at or below the level
    (minus) or at least margin above it (plus)."""
    cols = values[:, list(support)]
    below = cols <= np.asarray(levels)
    above = cols >= np.asarray(levels) + margin
    for pattern in itertools.product((False, True), repeat=len(support)):
        ok = np.where(np.array(pattern), above, below).all(axis=1)
        if not ok.any():
            return False
    return True


def check_pipeline(family_values: np.ndarray, report: dict) -> list[str]:
    """family_values: the generated family; report: run_pipeline_trace's."""
    failed = []
    t, m = report["t"], report["m"]
    stages = {s["stage"]: s for s in report["stages"]}
    if family_values.shape[0] != m or not _strictly_separated(family_values, t):
        failed.append("family-separated")
    subset = stages["extraction"]["subset"]
    if not subset or not _strictly_separated(family_values[:, subset], t / 2.0):
        failed.append("subset-separated")
    if stages["separating-tree"]["leaves"] ** 2 < m:
        failed.append("leaves-squared")
    centers = stages["center-count"]["centers"]
    if centers < stages["center-count"]["leaves"] or centers < math.sqrt(m):
        failed.append("centers-count")
    chain = stages["vc-chain"]
    if not chain["vc_integer"] <= chain["vc_real_t_over_7"]:
        failed.append("vc-chain")
    return failed


def check_main_theorem(family_values: np.ndarray, instance: dict, witnesses, k_pin: float) -> list[str]:
    """instance: one entry of the experiment's "instances"; witnesses: the
    (dim, support, levels) of vc_real_witness at t/7 for each scale row."""
    failed = set()
    dist = _direct_distances(family_values)
    m = family_values.shape[0]
    rows = [row for row in instance["scales"] if not row["skipped"]]
    for row, (dim, support, levels) in zip(rows, witnesses):
        t = row["t"]
        adj = [sum(1 << j for j in range(m) if j != i and dist[i, j] > t) for i in range(m)]
        if max_clique(adj) != row["packing"]:
            failed.add("packing-exact")
        if dim != row["vc_t_over_7"] or len(support) != dim or not realizes_all_patterns(
            family_values, support, levels, t / 7.0
        ):
            failed.add("vc-witness")
        if math.log(row["packing"]) > k_pin * row["vc_t_over_7"] * math.log(2.0 / t) + 1e-12:
            failed.add("main-theorem-bound")
    by_scale = sorted((row["t"], row["vc_t_over_7"]) for row in rows)
    if any(a[1] < b[1] for a, b in zip(by_scale, by_scale[1:])):
        failed.add("dims-monotone")
    return sorted(failed)


def orthant_minimum(functionals: np.ndarray, vectors: np.ndarray, sigma) -> float:
    """min over the l1 sphere on sigma of ||sum a_i x_i||, one HiGHS LP per
    sign orthant (a -> -a halves the orthants)."""
    from scipy.optimize import linprog

    w = functionals @ vectors[list(sigma)].T
    k = w.shape[1]
    best = math.inf
    for signs in itertools.product((-1.0, 1.0), repeat=k - 1):
        a = w * np.array((1.0,) + signs)
        a_ub = np.hstack([np.vstack([a, -a]), -np.ones((2 * a.shape[0], 1))])
        res = linprog(
            np.r_[np.zeros(k), 1.0],
            A_ub=a_ub,
            b_ub=np.zeros(a_ub.shape[0]),
            A_eq=np.r_[np.ones(k), 0.0][None, :],
            b_eq=[1.0],
            bounds=[(0, None)] * k + [(None, None)],
            method="highs",
        )
        if res.status != 0:
            raise RuntimeError(f"HiGHS could not solve an orthant LP: {res.message}")
        best = min(best, res.fun)
    return best


def check_l1_subset(functionals, vectors, result, rng, probes: int = 200) -> list[str]:
    """The certified t of an elton_subset result, re-derived with HiGHS and
    probed with random coefficient vectors on the l1 sphere of sigma."""
    failed = []
    sigma = list(result.sigma)
    if not sigma or abs(orthant_minimum(functionals, vectors, sigma) - result.t) > 1e-7:
        failed.append("lp-certificate")
    if sigma:
        a = rng.dirichlet(np.ones(len(sigma)), size=probes) * rng.choice((-1.0, 1.0), (probes, len(sigma)))
        points = a @ vectors[sigma]
        norms = np.abs(points @ functionals.T).max(axis=1)
        if norms.min() < result.t - 1e-9:
            failed.append("l1-lower-bound")
    return failed

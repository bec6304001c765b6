#!/usr/bin/env python3
"""Fit the pinned regression constants on the fixed-seed suites.

Run from the repository root:

    python3 scripts/derive_constants.py

Prints the observed extremes and the pins (max * 1.1 for upper pins,
min * 0.9 for lower pins).  The values in combdim/constants.py were
frozen from this script's output; rerunning reproduces them bit for bit.
"""

import math

from scipy.integrate import quad

from combdim.elton import elton_subset
from combdim.experiments import (
    ExperimentConfig,
    random_norm_instances,
    run_dudley_experiment,
    run_main_theorem_experiment,
)
from combdim.gaussian import WEIGHT_NORMALIZER


def main() -> None:
    print("== weight normalizer ==")
    closed = 0.1 * math.log(2.0) ** 0.1
    val, _ = quad(lambda u: closed * u**-1.1, math.log(2.0), math.inf)
    print(f"closed form c0 = {closed!r}; shipped = {WEIGHT_NORMALIZER!r}; "
          f"unit-integral check = {val:.12f}")

    print("== sqrt(ln(2/t)) mass on (0, 1) ==")
    const, err = quad(lambda t: math.sqrt(math.log(2.0 / t)), 0.0, 1.0)
    print(f"integral = {const!r} (quad err {err:.2e})")

    print("== dudley / vc chain (seeds 0..7, samples 4000) ==")
    dudley_max = vc_chain_max = 0.0
    for seed in range(8):
        report = run_dudley_experiment(seed, samples=4000)
        dudley_max = max(dudley_max, report["dudley_k"])
        vc_chain_max = max(vc_chain_max, report["vc_chain_k"])
    print(f"observed dudley_k max = {dudley_max:.6f} -> pin {dudley_max * 1.1:.6f}")
    print(f"observed vc_chain_k max = {vc_chain_max:.6f} -> pin {vc_chain_max * 1.1:.6f}")

    print("== main theorem constant (seed 2026, 200 instances) ==")
    report = run_main_theorem_experiment(ExperimentConfig())
    print(f"count={report['k_emp_count']} skipped={report['skipped_scales']} "
          f"median={report['k_emp_median']:.4f} q90={report['k_emp_q90']:.4f}")
    print(f"observed k_emp max = {report['k_emp_max']:.6f} -> pin {report['k_emp_max'] * 1.1:.6f}")

    print("== elton random-norm suite ==")
    c_min = tradeoff_min = math.inf
    for norm, vectors, seed in random_norm_instances():
        res = elton_subset(norm, vectors, samples=1500, seed=seed)
        c_min = min(c_min, res.s / res.delta, res.t / res.delta)
        tradeoff_min = min(tradeoff_min, res.tradeoff / res.delta)
    print(f"observed min(s/delta, t/delta) = {c_min:.6f} -> pin {c_min * 0.9:.6f}")
    print(f"observed min tradeoff/delta = {tradeoff_min:.6f} -> pin {tradeoff_min * 0.9:.6f}")


if __name__ == "__main__":
    main()

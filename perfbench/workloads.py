"""The four workloads: their instance lists, the timed call, and the output
checks.  An instance is one call of the workload's entry point, the same
call the matching CLI command makes.

Instance lists are fixed: the library draws a whole pipeline or
main-theorem instance from one integer, and those instances differ in cost
by two orders of magnitude, so a seeded subset would move the medians by
more than the benchmark's bounds.  The workload seed orders each round's
calls and seeds the Monte-Carlo width estimate of elton_subset.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

import checks
from combdim import constants, elton, experiments, shattering
from combdim.family import gen_random_family

# run_pipeline_trace seeds.  Seed 98 fails its extraction stage (see
# CHANGES.md); it lies outside this range.  The ten slowest seeds below
# take 3.6 s together and the other thirty 2.8 s; a round calls each of
# the thirty, which set the median, PIPELINE_REPEATS times.
PIPELINE_SEEDS = tuple(range(40))
PIPELINE_SLOW = frozenset({1, 8, 11, 12, 16, 26, 29, 33, 36, 37})
PIPELINE_REPEATS = 2

# Main-theorem: one experiment call per seed, caps above the CLI's 14 / 5.
# Cost grows exponentially with the row count: at caps 23 / 7 the ten
# slowest seeds below take 6.5 s together and the other thirty 0.8 s.
# Those thirty set the median and the tail, so a round calls each of them
# MAIN_THEOREM_REPEATS times and each of the ten once.
MAIN_THEOREM_SEEDS = tuple(range(40))
MAIN_THEOREM_CAPS = (23, 7)
MAIN_THEOREM_SLOW = frozenset({0, 4, 5, 7, 10, 13, 15, 17, 28, 39})
MAIN_THEOREM_REPEATS = 4

# Elton: the six random norms of random_norm_instances(s) for each s.
ELTON_NORM_SEEDS = tuple(range(1, 9))

# Rudelson: (n, delta, Monte-Carlo calls) per tightness body, net seed 0 and
# net size 64 as in `combdim rudelson`.  Calls on one body cost nearly the
# same, and the bodies differ in cost (from 0.12 s for (5, 1.0) to 2.7 s
# for (7, 0.8)).  The counts put the median inside the (5, 0.9) group and
# the eleventh-slowest instance (the tail) inside the (5, 0.6) group, so
# neither sits at the edge between two bodies.  Building a body costs up
# to 0.4 s of norm-slack probes, which is set-up.  (7, 0.6) is left out:
# simplex.lp_solve returns an infeasible point on its orthant LP (see
# CHANGES.md).
RUDELSON_BODIES = (
    (5, 1.0, 16), (5, 0.9, 20), (5, 0.6, 16),
    (6, 1.0, 3), (6, 0.6, 2),
    (7, 0.8, 1),
)
RUDELSON_NET = (64, 0)
MC_SAMPLES = 2000  # the CLI default of `combdim elton` and `combdim rudelson`


class Workload:
    """instances: list of (canonical index, spec).  schedule: the list
    positions called in one round, in the seeded order."""

    # A run makes --seconds // round_s rounds, at least one.  round_s is
    # set so that a run at --seconds 24 makes enough calls to keep its
    # metrics steady and still ends within 20-45 s (see README.md).
    round_s: float
    # Canonical indices called once per round; every other instance is
    # called `repeats` times per round.
    once: frozenset = frozenset()
    repeats: int = 1

    def __init__(self, seed: int, limit: int | None):
        self.seed = seed
        self.instances = list(enumerate(itertools.islice(self.specs(), limit)))
        self.schedule = [
            pos
            for pos, (index, _) in enumerate(self.instances)
            for _ in range(1 if index in self.once else self.repeats)
        ]
        random.Random(seed).shuffle(self.schedule)

    def specs(self):
        """The instance specs in canonical order (an iterable)."""
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def call(self, index: int, spec):
        raise NotImplementedError

    def check(self, index: int, spec, result) -> list[str]:
        raise NotImplementedError

    @staticmethod
    def fingerprint(result) -> str:
        """What must repeat exactly when an instance runs again."""
        return repr(result)


class Pipeline(Workload):
    round_s = 12.0
    once = PIPELINE_SLOW
    repeats = PIPELINE_REPEATS

    def specs(self):
        return PIPELINE_SEEDS

    def warm_up(self):
        experiments.run_pipeline_trace(6)

    def call(self, index, seed):
        return experiments.run_pipeline_trace(seed)

    def check(self, index, seed, report):
        family, n, t = pipeline_family(seed)
        if (report["n"], report["t"]) != (n, t):
            return ["family-regenerated"]
        return checks.check_pipeline(family.values, report)


def pipeline_family(seed: int):
    """(family, n, t) of a pipeline instance, drawn the way
    run_pipeline_trace draws them."""
    rng = np.random.default_rng([seed, 99])
    n = int(rng.integers(6, 10))
    m_target = int(rng.integers(6, 12))
    t = float(rng.uniform(0.95, 1.2))
    return experiments.gen_separated_family(n, t, [seed, 7], m_target, kind="noisy-signs"), n, t


class MainTheorem(Workload):
    round_s = 10.0
    once = MAIN_THEOREM_SLOW
    repeats = MAIN_THEOREM_REPEATS

    def specs(self):
        return MAIN_THEOREM_SEEDS

    @staticmethod
    def config(seed, caps=MAIN_THEOREM_CAPS):
        return experiments.ExperimentConfig(
            seed=seed, instances=1, max_rows=caps[0], max_coords=caps[1], jobs=1
        )

    def warm_up(self):
        experiments.run_main_theorem_experiment(self.config(0, (8, 4)))

    def call(self, index, seed):
        return experiments.run_main_theorem_experiment(self.config(seed))

    def check(self, index, seed, report):
        (inst,) = report["instances"]
        family = gen_random_family(inst["m"], inst["n"], inst["kind"], [seed, inst["instance"], 1])
        witnesses = []
        for row in inst["scales"]:
            if not row["skipped"]:
                dim, support, levels = shattering.vc_real_witness(family, row["t"] / 7.0)
                witnesses.append((dim, list(support), levels))
        return checks.check_main_theorem(
            family.values, inst, witnesses, constants.DEFAULT_CONSTANTS.main_theorem_k_pin
        )

    @staticmethod
    def fingerprint(report):
        return repr(report["instances"])


class _L1Subset(Workload):
    """elton_subset on (norm, vectors) pairs; spec = (norm, vectors, extra)."""

    def mc_seed(self, index):
        return [self.seed, index]

    def warm_up(self):
        index, spec = min(self.instances)
        self.call(index, spec)

    def call(self, index, spec):
        norm, vectors, _ = spec
        return elton.elton_subset(norm, vectors, samples=MC_SAMPLES, seed=self.mc_seed(index))

    def check(self, index, spec, result):
        norm, vectors, _ = spec
        rng = np.random.default_rng([self.seed, index, 5])
        return checks.check_l1_subset(norm.functionals, vectors, result, rng) + self.bound(spec, result)

    @staticmethod
    def fingerprint(result):
        return repr((tuple(result.sigma), result.t, result.s, result.delta, result.sweep))


class Elton(_L1Subset):
    round_s = 4.8

    def specs(self):
        for s in ELTON_NORM_SEEDS:
            for norm, vectors, _ in experiments.random_norm_instances(s):
                yield norm, vectors, None

    def bound(self, spec, result):
        # elton_tradeoff_c_pin is not checked: fresh norms fall below it
        # (see CHANGES.md).
        ok = min(result.s, result.t) / result.delta >= constants.DEFAULT_CONSTANTS.elton_c_pin
        return [] if ok else ["elton-constant"]


class Rudelson(_L1Subset):
    round_s = 24.0

    def specs(self):
        net_size, net_seed = RUDELSON_NET
        for n, delta, calls in RUDELSON_BODIES:
            body = elton.rudelson_example(n, delta, net_size=net_size, seed=net_seed)
            yield from [(body.norm, body.vectors, body)] * calls

    def bound(self, spec, result):
        body = spec[2]
        ok = result.s * result.t <= body.delta + body.norm_slack + 1e-9
        return [] if ok else ["tradeoff-bound"]


WORKLOADS = {
    "pipeline": Pipeline,
    "main-theorem": MainTheorem,
    "elton": Elton,
    "rudelson": Rudelson,
}

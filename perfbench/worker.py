"""One workload process, started by run.py.

It sets up (import, input generation, warm-up), prints "ready", then
"calibration <seconds>" (the median of nine calibration samples taken
just after set-up), and then runs --seconds // round_s whole rounds of
the workload's schedule, at least one.  Before each timed call it takes
one calibration sample, untimed.  It checks outputs outside the timed
calls and prints one JSON line with the per-instance latencies, scaled
to the reference speed and raw.  With --setup-only it exits after the
calibration line; run.py starts such processes to time set-up several
times per run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import calibration  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def run_rounds(wl, rounds: int, tracer) -> dict:
    calls = []  # (list position, raw seconds), in the order made
    samples = []  # the calibration sample taken just before each call
    first: dict[int, str] = {}
    failures: list[str] = []
    attempted = failed = 0
    for round_no in range(rounds):
        results = []
        for call_no, pos in enumerate(wl.schedule):
            index, spec = wl.instances[pos]
            attempted += 1
            scope = tracer.instance((round_no, call_no)) if tracer else contextlib.nullcontext()
            samples.append(calibration.sample())
            start = time.perf_counter()
            try:
                with scope:
                    result = wl.call(index, spec)
            except Exception:
                failed += 1
                result = None
                print(f"instance {index} failed:\n{traceback.format_exc()}", file=sys.stderr)
            calls.append((pos, time.perf_counter() - start))
            results.append(result)
        for pos, result in zip(wl.schedule, results):
            index, spec = wl.instances[pos]
            if result is None:
                continue
            mark = wl.fingerprint(result)
            if index not in first:
                first[index] = mark
                try:
                    names = wl.check(index, spec, result)
                except Exception:
                    names = ["check-raised"]
                    print(f"check of instance {index} raised:\n{traceback.format_exc()}", file=sys.stderr)
                failures += [f"{index}:{name}" for name in names]
            elif mark != first[index]:
                failures.append(f"{index}:not-repeatable")
    scaled = [[] for _ in wl.instances]  # per list position, one per call
    raw = [[] for _ in wl.instances]
    for (pos, seconds), scale in zip(calls, calibration.scales(samples)):
        scaled[pos].append(seconds * scale)
        raw[pos].append(seconds)
    return {
        "attempted": attempted,
        "failed": failed,
        "check_failures": failures,
        # each instance's mean over its calls, so that the rate is the
        # list's size over the time spent in one call of each
        "latencies": [statistics.fmean(times) for times in scaled],
        "raw_latencies": [statistics.fmean(times) for times in raw],
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--instances", type=int)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-file")
    args = parser.parse_args()

    wl = workloads.WORKLOADS[args.workload](args.seed, args.instances)
    wl.warm_up()
    print("ready", flush=True)
    print(f"calibration {statistics.median([calibration.sample() for _ in range(9)])!r}", flush=True)
    if args.setup_only:
        return 0

    rounds = max(1, int(args.seconds // wl.round_s))
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        with tracer.installed():
            out = run_rounds(wl, rounds, tracer)
        out["layers"] = tracer.layer_metrics()
        if args.trace_file:
            tracer.dump(Path(args.trace_file))
    else:
        out = run_rounds(wl, rounds, None)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

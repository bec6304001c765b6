"""Benchmark of combdim's heavy runs: one workload per invocation.

    python3 perfbench/run.py --workload pipeline --seed 0 --seconds 20 --trace 0

Untraced runs time set-up in three fresh processes (two that stop after
set-up, then the one that runs the instance list) and print the
end-to-end metrics.  Their times are scaled to the reference host speed
(see calibration.py); the line before the result gives the same metrics
from unscaled wall time.  Traced runs wrap the library's layers and
print the per-layer metrics, after a line with the end-to-end metrics
measured with tracing on; their spans go to perfbench/runs/.  The
last line of standard output is one JSON object with keys correct,
attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from calibration import REFERENCE_S
from spans import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"
WORKLOADS = ("pipeline", "main-theorem", "elton", "rudelson")
SETUP_PROCESSES = 3
DEADLINE_S = 170.0  # a run must end within 180 s

END_TO_END = (
    ("instances_per_s", "1/s"),
    ("instance_p50_ms", "ms"),
    ("instance_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# One BLAS thread: with more, idle OpenBLAS threads spin on the second core
# and process CPU time exceeds wall time.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class RunError(RuntimeError):
    pass


class Worker:
    """A worker.py process whose standard output is read line by line."""

    def __init__(self, args: list[str]):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *args],
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
            env={**os.environ, **CHILD_ENV},
        )
        self.lines: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line.strip())
        self.lines.put(None)

    def next_line(self, deadline: float) -> str:
        try:
            line = self.lines.get(timeout=max(0.0, deadline - time.monotonic()))
        except queue.Empty:
            raise RunError("worker timed out") from None
        if line is None:
            raise RunError(f"worker exited with code {self.proc.wait()} before its output")
        return line

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.reader.join()


def run_worker(
    args: list[str], deadline: float, setup_only: bool
) -> tuple[float, float, dict | None]:
    """(set-up seconds, set-up seconds scaled to the reference speed,
    final JSON document or None)."""
    worker = Worker(args + (["--setup-only"] if setup_only else []))
    try:
        if worker.next_line(deadline) != "ready":
            raise RunError("worker did not report ready")
        setup = time.perf_counter() - worker.started
        word, _, value = worker.next_line(deadline).partition(" ")
        if word != "calibration":
            raise RunError("worker did not report its calibration")
        scaled_setup = setup * REFERENCE_S / float(value)
        doc = None
        if not setup_only:
            doc = json.loads(worker.next_line(deadline))
        if worker.proc.wait(timeout=max(0.0, deadline - time.monotonic())) != 0:
            raise RunError(f"worker exited with code {worker.proc.returncode}")
        return setup, scaled_setup, doc
    finally:
        worker.stop()


def end_to_end(latencies: list[float], setups: list[float], peak_rss_mb: float) -> dict:
    """Rate, median and tail from the same per-instance latencies.  The tail
    is the eleventh-slowest instance: the highest order statistic with ten
    instances beyond it (p75 for a list of 40)."""
    ordered = sorted(latencies)
    values = {
        "instances_per_s": len(ordered) / sum(ordered),
        "instance_p50_ms": 1000.0 * statistics.median(ordered),
        "instance_tail_ms": 1000.0 * ordered[-11 if len(ordered) > 10 else -1],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--instances", type=int, help="truncate the instance list (self-test)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "combdim" / "__init__.py").is_file():
        print(f"error: no combdim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    worker_args = [
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.instances is not None:
        worker_args += ["--instances", str(args.instances)]
    try:
        if args.trace:
            RUNS.mkdir(exist_ok=True)
            trace_file = RUNS / f"trace-{args.workload}-seed{args.seed}.json"
            _, scaled_setup, doc = run_worker(
                worker_args + ["--trace-file", str(trace_file)], deadline, False
            )
            traced = end_to_end(doc["latencies"], [scaled_setup], doc["peak_rss_mb"])
            print("end-to-end with tracing on: " + json.dumps(traced))
            metrics = {
                name: {"value": doc["layers"][name], "unit": unit} for name, unit, _ in LAYER_METRICS
            }
        else:
            setups = [run_worker(worker_args, deadline, True) for _ in range(SETUP_PROCESSES - 1)]
            setups.append(run_worker(worker_args, deadline, False))
            doc = setups[-1][2]
            raw = end_to_end(doc["raw_latencies"], [s[0] for s in setups], doc["peak_rss_mb"])
            print("unscaled wall time: " + json.dumps(raw))
            metrics = end_to_end(doc["latencies"], [s[1] for s in setups], doc["peak_rss_mb"])
    except (RunError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 2
    for failure in doc["check_failures"]:
        print(f"check failed: {args.workload} instance {failure}", file=sys.stderr)
    result = {
        "correct": not doc["check_failures"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

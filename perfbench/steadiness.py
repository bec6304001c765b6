"""Run the benchmark on several seeds and report the spread of each metric.

    python3 perfbench/steadiness.py --seeds 1-10 [--workload elton ...] [--trace 1]

For every workload and metric it prints the median, the quartiles and
the quartile spread as a share of the median, to compare with the
bounds in BENCHMARK.json; untraced runs also get the spreads of the
unscaled wall-time figures.  Raw results are appended,
one JSON line per run, to perfbench/runs/steadiness.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
UNSCALED = "unscaled wall time: "


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workload", action="append")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in BENCHMARK["workloads"]]
    (HERE / "runs").mkdir(exist_ok=True)
    log = HERE / "runs" / "steadiness.jsonl"
    for name in names:
        runs = []
        for seed in args.seeds:
            cmd = [*BENCHMARK["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(args.trace)]
            start = time.monotonic()
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=200)
            wall = time.monotonic() - start
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            doc = json.loads(lines[-1])
            unscaled = [json.loads(line.partition(": ")[2]) for line in lines
                        if line.startswith(UNSCALED)]
            doc["unscaled"] = unscaled[0] if unscaled else None
            runs.append(doc)
            with log.open("a") as fh:
                fh.write(json.dumps({"workload": name, "seed": seed, "trace": args.trace,
                                     "wall_s": wall, "at": time.time(), **doc}) + "\n")
        print(f"{name}: {len(runs)} runs, correct={all(r['correct'] for r in runs)}, "
              f"failed/attempted={[(r['failed'], r['attempted']) for r in runs]}")
        report(runs, "metrics", "")
        if runs[0]["unscaled"]:
            report(runs, "unscaled", "unscaled ")
    return 0


def report(runs: list[dict], key: str, label: str) -> None:
    for metric in runs[0][key]:
        values = [r[key][metric]["value"] for r in runs]
        name = label + metric
        if len(values) >= 2 and len(set(values)) > 1:
            q1, q2, q3 = statistics.quantiles(values, n=4)
            print(f"  {name:48s} median {q2:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {(q3 - q1) / q2:.4f}")
        else:
            print(f"  {name:48s} {values[0]:.6g} (identical in every run)")


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the benchmark once per seed and report, per metric, the median, the
quartiles and the spread (distance between the quartiles as a share of the
median), plus the share of failed operations and the wall time per run.

    python3 perfbench/spread.py --workload serve --seeds 1-10 [--trace 0]

Runs go one after another, each in its own process. Writes nothing; the
report goes to standard output and, with --json, as one JSON object last.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values: list) -> tuple:
    """(median, first quartile, third quartile, spread), with the quartiles
    of statistics.quantiles(n=4)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()
    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.stderr.strip():
            sys.stderr.write(proc.stderr)
        runs.append(result)
        print(f"seed {seed}: {wall:.1f} s, correct={result['correct']}, "
              f"attempted={result['attempted']}, failed={result['failed']}", flush=True)
    report = {"workload": args.workload, "runs": len(runs), "metrics": {},
              "failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
              "all_correct": all(r["correct"] for r in runs)}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med, q1, q3, sp = spread(values)
        report["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "spread": sp,
                                   "unit": runs[0]["metrics"][name]["unit"],
                                   "values": values}
        print(f"{name:56s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"spread {sp:.4f}")
    print(f"failed share: {report['failed_share']}, all correct: {report['all_correct']}")
    if args.json:
        print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

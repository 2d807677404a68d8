#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
                                    [--workloads a,b] [--seconds S]

Runs perfbench/run.py once per seed on each workload and prints, per
metric, the median, the quartiles (statistics.quantiles(n=4)) and the
spread (Q3 - Q1) / median next to the metric's bound in BENCHMARK.json.
Also prints the p99 spread that the diagnostic line reports, so the
p90/p99 choice can be compared, and each run's wall time. Exits nonzero
when a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    start = time.monotonic()
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, cwd=ROOT, text=True)
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("steadiness: %s seed %d failed:\n%s" %
                 (workload, seed, out.stdout))
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines:
        if line.startswith("perfbench diag: "):
            diag = json.loads(line[len("perfbench diag: "):])
            values["latency_p99_ms (diagnostic)"] = diag["latency_p99_ms"]
    values["run wall s (diagnostic)"] = time.monotonic() - start
    return values


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in args.workloads.split(","):
        runs = [run_once(workload, args.first_seed + i, args.seconds)
                for i in range(args.runs)]
        print("## %s (%d runs, seeds %d-%d)" % (
            workload, args.runs, args.first_seed,
            args.first_seed + args.runs - 1))
        print("| metric | median | Q1 | Q3 | spread | bound |")
        print("|---|---|---|---|---|---|")
        for name in runs[0]:
            values = [r[name] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            print("| %s | %.6g | %.6g | %.6g | %.4f | %s |" % (
                name, median, q1, q3, spread,
                "-" if bound is None else bound))
        print(flush=True)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Entry point of the serving benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. It builds perfbench/serve_bench from the
repository's sources into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs one measurement and prints the binary's
output; the last line is the JSON result. It exits nonzero, without a
result line, when the build fails or the binary fails or prints none.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# The binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures once, then builds incrementally; output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "serve_bench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            sys.exit("run.py: build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    build(build_dir)

    command = [os.path.join(build_dir, "serve_bench"),
               "--workload=" + args.workload, "--seed=" + str(args.seed),
               "--seconds=" + str(args.seconds),
               "--trace=" + str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command.append("--spans-out=" + os.path.join(
            spans_dir, "%s-seed%d.csv" % (args.workload, args.seed)))
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, cwd=ROOT,
                             timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: serve_bench did not finish in %d s" %
                 RUN_TIMEOUT_S)
    lines = run.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(run.stdout)
        sys.exit("run.py: serve_bench printed no result (exit %d)" %
                 run.returncode)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()

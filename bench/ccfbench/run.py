#!/usr/bin/env python3
"""Build ccfbench from this checkout and run one workload in its own process.

    python3 bench/ccfbench/run.py --workload serve_hot --seed 1 --seconds 16 --trace 0

Every run configures and builds build/ccfbench (CMake, Release): the first
builds the library, later ones rebuild only what changed. The workload's own
output is echoed, and the last line printed is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer metrics (from a traced run, whose Chrome trace lands in
build/ccfbench/) with --trace 1. Exits non-zero, printing no result, when the
build or the run fails; exits 1 after the result when an output check failed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
BUILD = os.path.join(ROOT, "build", "ccfbench")
BINARY = os.path.join(BUILD, "ccfbench")
WORKLOADS = ("serve_hot", "serve_cold", "paper_join", "trace_sim", "exact_place")
# A run measures for --seconds plus set-up and the traced replays; anything
# far beyond that is a hang.
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compilers' temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = (["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # The build log goes to stderr: stdout carries the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        sys.exit("run.py: --seed must be >= 0 and --seconds in [1, 600]")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        cmd += ["--trace", os.path.join(
            BUILD, "trace-%s-%d.json" % (args.workload, args.seed))]
    try:
        run = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: %s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    sys.stdout.write("".join(line + "\n" for line in lines))
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        record = None
    if run.returncode not in (0, 1) or not record or "metrics" not in record:
        sys.exit("run.py: %s failed (exit status %d)" % (args.workload, run.returncode))

    values = record["layers"] if args.trace else record["metrics"]
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": values,
    }
    print(json.dumps(result), flush=True)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

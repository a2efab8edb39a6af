#!/usr/bin/env python3
"""Builds and runs the isq-verify / isq-serve benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload paxos3-cold|paxos3-edit|serve-mix \
        --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/ (which builds libisq from
the checkout's own CMake files, RelWithDebInfo) into the directory named by
CARGO_TARGET_DIR, default .bench_build. Later runs rebuild only what
changed. Build output goes to standard error.

The benchmark binary prints provenance (git sha, build type, nproc, load
average, this command), one line per metric with its unit and sample
count, and as its last line one JSON object with the keys correct,
attempted, failed and metrics. With --trace 1 it also writes the traced
run's spans as Chrome trace-event JSON under <build dir>/traces/.
"""

import argparse
import json
import os
import shlex
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paxos3-cold", "paxos3-edit", "serve-mix")
# A run measures for --seconds and then finishes its last unit of work and
# its output; this bounds a run that hangs.
RUN_TIMEOUT_S = 170


def fail(message):
    print("error: " + message, file=sys.stderr)
    sys.exit(2)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    return args


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt",
                   "examples/asl/paxos.asl"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(needed + " not found: the benchmark builds the program "
                 "from the checkout's sources, so run it from a full "
                 "checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target",
         "isq-perfbench"],
        stdout=sys.stderr, check=True)
    return build_dir, os.path.join(build_dir, "isq-perfbench")


def expected_metrics(trace):
    """The metric names BENCHMARK.json declares for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    args = parse_args()
    try:
        build_dir, binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        fail("build failed: %s" % e)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    command = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--root", ROOT,
        "--work-dir", os.path.join(build_dir, "run-%d" % os.getpid()),
        "--command", shlex.join(sys.orig_argv),
    ]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(traces, tag + ".json")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("error: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        sys.exit(1)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stdout.write(run.stdout)
        sys.exit(run.returncode)
    result = json.loads(lines[-1])
    expected = expected_metrics(args.trace)
    if expected is not None and set(result["metrics"]) != expected:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print("error: printed metrics %s differ from BENCHMARK.json's %s"
              % (sorted(result["metrics"]), sorted(expected)),
              file=sys.stderr)
        sys.exit(1)
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()

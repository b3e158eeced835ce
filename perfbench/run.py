#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which builds the
herosign library from ../src) into the directory named by
CARGO_TARGET_DIR, default .bench_build, runs the self-test of the
benchmark's arithmetic, then runs the workload. The workload
definitions come from perfbench/workloads.json. The last line of
standard output is the result object; run records and span files are
written into <build dir>/perfbench-out/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, timeout):
    """Run a build step with its output on stderr only."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout, check=False)
    if proc.returncode != 0:
        fail("command failed (%d): %s" % (proc.returncode, " ".join(cmd)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        defs = json.load(f)
    if args.workload not in defs:
        fail("unknown workload %r (have %s)" % (args.workload,
                                                ", ".join(defs)))

    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build):
        build = os.path.join(ROOT, build)
    jobs = str(min(os.cpu_count() or 1, 4))
    run_quiet(["cmake", "-S", HERE, "-B", build,
               "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    run_quiet(["cmake", "--build", build, "-j", jobs, "--target",
               "perfbench", "perfbench_selftest"], timeout=800)
    run_quiet([os.path.join(build, "perfbench_selftest")], timeout=60)

    out = os.path.join(build, "perfbench-out")
    os.makedirs(out, exist_ok=True)
    cmd = [os.path.join(build, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out", out]
    for workload, keys in sorted(defs.items()):
        for key, value in sorted(keys.items()):
            cmd += ["--def", "%s.%s=%r" % (workload, key, float(value))]
    try:
        proc = subprocess.run(cmd, timeout=170, check=False)
    except subprocess.TimeoutExpired:
        fail("the benchmark did not finish within 170 s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()

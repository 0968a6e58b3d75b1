#!/usr/bin/env python3
"""Builds and runs the SLP benchmark for one workload.

Usage, from the repository root:

  python3 perfbench/run.py --workload refute-d1 --seed 1 --seconds 36 --trace 0
  python3 perfbench/run.py --selftest

Steps: build perfbench/ (CMake, Release) into $CARGO_TARGET_DIR or
.bench_build, compute or reuse the workload's reference verdicts, then run
slpbench in `measure` mode (--trace 0: end-to-end metrics) or `trace` mode
(--trace 1: per-layer metrics from the traced replay, whose Chrome trace is
then validated with scripts/check_trace.py). Progress goes to stderr; the
last stdout line is the result object. Exit status 0 means every verdict
matched the reference.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
REFERENCE_TIMEOUT_S = 120  # Computing one seed's reference verdicts.
# Measurement time beyond --seconds: set-ups, the last pass or sweep,
# and the traced run's engine pass and trace check.
MEASURE_MARGIN_S = 60


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def run(cmd, timeout, capture=False):
    """Runs cmd from the repository root with stderr passed through.

    Returns the CompletedProcess, or None if it had to be killed."""
    try:
        return subprocess.run(
            cmd, cwd=ROOT, text=True, timeout=max(1.0, timeout),
            stdout=subprocess.PIPE if capture else sys.stderr,
            stderr=sys.stderr)
    except subprocess.TimeoutExpired:
        log(f"{os.path.basename(cmd[0])} killed after {timeout:.0f}s")
        return None


def build(build_dir):
    """Configures and builds slpbench; returns its path or None."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        + generator,
        ["cmake", "--build", build_dir, "-j", jobs],
    ]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for step in steps:
        p = run(step, deadline - time.monotonic())
        if p is None or p.returncode != 0:
            log("build failed")
            return None
    return os.path.join(build_dir, "slpbench")


def slpbench(exe, build_dir, mode, workload, seed, deadline, extra=()):
    ref_dir = os.path.join(build_dir, "refs")
    os.makedirs(ref_dir, exist_ok=True)
    cmd = [exe, mode, "--workload", workload, "--seed", str(seed),
           "--reference", os.path.join(ref_dir, f"{workload}-{seed}.txt")]
    return run(cmd + list(extra), deadline - time.monotonic(),
               capture=mode != "reference")


def result_of(proc):
    """The result object on the last stdout line, or None."""
    lines = proc.stdout.strip().splitlines() if proc and proc.stdout else []
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def measure(exe, build_dir, args):
    p = slpbench(exe, build_dir, "reference", args.workload, args.seed,
                 time.monotonic() + REFERENCE_TIMEOUT_S)
    if p is None or p.returncode != 0:
        log("reference computation failed")
        return 1

    deadline = time.monotonic() + args.seconds + MEASURE_MARGIN_S
    extra = ["--seconds", str(args.seconds)]
    trace_files = []
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        stem = os.path.join(trace_dir, f"{args.workload}-{args.seed}")
        trace_files = [stem + ".trace.json", stem + ".metrics.json"]
        extra += ["--trace-out", trace_files[0],
                  "--metrics-out", trace_files[1]]
    p = slpbench(exe, build_dir, "trace" if args.trace else "measure",
                 args.workload, args.seed, deadline, extra)
    result = result_of(p)
    if result is None:
        log("slpbench produced no result")
        return 1
    status = p.returncode

    if trace_files and status == 0:
        checker = os.path.join(ROOT, "scripts", "check_trace.py")
        c = run([sys.executable, checker] + trace_files,
                deadline - time.monotonic())
        if c is None or c.returncode != 0:
            log("trace validation failed")
            result["correct"] = False
            result["failed"] += 1
            status = 1

    print(json.dumps(result), flush=True)
    return status


def selftest(exe, build_dir):
    """A flipped reference verdict must make the run fail."""
    p = slpbench(exe, build_dir, "reference", "refute-d1", 1,
                 time.monotonic() + REFERENCE_TIMEOUT_S)
    if p is None or p.returncode != 0:
        log("selftest: reference computation failed")
        return 1
    q = slpbench(exe, build_dir, "measure", "refute-d1", 1,
                 time.monotonic() + MEASURE_MARGIN_S,
                 ["--seconds", "0.1", "--flip", "3"])
    result = result_of(q)
    if (q is None or q.returncode == 0 or result is None
            or result["correct"] or result["failed"] == 0):
        log("selftest FAILED: a flipped reference verdict went unnoticed")
        return 1
    log(f"selftest OK: flipped reference -> failed={result['failed']} "
        f"of {result['attempted']}, exit {q.returncode}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="refute-d1, entail-d2 or verify-vc")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    exe = build(build_dir)
    if exe is None:
        return 1
    if args.selftest:
        return selftest(exe, build_dir)
    return measure(exe, build_dir, args)


if __name__ == "__main__":
    sys.exit(main())

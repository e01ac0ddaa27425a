#!/usr/bin/env python3
"""Runs one workload of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload paper|city|served --seed N \
        --seconds S --trace 0|1

Builds the benchmark program and lfsc_serve from the checkout's sources into
.bench_build/perfbench (an incremental no-op after the first run), then
runs it. Its stdout passes through unchanged; its last
line is the JSON result. Build output is shown (on stderr) only when the
build fails. The exit code is
the program's: 0 when every correctness gate passed, 1 when one failed,
2 on a set-up error (no result line). A program that outlives
RUN_TIMEOUT_S is killed and the run exits 3.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("paper", "city", "served")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures, then builds the two targets a run needs."""
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"repository sources missing ({needed} not found at {ROOT})")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    # Configuring every time is cheap once cached, and picks up targets
    # that a changed CMakeLists.txt adds.
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "perfbench",
              "lfsc_serve", "-j", jobs]]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode:
            sys.stderr.write(done.stdout[-20000:])
            fail("build failed: " + " ".join(cmd))
    return (os.path.join(BUILD, "perfbench"),
            os.path.join(BUILD, "lfsc", "tools", "lfsc_serve"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--tiny", action="store_true",
                        help="smallest shapes (the benchmark's own tests)")
    parser.add_argument("--tamper-reward", action="store_true",
                        help="nudge each compared reward by one ulp, so "
                             "the correctness gate must trip")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    program, serve_bin = build()
    work_dir = os.path.join(BUILD, f"run-{os.getpid()}")
    trace_dir = os.path.join(BUILD, "traces")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [program, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", work_dir, "--serve-bin", serve_bin,
           "--trace-out", os.path.join(trace_dir, args.workload + ".json")]
    if args.tiny:
        cmd.append("--tiny")
    if args.tamper_reward:
        cmd.append("--tamper-reward")
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        code = 3
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build the psi library and the benchmark harness, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload p4_paper --seed 1 --seconds 25 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
configured Release; build output goes to stderr so that the last line of
stdout is the harness's JSON result. PSI_THREADS is pinned to 1 for every
workload (see README.md, "Load model"). With --trace 0, setup_s is the
median cold set-up of SETUP_PROCESSES processes: SETUP_PROCESSES - 1
set-up-only processes, then the measured one, each timed from just before
it is spawned.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("p4_paper", "p6_paper", "p4_resume", "p4_remote")
RUN_TIMEOUT_S = 170
SETUP_PROCESSES = 5


# One pool thread for every workload. The pool splits each ParallelFor into
# one fixed slice per thread, so a session waits for its slowest thread; on
# a shared 4-CPU VM that made p6_paper's session_ms.p50 spread 0.32 at three
# threads, while CPU time spread 0.03 (README.md, "Steadiness"). The traced
# p6_paper run measures the pool at three threads instead. One thread plus
# p4_remote's daemon thread stays within nproc.
PSI_THREADS = "1"


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    # Compiler temporaries stay inside the build directory too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, env=env)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "psi_perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, env=env)
    return os.path.join(build_dir, "psi_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "psi.h")):
        print("perfbench: the psi sources (src/psi.h) are missing next to "
              "perfbench/; run from a full checkout", file=sys.stderr)
        return 2
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    try:
        binary = build(os.path.join(build_root, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    env = dict(os.environ, PSI_THREADS=PSI_THREADS)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    deadline = time.monotonic() + RUN_TIMEOUT_S

    def spawn(extra):
        """Runs the harness once; returns (exit code, stdout lines)."""
        spawned_at = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        # subprocess.run kills and reaps the harness if it overruns.
        out = subprocess.run(
            command + ["--spawned-at", str(spawned_at)] + extra, env=env,
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
        return out.returncode, out.stdout.splitlines()

    def setup_s(lines):
        for line in lines:
            if line.startswith("# setup_s: "):
                return float(line.split()[2])
        return None

    try:
        samples = []
        if args.trace == 0:
            for _ in range(SETUP_PROCESSES - 1):
                code, lines = spawn(["--setup-only"])
                if code != 0 or setup_s(lines) is None:
                    print("\n".join(lines), file=sys.stderr)
                    print(f"perfbench: set-up-only process exited {code}",
                          file=sys.stderr)
                    return code or 1
                samples.append(setup_s(lines))
        code, lines = spawn([])
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    if code != 0 or not lines:
        print("\n".join(lines), file=sys.stderr)
        return code or 1
    result = json.loads(lines[-1])
    if args.trace == 0:
        samples.append(setup_s(lines))
        result["metrics"]["setup_s"]["value"] = statistics.median(samples)
    print("\n".join(lines[:-1]))
    if args.trace == 0:
        print("# setup_s: median of cold processes " +
              " ".join(f"{v:.4f}" for v in samples))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

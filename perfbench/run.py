#!/usr/bin/env python3
"""Repository benchmark: builds the library and the runner from source, then
runs one workload and prints its metrics.

    python3 perfbench/run.py --workload soak_mono --seed 1 --seconds 20 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the current directory, scratch files to a per-run
directory beside it that is removed afterwards. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the exit status is non-zero when a correctness check failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("soak_mono", "fleet_hier", "socket_serve")
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures once, then lets the build tool decide what is stale."""
    if not (BENCH_DIR.parent / "CMakeLists.txt").is_file() or not (
            BENCH_DIR.parent / "src").is_dir():
        fail("the library sources (../CMakeLists.txt, ../src) are missing")
    jobs = str(os.cpu_count() or 1)
    if not (build_dir / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "perfbench_runner", "perfbench_selftest", "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    build_root = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = build_root / "perfbench"
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        fail(f"build failed: {error}")

    selftest = subprocess.run([str(build_dir / "perfbench_selftest")],
                              stdout=sys.stderr)
    if selftest.returncode != 0:
        fail("the benchmark's own arithmetic failed its self-test")

    work_dir = build_root / "run" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        runner = subprocess.run(
            [str(build_dir / "perfbench_runner"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--work-dir", str(work_dir)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = runner.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stdout.write(runner.stdout)
        fail(f"{args.workload} printed no result (exit {runner.returncode})")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result line: {lines[-1]}")
    sys.stdout.write(runner.stdout)
    sys.stdout.flush()
    if runner.returncode != 0 or not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()

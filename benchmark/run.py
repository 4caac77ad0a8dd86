#!/usr/bin/env python3
"""Build darco_bench from source and run one workload.

Usage (from the repository root):

    python3 benchmark/run.py --workload steady_464 --seed 1 --seconds 20 --trace 0

The benchmark is configured and built (Release + IPO) under
$CARGO_TARGET_DIR, default `.bench_build/`, on first use. Build output
goes to stderr; the program's standard output is passed through, so its
last line is the result JSON object. Each run also keeps its full JSON
record (metrics, samples, digest) under `<build dir>/results/` for
benchmark/compare.py. Spans of a traced run land next to it.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "benchmark")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    return 2


def build(build_dir):
    """Configure (once per checkout) and build the darco_bench target."""
    cmake_dir = os.path.join(build_dir, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", SOURCE, "-B", cmake_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", cmake_dir, "--target",
                    "darco_bench", "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(cmake_dir, "darco_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        return fail("--seed must be >= 0")

    # The benchmark builds the simulator library from the checkout.
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        return fail(f"no simulator sources next to benchmark/ in {ROOT}")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (subprocess.SubprocessError, OSError) as e:
        return fail(f"build failed: {e}")

    results = os.path.join(build_dir, "results")
    os.makedirs(results, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}",
           f"--json={os.path.join(results, tag + '.json')}",
           f"--work-dir={os.path.join(build_dir, 'work-' + str(os.getpid()))}"]
    if args.trace:
        cmd.append(f"--trace={os.path.join(results, tag + '.spans.jsonl')}")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds and runs the served-traffic benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload read_zipf --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
library and the benchmark binary (Release) into .bench_build/; later calls rebuild
incrementally. The binary runs with every PIMKD_* variable cleared except
PIMKD_THREADS (min(4, nproc) unless --threads is given) and PIMKD_SIMD=auto.
The last line of stdout is the binary's JSON result; build output goes to
.bench_build/build.log and, on failure, to stderr.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "pimkd_perfbench")
WORKLOADS = ("read_zipf", "churn_durable", "scan_sharded")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def default_threads():
    return max(1, min(4, os.cpu_count() or 1))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found: run from a repository checkout "
             "(src/ next to perfbench/)")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "pimkd_perfbench",
                  "-j", str(default_threads())])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (see .bench_build/build.log)")


def bench_env(threads):
    env = {k: v for k, v in os.environ.items() if not k.startswith("PIMKD_")}
    env["PIMKD_THREADS"] = str(threads)
    env["PIMKD_SIMD"] = "auto"
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, default=default_threads(),
                    help="PIMKD_THREADS for the binary (default min(4, nproc))")
    ap.add_argument("--selftest", action="store_true",
                    help="feed the answer checker corrupted answers")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")
    if args.threads < 1 or args.threads > (os.cpu_count() or 1):
        ap.error("--threads must be between 1 and nproc")

    build()
    if args.selftest:
        cmd = [BINARY, "--selftest"]
    else:
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=bench_env(args.threads),
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if args.selftest:
        sys.exit(proc.returncode)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        fail(f"benchmark binary exited with code {proc.returncode} and no result")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("benchmark binary printed a malformed result")
    print(json.dumps(result))
    sys.exit(proc.returncode if proc.returncode else (0 if result["correct"] else 1))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Checks that the modeled metrics do not depend on the host thread count.

Runs each workload with the same seed under PIMKD_THREADS=1 and under the
benchmark's thread count (min(4, nproc)) and requires every model_* metric
to be identical. Those metrics are pure functions of the seed's request
stream, which is why they can carry tight bounds.

    python3 perfbench/determinism.py                 # all workloads, seed 1
    python3 perfbench/determinism.py --workload scan_sharded --seed 5

Run from the repository root.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("read_zipf", "churn_durable", "scan_sharded")


def model_metrics(workload, seed, seconds, threads):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
           "--threads", str(threads)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        sys.exit(f"determinism: {workload} threads={threads} failed")
    res = json.loads(lines[-1])
    return {k: v["value"] for k, v in res["metrics"].items() if k.startswith("model_")}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    args = ap.parse_args()
    threads = max(1, min(4, os.cpu_count() or 1))
    ok = True
    for w in [args.workload] if args.workload else WORKLOADS:
        one = model_metrics(w, args.seed, args.seconds, 1)
        many = model_metrics(w, args.seed, args.seconds, threads)
        for k in sorted(one):
            same = one[k] == many[k]
            ok = ok and same
            print(f"{w:14s} {k:32s} threads=1 {one[k]!r:>22} threads={threads} "
                  f"{many[k]!r:>22} {'identical' if same else 'DIFFERENT'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

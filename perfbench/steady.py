#!/usr/bin/env python3
"""Runs one workload N times, each with another seed, and prints every
metric's median, quartiles and spread (quartile distance / median).

    python3 perfbench/steady.py --workload read_zipf --runs 10
    python3 perfbench/steady.py --workload scan_sharded --runs 5 --trace 1
    python3 perfbench/steady.py --workload churn_durable --seeds 7,7,7

Spreads are checked against the bounds in BENCHMARK.json (end-to-end
metrics): a metric whose spread exceeds a third of its bound is flagged. Run from the
repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        sys.exit(f"steady: {workload} seed {seed} failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def summarize(results):
    out = {}
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3, "min": min(vals), "max": max(vals),
                     "spread": (q3 - q1) / med if med else 0.0}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seeds", help="comma-separated seeds (overrides --runs)")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = ([int(s) for s in args.seeds.split(",")] if args.seeds else
             list(range(args.first_seed, args.first_seed + args.runs)))

    results = []
    for seed in seeds:
        results.append(run_once(args.workload, seed, seconds, args.trace))
        print(f"  seed {seed}: correct={results[-1]['correct']} "
              f"attempted={results[-1]['attempted']} failed={results[-1]['failed']}",
              file=sys.stderr)
    summary = summarize(results)

    correct = all(r["correct"] for r in results)
    fail_share = {r["failed"] / r["attempted"] for r in results}
    print(f"{args.workload}: {len(results)} runs, seconds={seconds}, "
          f"trace={args.trace}, all correct={correct}, failed shares={sorted(fail_share)}")
    print(f"{'metric':36s} {'unit':>13s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
          f"{'spread':>7s}  bound")
    for name, s in summary.items():
        bound = bounds.get(name)
        flag = ""
        if bound is not None and s["spread"] > bound / 3:
            flag = "  > bound/3"
        print(f"{name:36s} {s['unit']:>13s} {s['median']:14.6g} {s['q1']:14.6g} "
              f"{s['q3']:14.6g} {s['spread']:7.4f}  {bound if bound is not None else '-'}{flag}")
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()

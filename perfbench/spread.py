#!/usr/bin/env python3
"""Checks how steady the benchmark's end-to-end metrics are across seeds.

Usage, from the root of the repository:

    python3 perfbench/spread.py --workload <name> [--runs 10] [--first-seed 1]

Runs `perfbench/run.py --trace 0` once per seed (first-seed, first-seed+1,
...) with the `run_seconds` of BENCHMARK.json, then prints for every
end-to-end metric its median, its quartiles by `statistics.quantiles(n=4)`
and the spread (third minus first quartile) as a share of the median,
next to the metric's bound. A spread at or above a third of the bound is
flagged; `setup_s` is reported but carries no spread limit.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"seed {seed}: exit code {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"seed {seed}: run reported incorrect output")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    values = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        metrics = run_once(args.workload, seed, bench["run_seconds"])
        print(f"seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in metrics.items()),
              flush=True)
        for k, v in metrics.items():
            values.setdefault(k, []).append(v)
    print(f"{args.workload}: {args.runs} runs")
    worst = 0.0
    for m in bench["end_to_end"]:
        xs = values[m["name"]]
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        limited = m["name"] != "setup_s"
        flag = "  <-- above bound/3" if limited and spread >= m["bound"] / 3 else ""
        if limited:
            worst = max(worst, spread / m["bound"])
        print(f"  {m['name']:14s} median={med:<12.6g} q1={q1:<12.6g} q3={q3:<12.6g} "
              f"spread={spread:.4f} bound={m['bound']}{flag}")
    print(f"  worst spread/bound: {worst:.3f}")


if __name__ == "__main__":
    main()

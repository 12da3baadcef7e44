#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload query-mix --runs 10 [--first-seed 1]

Run from the repository root. The runs are untraced. For every end-to-end
metric it prints the median of the runs and the distance between the first
and third quartile as a share of the median (Python's statistics.quantiles,
n=4), next to the metric's bound from BENCHMARK.json and a third of it.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: correct={result['correct']} failed={result['failed']}", file=sys.stderr)
            print(out.stderr, file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        brief = " ".join(f"{k}={m['value']:.4g}" for k, m in sorted(result["metrics"].items()))
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} {brief}", file=sys.stderr)

    print(f"{'metric':34} {'median':>14} {'spread':>8} {'bound':>6} {'bound/3':>8}")
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        if len(vs) >= 2 and med:
            q = statistics.quantiles(vs, n=4)
            spread = f"{(q[2] - q[0]) / med:.4f}"
        else:
            spread = "-"
        bound = bounds.get(name)
        b = f"{bound:.3f}" if bound is not None else "-"
        b3 = f"{bound / 3:.4f}" if bound is not None else "-"
        print(f"{name:34} {med:14.6g} {spread:>8} {b:>6} {b3:>8}")


if __name__ == "__main__":
    main()

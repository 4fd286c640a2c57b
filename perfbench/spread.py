#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each metric's spread.

From the repository root:

    python3 perfbench/spread.py --workload capture_flood --runs 10 --seconds 10

For each metric in the result line it prints the median over the runs and
the distance between the first and third quartiles as a share of that
median (statistics.quantiles(values, n=4)), which is how a metric's
run-to-run spread is compared with its bound in BENCHMARK.json.
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
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stdout}{out.stderr}")
        res = json.loads(lines[-1])
        if not res["correct"]:
            sys.exit(f"seed {seed}: run not correct\n{out.stdout}")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())
            if k in bounds), flush=True)

    for name, vals in sorted(values.items()):
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        note = ""
        if bound is not None and name != "setup_s":
            note = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
        print(f"{name:40s} median {med:12.6g}  spread {spread:7.4f}  bound {bound}  {note}")


if __name__ == "__main__":
    main()

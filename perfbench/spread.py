#!/usr/bin/env python3
"""Repeat the benchmark over seeds and summarize each metric's spread.

Usage (from the repository root):
    python3 perfbench/spread.py --runs 10 [--workload W ...] [--first-seed 1]
                                [--trace 0|1] [--out perfbench/baseline.json]

Runs perfbench/run.py once per (workload, seed), one at a time, and prints
per workload and metric the median, the quartiles (statistics.quantiles,
n=4), and the spread (q3 - q1) / median next to the bound in
BENCHMARK.json. --out writes the summary and every run's result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for w in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            res = subprocess.run(cmd, capture_output=True, text=True, check=True)
            lines = res.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result["info"] = json.loads(lines[-2])["info"]
            runs.append(result)
            print(f"{w} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}", file=sys.stderr)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            summary[name] = {
                "unit": runs[0]["metrics"][name]["unit"],
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / med if med else None,
                "bound": bounds.get(name),
            }
        report["workloads"][w] = {"summary": summary, "runs": runs}
        print(f"\n{w}")
        for name, s in summary.items():
            spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            flag = ""
            if s["bound"] is not None and s["spread"] is not None and name != "setup_s":
                flag = "  OK" if s["spread"] < s["bound"] / 3 else "  WIDE"
            print(f"  {name:34s} median {s['median']:.6g} {s['unit']:12s} q1 {s['q1']:.6g} "
                  f"q3 {s['q3']:.6g} spread {spread} bound {s['bound']}{flag}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Runs perfbench over several seeds and reports each metric's spread.

    python3 perfbench/sweep.py --workload serve_mix --seeds 1-10 [--trace 1]
                               [--out sweep.json]

For every metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them), the spread (q3 - q1) / median
and, for end-to-end metrics, the bound from BENCHMARK.json. A later change
compares its own sweep against the parent's with these numbers: a move
smaller than the parent's spread is noise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        command = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
        out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit("seed %d failed:\n%s%s" % (seed, out.stdout, out.stderr))
        result = json.loads(out.stdout.strip().split("\n")[-1])
        result["seed"] = seed
        runs.append(result)
        values = " ".join("%s=%.6g" % (k, v["value"])
                          for k, v in result["metrics"].items())
        print("seed %d correct=%s failed=%d %s" % (seed, result["correct"],
                                                   result["failed"], values),
              flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = median
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": spread, "bound": bounds.get(name),
                         "values": values}
        bound = bounds.get(name)
        flag = ""
        if bound is not None and not args.trace:
            flag = "ok" if spread < bound / 3 else (
                "wide" if spread <= bound else "OVER BOUND")
        print("%-34s median=%-14.6g q1=%-14.6g q3=%-14.6g spread=%.4f %s" % (
            name, median, q1, q3, spread, flag))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"workload": args.workload, "trace": args.trace,
                       "runs": runs, "summary": summary}, handle, indent=1)


if __name__ == "__main__":
    main()

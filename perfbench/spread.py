#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, the way acceptance reads it.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [WORKLOAD ...]

Runs BENCHMARK.json's command --runs times per workload (one seed each,
--trace 0, run_seconds from BENCHMARK.json) from the repository root and
prints, per end-to-end metric, the median and the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound. A spread at or above a third of its
bound is flagged; setup_s is exempt from the spread rule and flagged only
for information.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if r.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {r.returncode}\n{r.stderr}")
    result = json.loads(r.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*",
                    default=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    steady = True
    for w in args.workloads:
        runs = [run_once(bench, w, args.first_seed + i)
                for i in range(args.runs)]
        print(f"{w} ({args.runs} runs)")
        for name, bound in bounds.items():
            vals = [r[name] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ok = spread < bound / 3
            if not ok and name != "setup_s":
                steady = False
            print(f"  {name:14s} median {med:14.6g}  spread {spread:7.2%}"
                  f"  bound {bound:.0%}  {'ok' if ok else 'WIDE'}"
                  f"  [{' '.join(f'{v:.4g}' for v in vals)}]")
        sys.stdout.flush()
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

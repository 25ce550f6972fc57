"""Run the benchmark on several seeds and print each metric's median and
spread, the figures quoted in perfbench/README.md.

    python3 perfbench/spread.py [--workloads verdicts,local,sweeps]
        [--seeds 1-10]

Runs are untraced and measure run_seconds of BENCHMARK.json each.

Spread is (Q3 - Q1) / median over the runs, with the quartiles of
statistics.quantiles(values, n=4).  Runs go one after another.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="verdicts,local,sweeps")
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    status = 0
    for workload in args.workloads.split(","):
        values = {}
        outcomes = set()
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            outcomes.add((result["correct"],
                          result["failed"] / result["attempted"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload}: {len(args.seeds)} seeds, (correct, failed share) "
              f"{sorted(outcomes)}")
        for name, vals in sorted(values.items()):
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:36s} median {med:12.6g}  spread {spread:6.3f}  "
                  f"min {min(vals):.6g}  max {max(vals):.6g}")
    return status


if __name__ == "__main__":
    sys.exit(main())

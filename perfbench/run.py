"""Benchmark of lochom's verdicts, local stalks and identity sweeps.

    python3 perfbench/run.py --workload verdicts|local|sweeps --seed N \
        --seconds S --trace 0|1

Run from the repository root.  Each run starts fresh processes: several
set-up probes (with --trace 0), then one workload process (worker.py) that
drives lochom in-process through `lochom.cli.main`.  The last line of
standard output is the result, {"correct", "attempted", "failed",
"metrics"}: with --trace 0 the end-to-end metrics (setup_s, pass_s,
largest_s, peak_rss_mb), with --trace 1 the per-layer metrics of a traced
run.  Scratch files go under .perfbench_out/ and are removed at the end,
except the span file of a traced run.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("verdicts", "local", "sweeps")
SETUP_PROBES = 7
# A run is stopped after DEADLINE_BASE_S + DEADLINE_PER_S * --seconds: 170 s
# at --seconds 25.  A traced run needs --seconds plus one untraced and one
# counting pass (100 s in all on `verdicts` at --seconds 25).
DEADLINE_BASE_S = 95
DEADLINE_PER_S = 3


class RunError(Exception):
    pass


def child(args, deadline):
    """Run worker.py with args; return the JSON object on its last line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("out of time before " + args[0])
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py")] + args,
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise RunError(f"worker {args[0]} did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"worker {args[0]} exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "lochom", "cli.py")):
        sys.stderr.write(f"error: no lochom sources under {ROOT}/src\n")
        return 2

    deadline = (time.monotonic() + DEADLINE_BASE_S
                + DEADLINE_PER_S * args.seconds)
    run_dir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_PROBES):
                setups.append(child(["setup"] + common + [
                    "--dir", os.path.join(run_dir, f"setup{i}")], deadline))
        argv = common + ["--seconds", str(args.seconds),
                         "--dir", os.path.join(run_dir, "run")]
        if args.trace:
            argv = ["trace"] + argv + ["--spans", os.path.join(
                OUT, f"spans-{args.workload}-{args.seed}.jsonl")]
        else:
            argv = ["run"] + argv
        result = child(argv, deadline)
    except RunError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics = result["metrics"]
    if setups:
        metrics["setup_s"] = {
            "value": statistics.median(s["setup_s"] for s in setups),
            "unit": "s"}
        result["raw"]["setup_raw_s"] = statistics.median(
            s["raw_s"] for s in setups)
    print(f"# {args.workload} seed {args.seed}: {result['passes']} passes; "
          "unscaled wall times: " + ", ".join(
              f"{k}={v:.4f}" for k, v in sorted(result["raw"].items())))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

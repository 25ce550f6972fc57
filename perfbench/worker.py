"""One workload process of the benchmark; `run.py` starts it.

    worker.py setup --workload W --seed N --dir D
        generates and checks the inputs, then times one set-up (import
        lochom, write and parse the inputs) and prints
        {"setup_s": scaled, "raw_s": raw}.
    worker.py run --workload W --seed N --seconds S --dir D
        sets up, then runs whole passes over the workload's operations for
        about S seconds, checking every report, and prints one JSON line.
    worker.py trace --workload W --seed N --seconds S --dir D --spans F
        the same with the per-layer tracing of `traced_run`; spans go to F.

Each operation is `lochom.cli.main([..., "--out", path])`, timed around the
call, with the report read back and checked afterwards.  Times are scaled to
the reference speed of `hostspeed`.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# Pass i runs on input variant i mod VARIANTS.  The work of an operation
# depends on the vertex order by several percent, so a run's medians span
# several orders instead of resting on one.
VARIANTS = 4


def set_up(workload, seed, directory):
    """Generate and check the workload's complexes (untimed), then import
    lochom and write and parse the inputs of every variant (timed)."""
    workloads.generator_self_check()
    generated = workloads.generate(workload)
    r0 = hostspeed.reference()
    t0 = time.perf_counter()
    import lochom.cli  # noqa: F401
    variants = []
    for v in range(VARIANTS):
        inputs = workloads.Inputs(workload, seed, v,
                                  os.path.join(directory, f"v{v}"), generated)
        inputs.parse_all()
        variants.append(inputs)
    raw = time.perf_counter() - t0
    return variants, raw, hostspeed.scaled(raw, r0, hostspeed.reference())


class Pass:
    """Timings and outcome of one pass over the operation list."""

    def __init__(self):
        self.raw = []
        self.scaled = []
        self.failures = []
        self.problems = []
        self.checked = 0

    @property
    def scaled_s(self):
        return sum(self.scaled)

    @property
    def raw_s(self):
        return sum(self.raw)


def run_pass(ops, inputs, expectations, out):
    from lochom import cli
    p = Pass()
    ref_before = hostspeed.reference()
    for op in ops:
        argv = op.argv(inputs.files, out)
        if os.path.exists(out):
            os.remove(out)
        error = None
        t = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc, error = exc.code, f"exit {exc.code}"
        except Exception as exc:  # an operation that crashes counts as failed
            rc, error = None, f"{type(exc).__name__}: {exc}"
        raw = time.perf_counter() - t
        ref_after = hostspeed.reference()
        p.raw.append(raw)
        p.scaled.append(hostspeed.scaled(raw, ref_before, ref_after))
        ref_before = ref_after
        if error is None and rc not in (0, 1):
            error = f"exit {rc}"
        if error is not None:
            p.failures.append(f"{op.label}: failed ({error})")
            continue
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        for problem in workloads.check(op, report, rc, expectations):
            p.problems.append(f"{op.label}: {problem}")
        if op.command == "identities":
            p.checked += sum(report[s]["checked"] for s in workloads.SWEEPS)
    return p


def warm_up(ops, inputs, expectations, out):
    """Untimed operations from the head of the list until one second has
    passed: in a fresh process the first second or so of lochom work runs
    up to 20% slower than later passes."""
    start = time.perf_counter()
    for op in ops:
        run_pass([op], inputs, expectations, out)
        if time.perf_counter() - start >= 1:
            return


def run_passes(ops, variants, out, seconds):
    """Whole passes, cycling through the variants, until `seconds` have
    passed."""
    warm_up(ops, *variants[0], out)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        inputs, expectations = variants[len(passes) % len(variants)]
        passes.append(run_pass(ops, inputs, expectations, out))
    return passes


def main(argv=None):
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    common.add_argument("--seed", type=int, required=True)
    common.add_argument("--dir", required=True)
    timed = argparse.ArgumentParser(add_help=False, parents=[common])
    timed.add_argument("--seconds", type=float, required=True)
    ap = argparse.ArgumentParser()
    modes = ap.add_subparsers(dest="mode", required=True)
    modes.add_parser("setup", parents=[common])
    modes.add_parser("run", parents=[timed])
    modes.add_parser("trace", parents=[timed]).add_argument(
        "--spans", required=True, help="where the spans are written")
    args = ap.parse_args(argv)

    variants, raw, scaled = set_up(args.workload, args.seed,
                                   os.path.join(args.dir, "inputs"))
    if args.mode == "setup":
        print(json.dumps({"setup_s": scaled, "raw_s": raw}))
        return 0

    ops = workloads.WORKLOADS[args.workload]
    variants = [(v, workloads.Expectations(v)) for v in variants]
    out = os.path.join(args.dir, "report.json")
    if args.mode == "run":
        passes = run_passes(ops, variants, out, args.seconds)
        largest = [i for i, op in enumerate(ops) if op.largest]
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "pass_s": (statistics.median(p.scaled_s for p in passes), "s"),
            "largest_s": (statistics.median(p.scaled[i] for p in passes
                                            for i in largest), "s"),
            "peak_rss_mb": (rss / 1024, "MB"),
        }
        raw = {"pass_raw_s": statistics.median(p.raw_s for p in passes),
               "largest_raw_s": statistics.median(p.raw[i] for p in passes
                                                  for i in largest)}
    else:
        passes, metrics, raw = traced_run(ops, variants[0], out, args)
    problems = [x for p in passes for x in p.failures + p.problems]
    for problem in problems[:20]:
        sys.stderr.write(problem + "\n")
    print(json.dumps({
        "correct": not any(p.problems for p in passes),
        "attempted": len(ops) * len(passes),
        "failed": sum(len(p.failures) for p in passes),
        "passes": len(passes),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "raw": raw,
    }))
    return 0


def traced_run(ops, variant, out, args):
    """One untraced pass; span-traced passes until `seconds` have passed
    since it began (at least one); then one pass with the hot-helper
    counters, which takes up to five times an untraced pass.  All on one
    input variant."""
    inputs, expectations = variant
    warm_up(ops, inputs, expectations, out)
    start = time.perf_counter()
    base = run_pass(ops, inputs, expectations, out)
    spans = tracing.Tracer()
    tracing.install(spans, "spans")
    layers = []
    traced = []
    while not traced or time.perf_counter() - start < args.seconds:
        spans.reset()
        p = run_pass(ops, inputs, expectations, out)
        traced.append(p)
        layers.append(tracing.layer_metrics(spans, p.scaled_s / p.raw_s))
    counts = tracing.Tracer()
    tracing.install(counts, "counts")
    counted = run_pass(ops, inputs, expectations, out)
    metrics = {k: (statistics.median(m[k][0] for m in layers), unit)
               for k, (_, unit) in layers[0].items()}
    metrics.update(tracing.count_metrics(counts))
    metrics["identities.checked"] = (traced[0].checked, "count")
    traced_s = statistics.median(p.scaled_s for p in traced)
    metrics["trace.overhead_pct"] = (100 * (traced_s / base.scaled_s - 1), "%")
    tracing.write_spans(spans, args.spans)
    raw = {"untraced_pass_s": base.raw_s,
           "traced_pass_s": statistics.median(p.raw_s for p in traced)}
    return [base] + traced + [counted], metrics, raw


if __name__ == "__main__":
    sys.exit(main())

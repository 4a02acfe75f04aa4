"""Run one workload in a fresh process and print its measurements as JSON.

Started by run.py, never by hand: set-up (imports, input generation and
one warm-up op) is timed from the first line of this file, so every
sample of setup_s pays the import cost a user pays.  run.py puts the
checkout's src/ first on PYTHONPATH.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import abelift  # noqa: E402
import numpy as np  # noqa: E402
import scipy  # noqa: E402
from abelift import kernels  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def environment() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "kernels_impl": kernels.IMPL,
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "num_threads": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
    }


def run_pass(wl, tracer=None, op_base=0):
    """Run every op once; a raising op is recorded as failed and skipped.

    Returns (pass wall time, outputs, errors, seconds per op)."""
    outs, errors, op_s = {}, {}, {}
    t_pass = time.perf_counter()
    for i, (label, fn) in enumerate(wl.ops):
        if tracer is not None:
            tracer.op = op_base + i
        t0 = time.perf_counter()
        try:
            outs[label] = fn(outs)
        except Exception:  # an op failure is counted, never fatal
            errors[label] = traceback.format_exc()
            print(errors[label], file=sys.stderr)
        op_s[label] = time.perf_counter() - t0
    return time.perf_counter() - t_pass, outs, errors, op_s


def pass_time(passes) -> float:
    """One pass, as the sum over ops of each op's median time.

    Op by op, the median drops the stalls a busy host puts into some
    passes, so the estimate is steadier than a median of pass totals.
    """
    return sum(statistics.median(p[3][label] for p in passes)
               for label in passes[0][3])


def timed_passes(wl, seconds, tracer=None):
    """Repeat passes until `seconds` have elapsed (at least one pass)."""
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        passes.append(run_pass(wl, tracer, len(passes) * len(wl.ops)))
    return passes


def check_passes(wl, passes):
    """(attempted, failure reasons) over every op of every pass, then the
    ops that run once after timing."""
    attempted, failures = 0, []
    for _, outs, errors, _ in passes:
        for label, _ in wl.ops:
            attempted += 1
            if label in errors:
                failures.append(f"{label}: raised "
                                f"{errors[label].strip().splitlines()[-1]}")
                continue
            try:
                reason = wl.check(label, outs[label])
            except Exception:  # a malformed output fails its op
                reason = f"{label}: check raised {traceback.format_exc()}"
            if reason:
                failures.append(reason)
    for label, fn in wl.final_ops():
        attempted += 1
        try:
            reason = fn()
        except Exception:
            reason = f"{label}: raised {traceback.format_exc()}"
        if reason:
            failures.append(reason)
    return attempted, failures


def search_stats(passes) -> dict:
    """Candidates, crosschecks and winning lambdas per pass (certificates)."""
    cands, checks, lams = [], [], []
    for _, outs, _, _ in passes:
        certs = [o["certificate"] for o in outs.values()
                 if isinstance(o, dict) and "certificate" in o]
        cands.append(sum(c["candidates_evaluated"] for c in certs))
        checks.append(sum(c["crosscheck"]["count"] for c in certs))
        lams += [c["lambda_lift"] for c in certs]
    return {"candidates": statistics.mean(cands),
            "crosschecks": statistics.mean(checks),
            "lambda_mean": statistics.mean(lams) if lams else 0.0}


def layer_metrics(tracer, traced, untraced) -> dict:
    """Per-pass means of the traced spans and counters, plus derived ratios."""
    n = len(traced)
    out = {k: v / n for k, v in tracer.counts.items()}
    out.update({k: v / n for k, v in tracer.totals().items()})
    out.update(tracer.peaks)
    stats = search_stats(traced)
    wall, traced_wall = pass_time(untraced), pass_time(traced)
    walks = out.get("pseudorandom.expander_walk_signing.calls", 0)
    out.update({
        "search.candidates": stats["candidates"],
        "search.crosschecks": stats["crosschecks"],
        "search.crosscheck_ratio": (stats["crosschecks"] / stats["candidates"]
                                    if stats["candidates"] else 0.0),
        "search.candidates_per_s": stats["candidates"] / wall,
        "search.lambda_mean": stats["lambda_mean"],
        "pseudorandom.aux_draws_per_signing": (
            out.get("graphs.random_regular_dense.calls", 0) / walks
            if walks else 0.0),
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": wall,
        "trace.overhead_s": traced_wall - wall,
        "trace.spans": len(tracer.spans) / n,
    })
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--size", choices=["full", "smoke"], required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="file to write the traced spans to")
    args = ap.parse_args()
    if not Path(abelift.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"abelift imported from {abelift.__file__}, not from {ROOT}/src",
              file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as workdir:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.size, workdir)
        wl.run_op(wl.warmup, {})
        setup_s = time.perf_counter() - T_START
        result = {"setup_s": setup_s}
        if not args.setup_only:
            result.update(measure(wl, args))
            result["env"] = environment()
    print(json.dumps(result))
    return 0


def measure(wl, args) -> dict:
    if args.trace:
        untraced = timed_passes(wl, args.seconds / 2)
        tracer = tracing.Tracer()
        with tracer:
            traced = timed_passes(wl, args.seconds / 2, tracer)
        passes = untraced + traced
    else:
        passes = untraced = timed_passes(wl, args.seconds)
    # before the checks, whose oracles are not the program's memory
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failures = check_passes(wl, passes)
    out = {"walls": [p[0] for p in untraced],
           "wall_s": pass_time(untraced),
           "peak_rss_mb": peak_rss_mb,
           "attempted": attempted, "failures": failures}
    if args.trace:
        out["traced_walls"] = [p[0] for p in traced]
        out["layers"] = layer_metrics(tracer, traced, untraced)
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "op"],
                           "spans": tracer.spans}, fh)
    return out


if __name__ == "__main__":
    sys.exit(main())

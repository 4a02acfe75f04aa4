"""abelift benchmark: two workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload search-pipeline --seed 0 \
        --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in fresh processes (worker.py) against the library in
./src: SETUP_SAMPLES set-ups are timed and their median is setup_s, and
the last of them goes on to repeat timed passes for --seconds.  With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 half of the time is untraced passes and half traced ones, and
the metrics are the per-layer ones.  Every op's output is checked; the
last line of output is one JSON object with correct, attempted, failed
and metrics.  A human-readable report, with the environment, precedes it,
and the full record (spans too, when traced) goes to .perfbench_out/.

Inputs are drawn from --seed only.  DEFAULT_SEED is the seed used while
developing a change; HELDOUT_SEED is kept for confirming a claimed gain.
Both are recorded in references.json at the seed commit.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().with_name("worker.py")
DEFAULT_SEED = 0
HELDOUT_SEED = 97
SETUP_SAMPLES = 3
DEADLINE_S = 170


def git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def child_env() -> dict:
    """Library defaults only: no worker or kernel overrides from outside."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("ABELIFT_WORKERS", "ABELIFT_NO_NUMBA")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def run_worker(args, deadline, extra) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size] + extra
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=child_env(),
                          cwd=ROOT, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args, spec) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setups = [run_worker(args, deadline, ["--setup-only"])["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    spans = str(out_dir / f"{stem}-spans.json")
    res = run_worker(args, deadline, ["--spans", spans] if args.trace else [])
    setups.append(res["setup_s"])

    if args.trace:
        values, wanted = res["layers"], spec["per_layer"]
    else:
        values = {"setup_s": statistics.median(setups),
                  "wall_s": res["wall_s"], "peak_rss_mb": res["peak_rss_mb"]}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in wanted}
    failed = len(res["failures"])
    result = {"correct": failed == 0, "attempted": res["attempted"],
              "failed": failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "size": args.size,
              "env": dict(res["env"], commit=git_commit()),
              "setup_samples_s": setups, "pass_walls_s": res["walls"],
              "traced_pass_walls_s": res.get("traced_walls", []),
              "failures": res["failures"], "result": result}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    report(record)
    return result


def report(record) -> None:
    res = record["result"]
    print(f"== {record['workload']} seed={record['seed']} "
          f"trace={record['trace']} size={record['size']}")
    print("   env " + json.dumps(record["env"], sort_keys=True))
    print(f"   setup samples {record['setup_samples_s']}, "
          f"{len(record['pass_walls_s'])} untraced passes")
    for name, m in res["metrics"].items():
        print(f"   {name:42s} {m['value']:.6g} {m['unit']}")
    print(f"   ops_failed_frac {res['failed']}/{res['attempted']} = "
          f"{res['failed'] / res['attempted']:.4g}")
    for reason in record["failures"]:
        print(f"   FAILED {reason}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "smoke"], default="full",
                    help="smoke: tiny inputs, for the benchmark's own tests")
    args = ap.parse_args()
    if not (ROOT / "src" / "abelift" / "__init__.py").is_file():
        print(f"no abelift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(argparse.Namespace(**{
            **vars(args), "workload": name}), spec)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""ptml benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a ptml checkout; it imports ptml from src/ there.  The
workload's inputs are generated from the seed; the same seed gives the same
inputs.  Every job runs in a fresh single-threaded Python process, one
after another, and is timed from just before that process starts.

--trace 0 runs passes over the whole workload, each in a fresh process,
while S seconds last (at least one), and reports the end-to-end metrics,
all times corrected for the machine's speed (bench/clock.py):
  wall_s          median pass time, process start to last result
  setup_s         median time to import ptml and build the pass's models
  peak_rss_mb     median peak resident memory of a pass process
It also prints fail_ratio (failed over attempted operations), the 50th and
90th percentiles of the time of one call into ptml (a threshold, a sweep or
a cli_mix request; each call's median over the passes), and the raw wall
times of the passes.
--trace 1 runs one plain pass and one traced pass and reports the per-layer
metrics of the traced one (see bench/spans.py), plus trace.overhead_s, the
traced wall_s minus the plain one.  Spans go to .bench_out/.

Both print readable lines first and, as the last line, one JSON object
{"correct", "attempted", "failed", "metrics"}.  `attempted` counts the
operations of the workload once, however many passes repeated them;
`failed` counts those that raised or failed an oracle check in any pass.
`correct` is false only if a failure is not one of the seed defects listed
in bench/workloads.py.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

JOB_TIMEOUT_S = 170
# No pass starts that is expected to end later than this into the run, of
# the 180 s a run may take.
RUN_BUDGET_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def spawn(job: dict, env: dict) -> dict:
    """Run one job process to completion and return its report."""
    job = dict(job, t0=time.monotonic())
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "job.py")],
        input=json.dumps(job), capture_output=True, text=True, env=env,
        timeout=JOB_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"job process exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _outcome(reports: list) -> dict:
    """Every pass runs the same operations, so each counts once: attempted
    is the operations of one pass, failed those that failed in any pass.
    Both then depend neither on how many passes fitted in the run nor, as
    the workloads are built, on the seed."""
    attempted = reports[0]["attempted"]
    failures = [f for r in reports for f in r["failures"]]
    failed = len({f[0] for f in failures})
    return {"attempted": attempted, "failed": failed, "failures": failures,
            "correct": all(f[2] in workloads.KNOWN_DEFECTS for f in failures)}


def _print_failures(failures: list):
    seen = set()
    for op, msg, defect in failures:
        if (op, msg) in seen:
            continue
        seen.add((op, msg))
        tag = f"known defect {defect}" if defect else "UNEXPECTED"
        print(f"  failed [{tag}] {op}: {msg}")


def measure(job: dict, env: dict, seconds: int):
    start = time.monotonic()
    passes = []
    while True:
        passes.append(spawn(job, env))
        typical = statistics.median(r["raw_wall_s"] for r in passes)
        if time.monotonic() + typical > start + min(seconds, RUN_BUDGET_S):
            break
    # One latency per operation, its median over the passes, so that the
    # percentiles do not depend on how many passes fitted in the run.
    latencies = [statistics.median(op)
                 for op in zip(*(r["latencies_s"] for r in passes))]
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in passes), "s",
                   len(passes)),
        "setup_s": (statistics.median(r["setup_s"] for r in passes), "s",
                    len(passes)),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in passes),
                        "MB", len(passes)),
    }
    for pct in (50, 90):
        print(f"latency_p{pct}_ms {1000 * _percentile(latencies, pct):.6g} ms "
              f"(n={len(latencies)} operations)")
    out = _outcome(passes)
    print(f"fail_ratio {out['failed'] / out['attempted']:.6f} "
          f"({out['failed']} of {out['attempted']} operations, each run in "
          f"{len(passes)} passes)")
    print("raw wall " + " ".join(f"{r['raw_wall_s']:.3f}" for r in passes)
          + " s")
    return out, metrics


def _percentile(values, pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def measure_traced(job: dict, env: dict, spans_path: str):
    plain = spawn(job, env)
    traced = spawn(dict(job, trace=True, spans_path=spans_path), env)
    out = _outcome([plain, traced])
    layers = traced["layers"]
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    print(f"traced wall_s {traced['wall_s']:.3f} s, "
          f"plain wall_s {plain['wall_s']:.3f} s")
    metrics = {}
    for name, value in layers.items():
        if name.endswith("_s"):
            unit = "s"
        elif name.endswith("grid_share"):
            unit = "ratio"
        elif name.endswith("evals_per_threshold"):
            unit = "evals/threshold"
        else:
            unit = "count"
        metrics[name] = (value, unit, 1)
    return out, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ptml", "cli.py")):
        print("error: run from the root of a ptml checkout "
              "(src/ptml/cli.py not found)", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    rng = random.Random(f"{args.workload}/{args.seed}")
    job = {"workload": args.workload, "inputs": wl.inputs(rng),
           "trace": False}
    env = child_env()
    try:
        if args.trace:
            spans_path = os.path.join(
                ROOT, ".bench_out", f"spans-{args.workload}-{args.seed}.jsonl")
            out, metrics = measure_traced(job, env, spans_path)
        else:
            out, metrics = measure(job, env, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for name, (value, unit, count) in metrics.items():
        print(f"{name} {value:.6g} {unit} (n={count})")
    _print_failures(out["failures"])
    print(json.dumps({
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

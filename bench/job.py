"""One benchmark job, run by bench/run.py in a fresh process.

Reads a job description (JSON) on stdin: the workload name, its generated
inputs, the parent's clock reading just before it started this process, and
whether to trace.  Imports ptml, builds the workload's models, runs its
operations one after another, stops the clock, reads the peak memory, and
only then checks the answers.

The last line of stdout is a JSON report.  Times are time.monotonic(),
which the parent shares; durations are corrected for the machine's speed
(clock.py), and the raw wall time is reported beside them.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

from clock import SpeedClock


def main() -> int:
    job = json.load(sys.stdin)
    clock = SpeedClock()
    clock.start()
    import workloads

    wl = workloads.WORKLOADS[job["workload"]]
    inputs = job["inputs"]
    import ptml.cli  # noqa: F401  (imports every layer)

    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    ctx = wl.setup(inputs)
    t_setup = time.monotonic()

    records, stamps = [], []
    for op in wl.operations(inputs, ctx):
        t = time.monotonic()
        try:
            rec = op()
        except Exception as exc:  # an operation that raises has failed
            rec = exc
        stamps.append((t, time.monotonic()))
        records.append(rec)
    t_done = time.monotonic()
    clock.stop()
    # Before the checks, so that the oracles' own memory is not counted.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.enabled = False

    factors = clock.factors()
    report = {
        "setup_s": clock.corrected(job["t0"], t_setup, factors),
        "wall_s": clock.corrected(job["t0"], t_done, factors),
        "raw_wall_s": t_done - job["t0"],
        "peak_rss_mb": peak_rss_mb,
        "latencies_s": [clock.corrected(a, b, factors) for a, b in stamps],
    }
    attempted, failures = wl.check(inputs, ctx, records)
    report["attempted"] = attempted
    report["failures"] = [[f.op, f.message, f.defect] for f in failures]
    if tracer is not None:
        report["layers"] = tracer.layer_metrics(
            lambda a, b: clock.corrected(a, b, factors))
        if job.get("spans_path"):
            os.makedirs(os.path.dirname(job["spans_path"]), exist_ok=True)
            tracer.dump(job["spans_path"])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload in a fresh process: build the inputs, then run passes until the window ends.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``; not meant to be run by hand.
With ``--setup-only`` it stops once the inputs are built, which is how
``run.py`` samples set-up time: from ``--spawned``, the parent's
``time.perf_counter()`` just before it started this process (the clock is
system-wide), to the inputs being built, in wall and speed-adjusted seconds.  Otherwise it writes a JSON result with
every pass's wall time, speed-adjusted time (``speedprobe.py``) and job
outcomes, the peak RSS, the versions in use
and, with ``--trace 1``, per-layer metrics of the traced passes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

import speedprobe

# Set-up time is speed-adjusted too, so the probe starts before the program
# is imported.
PROBE = speedprobe.SpeedProbe()
PROBE.start()

import tracing  # noqa: E402
import workloads  # noqa: E402  imports dqdpulse

MIN_PASSES = 3


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "dqdpulse_file": workloads.cli.__file__,
    }


def run_pass(jobs: list[workloads.Job], scratch: str, tracer, pass_index: int, probe=None) -> dict:
    """Run the jobs once, traced with ``tracer`` or speed-probed with ``probe``."""
    outcomes = []
    start = time.perf_counter()
    if tracer is not None:
        tracer.pass_index = pass_index
        tracer.install()
    if probe is not None:
        first_probe = len(probe.durations)
        probe.start()
    try:
        for k, job in enumerate(jobs):
            if tracer is not None:
                tracer.job_index = k
            job_start = time.perf_counter()
            try:
                out = job.run(scratch)
            except Exception as exc:  # a job that raises is a failed job, the run goes on
                out = workloads.Outcome(False, math.nan, f"{type(exc).__name__}: {exc}")
            job_end = time.perf_counter()
            outcomes.append(
                {
                    "job": job.name,
                    "wall_s": job_end - job_start,
                    "probe_s": probe.probe_time(job_start, job_end) if probe else 0.0,
                    "adj_s": probe.adjusted(job_start, job_end) if probe else math.nan,
                    "ok": out.ok,
                    "error": out.error,
                    "detail": out.detail,
                }
            )
    finally:
        if probe is not None:
            probe.stop()
        if tracer is not None:
            tracer.uninstall()
    result = {"wall_s": time.perf_counter() - start, "traced": tracer is not None, "jobs": outcomes}
    if probe is not None and len(probe.durations) > first_probe:
        result["kernel_s"] = statistics.median(probe.durations[first_probe:])
    return result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scratch", help="directory for outputs and the span file")
    ap.add_argument("--result", help="path of the JSON result")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spawned", type=float, required=True, help="the parent's perf_counter() at spawn")
    args = ap.parse_args()

    jobs = workloads.WORKLOADS[args.workload](args.seed, False)
    ready = time.perf_counter()
    PROBE.stop()
    setup = {"setup_wall_s": ready - args.spawned, "setup_s": PROBE.adjusted(args.spawned, ready)}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    scratch = tempfile.mkdtemp(prefix="passes-", dir=args.scratch)
    passes: list[dict] = []
    try:
        # An untimed tiny pass first, so that lazy imports and first-call
        # set-up inside the program do not land in the first timed pass.
        warmup = run_pass(workloads.WORKLOADS[args.workload](args.seed, True), scratch, None, -1, PROBE)
        start = time.perf_counter()
        while True:
            # trace runs alternate untraced and traced passes, untraced first;
            # the probe runs in untraced passes only, so spans never contain it
            traced = bool(args.trace) and len(passes) % 2 == 1
            if traced:
                passes.append(run_pass(jobs, scratch, tracer, len(passes)))
            else:
                passes.append(run_pass(jobs, scratch, None, len(passes), PROBE))
            elapsed = time.perf_counter() - start
            typical = statistics.median(p["wall_s"] for p in passes)
            if len(passes) >= (2 if args.trace else MIN_PASSES) and elapsed + typical > args.seconds:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    result = {
        **setup,
        "warmup": warmup,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": _versions(),
    }
    if tracer is not None:
        own = tracing.self_times(tracer.spans)
        per_pass = []
        for p, rec in enumerate(passes):
            if rec["traced"]:
                sel = [i for i, s in enumerate(tracer.spans) if s[tracing.PASS] == p]
                per_pass.append(
                    tracing.layer_metrics([tracer.spans[i] for i in sel], [own[i] for i in sel], rec["wall_s"])
                )
        result["layers"] = tracing.median_metrics(per_pass)
        tracer.write_csv(os.path.join(args.scratch, f"spans_{args.workload}.csv"))
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

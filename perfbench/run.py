#!/usr/bin/env python3
"""dqdpulse benchmark: run one workload and print its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload open_table --seed 1 --seconds 30 --trace 0

``--workload all`` runs the three workloads one after another.  Each
workload runs in a fresh single-threaded process (``worker.py``) with
``src`` on ``PYTHONPATH``, the default ``workers=1`` and
``DQDPULSE_WORKERS`` unset, as a closed loop with one client: jobs run one
after another, each starting when the previous one ends.  Outputs go to
temporary directories under ``.perfbench_out/``, which also receives the
full report and, for traced runs, the spans.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
This script uses the standard library only.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("open_table", "bgate_closed", "synthesis")
# Fresh-interpreter set-ups sampled before and after the measuring window; with
# the worker's own they make seven samples spread over the run.
SETUP_PROBES_EACH_SIDE = 3
IMPORTTIME_PROBES = 3
RUN_LIMIT_S = 170.0  # a workload's run must end within 180 s
# The CSVs carry 12 significant digits (%.12g), so agreement beyond 1e-12
# cannot be observed.
DIGITS_CAP = 12.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
THREAD_VARS = (*BLAS_THREAD_VARS, "DQDPULSE_WORKERS")

END_TO_END_UNITS = {"adj_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ref_digits": "digits"}
PER_LAYER_UNITS = {
    "dynamics.lindblad_s": "s",
    "dynamics.lindblad_steps": "count",
    "dynamics.lindblad_us_per_step": "us",
    "dynamics.unitary_s": "s",
    "dynamics.unitary_steps": "count",
    "dynamics.unitary_us_per_step": "us",
    "dynamics.batch_mb_computed": "MB",
    "device.h_eval_s": "s",
    "device.h_samples": "count",
    "pulses.sample_s": "s",
    "pulses.samples": "count",
    "pulses.build_s": "s",
    "pulses.builds": "count",
    "pulses.constraints_s": "s",
    "pulses.constraint_checks": "count",
    "fidelity.avg_s": "s",
    "fidelity.states": "count",
    "fidelity.us_per_state": "us",
    "trajectories.h_s": "s",
    "trajectories.h_calls": "count",
    "trajectories.closed_s": "s",
    "kak.synth_s": "s",
    "kak.targets": "count",
    "kak.restarts": "count",
    "kak.worst_residual": "1",
    "experiments.self_s": "s",
    "experiments.jobs": "count",
    "cli.self_s": "s",
    "cli.write_s": "s",
    "cli.bytes": "bytes",
    "setup.import_s": "s",
    "setup.scipy_import_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "fail_ratio": "ratio",
}


def worker_env(root: str) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("DQDPULSE_WORKERS", "DQDPULSE_OUTDIR")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def worker_cmd(workload: str, seed: int, *extra: str) -> list[str]:
    return [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed), *extra]


def setup_sample(cmd: list[str], env: dict[str, str], timeout: float) -> dict[str, float]:
    """Wall and speed-adjusted seconds from spawning a fresh interpreter to its inputs being built."""
    cmd = [*cmd, "--spawned", repr(time.perf_counter())]
    out = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def import_times(env: dict[str, str], timeout: float) -> tuple[float, float]:
    """(dqdpulse, scipy) cumulative import seconds from ``python -X importtime``.

    The scipy figure sums the outermost scipy imports, the ones that
    dqdpulse modules trigger directly.
    """
    err = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import dqdpulse"],
        env=env, capture_output=True, text=True, timeout=timeout, check=True,
    ).stderr
    entries = []
    for line in err.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            entries.append((int(m.group(1)) / 1e6, len(m.group(2)), m.group(3)))
    total = next(c for c, _, name in entries if name == "dqdpulse")
    scipy = 0.0
    # importtime lists a module after everything it imported, indented deeper
    for i, (cum, depth, name) in enumerate(entries):
        if name.split(".")[0] != "scipy":
            continue
        parent = next((n for _, d, n in entries[i + 1 :] if d < depth), "")
        if parent.split(".")[0] != "scipy":
            scipy += cum
    return total, scipy


def src_lines(root: str) -> dict[str, int]:
    counts = {}
    for path in sorted(glob.glob(os.path.join(root, "src", "dqdpulse", "*.py"))):
        with open(path, "rb") as fh:
            counts[os.path.basename(path)[:-3]] = fh.read().count(b"\n")
    return {"total": sum(counts.values()), **counts}


def src_digest(root: str) -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "dqdpulse", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def git_commit(root: str) -> str | None:
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or None


def environment(root: str, seed: int, versions: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        **versions,
        "threads_env_caller": {k: os.environ.get(k) for k in THREAD_VARS},
        "threads_env_worker": {k: worker_env(root).get(k) for k in THREAD_VARS},
        "git_commit": git_commit(root),
        "src_sha256": src_digest(root),
        "seed": seed,
    }


def digits(error: float) -> float:
    """-log10 of the worst absolute error against the reference, capped at the CSV precision."""
    if error <= 10.0 ** -DIGITS_CAP:
        return DIGITS_CAP
    return max(0.0, -math.log10(error))


def fastest_pass(passes: list[dict], traced: bool = False) -> float:
    """One pass of the jobs, each job at its fastest repetition, probe time excluded."""
    timed = [p["jobs"] for p in passes if p["traced"] == traced]
    return sum(min(jobs[k]["wall_s"] - jobs[k]["probe_s"] for jobs in timed) for k in range(len(timed[0])))


def adjusted_pass(passes: list[dict]) -> float:
    """One pass of the jobs in speed-adjusted seconds, each job at its median over untraced passes.

    On a 2-vCPU virtual machine shared with other tenants the same code runs
    up to 2x slower for seconds to minutes at a time, often for a whole run;
    ``speedprobe.py`` measures that speed inside the worker and rescales it.
    """
    timed = [p["jobs"] for p in passes if not p["traced"]]
    per_job = [statistics.median(jobs[k]["adj_s"] for jobs in timed) for k in range(len(timed[0]))]
    if not all(math.isfinite(t) for t in per_job):
        raise RuntimeError(f"speed-adjusted job times are not finite: {per_job}")
    return sum(per_job)


def end_to_end(passes: list[dict], setup: list[float], peak_rss_mb: float) -> dict[str, float]:
    errors = [j["error"] for p in passes for j in p["jobs"] if not math.isnan(j["error"])]
    return {
        "adj_wall_s": adjusted_pass(passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
        "ref_digits": digits(max(errors, default=math.inf)),
    }


def per_layer(worker: dict, imports: list[tuple[float, float]], attempted: int, failed: int) -> dict[str, float]:
    return {
        **worker["layers"],
        "setup.import_s": statistics.median(t for t, _ in imports),
        "setup.scipy_import_s": statistics.median(s for _, s in imports),
        "trace.overhead_s": fastest_pass(worker["passes"], True) - fastest_pass(worker["passes"]),
        "fail_ratio": failed / attempted,
    }


def run_workload(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    env = worker_env(root)
    subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(root, "src")], env=env, check=True, timeout=120)

    def probe_setup() -> list[dict[str, float]]:
        # traced runs report no setup_s
        cmd = worker_cmd(workload, seed, "--setup-only")
        count = 0 if trace else SETUP_PROBES_EACH_SIDE
        return [setup_sample(cmd, env, deadline - time.monotonic()) for _ in range(count)]

    setup = probe_setup()
    result_path = os.path.join(out_dir, f"worker_{workload}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = worker_cmd(
        workload, seed, "--seconds", str(seconds), "--trace", str(trace),
        "--scratch", out_dir, "--result", result_path,
    )
    subprocess.run([*cmd, "--spawned", repr(time.perf_counter())], env=env, check=True, timeout=deadline - time.monotonic())
    with open(result_path) as fh:
        worker = json.load(fh)
    setup += [{k: worker[k] for k in ("setup_wall_s", "setup_s")}, *probe_setup()]

    jobs = [j for p in (worker["warmup"], *worker["passes"]) for j in p["jobs"]]
    attempted, failed = len(jobs), sum(not j["ok"] for j in jobs)
    if trace:
        imports = [import_times(env, deadline - time.monotonic()) for _ in range(IMPORTTIME_PROBES)]
        metrics, units = per_layer(worker, imports, attempted, failed), PER_LAYER_UNITS
    else:
        metrics, units = end_to_end(worker["passes"], [s["setup_s"] for s in setup], worker["peak_rss_mb"]), END_TO_END_UNITS
    report = {
        "workload": workload,
        "trace": trace,
        "seconds": seconds,
        "environment": environment(root, seed, worker["versions"]),
        "src_lines": src_lines(root),
        "setup_samples_s": setup,
        "warmup": worker["warmup"],
        "passes": worker["passes"],
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    with open(os.path.join(out_dir, f"report_{workload}_trace{trace}.json"), "w") as fh:
        json.dump(report, fh, indent=2)
    return report


def print_report(report: dict) -> None:
    env = report["environment"]
    print(f"== {report['workload']} seed={env['seed']} trace={report['trace']} seconds={report['seconds']}")
    print(
        f"env: nproc={env['nproc']} cpus={env['cpus_allowed']} python={env['python']} numpy={env['numpy']} "
        f"scipy={env['scipy']} blas={env['blas']} commit={env['git_commit']} src={env['src_sha256']}"
    )
    print(f"threads: caller={env['threads_env_caller']} worker={env['threads_env_worker']}")
    lines = report["src_lines"]
    print("src lines: " + ", ".join(f"{k}={v}" for k, v in lines.items()))
    print(
        "setup samples (wall/adjusted s): "
        + ", ".join(f"{s['setup_wall_s']:.3f}/{s['setup_s']:.3f}" for s in report["setup_samples_s"])
    )
    for label, p in [("warm-up", report["warmup"])] + [(f"pass {i}", p) for i, p in enumerate(report["passes"])]:
        bad = [j for j in p["jobs"] if not j["ok"]]
        head = f"{label}{' traced' if p['traced'] else ''}: {p['wall_s']:.3f} s wall"
        if not p["traced"]:
            adj = sum(j["adj_s"] for j in p["jobs"])
            head += f", {adj:.3f} s adjusted (probe kernel {p.get('kernel_s', math.nan) * 1e6:.0f} us)"
        print(f"{head}, {len(p['jobs'])} jobs, {len(bad)} failed")
        for j in bad:
            print(f"  FAILED {j['job']}: {j['detail']}")
    print(f"jobs: attempted={report['attempted']} failed={report['failed']}")
    for name, m in report["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must lie in [1, 60]")

    root = os.getcwd()
    needed = [os.path.join(root, "src", "dqdpulse", "__init__.py")]
    needed += [os.path.join(HERE, "reference", n) for n in ("open_table.json", "bgate_closed.json", "bgate_trajectory.csv")]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        print(f"perfbench: run from the root of a dqdpulse checkout; missing {missing}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    for name in names:
        report = run_workload(root, name, args.seed, args.seconds, args.trace)
        print_report(report)
        reports.append(report)
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in reports for k, v in r["metrics"].items()}
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in reports),
                "attempted": sum(r["attempted"] for r in reports),
                "failed": sum(r["failed"] for r in reports),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark; they are not part of the repository's tier-1 suite.

Run from the repository root (about half a minute on 2 cores):

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import dqdpulse.experiments  # noqa: E402
import run  # noqa: E402
import speedprobe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _traced_pass(name: str, scratch: str) -> tuple[list[workloads.Outcome], dict]:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        outcomes = [job.run(scratch) for job in workloads.WORKLOADS[name](0, True)]
    finally:
        tracer.uninstall()
    wall = max(s[tracing.END] for s in tracer.spans) - min(s[tracing.START] for s in tracer.spans)
    return outcomes, tracing.layer_metrics(tracer.spans, tracing.self_times(tracer.spans), wall)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_at_tiny_size(name, tmp_path):
    outcomes, layers = _traced_pass(name, str(tmp_path))
    assert all(o.ok for o in outcomes), [o.detail for o in outcomes]
    errors = [o.error for o in outcomes if not math.isnan(o.error)]
    assert errors and max(errors) < 1e-4
    busy = {
        "open_table": ("dynamics.lindblad_steps", "fidelity.states", "pulses.builds", "cli.bytes", "experiments.jobs"),
        "bgate_closed": ("dynamics.unitary_steps", "device.h_samples", "pulses.samples", "fidelity.states"),
        "synthesis": ("kak.targets", "trajectories.h_calls", "dynamics.unitary_steps"),
    }[name]
    assert all(layers[k] > 0 for k in busy), {k: layers[k] for k in busy}


def test_uninstall_restores_the_package():
    original = dqdpulse.experiments.gate_channel
    method = dqdpulse.pulses.PulseSchedule.envelope
    tracer = tracing.Tracer()
    tracer.install()
    assert dqdpulse.experiments.gate_channel is not original
    tracer.uninstall()
    assert dqdpulse.experiments.gate_channel is original
    assert dqdpulse.pulses.PulseSchedule.envelope is method


def test_adjusted_time_scales_with_the_probe_kernel():
    ref = speedprobe.REF_KERNEL_S
    for slowdown in (1.0, 2.0):
        probe = speedprobe.SpeedProbe()
        probe.starts = [0.1 * k for k in range(1, 10)]
        probe.ends = [t + 2 * slowdown * ref for t in probe.starts]
        probe.durations = [slowdown * ref] * 9
        busy = 1.0 - 18 * slowdown * ref
        assert probe.probe_time(0.0, 1.0) == pytest.approx(18 * slowdown * ref)
        assert probe.adjusted(0.0, 1.0) == pytest.approx(busy / slowdown)
    assert math.isnan(speedprobe.SpeedProbe().adjusted(0.0, 1.0))


def test_probe_samples_while_started():
    probe = speedprobe.SpeedProbe()
    probe.start()
    try:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            sum(range(1000))
    finally:
        probe.stop()
    assert len(probe.durations) >= 3
    assert signal.getsignal(signal.SIGALRM) in (signal.SIG_DFL, None)
    probe._busy = True  # a tick that arrives while a probe runs is skipped
    probe._handler(signal.SIGALRM, None)
    assert len(probe.durations) == len(probe.starts) == len(probe.ends) >= 3


def _write_table(path, rows, perturb_row=None, delta=0.0):
    with open(path, "w") as fh:
        fh.write("scheme,N,gate_time_ns,fidelity\n")
        for i, r in enumerate(rows):
            fid = r["fidelity"] + (delta if i == perturb_row else 0.0)
            fh.write(f"{r['scheme']},{r['N']},{r['gate_time_ns']:.12g},{fid:.12g}\n")


def test_perturbed_table_fails_and_lowers_digits(tmp_path):
    ref = workloads._load_json("open_table.json")
    path = str(tmp_path / "table1.csv")
    _write_table(path, ref["rows"])
    clean = workloads.check_table(path, ref)
    _write_table(path, ref["rows"], perturb_row=3, delta=2e-6)
    bad = workloads.check_table(path, ref)
    assert clean.ok and not bad.ok
    assert run.digits(bad.error) < 6.0 < run.digits(clean.error)


def test_perturbed_trajectory_fails(tmp_path):
    ref = workloads._load_json("bgate_closed.json")
    trajectory = workloads._read_csv(os.path.join(workloads.REF_DIR, "bgate_trajectory.csv"))
    with open(tmp_path / "fidelity.csv", "w") as fh:
        fh.write(f"scheme,fidelity\nbgate,{ref['fidelity']:.12g}\n")
    header = list(trajectory[0])
    for delta, ok in ((0.0, True), (2e-3, False)):
        with open(tmp_path / "trajectory.csv", "w") as fh:
            fh.write(",".join(header) + "\n")
            for i, row in enumerate(trajectory):
                vals = [float(row[c]) for c in header]
                vals[1] += delta if i == 700 else 0.0
                fh.write(",".join(f"{v:.12g}" for v in vals) + "\n")
        assert workloads.check_bgate(str(tmp_path), ref, trajectory).ok is ok


def _job(wall: float, ok: bool = True, error: float = 1e-9, adj: float = math.nan, probe: float = 0.0) -> dict:
    return {"job": "a", "wall_s": wall, "probe_s": probe, "adj_s": adj, "ok": ok, "error": error, "detail": ""}


def test_failed_job_counts_and_lowers_ref_digits():
    good = {"wall_s": 1.0, "traced": False, "jobs": [_job(1.0, error=1e-10, adj=0.9)]}
    bad = {"wall_s": 1.0, "traced": False, "jobs": [_job(1.0, ok=False, error=1e-5, adj=0.9)]}
    assert run.end_to_end([good], [0.5], 80.0)["ref_digits"] == pytest.approx(10.0)
    assert run.end_to_end([good, bad], [0.5], 80.0)["ref_digits"] == pytest.approx(5.0)


def test_metric_names_and_units_match_benchmark_json():
    bench = _benchmark_json()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_printer_emits_every_metric_with_its_unit(tmp_path, capsys):
    _, layers = _traced_pass("synthesis", str(tmp_path))
    passes = [
        {"wall_s": 2.0, "traced": False, "kernel_s": 8e-4, "jobs": [_job(2.0, adj=1.9, probe=0.04)]},
        {"wall_s": 2.1, "traced": True, "jobs": [_job(2.1)]},
    ]
    worker = {"passes": passes, "layers": layers}
    warmup = {"wall_s": 0.1, "traced": False, "jobs": []}
    for trace, metrics, units in (
        (0, run.end_to_end(passes, [0.8, 0.9], 90.0), run.END_TO_END_UNITS),
        (1, run.per_layer(worker, [(0.8, 0.6)], 2, 0), run.PER_LAYER_UNITS),
    ):
        assert set(metrics) == set(units)
        report = {
            "workload": "synthesis",
            "trace": trace,
            "seconds": 1.0,
            "environment": run.environment(
                ROOT, 0, {"python": "3", "numpy": "2", "scipy": "1", "blas": "x", "dqdpulse_file": "f"}
            ),
            "src_lines": run.src_lines(ROOT),
            "setup_samples_s": [{"setup_wall_s": 0.8, "setup_s": 0.7}],
            "warmup": warmup,
            "passes": passes,
            "attempted": 2,
            "failed": 0,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        }
        run.print_report(report)
        printed = capsys.readouterr().out
        for name, unit in units.items():
            assert f"\n{name} = " in printed and printed.split(f"\n{name} = ")[1].split("\n")[0].endswith(f" {unit}")
        assert "src lines: total=" in printed and "nproc=" in printed


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "synthesis", "--seed", "1", "--seconds", "5", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout

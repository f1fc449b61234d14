import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dqdpulse
import dqdpulse.cli as cli
import dqdpulse.experiments as xp
from dqdpulse.cli import main
from dqdpulse.config import ExperimentConfig
from dqdpulse.device import SCHEMES, frame_hamiltonian
from dqdpulse.dynamics import propagate_unitary
from dqdpulse.experiments import InvariantLog, initial_phase_sweep, parallel_transport_defect, rabi_sweep
from dqdpulse.fidelity import build_grid
from dqdpulse.pulses import fsim_rectangular, polynomial_coefficients


class TestParallelTransportDefect:
    def test_matches_per_sample_loop(self):
        # the one-step gate is far from parallel transport, so the defect is well above rounding
        schedule = fsim_rectangular(math.pi / 4, math.pi / 2, 158e-9)
        n = 200
        h = frame_hamiltonian(schedule, rwa=True)
        times = (np.arange(n) + 0.5) * schedule.duration / n
        res = propagate_unitary(h, schedule.duration, breakpoints=schedule.breakpoints, sample_times=times)
        b = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
        worst = 0.0
        for t, u in zip(times, res.states):
            hc = np.zeros((4, 4), dtype=complex)
            hc[1, 2], hc[2, 1] = h(t)[1, 2], h(t)[2, 1]
            bt = u @ b
            worst = max(worst, abs(np.vdot(bt, hc @ bt)))
        expected = worst * schedule.duration
        assert expected > 1e-3
        assert parallel_transport_defect(schedule, sample_count=n) == pytest.approx(expected, rel=1e-12)


class TestPristineGateLaw:
    """A closed, RWA-frame, error-free fSim gate at its scheme's reference
    time is its target on the default grid, at every (theta, xi, N) the
    config accepts for a one-step scheme (N = 1 for the geometric one).

    The law's domain leaves out the polynomial family's singular
    configurations, where ``polynomial_coefficients`` raises, and
    theta = +-pi/2 for the geometric construction, which divides by cos(theta).
    """

    @pytest.mark.parametrize("scheme", ["fsim_rect", "fsim_poly", "fsim_geometric"])
    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(st.floats(-math.pi / 2.0, math.pi / 2.0), st.floats(-math.pi, math.pi), st.integers(1, 10))
    def test_reaches_its_target(self, scheme, theta, xi, n_reps):
        if scheme == "fsim_geometric":
            n_reps = 1
            assume(abs(math.cos(theta)) >= 1e-12)
        cfg = ExperimentConfig(scheme=scheme, theta=theta, xi=xi, n_reps=n_reps)
        if scheme == "fsim_poly":
            try:
                polynomial_coefficients(theta, xi, n_reps, cfg.eta)
            except ValueError:
                assume(False)
        schedule = xp.build_schedule(scheme, theta, xi, SCHEMES[scheme].reference_time, n_reps, cfg.eta)
        report, _ = xp.gate_report(schedule, build_grid(cfg.grid_n), rwa=True, decoherence=False)
        assert 1.0 - report.fidelity <= 1e-12


class TestInitialPhaseSweep:
    def test_sweep_shape_and_axis(self):
        sweep = initial_phase_sweep("phi3", [0.0, 1.0, 2.0], [1, 2], decoherence=False)
        reports = [rep for _, rep in sweep.run(6)]
        assert len(reports) == 6
        assert reports[0].phases == (0.0, 0.0, 0.0)
        assert reports[1].phases == (0.0, 0.0, 1.0)
        assert [r.n_reps for r in reports] == [1, 1, 1, 2, 2, 2]

    def test_invalid_axis(self):
        with pytest.raises(ValueError, match="axis"):
            initial_phase_sweep("phi9", [0.0], [1])


class TestRabiSweep:
    @pytest.mark.parametrize("name", [n for n, spec in SCHEMES.items() if not spec.one_step])
    def test_rejects_schemes_outside_the_law(self, name):
        with pytest.raises(ValueError, match="one-step"):
            rabi_sweep([0.0], scheme=name)

    def test_cli_sweep_rabi_bgate_exits_nonzero(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(dqdpulse.__file__).parent.parent))
        proc = subprocess.run(
            [sys.executable, "-m", "dqdpulse.cli", "sweep", "rabi", "--scheme", "bgate", "--outdir", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert "one-step" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("dqdpulse: error: ")

    def test_pristine_constraints_logged_once(self):
        log = InvariantLog()
        rows = rabi_sweep([-0.05, 0.0, 0.05]).run(5, log=log)
        assert len(rows) == 3
        names = [c.name for c in log.checks]
        assert names.count("unitarity_defect") == 3
        constraints = [n for n in names if n != "unitarity_defect"]
        assert constraints and sorted(constraints) == sorted(set(constraints))
        assert {"fsim_rect_area", "fsim_rect_cosine_moment"} <= set(constraints)
        assert log.ok


class TestJobRunner:
    """Each run builds each distinct schedule and grid once; jobs carry them to ``run_jobs``."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        build = xp.build_schedule
        monkeypatch.setattr(xp, "build_schedule", lambda *a, **k: calls.append(a[0] if a else k["scheme"]) or build(*a, **k))
        return calls

    # argv (each with --outdir), then the schedules built, grids built and jobs run
    RUNS = {
        "reproduce table1": (["reproduce", "table1"], 20, 1, 20),
        "reproduce fig4d": (["reproduce", "fig4d"], 40, 1, 40),
        "reproduce fig5": (["reproduce", "fig5"], 1 + 3, 1 + 1, 11 + 33),
        "reproduce fig6": (["reproduce", "fig6"], 2, 1, 44),
        "sweep rabi": (["sweep", "rabi"], 1, 1, 11),
        "sweep detuning": (["sweep", "detuning"], 3, 1, 33),
        "sweep phase": (["sweep", "phase"], 3, 5, 15),
        "simulate None": (["simulate", "--no-decoherence"], 1, 1, 1),
    }

    @pytest.fixture
    def counted(self, builds, monkeypatch):
        """(schedules built, grids built, schedules run): each call of
        ``build_schedule``, ``build_grid`` and ``gate_channel``."""
        grids, runs = [], []
        build_grid, gate_channel = xp.build_grid, xp.gate_channel
        for module in (xp, cli):  # simulate builds its grid in the CLI
            monkeypatch.setattr(module, "build_grid", lambda *a: grids.append(a) or build_grid(*a))
        monkeypatch.setattr(xp, "gate_channel", lambda *a, **k: runs.append(a[0]) or gate_channel(*a, **k))
        return builds, grids, runs

    def test_every_propagating_run_is_counted(self):
        propagating = {
            f"{command} {target}"
            for command, runs in cli.RUNS.items()
            for target, (_, body) in runs.items()
            if command == "simulate" or getattr(body, "func", None) is cli._write_sweeps
        }
        assert propagating == set(self.RUNS)

    @pytest.mark.parametrize("run", list(RUNS))
    def test_each_distinct_schedule_and_grid_is_built_once(self, run, counted, tmp_path, monkeypatch):
        monkeypatch.delenv("DQDPULSE_WORKERS", raising=False)
        argv, schedules, grids, jobs = self.RUNS[run]
        assert main([*argv, "--outdir", str(tmp_path)]) == 0
        built, grids_built, runs = counted
        assert (len(built), len(grids_built), len(runs)) == (schedules, grids, jobs)
        assert len({id(s) for s in runs}) == schedules
        assert {args[0] for args in grids_built} == {5}  # no grid given: the smallest exact one

    def test_duplicated_n_keeps_its_rows_and_is_built_once(self, counted, tmp_path, monkeypatch):
        monkeypatch.delenv("DQDPULSE_WORKERS", raising=False)
        argv = ["sweep", "detuning", "--n-values", "1", "1", "--detuning-eps", "0", "0.05"]
        assert main([*argv, "--outdir", str(tmp_path)]) == 0
        built, grids, runs = counted
        assert (len(built), len(grids), len(runs)) == (1, 1, 4)
        rows = (tmp_path / "detuning_sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == 4 and rows[:2] == rows[2:] and rows[0] != rows[1]

    @pytest.mark.parametrize("grid_n", [4, 2, 1, 0])
    def test_inexact_grid_is_rejected_before_any_schedule_is_built(self, grid_n, builds):
        with pytest.raises(ValueError, match="inexact grid_n"):
            xp.table1().run(grid_n)
        assert builds == []

    def test_fig6_builds_and_logs_its_dynamic_schedule_first(self, builds, tmp_path, capsys):
        assert main(["reproduce", "fig6", "--outdir", str(tmp_path)]) == 0
        assert builds == ["fsim_rect", "fsim_geometric"]
        names = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
        legs = [f"[ok] fsim_geometric_leg{k}_area" for k in (1, 2, 3)]
        run = ["[ok] unitarity_defect"] * 22
        assert names == ["[ok] fsim_rect_area", "[ok] fsim_rect_cosine_moment", *run, *legs, *run]

    def test_run_without_workers_ignores_the_worker_variable(self, tmp_path, monkeypatch):
        # sweep rabi does not read workers, so DQDPULSE_WORKERS does not start a pool for it
        monkeypatch.setenv("DQDPULSE_WORKERS", "2")
        monkeypatch.setattr(xp, "ProcessPoolExecutor", None)
        assert main(["sweep", "rabi", "--outdir", str(tmp_path)]) == 0

    @pytest.mark.parametrize("target, grid_n", [("table1", 5), ("fig4d", 5), ("fig5", 40), ("fig6", 40)])
    def test_run_without_grid_n_ignores_the_config_grid(self, target, grid_n, monkeypatch):
        # table1 and fig4d do not read grid_n, so they run on the default grid whatever the config holds
        seen = []
        monkeypatch.setattr(xp.Sweep, "run", lambda sweep, n, *a: seen.append(n) or [])
        _, body = cli.RUNS["reproduce"][target]
        body(ExperimentConfig(grid_n=40), SimpleNamespace(write_csv=lambda *a: None), InvariantLog())
        assert seen and set(seen) == {grid_n}

    def test_simulate_trajectory_builds_its_schedule_once(self, builds, tmp_path):
        argv = ["simulate", "--scheme", "fsim_rect", "--no-decoherence", "--trajectory", "--samples", "5"]
        assert main([*argv, "--outdir", str(tmp_path)]) == 0
        assert builds == ["fsim_rect"]

    def test_jobs_share_one_grid_per_grid_argument(self, monkeypatch):
        grids = []
        run_jobs = xp.run_jobs
        monkeypatch.setattr(xp, "run_jobs", lambda jobs, *a, **k: grids.extend(g for _, g, _ in jobs) or run_jobs(jobs, *a, **k))
        initial_phase_sweep("phi2", [0.0, 1.0], [1, 2], decoherence=False).run(5)
        assert [g.phases for g in grids] == [(0.0, 0.0, 0.0), (0.0, 1.0, 0.0)] * 2
        assert grids[0] is grids[2] and grids[1] is grids[3]

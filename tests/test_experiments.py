import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dqdpulse
from dqdpulse.device import SCHEMES, frame_hamiltonian
from dqdpulse.dynamics import propagate_unitary
from dqdpulse.experiments import InvariantLog, initial_phase_sweep, parallel_transport_defect, rabi_sweep
from dqdpulse.pulses import fsim_rectangular


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


class TestInitialPhaseSweep:
    def test_sweep_shape_and_axis(self):
        reports = initial_phase_sweep(
            "phi3", [0.0, 1.0, 2.0], [1, 2], grid_n=6, decoherence=False, quick=True
        )
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
        rows = rabi_sweep([-0.05, 0.0, 0.05], grid_n=4, log=log)
        assert len(rows) == 3
        names = [c.name for c in log.checks]
        assert names.count("unitarity_defect") == 3
        constraints = [n for n in names if n != "unitarity_defect"]
        assert constraints and sorted(constraints) == sorted(set(constraints))
        assert {"fsim_rect_area", "fsim_rect_cosine_moment"} <= set(constraints)
        assert log.ok

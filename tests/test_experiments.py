import os
import subprocess
import sys
from pathlib import Path

import pytest

import dqdpulse
from dqdpulse.device import SCHEMES
from dqdpulse.experiments import InvariantLog, initial_phase_sweep, rabi_sweep


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

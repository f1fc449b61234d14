import pytest

from dqdpulse.experiments import initial_phase_sweep


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

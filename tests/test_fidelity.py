import math

import numpy as np
import pytest

from dqdpulse.algebra import TWO_PI
from dqdpulse.device import DEFAULT_DEVICE, frame_hamiltonian
from dqdpulse.dynamics import lindblad_superoperator, propagate_unitary
from dqdpulse.fidelity import (
    FidelityReport,
    analytic_rabi_fidelity,
    average_fidelity,
    build_grid,
    report_row,
)
from dqdpulse.pulses import fsim_rectangular
from dqdpulse.trajectories import fsim_matrix

THETA, XI = math.pi / 4, math.pi / 2
T45 = 45e-9


class TestGrid:
    def test_single_point_grid_is_00(self):
        grid = build_grid(1)
        np.testing.assert_allclose(grid.states, [[1.0, 0.0, 0.0, 0.0]], atol=0)

    def test_reference_grid_size(self):
        assert build_grid(40).size == 1600

    def test_states_normalized(self):
        grid = build_grid(17, (0.3, 1.1, 2.0))
        norms = np.linalg.norm(grid.states, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_phi3_moves_only_11_amplitude(self):
        base = build_grid(8)
        phased = build_grid(8, (0.0, 0.0, 1.3))
        np.testing.assert_allclose(base.states[:, :3], phased.states[:, :3], atol=0)
        np.testing.assert_allclose(
            phased.states[:, 3], base.states[:, 3] * np.exp(1.3j), atol=1e-15
        )

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            build_grid(0)


class TestAverageFidelity:
    def test_perfect_gate(self):
        target = fsim_matrix(THETA, XI)
        rep = average_fidelity(target, target, build_grid(12))
        assert rep.fidelity == pytest.approx(1.0, abs=1e-14)

    def test_paper_convention_squares(self):
        rng = np.random.default_rng(0)
        from dqdpulse.algebra import mat_exp_skew

        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u = mat_exp_skew((a + a.conj().T) / 2, 0.3)
        grid = build_grid(10)
        std = average_fidelity(u, fsim_matrix(THETA, XI), grid, "standard")
        pap = average_fidelity(u, fsim_matrix(THETA, XI), grid, "paper")
        np.testing.assert_allclose(pap.per_state, std.per_state**2, atol=1e-15)
        assert pap.fidelity <= std.fidelity

    def test_rejects_non_unitary_target(self):
        with pytest.raises(ValueError, match="unitary"):
            average_fidelity(np.eye(4), np.diag([1.0, 0.5, 1.0, 1.0]), build_grid(4))

    def test_superoperator_channel_matches_unitary_channel(self):
        from dqdpulse.device import DeviceParams

        schedule = fsim_rectangular(THETA, XI, T45, 1)
        h = frame_hamiltonian(schedule, rwa=False)
        u = propagate_unitary(h, T45, breakpoints=schedule.breakpoints, steps_per_period=400).final
        s = lindblad_superoperator(
            h,
            DeviceParams(t2_q1=0.0, t2_q2=0.0),
            T45,
            breakpoints=schedule.breakpoints,
            steps_per_period=400,
        ).final
        grid = build_grid(10)
        target = fsim_matrix(THETA, XI)
        f_u = average_fidelity(u, target, grid).fidelity
        f_s = average_fidelity(s, target, grid).fidelity
        assert f_u == pytest.approx(f_s, abs=1e-7)

    def test_superoperator_overlap_matches_per_state_loop(self):
        schedule = fsim_rectangular(THETA, XI, T45, 1)
        h = frame_hamiltonian(schedule, rwa=False)
        s = lindblad_superoperator(h, DEFAULT_DEVICE, T45, breakpoints=schedule.breakpoints).final
        target = fsim_matrix(THETA, XI)
        grid = build_grid(12, (0.3, 1.1, 2.0))
        expected = []
        for psi in grid.states:
            rho_t = (s @ np.outer(psi, psi.conj()).ravel(order="F")).reshape(4, 4, order="F")
            ideal = target @ psi
            expected.append(np.real(ideal.conj() @ rho_t @ ideal))
        per_state = average_fidelity(s, target, grid).per_state
        assert np.abs(per_state - expected).max() <= 1e-14

    def test_grid_mean_linearity(self):
        # mean over the union of two disjoint grids = weighted mean of means
        u = fsim_matrix(0.3, 0.7)
        target = fsim_matrix(THETA, XI)
        g1 = build_grid(6, (0.0, 0.0, 0.0))
        g2 = build_grid(9, (0.5, 0.0, 0.0))
        f1 = average_fidelity(u, target, g1)
        f2 = average_fidelity(u, target, g2)
        joint = np.concatenate([f1.per_state, f2.per_state])
        expected = (g1.size * f1.fidelity + g2.size * f2.fidelity) / (g1.size + g2.size)
        assert np.mean(joint) == pytest.approx(expected, abs=1e-15)

    def test_report_mean_consistency_enforced(self):
        with pytest.raises(ValueError):
            FidelityReport(fidelity=0.5, per_state=np.array([1.0, 1.0]))


class TestAnalyticRabiLaw:
    def test_zero_error_is_unity(self):
        assert analytic_rabi_fidelity(0.0) == 1.0

    def test_value_at_ten_percent(self):
        # arithmetic evaluation of (25 + 7 cos(pi/20)) / 32
        assert analytic_rabi_fidelity(0.1) == pytest.approx(0.9973068, abs=1e-6)

    def test_edge_of_range_above_99_7(self):
        assert analytic_rabi_fidelity(0.1) > 0.997
        assert analytic_rabi_fidelity(-0.1) > 0.997

    @pytest.mark.parametrize("delta", [0.0, 0.05, 0.1])
    def test_monte_carlo_cross_check(self, delta):
        # 1e5 uniform (Phi1, Phi2) samples of the perturbation-propagator
        # overlap |<psi0| Utilde |psi0>|^2.  The closed-form law corresponds
        # to the rotation factor of the perturbation propagator (its
        # middle-block phase prefactor shifts the mean by ~1e-3 and is
        # covered by the coarser acceptance band, not by this cross-check).
        rng = np.random.default_rng(1234)
        n = 100_000
        p1 = rng.uniform(0.0, TWO_PI, n)
        p2 = rng.uniform(0.0, TWO_PI, n)
        a00 = np.cos(p1) * np.cos(p2)
        a01 = np.cos(p1) * np.sin(p2)
        a10 = np.sin(p1) * np.cos(p2)
        a11 = np.sin(p1) * np.sin(p2)
        rot = delta * THETA
        overlap = (
            a00**2
            + a11**2
            + math.cos(rot) * (a01**2 + a10**2)
            - 1j * math.sin(rot) * (2 * a01 * a10)
        )
        samples = np.abs(overlap) ** 2
        se = samples.std(ddof=1) / math.sqrt(n)
        assert abs(samples.mean() - analytic_rabi_fidelity(delta)) < 3.0 * se + 2e-6


class TestReportCsv:
    def test_round_trip_row(self):
        rep = FidelityReport(
            fidelity=0.5,
            per_state=np.array([0.5]),
            scheme="fsim_rect",
            n_reps=2,
            gate_time=45e-9,
            delta_ez=TWO_PI * 44e6,
        )
        row = report_row(rep)
        assert row[0] == "fsim_rect"
        assert row[2] == pytest.approx(44.0)
        assert row[3] == pytest.approx(45.0)

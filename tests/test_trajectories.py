import math
from dataclasses import replace

import numpy as np
import pytest

from dqdpulse.algebra import TWO_PI, phase_aligned_distance, unitarity_defect
from dqdpulse.kak import b_factor
from dqdpulse.trajectories import (
    AzimuthTrajectory,
    TimeFunction,
    const,
    coupling_amplitudes,
    fsim_matrix,
    linear,
    parameterized_hamiltonian,
    parameterized_propagator,
    solve_bgate_controls,
    solve_fsim_controls,
)

T = 1.0


def trig_fn(rng, amplitude=0.6, zero_at_origin=False):
    """Random band-limited TimeFunction with analytic derivative."""
    a = rng.normal(0.0, amplitude, 3)
    b = rng.normal(0.0, amplitude, 3)
    w = rng.uniform(0.4, 2.0, 3)
    off = -sum(bi for bi in b) if zero_at_origin else 0.0

    def val(t):
        return off + sum(ai * math.sin(wi * t) + bi * math.cos(wi * t) for ai, bi, wi in zip(a, b, w))

    def der(t):
        return sum(ai * wi * math.cos(wi * t) - bi * wi * math.sin(wi * t) for ai, bi, wi in zip(a, b, w))

    return TimeFunction(val, der)


def random_trajectory(seed):
    rng = np.random.default_rng(seed)
    return AzimuthTrajectory(
        gamma1=trig_fn(rng, zero_at_origin=True),
        theta1=trig_fn(rng),
        phi1=trig_fn(rng),
        gamma2=trig_fn(rng, zero_at_origin=True),
        theta2=trig_fn(rng),
        phi2=trig_fn(rng),
        vphi2=trig_fn(rng),
        vphi3=trig_fn(rng),
        vphi4=trig_fn(rng),
    )


def crossing_fn(rng):
    """Random TimeFunction that passes through pi/2 at t = 1/2."""
    wobble = trig_fn(rng, amplitude=0.1)
    rate = rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 2.0)
    offset = math.pi / 2.0 - wobble(0.5)
    return TimeFunction(lambda t: offset + rate * (t - 0.5) + wobble(t), lambda t: rate + wobble.derivative(t))


def fsim_trajectory(theta, xi, duration=T):
    """Azimuths and level phases realizing fSim(theta, xi) at t = duration.

    With the opposed-gamma lock the isoclinic product rotates the middle
    block by gamma1 - gamma2 = 2 gamma1, so the gate angle theta needs
    gamma1(T) = theta/2 (consistent with the envelope area 2 theta).
    """
    rate = theta / (2.0 * duration)
    return AzimuthTrajectory(
        gamma1=linear(rate),
        theta1=const(math.pi / 2.0),
        phi1=const(math.pi / 2.0),
        gamma2=linear(-rate),
        theta2=const(math.pi / 2.0),
        phi2=const(math.pi / 2.0),
        vphi2=const(math.pi / 4.0),
        vphi3=const(-math.pi / 4.0),
        vphi4=linear(xi / duration),
    )


def b1_trajectory(gamma, duration=T):
    """Azimuths and level phases realizing B1(gamma) at t = duration."""
    s = -gamma / math.pi  # sin(theta1)
    theta1 = math.asin(s)
    return AzimuthTrajectory(
        gamma1=linear(math.pi / duration),
        theta1=const(theta1),
        phi1=const(math.pi / 2.0),
        gamma2=linear(-s * math.pi / duration),
        theta2=const(math.pi / 2.0),
        phi2=const(math.pi / 2.0),
        vphi2=const(math.pi / 2.0),
        vphi3=const(0.0),
        vphi4=const(math.pi / 2.0),
    )


class TestPropagator:
    def test_identity_at_zero(self):
        traj = random_trajectory(0)
        np.testing.assert_allclose(parameterized_propagator(traj, 0.0), np.eye(4), atol=1e-12)

    def test_unitary_along_path(self):
        traj = random_trajectory(1)
        for t in np.linspace(0.0, T, 7):
            assert unitarity_defect(parameterized_propagator(traj, t)) < 1e-12

    def test_rejects_nonzero_initial_gamma(self):
        traj = random_trajectory(2)
        bad = AzimuthTrajectory(
            gamma1=const(0.3),
            theta1=traj.theta1,
            phi1=traj.phi1,
            gamma2=traj.gamma2,
            theta2=traj.theta2,
            phi2=traj.phi2,
        )
        with pytest.raises(ValueError, match="gamma"):
            parameterized_propagator(bad, 0.5)

    def test_fsim_azimuths_reproduce_gate(self):
        # symbolic-substitution oracle: the constrained azimuth family at
        # t = T must equal the fSim matrix entry for entry
        for theta, xi in [(math.pi / 4, math.pi / 2), (0.3, -1.1), (-0.7, 2.0)]:
            u = parameterized_propagator(fsim_trajectory(theta, xi), T)
            np.testing.assert_allclose(u, fsim_matrix(theta, xi), atol=1e-12)

    def test_b1_azimuths_reproduce_gate(self):
        for gamma in (math.pi / 4, math.pi / 8, 0.4):
            u = parameterized_propagator(b1_trajectory(gamma), T)
            np.testing.assert_allclose(u, b_factor("B1", gamma), atol=1e-12)


class TestHamiltonian:
    def test_static_trajectory_gives_zero(self):
        traj = AzimuthTrajectory(
            gamma1=const(0.0), theta1=const(1.0), phi1=const(0.4),
            gamma2=const(0.0), theta2=const(0.7), phi2=const(2.0),
        )
        np.testing.assert_allclose(parameterized_hamiltonian(traj, 0.3), np.zeros((4, 4)), atol=0)

    def test_symmetry_constrained_structure(self):
        # with phi1 = theta2 = pi/2 fixed and the gamma-rate lock, the
        # couplings collapse to the exchange-symmetric pattern
        rng = np.random.default_rng(9)
        theta1 = rng.uniform(0.2, 1.2)
        phi2 = rng.uniform(0.4, 2.0)
        rate = 0.8

        traj = AzimuthTrajectory(
            gamma1=linear(rate),
            theta1=const(theta1),
            phi1=const(math.pi / 2.0),
            gamma2=linear(-rate * math.sin(theta1) / math.sin(phi2)),
            theta2=const(math.pi / 2.0),
            phi2=const(phi2),
        )
        for t in (0.1, 0.6):
            om = coupling_amplitudes(traj, t)
            assert om["o14"] == pytest.approx(0.0, abs=1e-12)
            assert om["o12"] == pytest.approx(om["o34"], abs=1e-12)
            assert om["o13"] == pytest.approx(om["o24"], abs=1e-12)
            h = parameterized_hamiltonian(traj, t)
            assert abs(h[0, 3]) < 1e-12

    def test_generator_matches_finite_difference(self):
        # Schroedinger-equation oracle: H = i dU/dt U^dag by central differences
        eps = 1e-6
        for seed in range(5):
            traj = random_trajectory(seed + 20)
            for t in np.random.default_rng(seed).uniform(0.05, 0.95, 4):
                du = (
                    parameterized_propagator(traj, t + eps)
                    - parameterized_propagator(traj, t - eps)
                ) / (2 * eps)
                h_fd = 1j * du @ parameterized_propagator(traj, t).conj().T
                h = parameterized_hamiltonian(traj, t)
                assert np.abs(h - h_fd).max() < 1e-6

    def test_amplitudes_are_rotation_generator(self):
        # the angular-velocity amplitudes against dU_r/dt U_r^T of the isoclinic
        # matrix product, by a fourth-order central difference, where gamma
        # crosses pi/2 and the sin^2 gamma cross term is largest
        h = 5e-4
        pairs = {"o12": (0, 1), "o13": (0, 2), "o14": (0, 3), "o23": (1, 2), "o24": (1, 3), "o34": (2, 3)}
        for seed in range(5):
            rng = np.random.default_rng(seed + 40)
            traj = replace(random_trajectory(seed + 40), gamma1=crossing_fn(rng), gamma2=crossing_fn(rng))
            assert traj.gamma1(0.5) == pytest.approx(math.pi / 2) and traj.gamma2(0.5) == pytest.approx(math.pi / 2)
            for t in np.linspace(0.3, 0.7, 9):
                r = traj.rotation
                du = (r(t - 2 * h) - 8 * r(t - h) + 8 * r(t + h) - r(t + 2 * h)) / (12 * h)
                omega = du @ r(t).T
                om = coupling_amplitudes(traj, t)
                assert max(abs(om[key] - omega[i, j]) for key, (i, j) in pairs.items()) < 1e-9

    def test_time_function_derivative_consistency(self):
        rng = np.random.default_rng(31)
        fn = trig_fn(rng)
        eps = 1e-7
        for t in rng.uniform(0.0, 1.0, 100):
            fd = (fn.value(t + eps) - fn.value(t - eps)) / (2 * eps)
            assert fd == pytest.approx(fn.derivative(t), abs=1e-6)


class TestFsimControls:
    def test_frame_frequencies(self):
        # E_z = xi/(2T) and delta_Ez = 2 N pi / T as solved from the phase
        # constraints
        c = solve_fsim_controls(math.pi / 4, math.pi / 2, 45e-9, 1)
        assert c.e_z == pytest.approx((math.pi / 2) / (2 * 45e-9))
        assert c.e_z / TWO_PI == pytest.approx(2.78e6, rel=1e-2)
        assert c.delta_ez / TWO_PI == pytest.approx(22.2e6, rel=1e-2)

    def test_zero_xi_zero_ez(self):
        assert solve_fsim_controls(0.4, 0.0, 1e-8).e_z == 0.0

    def test_constraint_records(self):
        c = solve_fsim_controls(0.5, 1.0, 1.0, 2)
        by_label = {k.label: k for k in c.constraints}
        assert by_label["area"].target == 1.0
        assert by_label["cosine_moment"].target == -0.5
        assert by_label["cosine_moment"].omega == pytest.approx(4 * math.pi)

    def test_shifted_completion_convention(self):
        c = solve_fsim_controls(0.3, 1.0, 1.0, 1, shifted=True)
        assert c.theta_shifted
        assert c.e_z == pytest.approx(0.5 + math.pi)
        target = c.effective_target()
        np.testing.assert_allclose(target, fsim_matrix(0.3 + math.pi, 1.0), atol=1e-15)

    def test_rejects_bad_duration(self):
        with pytest.raises(ValueError):
            solve_fsim_controls(0.1, 0.1, -1.0)


class TestBgateControls:
    def test_area_constraint(self):
        c = solve_bgate_controls("B1", math.pi / 4, 1.0, 1.0, 2.0)
        assert c.constraints[0].target == pytest.approx(-math.pi)

    def test_drive_amplitude_value(self):
        # B_y^1 = j cot(arcsin(-Gamma/pi)) / 4 with j = -4 Gamma / T
        c = solve_bgate_controls("B1", math.pi / 4, 1.0, 1.0, 2.0)
        cot = math.sqrt(1 - 0.25**2) / (-0.25)
        assert c.drive_amp == pytest.approx(-math.pi * cot / 4.0)
        assert c.drive_phase == pytest.approx(math.pi / 2)
        assert solve_bgate_controls("B2", math.pi / 8, 1.0, 1.0, 2.0).drive_phase == 0.0

    def test_frame_frequencies(self):
        c = solve_bgate_controls("B1", 0.5, 1.0, 3.0, 5.0)
        assert c.e_z == pytest.approx(4.0)
        assert c.delta_ez == pytest.approx(2.0)

    def test_pole_at_zero_gamma(self):
        with pytest.raises(ValueError, match="pole"):
            solve_bgate_controls("B1", 0.0, 1.0, 1.0, 2.0)
        # at fixed envelope level the cot(arcsin) factor diverges on approach
        small = solve_bgate_controls("B1", 1e-4, 1.0, 1.0, 2.0, j_level=1.0)
        tiny = solve_bgate_controls("B1", 1e-6, 1.0, 1.0, 2.0, j_level=1.0)
        assert abs(tiny.drive_amp) > 50 * abs(small.drive_amp)

    def test_arcsin_domain(self):
        with pytest.raises(ValueError, match="arcsin"):
            solve_bgate_controls("B2", 3.2, 1.0, 1.0, 2.0)

    def test_constant_segment_integral(self):
        # j = -3 pi / (2T) over the final third integrates to -pi/2 = -4 Gamma2
        duration = 1.0
        j = -3 * math.pi / (2 * duration)
        integral = j * (duration / 3.0)
        assert integral == pytest.approx(-4 * (math.pi / 8))


class TestFsimCompleteness:
    def test_nine_by_nine_grid(self):
        # propagating the solved controls (RWA frame) realizes fSim(theta, xi),
        # and the shifted-E_z completion realizes fSim(theta + pi, xi)
        from dqdpulse.device import frame_hamiltonian
        from dqdpulse.dynamics import propagate_unitary
        from dqdpulse.pulses import fsim_rectangular

        duration = 45e-9
        worst = 0.0
        for theta in np.linspace(-math.pi / 2, math.pi / 2, 9):
            for xi in np.linspace(-math.pi, math.pi, 9):
                for shifted in (False, True):
                    sched = fsim_rectangular(theta, xi, duration, 1, shifted=shifted)
                    res = propagate_unitary(
                        frame_hamiltonian(sched, rwa=True),
                        duration,
                        breakpoints=sched.breakpoints,
                        steps_per_period=2000,
                    )
                    target = sched.controls.effective_target()
                    worst = max(worst, phase_aligned_distance(res.final, target))
        assert worst < 1e-5

    def test_phase_bookkeeping(self):
        # the boundary phase identities of the solved controls hold mod 2pi:
        # E_z T + int j cos = 0 and 2 E_z T = xi (n_i = 0 branch)
        from dqdpulse.pulses import fsim_rectangular, fsim_polynomial

        for theta, xi in [(0.6, 1.9), (-0.4, -2.4), (math.pi / 4, math.pi / 2)]:
            for build in (fsim_rectangular, fsim_polynomial):
                if build is fsim_polynomial and theta == 0.0:
                    continue
                sched = build(theta, xi, 1.0, 2)
                e_z = sched.controls.e_z
                w = sched.controls.delta_ez
                cos_moment = sched.integrate_envelope(w)
                phi2_diff = e_z * sched.duration + cos_moment
                phi4_diff = 2.0 * e_z * sched.duration
                assert math.remainder(phi2_diff, TWO_PI) == pytest.approx(0.0, abs=1e-8)
                assert math.remainder(phi4_diff - xi, TWO_PI) == pytest.approx(0.0, abs=1e-8)

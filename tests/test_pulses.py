import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqdpulse.algebra import TWO_PI
from dqdpulse.cli import RunWriter
from dqdpulse.config import ExperimentConfig
from dqdpulse.device import DEFAULT_DEVICE, SCHEMES
from dqdpulse.experiments import POLY_GATE_TIME, build_schedule, sensitivity_vs_eta
from dqdpulse.pulses import (
    GEOMETRIC_MIN_COS,
    Polynomial,
    PulseSchedule,
    Segment,
    apply_detuning_error,
    apply_rabi_error,
    bgate_rectangular,
    detuning_perturbation,
    error_sensitivity,
    fsim_geometric,
    fsim_polynomial,
    fsim_rectangular,
    optimize_eta,
    SCHEDULE_CSV_HEADER,
    polynomial_coefficients,
    schedule_rows,
)

THETA, XI = math.pi / 4, math.pi / 2
T45 = 45e-9
T50 = 50e-9

# regression value computed from the closed-form coefficient solution
BETA_REF = -1.1277812864287293


class TestRectangular:
    def test_level_values(self):
        # (8 theta -/+ xi pi)/(4T) evaluated at the reference gate parameters
        s = fsim_rectangular(THETA, XI, T45, 1)
        assert s.meta["j_lo"] * T45 == pytest.approx(0.33707, abs=1e-4)
        assert s.meta["j_hi"] * T45 == pytest.approx(2.80450, abs=1e-4)

    def test_zero_parameters_zero_pulse(self):
        s = fsim_rectangular(0.0, 0.0, T45, 1)
        ts = np.linspace(0, T45, 64)
        assert np.abs(s.envelope(ts)).max() == 0.0

    def test_gate_time_from_exchange_cap(self):
        # reference gate time: T ~ 45 ns at J_max / 2pi = 19.7 MHz
        t_gate = SCHEMES["fsim_rect"].exchange_capped_time(THETA, XI, DEFAULT_DEVICE.j_max)
        assert t_gate == pytest.approx(45e-9, rel=0.02)

    def test_defining_integrals(self):
        for n in (1, 2, 3):
            s = fsim_rectangular(THETA, XI, T45, n)
            residuals = s.check_constraints()
            assert max(residuals.values()) < 1e-10

    def test_repetition_law(self):
        s1 = fsim_rectangular(THETA, XI, T45, 1)
        s3 = fsim_rectangular(THETA, XI, T45, 3)
        ts = np.linspace(1e-12, T45 - 1e-12, 301)
        folded = (3 * ts) % T45
        np.testing.assert_allclose(s3.envelope(ts), s1.envelope(folded), rtol=1e-12)

    def test_carrier_frequency(self):
        s = fsim_rectangular(THETA, XI, T45, 4)
        assert s.controls.delta_ez == pytest.approx(8 * math.pi / T45)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            fsim_rectangular(2.0, 0.0, T45, 1)


class TestPolynomial:
    def test_beta_regression(self):
        _, beta = polynomial_coefficients(THETA, XI, 1, -1.0 / 3.0)
        assert beta == pytest.approx(BETA_REF, abs=1e-12)

    def test_boundary_values_analytic(self):
        s = fsim_polynomial(THETA, XI, T50, 1)
        eps = 1e-4 * T50  # large enough that fp cancellation near T stays subdominant
        ends = s.envelope(np.array([0.0, T50]))
        # zero analytically; fp cancellation leaves ~1e-15 of the peak level
        assert np.abs(ends).max() < 1e-12 * s.max_envelope()
        # first-order terms vanish at both ends: the secant slope j(d)/d is
        # pure curvature, so it halves when d halves
        for t_edge, sign in ((0.0, 1.0), (T50, -1.0)):
            s1 = s.envelope(np.array([t_edge + sign * eps]))[0] / eps
            s2 = s.envelope(np.array([t_edge + sign * eps / 2]))[0] / (eps / 2)
            assert s2 / s1 == pytest.approx(0.5, rel=1e-3)

    def test_defining_integrals(self):
        for n in (1, 2, 5):
            s = fsim_polynomial(THETA, XI, T50, n)
            assert max(s.check_constraints().values()) < 1e-8

    def test_single_pulse_variant_integrals(self):
        s = fsim_polynomial(THETA, XI, T50, 3, repeat=False)
        assert max(s.check_constraints().values()) < 1e-8
        # the single-pulse family needs a much larger amplitude, which is
        # why the schedule defaults to compressed repetition
        s_rep = fsim_polynomial(THETA, XI, T50, 3)
        assert s.max_envelope() > 3 * s_rep.max_envelope()

    def test_gate_time_from_exchange_cap(self):
        t_gate = SCHEMES["fsim_poly"].exchange_capped_time(THETA, XI, DEFAULT_DEVICE.j_max)
        assert t_gate == pytest.approx(50e-9, rel=0.03)

    @pytest.mark.parametrize("eta", [0.2, 0.7])
    def test_exchange_capped_gate_peaks_at_the_cap(self, eta):
        # the peak of the degree-6 envelope falls between any samples; the
        # exchange cap sets max |J| = 2 max |j| = j_max, to rounding
        optimize = pytest.importorskip("scipy.optimize")
        seg = build_schedule("fsim_poly", eta=eta).segments[0]
        ts = np.linspace(seg.t_start, seg.t_end, 2001)
        i = int(np.argmax(np.abs(seg.envelope(ts))))
        found = optimize.minimize_scalar(
            lambda t: -abs(seg.envelope(np.array([t]))[0]), bounds=(ts[i - 1], ts[i + 1]), method="bounded",
            options={"xatol": 1e-9 * (ts[1] - ts[0])},
        )
        assert abs(-found.fun - DEFAULT_DEVICE.j_max / 2) <= 1e-13 * DEFAULT_DEVICE.j_max / 2

    def test_max_envelope_is_each_segments_exact_peak(self):
        # against the roots of the derivative that numpy's own polynomial finds
        for s in (fsim_polynomial(THETA, XI, T50, 3, 0.2), fsim_polynomial(THETA, XI, T50, 1, 0.7, repeat=False)):
            peaks = []
            for seg in s.segments:
                env = seg.envelope
                p = np.polynomial.Polynomial(env.coefficients)
                a, b = (seg.t_start - env.origin) / env.scale, (seg.t_end - env.origin) / env.scale
                xs = np.concatenate([[a, b], [r.real for r in p.deriv().roots() if a < r.real < b]])
                peaks.append(np.abs(env.gain * p(xs)).max())
            assert s.max_envelope() == pytest.approx(max(peaks), rel=1e-14)

    def test_singular_configuration_reported(self):
        # the beta denominator has a root in eta for these gate parameters
        from scipy.optimize import brentq

        def den(eta):
            m = math.pi
            return 18900 * eta - (6300 + 12600 * eta) * m**2 + (60 * eta + 35) * m**6 * 2.0

        eta_star = brentq(den, -1.0, 1.0)
        with pytest.raises(ValueError, match="singular"):
            fsim_polynomial(THETA, XI, T50, 1, eta_star)

    def test_theta_zero_rejected(self):
        with pytest.raises(ValueError):
            fsim_polynomial(0.0, XI, T50, 1)

    @pytest.mark.parametrize("theta", [5e-324, 2.2e-311, -1e-306])
    def test_overflowing_xi_over_theta_is_singular(self, theta):
        # the theta -> 0 limit, where xi/theta overflows the beta denominator
        with pytest.raises(ValueError, match="singular"):
            polynomial_coefficients(theta, 1.0, 1, -1.0 / 3.0)


class TestBgate:
    def test_segment_areas(self):
        s = bgate_rectangular(76e-9, DEFAULT_DEVICE.e_z, DEFAULT_DEVICE.delta_ez)
        res = s.check_constraints()
        assert res["b1_area"] < 1e-12
        assert res["b2_area"] < 1e-12

    def test_single_drive_switch(self):
        s = bgate_rectangular(76e-9, DEFAULT_DEVICE.e_z, DEFAULT_DEVICE.delta_ez)
        assert len(s.segments) == 2
        assert s.segments[0].t_end == pytest.approx(2 * 76e-9 / 3)
        assert s.segments[0].drive_phase == pytest.approx(math.pi / 2)
        assert s.segments[1].drive_phase == 0.0
        # exchange envelope does not switch
        ts = np.linspace(1e-12, 76e-9 - 1e-12, 50)
        assert np.ptp(s.envelope(ts)) == 0.0

    def test_gate_time_from_exchange_cap(self):
        # max |J| = 3 pi / T = J_max gives the reference T ~ 76 ns
        t_gate = SCHEMES["bgate"].exchange_capped_time(THETA, XI, DEFAULT_DEVICE.j_max)
        assert t_gate == pytest.approx(76e-9, rel=0.02)

    def test_drive_amplitudes(self):
        duration = 76e-9
        s = bgate_rectangular(duration, DEFAULT_DEVICE.e_z, DEFAULT_DEVICE.delta_ez)
        cot1 = math.sqrt(1 - 0.25**2) / (-0.25)
        cot2 = math.sqrt(1 - 0.125**2) / (-0.125)
        assert s.segments[0].drive_amp == pytest.approx(-3 * math.pi * cot1 / (8 * duration))
        assert s.segments[1].drive_amp == pytest.approx(-3 * math.pi * cot2 / (8 * duration))

    def test_drive_carrier(self):
        s = bgate_rectangular(76e-9, DEFAULT_DEVICE.e_z, DEFAULT_DEVICE.delta_ez)
        assert s.segments[0].drive_omega == pytest.approx(
            DEFAULT_DEVICE.e_z + DEFAULT_DEVICE.delta_ez / 2
        )


class TestGeometric:
    def test_segment_amplitudes_and_phases(self):
        T = 158e-9
        s = fsim_geometric(THETA, XI, T)
        j_plus = (4 * math.pi * math.cos(THETA) + math.pi * XI) / (2 * T * math.cos(THETA))
        j_minus = (4 * math.pi * math.cos(THETA) - math.pi * XI) / (2 * T * math.cos(THETA))
        levels = [float(seg.envelope(np.array([seg.t_start + 1e-12]))[0]) for seg in s.segments]
        assert levels == pytest.approx([2 * math.pi / T, j_plus, j_minus, 2 * math.pi / T])
        phases = [seg.carrier_phase for seg in s.segments]
        assert phases == pytest.approx(
            [math.pi / 2, THETA - math.pi / 2, THETA - math.pi / 2, math.pi / 2]
        )

    def test_carrier_and_ez(self):
        T = 158e-9
        s = fsim_geometric(THETA, XI, T)
        assert s.controls.delta_ez == pytest.approx(4 * math.pi / T)
        assert s.controls.delta_ez / TWO_PI == pytest.approx(12.66e6, rel=1e-2)
        assert s.controls.e_z == pytest.approx(XI / (2 * T))

    def test_gate_time_from_exchange_cap(self):
        t_gate = SCHEMES["fsim_geometric"].exchange_capped_time(THETA, XI, DEFAULT_DEVICE.j_max)
        assert t_gate == pytest.approx(158e-9, rel=0.02)

    def test_leg_areas(self):
        # envelope areas (pi/2, pi, pi/2) over the three carrier-phase legs
        s = fsim_geometric(THETA, XI, 158e-9)
        assert max(s.check_constraints().values()) < 1e-10

    def test_exchange_integral_is_minus_xi(self):
        for theta, xi in [(THETA, XI), (0.4, -1.3), (-0.6, 2.2)]:
            s = fsim_geometric(theta, xi, 158e-9)
            assert s.integrate_exchange() == pytest.approx(-xi, abs=1e-10)

    def test_zero_xi_equal_middle(self):
        s = fsim_geometric(THETA, 0.0, 1.0)
        mid = [float(seg.envelope(np.array([seg.t_start]))[0]) for seg in s.segments[1:3]]
        assert mid[0] == pytest.approx(2 * math.pi)
        assert mid[1] == pytest.approx(2 * math.pi)

    def test_first_leg_area_value(self):
        s = fsim_geometric(THETA, XI, 1.0)
        assert s.integrate_envelope(t_end=0.25) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_rejects_theta_pi_half(self):
        with pytest.raises(ValueError, match="cos"):
            fsim_geometric(math.pi / 2, XI, 1.0)

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_rejects_the_band_near_pi_half(self, sign):
        for c in (1e-11, 1e-6, 1e-5, 0.999 * GEOMETRIC_MIN_COS):
            with pytest.raises(ValueError, match=r"\|cos\(theta\)\| < 0.002"):
                fsim_geometric(sign * math.acos(c), XI, 158e-9)

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_accepts_the_edge_of_the_band(self, sign):
        s = fsim_geometric(sign * math.acos(1.001 * GEOMETRIC_MIN_COS), XI, 158e-9)
        assert max(s.check_constraints().values()) < 1e-10


def scipy_error_sensitivity(schedule):
    """q_s on the node grid of ``error_sensitivity``, with theta from numpy's
    antiderivative of each segment's polynomial and scipy's Simpson rule."""
    from scipy.integrate import simpson

    w = schedule.controls.delta_ez
    total, theta_acc = 0.0j, 0.0
    periods = max(1.0, w * schedule.duration / TWO_PI)
    n = int(512 * max(1.0, periods / len(schedule.segments)))
    n += n % 2
    for seg in schedule.segments:
        env = seg.envelope
        area = np.polynomial.Polynomial(env.coefficients).integ()
        ts = np.linspace(seg.t_start, seg.t_end, n + 1)
        x = (ts - env.origin) / env.scale
        theta = theta_acc + env.gain * env.scale * (area(x) - area(x[0]))
        f = np.exp(-2j * theta) * seg.envelope(ts) * np.sin(2.0 * w * ts) * 0.5j
        total += simpson(f, x=ts)
        theta_acc = float(theta[-1])
    return abs(total) ** 2


class TestErrorSensitivity:
    def test_sensitivity_rows_match_scipy_quadrature(self):
        etas = np.linspace(-1.0, 1.0, 41)
        for n_reps in (1, 3):
            rows = sensitivity_vs_eta(etas, n_reps=n_reps)
            assert len(rows) >= 40
            for row in rows:
                sched = fsim_polynomial(THETA, XI, POLY_GATE_TIME, n_reps, row["eta"])
                ref = scipy_error_sensitivity(sched)
                assert abs(row["q_s"] - ref) <= 1e-12 * ref

    def test_zero_envelope_zero_sensitivity(self):
        s = fsim_rectangular(0.0, 0.0, T45, 1)
        assert error_sensitivity(s) == 0.0

    def test_quadrature_convergence(self):
        s = fsim_polynomial(THETA, XI, T50, 1)
        q1 = error_sensitivity(s)
        q2 = error_sensitivity(s, oversample=2)
        assert abs(q1 - q2) < 1e-8

    def test_optimum_near_reference(self):
        # coarse grid bracket around the known optimum
        eta_star, _ = optimize_eta(THETA, XI, T50, 1, np.linspace(-0.6, 0.0, 31))
        assert eta_star == pytest.approx(-1.0 / 3.0, abs=0.02)

    def test_singleton_grid(self):
        eta_star, qs = optimize_eta(THETA, XI, T50, 1, [-1.0 / 3.0])
        assert eta_star == -1.0 / 3.0
        assert qs.shape == (1,)

    def test_tie_breaks_toward_smaller_magnitude(self, monkeypatch):
        import dqdpulse.pulses as pulses_mod

        monkeypatch.setattr(pulses_mod, "error_sensitivity", lambda sched, *a, **k: 1.0)
        eta_star, _ = optimize_eta(THETA, XI, T50, 1, [-0.8, 0.3, 0.9])
        assert eta_star == 0.3

    def test_argmin_invariant_under_rescaling(self):
        _, qs = optimize_eta(THETA, XI, T50, 1, np.linspace(-0.5, -0.2, 16))
        assert np.argmin(qs) == np.argmin(10.0 * qs)


class TestErrorInjection:
    def test_rabi_zero_is_identity(self):
        s = fsim_rectangular(THETA, XI, T45, 1)
        assert apply_rabi_error(s, 0.0) is s

    def test_rabi_scales_envelope_only(self):
        s = bgate_rectangular(76e-9, DEFAULT_DEVICE.e_z, DEFAULT_DEVICE.delta_ez)
        scaled = apply_rabi_error(s, 0.1)
        ts = np.linspace(1e-12, 76e-9 - 1e-12, 17)
        np.testing.assert_allclose(scaled.envelope(ts), 1.1 * s.envelope(ts), rtol=1e-14)
        assert scaled.segments[0].drive_amp == s.segments[0].drive_amp
        assert scaled.rabi_delta == pytest.approx(0.1)

    def test_rabi_keeps_constant_levels(self):
        # the frame reads a constant envelope's level, so scaling must keep it one
        s = fsim_rectangular(THETA, XI, T45, 2)
        scaled = apply_rabi_error(s, -0.05)
        assert [seg.level for seg in scaled.segments] == [0.95 * seg.level for seg in s.segments]
        assert fsim_polynomial(THETA, XI, T50, 1).segments[0].level is None

    def test_rabi_warns_beyond_range(self):
        s = fsim_rectangular(THETA, XI, T45, 1)
        with pytest.warns(UserWarning, match="Rabi"):
            apply_rabi_error(s, 0.2)

    def test_detuning_keeps_designed_controls(self):
        s = fsim_rectangular(THETA, XI, T45, 1)
        detuned = apply_detuning_error(s, 0.05)
        assert detuned.detuning_eps == pytest.approx(0.05)
        ts = np.linspace(1e-12, T45 - 1e-12, 9)
        np.testing.assert_allclose(detuned.envelope(ts), s.envelope(ts), rtol=0)
        assert detuned.controls.delta_ez == s.controls.delta_ez

    def test_detuning_perturbation_matrix(self):
        m = detuning_perturbation(2.0, 0.8, 0.05)
        np.testing.assert_allclose(m, 0.05 * np.diag([2.0, -0.4, 0.4, -2.0]), atol=0)

    def test_detuning_warns_beyond_range(self):
        s = fsim_rectangular(THETA, XI, T45, 1)
        with pytest.warns(UserWarning, match="detuning"):
            apply_detuning_error(s, -0.3)


class TestScheduleStructure:
    def test_segments_must_tile(self):
        seg = Segment(0.0, 0.5, Polynomial((0.0,), 0.0), 1.0)
        good = fsim_rectangular(THETA, XI, T45, 1)
        with pytest.raises(ValueError, match="segments"):
            PulseSchedule((seg,), 1.0, "fsim_rect", good.controls)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 6), st.floats(0.1, 1.5), st.floats(-math.pi, math.pi))
    def test_constraints_hold_across_family(self, n, theta, xi):
        s = fsim_rectangular(theta, xi, T45, n)
        assert max(s.check_constraints().values()) < 1e-8

    def test_csv_export(self, tmp_path):
        s = bgate_rectangular(76e-9, DEFAULT_DEVICE.e_z, DEFAULT_DEVICE.delta_ez)
        writer = RunWriter(str(tmp_path), ExperimentConfig())
        path = writer.write_csv("schedule.csv", SCHEDULE_CSV_HEADER, schedule_rows(s, samples=11))
        lines = open(path).read().strip().splitlines()
        assert lines[0] == "t_ns,j_over_2pi_MHz,J_over_2pi_MHz,psi_rad,By_over_2pi_MHz"
        assert len(lines) == 12
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == 0.0
        # j level in MHz: -3 pi / (2T) / 2pi
        assert first[1] == pytest.approx(-3 * math.pi / (2 * 76e-9) / TWO_PI / 1e6)


class TestExchangeCap:
    """The exchange cap bounds the envelope amplitude 2 max|j|, an upper
    bound on max|J(t)| that only some schemes reach."""

    @staticmethod
    def ratios(scheme, n_reps):
        """max|J| / (2 max|j|) at T = 60 ns on a 9 x 9 grid of |theta| <= pi/2,
        |xi| <= pi, without singular family members and gates that need no exchange."""
        out = []
        for theta in np.linspace(-math.pi / 2, math.pi / 2, 9):
            for xi in np.linspace(-math.pi, math.pi, 9):
                try:
                    s = build_schedule(scheme, theta, xi, duration=60e-9, n_reps=n_reps)
                except ValueError:
                    continue
                if s.max_envelope() > 0.0:
                    out.append(s.max_exchange() / (2.0 * s.max_envelope()))
        return np.array(out)

    @pytest.mark.parametrize("n_reps", [1, 3])
    @pytest.mark.parametrize("scheme", list(SCHEMES))
    def test_max_exchange_is_at_most_the_envelope_amplitude(self, scheme, n_reps):
        ratios = self.ratios(scheme, n_reps)
        assert len(ratios) >= 60 and ratios.max() <= 1.0 + 1e-12
        if scheme in ("fsim_rect", "fsim_geometric", "bgate"):
            np.testing.assert_allclose(ratios, 1.0, rtol=1e-12, atol=0.0)

    def test_polynomial_envelope_amplitude_overstates_its_exchange(self):
        # theta = -pi/2, xi = 0 reaches only half of the amplitude the cap bounds
        ratios = self.ratios("fsim_poly", 1)
        assert ratios.min() < 0.5


def _with_last_segment(schedule, **fields):
    segments = (*schedule.segments[:-1], replace(schedule.segments[-1], **fields))
    return replace(schedule, segments=segments)


def _with_gain_scaled(env, factor):
    return replace(env, gain=factor * env.gain)


def _with_origin_shifted(env, shift):
    return replace(env, origin=env.origin + shift)


def _with_carriers_scaled(schedule, factor):
    segments = tuple(replace(seg, carrier_omega=factor * seg.carrier_omega) for seg in schedule.segments)
    return replace(schedule, segments=segments)


class TestRepetitions:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_repeated_fsim_schemes_count_their_repetitions(self, n):
        assert fsim_rectangular(THETA, XI, T45, n).repetitions == n
        assert fsim_polynomial(THETA, XI, T50, n).repetitions == n
        assert fsim_polynomial(THETA, XI, T50, n, repeat=False).repetitions == 1

    def test_other_schemes_do_not_repeat(self):
        assert fsim_geometric(THETA, XI, 158e-9).repetitions == 1
        assert bgate_rectangular(76e-9, DEFAULT_DEVICE.e_z, DEFAULT_DEVICE.delta_ez).repetitions == 1

    def test_errors_keep_the_count(self):
        s = fsim_polynomial(THETA, XI, T50, 3)
        assert apply_rabi_error(s, 0.05).repetitions == 3
        assert apply_detuning_error(s, 0.05).repetitions == 3

    def test_error_helpers_do_not_resample_envelopes(self, monkeypatch):
        # the layout is checked once, when the schedule is built
        calls = []
        call = Polynomial.__call__
        monkeypatch.setattr(Polynomial, "__call__", lambda env, ts: calls.append(len(ts)) or call(env, ts))

        s = fsim_polynomial(THETA, XI, T50, 3)
        s.envelope(np.linspace(0.0, T50, 5))
        assert calls
        calls.clear()
        perturbed = apply_detuning_error(apply_rabi_error(s, 0.05), 0.02)
        assert calls == []
        assert (perturbed.repetitions, perturbed.rabi_delta, perturbed.detuning_eps) == (3, 0.05, 0.02)
        assert (s.rabi_delta, s.detuning_eps) == (0.0, 0.0)
        ts = np.linspace(0.0, T50, 7)
        np.testing.assert_allclose(perturbed.envelope(ts), 1.05 * s.envelope(ts), rtol=1e-15)

    def test_mismatched_count_raises_at_construction(self):
        s = fsim_rectangular(THETA, XI, T45, 2)
        with pytest.raises(ValueError, match="split"):
            PulseSchedule(s.segments, s.duration, s.scheme, s.controls, repetitions=4)
        with pytest.raises(ValueError, match="start and end"):
            PulseSchedule(s.segments, s.duration, s.scheme, s.controls, repetitions=3)

    @pytest.mark.parametrize(
        "contradict, match",
        [
            (lambda s: replace(s, repetitions=0), "repetitions"),
            (lambda s: replace(s, repetitions=4), "split"),  # 6 segments
            (lambda s: replace(s, repetitions=3), "start and end"),  # segments of T/8, T/4, T/8
            (lambda s: _with_last_segment(s, carrier_phase=0.1), "carrier or drive"),
            (lambda s: _with_last_segment(s, drive_amp=1e6), "carrier or drive"),
            (lambda s: _with_last_segment(s, envelope=_with_gain_scaled(s.segments[-1].envelope, 1.01)), "envelope"),
            (lambda s: _with_last_segment(s, envelope=_with_origin_shifted(s.segments[-1].envelope, 1e-11)), "envelope"),
            (lambda s: _with_carriers_scaled(s, 1.5), "whole number"),
        ],
        ids=["zero", "segment-count", "boundaries", "carrier-phase", "drive", "envelope", "envelope-origin", "carrier-turns"],
    )
    def test_contradicted_count_rejected(self, contradict, match):
        with pytest.raises(ValueError, match=match):
            contradict(fsim_rectangular(THETA, XI, T45, 2))


def closure_envelope(alpha_hat, beta, eta, t0, rep, duration):
    """The degree-6 envelope as the closure it was before envelopes became
    coefficient data: the bit-for-bit oracle of ``Polynomial``."""

    def env(ts):
        x = (np.asarray(ts, dtype=float) - t0) / rep
        return (alpha_hat / duration) * (
            (1.0 + 2.0 * beta + 3.0 * eta * beta) * x**2
            - (3.0 * beta + 4.0 * eta * beta + 2.0) * x**3
            + x**4
            + beta * x**5
            + eta * beta * x**6
        )

    return env


def quadrature(schedule, weight, lo, hi):
    """Integral of j(t) weight(t) over [lo, hi] by a 64-node Gauss-Legendre
    rule on each segment's piece, from sampled envelope values."""
    x, w = np.polynomial.legendre.leggauss(64)
    total = 0.0j
    for seg in schedule.segments:
        a, b = max(lo, seg.t_start), min(hi, seg.t_end)
        if b > a:
            ts = 0.5 * (b - a) * x + 0.5 * (b + a)
            total += 0.5 * (b - a) * np.dot(w, seg.envelope(ts) * weight(ts))
    return total


CLOSED_FORM_CASES = {
    **{name: partial(build_schedule, name) for name in SCHEMES},
    "fsim_rect-N3": partial(fsim_rectangular, THETA, XI, T45, 3),
    "fsim_poly-N3": partial(fsim_polynomial, THETA, XI, T50, 3),
    "fsim_poly-eta0.2-N2": partial(fsim_polynomial, 0.6, -1.1, T50, 2, 0.2),
    "fsim_poly-single-N3": partial(fsim_polynomial, THETA, XI, T50, 3, repeat=False),
    "fsim_poly-single-eta0.7-N2": partial(fsim_polynomial, THETA, XI, T50, 2, 0.7, repeat=False),
    "fsim_poly-rabi": lambda: apply_rabi_error(fsim_polynomial(THETA, XI, T50, 2), 0.07),
    "bgate-rabi": lambda: apply_rabi_error(build_schedule("bgate"), -0.05),
}


class TestClosedForms:
    """Envelope integrals from coefficients, against quadrature of sampled values."""

    @pytest.mark.parametrize("case", CLOSED_FORM_CASES)
    @pytest.mark.parametrize(
        "multiple", [0.0, 1e-3, 0.3, 1.0, 1.37], ids=["omega0", "omega-tiny", "omega-small", "carrier", "off-carrier"]
    )
    @pytest.mark.parametrize("window", [(0.0, 1.0), (0.13, 0.71), (0.02, 0.05)], ids=["whole", "across", "inside"])
    def test_integrals_match_quadrature(self, case, multiple, window):
        s = CLOSED_FORM_CASES[case]()
        omega = multiple * s.controls.delta_ez
        lo, hi = (f * s.duration for f in window)
        weight = lambda ts: np.exp(1j * omega * ts)
        # relative to max|j| (hi - lo), which bounds every such integral
        tol = 1e-12 * s.max_envelope() * (hi - lo)
        assert abs(s.integrate_envelope(omega, lo, hi) - quadrature(s, weight, lo, hi).real) <= tol
        for seg in s.segments:
            a, b = max(lo, seg.t_start), min(hi, seg.t_end)
            if b > a:
                assert abs(seg.envelope.integral(omega, a, b) - quadrature(s, weight, a, b)) <= tol

    @pytest.mark.parametrize("case", CLOSED_FORM_CASES)
    def test_constraints_and_exchange_match_quadrature(self, case):
        s = CLOSED_FORM_CASES[case]()
        residuals = s.check_constraints()
        assert list(residuals) == [c.label for c in s.controls.constraints]
        for c in s.controls.constraints:
            value = quadrature(s, lambda ts: np.cos(c.omega * ts), c.t_start, s.duration if c.t_end is None else c.t_end)
            assert residuals[c.label] == pytest.approx(abs(value.real - c.target), rel=0, abs=1e-12 * abs(c.target))
        exchange = sum(
            (2.0 * np.exp(1j * seg.carrier_phase) * quadrature(s, lambda ts: np.exp(1j * seg.carrier_omega * ts), seg.t_start, seg.t_end)).real
            for seg in s.segments
        )
        assert s.integrate_exchange() == pytest.approx(exchange, rel=1e-12, abs=1e-12 * s.max_envelope() * s.duration)

    @pytest.mark.parametrize("multiple", [0.0, 1.0, 3.0], ids=["omega0", "carrier", "3x-carrier"])
    def test_short_windows_keep_full_precision(self, multiple):
        # 1e-4 T windows across a degree-6 envelope, against a 40-node
        # Gauss-Legendre rule, which is exact to rounding on so short a window
        s = fsim_polynomial(THETA, XI, T50, 2)
        omega = multiple * s.controls.delta_ez
        x, w = np.polynomial.legendre.leggauss(40)
        for f in np.linspace(0.0, 1.0 - 1e-4, 37):
            lo, hi = f * T50, (f + 1e-4) * T50
            for seg in s.segments:
                a, b = max(lo, seg.t_start), min(hi, seg.t_end)
                if b > a:
                    ts = 0.5 * (b - a) * x + 0.5 * (b + a)
                    ref = 0.5 * (b - a) * np.dot(w, seg.envelope(ts) * np.exp(1j * omega * ts))
                    assert abs(seg.envelope.integral(omega, a, b) - ref) <= 1e-14 * s.max_envelope() * (b - a)

    @pytest.mark.parametrize("eta", [-1.0 / 3.0, 0.2, 0.7])
    @pytest.mark.parametrize("n, repeat", [(1, True), (3, True), (3, False)])
    def test_polynomial_evaluation_is_the_closure_bit_for_bit(self, eta, n, repeat):
        s = fsim_polynomial(THETA, XI, T50, n, eta, repeat=repeat)
        rep = T50 / n if repeat else T50
        for k, seg in enumerate(s.segments):
            old = closure_envelope(s.meta["alpha_hat"], s.meta["beta"], eta, k * rep, rep, T50)
            ts = np.concatenate([np.linspace(seg.t_start, seg.t_end, 257), [k * rep, seg.t_end + 1e-9]])
            # equal bits, down to the sign of zero
            assert np.array_equal(seg.envelope(ts).view(np.int64), old(ts).view(np.int64))

    @pytest.mark.parametrize("name", ["fsim_rect", "fsim_geometric", "bgate"])
    def test_constant_evaluation_is_the_level(self, name):
        for seg in build_schedule(name, n_reps=2 if name == "fsim_rect" else 1).segments:
            ts = np.linspace(seg.t_start, seg.t_end, 9)
            assert np.array_equal(seg.envelope(ts), np.full_like(ts, seg.level))
            assert seg.envelope.coefficients == (seg.level,)

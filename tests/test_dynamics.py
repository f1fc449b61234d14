import math
from functools import partial

import numpy as np
import pytest

from dqdpulse import dynamics
from dqdpulse.algebra import mat_exp_skew, phase_aligned_distance
from dqdpulse.device import DEFAULT_DEVICE, SCHEMES, DeviceParams, TimeDependentHamiltonian, frame_hamiltonian
from dqdpulse.dynamics import (
    COLLAPSE_Q1,
    COLLAPSE_Q2,
    STEPS_PER_PERIOD,
    apply_superoperator,
    dephasing_dissipator,
    lindblad_superoperator,
    propagate_lindblad,
    propagate_unitary,
    required_steps,
)
from dqdpulse.experiments import build_schedule, gate_channel
from dqdpulse.pulses import apply_detuning_error, apply_rabi_error, fsim_rectangular
from dqdpulse.trajectories import fsim_matrix

THETA, XI = math.pi / 4, math.pi / 2
T45 = 45e-9

NO_DECOHERENCE = DeviceParams(t2_q1=0.0, t2_q2=0.0)  # kappa = 0 sentinel


def random_hermitian(rng, scale=1.0):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return scale * (a + a.conj().T) / 2.0


def random_density_matrix(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def rk4_loop_superoperator(h, params, duration, steps, breakpoints):
    """Reference: classical RK4 on the 16x16 superoperator, one step at a time.

    Each sub-interval between breakpoints gets its share of the steps, and
    its last end stage samples H just inside the interval (left limit).
    """
    diss = dephasing_dissipator(params)

    def liouvillian(t):
        ht = h(t)
        return 1j * (np.kron(ht.T, np.eye(4)) - np.kron(np.eye(4), ht)) + diss

    pts = [0.0, *sorted(p for p in breakpoints if 0.0 < p < duration), duration]
    s = np.eye(16, dtype=complex)
    for lo, hi in zip(pts[:-1], pts[1:]):
        nodes = np.linspace(lo, hi, max(1, round(steps * (hi - lo) / duration)) + 1)
        for t0, t1 in zip(nodes[:-1], nodes[1:]):
            dt = t1 - t0
            l0, lm = liouvillian(t0), liouvillian(t0 + dt / 2.0)
            l1 = liouvillian(t1 - 1e-9 * dt if t1 == hi else t1)
            k1 = l0 @ s
            k2 = lm @ (s + 0.5 * dt * k1)
            k3 = lm @ (s + 0.5 * dt * k2)
            k4 = l1 @ (s + dt * k3)
            s = s + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return s


def sampled(h):
    """``h`` without its Fourier terms, so the propagator takes the midpoint rule."""
    return TimeDependentHamiltonian(single=h, batch=h.matrices, max_frequency_hz=h.max_frequency_hz)


def eigh_loop_propagator(h, duration, steps, breakpoints):
    """Reference: midpoint steps exponentiated one at a time by eigh.

    Each sub-interval between breakpoints gets its share of the steps.
    """
    pts = [0.0, *sorted(p for p in breakpoints if 0.0 < p < duration), duration]
    u = np.eye(4, dtype=complex)
    for lo, hi in zip(pts[:-1], pts[1:]):
        nodes = np.linspace(lo, hi, max(1, round(steps * (hi - lo) / duration)) + 1)
        for t0, t1 in zip(nodes[:-1], nodes[1:]):
            u = mat_exp_skew(h(t0 + (t1 - t0) / 2.0), t1 - t0) @ u
    return u


class TestUnitaryPropagation:
    def test_constant_hamiltonian_matches_exact(self):
        rng = np.random.default_rng(0)
        h = random_hermitian(rng)
        res = propagate_unitary(lambda t: h, 1.7, steps=64)
        np.testing.assert_allclose(res.final, mat_exp_skew(h, 1.7), atol=1e-12)

    def test_second_order_self_convergence(self):
        rng = np.random.default_rng(1)
        h1, h2 = random_hermitian(rng), random_hermitian(rng, 2.0)
        hamiltonian = lambda t: h1 + math.sin(3.0 * t) * h2
        ref = propagate_unitary(hamiltonian, 1.0, steps=8192).final
        errs = [
            np.linalg.norm(propagate_unitary(hamiltonian, 1.0, steps=n).final - ref)
            for n in (64, 128, 256)
        ]
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.25)

    def test_step_floor_rejection(self):
        schedule = fsim_rectangular(THETA, XI, T45, 3)
        h = frame_hamiltonian(schedule, rwa=False)
        floor = required_steps(h.max_frequency_hz, T45)
        with pytest.raises(ValueError, match=str(floor)):
            propagate_unitary(h, T45, steps=floor // 2)

    def test_unitarity_invariant(self):
        schedule = fsim_rectangular(THETA, XI, T45, 2)
        h = frame_hamiltonian(schedule, rwa=False)
        res = propagate_unitary(h, T45, breakpoints=schedule.breakpoints)
        assert res.unitarity_defect < 1e-9

    def test_sampled_trajectory(self):
        rng = np.random.default_rng(2)
        h = random_hermitian(rng)
        times = np.array([0.0, 0.25, 0.5, 1.0])
        res = propagate_unitary(lambda t: h, 1.0, steps=128, sample_times=times)
        assert res.states.shape == (4, 4, 4)
        np.testing.assert_allclose(res.states[0], np.eye(4), atol=1e-14)
        np.testing.assert_allclose(res.states[3], res.final, atol=1e-14)
        np.testing.assert_allclose(res.states[2], mat_exp_skew(h, 0.5), atol=1e-10)

    def test_fsim_rect_matches_eigh_loop(self):
        # the gate at the midpoint rule's budget; its steps sit near
        # ||H dt||_1 = 1e-5.  Without its terms, H is sampled at midpoints.
        schedule = fsim_rectangular(THETA, XI, T45, 1)
        h = sampled(frame_hamiltonian(schedule, rwa=False))
        res = propagate_unitary(h, T45, breakpoints=schedule.breakpoints, steps_per_period=200)
        assert (res.steps, res.rule) == (400, "midpoint")
        ref = eigh_loop_propagator(h, T45, res.steps, schedule.breakpoints)
        assert np.abs(res.final - ref).max() <= 1e-12


class TestSampleTimeSnapping:
    SAMPLES = 2001

    def grid(self, schedule):
        h = frame_hamiltonian(schedule, rwa=False)
        steps = required_steps(h.max_frequency_hz, schedule.duration, 200)
        times = np.linspace(0.0, schedule.duration, self.SAMPLES)
        nodes, _, marks = dynamics._step_grid(schedule.duration, steps, schedule.breakpoints, times)
        return nodes, marks, schedule.duration / steps

    @pytest.mark.parametrize("scheme", ["fsim_rect", "fsim_poly"])
    def test_no_degenerate_steps(self, scheme, monkeypatch):
        schedule = build_schedule(scheme, duration=SCHEMES[scheme].reference_time)
        nodes, marks, nominal = self.grid(schedule)
        assert np.diff(nodes).min() >= 1e-6 * nominal
        assert marks[0] == 0 and marks[-1] == nodes.size - 1
        monkeypatch.setattr(dynamics, "_SNAP", 0.0)
        unsnapped, _, _ = self.grid(schedule)
        assert (np.diff(unsnapped) < 1e-6 * nominal).sum() > 0

    @pytest.mark.parametrize("scheme", ["fsim_rect", "fsim_poly"])
    def test_samples_match_unsnapped_run(self, scheme, monkeypatch):
        schedule = build_schedule(scheme, duration=SCHEMES[scheme].reference_time)
        h = frame_hamiltonian(schedule, rwa=False)
        times = np.linspace(0.0, schedule.duration, self.SAMPLES)
        kwargs = dict(breakpoints=schedule.breakpoints, sample_times=times, steps_per_period=200)
        res = propagate_unitary(h, schedule.duration, **kwargs)
        monkeypatch.setattr(dynamics, "_SNAP", 0.0)
        ref = propagate_unitary(h, schedule.duration, **kwargs)
        assert res.steps < ref.steps
        np.testing.assert_array_equal(res.times, times)
        assert np.abs(res.states - ref.states).max() <= 1e-12
        assert np.abs(res.final - ref.final).max() <= 1e-12

    def test_bgate_step_count_unchanged(self, monkeypatch):
        schedule = build_schedule("bgate")
        nodes, _, nominal = self.grid(schedule)
        assert nodes.size - 1 == 633_885
        assert np.diff(nodes).min() >= 1e-6 * nominal
        monkeypatch.setattr(dynamics, "_SNAP", 0.0)
        np.testing.assert_array_equal(self.grid(schedule)[0], nodes)


class TestLindblad:
    def test_closed_system_limit(self):
        # with both rates zero the master equation reduces to the
        # Schroedinger conjugation; the exact gate for this schedule is
        # known in closed form, so RK4 can be checked against it directly
        schedule = fsim_rectangular(THETA, XI, T45, 1)
        h = frame_hamiltonian(schedule, rwa=True)
        rho0 = np.zeros((4, 4), dtype=complex)
        rho0[1, 1] = 1.0
        res_open = propagate_lindblad(
            h, NO_DECOHERENCE, rho0, T45, steps=4000, breakpoints=schedule.breakpoints
        )
        gate = fsim_matrix(THETA, XI)
        expected = gate @ rho0 @ gate.conj().T
        assert np.abs(res_open.final - expected).max() < 1e-9

    def test_projector_dephasing_closed_form(self):
        # H = 0, qubit 1 in a superposition: the printed master equation gives
        # d rho_01 / dt = -kappa_1 rho_01, i.e. coherence decay exp(-t / T2_1)
        params = DEFAULT_DEVICE
        psi = np.kron(np.array([1.0, 1.0]) / math.sqrt(2.0), np.array([1.0, 0.0]))
        rho0 = np.outer(psi, psi)
        t = 30e-6
        res = propagate_lindblad(lambda tt: np.zeros((4, 4)), params, rho0, t, steps=2000)
        expected = 0.5 * math.exp(-t / params.t2_q1)
        assert res.final[0, 2].real == pytest.approx(expected, rel=1e-6)
        # populations untouched by pure dephasing
        np.testing.assert_allclose(np.diag(res.final).real, np.diag(rho0).real, atol=1e-10)

    def test_trace_preserved_for_random_states(self):
        rng = np.random.default_rng(5)
        schedule = fsim_rectangular(THETA, XI, T45, 1)
        h = frame_hamiltonian(schedule, rwa=False)
        res = lindblad_superoperator(h, DEFAULT_DEVICE, T45, breakpoints=schedule.breakpoints)
        for _ in range(10):
            rho_t = apply_superoperator(res.final, random_density_matrix(rng))
            assert abs(np.trace(rho_t) - 1.0) < 1e-8

    def test_positivity_floor(self):
        rng = np.random.default_rng(6)
        schedule = fsim_rectangular(THETA, XI, T45, 2)
        h = frame_hamiltonian(schedule, rwa=False)
        for _ in range(5):
            res = propagate_lindblad(
                h, DEFAULT_DEVICE, random_density_matrix(rng), T45,
                breakpoints=schedule.breakpoints,
            )
            assert res.min_eigenvalue > -1e-9

    def test_dissipator_is_diagonal_dephasing_rates(self):
        # rho_ab decays at kappa_1 where the qubit-1 indices of a and b differ
        # and at kappa_2 where the qubit-2 indices differ
        k1, k2 = DEFAULT_DEVICE.kappa_1, DEFAULT_DEVICE.kappa_2
        rates = np.array([[-k1 * (a // 2 != b // 2) - k2 * (a % 2 != b % 2) for b in range(4)] for a in range(4)])
        d = dephasing_dissipator(DEFAULT_DEVICE)
        np.testing.assert_array_equal(d, np.diag(rates.ravel(order="F")))
        # the Lindblad form kappa (s rho s^dag - {s^dag s, rho}/2), term by term
        lindblad = np.zeros((16, 16), dtype=complex)
        for ops, kappa in ((COLLAPSE_Q1, k1), (COLLAPSE_Q2, k2)):
            for op in ops:
                sds = op.conj().T @ op
                lindblad += kappa * (
                    np.kron(op.conj(), op) - 0.5 * np.kron(np.eye(4), sds) - 0.5 * np.kron(sds.T, np.eye(4))
                )
        assert np.abs(d - lindblad).max() <= 1e-15 * (k1 + k2)

    def test_matches_scalar_rk4_loop(self):
        schedule = fsim_rectangular(THETA, XI, T45, 1)
        h = frame_hamiltonian(schedule, rwa=False)
        res = lindblad_superoperator(
            h, DEFAULT_DEVICE, T45, breakpoints=schedule.breakpoints, steps_per_period=200
        )
        assert res.steps == 400
        ref = rk4_loop_superoperator(h, DEFAULT_DEVICE, T45, res.steps, schedule.breakpoints)
        assert np.abs(res.final - ref).max() <= 1e-12

    def test_samples_include_both_ends(self):
        # constant H, no dephasing: every snapshot is the exact conjugation
        rng = np.random.default_rng(7)
        h, rho0 = random_hermitian(rng), random_density_matrix(rng)
        times = [0.0, 0.5, 1.0]
        res = propagate_lindblad(lambda t: h, NO_DECOHERENCE, rho0, 1.0, steps=1000, sample_times=times)
        assert res.states.shape == (3, 4, 4)
        np.testing.assert_allclose(res.states[0], rho0, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(res.states[-1], res.final)
        for t, rho in zip(times, res.states):
            u = mat_exp_skew(h, t)
            assert np.abs(rho - u @ rho0 @ u.conj().T).max() < 1e-9

    def test_rejects_invalid_initial_state(self):
        with pytest.raises(ValueError, match="density"):
            propagate_lindblad(lambda t: np.zeros((4, 4)), DEFAULT_DEVICE, np.eye(4), 1e-9, steps=16)

    def test_collapse_operators_are_projectors(self):
        for op in (*COLLAPSE_Q1, *COLLAPSE_Q2):
            np.testing.assert_allclose(op @ op, op, atol=0)
            np.testing.assert_allclose(op, op.conj().T, atol=0)


class TestChunkedDriver:
    # three steps per chunk, so chunk edges fall between and on sample times
    @staticmethod
    def three_step_chunks(monkeypatch, dim):
        monkeypatch.setattr(dynamics, "CHUNK_BYTES", 3 * 16 * dim * dim)

    @pytest.mark.parametrize("rule", ["magnus_filon", "midpoint"])
    def test_unitary_chunks_match_default(self, rule, monkeypatch):
        schedule = fsim_rectangular(THETA, XI, T45, 2)
        h = frame_hamiltonian(schedule, rwa=False)
        if rule == "midpoint":
            h = sampled(h)
        times = np.concatenate([[0.0, T45], schedule.breakpoints, np.linspace(0.013, 0.97, 23) * T45])
        kwargs = dict(breakpoints=schedule.breakpoints, sample_times=times)
        ref = propagate_unitary(h, T45, **kwargs)
        self.three_step_chunks(monkeypatch, 4)
        res = propagate_unitary(h, T45, **kwargs)
        assert res.rule == ref.rule == rule
        assert res.steps == ref.steps and res.states.shape == (times.size, 4, 4)
        assert np.abs(res.final - ref.final).max() <= 1e-13
        assert np.abs(res.states - ref.states).max() <= 1e-13

    def test_lindblad_chunks_match_default(self, monkeypatch):
        schedule = fsim_rectangular(THETA, XI, T45, 1)
        h = frame_hamiltonian(schedule, rwa=False)
        times = np.concatenate([schedule.breakpoints, np.linspace(0.0, 1.0, 9) * T45])
        kwargs = dict(breakpoints=schedule.breakpoints, sample_times=times)
        ref = lindblad_superoperator(h, DEFAULT_DEVICE, T45, **kwargs)
        self.three_step_chunks(monkeypatch, 16)
        res = lindblad_superoperator(h, DEFAULT_DEVICE, T45, **kwargs)
        assert res.steps == ref.steps and res.states.shape == (times.size, 16, 16)
        assert np.abs(res.final - ref.final).max() <= 1e-13
        assert np.abs(res.states - ref.states).max() <= 1e-13

    def test_rejects_sample_times_outside_the_gate(self):
        with pytest.raises(ValueError, match="sample times"):
            propagate_unitary(lambda t: np.eye(4), 1.0, steps=16, sample_times=[0.5, 1.5])


class TestRabiErrorCommutation:
    @pytest.mark.parametrize("delta", [0.02, -0.02, 0.05, -0.05, 0.1, -0.1])
    def test_perturbed_gate_factors(self, delta):
        # the amplitude perturbation commutes with the unperturbed generator,
        # so U = U0 * exp(-i [Delta (Xi/2) I_mid + Delta theta X_mid])
        schedule = fsim_rectangular(THETA, XI, T45, 1)
        h0 = frame_hamiltonian(schedule, rwa=True)
        u0 = propagate_unitary(h0, T45, steps=20000, breakpoints=schedule.breakpoints).final
        perturbed = apply_rabi_error(schedule, delta)
        h = frame_hamiltonian(perturbed, rwa=True)
        u = propagate_unitary(h, T45, steps=20000, breakpoints=schedule.breakpoints).final

        u_tilde = np.eye(4, dtype=complex)
        block = math.cos(delta * THETA) * np.eye(2) - 1j * math.sin(delta * THETA) * np.array(
            [[0.0, 1.0], [1.0, 0.0]]
        )
        u_tilde[1:3, 1:3] = np.exp(-1j * delta * XI / 2.0) * block
        assert phase_aligned_distance(u, u0 @ u_tilde) < 1e-6


class TestStepFloor:
    def test_steps_per_period_below_floor_rejected(self):
        schedule = fsim_rectangular(THETA, XI, T45, 1)
        h = frame_hamiltonian(schedule, rwa=False)
        with pytest.raises(ValueError, match=f"below the floor {STEPS_PER_PERIOD}"):
            propagate_unitary(h, T45, breakpoints=schedule.breakpoints, steps_per_period=20)

    def test_required_steps_scaling(self):
        assert required_steps(1e8, 1e-7) == 50 * 10
        assert required_steps(0.0, 1.0) == 16


# the fidelity table's schemes and gate times, N = 1..10
TABLE_CELLS = [(scheme, n) for scheme in ("fsim_rect", "fsim_poly") for n in range(1, 11)]


class TestRepetitionPower:
    @staticmethod
    def table_schedule(scheme, n):
        return build_schedule(scheme, duration=SCHEMES[scheme].reference_time, n_reps=n)

    @pytest.mark.parametrize("rwa", [False, True])
    @pytest.mark.parametrize("scheme, n", TABLE_CELLS)
    def test_budget_of_one_repetition_is_an_nth_of_the_whole(self, scheme, n, rwa):
        # spp f_max T/N is a whole number that lands a rounding error above it
        # for some cells; the budget must not gain a step there
        schedule = self.table_schedule(scheme, n)
        fmax = frame_hamiltonian(schedule, rwa).max_frequency_hz
        whole = round(200 * fmax * schedule.duration)
        assert required_steps(fmax, schedule.period, 200) * n == required_steps(fmax, schedule.duration, 200) == whole

    @pytest.mark.parametrize("error", ["none", "rabi", "detuning"])
    @pytest.mark.parametrize("rwa", [False, True])
    @pytest.mark.parametrize("scheme", ["fsim_rect", "fsim_poly"])
    def test_power_matches_full_grid(self, scheme, rwa, error):
        for n in range(2, 11):
            schedule = self.table_schedule(scheme, n)
            if error == "rabi":
                schedule = apply_rabi_error(schedule, 0.05)
            elif error == "detuning":
                schedule = apply_detuning_error(schedule, -0.05)
            assert schedule.repetitions == n
            h = frame_hamiltonian(schedule, rwa)
            kwargs = dict(breakpoints=schedule.breakpoints, steps_per_period=100)
            for run in (
                partial(propagate_unitary, h, schedule.duration, **kwargs),
                partial(lindblad_superoperator, h, DEFAULT_DEVICE, schedule.duration, **kwargs),
            ):
                full, power = run(), run(repetitions=n)
                assert (power.steps * n, power.repetitions) == (full.steps, n)
                assert np.abs(power.final - full.final).max() <= 1e-13

    def test_sampled_run_steps_through_every_repetition(self):
        schedule = self.table_schedule("fsim_poly", 3)
        times = np.linspace(0.0, schedule.duration, 7)
        sampled = gate_channel(schedule, rwa=False, decoherence=False, sample_times=times)
        power = gate_channel(schedule, rwa=False, decoherence=False)
        assert (sampled.repetitions, power.repetitions) == (1, 3)
        assert sampled.steps == 3 * power.steps
        assert np.abs(sampled.states[-1] - power.final).max() <= 1e-13

    def test_sample_times_with_repetitions_rejected(self):
        schedule = self.table_schedule("fsim_rect", 2)
        h = frame_hamiltonian(schedule, rwa=True)
        with pytest.raises(ValueError, match="sample times"):
            propagate_unitary(h, schedule.duration, sample_times=[0.0, schedule.duration], repetitions=2)


class TestFilonWeights:
    # nu h over 1e-8..1 with both signs; nu_k + nu_l reaches 2, so pairs fall
    # on both sides of the series radius |z| = 1
    H = 2.5e-11
    NUS = np.array([-1.0, -0.55, -1e-8, 0.0, 1e-5, 0.1, 0.5, 1.0]) / H

    def test_against_quadrature(self):
        mp = pytest.importorskip("mpmath")
        phi, jj = dynamics.filon_weights(self.NUS, [self.H])
        with mp.workdps(30):
            h = mp.mpf(self.H)

            def inner(nu, s):  # int_0^s e^{i nu r} dr, closed form at 30 digits
                return s if nu == 0 else (mp.expj(nu * s) - 1) / (1j * nu)

            for k, a in enumerate(map(mp.mpf, self.NUS)):
                exact = mp.quad(lambda s: mp.expj(a * s), [0, h])
                assert abs(phi[0, k] - complex(exact)) <= 1e-14 * abs(exact)
                for l, b in enumerate(map(mp.mpf, self.NUS)):
                    exact = mp.quad(lambda s: mp.expj(a * s) * inner(b, s), [0, h])
                    assert abs(jj[0, k, l] - complex(exact)) <= 1e-14 * abs(exact), (k, l)

    def test_one_row_per_step_length(self):
        phi, jj = dynamics.filon_weights(self.NUS, [self.H, 2 * self.H, self.H])
        assert phi.shape == (3, 8) and jj.shape == (3, 8, 8)
        np.testing.assert_array_equal(phi[0], phi[2])
        np.testing.assert_allclose(jj[:, 3, 3], [self.H**2 / 2, 2 * self.H**2, self.H**2 / 2], rtol=1e-15)


def richardson_reference(h, duration, steps, breakpoints=()):
    """Midpoint propagators at ``steps`` and twice that, extrapolated to fourth order."""
    coarse, fine = (propagate_unitary(sampled(h), duration, n, breakpoints=breakpoints).final for n in (steps, 2 * steps))
    return (4.0 * fine - coarse) / 3.0


class TestMagnusFilon:
    @pytest.mark.parametrize("scheme", ["fsim_rect", "fsim_geometric"])
    def test_fourth_order_on_fsim_frames(self, scheme):
        schedule = build_schedule(scheme)
        h = frame_hamiltonian(schedule, rwa=False)
        floor = required_steps(h.max_frequency_hz, schedule.duration)
        ref = richardson_reference(h, schedule.duration, 64 * floor, schedule.breakpoints)
        runs = [propagate_unitary(h, schedule.duration, m * floor, breakpoints=schedule.breakpoints) for m in (1, 2, 4)]
        assert {r.rule for r in runs} == {"magnus_filon"}
        errs = [np.linalg.norm(r.final - ref) for r in runs]
        assert errs[-1] > 1e-11  # above rounding
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.1)
        assert errs[1] / errs[2] == pytest.approx(16.0, rel=0.1)

    def test_fourth_order_on_a_bgate_span(self):
        # at the floor the B gate is already exact to rounding; on a span of
        # 0.5 ns a floor lowered 128-fold admits steps up to several fast
        # periods long, where the order shows
        schedule = build_schedule("bgate")
        h = frame_hamiltonian(schedule, rwa=False)
        span = 0.5e-9
        floor = required_steps(h.max_frequency_hz, span)
        ref = richardson_reference(h, span, 16 * floor)
        coarse = TimeDependentHamiltonian(max_frequency_hz=h.max_frequency_hz / 128, terms=h.terms)
        errs = [np.linalg.norm(propagate_unitary(coarse, span, floor // m).final - ref) for m in (16, 8, 4)]
        assert errs[-1] > 1e-12
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.15)
        assert errs[1] / errs[2] == pytest.approx(16.0, rel=0.15)
        default = propagate_unitary(h, span)
        assert (default.rule, default.steps_per_period, default.steps) == ("magnus_filon", STEPS_PER_PERIOD, floor)
        assert np.linalg.norm(default.final - ref) <= 1e-10

    @pytest.mark.parametrize("scheme", ["fsim_rect", "fsim_geometric"])
    def test_default_budget_in_the_rwa_frame(self, scheme):
        schedule = build_schedule(scheme)
        h = frame_hamiltonian(schedule, rwa=True)
        ref = richardson_reference(h, schedule.duration, 4096, schedule.breakpoints)
        res = propagate_unitary(h, schedule.duration, breakpoints=schedule.breakpoints)
        assert res.steps == required_steps(h.max_frequency_hz, schedule.duration)
        assert np.linalg.norm(res.final - ref) <= 1e-10

    def test_step_rule_of_each_run(self):
        # constant envelopes take the Magnus-Filon step, errors included; the
        # polynomial envelope the midpoint rule; decohered runs RK4
        geometric = build_schedule("fsim_geometric")
        errors = dict(rabi_delta=0.05, detuning_eps=0.02)
        closed = gate_channel(geometric, rwa=False, decoherence=False, **errors)
        assert (closed.rule, closed.steps_per_period) == ("magnus_filon", STEPS_PER_PERIOD)
        poly = gate_channel(build_schedule("fsim_poly"), rwa=True, decoherence=False, **errors)
        assert (poly.rule, poly.steps_per_period) == ("midpoint", 200)
        open_run = gate_channel(geometric, rwa=True, decoherence=True, steps_per_period=100)
        assert (open_run.rule, open_run.steps_per_period) == ("rk4", 100)

import math
from functools import partial

import numpy as np
import pytest

from dqdpulse import dynamics
from dqdpulse.algebra import batched_expm, mat_exp_skew, phase_aligned_distance
from dqdpulse.device import (
    DEFAULT_DEVICE,
    SCHEMES,
    DeviceParams,
    FourierTerms,
    TimeDependentHamiltonian,
    frame_hamiltonian,
)
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


class TestNonFiniteHamiltonian:
    # one bad entry of H at every time: each rule's coefficients are checked once
    @staticmethod
    def hamiltonian(bad, kind):
        def single(t):
            h = np.zeros((4, 4), dtype=complex)
            h[1, 2] = bad
            return h

        if kind == "callable":
            return single
        return TimeDependentHamiltonian(batch=lambda ts: np.stack([single(t) for t in ts]), max_frequency_hz=0.0)

    @pytest.mark.parametrize("kind", ["callable", "sampled"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_unitary_rejects(self, bad, kind):
        with pytest.raises(ValueError, match="H has non-finite"):
            propagate_unitary(self.hamiltonian(bad, kind), 1e-8, steps=16)

    @pytest.mark.parametrize("kind", ["callable", "sampled"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_lindblad_rejects(self, bad, kind):
        with pytest.raises(ValueError, match="H has non-finite"):
            lindblad_superoperator(self.hamiltonian(bad, kind), DEFAULT_DEVICE, 1e-8, steps=16)


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
    # three steps per chunk, so chunk edges fall between and on sample times;
    # a step factor is a real dim x dim float64 matrix
    @staticmethod
    def three_step_chunks(monkeypatch, dim):
        monkeypatch.setattr(dynamics, "CHUNK_BYTES", 3 * 8 * dim * dim)

    @pytest.mark.parametrize("rule", ["magnus_filon", "midpoint"])
    def test_unitary_chunks_match_default(self, rule, monkeypatch):
        schedule = fsim_rectangular(THETA, XI, T45, 2)
        h = frame_hamiltonian(schedule, rwa=False)
        if rule == "midpoint":
            h = sampled(h)
        times = np.concatenate([[0.0, T45], schedule.breakpoints, np.linspace(0.013, 0.97, 23) * T45])
        kwargs = dict(breakpoints=schedule.breakpoints, sample_times=times)
        ref = propagate_unitary(h, T45, **kwargs)
        self.three_step_chunks(monkeypatch, 8)
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

    @pytest.mark.parametrize("rule", ["magnus_filon", "midpoint", "rk4"])
    def test_chunks_hold_at_most_chunk_bytes(self, rule, monkeypatch):
        # every chunk of real factors reaches the ordered product whole when
        # there are no sample times; the runs are long enough to fill one
        held = []
        reduce = dynamics._ordered_product
        monkeypatch.setattr(dynamics, "_ordered_product", lambda mats: held.append(mats) or reduce(mats))
        schedule = fsim_rectangular(THETA, XI, T45, 1)
        h = frame_hamiltonian(schedule, rwa=False)
        kwargs = dict(breakpoints=schedule.breakpoints, steps_per_period=200)
        if rule == "rk4":
            res = lindblad_superoperator(h, DEFAULT_DEVICE, T45, **kwargs)
        else:
            res = propagate_unitary(h if rule == "magnus_filon" else sampled(h), T45, **kwargs)
        assert (res.rule, res.steps) == (rule, 400)
        assert {m.dtype for m in held} == {np.dtype(float)}
        assert max(m.nbytes for m in held) == dynamics.CHUNK_BYTES
        assert sum(m.shape[0] for m in held) == res.steps

    def test_rejects_sample_times_outside_the_gate(self):
        with pytest.raises(ValueError, match="sample times"):
            propagate_unitary(lambda t: np.eye(4), 1.0, steps=16, sample_times=[0.5, 1.5])

    @staticmethod
    def awkward_sample_times(nodes, duration):
        """Shuffled sample times: nodes at chunk edges (every third) and at
        every node of a stretch, off-node times after them, duplicates, 0 and T."""
        times = np.concatenate(
            [nodes[3:30:3], nodes[31:45], np.linspace(0.61, 0.97, 9) * duration, nodes[[6, 6, 40]], [0.0, duration]]
        )
        return np.random.default_rng(5).permutation(times)

    @staticmethod
    def per_interval_states(factors_of, nodes, marks, dim, chunk):
        """The driver's snapshots as first written: one ordered product per
        sample interval inside each chunk, chained onto the running state."""
        n = nodes.size - 1
        state = np.eye(dim)
        snapshots = {0: state}
        for a in range(0, n, chunk):
            b = min(a + chunk, n)
            factors, start = factors_of(a, b), a
            for m in sorted({*marks[(marks > a) & (marks < b)].tolist(), b}):
                state = snapshots[m] = dynamics._ordered_product(factors[start - a : m - a]) @ state
                start = m
        return np.stack([snapshots[m] for m in marks]), state

    @pytest.mark.parametrize("rule", ["magnus_filon", "rk4"])
    def test_grouped_snapshots_match_per_interval_products(self, rule, monkeypatch):
        schedule = fsim_rectangular(THETA, XI, T45, 1)
        h = frame_hamiltonian(schedule, rwa=False)
        terms, fmax = h.terms, h.max_frequency_hz
        dim, spp = (8, 50) if rule == "magnus_filon" else (16, 200)
        steps = required_steps(fmax, T45, spp)
        plain, _, _ = dynamics._step_grid(T45, steps, schedule.breakpoints, None)
        times = self.awkward_sample_times(plain, T45)
        nodes, left, marks = dynamics._step_grid(T45, steps, schedule.breakpoints, times)
        # chunk edges fall on sample nodes, and chunks hold several samples each
        assert np.array_equal(nodes[:31], plain[:31]) and {3, 6, 9} <= set(marks.tolist())
        assert np.bincount(marks[(marks % 3 > 0)] // 3).max() >= 2 and len(set(marks.tolist())) < marks.size
        if rule == "magnus_filon":
            step_factors = partial(dynamics._MagnusFilon, terms)
        else:
            diss = dynamics._in_pauli_basis(dephasing_dissipator(DEFAULT_DEVICE))
            step_factors = partial(dynamics._rk4_factors, terms, diss)
        self.three_step_chunks(monkeypatch, dim)
        res = dynamics._propagate(
            fmax, rule, step_factors, T45, None, schedule.breakpoints, times, spp, 1, dim, lambda s: s
        )
        states, final = self.per_interval_states(step_factors(nodes, left), nodes, marks, dim, 3)
        assert res.steps == nodes.size - 1 and res.states.shape == (times.size, dim, dim)
        np.testing.assert_array_equal(res.states, states)
        np.testing.assert_array_equal(res.final, final)

    # [3, 4] and [5, 8] pad runs whose tree pairs differently if padded in front
    @pytest.mark.parametrize("lengths", [[3], [1, 2], [2, 1], [1, 1, 1], [5, 1, 2], [1, 6], [3, 4], [5, 8]])
    def test_grouped_products_are_each_runs_product(self, lengths):
        factors = np.random.default_rng(sum(lengths) * 10 + len(lengths)).normal(size=(sum(lengths), 8, 8))
        ends = np.cumsum(lengths).tolist()
        products = dynamics._ordered_product(dynamics._grouped(factors, ends))
        assert products.shape == (len(lengths), 8, 8)
        for product, start, end in zip(products, [0, *ends[:-1]], ends):
            np.testing.assert_array_equal(product, dynamics._ordered_product(factors[start:end]))


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


def assert_filon_matches_quadrature(nus, step):
    mp = pytest.importorskip("mpmath")
    phi, jj = dynamics.filon_weights(nus, [step])
    with mp.workdps(30):
        h = mp.mpf(step)

        def inner(nu, s):  # int_0^s e^{i nu r} dr, closed form at 30 digits
            return s if nu == 0 else (mp.expj(nu * s) - 1) / (1j * nu)

        for k, a in enumerate(map(mp.mpf, nus)):
            exact = mp.quad(lambda s: mp.expj(a * s), [0, h])
            assert abs(phi[0, k] - complex(exact)) <= 1e-14 * abs(exact)
            for l, b in enumerate(map(mp.mpf, nus)):
                exact = mp.quad(lambda s: mp.expj(a * s) * inner(b, s), [0, h])
                assert abs(jj[0, k, l] - complex(exact)) <= 1e-14 * abs(exact), (k, l)


class TestFilonWeights:
    # nu h over 1e-8..1 with both signs, so nu_k + nu_l reaches 2
    H = 2.5e-11
    NUS = np.array([-1.0, -0.55, -1e-8, 0.0, 1e-5, 0.1, 0.5, 1.0]) / H

    def test_against_quadrature(self):
        assert_filon_matches_quadrature(self.NUS, self.H)

    def test_against_quadrature_at_the_series_radius(self):
        # nu_k + nu_l, and so |z2|, reaches the radius
        half = dynamics._SERIES_RADIUS / 2
        assert_filon_matches_quadrature(np.array([-half, -0.6 * half, 0.0, 0.3 * half, half]) / self.H, self.H)

    def test_rejects_steps_beyond_the_series_radius(self):
        nus = np.array([0.0, (dynamics._SERIES_RADIUS / 2 + 1e-9) / self.H])
        with pytest.raises(ValueError, match="step too long"):
            dynamics.filon_weights(nus, [self.H])
        dynamics.filon_weights(nus, [self.H / 2])

    @pytest.mark.parametrize("block", [1, 7, 256])
    def test_blocked_tables_equal_one_shot_weights(self, block, monkeypatch):
        # 41 unsorted sample times split the steps into many distinct lengths
        monkeypatch.setattr(dynamics, "_FILON_BLOCK", block)
        schedule = build_schedule("bgate")
        h = frame_hamiltonian(schedule, rwa=False)
        steps = required_steps(h.max_frequency_hz, schedule.duration)
        times = np.random.default_rng(7).uniform(0.0, schedule.duration, 41)
        nodes, left, _ = dynamics._step_grid(schedule.duration, steps, schedule.breakpoints, times)
        mf = dynamics._MagnusFilon(h.terms, nodes, left)
        hs = np.unique(np.diff(nodes))
        assert hs.size > 20 and mf.k.size > 0
        phi, jj = dynamics.filon_weights(mf.nus, hs)
        np.testing.assert_array_equal(mf.phi, phi)
        np.testing.assert_array_equal(mf.dj, -0.5j * (jj[:, mf.k, mf.l] - jj[:, mf.l, mf.k]))

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


class TestGeneratorPath:
    @pytest.mark.parametrize("decoherence", [False, True])
    @pytest.mark.parametrize("rwa", [False, True])
    @pytest.mark.parametrize("scheme", list(SCHEMES))
    def test_gate_channel_samples_no_complex_hamiltonian(self, scheme, rwa, decoherence, monkeypatch):
        # every rule takes a frame's coefficients and projected term rows;
        # the B gate is shortened, which keeps its drive and its switch
        calls = []
        for owner, name in ((TimeDependentHamiltonian, "matrices"), (FourierTerms, "evaluate")):
            original = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args))
        schedule = build_schedule(scheme, duration=2e-9 if scheme == "bgate" else None)
        res = gate_channel(schedule, rwa=rwa, decoherence=decoherence, rabi_delta=0.02, detuning_eps=0.01)
        assert res.steps > 0 and np.isfinite(res.final).all()
        assert calls == []


def vec_liouvillians(hs, diss):
    """Oracle: i(H^T (x) I - I (x) H) + D, the Liouvillian on column-stacked
    vec(rho), for a stack of H."""
    eye = np.eye(4)
    commutator = np.einsum("nji,kl->nikjl", hs, eye) - np.einsum("ij,nkl->nikjl", eye, hs)
    return 1j * commutator.reshape(-1, 16, 16) + diss


def complex_rk4_superoperator(h, params, period, steps, breakpoints, repetitions):
    """Oracle: the RK4 step matrices of one repetition from complex vec-basis
    Liouvillians, multiplied in order and raised to the repetition count."""
    nodes, left, _ = dynamics._step_grid(period, steps, breakpoints, None)
    dts = np.diff(nodes)
    ends = np.where(left, nodes[1:] - dynamics._LEFT_LIMIT * dts, nodes[1:])
    diss = dephasing_dissipator(params)
    s, eye = np.eye(16, dtype=complex), np.eye(16)
    for a in range(0, dts.size, 1024):  # in pieces, to bound memory
        dt = dts[a : a + 1024]
        t0 = nodes[a : a + dt.size]
        l0, lm, l1 = (vec_liouvillians(h.matrices(t), diss) for t in (t0, t0 + dt / 2.0, ends[a : a + dt.size]))
        dt = dt[:, None, None]
        k2 = lm @ (eye + 0.5 * dt * l0)
        k3 = lm @ (eye + 0.5 * dt * k2)
        k4 = l1 @ (eye + dt * k3)
        for m in eye + dt / 6.0 * (l0 + 2.0 * k2 + 2.0 * k3 + k4):
            s = m @ s
    return np.linalg.matrix_power(s, repetitions)


def complex_magnus_filon(h, duration, breakpoints):
    """Oracle: the Magnus-Filon propagator at the floor from complex 4x4
    generators i Omega, exponentiated as exp(-i (i Omega)) in complex form."""
    terms = h.terms
    nodes, _, _ = dynamics._step_grid(duration, required_steps(h.max_frequency_hz, duration), breakpoints, None)
    t0, dts = nodes[:-1], np.diff(nodes)
    segment = terms.segment_index(t0 + dts / 2.0)
    used = np.flatnonzero(np.bincount(segment))
    nus, k, l, rows = dynamics._generators(terms, used)
    hs, length = np.unique(dts, return_inverse=True)
    phi, jj = dynamics.filon_weights(nus, hs)
    dj = -0.5j * (jj[:, k, l] - jj[:, l, k])
    phase = np.exp(1j * np.multiply.outer(t0, nus))
    coef = np.concatenate([phase * phi[length], phase[:, k] * phase[:, l] * dj[length]], axis=1)
    i_omega = np.einsum("nj,njk->nk", coef, rows[np.searchsorted(used, segment)]).reshape(-1, 4, 4)
    u = np.eye(4, dtype=complex)
    for a in range(0, i_omega.shape[0], 512):
        u = dynamics._ordered_product(batched_expm(-1j * i_omega[a : a + 512])) @ u
    return u


class TestRealKernels:
    @staticmethod
    def open_generators(h, ts, diss):
        """The Pauli-basis Liouvillians the RK4 rule builds: every segment's
        open rows, combined with H's coefficients, plus the dissipator."""
        terms, _ = dynamics._resolve_hamiltonian(h)
        rows = dynamics._open_rows(terms.mats)
        real = dynamics._combine(terms.coefficients(ts), terms.segment_index(ts), rows)
        return (real + dynamics._in_pauli_basis(diss).reshape(-1)).reshape(-1, 16, 16)

    def test_pauli_basis_liouvillian_is_real(self):
        # H from 1e-3 to frame-like 1e10 rad/s against dephasing rates near 1e4
        rng = np.random.default_rng(41)
        hs = np.stack([random_hermitian(rng, scale) for scale in (1e-3, 1.0, 1e3, 1e10)])
        diss = dephasing_dissipator(DEFAULT_DEVICE)
        vec = vec_liouvillians(hs, diss)
        pauli = dynamics._T.conj().T @ vec @ dynamics._T
        scale = np.abs(vec).max(axis=(1, 2))
        assert (np.abs(pauli.imag).max(axis=(1, 2)) <= 1e-15 * scale).all()
        # a plain callable's rows: the Liouvillians of the unit matrices E_ab
        real = self.open_generators(lambda t: hs[int(t)], np.arange(4.0), diss)
        assert real.dtype == np.dtype(float)
        assert (np.abs(real - pauli.real).max(axis=(1, 2)) <= 1e-15 * scale).all()

    @pytest.mark.parametrize("error", ["none", "rabi", "detuning"])
    @pytest.mark.parametrize("rwa", [False, True])
    @pytest.mark.parametrize("scheme", list(SCHEMES))
    def test_open_rows_of_every_frame_match_vec_liouvillians(self, scheme, rwa, error):
        # every segment's Fourier terms, projected once, against the complex
        # H(t) the frame evaluates, at times on and between the breakpoints
        schedule = build_schedule(scheme, n_reps=2 if SCHEMES[scheme].one_step else 1)
        if error == "rabi":
            schedule = apply_rabi_error(schedule, 0.05)
        elif error == "detuning":
            schedule = apply_detuning_error(schedule, -0.03)
        h = frame_hamiltonian(schedule, rwa)
        ts = np.unique(np.concatenate([np.linspace(0.0, schedule.duration, 101), schedule.breakpoints]))
        diss = dephasing_dissipator(DEFAULT_DEVICE)
        real = self.open_generators(h, ts, diss)
        vec = vec_liouvillians(h.matrices(ts), diss)
        pauli = dynamics._T.conj().T @ vec @ dynamics._T
        scale = np.abs(vec).max(axis=(1, 2))
        assert (np.abs(real - pauli.real).max(axis=(1, 2)) <= 1e-15 * scale).all()

    def test_pauli_basis_round_trip(self):
        np.testing.assert_allclose(dynamics._T.conj().T @ dynamics._T, np.eye(16), rtol=0, atol=1e-16)
        h = random_hermitian(np.random.default_rng(43))
        s = vec_liouvillians(h[None], dephasing_dissipator(DEFAULT_DEVICE))[0]
        back = dynamics._from_pauli_basis(dynamics._in_pauli_basis(s))
        assert np.abs(back - s).max() <= 1e-15 * np.abs(s).max()

    # the six cells the acceptance suite checks against the paper's table
    @pytest.mark.parametrize(
        "scheme, n",
        [("fsim_rect", 1), ("fsim_rect", 2), ("fsim_rect", 3), ("fsim_poly", 1), ("fsim_poly", 3), ("fsim_poly", 10)],
    )
    def test_table_cells_match_complex_rk4(self, scheme, n):
        schedule = build_schedule(scheme, duration=SCHEMES[scheme].reference_time, n_reps=n)
        res = gate_channel(schedule, rwa=False, decoherence=True)
        h = frame_hamiltonian(schedule, rwa=False)
        ref = complex_rk4_superoperator(h, DEFAULT_DEVICE, schedule.period, res.steps, schedule.breakpoints, n)
        assert res.repetitions == n
        assert np.abs(res.final - ref).max() <= 1e-13

    @pytest.mark.parametrize("rwa", [False, True])
    @pytest.mark.parametrize("scheme", ["fsim_geometric", "bgate"])
    def test_drives_and_phase_switches_match_complex_rk4(self, scheme, rwa):
        # the B gate's drive terms on its first 64th, 9.9k steps; the
        # geometric fSim's phase-switched segments over the whole gate
        schedule = build_schedule(scheme)
        h = frame_hamiltonian(schedule, rwa)
        span = schedule.duration / (64 if scheme == "bgate" else 1)
        res = lindblad_superoperator(h, DEFAULT_DEVICE, span, breakpoints=schedule.breakpoints)
        ref = complex_rk4_superoperator(h, DEFAULT_DEVICE, span, res.steps, schedule.breakpoints, 1)
        assert np.abs(res.final - ref).max() <= 1e-13

    @pytest.mark.parametrize("scheme", ["fsim_rect", "fsim_geometric", "bgate"])
    def test_closed_propagators_match_complex_taylor(self, scheme):
        # the B gate on its first eighth, 19.7k steps: over the whole gate's
        # 158k steps the two roundings drift apart by about 2.3e-13
        schedule = build_schedule(scheme)
        h = frame_hamiltonian(schedule, rwa=False)
        span = schedule.duration / (8 if scheme == "bgate" else 1)
        res = propagate_unitary(h, span, breakpoints=schedule.breakpoints)
        assert res.rule == "magnus_filon"
        ref = complex_magnus_filon(h, span, schedule.breakpoints)
        assert np.abs(res.final - ref).max() <= 1e-13

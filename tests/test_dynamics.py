import math
import tracemalloc
from dataclasses import replace
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dqdpulse import dynamics, experiments
from dqdpulse.algebra import mat_exp_skew, phase_aligned_distance
from dqdpulse.device import (
    DEFAULT_DEVICE,
    SCHEMES,
    DeviceParams,
    FourierTerms,
    TimeDependentHamiltonian,
    frame_hamiltonian,
)
from dqdpulse.dynamics import (
    STEPS_PER_PERIOD,
    apply_superoperator,
    dephasing_dissipator,
    lindblad_superoperator,
    propagate_lindblad,
    propagate_unitary,
    required_steps,
)
from dqdpulse.experiments import ETA_REF, POLY_GATE_TIME, build_schedule, gate_channel
from dqdpulse.pulses import apply_detuning_error, apply_rabi_error, fsim_rectangular, polynomial_coefficients
from dqdpulse.trajectories import fsim_matrix

THETA, XI = math.pi / 4, math.pi / 2
T45 = 45e-9

NO_DECOHERENCE = DeviceParams(t2_q1=0.0, t2_q2=0.0)  # kappa = 0 sentinel

# projector collapse operators: |j><j| x I on qubit 1, I x |j'><j'| on qubit 2
_PROJECTORS = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
COLLAPSE_Q1 = tuple(np.kron(p, np.eye(2)) for p in _PROJECTORS)
COLLAPSE_Q2 = tuple(np.kron(np.eye(2), p) for p in _PROJECTORS)


def random_hermitian(rng, scale=1.0):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return scale * (a + a.conj().T) / 2.0


def random_density_matrix(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def midpoint_loop_superoperator(h, params, duration, steps, breakpoints):
    """Reference: midpoint exponentials of the vec-basis Liouvillian, one step
    at a time by scipy's expm.

    Each sub-interval between breakpoints gets its share of the steps.
    """
    expm = pytest.importorskip("scipy.linalg").expm
    diss = dephasing_dissipator(params)
    pts = [0.0, *sorted(p for p in breakpoints if 0.0 < p < duration), duration]
    s = np.eye(16, dtype=complex)
    for lo, hi in zip(pts[:-1], pts[1:]):
        nodes = np.linspace(lo, hi, max(1, round(steps * (hi - lo) / duration)) + 1)
        for t0, t1 in zip(nodes[:-1], nodes[1:]):
            s = expm(vec_liouvillians(np.asarray(h(t0 + (t1 - t0) / 2.0))[None], diss)[0] * (t1 - t0)) @ s
    return s


def step_grid(duration, steps, breakpoints, sample_times):
    """Oracle: the whole step grid at once, as numpy builds it.

    The interval ends are 0, the breakpoints, T and the sample times, where
    two within ``_SNAP`` times the nominal step T / steps are one: a sample
    time that near 0, T or a breakpoint is that point, and sample times
    chained by such gaps are the first of them.  Each interval [lo, hi] is
    ``np.linspace`` of its share of the steps, rounded up, and each of its
    steps has the length (hi - lo) / n.  Returns the nodes 0 = t_0 < ... <
    t_n = T, each step's length and each sample time's node index.
    """
    pts = [0.0] + sorted(p for p in set(breakpoints) if 0.0 < p < duration) + [duration]
    tol = dynamics._SNAP * duration / steps
    samples = [] if sample_times is None else list(sample_times)
    end, last = {}, None  # each sample time's interval end; the last one not at a point
    for s in sorted(samples):
        near = min(pts, key=lambda p: abs(p - s))
        if abs(s - near) <= tol:
            end[s] = near
        else:
            end[s] = end[last] if last is not None and s - last <= tol else s
            last = s
    ends = sorted(set(pts) | set(end.values()))
    nodes, lengths = [np.zeros(1)], []
    for lo, hi in zip(ends[:-1], ends[1:]):
        n = max(1, math.ceil(steps * (hi - lo) / duration * (1.0 - dynamics._SNAP)))
        nodes.append(np.linspace(lo, hi, n + 1)[1:])
        lengths.append(np.full(n, (hi - lo) / n))
    nodes = np.concatenate(nodes)
    return nodes, np.concatenate(lengths), np.searchsorted(nodes, [end[s] for s in samples]).astype(int)


def budget_steps(max_frequency_hz, period, breakpoints, steps_per_period=STEPS_PER_PERIOD):
    """The steps of a run at ``steps_per_period``: the budget's, each breakpoint interval's share rounded up."""
    return step_grid(period, required_steps(max_frequency_hz, period, steps_per_period), breakpoints, None)[0].size - 1


def grid_steps(grid):
    """The starts and lengths of all steps of a ``dynamics._Grid``, as one chunk."""
    t0, row = grid.starts(0, grid.steps)
    return t0, grid.hs[row]


def run_pieces(marks, steps, size):
    """Oracle: a grid's reduction units at ``size`` steps a chunk, as (lo, hi,
    whole).  The runs between sampled nodes, 0 and the last step are whole
    when they fit; a longer run is cut into pieces of ``size`` steps with
    the remainder last."""
    bounds = sorted({0, *np.asarray(marks, dtype=int).tolist(), steps})
    units = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi - lo <= size:
            units.append((lo, hi, True))
            continue
        edges = [*range(lo, hi, size), hi]
        units += [(x, y, False) for x, y in zip(edges[:-1], edges[1:])]
    return units


def planned_chunks(marks, steps, size):
    """Oracle: each chunk's (a, b, run ends), the reduction units in order,
    with consecutive whole runs of one length merged while they fit."""
    chunks = []
    for lo, hi, whole in run_pieces(marks, steps, size):
        a, ends, merges = chunks[-1] if chunks else (0, [0], False)
        if whole and merges and hi - lo == ends[0] - a and hi - a <= size:
            ends.append(hi)
        else:
            chunks.append((lo, [hi], whole))
    return [(a, ends[-1], ends) for a, ends, _ in chunks]


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

    @classmethod
    def times(cls, schedule, misses):
        """``SAMPLES`` uniform sample times; with ``misses``, each interior
        breakpoint and every 100th of them again, an ulp either side."""
        times = np.linspace(0.0, schedule.duration, cls.SAMPLES)
        if not misses:
            return times
        off = np.concatenate([[p for p in schedule.breakpoints if 0.0 < p < schedule.duration], times[1:-1:100]])
        return np.concatenate([times, np.nextafter(off, np.inf), np.nextafter(off, -np.inf)])

    @classmethod
    def grid(cls, schedule, misses=False):
        h = frame_hamiltonian(schedule, rwa=False)
        steps = required_steps(h.max_frequency_hz, schedule.duration, 200)
        times = cls.times(schedule, misses)
        return dynamics._Grid(schedule.duration, steps, schedule.breakpoints, times), schedule.duration / steps

    @pytest.mark.parametrize("scheme", ["fsim_rect", "fsim_poly"])
    def test_no_degenerate_steps(self, scheme, monkeypatch):
        # a rounding-level miss of another interval end would add an interval
        # of a rounding-level step
        schedule = build_schedule(scheme, duration=SCHEMES[scheme].reference_time)
        grid, nominal = self.grid(schedule, misses=True)
        assert grid.hs.min() >= 1e-6 * nominal
        assert grid.marks[0] == 0 and grid.marks[self.SAMPLES - 1] == grid.steps
        monkeypatch.setattr(dynamics, "_SNAP", 0.0)
        unsnapped, _ = self.grid(schedule, misses=True)
        assert unsnapped.hs.min() < 1e-6 * nominal

    @pytest.mark.parametrize("scheme", ["fsim_rect", "fsim_poly"])
    def test_samples_match_unsnapped_run(self, scheme, monkeypatch):
        schedule = build_schedule(scheme, duration=SCHEMES[scheme].reference_time)
        h = frame_hamiltonian(schedule, rwa=False)
        times = self.times(schedule, misses=True)
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
        grid, nominal = self.grid(schedule)
        assert grid.steps == 632_001
        assert grid.hs.min() >= 1e-6 * nominal
        monkeypatch.setattr(dynamics, "_SNAP", 0.0)
        for unsnapped, snapped in zip(grid_steps(self.grid(schedule)[0]), grid_steps(grid)):
            np.testing.assert_array_equal(unsnapped, snapped)


class TestStepGrid:
    # the chunked grid against the whole-grid oracle, bit for bit
    @staticmethod
    def sample_times(nodes, duration):
        """Unsorted sample times: nodes, duplicates, 0 and T twice, uniform
        draws, and times within and just beyond ``_SNAP`` of a node's step."""
        rng = np.random.default_rng(nodes.size)
        i = rng.integers(0, nodes.size - 1, 20)
        dt, snap = nodes[i + 1] - nodes[i], dynamics._SNAP
        near = [nodes[i] + 0.5 * snap * dt, nodes[i + 1] - 0.5 * snap * dt, nodes[i] + 4.0 * snap * dt]
        times = np.concatenate([nodes[i], nodes[i[:5]], [0.0, 0.0, duration, duration], *near])
        return rng.permutation(np.concatenate([times, rng.uniform(0.0, duration, 40)]))

    @staticmethod
    def assert_chunks_match(grid, nodes, lengths, marks, size, stop=None, checked=lambda a, b: True):
        """The chunks of at most ``size`` steps tile the grid up to ``stop``
        as the oracle plans them from the marks, run ends included, and
        those ``checked`` selects carry the oracle's step starts and
        lengths; the chunks [a, b) checked."""
        planned, seen, last = iter(planned_chunks(marks, grid.steps, size)), [], 0
        for a, b, t0, row, ends in grid.chunks(size):
            if stop is not None and a >= stop:
                break
            assert a == last and 0 < b - a <= size
            last = b
            assert (a, b, list(ends)) == next(planned)
            assert {m for m in marks.tolist() if a < m <= b} <= set(ends)
            if checked(a, b):
                np.testing.assert_array_equal(t0, nodes[a:b])
                np.testing.assert_array_equal(grid.hs[row], lengths[a:b])
                seen.append((a, b))
        assert stop is not None or (last == grid.steps and next(planned, None) is None)
        return seen

    @staticmethod
    def assert_grid_matches(grid, nodes, lengths, marks):
        """The whole grid is the oracle's, and its table rows are the distinct step lengths."""
        assert grid.steps == nodes.size - 1
        np.testing.assert_array_equal(grid.marks, marks)
        t0, h = grid_steps(grid)
        np.testing.assert_array_equal(t0, nodes[:-1])
        np.testing.assert_array_equal(h, lengths)
        np.testing.assert_array_equal(grid.hs, np.unique(lengths))

    @pytest.mark.parametrize("sampled_run", [False, True])
    @pytest.mark.parametrize("spp", [STEPS_PER_PERIOD, 200])
    @pytest.mark.parametrize("scheme", list(SCHEMES))
    def test_chunks_match_the_whole_grid(self, scheme, spp, sampled_run):
        schedule = build_schedule(scheme, n_reps=3 if SCHEMES[scheme].one_step else 1)
        h = frame_hamiltonian(schedule, rwa=False)
        duration, breakpoints = schedule.duration, schedule.breakpoints
        steps = required_steps(h.max_frequency_hz, duration, spp)
        times = self.sample_times(step_grid(duration, steps, breakpoints, None)[0], duration) if sampled_run else None
        nodes, lengths, marks = step_grid(duration, steps, breakpoints, times)
        grid = dynamics._Grid(duration, steps, breakpoints, times)
        self.assert_grid_matches(grid, nodes, lengths, marks)
        intervals = len(set(breakpoints) - {0.0, duration}) + 1
        if sampled_run:  # sample times within _SNAP of another interval end are that end
            assert intervals < grid.lo.size < intervals + times.size
        else:
            assert grid.lo.size == intervals
        self.assert_chunks_match(grid, nodes, lengths, marks, 256)
        self.assert_chunks_match(grid, nodes, lengths, marks, 7, stop=3000)

    @pytest.mark.parametrize("snap", [dynamics._SNAP, 0.0])
    @pytest.mark.parametrize("scheme", ["fsim_geometric", "bgate"])
    def test_samples_an_ulp_from_nodes(self, scheme, snap, monkeypatch):
        # sample times in pairs an ulp either side of a node: within _SNAP
        # each pair is one interval end (a breakpoint where the node is one),
        # without it two
        monkeypatch.setattr(dynamics, "_SNAP", snap)
        schedule = build_schedule(scheme)
        h = frame_hamiltonian(schedule, rwa=False)
        duration, breakpoints = schedule.duration, schedule.breakpoints
        steps = required_steps(h.max_frequency_hz, duration)
        plain = step_grid(duration, steps, breakpoints, None)[0]
        i = np.random.default_rng(3).integers(1, plain.size - 1, 300)
        times = np.concatenate([np.nextafter(plain[i], np.inf), np.nextafter(plain[i], -np.inf)])
        nodes, lengths, marks = step_grid(duration, steps, breakpoints, times)
        grid = dynamics._Grid(duration, steps, breakpoints, times)
        assert (len(set(grid.marks.tolist())) == len(set(i.tolist()))) == (snap > 0.0)
        self.assert_grid_matches(grid, nodes, lengths, marks)
        self.assert_chunks_match(grid, nodes, lengths, marks, 256)

    @pytest.mark.parametrize("scheme", ["fsim_rect", "fsim_geometric", "bgate"])
    def test_chunks_straddling_breakpoints(self, scheme):
        # every step that ends at a breakpoint, with nodes and samples on
        # either side of it in the same chunk of 7 or of 8 steps: samples 1
        # and 3 steps either side make it the middle of three 2-step runs
        schedule = build_schedule(scheme)
        h = frame_hamiltonian(schedule, rwa=False)
        duration, breakpoints = schedule.duration, schedule.breakpoints
        steps = required_steps(h.max_frequency_hz, duration)
        plain = step_grid(duration, steps, breakpoints, None)[0]
        at = np.flatnonzero(np.isin(plain[1:-1], breakpoints)) + 1
        times = plain[np.add.outer(at, [-3, -1, 1, 3]).ravel()]
        nodes, lengths, marks = step_grid(duration, steps, breakpoints, times)
        grid = dynamics._Grid(duration, steps, breakpoints, times)
        ends = np.flatnonzero(np.isin(nodes[1:-1], breakpoints)) + 1
        assert ends.size == len(set(breakpoints) - {0.0, duration}) > 0
        straddling = lambda a, b: ((a < ends) & (ends < b)).any()
        chunks = [self.assert_chunks_match(grid, nodes, lengths, marks, size, None, straddling) for size in (7, 8)]
        seen = [ab for pairs in chunks for ab in pairs]
        assert all(any(a < e < b for a, b in seen) for e in ends)

    def test_long_runs_keep_full_chunks(self):
        # the closed B gate's 1,580-step runs between 101 samples (one of
        # them 1,581 steps, across the breakpoint): 6 full chunks each and
        # the remainder, which no later chunk joins
        schedule = build_schedule("bgate")
        steps = required_steps(frame_hamiltonian(schedule, rwa=False).max_frequency_hz, schedule.duration)
        grid = dynamics._Grid(schedule.duration, steps, schedule.breakpoints, np.linspace(0.0, schedule.duration, 101))
        chunks = list(grid.chunks(256))
        assert len(chunks) == 100 * 7 and {len(ends) for *_, ends in chunks} == {1}
        assert sorted({b - a for a, b, *_ in chunks}) == [44, 45, 256]

    def test_chunk_plan_is_walked_lazily(self):
        # 10,000 runs of random lengths take about as many chunks, planned
        # as they are walked: held whole, the plan alone would take 0.7 MB
        times = np.sort(np.random.default_rng(1).uniform(0.0, 1.0, 10_000))
        grid = dynamics._Grid(1.0, 100_000, [], times)
        tracemalloc.start()
        try:
            chunks = sum(1 for _ in grid.chunks(256))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chunks > 9_000 and peak < 0.25e6

    @pytest.mark.parametrize("sampled_run", [False, True])
    @pytest.mark.parametrize("spp", [STEPS_PER_PERIOD, 200])
    @pytest.mark.parametrize("rwa", [False, True])
    @pytest.mark.parametrize("scheme", list(SCHEMES))
    def test_no_step_longer_than_the_budgets_step(self, scheme, rwa, spp, sampled_run):
        # each interval's share of the budget is rounded up, never down:
        # rounding a share of 12.5 or 105,315.33 down lengthens its steps
        schedule = build_schedule(scheme)
        h = frame_hamiltonian(schedule, rwa)
        duration = schedule.duration
        steps = required_steps(h.max_frequency_hz, duration, spp)
        times = np.linspace(0.0, duration, 2001) if sampled_run else None
        grid = dynamics._Grid(duration, steps, schedule.breakpoints, times)
        _, step_factors, _, _ = dynamics._step_rule(h, dynamics._CLOSED, duration)
        assert step_factors(grid).hs.max() <= duration / steps * (1.0 + 1e-12)


def choi_matrix(s):
    """C[(a, i), (b, j)] = S(|a><b|)[i, j] of a superoperator on column-stacked
    vec(rho), S[i + 4 j, a + 4 b]: positive semidefinite iff S is completely
    positive (Choi, Linear Algebra Appl. 10, 285 (1975))."""
    return s.reshape(4, 4, 4, 4).transpose(3, 1, 2, 0).reshape(16, 16)


class TestLindblad:
    def test_closed_system_limit(self):
        # with both rates zero the master equation reduces to the
        # Schroedinger conjugation; the exact gate for this schedule is
        # known in closed form, so the open step can be checked against it
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

    def test_sampled_h_matches_scalar_midpoint_loop(self):
        schedule = fsim_rectangular(THETA, XI, T45, 1)
        h = sampled(frame_hamiltonian(schedule, rwa=False))
        res = lindblad_superoperator(h, DEFAULT_DEVICE, T45, breakpoints=schedule.breakpoints)
        assert (res.rule, res.steps) == ("midpoint", 400)
        ref = midpoint_loop_superoperator(h, DEFAULT_DEVICE, T45, res.steps, schedule.breakpoints)
        assert np.abs(res.final - ref).max() <= 1e-12

    @pytest.mark.parametrize("scheme", list(SCHEMES))
    def test_trace_preserved_to_rounding(self, scheme):
        # every Liouvillian, the dissipator's included, annihilates the
        # trace, and so do their commutators: each step's generator has a
        # zero first row in the Pauli basis, where B_0 = I / 2
        schedule = build_schedule(scheme, duration=2e-9 if scheme == "bgate" else None)
        res = gate_channel(schedule, rwa=False, decoherence=True)
        # tr rho_T = sum_a vec(rho_T)[5 a], which must be tr rho_0 for every vec(rho_0)
        trace_row = res.final[[0, 5, 10, 15]].sum(axis=0)
        assert np.abs(trace_row - np.eye(4).flatten(order="F")).max() <= 1e-14

    @pytest.mark.parametrize("scheme", ["fsim_rect", "fsim_poly"])
    @settings(max_examples=15, derandomize=True, deadline=None)
    @given(st.floats(-math.pi / 2.0, math.pi / 2.0), st.floats(-math.pi, math.pi), st.integers(1, 10), st.booleans())
    def test_drawn_channels_preserve_trace(self, scheme, theta, xi, n_reps, rwa):
        # the law above over the (theta, xi, N) the config accepts, in
        # either frame, outside the polynomial family's singular configurations
        if scheme == "fsim_poly":
            try:
                polynomial_coefficients(theta, xi, n_reps, ETA_REF)
            except ValueError:
                assume(False)
        schedule = build_schedule(scheme, theta, xi, SCHEMES[scheme].reference_time, n_reps)
        res = gate_channel(schedule, rwa=rwa, decoherence=True)
        trace_row = res.final[[0, 5, 10, 15]].sum(axis=0)
        assert np.abs(trace_row - np.eye(4).flatten(order="F")).max() <= 1e-14

    def test_choi_matrix_of_a_unitary_channel(self):
        u = mat_exp_skew(random_hermitian(np.random.default_rng(9)), 1.0)
        psi = u.T.flatten()  # C[(a, i), (b, j)] = U[i, a] conj(U[j, b]) for rho -> U rho U^dag
        np.testing.assert_allclose(choi_matrix(np.kron(u.conj(), u)), np.outer(psi, psi.conj()), atol=1e-15)

    @pytest.mark.parametrize(
        "scheme, n_reps", [("fsim_rect", 1), ("fsim_rect", 10), ("fsim_poly", 3), ("fsim_geometric", 1)]
    )
    def test_decohered_gates_are_completely_positive(self, scheme, n_reps):
        # the fourth-order step keeps the Lindblad form only to its order
        # (Omega_2 holds commutators with the dissipator): at the default
        # budget the Choi matrix's smallest eigenvalue sits at rounding
        schedule = build_schedule(scheme, duration=SCHEMES[scheme].reference_time, n_reps=n_reps)
        res = gate_channel(schedule, rwa=False, decoherence=True)
        assert np.linalg.eigvalsh(choi_matrix(res.final)).min() >= -1e-13

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

    def test_superoperator_stack_is_applied_per_matrix(self):
        rng = np.random.default_rng(8)
        stack = rng.normal(size=(7, 16, 16)) + 1j * rng.normal(size=(7, 16, 16))
        rho = random_density_matrix(rng)
        out = apply_superoperator(stack, rho)
        assert out.shape == (7, 4, 4)
        for s, rho_t in zip(stack, out):
            vec = s @ rho.flatten(order="F")  # column-stacked: vec[a + 4 b] = rho_t[a, b]
            assert np.abs(rho_t - vec.reshape(4, 4, order="F")).max() <= 1e-15 * np.abs(vec).max()

    def test_rejects_invalid_initial_state(self):
        with pytest.raises(ValueError, match="density"):
            propagate_lindblad(lambda t: np.zeros((4, 4)), DEFAULT_DEVICE, np.eye(4), 1e-9, steps=16)

    @pytest.fixture
    def dissipator_builds(self, monkeypatch):
        """Empties the dissipator cache and counts the dissipators built."""
        monkeypatch.setattr(dynamics, "_LAST_DISSIPATOR", {})
        built = []
        count = lambda p, _f=dephasing_dissipator: built.append(p) or _f(p)
        monkeypatch.setattr(dynamics, "dephasing_dissipator", count)
        return built

    def test_one_device_builds_its_dissipator_once(self, dissipator_builds):
        h = frame_hamiltonian(fsim_rectangular(THETA, XI, T45, 1), rwa=False)
        first = lindblad_superoperator(h, DEFAULT_DEVICE, T45).final
        np.testing.assert_array_equal(lindblad_superoperator(h, DEFAULT_DEVICE, T45).final, first)
        # a device of the same dephasing rates reuses it too
        lindblad_superoperator(h, replace(DEFAULT_DEVICE, b_y_l0=2.0 * DEFAULT_DEVICE.b_y_l0), T45)
        assert len(dissipator_builds) == 1
        for device in (DeviceParams(t2_q1=40e-9), DeviceParams(t2_q2=70e-9), DEFAULT_DEVICE):
            lindblad_superoperator(h, device, T45)
        assert len(dissipator_builds) == 4

    def test_cached_dissipator_is_read_only(self, dissipator_builds):
        h = frame_hamiltonian(fsim_rectangular(THETA, XI, T45, 1), rwa=False)
        lindblad_superoperator(h, DEFAULT_DEVICE, T45)
        ((dissipator,),) = dynamics._LAST_DISSIPATOR.values()
        with pytest.raises(ValueError, match="read-only"):
            dissipator[0, 0] = 0.0

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

    @pytest.mark.parametrize("decoherence", [False, True])
    @pytest.mark.parametrize("rule", ["magnus_filon", "midpoint"])
    def test_chunks_hold_at_most_chunk_bytes(self, rule, decoherence, monkeypatch):
        # every chunk of real factors reaches the ordered product whole when
        # there are no sample times; the runs are long enough to fill one
        held = []
        reduce = dynamics._ordered_product
        monkeypatch.setattr(dynamics, "_ordered_product", lambda mats: held.append(mats) or reduce(mats))
        schedule = fsim_rectangular(THETA, XI, T45, 1)
        h = frame_hamiltonian(schedule, rwa=False)
        h = h if rule == "magnus_filon" else sampled(h)
        kwargs = dict(breakpoints=schedule.breakpoints, steps_per_period=200)
        if decoherence:
            res = lindblad_superoperator(h, DEFAULT_DEVICE, T45, **kwargs)
        else:
            res = propagate_unitary(h, T45, **kwargs)
        assert (res.rule, res.steps) == (rule, 400)
        assert {m.dtype for m in held} == {np.dtype(float)}
        assert max(m.nbytes for m in held) == dynamics.CHUNK_BYTES
        assert sum(m.shape[0] * m.shape[1] for m in held) == res.steps  # runs x their length

    def test_rejects_sample_times_outside_the_gate(self):
        with pytest.raises(ValueError, match="sample times"):
            propagate_unitary(lambda t: np.eye(4), 1.0, steps=16, sample_times=[0.5, 1.5])

    @pytest.mark.parametrize("bad", [-1e-12, math.nan])
    def test_rejects_negative_and_nan_sample_times(self, bad):
        with pytest.raises(ValueError, match="sample times"):
            propagate_unitary(lambda t: np.eye(4), 1.0, steps=16, sample_times=[0.5, bad])

    @staticmethod
    def awkward_sample_times(nodes, duration):
        """Shuffled sample times: nodes at chunk edges (every third) and at
        every node of a stretch, off-node times after them, duplicates, 0 and T."""
        times = np.concatenate(
            [nodes[3:30:3], nodes[31:45], np.linspace(0.61, 0.97, 9) * duration, nodes[[6, 6, 40]], [0.0, duration]]
        )
        return np.random.default_rng(5).permutation(times)

    @staticmethod
    def per_run_states(factors_of, n, marks, dim, chunk):
        """The driver's snapshots one run at a time: each planned chunk's
        factors, then one ordered product per run or piece in it, chained
        onto the running state."""
        state = np.eye(dim)
        snapshots = {0: state}
        for a, b, ends in planned_chunks(marks, n, chunk):
            factors, start = factors_of(a, b), a
            for m in ends:
                state = snapshots[m] = dynamics._ordered_product(factors[start - a : m - a]) @ state
                start = m
        return np.stack([snapshots[m] for m in marks]), state

    @pytest.mark.parametrize("decoherence", [False, True])
    def test_grouped_snapshots_match_per_interval_products(self, decoherence, monkeypatch):
        schedule = fsim_rectangular(THETA, XI, T45, 1)
        h = frame_hamiltonian(schedule, rwa=False)
        if decoherence:
            diss = dynamics._in_pauli_basis(dephasing_dissipator(DEFAULT_DEVICE))
            space, spp = dynamics._Space(16, lambda s: s, diss), 200
        else:
            space, spp = replace(dynamics._CLOSED, restore=lambda s: s), 50
        steps = required_steps(h.max_frequency_hz, T45, spp)
        plain, _, _ = step_grid(T45, steps, schedule.breakpoints, None)
        times = self.awkward_sample_times(plain, T45)
        nodes, _, marks = step_grid(T45, steps, schedule.breakpoints, times)
        # chunks hold several whole runs, single runs and pieces of longer ones
        assert {3, 6, 9, 31} <= set(marks.tolist()) and len(set(marks.tolist())) < marks.size
        plan = planned_chunks(marks, nodes.size - 1, 3)
        assert {1, 3} <= {len(ends) for _, _, ends in plan}
        assert any(b not in marks for _, b, _ in plan)  # a piece of a longer run
        self.three_step_chunks(monkeypatch, space.dim)
        res = dynamics._propagate(h, space, T45, None, schedule.breakpoints, times, spp, 1)
        grid = dynamics._Grid(T45, steps, schedule.breakpoints, times)
        factors = dynamics._MagnusFilon(h.terms, space, False, grid)
        factors_of = lambda a, b: factors(*grid.starts(a, b))
        states, final = self.per_run_states(factors_of, grid.steps, marks, space.dim, 3)
        assert res.rule == "magnus_filon"
        assert res.steps == nodes.size - 1 and res.states.shape == (times.size, space.dim, space.dim)
        np.testing.assert_array_equal(res.states, states)
        np.testing.assert_array_equal(res.final, final)

    def test_sampled_bgate_reduces_each_step_once(self, monkeypatch):
        # the benchmark's closed B gate with 2,001 samples: its 79-step runs
        # share chunks whole, so every step reaches the ordered product
        # once, in no stack above CHUNK_BYTES, and in about as many
        # reductions as the unsampled run's
        stacks = []
        reduce = dynamics._ordered_product
        monkeypatch.setattr(dynamics, "_ordered_product", lambda m: stacks.append((m.shape, m.nbytes)) or reduce(m))
        schedule = build_schedule("bgate")
        reductions = []
        for times in (None, np.linspace(0.0, schedule.duration, 2001)):
            stacks.clear()
            res = gate_channel(schedule, rwa=False, decoherence=False, sample_times=times)
            reductions.append(len(stacks))
        assert res.steps == 158_001 and reductions[0] == 618
        assert sum(shape[0] * shape[1] for shape, _ in stacks) == res.steps
        assert max(nbytes for _, nbytes in stacks) <= dynamics.CHUNK_BYTES
        assert reductions[1] <= 1.1 * reductions[0]

    @pytest.mark.parametrize("decoherence", [False, True])
    @pytest.mark.parametrize("scheme", ["fsim_rect", "fsim_poly"])
    @settings(max_examples=5, derandomize=True, deadline=None)
    @given(st.integers(3, 60), st.integers(0, 2), st.integers(0, 100), st.integers(0, 100))
    def test_runs_that_fit_make_states_independent_of_the_budget(
        self, scheme, decoherence, samples, skip, extra_1, extra_2
    ):
        # each run that fits in a chunk is reduced whole, so where chunk
        # edges fall moves no sampled state: bit for bit once each step is
        # exponentiated alone.  batched_expm shares one Taylor degree and
        # squaring count over its stack, so as run a step's factor depends
        # on the steps chunked with it, at rounding
        schedule = build_schedule(scheme)
        duration = schedule.duration
        times = np.linspace(0.0, duration, samples)[skip:]
        steps = required_steps(frame_hamiltonian(schedule, rwa=False).max_frequency_hz, duration, 200)
        grid = dynamics._Grid(duration, steps, schedule.breakpoints, times)
        longest = int(np.diff([0, *grid.samples_at, grid.steps]).max())
        factor_bytes = 8 * (16 if decoherence else 8) ** 2
        expm = dynamics.batched_expm
        alone = lambda a: np.stack([expm(x[None])[0] for x in a])

        def run(size, exponential):
            with mock.patch.object(dynamics, "CHUNK_BYTES", size * factor_bytes):
                with mock.patch.object(dynamics, "batched_expm", exponential):
                    return gate_channel(
                        schedule, rwa=False, decoherence=decoherence, steps_per_period=200, sample_times=times
                    )

        sizes = (longest + extra_1, longest + extra_2)
        ref, res = (run(size, alone) for size in sizes)
        assert res.steps == ref.steps == grid.steps
        np.testing.assert_array_equal(res.states, ref.states)
        np.testing.assert_array_equal(res.final, ref.final)
        ref, res = (run(size, expm) for size in sizes)
        assert np.abs(res.states - ref.states).max() <= 1e-14


class TestMemoryBound:
    # a run holds O(chunk) step factors, O(samples) intervals and snapshots
    # and a Filon table over its intervals' distinct step lengths, so its
    # traced peak does not grow with the step count; a per-step float64
    # array at 30k more steps is 0.24 MB
    BOUND = 0.5e6  # bytes

    @staticmethod
    def traced_peak(run):
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run()
            return tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("decoherence", [False, True])
    @pytest.mark.parametrize("rule", ["magnus_filon", "midpoint"])
    def test_peak_does_not_grow_with_the_step_count(self, rule, decoherence):
        schedule = build_schedule("fsim_poly")
        h = frame_hamiltonian(schedule, rwa=False)
        kwargs = dict(breakpoints=schedule.breakpoints)
        if rule == "midpoint":
            h = sampled(h)
        elif not decoherence:
            kwargs["sample_times"] = np.linspace(0.0, schedule.duration, 2001)
        if decoherence:
            run = partial(lindblad_superoperator, h, DEFAULT_DEVICE, schedule.duration, **kwargs)
        else:
            run = partial(propagate_unitary, h, schedule.duration, **kwargs)
        assert run(steps=1000).rule == rule  # and one-time allocations made
        n = 10_000
        peaks = [self.traced_peak(partial(run, steps=steps)) for steps in (n, 4 * n)]
        assert abs(peaks[1] - peaks[0]) < self.BOUND, peaks


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

    @pytest.mark.parametrize("rwa", [False, True])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("scheme", ["fsim_rect", "fsim_poly"])
    def test_power_of_one_repetition_is_the_full_walk(self, scheme, n, rwa):
        # U(T/N)^N on n steps against all N repetitions stepped through on
        # N n steps, closed and decohered: at most 9.3e-16 apart
        schedule = self.table_schedule(scheme, n)
        h = frame_hamiltonian(schedule, rwa)
        steps = required_steps(h.max_frequency_hz, schedule.period, 200)
        for run in (
            partial(propagate_unitary, h, schedule.duration, breakpoints=schedule.breakpoints),
            partial(lindblad_superoperator, h, DEFAULT_DEVICE, schedule.duration, breakpoints=schedule.breakpoints),
        ):
            power = run(steps, repetitions=n)
            full = run(n * steps, sample_times=[schedule.duration])
            assert (power.steps * n, full.repetitions) == (full.steps, 1)
            assert np.abs(power.final - full.final).max() <= 2e-15

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


def moment_exact(mp, m, nu, h, s=None):
    """int_0^s (r/h)^m e^{i nu r} dr at mpmath precision (s = h by default):
    the antiderivative of r^m e^{b r}, b = i nu, from repeated integration by parts."""
    s = h if s is None else s
    if nu == 0:
        return s ** (m + 1) / (m + 1) / h**m
    b = 1j * nu
    total = sum((-1) ** j * mp.factorial(m) / mp.factorial(m - j) * s ** (m - j) / b ** (j + 1) for j in range(m + 1))
    return (mp.exp(b * s) * total - (-1) ** m * mp.factorial(m) / b ** (m + 1)) / h**m


def assert_filon_matches_quadrature(nus, step, degree=0):
    """The moments of ``filon_weights`` up to ``degree`` against mpmath."""
    mp = pytest.importorskip("mpmath")
    phi, jj = dynamics.filon_weights(nus, [step])
    d = dynamics._DEGREE + 1
    assert phi.shape == (1, nus.size, d) and jj.shape == (1, nus.size, nus.size, d, d)
    with mp.workdps(30):
        h = mp.mpf(step)
        for k, a in enumerate(map(mp.mpf, nus)):
            for m in range(degree + 1):
                exact = moment_exact(mp, m, a, h)
                assert abs(phi[0, k, m] - complex(exact)) <= 1e-14 * abs(exact), (k, m)
                for l, b in enumerate(map(mp.mpf, nus)):
                    for n in range(degree + 1):
                        exact = mp.quad(lambda s: (s / h) ** m * mp.expj(a * s) * moment_exact(mp, n, b, h, s), [0, h])
                        assert abs(jj[0, k, l, m, n] - complex(exact)) <= 1e-14 * abs(exact), (k, l, m, n)


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

    @pytest.mark.parametrize("scale", [1e-3, 1.0, dynamics._SERIES_RADIUS / 2])
    def test_weighted_moments_against_quadrature(self, scale):
        # the moments the quadratic envelope interpolant takes, weighted by
        # (s/h)^m (r/h)^n up to m, n = 2, out to the series radius
        assert_filon_matches_quadrature(np.array([-1.0, 0.0, 0.4]) * scale / self.H, self.H, dynamics._DEGREE)

    def test_rejects_steps_beyond_the_series_radius(self):
        nus = np.array([0.0, (dynamics._SERIES_RADIUS / 2 + 1e-9) / self.H])
        with pytest.raises(ValueError, match="step too long"):
            dynamics.filon_weights(nus, [self.H])
        dynamics.filon_weights(nus, [self.H / 2])

    @pytest.mark.parametrize("samples, rows", [(0, 1), (41, 43), (2001, 14)])
    def test_table_rows_are_the_distinct_interval_steps(self, samples, rows, monkeypatch):
        # unsorted sample times split the B gate into intervals of many lengths
        monkeypatch.setattr(dynamics, "_LAST_TABLE", {})
        schedule = build_schedule("bgate")
        h = frame_hamiltonian(schedule, rwa=False)
        steps = required_steps(h.max_frequency_hz, schedule.duration)
        rng, duration = np.random.default_rng(7), schedule.duration
        times = {0: None, 41: rng.uniform(0.0, duration, 41), 2001: rng.permutation(np.linspace(0.0, duration, 2001))}
        times = times[samples]
        _, lengths, _ = step_grid(schedule.duration, steps, schedule.breakpoints, times)
        grid = dynamics._Grid(schedule.duration, steps, schedule.breakpoints, times)
        mf = dynamics._MagnusFilon(h.terms, dynamics._CLOSED, False, grid)
        hs = np.unique(lengths)
        assert hs.size == rows and mf.table.shape[0] == rows and mf.k.size > 0
        np.testing.assert_array_equal(mf.hs, hs)
        phi, jj = dynamics.filon_weights(mf.nus, hs)
        dj = 0.5 * (jj[:, mf.k, mf.l] - jj[:, mf.l, mf.k])
        np.testing.assert_array_equal(mf.table, np.concatenate([phi[..., 0], dj[..., 0, 0]], axis=1))

    def test_gates_of_one_frame_and_grid_share_their_table(self, monkeypatch):
        # an eta sweep at one duration: the same frame frequencies and steps
        monkeypatch.setattr(dynamics, "_LAST_TABLE", {})
        built = []
        monkeypatch.setattr(dynamics, "_series_terms", lambda *a, _f=dynamics._series_terms: built.append(a) or _f(*a))
        schedules = [build_schedule("fsim_poly", duration=POLY_GATE_TIME, eta=eta) for eta in (0.2, 0.7)]
        finals = [gate_channel(schedule, rwa=False, decoherence=True).final for schedule in schedules]
        assert len(built) == 1
        monkeypatch.setattr(dynamics, "_LAST_TABLE", {})
        np.testing.assert_array_equal(gate_channel(schedules[1], rwa=False, decoherence=True).final, finals[1])
        assert len(built) == 2
        gate_channel(schedules[1], rwa=True, decoherence=True)  # other frame frequencies: a new table
        assert len(built) == 3

    @pytest.fixture
    def frame_builds(self, monkeypatch):
        """Empties both set-up caches and counts the frame set-ups built."""
        monkeypatch.setattr(dynamics, "_LAST_FRAME", {})
        monkeypatch.setattr(dynamics, "_LAST_TABLE", {})
        built = []
        monkeypatch.setattr(dynamics, "_frame", lambda *a, _f=dynamics._frame: built.append(a) or _f(*a))
        return built

    @pytest.mark.parametrize("decoherence", [False, True])
    def test_reused_frame_gives_the_final_of_a_fresh_one(self, decoherence, frame_builds, monkeypatch):
        # N = 2 and 3 share their term matrices but not their frequencies
        two, three = (build_schedule("fsim_rect", duration=T45, n_reps=n) for n in (2, 3))
        gate_channel(two, rwa=False, decoherence=decoherence)
        reused = gate_channel(three, rwa=False, decoherence=decoherence).final
        assert len(frame_builds) == 1
        monkeypatch.setattr(dynamics, "_LAST_FRAME", {})
        monkeypatch.setattr(dynamics, "_LAST_TABLE", {})
        np.testing.assert_array_equal(gate_channel(three, rwa=False, decoherence=decoherence).final, reused)
        assert len(frame_builds) == 2

    def test_closed_and_decohered_runs_do_not_share_a_frame(self, frame_builds):
        schedule = build_schedule("fsim_rect", duration=T45)
        closed = gate_channel(schedule, rwa=False, decoherence=False)
        gate_channel(schedule, rwa=False, decoherence=True)
        assert len(frame_builds) == 2
        np.testing.assert_array_equal(gate_channel(schedule, rwa=False, decoherence=False).final, closed.final)
        assert len(frame_builds) == 3

    @pytest.mark.parametrize(
        "scheme, duration, error",
        [("fsim_poly", POLY_GATE_TIME, apply_detuning_error), ("fsim_rect", T45, apply_rabi_error)],
    )
    def test_injected_error_builds_the_frame_again(self, scheme, duration, error, frame_builds):
        # a detuning error changes the static matrix, a Rabi error a constant
        # envelope's level, which scales the drive's matrices
        schedule = build_schedule(scheme, duration=duration)
        gate_channel(schedule, rwa=False, decoherence=True)
        gate_channel(error(schedule, 0.05), rwa=False, decoherence=True)
        assert len(frame_builds) == 2

    def test_fidelity_table_builds_one_frame_per_term_matrices(self, frame_builds, monkeypatch):
        # 20 gates, each with its own frequencies and step lengths, in three
        # frames: fsim_rect N = 1..9, fsim_rect N = 10, every fsim_poly gate
        tables = []
        monkeypatch.setattr(dynamics, "_filon_table", lambda *a, _f=dynamics._filon_table: tables.append(a) or _f(*a))
        experiments.table1().run(5)
        assert (len(frame_builds), len(tables)) == (3, 20)

    @pytest.mark.parametrize("decoherence", [False, True])
    def test_cached_set_up_is_read_only(self, decoherence, frame_builds):
        # a stray in-place operation would change every later run that hits the cache
        gate_channel(build_schedule("fsim_poly", duration=POLY_GATE_TIME), rwa=False, decoherence=decoherence)
        (frame,), (table,) = dynamics._LAST_FRAME.values(), dynamics._LAST_TABLE.values()
        assert len(frame) == 3 and frame[0].size > 0
        for cached in (*frame, *table):
            with pytest.raises(ValueError, match="read-only"):
                cached[0] = 0

    def test_one_row_per_step_length(self):
        phi, jj = dynamics.filon_weights(self.NUS, [self.H, 2 * self.H, self.H])
        assert phi.shape == (3, 8, 3) and jj.shape == (3, 8, 8, 3, 3)
        np.testing.assert_array_equal(phi[0], phi[2])
        np.testing.assert_allclose(jj[:, 3, 3, 0, 0], [self.H**2 / 2, 2 * self.H**2, self.H**2 / 2], rtol=1e-15)


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
        assert res.steps == budget_steps(h.max_frequency_hz, schedule.duration, schedule.breakpoints)
        assert np.linalg.norm(res.final - ref) <= 1e-10

    @pytest.mark.parametrize("decoherence", [False, True])
    @pytest.mark.parametrize("rwa", [False, True])
    def test_fourth_order_on_the_polynomial_envelope(self, rwa, decoherence):
        # the quadratic interpolant through each step's Gauss points keeps the
        # step fourth order.  The pristine RWA frame commutes with itself at
        # all times, where the closed step is sixth order, so the closed RWA
        # run takes a detuning error; the open runs take a strong dephasing
        schedule = build_schedule("fsim_poly")
        if rwa and not decoherence:
            schedule = apply_detuning_error(schedule, 0.05)
        h = frame_hamiltonian(schedule, rwa)
        if decoherence:
            run = partial(lindblad_superoperator, h, DeviceParams(t2_q1=40e-9, t2_q2=70e-9), schedule.duration)
        else:
            run = partial(propagate_unitary, h, schedule.duration)
        floor = required_steps(h.max_frequency_hz, schedule.duration)
        ref = run(64 * floor).final
        runs = [run(m * floor) for m in (1, 2, 4)]
        assert {r.rule for r in runs} == {"magnus_filon"}
        errs = [np.linalg.norm(r.final - ref) for r in runs]
        assert errs[-1] > 1e-11  # above rounding
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.05)
        assert errs[1] / errs[2] == pytest.approx(16.0, rel=0.05)

    def test_polynomial_envelope_matches_the_midpoint_reference(self):
        # pre-RWA, where the midpoint rule at its own default was 9.1e-6 off
        for n in (1, 3):
            schedule = build_schedule("fsim_poly", duration=SCHEMES["fsim_poly"].reference_time, n_reps=n)
            h = frame_hamiltonian(schedule, rwa=False)
            res = propagate_unitary(h, schedule.duration, breakpoints=schedule.breakpoints, repetitions=n)
            assert (res.rule, res.steps_per_period) == ("magnus_filon", 200)
            period_steps = required_steps(h.max_frequency_hz, schedule.period, 3200)
            ref = np.linalg.matrix_power(richardson_reference(h, schedule.period, period_steps), n)
            assert np.linalg.norm(res.final - ref) <= 1e-9

    @pytest.mark.parametrize("decoherence", [False, True])
    @pytest.mark.parametrize("rwa", [False, True])
    @pytest.mark.parametrize("scheme", list(SCHEMES))
    def test_step_rule_of_each_run(self, scheme, rwa, decoherence):
        # the rule follows how H is given: every frame's Fourier terms take the
        # Magnus-Filon step.  The default budget keeps the floor for closed
        # constant envelopes and 200 steps per period for every other run;
        # errors keep the rule and the budget
        schedule = build_schedule(scheme, duration=2e-9 if scheme == "bgate" else None)
        res = gate_channel(schedule, rwa=rwa, decoherence=decoherence, rabi_delta=0.05, detuning_eps=0.02)
        budget = 200 if decoherence or scheme == "fsim_poly" else STEPS_PER_PERIOD
        assert (res.rule, res.steps_per_period) == ("magnus_filon", budget)
        assert res.steps == budget_steps(res.max_frequency_hz, schedule.period, schedule.breakpoints, budget)
        quick = gate_channel(schedule, rwa=rwa, decoherence=decoherence, steps_per_period=100)
        assert (quick.rule, quick.steps_per_period) == ("magnus_filon", 100)

    @pytest.mark.parametrize("decoherence", [False, True])
    def test_step_rule_of_sampled_runs(self, decoherence):
        schedule = build_schedule("fsim_rect")
        h = frame_hamiltonian(schedule, rwa=False)
        propagate = partial(lindblad_superoperator, params=DEFAULT_DEVICE) if decoherence else propagate_unitary
        for hamiltonian in (sampled(h), lambda t: h(t)):  # a TimeDependentHamiltonian without terms, a callable
            res = propagate(hamiltonian, duration=schedule.duration, steps=400, breakpoints=schedule.breakpoints)
            assert (res.rule, res.steps_per_period) == ("midpoint", None)
        res = propagate(sampled(h), duration=schedule.duration, breakpoints=schedule.breakpoints)
        assert (res.rule, res.steps_per_period) == ("midpoint", 200)


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


# the Gauss-Legendre points of a step, as fractions of its length
GAUSS = 0.5 + np.array([-1.0, 0.0, 1.0]) * math.sqrt(0.15)


def pairwise_product(factors):
    """Oracle: factors[-1] @ ... @ factors[0] by pairwise products, whose
    rounding grows with the depth log2(n), not with n as a left-to-right
    product's does (1.2e-13 against 2.5e-14 over 19.7k B-gate steps)."""
    while len(factors) > 1:
        odd = factors[-1:] if len(factors) % 2 else factors[:0]
        factors = np.concatenate([factors[1::2] @ factors[: len(factors) - len(odd) : 2], odd])
    return factors[0]


def complex_magnus_filon(h, period, steps, breakpoints, params=None, repetitions=1):
    """Oracle: the Magnus-Filon propagator of one repetition, closed, or with
    ``params`` the superoperator on column-stacked vec(rho), raised to the
    repetition count.

    Every term of every segment enters on its own, as -i R or as its
    vec-basis Liouvillian i(R^T (x) I - I (x) R), and the dissipator as one
    more static term.  On each step a scaled term's envelope is its quadratic
    fit through the Gauss points, and Omega = sum_k c_k A_k
    + 1/2 sum_{k,l} c_kl [A_k, A_l] with ``filon_weights`` moments, in
    complex arithmetic, exponentiated by scipy's expm and multiplied pairwise.
    """
    expm = pytest.importorskip("scipy.linalg").expm
    terms = h.terms
    nus, scaled = terms.nus, terms.scaled
    if params is None:
        gens = -1j * terms.mats
    else:
        diss = dephasing_dissipator(params)
        gens = vec_liouvillians(terms.mats.reshape(-1, 4, 4), 0.0).reshape(terms.mats.shape[:2] + (16, 16))
        gens = np.concatenate([gens, np.broadcast_to(diss, (gens.shape[0], 1, 16, 16))], axis=1)
        nus, scaled = np.append(nus, 0.0), np.append(scaled, False)
    nodes, dts, _ = step_grid(period, steps, breakpoints, None)
    t0 = nodes[:-1]
    hs, length = np.unique(dts, return_inverse=True)
    phi, jj = dynamics.filon_weights(nus, hs)
    segment = terms.segment_index(t0 + dts / 2.0)
    # each term's weights of 1, x, x^2 on each step, x = (t - t0) / h
    samples = terms.envelope((t0 + np.multiply.outer(GAUSS, dts)).ravel()).reshape(3, -1)
    fit = np.polynomial.polynomial.polyfit(GAUSS, samples, 2)
    weights = np.where(scaled[:, None], fit.T[:, None, :], [1.0, 0.0, 0.0])
    dim = gens.shape[-1]
    comm = np.einsum("skab,slbc->sklac", gens, gens)
    comm = comm - comm.swapaxes(1, 2)
    u = np.eye(dim, dtype=complex)
    for a in range(0, dts.size, 1024):  # in pieces, to bound memory
        n, w, seg = slice(a, a + 1024), weights[a : a + 1024], segment[a : a + 1024]
        phase = np.exp(1j * np.multiply.outer(t0[n], nus))
        c1 = phase * np.einsum("nkm,nkm->nk", phi[length[n]], w)
        c2 = phase[:, :, None] * phase[:, None, :] * np.einsum("nklab,nka,nlb->nkl", jj[length[n]], w, w)
        omega = np.empty((seg.size, dim, dim), dtype=complex)
        for s in np.unique(seg):
            on = seg == s
            first = c1[on] @ gens[s].reshape(-1, dim * dim)
            second = c2[on].reshape(on.sum(), -1) @ comm[s].reshape(-1, dim * dim)
            omega[on] = (first + 0.5 * second).reshape(-1, dim, dim)
        u = pairwise_product(expm(omega)) @ u
    return np.linalg.matrix_power(u, repetitions)


class TestRealKernels:
    @staticmethod
    def open_space(params=DEFAULT_DEVICE):
        return dynamics._Space(16, dynamics._from_pauli_basis, dynamics._in_pauli_basis(dephasing_dissipator(params)))

    def test_pauli_basis_liouvillian_is_real(self):
        # H from 1e-3 to frame-like 1e10 rad/s against dephasing rates near 1e4
        rng = np.random.default_rng(41)
        hs = np.stack([random_hermitian(rng, scale) for scale in (1e-3, 1.0, 1e3, 1e10)])
        diss = dephasing_dissipator(DEFAULT_DEVICE)
        vec = vec_liouvillians(hs, diss)
        pauli = dynamics._T.conj().T @ vec @ dynamics._T
        scale = np.abs(vec).max(axis=(1, 2))
        assert (np.abs(pauli.imag).max(axis=(1, 2)) <= 1e-15 * scale).all()
        # the midpoint rule's rows: the Liouvillians of the unit matrices E_ab,
        # H's entries their coefficients, and the dissipator added
        space = self.open_space()
        rows = space.rows(space.generators(np.eye(16, dtype=complex).reshape(1, 16, 4, 4)))
        real = dynamics._combine(hs.reshape(-1, 16), np.zeros(4, dtype=int), rows) + space.dissipator.reshape(-1)
        assert real.dtype == np.dtype(float)
        assert (np.abs(real.reshape(-1, 16, 16) - pauli.real).max(axis=(1, 2)) <= 1e-15 * scale).all()

    @pytest.mark.parametrize("error", ["none", "rabi", "detuning"])
    @pytest.mark.parametrize("rwa", [False, True])
    @pytest.mark.parametrize("scheme", list(SCHEMES))
    def test_open_rows_of_every_frame_match_vec_liouvillians(self, scheme, rwa, error):
        # the Magnus-Filon rows of every segment's merged terms, the
        # dissipator in the static one, against the complex H(t) the frame
        # evaluates, at times on and between the breakpoints
        schedule = build_schedule(scheme, n_reps=2 if SCHEMES[scheme].one_step else 1)
        if error == "rabi":
            schedule = apply_rabi_error(schedule, 0.05)
        elif error == "detuning":
            schedule = apply_detuning_error(schedule, -0.03)
        h = frame_hamiltonian(schedule, rwa)
        ts = np.unique(np.concatenate([np.linspace(0.0, schedule.duration, 101), schedule.breakpoints]))
        poly = scheme == "fsim_poly"
        space = self.open_space()
        nus, scaled, g = dynamics._generators(h.terms, schedule.duration, poly)
        assert nus[0] == 0.0 and not scaled[0]
        gens = space.generators(g)
        gens[:, 0] += space.dissipator
        coef = np.exp(1j * np.multiply.outer(ts, nus)) * np.where(scaled, h.terms.envelope(ts)[:, None], 1.0)
        real = dynamics._combine(coef, h.terms.segment_index(ts), space.rows(gens)).reshape(-1, 16, 16)
        vec = vec_liouvillians(h.matrices(ts), dephasing_dissipator(DEFAULT_DEVICE))
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
    def test_table_cells_match_complex_magnus_filon(self, scheme, n):
        schedule = build_schedule(scheme, duration=SCHEMES[scheme].reference_time, n_reps=n)
        res = gate_channel(schedule, rwa=False, decoherence=True)
        h = frame_hamiltonian(schedule, rwa=False)
        ref = complex_magnus_filon(h, schedule.period, res.steps, schedule.breakpoints, DEFAULT_DEVICE, n)
        assert (res.rule, res.repetitions) == ("magnus_filon", n)
        assert np.abs(res.final - ref).max() <= 1e-13

    @pytest.mark.parametrize("rwa", [False, True])
    @pytest.mark.parametrize("scheme", ["fsim_geometric", "bgate"])
    def test_drives_and_phase_switches_match_complex_magnus_filon(self, scheme, rwa):
        # the B gate's drive terms on its first 64th, 9.9k steps; the
        # geometric fSim's phase-switched segments over the whole gate
        schedule = build_schedule(scheme)
        h = frame_hamiltonian(schedule, rwa)
        span = schedule.duration / (64 if scheme == "bgate" else 1)
        res = lindblad_superoperator(h, DEFAULT_DEVICE, span, breakpoints=schedule.breakpoints)
        ref = complex_magnus_filon(h, span, res.steps, schedule.breakpoints, DEFAULT_DEVICE)
        assert np.abs(res.final - ref).max() <= 1e-13

    @pytest.mark.parametrize("scheme", list(SCHEMES))
    def test_closed_propagators_match_complex_magnus_filon(self, scheme):
        # the B gate on its first eighth, 19.7k steps
        schedule = build_schedule(scheme)
        h = frame_hamiltonian(schedule, rwa=False)
        span = schedule.duration / (8 if scheme == "bgate" else 1)
        res = propagate_unitary(h, span, breakpoints=schedule.breakpoints)
        assert res.rule == "magnus_filon"
        ref = complex_magnus_filon(h, span, res.steps, schedule.breakpoints)
        assert np.abs(res.final - ref).max() <= 1e-13

"""Time-ordered closed-system propagation and Lindblad open-system evolution.

One driver serves both: it resolves H(t), checks the step floor, builds
the step grid (breakpoints and sample times on nodes), and walks it in
memory-bounded chunks, each reduced to one ordered product, recording the
running product at every sample time.  Only the per-step factor differs:

* closed systems use the midpoint exponential exp(-i H(t + dt/2) dt),
  second-order accurate; its scaled Taylor series is unitary to rounding,
  and ``propagate_unitary`` reports the product's unitarity defect;
* open systems use one classical RK4 step of the vectorized master
  equation, which is linear, so the step is the 16x16 matrix
  I + dt/6 (k1 + 2 k2 + 2 k3 + k4) with the k's taken at the identity.
  One superoperator serves a whole 1600-state fidelity grid.

A schedule that repeats every T/N (an N-fold fSim gate: its envelope
repeats, and every frame frequency is a multiple of 2 pi N / T) has the
one-period (monodromy) propagator of Shirley, Phys. Rev. 138, B979 (1965):
U(T) = U(T/N)^N, and likewise S(T) = S(T/N)^N for the superoperator, since
the dissipator is constant.  Given ``repetitions`` = N, the driver steps
through [0, T/N] alone, with that repetition's breakpoints and step budget,
and raises the product to the N-th power by repeated squaring.  The
budget of one repetition is an N-th of the whole gate's, so where the
grid of [0, T] is N copies of the one-repetition grid, the power matches
the full walk to rounding at an N-th of the steps.  The caller vouches
that H(t) repeats.  A run with sample times needs the states between
repetitions, so it steps through all of them and takes no repetition
count.

Step budgets are guarded by a Nyquist-style floor: dt <= 1/(50 f_max)
with f_max the fastest frequency present (twice the carrier for
counter-rotating residues).  Requests below the floor, as a step count or
as fewer than 50 steps per period, are rejected with the required minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .algebra import batched_mat_exp_skew, unitarity_defect
from .device import DeviceParams, TimeDependentHamiltonian

STEPS_PER_PERIOD = 50

# Step factors held at once: 32 superoperator (16x16) or 512 propagator
# (4x4) steps, so the 632k-step B gate runs in bounded memory.
CHUNK_BYTES = 1 << 17

# RK4 end stages at a breakpoint or at T sample H this fraction of a step
# inside the interval: schedules are right-continuous at envelope jumps.
_LEFT_LIMIT = 1e-9

# A sample time this fraction of the local step from a node is that node;
# merged as a node of its own, a rounding-level miss adds a degenerate step.
# A budget this fraction above a whole step count is that count: spp f T
# lands a rounding error above an integer for whole-period durations.
_SNAP = 1e-9


@dataclass(frozen=True)
class EvolutionResult:
    """Outcome of one propagation."""

    final: np.ndarray  # propagator (closed) or density matrix (open)
    steps: int  # steps integrated: those of one repetition when raised to a power
    repetitions: int = 1
    times: np.ndarray | None = None
    states: np.ndarray | None = None  # sampled propagators / density matrices
    unitarity_defect: float = 0.0
    trace_defect: float = 0.0
    min_eigenvalue: float = 0.0


def required_steps(max_frequency_hz: float, duration: float, steps_per_period: int = STEPS_PER_PERIOD) -> int:
    """Step floor resolving the fastest oscillation present."""
    if max_frequency_hz <= 0.0:
        return 16
    return max(16, int(math.ceil(steps_per_period * max_frequency_hz * duration * (1.0 - _SNAP))))


def require_step_floor(steps_per_period: int) -> None:
    if steps_per_period < STEPS_PER_PERIOD:
        raise ValueError(f"steps_per_period {steps_per_period} is below the floor {STEPS_PER_PERIOD}")


def _resolve_hamiltonian(h) -> tuple[Callable[[np.ndarray], np.ndarray], float]:
    if isinstance(h, TimeDependentHamiltonian):
        return h.matrices, h.max_frequency_hz
    if callable(h):
        def batch(ts: np.ndarray) -> np.ndarray:
            return np.stack([np.asarray(h(t), dtype=complex) for t in np.atleast_1d(ts)])

        return batch, 0.0
    raise TypeError("hamiltonian must be callable or a TimeDependentHamiltonian")


def _step_grid(
    duration: float, steps: int, breakpoints: Sequence[float], sample_times: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node times 0 = t_0 < ... < t_n = T, which steps end at a breakpoint or T,
    and the node index of each sample time.

    Steps are distributed over the sub-intervals proportionally to length so
    discontinuous envelopes never straddle a step; sample times become
    nodes too, except that one within ``_SNAP`` of the local step of a node
    is taken as that node.
    """
    pts = [0.0] + sorted(p for p in set(breakpoints) if 0.0 < p < duration) + [duration]
    nodes = [0.0]
    for lo, hi in zip(pts[:-1], pts[1:]):
        n = max(1, int(round(steps * (hi - lo) / duration)))
        nodes.extend(np.linspace(lo, hi, n + 1)[1:])
    nodes = np.asarray(nodes)
    marks = np.zeros(0, dtype=int)
    if sample_times is not None:
        i = np.clip(np.searchsorted(nodes, sample_times), 1, nodes.size - 1)
        lo, hi = nodes[i - 1], nodes[i]
        tol = _SNAP * (hi - lo)
        snapped = np.where(sample_times - lo <= tol, lo, np.where(hi - sample_times <= tol, hi, sample_times))
        nodes = np.unique(np.concatenate([nodes, snapped]))
        marks = np.searchsorted(nodes, snapped)
    return nodes, np.isin(nodes[1:], pts[1:]), marks


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """Product mats[-1] @ ... @ mats[0] via an order-preserving tree reduction."""
    while mats.shape[0] > 1:
        if mats.shape[0] % 2:
            tail = mats[-1]
            mats = np.matmul(mats[1::2], mats[:-1:2])
            mats = np.concatenate([mats, tail[None]])
        else:
            mats = np.matmul(mats[1::2], mats[::2])
    return mats[0]


def _propagate(
    hamiltonian,
    duration: float,
    steps: int | None,
    breakpoints: Sequence[float],
    sample_times: Sequence[float] | None,
    steps_per_period: int,
    repetitions: int,
    step_factors: Callable[..., np.ndarray],
    dim: int,
) -> EvolutionResult:
    """Ordered product of per-step factors over one repetition, chunk by
    chunk, raised to the ``repetitions``-th power.

    ``steps`` budgets one repetition, [0, duration / repetitions].
    ``step_factors(batch, nodes, left)`` returns the (n, dim, dim) factors of
    the n steps between consecutive ``nodes``; ``left`` marks the steps that
    end at a breakpoint or at the end of the repetition.
    """
    require_step_floor(steps_per_period)
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if repetitions > 1 and sample_times is not None:
        raise ValueError("sample times need every repetition stepped through; give no repetition count with them")
    period = duration / repetitions
    batch, fmax = _resolve_hamiltonian(hamiltonian)
    floor = required_steps(fmax, period)
    if steps is None:
        steps = required_steps(fmax, period, steps_per_period)
    elif steps < floor:
        raise ValueError(
            f"step budget {steps} is below the Nyquist-style floor {floor} "
            f"for f_max = {fmax:.3e} Hz over {period:.3e} s"
        )
    times = None if sample_times is None else np.asarray(sample_times, dtype=float)
    if times is not None and (times.min(initial=0.0) < 0.0 or times.max(initial=0.0) > duration):
        raise ValueError(f"sample times must lie in [0, {duration:.3e}] s")
    nodes, left, marks = _step_grid(period, steps, breakpoints, times)
    n = nodes.size - 1
    chunk = max(1, CHUNK_BYTES // (16 * dim * dim))

    state = np.eye(dim, dtype=complex)
    snapshots = {0: state}
    for a in range(0, n, chunk):
        b = min(a + chunk, n)
        factors = step_factors(batch, nodes[a : b + 1], left[a:b])
        start = a
        for m in sorted({*marks[(marks > a) & (marks < b)].tolist(), b}):
            state = _ordered_product(factors[start - a : m - a]) @ state
            snapshots[m] = state
            start = m
    states = None if times is None else np.stack([snapshots[m] for m in marks])
    final = np.linalg.matrix_power(state, repetitions)  # repeated squaring
    return EvolutionResult(final=final, steps=n, repetitions=repetitions, times=times, states=states)


def _unitary_factors(batch, nodes: np.ndarray, left: np.ndarray) -> np.ndarray:
    dts = np.diff(nodes)
    return batched_mat_exp_skew(batch(nodes[:-1] + dts / 2.0), dts)


def propagate_unitary(
    hamiltonian,
    duration: float,
    steps: int | None = None,
    *,
    breakpoints: Sequence[float] = (),
    sample_times: Sequence[float] | None = None,
    steps_per_period: int = STEPS_PER_PERIOD,
    repetitions: int = 1,
) -> EvolutionResult:
    """Time-ordered propagator over [0, duration].

    ``hamiltonian`` is H(t) (callable, or a TimeDependentHamiltonian whose
    batch evaluator and frequency bound are used).  With ``sample_times``
    the intermediate propagators U(t_k, 0) are recorded as well.  With
    ``repetitions`` = N, H(t) repeats every duration / N: one repetition is
    integrated, on ``steps`` steps, and raised to the N-th power.
    """
    res = _propagate(
        hamiltonian, duration, steps, breakpoints, sample_times, steps_per_period, repetitions, _unitary_factors, 4
    )
    return replace(res, unitarity_defect=unitarity_defect(res.final))


# ---------------------------------------------------------------------------
# Lindblad evolution
# ---------------------------------------------------------------------------

_I2 = np.eye(2)
_P = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))

# projector collapse operators: |j><j| x I on qubit 1, I x |j'><j'| on qubit 2
COLLAPSE_Q1 = tuple(np.kron(p, _I2) for p in _P)
COLLAPSE_Q2 = tuple(np.kron(_I2, p) for p in _P)


def _vec(rho: np.ndarray) -> np.ndarray:
    return rho.flatten(order="F")


def _unvec(v: np.ndarray) -> np.ndarray:
    return v.reshape(4, 4, order="F")


def _liouvillians(h: np.ndarray, diss: np.ndarray) -> np.ndarray:
    """i(H^T (x) I - I (x) H) + D for a batch of H: vec(i(rho H - H rho)) + D vec(rho)."""
    out = np.zeros((h.shape[0], 4, 4, 4, 4), dtype=complex)  # [n, a, c, b, d] is row 4a+c, column 4b+d
    idx = np.arange(4)
    out[:, :, idx, :, idx] = 1j * h.transpose(0, 2, 1)  # H^T (x) I: the c = d entries hold H[b, a]
    out[:, idx, :, idx, :] -= 1j * h  # I (x) H: the a = b entries hold H[c, d]
    out = out.reshape(-1, 16, 16)
    out += diss
    return out


def _rk4_factors(batch, nodes: np.ndarray, left: np.ndarray, diss: np.ndarray) -> np.ndarray:
    """One classical RK4 step of the linear master equation per step, as a 16x16 matrix."""
    dts = np.diff(nodes)
    n = dts.size
    ends = nodes[1:][left] - _LEFT_LIMIT * dts[left]
    ls = _liouvillians(batch(np.concatenate([nodes, nodes[:-1] + dts / 2.0, ends])), diss)
    l0, lm = ls[:n], ls[n + 1 : 2 * n + 1]
    end_index = np.arange(1, n + 1)
    end_index[left] = np.arange(2 * n + 1, ls.shape[0])
    l1 = ls[end_index]
    dt = dts[:, None, None]
    eye = np.eye(16)
    k = lm @ (eye + 0.5 * dt * l0)
    acc = l0 + 2.0 * k
    k = lm @ (eye + 0.5 * dt * k)
    acc += 2.0 * k
    acc += l1 @ (eye + dt * k)
    return eye + dt / 6.0 * acc


def dephasing_dissipator(params: DeviceParams) -> np.ndarray:
    """Superoperator of the projector-dephasing dissipators.

    sum_s kappa (s rho s^dag - {s^dag s, rho}/2) over the projectors of each
    qubit is diagonal in the (column-stacked) vec basis: rho_ab decays at
    kappa_1 where the qubit-1 indices of a and b differ, plus kappa_2 where
    the qubit-2 indices differ.
    """
    a, b = np.arange(16) % 4, np.arange(16) // 4  # vec index a + 4 b holds rho_ab
    rates = np.zeros(16, dtype=complex)
    rates[a // 2 != b // 2] -= params.kappa_1
    rates[a % 2 != b % 2] -= params.kappa_2
    return np.diag(rates)


def _require_density_matrix(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError("density matrix must be 4x4")
    if abs(np.trace(rho) - 1.0) > 1e-8 or np.linalg.norm(rho - rho.conj().T) > 1e-8:
        raise ValueError("initial state is not a valid density matrix (trace/Hermiticity)")
    if np.linalg.eigvalsh(rho).min() < -1e-9:
        raise ValueError("initial state is not positive semidefinite")
    return rho


def lindblad_superoperator(
    hamiltonian,
    params: DeviceParams,
    duration: float,
    steps: int | None = None,
    *,
    breakpoints: Sequence[float] = (),
    steps_per_period: int = STEPS_PER_PERIOD,
    sample_times: Sequence[float] | None = None,
    repetitions: int = 1,
) -> EvolutionResult:
    """RK4-integrated propagation superoperator S with vec(rho_T) = S vec(rho_0).

    One integration serves any number of initial states.  ``repetitions``
    is as for :func:`propagate_unitary`.
    """
    rk4 = partial(_rk4_factors, diss=dephasing_dissipator(params))
    return _propagate(hamiltonian, duration, steps, breakpoints, sample_times, steps_per_period, repetitions, rk4, 16)


def apply_superoperator(s: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return _unvec(s @ _vec(np.asarray(rho, dtype=complex)))


def propagate_lindblad(
    hamiltonian,
    params: DeviceParams,
    rho0: np.ndarray,
    duration: float,
    steps: int | None = None,
    *,
    breakpoints: Sequence[float] = (),
    sample_times: Sequence[float] | None = None,
) -> EvolutionResult:
    """Open-system evolution of one density matrix under projector dephasing,
    at the step floor unless ``steps`` is given.

    Trace deviation is reported, never silently renormalized.
    """
    rho0 = _require_density_matrix(rho0)
    res = lindblad_superoperator(
        hamiltonian, params, duration, steps, breakpoints=breakpoints, sample_times=sample_times
    )
    rho_t = apply_superoperator(res.final, rho0)
    states = None
    if res.states is not None:
        states = np.stack([apply_superoperator(s, rho0) for s in res.states])
    trace_defect = abs(np.trace(rho_t).real - 1.0) + abs(np.trace(rho_t).imag)
    min_eig = float(np.linalg.eigvalsh((rho_t + rho_t.conj().T) / 2.0).min())
    return EvolutionResult(
        final=rho_t,
        steps=res.steps,
        times=res.times,
        states=states,
        trace_defect=trace_defect,
        min_eigenvalue=min_eig,
    )


# ---------------------------------------------------------------------------
# Trajectory export (population curves)
# ---------------------------------------------------------------------------

TRAJECTORY_CSV_HEADER = (
    "t_ns,pop_00,pop_01,pop_10,pop_11,coh_00_01,coh_00_10,coh_00_11,coh_01_10,coh_01_11,coh_10_11"
)


def trajectory_rows(times: np.ndarray, rhos: np.ndarray):
    """Populations and coherence magnitudes of sampled density matrices."""
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for t, rho in zip(times, rhos):
        pops = [float(rho[i, i].real) for i in range(4)]
        cohs = [float(abs(rho[i, j])) for i, j in pairs]
        yield (t * 1e9, *pops, *cohs)

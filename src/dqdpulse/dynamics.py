"""Time-ordered closed-system propagation and Lindblad open-system evolution.

Closed systems use a midpoint exponential product
U <- exp(-i H(t + dt/2) dt) U, which is unitary by construction at every
step and second-order accurate.  Open systems integrate the vectorized
master equation with classical RK4 on the 16x16 superoperator, so a
1600-state fidelity grid costs one integration plus cheap linear algebra.

Step budgets are guarded by a Nyquist-style floor: dt <= 1/(50 f_max)
with f_max the fastest frequency present (twice the carrier for
counter-rotating residues).  Requests below the floor are rejected with
the required minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebra import batched_mat_exp_skew, unitarity_defect
from .device import DeviceParams, TimeDependentHamiltonian

STEPS_PER_PERIOD = 50


@dataclass(frozen=True)
class EvolutionResult:
    """Outcome of one propagation."""

    final: np.ndarray  # propagator (closed) or density matrix (open)
    steps: int
    times: np.ndarray | None = None
    states: np.ndarray | None = None  # sampled propagators / density matrices
    unitarity_defect: float = 0.0
    trace_defect: float = 0.0
    min_eigenvalue: float = 0.0


def required_steps(max_frequency_hz: float, duration: float, steps_per_period: int = STEPS_PER_PERIOD) -> int:
    """Step floor resolving the fastest oscillation present."""
    if max_frequency_hz <= 0.0:
        return 16
    return max(16, int(math.ceil(steps_per_period * max_frequency_hz * duration)))


def _resolve_hamiltonian(h) -> tuple[Callable[[np.ndarray], np.ndarray], float]:
    if isinstance(h, TimeDependentHamiltonian):
        return h.matrices, h.max_frequency_hz
    if callable(h):
        def batch(ts: np.ndarray) -> np.ndarray:
            return np.stack([np.asarray(h(t), dtype=complex) for t in np.atleast_1d(ts)])

        return batch, 0.0
    raise TypeError("hamiltonian must be callable or a TimeDependentHamiltonian")


def _step_grid(duration: float, steps: int, breakpoints: Sequence[float]) -> np.ndarray:
    """Node times 0 = t_0 < ... < t_n = T with breakpoints on nodes.

    Steps are distributed over the sub-intervals proportionally to length so
    discontinuous envelopes never straddle a step.
    """
    pts = [0.0] + sorted(p for p in set(breakpoints) if 0.0 < p < duration) + [duration]
    nodes = [0.0]
    for lo, hi in zip(pts[:-1], pts[1:]):
        n = max(1, int(round(steps * (hi - lo) / duration)))
        nodes.extend(np.linspace(lo, hi, n + 1)[1:])
    return np.asarray(nodes)


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


def propagate_unitary(
    hamiltonian,
    duration: float,
    steps: int | None = None,
    *,
    breakpoints: Sequence[float] = (),
    sample_times: Sequence[float] | None = None,
    steps_per_period: int = STEPS_PER_PERIOD,
) -> EvolutionResult:
    """Time-ordered propagator over [0, duration].

    ``hamiltonian`` is H(t) (callable, or a TimeDependentHamiltonian whose
    batch evaluator and frequency bound are used).  With ``sample_times``
    the intermediate propagators U(t_k, 0) are recorded as well.
    """
    batch, fmax = _resolve_hamiltonian(hamiltonian)
    floor = required_steps(fmax, duration, steps_per_period)
    if steps is None:
        steps = floor
    elif steps < floor:
        raise ValueError(
            f"step budget {steps} is below the Nyquist-style floor {floor} "
            f"for f_max = {fmax:.3e} Hz over {duration:.3e} s"
        )
    nodes = _step_grid(duration, steps, breakpoints)
    if sample_times is not None:
        nodes = np.unique(np.concatenate([nodes, np.asarray(sample_times, dtype=float)]))
    dts = np.diff(nodes)
    mids = nodes[:-1] + dts / 2.0
    factors = batched_mat_exp_skew(batch(mids), dts)

    states = None
    times = None
    if sample_times is None:
        u = _ordered_product(factors)
    else:
        times = np.asarray(sample_times, dtype=float)
        marks = np.searchsorted(nodes, times)
        snapshots: dict[int, np.ndarray] = {}
        u = np.eye(4, dtype=complex)
        start = 0
        for m in sorted(set(marks.tolist())):
            if m > start:
                u = _ordered_product(factors[start:m]) @ u
                start = m
            snapshots[m] = u.copy()
        if start < factors.shape[0]:
            u = _ordered_product(factors[start:]) @ u
        states = np.stack([snapshots[m] for m in marks])
    defect = unitarity_defect(u)
    return EvolutionResult(
        final=u,
        steps=len(dts),
        times=times,
        states=states,
        unitarity_defect=defect,
    )


# ---------------------------------------------------------------------------
# Lindblad evolution
# ---------------------------------------------------------------------------

_I2 = np.eye(2)
_P = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
_I4 = np.eye(4)

# projector collapse operators: |j><j| x I on qubit 1, I x |j'><j'| on qubit 2
COLLAPSE_Q1 = tuple(np.kron(p, _I2) for p in _P)
COLLAPSE_Q2 = tuple(np.kron(_I2, p) for p in _P)


def _vec(rho: np.ndarray) -> np.ndarray:
    return rho.flatten(order="F")


def _unvec(v: np.ndarray) -> np.ndarray:
    return v.reshape(4, 4, order="F")


def _unitary_liouvillian(h: np.ndarray) -> np.ndarray:
    # vec(i(rho H - H rho)) with column stacking
    return 1j * (np.kron(h.T, _I4) - np.kron(_I4, h))


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


def _require_density_matrix(rho: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError("density matrix must be 4x4")
    if abs(np.trace(rho) - 1.0) > 1e-8 or np.linalg.norm(rho - rho.conj().T) > 1e-8:
        raise ValueError("initial state is not a valid density matrix (trace/Hermiticity)")
    if np.linalg.eigvalsh(rho).min() < -tol:
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
) -> EvolutionResult:
    """RK4-integrated propagation superoperator S with vec(rho_T) = S vec(rho_0).

    One integration serves any number of initial states.
    """
    batch, fmax = _resolve_hamiltonian(hamiltonian)
    floor = required_steps(fmax, duration, steps_per_period)
    if steps is None:
        steps = floor
    elif steps < floor:
        raise ValueError(
            f"step budget {steps} is below the Nyquist-style floor {floor} "
            f"for f_max = {fmax:.3e} Hz over {duration:.3e} s"
        )
    sample_set = None if sample_times is None else np.asarray(sample_times, dtype=float)
    diss = dephasing_dissipator(params)

    # Integrate per sub-interval between breakpoints so every RK4 stage
    # samples the correct side of envelope jumps: the endpoint evaluation of
    # each sub-interval is nudged inward by a negligible fraction of a step
    # (the schedule dispatch is right-continuous at boundaries).
    pts = [0.0] + sorted(p for p in set(breakpoints) if 0.0 < p < duration) + [duration]
    s = np.eye(16, dtype=complex)
    sampled = []
    total_steps = 0
    for lo, hi in zip(pts[:-1], pts[1:]):
        n = max(1, int(round(steps * (hi - lo) / duration)))
        nodes = np.linspace(lo, hi, n + 1)
        if sample_set is not None:
            inside = sample_set[(sample_set > lo) & (sample_set < hi)]
            nodes = np.unique(np.concatenate([nodes, inside]))
        eval_nodes = nodes.copy()
        eval_nodes[-1] = hi - 1e-9 * (hi - lo) / n
        mids = nodes[:-1] + np.diff(nodes) / 2.0
        h_nodes = batch(eval_nodes)
        h_mids = batch(mids)
        l_next = _unitary_liouvillian(h_nodes[0]) + diss
        for k in range(nodes.size - 1):
            dt = nodes[k + 1] - nodes[k]
            l0 = l_next
            lm = _unitary_liouvillian(h_mids[k]) + diss
            l1 = _unitary_liouvillian(h_nodes[k + 1]) + diss
            l_next = l1
            k1 = l0 @ s
            k2 = lm @ (s + 0.5 * dt * k1)
            k3 = lm @ (s + 0.5 * dt * k2)
            k4 = l1 @ (s + dt * k3)
            s = s + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            total_steps += 1
            if sample_set is not None and np.any(
                np.isclose(nodes[k + 1], sample_set, rtol=0.0, atol=1e-18 + 1e-12 * duration)
            ):
                sampled.append(s.copy())
    return EvolutionResult(
        final=s,
        steps=total_steps,
        times=sample_set,
        states=np.stack(sampled) if sampled else None,
    )


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
    steps_per_period: int = STEPS_PER_PERIOD,
    sample_times: Sequence[float] | None = None,
) -> EvolutionResult:
    """Open-system evolution of one density matrix under projector dephasing.

    Trace deviation is reported, never silently renormalized.
    """
    rho0 = _require_density_matrix(rho0)
    res = lindblad_superoperator(
        hamiltonian,
        params,
        duration,
        steps,
        breakpoints=breakpoints,
        steps_per_period=steps_per_period,
        sample_times=sample_times,
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


def trajectory_to_csv(path, times: np.ndarray, rhos: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write(TRAJECTORY_CSV_HEADER + "\n")
        for row in trajectory_rows(times, rhos):
            fh.write(",".join(f"{v:.12g}" for v in row) + "\n")

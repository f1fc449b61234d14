"""Average gate fidelity over product-state grids.

The benchmark averages the per-state overlap between the ideal final
state |psi_f> = U_target |psi_0> and the realized evolution over a grid
of separable initial states

    |psi_0> = cosPhi1 cosPhi2 |00> + cosPhi1 sinPhi2 e^{i phi1} |01>
            + sinPhi1 cosPhi2 e^{i phi2} |10> + sinPhi1 sinPhi2 e^{i phi3} |11>

with Phi1, Phi2 each taking n equally spaced values in [0, 2pi), endpoint
excluded.  Two per-state conventions are kept: "standard" uses
<psi_f|rho|psi_f> (the pure-state overlap squared); "paper" squares that
number once more.  The standard convention is the default; it is the one
that reproduces the reference fidelity tables.

A per-state fidelity is a trigonometric polynomial in each grid angle with
the even frequencies of ``FREQUENCIES``: up to 4 (standard) or 8 (paper).
The n-point periodic trapezoid rule integrates e^{ik Phi} exactly unless n
divides k (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)), so the grid
mean is the exact average over (Phi1, Phi2) for every other n; n = 5 (25
states) is the smallest grid exact under both conventions.
``require_exact_grid`` rejects the other sizes; ``build_grid`` takes any.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import TWO_PI, unitarity_defect

FREQUENCIES = {"standard": (2, 4), "paper": (2, 4, 6, 8)}


@dataclass(frozen=True)
class InitialStateGrid:
    """n^2 normalized product states with fixed relative phases."""

    n: int
    phases: tuple[float, float, float]
    states: np.ndarray  # (n^2, 4) complex

    @property
    def size(self) -> int:
        return self.states.shape[0]


def require_exact_grid(n: int, convention: str) -> None:
    """Raise ``ValueError`` unless the n-point grid mean is exact under ``convention``."""
    freqs = FREQUENCIES[convention]
    if n < 1 or any(k % n == 0 for k in freqs):
        raise ValueError(f"inexact grid_n: it must be >= 1 and divide no {convention} frequency {freqs}")


def build_grid(n: int, phases: Sequence[float] = (0.0, 0.0, 0.0)) -> InitialStateGrid:
    """Product-state grid with relative phases (phi1, phi2, phi3) on |01>, |10>, |11>."""
    if n < 1:
        raise ValueError("grid needs n >= 1")
    p1, p2, p3 = (float(p) for p in phases)
    angles = np.linspace(0.0, TWO_PI, n, endpoint=False)
    c, s = np.cos(angles), np.sin(angles)
    # outer products over the two qubit angles
    a00 = np.outer(c, c)
    a01 = np.outer(c, s) * np.exp(1j * p1)
    a10 = np.outer(s, c) * np.exp(1j * p2)
    a11 = np.outer(s, s) * np.exp(1j * p3)
    states = np.stack([a00.ravel(), a01.ravel(), a10.ravel(), a11.ravel()], axis=1)
    return InitialStateGrid(n=n, phases=(p1, p2, p3), states=states)


@dataclass(frozen=True)
class FidelityReport:
    """Average fidelity of one gate configuration."""

    fidelity: float
    per_state: np.ndarray
    scheme: str = ""
    n_reps: int = 1
    gate_time: float = 0.0
    convention: str = "standard"
    rabi_delta: float = 0.0
    detuning_eps: float = 0.0
    phases: tuple[float, float, float] = (0.0, 0.0, 0.0)
    delta_ez: float = 0.0

    def __post_init__(self) -> None:
        if abs(self.fidelity - float(np.mean(self.per_state))) > 1e-12:
            raise ValueError("report fidelity must equal the per-state mean")


def _per_state_unitary(u: np.ndarray, target: np.ndarray, states: np.ndarray) -> np.ndarray:
    final = states @ u.T
    ideal = states @ target.T
    return np.abs(np.einsum("ij,ij->i", ideal.conj(), final)) ** 2


def _vec_projectors(states: np.ndarray) -> np.ndarray:
    # column-stacked vec(|psi><psi|): entry a + 4 b is psi_a psi_b^*
    return (states.conj()[:, :, None] * states[:, None, :]).reshape(-1, 16)


def _per_state_superop(s: np.ndarray, target: np.ndarray, states: np.ndarray) -> np.ndarray:
    # <psi_f| rho_t |psi_f> = vec(|psi_f><psi_f|)^dag vec(rho_t)
    ideal = _vec_projectors(states @ target.T)
    return np.einsum("kj,kj->k", ideal.conj(), _vec_projectors(states) @ s.T).real


def average_fidelity(
    channel: np.ndarray,
    target: np.ndarray,
    grid: InitialStateGrid,
    convention: str = "standard",
    **report_fields,
) -> FidelityReport:
    """Average fidelity of a channel against a unitary target over a grid.

    ``channel`` is a 4x4 propagator (pure-state evolution per grid state) or
    a 16x16 Lindblad propagation superoperator (density-matrix evolution).
    """
    if convention not in FREQUENCIES:
        raise ValueError(f"convention must be one of {tuple(FREQUENCIES)}")
    target = np.asarray(target, dtype=complex)
    if unitarity_defect(target) > 1e-8:
        raise ValueError("fidelity target must be unitary")
    channel = np.asarray(channel, dtype=complex)
    if channel.shape == (4, 4):
        per_state = _per_state_unitary(channel, target, grid.states)
    elif channel.shape == (16, 16):
        per_state = _per_state_superop(channel, target, grid.states)
    else:
        raise ValueError("channel must be a 4x4 propagator or a 16x16 superoperator")
    if convention == "paper":
        per_state = per_state**2
    return FidelityReport(
        fidelity=float(np.mean(per_state)),
        per_state=per_state,
        convention=convention,
        phases=grid.phases,
        **report_fields,
    )


def analytic_rabi_fidelity(delta: float) -> float:
    """Closed-form fSim-gate fidelity under a fractional amplitude error.

    F = (25 + 7 cos(delta pi / 2)) / 32, specific to theta = pi/4,
    xi = pi/2.
    """
    return (25.0 + 7.0 * math.cos(delta * math.pi / 2.0)) / 32.0


REPORT_CSV_HEADER = (
    "scheme,N,delta_Ez_over_2pi_MHz,gate_time_ns,rabi_delta,detuning_eps,phi1,phi2,phi3,fidelity"
)


def report_row(report: FidelityReport) -> tuple:
    return (
        report.scheme,
        report.n_reps,
        report.delta_ez / TWO_PI / 1e6,
        report.gate_time * 1e9,
        report.rabi_delta,
        report.detuning_eps,
        report.phases[0],
        report.phases[1],
        report.phases[2],
        report.fidelity,
    )

"""Silicon double-quantum-dot Hamiltonians in lab and rotating frames.

The lab Hamiltonian (two-qubit basis {|00>, |01>, |10>, |11>}) combines
the mean Zeeman splitting E_z, the Zeeman difference delta_Ez, the
exchange coupling J, and transverse drive fields B_y^{L,R}.  Each
diagonal rotating frame has one constructor, returning the frame
Hamiltonian with the counter-rotating residues retained (rwa=False) or
dropped (rwa=True): the fSim frame serves the one-step and the geometric
fSim schemes, the two-frequency frame the B gate.  A new scheme needs a
constructor only if it rotates into a new frame.  ``frame_hamiltonian``
evaluates H(t) and adds a schedule's detuning error, once for all schemes.

Drive convention: a stored drive amplitude B_y^1 corresponds to the
physical field B_y^R(t) = 2 B_y^1 cos(omega_2 t + psi_1), mirroring the
J = 2 j cos(omega t + psi) convention, so the rotating-wave coupling is
exactly -i B_y^1 e^{i psi_1}.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import pulses
from .algebra import TWO_PI
from .pulses import PulseSchedule, detuning_perturbation
from .trajectories import PhysicalControls


@dataclass(frozen=True)
class DeviceParams:
    """Physical constants of the double dot (angular frequencies, seconds)."""

    e_z: float = TWO_PI * 20.64e9
    delta_ez: float = TWO_PI * 214e6
    j_max: float = TWO_PI * 19.7e6
    b_y_l0: float = TWO_PI * 5e6
    b_y_r0: float = TWO_PI * 55e6
    t2_q1: float = 120e-6
    t2_q2: float = 61e-6

    def __post_init__(self) -> None:
        for name in ("e_z", "delta_ez", "j_max", "b_y_l0", "b_y_r0", "t2_q1", "t2_q2"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be nonnegative")
        # gate times divide by both; T2 = 0 is the no-dephasing sentinel
        for name in ("delta_ez", "j_max"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")

    @property
    def kappa_1(self) -> float:
        return 1.0 / self.t2_q1 if self.t2_q1 > 0.0 else 0.0

    @property
    def kappa_2(self) -> float:
        return 1.0 / self.t2_q2 if self.t2_q2 > 0.0 else 0.0


DEFAULT_DEVICE = DeviceParams()

# JSON schema keys (frequencies in plain Hz; 2*pi applied on load).
_JSON_KEYS = {
    "e_z_hz": "e_z",
    "delta_e_z_hz": "delta_ez",
    "j_max_hz": "j_max",
    "b_y_l0_hz": "b_y_l0",
    "b_y_r0_hz": "b_y_r0",
    "t2_q1_s": "t2_q1",
    "t2_q2_s": "t2_q2",
}
_TIME_KEYS = {"t2_q1_s", "t2_q2_s"}


def load_device_params(path: str | os.PathLike) -> DeviceParams:
    """Read DeviceParams from a JSON document with frequencies in Hz."""
    with open(path) as fh:
        doc = json.load(fh)
    unknown = set(doc) - set(_JSON_KEYS)
    if unknown:
        raise ValueError(f"unknown device parameter keys: {sorted(unknown)}")
    kwargs = {}
    for key, attr in _JSON_KEYS.items():
        if key in doc:
            val = float(doc[key])
            kwargs[attr] = val if key in _TIME_KEYS else TWO_PI * val
    return DeviceParams(**kwargs)


def save_device_params(params: DeviceParams, path: str | os.PathLike) -> None:
    doc = {}
    for key, attr in _JSON_KEYS.items():
        val = getattr(params, attr)
        doc[key] = val if key in _TIME_KEYS else val / TWO_PI
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class FrameSpec:
    """Diagonal rotating-frame generator: U_frame(t) = exp(-i t diag(coeffs)).

    One angular-frequency coefficient per computational basis state.
    """

    coefficients: tuple[float, float, float, float]

    def unitary(self, t: float) -> np.ndarray:
        return np.diag(np.exp(-1j * np.asarray(self.coefficients) * t))

    def transform(self, h_lab: np.ndarray, t: float) -> np.ndarray:
        """U^dag H U - i U^dag dU/dt for this diagonal frame."""
        u = self.unitary(t)
        return u.conj().T @ h_lab @ u - np.diag(np.asarray(self.coefficients, dtype=complex))


def lab_hamiltonian(
    e_z: float, delta_ez: float, j: float, b_y_l: float = 0.0, b_y_r: float = 0.0
) -> np.ndarray:
    """Instantaneous lab-frame Hamiltonian of the double dot.

    ``j``, ``b_y_l``, ``b_y_r`` are the instantaneous values of the exchange
    and transverse fields (rad/s).
    """
    return np.array(
        [
            [e_z, -1j * b_y_r, -1j * b_y_l, 0.0],
            [1j * b_y_r, -(delta_ez + j) / 2.0, j / 2.0, -1j * b_y_l],
            [1j * b_y_l, j / 2.0, (delta_ez - j) / 2.0, -1j * b_y_r],
            [0.0, 1j * b_y_l, 1j * b_y_r, -e_z],
        ],
        dtype=complex,
    )


class TimeDependentHamiltonian:
    """H(t) with a vectorized batch evaluator, as the propagators expect."""

    def __init__(self, single: Callable[[float], np.ndarray], batch: Callable[[np.ndarray], np.ndarray], max_frequency_hz: float):
        self._single = single
        self._batch = batch
        self.max_frequency_hz = max_frequency_hz

    def __call__(self, t: float) -> np.ndarray:
        return self._single(t)

    def matrices(self, ts: np.ndarray) -> np.ndarray:
        return self._batch(np.asarray(ts, dtype=float))


def _fsim_frame_batch(schedule: PulseSchedule, ts: np.ndarray, rwa: bool) -> np.ndarray:
    """Rotating-frame Hamiltonian of the fSim schemes, one-step and geometric.

    Both are driven by J = 2 j cos(wt + psi) and share one frame, with the
    middle-block exchange diagonal zeroed: diag(E_z + j cos(wt + psi), 0, 0,
    j cos(wt + psi) - E_z) and coupling j e^{i psi}/2 in the (|01>, |10>)
    block; rwa=False keeps the counter-rotating residue j e^{-i(2wt + psi)}/2.
    Each segment's carrier (w, psi) is read, so psi = 0 gives the one-step gate.
    """
    j = schedule.envelope(ts)
    w, psi = schedule.carrier(ts)
    e_z = schedule.controls.e_z
    jc = j * np.cos(w * ts + psi)
    if rwa:
        cpl = (j / 2.0) * np.exp(1j * psi)
    else:
        cpl = (j / 2.0) * (np.exp(1j * psi) + np.exp(-1j * (2.0 * w * ts + psi)))
    out = np.zeros((ts.shape[0], 4, 4), dtype=complex)
    out[:, 0, 0] = e_z + jc
    out[:, 3, 3] = jc - e_z
    out[:, 1, 2] = cpl
    out[:, 2, 1] = np.conj(cpl)
    return out


def _bgate_frame_batch(schedule: PulseSchedule, ts: np.ndarray, rwa: bool) -> np.ndarray:
    """Rotating-frame Hamiltonian of the weak-exchange B-gate scheme.

    rwa=True: constant drive entries -i B_y^1 e^{i psi_1} on (|00>,|01>) and
    (|10>,|11>) plus exchange j/2 on (|01>,|10>), zero diagonal.  rwa=False
    keeps every oscillatory residue generated by the two-frequency frame.
    """
    j = schedule.envelope(ts)
    dez = schedule.controls.delta_ez
    amp, w2, psi1 = schedule.drive(ts)
    out = np.zeros((ts.shape[0], 4, 4), dtype=complex)
    if rwa:
        drive = -1j * amp * np.exp(1j * psi1)
        cpl = (j / 2.0).astype(complex)
    else:
        # (1,2)/(3,4): -i 2 B cos(w2 t + psi) e^{i w2 t}; (2,3): j cos(dez t) e^{-i dez t}
        drive = -1j * 2.0 * amp * np.cos(w2 * ts + psi1) * np.exp(1j * w2 * ts)
        cpl = j * np.cos(dez * ts) * np.exp(-1j * dez * ts)
    out[:, 0, 1] = drive
    out[:, 1, 0] = np.conj(drive)
    out[:, 2, 3] = drive
    out[:, 3, 2] = np.conj(drive)
    out[:, 1, 2] = cpl
    out[:, 2, 1] = np.conj(cpl)
    return out


def _fsim_frame(c: PhysicalControls) -> tuple[float, float, float, float]:
    # -i(w t/4) I x sigma_z + i(w t/4) sigma_z x I  ->  diag(0, -w/2, w/2, 0)
    return (0.0, -c.delta_ez / 2.0, c.delta_ez / 2.0, 0.0)


def _bgate_frame(c: PhysicalControls) -> tuple[float, float, float, float]:
    # exp[-i(w1 t/2) sigma_z x I - i(w2 t/2) I x sigma_z]
    return (c.e_z, -c.delta_ez / 2.0, c.delta_ez / 2.0, -c.e_z)


def _fsim_energy_shift(schedule: PulseSchedule, t: float) -> float:
    # the constructor zeroes the middle-block exchange diagonal
    ts = np.atleast_1d(float(t))
    w, psi = schedule.carrier(ts)
    return float(-(schedule.envelope(ts) * np.cos(w * ts + psi))[0])


@dataclass(frozen=True)
class Scheme:
    """Everything the pipeline needs to know about one gate scheme.

    ``build(theta, xi, duration, n_reps, eta, params)`` constructs the
    schedule; it looks its constructor up on ``pulses`` at call time, so
    wrappers installed on the module attribute see every build.
    ``frame_batch(schedule, ts, rwa)`` samples the designed pulse's
    rotating-frame H(t); ``frame_hamiltonian`` adds any detuning error.
    ``frame_coefficients(controls)`` is the diagonal frame generator and
    ``energy_shift(schedule, t)`` the scalar s(t) with
    H_constructor = FrameSpec.transform(H_lab, t) - s(t) I; identity shifts
    change only a global phase.  ``reference_time`` is the gate time the
    benchmark datasets use for the scheme.
    """

    build: Callable[..., PulseSchedule]
    frame_batch: Callable[[PulseSchedule, np.ndarray, bool], np.ndarray]
    frame_coefficients: Callable[[PhysicalControls], tuple[float, float, float, float]]
    energy_shift: Callable[[PulseSchedule, float], float]
    reference_time: float
    # one-step fSim: (theta, xi) limited to |theta| <= pi/2, |xi| <= pi, and
    # T capped below by the carrier condition delta_Ez = 2 N pi / T
    one_step: bool = False
    # lab Hamiltonian in the weak-exchange form (no exchange diagonal)
    weak_exchange: bool = False

    def frame(self, schedule: PulseSchedule) -> FrameSpec:
        return FrameSpec(self.frame_coefficients(schedule.controls))

    def exchange_capped_time(
        self, theta: float, xi: float, j_max: float, eta: float = -1.0 / 3.0, params: DeviceParams = DEFAULT_DEVICE
    ) -> float:
        """Smallest T such that max|J(t)| = j_max.

        Envelopes scale as 1/T, so T = max|J(t) T| / j_max, evaluated on a
        reference schedule at T = 1.
        """
        return 2.0 * self.build(theta, xi, 1.0, 1, eta, params).max_envelope() / j_max

    def gate_time(
        self, theta: float, xi: float, n_reps: int, eta: float, params: DeviceParams, duration: float | None = None
    ) -> float:
        """``duration``, or the exchange-capped time if unset, then the carrier cap."""
        if duration is None:
            duration = self.exchange_capped_time(theta, xi, params.j_max, eta, params)
        if self.one_step and 2.0 * n_reps * math.pi / duration > params.delta_ez:
            duration = 2.0 * n_reps * math.pi / params.delta_ez
        return duration


_FSIM = dict(frame_batch=_fsim_frame_batch, frame_coefficients=_fsim_frame, energy_shift=_fsim_energy_shift)

SCHEMES: dict[str, Scheme] = {
    "fsim_rect": Scheme(
        build=lambda theta, xi, duration, n_reps, eta, params: pulses.fsim_rectangular(theta, xi, duration, n_reps),
        reference_time=45e-9,
        one_step=True,
        **_FSIM,
    ),
    "fsim_poly": Scheme(
        build=lambda theta, xi, duration, n_reps, eta, params: pulses.fsim_polynomial(theta, xi, duration, n_reps, eta),
        reference_time=50e-9,
        one_step=True,
        **_FSIM,
    ),
    "bgate": Scheme(
        build=lambda theta, xi, duration, n_reps, eta, params: pulses.bgate_rectangular(
            duration, params.e_z, params.delta_ez
        ),
        frame_batch=_bgate_frame_batch,
        frame_coefficients=_bgate_frame,
        energy_shift=lambda schedule, t: 0.0,  # the frame already cancels the static diagonal
        reference_time=76e-9,
        weak_exchange=True,
    ),
    "fsim_geometric": Scheme(
        build=lambda theta, xi, duration, n_reps, eta, params: pulses.fsim_geometric(theta, xi, duration),
        reference_time=158e-9,
        **_FSIM,
    ),
}


def scheme_spec(name: str) -> Scheme:
    try:
        return SCHEMES[name]
    except KeyError:
        raise ValueError(f"unknown scheme {name!r}; choose from {tuple(SCHEMES)}") from None


def frame_hamiltonian(schedule: PulseSchedule, rwa: bool) -> TimeDependentHamiltonian:
    """Scheme-appropriate rotating-frame H(t) for a schedule.

    Adds ``detuning_perturbation`` when the schedule carries a detuning error.
    """
    construct = scheme_spec(schedule.scheme).frame_batch
    c = schedule.controls
    detuning = detuning_perturbation(c.e_z, c.delta_ez, schedule.detuning_eps)
    fmax = schedule.max_frequency_hz() if not rwa else max(
        seg.carrier_omega for seg in schedule.segments
    ) / TWO_PI

    def batch(ts: np.ndarray) -> np.ndarray:
        out = construct(schedule, ts, rwa)
        if schedule.detuning_eps:
            out += detuning
        return out

    return TimeDependentHamiltonian(
        single=lambda t: batch(np.atleast_1d(float(t)))[0],
        batch=batch,
        max_frequency_hz=fmax,
    )


def weak_exchange_lab_hamiltonian(e_z: float, delta_ez: float, j: float, b_y_r: float) -> np.ndarray:
    """Lab Hamiltonian in the weak-exchange regime (J << delta_Ez).

    The exchange contribution to the diagonal is dropped; only the flip-flop
    coupling J/2 and the right-dot drive survive.
    """
    return np.array(
        [
            [e_z, -1j * b_y_r, 0.0, 0.0],
            [1j * b_y_r, -delta_ez / 2.0, j / 2.0, 0.0],
            [0.0, j / 2.0, delta_ez / 2.0, -1j * b_y_r],
            [0.0, 0.0, 1j * b_y_r, -e_z],
        ],
        dtype=complex,
    )


def lab_hamiltonian_of_schedule(schedule: PulseSchedule, t: float) -> np.ndarray:
    """Instantaneous lab Hamiltonian realized by a schedule's fields.

    Exchange J(t) = 2 j cos(wt + psi); drive B_y^R(t) = 2 B_y^1
    cos(w2 t + psi_1); B_y^L = 0 for every scheme here.  Weak-exchange
    schemes drop the exchange diagonal; the others keep it.
    """
    ts = np.atleast_1d(float(t))
    j_t = float(schedule.exchange(ts)[0])
    amp, w2, ph = schedule.drive(ts)
    b_y_r = float(2.0 * amp[0] * np.cos(w2[0] * ts[0] + ph[0]))
    if scheme_spec(schedule.scheme).weak_exchange:
        return weak_exchange_lab_hamiltonian(schedule.controls.e_z, schedule.controls.delta_ez, j_t, b_y_r)
    return lab_hamiltonian(schedule.controls.e_z, schedule.controls.delta_ez, j_t, 0.0, b_y_r)

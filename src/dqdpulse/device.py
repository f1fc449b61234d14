"""Silicon double-quantum-dot Hamiltonians in lab and rotating frames.

The lab Hamiltonian (two-qubit basis {|00>, |01>, |10>, |11>}) combines
the mean Zeeman splitting E_z, the Zeeman difference delta_Ez, the
exchange coupling J, and transverse drive fields B_y^{L,R}: a static
diagonal plus J(t) M_J plus B_y^R(t) M_B.  Each scheme names a diagonal
rotating frame (the fSim frame serves the one-step and the geometric fSim
schemes, the two-frequency frame the B gate), and ``frame_hamiltonian``
derives the frame Hamiltonian from the lab one, for every scheme alike:
on each segment it is a short list of Fourier terms, each a frequency, a
constant 4x4 matrix and a flag for whether the envelope j(t) scales it.
The counter-rotating terms (twice a carrier) are kept (rwa=False) or
dropped (rwa=True), and a schedule's detuning error joins the static term.
A new scheme needs only its frame coefficients.

Drive convention: a stored drive amplitude B_y^1 corresponds to the
physical field B_y^R(t) = 2 B_y^1 cos(omega_2 t + psi_1), mirroring the
J = 2 j cos(omega t + psi) convention.  In the two-frequency frame the
co-rotating half of the drive is static, so the rotating-wave coupling on
(|00>, |01>) and (|10>, |11>) is -i B_y^1 e^{-i psi_1}, the time average
of the pre-RWA frame.
"""

from __future__ import annotations

import cmath
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import pulses
from .algebra import TWO_PI
from .pulses import PulseSchedule, Segment, detuning_perturbation
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
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative")
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


def read_json_object(path: str | os.PathLike, what: str) -> dict:
    """The JSON object at ``path``; a document that cannot be read, does not
    parse or is not an object is a ValueError naming ``what`` and the path."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read {what} {os.fspath(path)!r}: {getattr(exc, 'strerror', None) or exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{what} {os.fspath(path)!r} is not a JSON object")
    return doc


def load_device_params(path: str | os.PathLike) -> DeviceParams:
    """Read DeviceParams from a JSON document with frequencies in Hz."""
    doc = read_json_object(path, "device file")
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
    e_z: float, delta_ez: float, j: float, b_y_l: float = 0.0, b_y_r: float = 0.0, weak_exchange: bool = False
) -> np.ndarray:
    """Instantaneous lab-frame Hamiltonian of the double dot.

    ``j``, ``b_y_l``, ``b_y_r`` are the instantaneous values of the exchange
    and transverse fields (rad/s).  ``weak_exchange`` (J << delta_Ez) drops
    the exchange diagonal and keeps only the flip-flop coupling J/2.
    """
    jd = 0.0 if weak_exchange else j / 2.0
    return np.array(
        [
            [e_z, -1j * b_y_r, -1j * b_y_l, 0.0],
            [1j * b_y_r, -delta_ez / 2.0 - jd, j / 2.0, -1j * b_y_l],
            [1j * b_y_l, j / 2.0, delta_ez / 2.0 - jd, -1j * b_y_r],
            [0.0, 1j * b_y_l, 1j * b_y_r, -e_z],
        ],
        dtype=complex,
    )


@dataclass(frozen=True)
class FourierTerms:
    """A frame Hamiltonian as a short sum of Fourier terms on each segment.

    On segment s, H(t) = sum_k w_k(t) e^{i nu_k t} mats[s, k], where w_k is
    the segment's envelope j(t) for the terms ``scaled`` marks and 1 for
    the others.  Segment s covers [edges[s - 1], edges[s]), located as
    ``PulseSchedule.envelope`` locates it.
    """

    nus: np.ndarray  # (K,) angular frequencies
    scaled: np.ndarray  # (K,) bool
    mats: np.ndarray  # (S, K, 4, 4)
    segments: tuple[Segment, ...]
    edges: np.ndarray  # (S - 1,)

    def segment_index(self, ts: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.edges, ts, side="right")

    def envelope(self, ts: np.ndarray) -> np.ndarray:
        """j(t) at each time, from the segment holding it."""
        seg = self.segment_index(ts)
        present = np.flatnonzero(np.bincount(seg))
        if present.size == 1:  # a step chunk's times mostly lie on one segment
            return self.segments[present[0]].envelope(ts)
        j = np.empty(ts.size)
        for s in present:
            j[seg == s] = self.segments[s].envelope(ts[seg == s])
        return j

    def evaluate(self, ts: np.ndarray) -> np.ndarray:
        """H at each time: the (n, K) coefficients w_k(t) e^{i nu_k t} times each sample's (K, 16) terms."""
        rows = self.mats.reshape(len(self.segments), -1, 16)[self.segment_index(ts)]
        coef = np.exp(1j * np.multiply.outer(ts, self.nus)) * np.where(self.scaled, self.envelope(ts)[:, None], 1.0)
        return np.matmul(coef[:, None, :], rows).reshape(-1, 4, 4)


class TimeDependentHamiltonian:
    """H(t) with a vectorized batch evaluator, as the propagators expect.

    Built from ``terms``, as every frame Hamiltonian is, H(t) is their sum,
    and the propagators take the terms' coefficients and matrices without
    forming H; built from ``single`` and ``batch`` callables, H(t) is sampled.
    """

    def __init__(
        self,
        single: Callable[[float], np.ndarray] | None = None,
        batch: Callable[[np.ndarray], np.ndarray] | None = None,
        *,
        max_frequency_hz: float,
        terms: FourierTerms | None = None,
    ):
        self._single = single
        self._batch = batch
        self.max_frequency_hz = max_frequency_hz
        self.terms = terms

    def __call__(self, t: float) -> np.ndarray:
        if self._single is not None:
            return self._single(t)
        return self.matrices(np.array([float(t)]))[0]

    def matrices(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        return self._batch(ts) if self.terms is None else self.terms.evaluate(ts)


def _fsim_frame(c: PhysicalControls) -> tuple[float, float, float, float]:
    # -i(w t/4) I x sigma_z + i(w t/4) sigma_z x I  ->  diag(0, -w/2, w/2, 0)
    return (0.0, -c.delta_ez / 2.0, c.delta_ez / 2.0, 0.0)


def _bgate_frame(c: PhysicalControls) -> tuple[float, float, float, float]:
    # exp[-i(w1 t/2) sigma_z x I - i(w2 t/2) I x sigma_z]
    return (c.e_z, -c.delta_ez / 2.0, c.delta_ez / 2.0, -c.e_z)


@dataclass(frozen=True)
class Scheme:
    """Everything the pipeline needs to know about one gate scheme.

    ``build(theta, xi, duration, n_reps, eta, params)`` constructs the
    schedule; it looks its constructor up on ``pulses`` at call time, so
    wrappers installed on the module attribute see every build.
    ``frame_coefficients(controls)`` is the diagonal frame generator, from
    which ``frame_hamiltonian`` derives the rotating-frame H(t) of the lab
    Hamiltonian.  ``reference_time`` is the gate time the benchmark
    datasets use for the scheme.
    """

    build: Callable[..., PulseSchedule]
    frame_coefficients: Callable[[PhysicalControls], tuple[float, float, float, float]]
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
            if not duration > 0.0:
                raise ValueError(f"theta = {theta:g}, xi = {xi:g} needs no exchange; give a gate time")
        if self.one_step and 2.0 * n_reps * math.pi / duration > params.delta_ez:
            duration = 2.0 * n_reps * math.pi / params.delta_ez
        return duration


SCHEMES: dict[str, Scheme] = {
    "fsim_rect": Scheme(
        build=lambda theta, xi, duration, n_reps, eta, params: pulses.fsim_rectangular(theta, xi, duration, n_reps),
        frame_coefficients=_fsim_frame,
        reference_time=45e-9,
        one_step=True,
    ),
    "fsim_poly": Scheme(
        build=lambda theta, xi, duration, n_reps, eta, params: pulses.fsim_polynomial(theta, xi, duration, n_reps, eta),
        frame_coefficients=_fsim_frame,
        reference_time=50e-9,
        one_step=True,
    ),
    "bgate": Scheme(
        build=lambda theta, xi, duration, n_reps, eta, params: pulses.bgate_rectangular(
            duration, params.e_z, params.delta_ez
        ),
        frame_coefficients=_bgate_frame,
        reference_time=76e-9,
        weak_exchange=True,
    ),
    "fsim_geometric": Scheme(
        build=lambda theta, xi, duration, n_reps, eta, params: pulses.fsim_geometric(theta, xi, duration),
        frame_coefficients=_fsim_frame,
        reference_time=158e-9,
    ),
}


def scheme_spec(name: str) -> Scheme:
    try:
        return SCHEMES[name]
    except KeyError:
        raise ValueError(f"unknown scheme {name!r}; choose from {tuple(SCHEMES)}") from None


def _segment_terms(
    seg: Segment, coefficients: np.ndarray, static: np.ndarray, weak_exchange: bool, rwa: bool
) -> dict[tuple[float, bool], np.ndarray]:
    """{(nu, j-scaled): matrix} of the frame H(t) on one segment.

    The frame turns lab entry (a, b) by e^{i (c_a - c_b) t}; each carrier
    2 cos(w t + p) = e^{i(w t + p)} + e^{-i(w t + p)} adds +-w to that.
    RWA drops the terms at twice the carrier (the counter-rotating ones).
    """
    terms = {(0.0, False): static.copy()}
    fields = [(lab_hamiltonian(0.0, 0.0, 1.0, weak_exchange=weak_exchange), True, seg.carrier_omega, seg.carrier_phase)]
    if seg.drive_amp:
        fields.append((lab_hamiltonian(0.0, 0.0, 0.0, b_y_r=seg.drive_amp), False, seg.drive_omega, seg.drive_phase))
    c = coefficients.tolist()
    for m, scaled, w, p in fields:
        for a, b in zip(*np.nonzero(m)):
            for sign in (1.0, -1.0):
                nu = sign * w + (c[a] - c[b])
                if rwa and nu and math.isclose(abs(nu), 2.0 * w, rel_tol=1e-12):
                    continue
                if (nu, scaled) not in terms:
                    terms[nu, scaled] = np.zeros((4, 4), dtype=complex)
                terms[nu, scaled][a, b] += m[a, b] * cmath.exp(1j * sign * p)
    return terms


def frame_hamiltonian(schedule: PulseSchedule, rwa: bool) -> TimeDependentHamiltonian:
    """The scheme's rotating-frame H(t) of the lab Hamiltonian, as Fourier terms.

    The lab Hamiltonian is a static diagonal plus J(t) M_J plus B_y^R(t) M_B
    (``lab_hamiltonian``); the frame U = exp(-i t diag(c)) of the scheme
    gives U^dag H U - diag(c), one set of terms per segment.  The static
    term carries the schedule's detuning error.  f_max is the largest
    |nu| / 2 pi kept; under RWA at least the exchange carrier's, so a frame
    whose kept terms are all static keeps the step budget of the carrier
    it averages over.
    """
    spec = scheme_spec(schedule.scheme)
    c = schedule.controls
    coefficients = np.asarray(spec.frame_coefficients(c), dtype=float)
    static = lab_hamiltonian(c.e_z, c.delta_ez, 0.0) - np.diag(coefficients)
    static += detuning_perturbation(c.e_z, c.delta_ez, schedule.detuning_eps)
    distinct: dict[tuple, dict] = {}  # segments with the same carriers share their terms
    per_segment = []
    for seg in schedule.segments:
        key = (seg.carrier_omega, seg.carrier_phase, seg.drive_amp, seg.drive_omega, seg.drive_phase)
        if key not in distinct:
            distinct[key] = _segment_terms(seg, coefficients, static, spec.weak_exchange, rwa)
        per_segment.append(distinct[key])
    keys = sorted(set().union(*per_segment))
    mats = np.zeros((len(per_segment), len(keys), 4, 4), dtype=complex)
    for s, terms in enumerate(per_segment):
        for key, m in terms.items():
            mats[s, keys.index(key)] = m
    nus = np.array([nu for nu, _ in keys])
    fmax = float(np.abs(nus).max())
    if rwa:
        fmax = max(fmax, max(seg.carrier_omega for seg in schedule.segments))
    terms = FourierTerms(
        nus=nus,
        scaled=np.array([scaled for _, scaled in keys]),
        mats=mats,
        segments=schedule.segments,
        edges=np.array([seg.t_end for seg in schedule.segments[:-1]]),
    )
    return TimeDependentHamiltonian(max_frequency_hz=fmax / TWO_PI, terms=terms)


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
    c = schedule.controls
    return lab_hamiltonian(c.e_z, c.delta_ez, j_t, 0.0, b_y_r, weak_exchange=scheme_spec(schedule.scheme).weak_exchange)

"""Hamiltonian inverse engineering on four-level azimuth trajectories.

An azimuth trajectory prescribes the six 4D rotation angles
{gamma1, theta1, phi1, gamma2, theta2, phi2} and the three level phases
{vphi2, vphi3, vphi4} (vphi1 = 0) as smooth functions of time.  From it
this module builds

* the closed-form propagator U(t) = K(t) M_L M_R K(0)^dag, with M_L/M_R
  the left/right isoclinic factors, and
* the matching generator H(t) = i dU/dt U^dag = i K Omega K^dag - diag(dvphi/dt).
  The isoclinic factors commute, so Omega = dU_r/dt U_r^T = M_L(l) + M_R(r)
  with l = dq/dt q^-1 and r = p^-1 dp/dt the quaternions' angular
  velocities, each gamma' n + sin gamma cos gamma n' +- sin^2 gamma (n x n')
  (+ left, - right) for q = (cos gamma, sin gamma n); the six amplitudes
  Omega_ij are sums and differences of their components.

The generator and its amplitudes take a float time or an array of times,
with one formula: ``math``/``cmath`` for a float, numpy for an array, whose
results carry the array's shape (H is (n, 4, 4) for n times).  An array
needs TimeFunctions that act elementwise on arrays, as :func:`const` and
:func:`linear` do; the generator of one trajectory over a step grid is
then one batch evaluation.

It also solves the boundary-value constraints that turn an fSim(theta, xi)
or B-gate target into physical control parameters (frame frequencies plus
integral constraints on the exchange envelope j(t)).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .algebra import (
    Quaternion,
    azimuths_to_quaternions,
    isoclinic_left,
    isoclinic_right,
)

Times = float | np.ndarray
TimeFn = Callable[[Times], Times]


@dataclass(frozen=True)
class TimeFunction:
    """A scalar function of time bundled with its first derivative; on an
    array of times both should act elementwise."""

    value: TimeFn
    derivative: TimeFn

    def __call__(self, t: float) -> float:
        return self.value(t)


def const(c: float) -> TimeFunction:
    return TimeFunction(lambda t: c + 0.0 * t, lambda t: 0.0 * t)


def linear(rate: float) -> TimeFunction:
    return TimeFunction(lambda t: rate * t, lambda t: rate + 0.0 * t)


@dataclass(frozen=True)
class AzimuthTrajectory:
    """Time-dependent 4D azimuths plus level phases (vphi1 identically 0).

    For propagator construction gamma1(0) = gamma2(0) = 0 must hold so that
    U(0, 0) = I; :func:`parameterized_propagator` enforces it.
    """

    gamma1: TimeFunction
    theta1: TimeFunction
    phi1: TimeFunction
    gamma2: TimeFunction
    theta2: TimeFunction
    phi2: TimeFunction
    vphi2: TimeFunction = field(default_factory=lambda: const(0.0))
    vphi3: TimeFunction = field(default_factory=lambda: const(0.0))
    vphi4: TimeFunction = field(default_factory=lambda: const(0.0))

    def azimuths(self, t: float) -> tuple[float, ...]:
        return (
            self.gamma1(t), self.theta1(t), self.phi1(t),
            self.gamma2(t), self.theta2(t), self.phi2(t),
        )

    def quaternions(self, t: float) -> tuple[Quaternion, Quaternion]:
        return azimuths_to_quaternions(*self.azimuths(t))

    def level_phases(self, t: float) -> np.ndarray:
        return np.array([0.0, self.vphi2(t), self.vphi3(t), self.vphi4(t)])

    def k_matrix(self, t: float) -> np.ndarray:
        """Diagonal phase matrix K(t) = diag(e^{i vphi_n(t)})."""
        return np.diag(np.exp(1j * self.level_phases(t)))

    def rotation(self, t: float) -> np.ndarray:
        """Amplitude part U_r(t) = M_L(t) M_R(t), a real SO(4) matrix."""
        q, p = self.quaternions(t)
        return isoclinic_left(q) @ isoclinic_right(p)


def parameterized_propagator(traj: AzimuthTrajectory, t: float) -> np.ndarray:
    """Closed-form evolution operator K(t) M_L M_R K(0)^dag.

    Rejects trajectories violating gamma1(0) = gamma2(0) = 0, which is what
    guarantees U(0, 0) = I.
    """
    g10, g20 = traj.gamma1(0.0), traj.gamma2(0.0)
    if abs(g10) > 1e-12 or abs(g20) > 1e-12:
        raise ValueError(
            f"trajectory must start at gamma1(0) = gamma2(0) = 0, got ({g10:.3e}, {g20:.3e})"
        )
    return traj.k_matrix(t) @ traj.rotation(t).astype(complex) @ traj.k_matrix(0.0).conj().T


def _angular_velocity(
    gamma: TimeFunction, theta: TimeFunction, phi: TimeFunction, t: Times, sign: float
) -> tuple[Times, Times, Times]:
    """dq/dt q^-1 (``sign`` = +1) or q^-1 dq/dt (-1) for q = (cos gamma, sin gamma n(theta, phi)).

    Summed in the orthonormal frame (n, e_theta, e_phi), where
    n' = theta' e_theta + sin theta phi' e_phi and n x n' = theta' e_phi - sin theta phi' e_theta.
    """
    xp = np if isinstance(t, np.ndarray) else math
    g, th, ph = gamma.value(t), theta.value(t), phi.value(t)
    dg, dth, dph = gamma.derivative(t), theta.derivative(t), phi.derivative(t)
    sg, cg = xp.sin(g), xp.cos(g)
    st, ct = xp.sin(th), xp.cos(th)
    sp, cp = xp.sin(ph), xp.cos(ph)
    a = sg * cg * dth - sign * sg * sg * st * dph  # along e_theta = (-st, ct cp, ct sp)
    b = sg * cg * st * dph + sign * sg * sg * dth  # along e_phi = (0, -sp, cp)
    radial = dg * st + a * ct  # in the (y, z) plane, along (cp, sp)
    return dg * ct - a * st, radial * cp - b * sp, radial * sp + b * cp


def _amplitudes(traj: AzimuthTrajectory, t: Times) -> tuple[Times, ...]:
    """Omega_12, Omega_13, Omega_14, Omega_23, Omega_24, Omega_34."""
    l1, l2, l3 = _angular_velocity(traj.gamma1, traj.theta1, traj.phi1, t, 1.0)
    r1, r2, r3 = _angular_velocity(traj.gamma2, traj.theta2, traj.phi2, t, -1.0)
    return -(l1 + r1), -(l2 + r2), -(l3 + r3), r3 - l3, l2 - r2, r1 - l1


def coupling_amplitudes(traj: AzimuthTrajectory, t: Times) -> dict[str, Times]:
    """The six generator amplitudes Omega_ij = (dU_r/dt U_r^T)_{ij} = (M_L(l) + M_R(r))_{ij},
    each a float for a float ``t`` and an array of its shape for an array."""
    return dict(zip(("o12", "o13", "o14", "o23", "o24", "o34"), _amplitudes(traj, t)))


def parameterized_hamiltonian(traj: AzimuthTrajectory, t: Times) -> np.ndarray:
    """Generator i dU/dt U^dag = i K Omega K^dag - diag(dvphi/dt) (hbar = 1).

    (4, 4) for a float ``t``; (n, 4, 4) for an array of n times, which
    needs every TimeFunction of ``traj`` to act elementwise on arrays.
    """
    xp = np if isinstance(t, np.ndarray) else cmath
    o12, o13, o14, o23, o24, o34 = _amplitudes(traj, t)
    k2, k3, k4 = xp.exp(1j * traj.vphi2.value(t)), xp.exp(1j * traj.vphi3.value(t)), xp.exp(1j * traj.vphi4.value(t))
    c2, c3, c4 = k2.conjugate(), k3.conjugate(), k4.conjugate()
    h12, h13, h14 = 1j * o12 * c2, 1j * o13 * c3, 1j * o14 * c4
    h23, h24, h34 = 1j * k2 * o23 * c3, 1j * k2 * o24 * c4, 1j * k3 * o34 * c4
    h = np.array(
        [
            [0.0 * t, h12, h13, h14],
            [h12.conjugate(), -traj.vphi2.derivative(t), h23, h24],
            [h13.conjugate(), h23.conjugate(), -traj.vphi3.derivative(t), h34],
            [h14.conjugate(), h24.conjugate(), h34.conjugate(), -traj.vphi4.derivative(t)],
        ],
        dtype=complex,
    )
    return h if xp is cmath else np.moveaxis(h, (0, 1), (-2, -1))


# ---------------------------------------------------------------------------
# Gate targets and control solving
# ---------------------------------------------------------------------------


def fsim_matrix(theta: float, xi: float) -> np.ndarray:
    """fSim(theta, xi) in the {|00>, |01>, |10>, |11>} basis."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array(
        [
            [1, 0, 0, 0],
            [0, c, -1j * s, 0],
            [0, -1j * s, c, 0],
            [0, 0, 0, np.exp(1j * xi)],
        ],
        dtype=complex,
    )


@dataclass(frozen=True)
class GateTarget:
    """A gate family member with its intended evolution time."""

    kind: str  # "fsim" | "b1" | "b2" | "b"
    duration: float
    theta: float = 0.0
    xi: float = 0.0
    gamma: float = 0.0

    def __post_init__(self) -> None:
        if self.kind == "fsim":
            if abs(self.theta) > math.pi / 2 + 1e-12 or abs(self.xi) > math.pi + 1e-12:
                raise ValueError("fSim target outside |theta| <= pi/2, |xi| <= pi")

    def matrix(self) -> np.ndarray:
        from .kak import b_factor, b_gate  # local import avoids a cycle at module load

        if self.kind == "fsim":
            return fsim_matrix(self.theta, self.xi)
        if self.kind == "b1":
            return b_factor("B1", self.gamma)
        if self.kind == "b2":
            return b_factor("B2", self.gamma)
        if self.kind == "b":
            return b_gate()
        raise ValueError(f"unknown gate kind {self.kind!r}")


@dataclass(frozen=True)
class IntegralConstraint:
    """A required value of the integral of j(t) cos(omega t) over [t_start, t_end]
    on the exchange envelope; omega = 0 (cos 0 = 1 exactly) is the plain area.
    """

    label: str
    target: float
    omega: float = 0.0
    t_start: float = 0.0
    t_end: float | None = None  # None means the schedule duration


@dataclass(frozen=True)
class PhysicalControls:
    """Frame frequencies and envelope constraints realizing a gate target.

    Frequencies are angular (rad/s).  ``constraints`` are integral
    conditions any concrete pulse for this target must satisfy.
    """

    scheme: str
    duration: float
    e_z: float
    delta_ez: float
    constraints: tuple[IntegralConstraint, ...]
    target: GateTarget
    theta_shifted: bool = False  # Eq.-24-style completion: effective gate fSim(theta+pi, xi)
    drive_amp: float = 0.0  # B_y^1 (rad/s), B-gate schemes only
    drive_phase: float = 0.0

    def effective_target(self) -> np.ndarray:
        if self.scheme.startswith("fsim") and self.theta_shifted:
            return fsim_matrix(self.target.theta + math.pi, self.target.xi)
        return self.target.matrix()


def solve_fsim_controls(
    theta: float, xi: float, duration: float, n_reps: int = 1, *, shifted: bool = False
) -> PhysicalControls:
    """Physical parameters for a one-step fSim(theta, xi) gate.

    Returns E_z = xi/(2T) (plus pi/T when ``shifted``, which completes the
    range via fSim(theta + pi, xi)), the carrier delta_Ez = 2 N pi / T, and
    the two defining envelope integrals
    integral j dt = 2 theta and integral j cos(delta_Ez t) dt = -xi/2.
    """
    if duration <= 0.0:
        raise ValueError("gate duration must be positive")
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")
    target = GateTarget("fsim", duration, theta=theta, xi=xi)
    omega = 2.0 * n_reps * math.pi / duration
    e_z = xi / (2.0 * duration) + (math.pi / duration if shifted else 0.0)
    constraints = (
        IntegralConstraint("area", 2.0 * theta),
        IntegralConstraint("cosine_moment", -xi / 2.0, omega=omega),
    )
    return PhysicalControls(
        scheme="fsim",
        duration=duration,
        e_z=e_z,
        delta_ez=omega,
        constraints=constraints,
        target=target,
        theta_shifted=shifted,
    )


def solve_bgate_controls(
    kind: str,
    gamma: float,
    duration: float,
    omega1: float,
    omega2: float,
    j_level: float | None = None,
) -> PhysicalControls:
    """Physical parameters for a B1(gamma) or B2(gamma) factor.

    The drive amplitude is B_y^1 = j cot(arcsin(-gamma/pi)) / 4; at fixed
    envelope level j it diverges as gamma -> 0 and leaves the arcsin domain
    at gamma >= pi.  ``j_level`` defaults to the constant envelope
    -4 gamma / T implied by the area constraint.  The drive carrier phase
    is pi/2 for B1 and 0 for B2.
    """
    if kind not in ("B1", "B2"):
        raise ValueError("kind must be 'B1' or 'B2'")
    if gamma <= 0.0:
        raise ValueError(f"drive amplitude has a cot(arcsin 0) pole at gamma <= 0, got {gamma}")
    if gamma >= math.pi:
        raise ValueError(f"gamma/pi >= 1 leaves the arcsin domain, got {gamma}")
    if omega2 <= omega1:
        raise ValueError("need omega2 > omega1 (delta_Ez = omega2 - omega1 > 0)")
    if duration <= 0.0:
        raise ValueError("gate duration must be positive")
    ratio = -gamma / math.pi
    cot = math.cos(math.asin(ratio)) / ratio
    if j_level is None:
        j_level = -4.0 * gamma / duration
    drive_amp = j_level * cot / 4.0
    target = GateTarget("b1" if kind == "B1" else "b2", duration, gamma=gamma)
    constraints = (IntegralConstraint("area", -4.0 * gamma),)
    return PhysicalControls(
        scheme="bgate",
        duration=duration,
        e_z=(omega1 + omega2) / 2.0,
        delta_ez=omega2 - omega1,
        constraints=constraints,
        target=target,
        drive_amp=drive_amp,
        drive_phase=math.pi / 2.0 if kind == "B1" else 0.0,
    )

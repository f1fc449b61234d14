"""Fixed-dimension linear algebra for four-level two-qubit dynamics.

Everything downstream works with 4x4 complex matrices (Hamiltonians,
propagators, density matrices) and with the two unit quaternions that
factor a 4D rotation into its left- and right-isoclinic parts.  This
module collects those primitives plus the running Simpson integral behind
``pulses.error_sensitivity``.  Stacks of propagation steps are exponentiated
in real arithmetic: a complex matrix X + iY enters as its real form
[[X, -Y], [Y, X]], which numpy multiplies several times faster.

Conventions: hbar = 1 everywhere, so Hamiltonian entries are angular
frequencies (rad/s) and propagators are exp(-i H t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# Default tolerances; the require_* checks and Quaternion.is_unit accept an override.
HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10
UNIT_QUATERNION_TOL = 1e-12

# batched_expm: largest 1-norm summed by the Taylor series before
# scaling and squaring, and the bound on the truncated remainder.
_TAYLOR_THETA = 0.5
_TAYLOR_TOL = 2.0**-53


def hermiticity_defect(m: np.ndarray) -> float:
    """Frobenius norm of M - M^dagger."""
    return float(np.linalg.norm(m - m.conj().T))


def unitarity_defect(m: np.ndarray) -> float:
    """Frobenius norm of M^dagger M - I."""
    return float(np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0])))


def require_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> np.ndarray:
    defect = hermiticity_defect(m)
    if defect > tol:
        raise ValueError(f"matrix is not Hermitian: ||M - M^dag||_F = {defect:.3e} > {tol:.1e}")
    return m


def require_unitary(m: np.ndarray, tol: float = UNITARY_TOL) -> np.ndarray:
    defect = unitarity_defect(m)
    if defect > tol:
        raise ValueError(f"matrix is not unitary: ||M^dag M - I||_F = {defect:.3e} > {tol:.1e}")
    return m


@dataclass(frozen=True)
class Quaternion:
    """Real quaternion w + x i + y j + z k."""

    w: float
    x: float
    y: float
    z: float

    def norm(self) -> float:
        return math.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)

    def is_unit(self, tol: float = UNIT_QUATERNION_TOL) -> bool:
        return abs(self.w**2 + self.x**2 + self.y**2 + self.z**2 - 1.0) <= tol


def _require_unit(q: Quaternion) -> Quaternion:
    if not q.is_unit():
        raise ValueError(f"quaternion is not unit-normalized: |q|^2 - 1 = {q.norm()**2 - 1.0:.3e}")
    return q


def mat_exp_skew(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i H dt) for Hermitian H, exact via eigendecomposition.

    The 4x4 generators here are always Hermitian, so the spectral form is
    both exact and unconditionally unitary.  Non-Hermitian input (beyond
    100 * HERMITIAN_TOL in Frobenius norm) is rejected with the offending
    defect.
    """
    if not math.isfinite(dt):
        raise ValueError("dt must be finite")
    require_hermitian(h, HERMITIAN_TOL * 100)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * dt)) @ v.conj().T


def realify(m: np.ndarray) -> np.ndarray:
    """The real form [[X, -Y], [Y, X]] of each complex matrix X + iY in a
    stack (..., d, d), shape (..., 2d, 2d).

    The map is a ring homomorphism: it takes products to products and, so,
    exponentials to exponentials.  ``complexify`` inverts it.
    """
    d = m.shape[-1]
    r = np.empty(m.shape[:-2] + (2 * d, 2 * d))
    r[..., :d, :d] = r[..., d:, d:] = m.real
    r[..., :d, d:] = -m.imag
    r[..., d:, :d] = m.imag
    return r


def complexify(r: np.ndarray) -> np.ndarray:
    """X + iY from a stack of real forms [[X, -Y], [Y, X]], shape (..., d, d)."""
    d = r.shape[-1] // 2
    return r[..., :d, :d] + 1j * r[..., d:, :d]


def batched_expm(a: np.ndarray) -> np.ndarray:
    """exp(A_k) for a stack of real or complex matrices, shape (n, d, d).

    Truncated Taylor series with scaling and squaring (Al-Mohy & Higham,
    SIAM J. Matrix Anal. Appl. 31, 970 (2009)), shared by the whole stack:
    A is scaled by 2^-s so that nu = max_k ||A_k||_1 is at most
    ``_TAYLOR_THETA``, the degree m is the smallest whose remainder bound
    nu^(m+1)/(m+1)! e^nu is at most ``_TAYLOR_TOL``, the series is summed
    by Horner's rule and the result squared s times.  The bound holds for
    any matrix; for skew-Hermitian A (or its real form) the factors are
    unitary to rounding, not by construction.  Propagation steps sit near
    ||A||_1 = 1e-5 (midpoint) to 1e-4 (Magnus-Filon), where m = 3 costs
    two matrix products.

    The column sums of the norm are one contiguous reduction, and Horner's
    rule runs in two buffers, adding I on their diagonal in place: the
    array passes around the products cost more than the 8x8 products.
    The result is bit for bit that of the plain Horner sum I + (A E) / k.
    """
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite input is reported below
        nu = float(np.einsum("...ij->...j", np.abs(a)).max(initial=0.0))
    if not math.isfinite(nu):
        raise ValueError("cannot exponentiate: A has non-finite entries or 1-norm")
    squarings = 0
    if nu > _TAYLOR_THETA:
        squarings = math.ceil(math.log2(nu / _TAYLOR_THETA))
        a = a * 2.0**-squarings
        nu *= 2.0**-squarings
    m = 1
    while nu ** (m + 1) / math.factorial(m + 1) * math.exp(nu) > _TAYLOR_TOL:
        m += 1
    d = a.shape[-1]
    e = np.empty(a.shape, dtype=np.result_type(a, float))  # C order whatever a's layout: the diagonal view below
    spare = np.empty_like(e)
    np.divide(a, m, out=e)
    e.reshape(-1, d * d)[:, :: d + 1] += 1.0
    for k in range(m - 1, 0, -1):
        np.matmul(a, e, out=spare)
        if k & (k - 1):
            spare /= k
        elif k > 1:
            spare *= 1.0 / k  # the same rounding as / k for a power of two, at a third of the cost
        spare.reshape(-1, d * d)[:, :: d + 1] += 1.0
        e, spare = spare, e
    for _ in range(squarings):
        np.matmul(e, e, out=spare)
        e, spare = spare, e
    return e


def isoclinic_left(q: Quaternion) -> np.ndarray:
    """Left-isoclinic 4D rotation factor built from a unit quaternion."""
    _require_unit(q)
    qw, qx, qy, qz = q.w, q.x, q.y, q.z
    return np.array(
        [
            [qw, -qx, -qy, -qz],
            [qx, qw, -qz, qy],
            [qy, qz, qw, -qx],
            [qz, -qy, qx, qw],
        ]
    )


def isoclinic_right(p: Quaternion) -> np.ndarray:
    """Right-isoclinic 4D rotation factor built from a unit quaternion."""
    _require_unit(p)
    pw, px, py, pz = p.w, p.x, p.y, p.z
    return np.array(
        [
            [pw, -px, -py, -pz],
            [px, pw, pz, -py],
            [py, -pz, pw, px],
            [pz, py, -px, pw],
        ]
    )


def azimuths_to_quaternions(
    gamma1: float, theta1: float, phi1: float, gamma2: float, theta2: float, phi2: float
) -> tuple[Quaternion, Quaternion]:
    """Map the six 4D azimuth angles onto the two isoclinic quaternions.

    Unit norm holds analytically for any input angles.
    """
    q = Quaternion(
        math.cos(gamma1),
        math.sin(gamma1) * math.cos(theta1),
        math.sin(gamma1) * math.sin(theta1) * math.cos(phi1),
        math.sin(gamma1) * math.sin(theta1) * math.sin(phi1),
    )
    p = Quaternion(
        math.cos(gamma2),
        math.sin(gamma2) * math.cos(theta2),
        math.sin(gamma2) * math.sin(theta2) * math.cos(phi2),
        math.sin(gamma2) * math.sin(theta2) * math.sin(phi2),
    )
    return q, p


def phase_aligned_distance(u: np.ndarray, v: np.ndarray) -> float:
    """min over global phase of ||U - e^{i phi} V||_F.

    The optimal phase is arg tr(V^dag U).  Computed elementwise after
    aligning the phase: the closed form sqrt(2d - 2|tr|) loses half the
    significant digits near zero, which matters for 1e-8-level checks.
    """
    tr = np.trace(v.conj().T @ u)
    if abs(tr) == 0.0:
        return float(np.linalg.norm(u - v))
    phase = tr / abs(tr)
    return float(np.linalg.norm(u - phase * v))


def gate_infidelity(u: np.ndarray, v: np.ndarray) -> float:
    """Global-phase-invariant gate infidelity 1 - |tr(V^dag U)/d|^2."""
    d = u.shape[0]
    return float(1.0 - (abs(np.trace(v.conj().T @ u)) / d) ** 2)


def cumulative_simpson(ys: np.ndarray, h: float) -> np.ndarray:
    """Running Simpson integral of samples on a uniform grid of spacing ``h``.

    Returns len(ys) values starting at 0; ``ys`` needs an odd length of at
    least 3.  Each interval integrates the parabola through its two nodes
    and one neighbour: the next node for even intervals, the previous one
    for odd intervals (the scheme of scipy's ``cumulative_simpson``).
    """
    left, mid, right = ys[:-2:2], ys[1:-1:2], ys[2::2]
    parts = np.empty(len(ys) - 1, dtype=np.result_type(ys, float))
    parts[0::2] = (h / 12.0) * (5.0 * left + 8.0 * mid - right)
    parts[1::2] = (h / 12.0) * (8.0 * mid + 5.0 * right - left)
    return np.concatenate([[0.0], np.cumsum(parts)])

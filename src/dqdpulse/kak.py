"""Canonical two-qubit gates, B-gate factors, and local-equivalence checks.

Any U in SU(4) factors as (k1 x k2) A(c1, c2, c3) (k3 x k4) with single-
qubit k_i and the nonlocal part
A = exp((i/2) c1 XX) exp((i/2) c2 YY) exp((i/2) c3 ZZ).  Two B gates plus
six single-qubit gates suffice to realize any A (Zhang, Vala, Sastry &
Whaley, PRL 93, 020502 (2004)); this module builds that circuit in closed
form.  The middle locals follow from the interaction angles of
``beta_params``; the outer locals come from magic-basis KAK decompositions
(Kraus & Cirac, PRA 63, 062309 (2001)) of the target and of the B-(locals)-B
core, matched eigenvalue by eigenvalue.  Makhlin-style local invariants
serve as the local-equivalence certificate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import phase_aligned_distance, require_unitary

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_XX = np.kron(SIGMA_X, SIGMA_X)
_YY = np.kron(SIGMA_Y, SIGMA_Y)
_ZZ = np.kron(SIGMA_Z, SIGMA_Z)

# Bell ("magic") basis transformation
_MAGIC = (
    np.array(
        [
            [1, 0, 0, 1j],
            [0, 1j, 1, 0],
            [0, 1j, -1, 0],
            [1, 0, 0, -1j],
        ],
        dtype=complex,
    )
    / math.sqrt(2.0)
)


@dataclass(frozen=True)
class CanonicalParams:
    """Weyl-chamber coordinates of the nonlocal part (no normalization imposed)."""

    c1: float
    c2: float
    c3: float

    def __post_init__(self) -> None:
        for c in (self.c1, self.c2, self.c3):
            if not math.isfinite(c):
                raise ValueError("canonical parameters must be finite")


def canonical_gate(c: CanonicalParams) -> np.ndarray:
    """A(c1, c2, c3); the three exponentials commute, so ordering is free."""
    u = np.eye(4, dtype=complex)
    for coeff, pauli in ((c.c1, _XX), (c.c2, _YY), (c.c3, _ZZ)):
        # exp((i/2) c P) = cos(c/2) I + i sin(c/2) P for P^2 = I
        u = u @ (math.cos(coeff / 2.0) * np.eye(4) + 1j * math.sin(coeff / 2.0) * pauli)
    return u


def b_factor(kind: str, gamma: float) -> np.ndarray:
    """B1(gamma) = -exp(i gamma XX) or B2(gamma) = -exp(i gamma YY).

    These are the exponential definitions; they differ in the sign of the
    outer anti-diagonal entries and compose to B at (pi/4, pi/8).
    """
    if kind == "B1":
        pauli = _XX
    elif kind == "B2":
        pauli = _YY
    else:
        raise ValueError("kind must be 'B1' or 'B2'")
    return -(math.cos(gamma) * np.eye(4, dtype=complex) + 1j * math.sin(gamma) * pauli)


def b_gate() -> np.ndarray:
    """B = exp(i (pi/4) XX) exp(i (pi/8) YY) = B1(pi/4) B2(pi/8)."""
    return b_factor("B1", math.pi / 4.0) @ b_factor("B2", math.pi / 8.0)


def beta_params(c2: float, c3: float) -> tuple[float, float]:
    """Interaction angles (beta1, beta2) of the two-B-gate construction.

    cos(beta1) = 1 - 4 sin^2(c2/2) cos^2(c3/2);
    sin(beta2) = sqrt(cos c2 cos c3 / (1 - 2 sin^2(c2/2) cos^2(c3/2))).
    Both angles are evaluated as atan2 of half-angle square roots, with
    1 - 2 sin^2(c2/2) cos^2(c3/2) = sin^2(c3/2) + cos c2 cos^2(c3/2), so no
    digits cancel near the DCNOT edge (c2 = pi/2, c3 = 0).  There the beta2
    radicand is 0/0 and the formulas give beta1 = pi, beta2 = 0; at
    beta1 = pi the construction no longer depends on beta2.
    Raises if either inverse-trig argument leaves its domain.
    """
    sin2, cos2 = math.sin(c2 / 2.0), math.cos(c2 / 2.0)
    sin3, cos3 = math.sin(c3 / 2.0), math.cos(c3 / 2.0)
    denom = sin3 * sin3 + math.cos(c2) * cos3 * cos3
    cos_b1 = 2.0 * denom - 1.0
    if abs(cos_b1) > 1.0 + 1e-12:
        raise ValueError(f"cos(beta1) = {cos_b1} outside [-1, 1]")
    numer = math.cos(c2) * math.cos(c3)
    if numer < -1e-12:
        radicand = numer / denom if denom != 0.0 else -math.inf
        raise ValueError(f"sin(beta2) radicand = {radicand} outside [0, 1]")
    beta1 = 2.0 * math.atan2(math.sqrt(2.0) * abs(sin2 * cos3), math.sqrt(max(0.0, denom)))
    # cos^2(beta2) = 2 sin^2(c3/2) cos^2(c2/2) / denom
    beta2 = math.atan2(math.sqrt(max(0.0, numer)), math.sqrt(2.0) * abs(sin3 * cos2))
    return beta1, beta2


def local_invariants(u: np.ndarray) -> tuple[float, float, float]:
    """Makhlin-style invariants (Re g1, Im g1, g2), magic-basis form.

    Unchanged (to numerical precision) under single-qubit gates applied
    before or after ``u``.
    """
    require_unitary(np.asarray(u, dtype=complex), 1e-8)
    um = _MAGIC.conj().T @ u @ _MAGIC
    det = np.linalg.det(um)
    m = um.T @ um
    tr2 = np.trace(m) ** 2
    g1 = tr2 / (16.0 * det)
    g2 = (tr2 - np.trace(m @ m)) / (4.0 * det)
    return (float(g1.real), float(g1.imag), float(g2.real))


def weyl_coordinates(u: np.ndarray) -> CanonicalParams:
    """Canonical parameters of ``u`` in the chamber pi - c2 >= c1 >= c2 >= c3 >= 0.

    Read from the magic-basis spectrum: in the magic basis A(c) is diagonal
    with phases lambda = ((c1-c2+c3), (c1+c2-c3), -(c1+c2+c3), (-c1+c2+c3))/2,
    and U^T U carries exp(2 i lambda) for every U locally equivalent to A(c).
    Any assignment of the halved eigenphases, summing to zero, gives some
    equivalent c; the chamber point then follows from the symmetries of A:
    shifts of one c_k by pi, permutations, and sign flips of two c_k.
    """
    um = _MAGIC.conj().T @ u @ _MAGIC
    um = um / np.linalg.det(um) ** 0.25
    lam = np.sort(np.angle(np.linalg.eigvals(um.T @ um)) / 2.0)[::-1]
    # the halved phases are fixed mod pi; move whole multiples of pi off
    # the largest (or onto the smallest) so that they sum to zero
    shift = round(float(lam.sum()) / math.pi)
    if shift > 0:
        lam[:shift] -= math.pi
    elif shift < 0:
        lam[shift:] += math.pi
    c = np.array([lam[0] + lam[2], lam[1] + lam[2], lam[0] + lam[1]])
    c = (c + math.pi / 2.0) % math.pi - math.pi / 2.0
    c = c[np.argsort(-np.abs(c), kind="stable")]
    for k in (0, 1):
        if c[k] < 0.0:
            c[k], c[2] = -c[k], -c[2]
    if c[2] < 0.0:
        c = np.array([math.pi - c[0], c[1], -c[2]])
    return CanonicalParams(*(float(x) for x in c))


# ---------------------------------------------------------------------------
# Two-B-gate synthesis
# ---------------------------------------------------------------------------


def euler_zyz(a: float, b: float, g: float) -> np.ndarray:
    """SU(2) rotation exp(-i a Z/2) exp(-i b Y/2) exp(-i g Z/2)."""
    ca, sa = math.cos(a / 2.0), math.sin(a / 2.0)
    cb, sb = math.cos(b / 2.0), math.sin(b / 2.0)
    cg, sg = math.cos(g / 2.0), math.sin(g / 2.0)
    rz1 = np.array([[ca - 1j * sa, 0.0], [0.0, ca + 1j * sa]])
    ry = np.array([[cb, -sb], [sb, cb]], dtype=complex)
    rz2 = np.array([[cg - 1j * sg, 0.0], [0.0, cg + 1j * sg]])
    return rz1 @ ry @ rz2


def _sandwich(angles: np.ndarray, b: np.ndarray) -> np.ndarray:
    k = [euler_zyz(*angles[3 * i : 3 * i + 3]) for i in range(6)]
    return np.kron(k[0], k[1]) @ b @ np.kron(k[2], k[3]) @ b @ np.kron(k[4], k[5])


def _zyz_angles(u: np.ndarray) -> tuple[float, float, float]:
    """Inverse of ``euler_zyz`` for u in SU(2), in closed form.

    u = [[e^{-i(a+g)/2} cos(b/2), .], [e^{i(a-g)/2} sin(b/2), e^{i(a+g)/2} cos(b/2)]];
    at a pole the free combination of a and g multiplies a zero entry.
    """
    total, diff = float(np.angle(u[1, 1])), float(np.angle(u[1, 0]))
    return total + diff, 2.0 * math.atan2(abs(u[1, 0]), abs(u[0, 0])), total - diff


def _su2_factors(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) in SU(2) with k = a (x) b, for k in SU(2) (x) SU(2).

    Block (i, j) of k is a_ij b; the largest block fixes b up to sign, and
    a_ij = tr(b^dag block_ij) / 2.
    """
    blocks = k.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3)
    pivot = np.unravel_index(np.argmax(np.abs(blocks).sum(axis=(2, 3))), (2, 2))
    b = blocks[pivot] / np.sqrt(np.linalg.det(blocks[pivot]))
    return np.einsum("ijkl,kl->ij", blocks, b.conj()) / 2.0, b


def _magic_kak(u: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Magic-basis KAK: M^dag u M = O_L diag(d) O_R with O_L, O_R in SO(4).

    The real and imaginary parts of the symmetric unitary Q = u_M^T u_M
    commute, so the eigenvectors of Re Q + r Im Q diagonalize Q for all but
    finitely many r.  Returns (O_L, d, O_R, off-diagonal residue of Q in the
    eigenbasis); a residue far above rounding means r hit a bad value.
    """
    um = _MAGIC.conj().T @ u @ _MAGIC
    q = um.T @ um
    _, p = np.linalg.eigh(q.real + r * q.imag)
    if np.linalg.det(p) < 0.0:
        p[:, 0] = -p[:, 0]
    qd = p.T @ q @ p
    d = np.sqrt(np.diag(qd))
    # u_M P diag(1/d) is orthogonal and unitary, hence real
    o_left = (um @ p / d).real
    if np.linalg.det(o_left) < 0.0:
        o_left[:, 0], d[0] = -o_left[:, 0], -d[0]
    return o_left, d, p.T, float(np.abs(qd - np.diag(np.diag(qd))).max())


_PERMS = np.array(list(itertools.permutations(range(4))))


def synthesis_to_json(result: "SynthesisResult") -> str:
    """Ordered-gate-list JSON of a synthesized circuit."""
    import json

    doc = {
        "target_canonical": [result.params.c1, result.params.c2, result.params.c3],
        "residual": result.residual,
        "converged": result.converged,
        "beta": list(result.beta),
        "gates": result.circuit(),
    }
    return json.dumps(doc, indent=2)


@dataclass(frozen=True)
class SynthesisResult:
    """Outcome of the two-B-gate synthesis for one canonical target."""

    params: CanonicalParams
    residual: float
    angles: np.ndarray  # 6 x 3 Euler angles in matrix-product order: post, inter, pre
    beta: tuple[float, float]  # interaction angles of the middle locals
    converged: bool
    restarts_used: int

    def circuit(self) -> list[dict]:
        names = ["post_q1", "post_q2", "inter_q1", "inter_q2", "pre_q1", "pre_q2"]
        gates: list[dict] = []
        # circuit order is right-to-left of the matrix product
        gates.append({"gate": "local", "wire": "q1", "name": names[4], "euler_zyz": list(self.angles[12:15])})
        gates.append({"gate": "local", "wire": "q2", "name": names[5], "euler_zyz": list(self.angles[15:18])})
        gates.append({"gate": "B", "wires": ["q1", "q2"]})
        gates.append({"gate": "local", "wire": "q1", "name": names[2], "euler_zyz": list(self.angles[6:9])})
        gates.append({"gate": "local", "wire": "q2", "name": names[3], "euler_zyz": list(self.angles[9:12])})
        gates.append({"gate": "B", "wires": ["q1", "q2"]})
        gates.append({"gate": "local", "wire": "q1", "name": names[0], "euler_zyz": list(self.angles[0:3])})
        gates.append({"gate": "local", "wire": "q2", "name": names[1], "euler_zyz": list(self.angles[3:6])})
        return gates


def synthesize_via_b(
    c: CanonicalParams,
    *,
    restarts: int = 20,
    seed: int = 7,
) -> SynthesisResult:
    """Six single-qubit gates realizing A(c) as B-(locals)-B up to phase.

    Closed-form construction.  With (c1, c2, c3) the chamber coordinates of
    A(c) and (beta1, beta2) = ``beta_params(c2, c3)``, the middle locals
    exp(i c1 Y/2) (x) exp(i beta2 Z/2) exp(i beta1 Y/2) exp(i beta2 Z/2)
    make V = B (middle) B locally equivalent to A(c).  Magic-basis KAK
    decompositions of A(c) and V, with matched spectra, give the outer
    locals, which are factored into single-qubit gates and read off as ZYZ
    angles.  The KAK diagonalizes Re Q + r Im Q with r drawn from
    ``default_rng(seed)``; an r whose eigenbasis leaves Q off-diagonal
    above 1e-10 is redrawn, up to ``restarts`` draws (``restarts_used``).
    ``residual`` is the phase-aligned distance of the rebuilt circuit from
    A(c), and ``converged`` is ``residual <= 1e-6``.
    """
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    target = canonical_gate(c)
    chamber = weyl_coordinates(target)
    beta1, beta2 = beta_params(chamber.c2, chamber.c3)
    middle = [0.0, -chamber.c1, 0.0, -beta2, -beta1, -beta2]
    b = b_gate()
    core = b @ np.kron(euler_zyz(*middle[:3]), euler_zyz(*middle[3:])) @ b

    rng = np.random.default_rng(seed)
    for used in range(1, restarts + 1):
        r = rng.uniform(0.5, 2.0)
        left_u, d_u, right_u, off_u = _magic_kak(target, r)
        left_v, d_v, right_v, off_v = _magic_kak(core, r)
        if max(off_u, off_v) <= 1e-10:
            break

    # d_u = phase * signs * d_v[perm] with phase in {1, i} (the +-1 go into
    # signs) and a sign pattern of product +1, since both spectra have det 1
    candidates = np.concatenate([d_v[_PERMS], 1j * d_v[_PERMS]])
    signs = np.where((d_u * candidates.conj()).real >= 0.0, 1.0, -1.0)
    mismatch = np.abs(d_u - signs * candidates).max(axis=1)
    mismatch[signs.prod(axis=1) < 0.0] = np.inf
    best = int(np.argmin(mismatch))
    perm = np.eye(4)[_PERMS[best % len(_PERMS)]]
    if np.linalg.det(perm) < 0.0:
        # diag(-1, 1, 1, 1) commutes with diag(d_v) and keeps both sides in SO(4)
        perm[:, 0] = -perm[:, 0]
    # A_M = phase (O_L^U S P O_L^V^T) V_M (O_R^V^T P^T O_R^U)
    outer_left = _MAGIC @ (left_u * signs[best]) @ perm @ left_v.T @ _MAGIC.conj().T
    outer_right = _MAGIC @ right_v.T @ perm.T @ right_u @ _MAGIC.conj().T

    angles = np.array(
        [
            *(a for k in _su2_factors(outer_left) for a in _zyz_angles(k)),
            *middle,
            *(a for k in _su2_factors(outer_right) for a in _zyz_angles(k)),
        ]
    )
    residual = phase_aligned_distance(_sandwich(angles, b), target)
    return SynthesisResult(
        params=c,
        residual=residual,
        angles=angles,
        beta=(beta1, beta2),
        converged=bool(residual <= 1e-6),
        restarts_used=used,
    )

"""Time-ordered closed-system propagation and Lindblad open-system evolution.

One driver serves both: it resolves H(t), checks the step floor, builds
the step grid (breakpoints and sample times on nodes), and walks it in
memory-bounded chunks, each reduced to one ordered product, recording the
running product at every sample time.  Only the per-step factor differs,
and it is chosen by the kind of Hamiltonian:

* closed systems whose H is given as Fourier terms (every frame
  Hamiltonian is: ``device.frame_hamiltonian``) with a constant envelope
  on every segment stepped through -- ``fsim_rect``, ``fsim_geometric``
  and ``bgate``, with their Rabi and detuning errors -- take the
  fourth-order Magnus-Filon step (Iserles, BIT 42, 561 (2002); Blanes,
  Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)): on each segment
  H = sum_k G_k e^{i nu_k t}, and the first two Magnus terms of a step
  are sums of G_k and of their commutators [G_k, G_l] weighted by exact
  oscillatory integrals (``filon_weights``), so no H is sampled.  Its
  error is fourth order in the step once a step is shorter than the
  fastest period, which the floor guarantees;
* other closed systems -- ``fsim_poly``, whose envelope is a polynomial,
  plain callables, and a TimeDependentHamiltonian built from sampling
  callables -- use the midpoint exponential exp(-i H(t + dt/2) dt),
  second-order accurate;
* open systems use one classical RK4 step of the vectorized master
  equation, which is linear, so the step is the 16x16 matrix
  I + dt/6 (k1 + 2 k2 + 2 k3 + k4) with the k's taken at the identity.
  One superoperator serves a whole 1600-state fidelity grid.

Closed factors are exponentiated by a scaled Taylor series, unitary to
rounding, and ``propagate_unitary`` reports the product's unitarity
defect.  Without a budget, a run takes its rule's default
(``DEFAULT_STEPS_PER_PERIOD``): the floor of 50 steps per period for the
Magnus-Filon step, 200 for the midpoint and RK4 rules.  Every result
records its rule, steps, budget and f_max.

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
from .device import DeviceParams, FourierTerms, TimeDependentHamiltonian

STEPS_PER_PERIOD = 50

# Budget of each step rule when none is given, in steps per period of f_max:
# the Magnus-Filon step integrates the oscillations exactly and is fourth
# order, so the floor serves; the midpoint and RK4 rules keep 200.
DEFAULT_STEPS_PER_PERIOD = {"magnus_filon": STEPS_PER_PERIOD, "midpoint": 200, "rk4": 200}

# filon_weights sums its power series (where |nu h| <= 1) until the bound
# (n + 1) r^n / (n + 2)! on the next term, at radius r, is below this; the
# sums are then at least 1/4, so the remainder is below 2^-53 of them
_SERIES_TOL = 2.0**-56

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
    rule: str  # "magnus_filon", "midpoint" or "rk4"
    steps_per_period: int | None  # the budget's, None when a step count was given
    max_frequency_hz: float
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


def _resolve_hamiltonian(h) -> tuple[Callable[[np.ndarray], np.ndarray], float, FourierTerms | None]:
    if isinstance(h, TimeDependentHamiltonian):
        return h.matrices, h.max_frequency_hz, h.terms
    if callable(h):
        def batch(ts: np.ndarray) -> np.ndarray:
            return np.stack([np.asarray(h(t), dtype=complex) for t in np.atleast_1d(ts)])

        return batch, 0.0, None
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


# step_factors(nodes, left) -> factors(a, b): the (b - a, dim, dim) factors of
# steps a..b-1 of the grid; ``left`` marks the steps that end at a breakpoint
StepFactors = Callable[[np.ndarray, np.ndarray], Callable[[int, int], np.ndarray]]


def _propagate(
    fmax: float,
    rule: str,
    step_factors: StepFactors,
    duration: float,
    steps: int | None,
    breakpoints: Sequence[float],
    sample_times: Sequence[float] | None,
    steps_per_period: int | None,
    repetitions: int,
    dim: int,
) -> EvolutionResult:
    """Ordered product of per-step factors over one repetition, chunk by
    chunk, raised to the ``repetitions``-th power.

    ``steps`` budgets one repetition, [0, duration / repetitions]; without
    it, ``steps_per_period`` does, or else the rule's default budget.
    """
    if steps_per_period is None:
        steps_per_period = DEFAULT_STEPS_PER_PERIOD[rule]
    require_step_floor(steps_per_period)
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if repetitions > 1 and sample_times is not None:
        raise ValueError("sample times need every repetition stepped through; give no repetition count with them")
    period = duration / repetitions
    floor = required_steps(fmax, period)
    budget = steps_per_period if steps is None else None
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
    factors_of = step_factors(nodes, left)

    state = np.eye(dim, dtype=complex)
    snapshots = {0: state}
    for a in range(0, n, chunk):
        b = min(a + chunk, n)
        factors = factors_of(a, b)
        start = a
        for m in sorted({*marks[(marks > a) & (marks < b)].tolist(), b}):
            state = _ordered_product(factors[start - a : m - a]) @ state
            snapshots[m] = state
            start = m
    states = None if times is None else np.stack([snapshots[m] for m in marks])
    final = np.linalg.matrix_power(state, repetitions)  # repeated squaring
    return EvolutionResult(
        final=final,
        steps=n,
        rule=rule,
        steps_per_period=budget,
        max_frequency_hz=fmax,
        repetitions=repetitions,
        times=times,
        states=states,
    )


def _midpoint_factors(batch, nodes: np.ndarray, left: np.ndarray) -> Callable[[int, int], np.ndarray]:
    dts = np.diff(nodes)
    mids = nodes[:-1] + dts / 2.0
    return lambda a, b: batched_mat_exp_skew(batch(mids[a:b]), dts[a:b])


def filon_weights(nus: np.ndarray, hs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The exact oscillatory integrals of a Magnus-Filon step of length h.

    phi[u, k] = int_0^h e^{i nu_k s} ds and
    jj[u, k, l] = int_0^h e^{i nu_k s} int_0^s e^{i nu_l r} dr ds at h = hs[u].
    Both are divided differences of exp (Hermite-Genocchi): with
    z1 = i nu_k h and z2 = i (nu_k + nu_l) h, phi = h f[0, z1] and
    jj = h^2 f[0, z1, z2].  Where |z1| and |z2| are at most 1, which every
    step at or above the floor meets, they are summed as power series,
    free of the cancellation of the closed forms as nu h -> 0; elsewhere
    they are the first row of the exponential of the bidiagonal matrix
    [[0, 1, 0], [0, z1, 1], [0, 0, z2]] (McCurdy, Ng & Parlett, Math.
    Comp. 43, 491 (1984)).
    """
    hs = np.asarray(hs, dtype=float)
    x = 1j * np.multiply.outer(hs, np.asarray(nus, dtype=float))
    z1 = np.broadcast_to(x[:, :, None], x.shape + x.shape[-1:])
    z2 = z1 + x[:, None, :]
    small = np.maximum(np.abs(z1), np.abs(z2)) <= 1.0
    f1 = np.empty(z1.shape, dtype=complex)
    f2 = np.empty(z1.shape, dtype=complex)
    # f[0, z1] = sum z1^n / (n + 1)!; f[0, z1, z2] = sum c_n / (n + 2)! with
    # c_n = sum_{p + q = n} z1^p z2^q = z1 c_{n-1} + z2^n
    a, b = z1[small], z2[small]
    r = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0))
    terms = 1
    while (terms + 1) * r**terms / math.factorial(terms + 2) > _SERIES_TOL:
        terms += 1
    pa, pb, cn = np.ones_like(a), np.ones_like(a), np.ones_like(a)
    s1, s2 = np.ones_like(a), 0.5 * cn
    for n in range(1, terms):
        pa *= a
        s1 += pa / math.factorial(n + 1)
        pb *= b
        cn = a * cn + pb
        s2 += cn / math.factorial(n + 2)
    f1[small], f2[small] = s1, s2
    if not small.all():
        m = np.zeros((int((~small).sum()), 3, 3), dtype=complex)
        m[:, 0, 1] = m[:, 1, 2] = 1.0
        m[:, 1, 1], m[:, 2, 2] = z1[~small], z2[~small]
        e = batched_mat_exp_skew(1j * m, 1.0)  # exp(m)
        f1[~small], f2[~small] = e[:, 0, 1], e[:, 0, 2]
    return hs[:, None] * np.diagonal(f1, axis1=1, axis2=2), hs[:, None, None] ** 2 * f2


def _generators(terms: FourierTerms, segments: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The distinct frequencies nu_k of the terms on ``segments``, the index
    pairs (k < l) of the nonzero commutators, and per segment the rows G_k,
    then [G_k, G_l], as (len(segments), K + P, 16)."""
    levels = np.array([terms.segments[s].level for s in segments], dtype=float)
    mats = terms.mats[segments] * np.where(terms.scaled, levels[:, None], 1.0)[:, :, None, None]
    nus, inverse = np.unique(terms.nus, return_inverse=True)
    g = np.zeros((segments.size, nus.size, 4, 4), dtype=complex)
    for k, u in enumerate(inverse):
        g[:, u] += mats[:, k]
    present = g.any(axis=(0, 2, 3))
    nus, g = nus[present], g[:, present]
    k, l = np.triu_indices(nus.size, 1)
    comm = g[:, k] @ g[:, l] - g[:, l] @ g[:, k]
    nonzero = comm.any(axis=(0, 2, 3))
    rows = np.concatenate([g, comm[:, nonzero]], axis=1).reshape(segments.size, -1, 16)
    return nus, k[nonzero], l[nonzero], rows


class _MagnusFilon:
    """Fourth-order Magnus-Filon factors exp(Omega_1 + Omega_2) of a
    Hamiltonian given as Fourier terms on constant-envelope segments.

    On a step [t0, t0 + h] of a segment where H = sum_k G_k e^{i nu_k t},
    i Omega = sum_k e^{i nu_k t0} phi_k G_k
              - (i/2) sum_{k<l} e^{i (nu_k + nu_l) t0} (J_kl - J_lk) [G_k, G_l],
    with phi and J from ``filon_weights``, evaluated once per distinct step
    length.
    """

    def __init__(self, terms: FourierTerms, nodes: np.ndarray, left: np.ndarray):
        self.t0 = nodes[:-1]
        dts = np.diff(nodes)
        segment = terms.segment_index(self.t0 + dts / 2.0)
        used = np.flatnonzero(np.bincount(segment))
        self.row = np.searchsorted(used, segment)  # each step's row block
        self.nus, self.k, self.l, self.rows = _generators(terms, used)
        hs, self.length = np.unique(dts, return_inverse=True)
        self.phi, jj = filon_weights(self.nus, hs)
        self.dj = -0.5j * (jj[:, self.k, self.l] - jj[:, self.l, self.k])

    def __call__(self, a: int, b: int) -> np.ndarray:
        u = self.length[a:b]
        phase = np.exp(1j * np.multiply.outer(self.t0[a:b], self.nus))
        coef = np.concatenate([phase * self.phi[u], phase[:, self.k] * phase[:, self.l] * self.dj[u]], axis=1)
        row = self.row[a:b]
        heff = np.empty((b - a, 16), dtype=complex)
        cuts = [0, *(np.flatnonzero(np.diff(row)) + 1).tolist(), b - a]
        for lo, hi in zip(cuts[:-1], cuts[1:]):  # one product per segment in the chunk
            heff[lo:hi] = coef[lo:hi] @ self.rows[row[lo]]
        return batched_mat_exp_skew(heff.reshape(-1, 4, 4), 1.0)


def propagate_unitary(
    hamiltonian,
    duration: float,
    steps: int | None = None,
    *,
    breakpoints: Sequence[float] = (),
    sample_times: Sequence[float] | None = None,
    steps_per_period: int | None = None,
    repetitions: int = 1,
) -> EvolutionResult:
    """Time-ordered propagator over [0, duration].

    ``hamiltonian`` is H(t): a callable, or a TimeDependentHamiltonian whose
    batch evaluator and frequency bound are used.  One given as Fourier
    terms whose segments (those of one repetition) all have constant
    envelopes is integrated by the Magnus-Filon step, any other by the
    midpoint rule.  With ``sample_times`` the intermediate propagators
    U(t_k, 0) are recorded as well.  With ``repetitions`` = N, H(t)
    repeats every duration / N: one repetition is integrated, on ``steps``
    steps, and raised to the N-th power.
    """
    batch, fmax, terms = _resolve_hamiltonian(hamiltonian)
    stepped = () if terms is None else terms.segments[: terms.segment_index(duration / repetitions) + 1]
    if terms is not None and None not in [seg.level for seg in stepped]:
        rule, factors = "magnus_filon", partial(_MagnusFilon, terms)
    else:
        rule, factors = "midpoint", partial(_midpoint_factors, batch)
    res = _propagate(
        fmax, rule, factors, duration, steps, breakpoints, sample_times, steps_per_period, repetitions, 4
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
    steps_per_period: int | None = None,
    sample_times: Sequence[float] | None = None,
    repetitions: int = 1,
) -> EvolutionResult:
    """RK4-integrated propagation superoperator S with vec(rho_T) = S vec(rho_0).

    One integration serves any number of initial states.  ``repetitions``
    is as for :func:`propagate_unitary`.
    """
    batch, fmax, _ = _resolve_hamiltonian(hamiltonian)
    diss = dephasing_dissipator(params)

    def rk4(nodes: np.ndarray, left: np.ndarray) -> Callable[[int, int], np.ndarray]:
        return lambda a, b: _rk4_factors(batch, nodes[a : b + 1], left[a:b], diss)

    return _propagate(
        fmax, "rk4", rk4, duration, steps, breakpoints, sample_times, steps_per_period, repetitions, 16
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
    return replace(res, final=rho_t, states=states, trace_defect=trace_defect, min_eigenvalue=min_eig)


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

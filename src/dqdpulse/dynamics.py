"""Time-ordered closed-system propagation and Lindblad open-system evolution.

One driver serves both: it resolves H(t), checks the step floor, lays out
the step grid, and walks it in memory-bounded chunks, each reduced to
ordered products, recording the running product at every sample time.
Breakpoints and sample times alike end the grid's intervals, and each
interval takes one uniform step, its length over its share of the steps.
The grid holds its intervals, and each chunk computes its own step starts,
so a run holds O(chunk) step factors, O(samples) intervals and snapshots
and, for the Magnus-Filon step, one Filon table row per distinct interval
step (a handful), however many steps it takes.  A chunk holds whole runs of
one length between sampled nodes, as one stack that a batched tree
reduction takes to each run's product, bit for bit as alone, and the
running product takes one matrix product per run; a run longer than a
chunk is cut into pieces (``_Grid.chunks``).

The step rule depends only on how H(t) is given, closed or open:

* a frame Hamiltonian's Fourier terms, H = sum_k w_k(t) e^{i nu_k t} R_k on
  each segment (w_k the envelope j(t) or 1), take the fourth-order
  Magnus-Filon step (Iserles, BIT 42, 561 (2002); Blanes, Casas, Oteo &
  Ros, Phys. Rep. 470, 151 (2009)).  Its rows are the generator terms
  A_k = -i R_k, or the Liouvillians -i[R_k, .] with the dissipator joining
  the static one, and their commutators [A_k, A_l]; its coefficients are
  exact oscillatory integrals (``filon_weights``).  A polynomial envelope
  is replaced on each step by its quadratic interpolant through the step's
  three Gauss points, whose moments are exact too; the node polynomial is
  orthogonal to quadratics, so the error stays fourth order once a step is
  shorter than the fastest period, which the floor guarantees;
* sampled H (callables, ``TimeDependentHamiltonian(single=, batch=)``)
  takes the second-order midpoint exponential exp(A(t + dt/2) dt): H's 16
  entries times dt are the coefficients of the unit matrices E_ab, and an
  open run adds the dissipator times dt.

Each rule builds its generators as the interleaved (Re c, Im c) of its
coefficients times a real row table of their segment (``_combine``), so
none forms a complex H.  Rows, step factors and products are real, which
numpy multiplies several times faster than complex matrices.  Closed rows
are realify(A_k) and realify(i A_k), real forms X + iY -> [[X, -Y], [Y, X]]:
a ring homomorphism, so it commutes with products and with the Taylor
series (``algebra.batched_expm``) of an 8x8 step.  Open rows are
(Re A_k, -Im A_k) in the orthonormal Pauli basis sigma_a (x) sigma_b / 2,
where every Liouvillian of a Hermitian H and the dissipator are real
(Havel, J. Math. Phys. 44, 534 (2003)); one 16x16 superoperator serves a
whole initial-state grid.  The product returns to the complex propagator,
or to the superoperator on column-stacked vec(rho), once, at the
snapshots and at the end.

Without a budget, a closed run whose Fourier terms have constant envelopes
takes the floor of 50 steps per period, and every other run
``DEFAULT_STEPS_PER_PERIOD``.  Every result records its rule, steps,
budget and f_max.

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
Each interval rounds its share of the budget up, so no step is longer than
the budget's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from itertools import chain
from typing import Callable, Iterator, Sequence

import numpy as np

from .algebra import batched_expm, complexify, realify, unitarity_defect
from .device import DeviceParams, FourierTerms, TimeDependentHamiltonian

STEPS_PER_PERIOD = 50

# Budget when none is given, in steps per period of f_max, of every run but
# closed constant-envelope frames: those integrate the oscillations and the
# envelope exactly, and the floor serves them.
DEFAULT_STEPS_PER_PERIOD = 200

# filon_weights sums power series in z = i nu h, |z| up to the radius, until
# the next term's bound (n + 1) r^n / (n + 2)! at r = max |z| is below the
# tolerance: within 2.1e-15 of 40-digit values.  The floor keeps |z| < 0.4.
_SERIES_TOL = 2.0**-56
_SERIES_RADIUS = 4.5

# Bytes of step factors held at once: 64 superoperator or 256 propagator
# steps, real 16x16 and 8x8 float64 factors, so the B gate's 158k closed
# and 632k decohered steps run in bounded memory.
CHUNK_BYTES = 1 << 17

# A sample time this fraction of the nominal step from another interval end
# is that end; kept as one of its own, a rounding-level miss adds a
# degenerate interval.  A budget or an interval's share of it this fraction
# above a whole step count is that count: spp f T lands a rounding error
# above an integer for whole-period durations.
_SNAP = 1e-9


@dataclass(frozen=True)
class EvolutionResult:
    """Outcome of one propagation."""

    final: np.ndarray  # propagator (closed) or density matrix (open)
    steps: int  # steps integrated: those of one repetition when raised to a power
    rule: str  # "magnus_filon" (Fourier terms) or "midpoint" (sampled H)
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


@dataclass(frozen=True)
class _Space:
    """The real matrices a run's steps act on: 8x8 real forms of propagators
    (closed), or 16x16 superoperators in the Pauli basis (open), whose
    generators take the dissipator."""

    dim: int
    restore: Callable[[np.ndarray], np.ndarray]  # a stack of real products to the complex ones reported
    dissipator: np.ndarray | None = None  # real, in the Pauli basis

    def generators(self, mats: np.ndarray) -> np.ndarray:
        """The generator terms A_k of H terms R_k, (..., 4, 4): -i R_k, or the
        Liouvillians -i[R_k, .] in the Pauli basis, (..., 16, 16)."""
        if self.dissipator is None:
            return -1j * mats
        return (mats.reshape(mats.shape[:-2] + (16,)) @ _UNIT_LIOUVILLIANS).reshape(mats.shape[:-2] + (16, 16))

    def rows(self, gens: np.ndarray) -> np.ndarray:
        """(S, 2K, dim^2) real rows of generator terms (S, K, d, d), in which
        coefficients enter as (Re c, Im c): realify(A_k), realify(i A_k), or
        Re A_k, -Im A_k, the real part of an open generator, all of it."""
        parts = [realify(gens), realify(1j * gens)] if self.dissipator is None else [gens.real, -gens.imag]
        return np.stack(parts, axis=2).reshape(gens.shape[0], -1, self.dim**2)


def _combine(coef: np.ndarray, segment: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_k c_k rows[s, k] for each sample, s its segment, in real arithmetic,
    one product per segment present; the finiteness check of every rule."""
    if not np.isfinite(coef).all():
        raise ValueError("cannot propagate: H has non-finite entries")
    coef = np.ascontiguousarray(coef).view(float)  # Re c, Im c interleaved
    present = np.flatnonzero(np.bincount(segment))
    if present.size == 1:
        return coef @ rows[present[0]]
    out = np.empty((coef.shape[0], rows.shape[-1]))
    for s in present:
        out[segment == s] = coef[segment == s] @ rows[s]
    return out


class _Grid:
    """The step grid of [0, T], held as its intervals so that each chunk of
    steps computes its own step starts.

    Breakpoints and sample times alike end intervals, so discontinuous
    envelopes never straddle a step and every sample time is a node.  Two
    of them within ``_SNAP`` times the nominal step T / steps are one: a
    sample time that near 0, T or a breakpoint is that point, and sample
    times chained by such gaps are the first of them.  Each interval [lo, hi]
    gets its share of the steps, rounded up so that no step is longer than
    the budget's, and a uniform step h = (hi - lo) / n: its nodes are those
    of np.linspace(lo, hi, n + 1) bit for bit, r * h + lo, and the step
    takes h as its length.  ``hs`` holds the distinct h, ascending, and
    ``row`` each interval's index in it; ``marks`` holds each sample time's
    node index, and ``samples_at`` the sample times at each sampled node, in
    node order.
    """

    def __init__(
        self, duration: float, steps: int, breakpoints: Sequence[float], sample_times: np.ndarray | None
    ):
        self.duration, tol = duration, _SNAP * duration / steps
        ends = np.array([0.0] + sorted(p for p in set(breakpoints) if 0.0 < p < duration) + [duration])
        snapped = np.zeros(0)  # each sample time's interval end
        if sample_times is not None:
            s = sample_times
            i = np.clip(np.searchsorted(ends, s), 1, ends.size - 1)
            snapped = np.where(s - ends[i - 1] <= ends[i] - s, ends[i - 1], ends[i])  # the nearest of 0, T, breakpoints
            free = np.abs(s - snapped) > tol
            firsts = np.sort(s[free])
            firsts = firsts[np.diff(firsts, prepend=-np.inf) > tol]  # the first of each chain
            snapped[free] = firsts[np.searchsorted(firsts, s[free], side="right") - 1]
            ends = np.sort(np.concatenate([ends, firsts]))
        lo, hi = ends[:-1], ends[1:]
        n = np.maximum(1, np.ceil(steps * (hi - lo) / duration * (1.0 - _SNAP))).astype(int)
        h = (hi - lo) / n
        self.hs = np.array(sorted(set(h.tolist())))
        self.lo, self.h, self.row = lo, h, np.searchsorted(self.hs, h)
        self.base = np.concatenate([[0], np.cumsum(n)])  # interval j's steps are base[j]..base[j + 1] - 1
        self.steps = int(self.base[-1])
        self.marks = self.base[np.searchsorted(ends, snapped)]
        order = np.argsort(self.marks, kind="stable")
        first = np.flatnonzero(np.diff(self.marks[order], prepend=-1))
        cuts = self.marks[order[first]].tolist()  # the sampled nodes, ascending
        order, bounds = order.tolist(), [*first.tolist(), order.size]
        self.samples_at = {m: order[i:j] for m, i, j in zip(cuts, bounds, bounds[1:])}

    def starts(self, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
        """The starts of steps a..b - 1, r * h + lo in their interval, and
        each one's row of ``hs``."""
        j0, j1 = np.searchsorted(self.base, a, side="right") - 1, np.searchsorted(self.base, b)
        j, counts = slice(j0, j1), np.diff(np.clip(self.base[j0 : j1 + 1], a, b))
        t = np.arange(a, b, dtype=float)
        t -= np.repeat(self.base[j], counts)
        t *= np.repeat(self.h[j], counts)
        t += np.repeat(self.lo[j], counts)
        return t, np.repeat(self.row[j], counts)

    def chunks(self, size: int) -> Iterator[tuple[int, int, np.ndarray, np.ndarray, range]]:
        """Each chunk [a, b) of at most ``size`` steps, planned lazily: a, b,
        its steps' starts and rows, and the ends a + L, ..., b of its runs of
        L steps.  A chunk holds consecutive whole runs of one length between
        sampled nodes, or ``size`` steps or the remainder of a longer run, so
        an unsampled grid, one run, is chunked from step 0.  Starts and rows
        take ``CHUNK_BYTES`` a block."""
        block, stop = size * max(1, CHUNK_BYTES // (32 * size)), 0
        for a, b, run in self._plan(size):
            if b > stop:
                start, stop = a, min(a + block, self.steps)
                t0, row = self.starts(start, stop)
            yield a, b, t0[a - start : b - start], row[a - start : b - start], range(a + run, b + 1, run)

    def _plan(self, size: int) -> Iterator[tuple[int, int, int]]:
        """The chunks of ``chunks`` as (a, b, L): runs of L steps from step a to b."""
        run, k, last = 0, 0, 0  # k pending runs of `run` steps ending at the last run end
        for end in chain(self.samples_at, [self.steps]):
            n = end - last
            if k and (n != run or (k + 1) * n > size):
                yield last - k * run, last, run
                k = 0
            if n > size:  # chunks of ``size`` steps, the remainder last
                for lo in range(last, end, size):
                    yield lo, min(lo + size, end), min(size, end - lo)
            elif n:
                run, k = n, k + 1
            last = end
        if k:
            yield last - k * run, last, run


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """Product mats[..., -1, :, :] @ ... @ mats[..., 0, :, :] via an
    order-preserving tree reduction along the step axis, -3."""
    while (n := mats.shape[-3]) > 1:
        pairs = np.matmul(mats[..., 1::2, :, :], mats[..., : n - 1 : 2, :, :])
        mats = np.concatenate([pairs, mats[..., -1:, :, :]], axis=-3) if n % 2 else pairs
    return mats[..., 0, :, :]


def _step_rule(hamiltonian, space: _Space, period: float) -> tuple[str, Callable, float, int]:
    """The rule of H's steps, step_factors(grid) -> factors(t0, row) giving
    the real (len(t0), dim, dim) factors of a chunk's steps, which start at
    t0 and take the lengths grid.hs[row], f_max and the default budget.

    Fourier terms take the Magnus-Filon step, sampled H the midpoint rule.
    A closed run whose stepped segments all have constant envelopes
    defaults to the floor, any other run to ``DEFAULT_STEPS_PER_PERIOD``.
    """
    if isinstance(hamiltonian, TimeDependentHamiltonian) and hamiltonian.terms is not None:
        terms = hamiltonian.terms
        poly = None in [seg.level for seg in terms.segments[: np.searchsorted(terms.edges, period) + 1]]
        default = STEPS_PER_PERIOD if space.dissipator is None and not poly else DEFAULT_STEPS_PER_PERIOD
        return "magnus_filon", partial(_MagnusFilon, terms, space, poly), hamiltonian.max_frequency_hz, default
    if isinstance(hamiltonian, TimeDependentHamiltonian):
        batch, fmax = hamiltonian.matrices, hamiltonian.max_frequency_hz
    elif callable(hamiltonian):
        batch, fmax = (lambda ts: np.array([hamiltonian(t) for t in ts], dtype=complex)), 0.0
    else:
        raise TypeError("hamiltonian must be callable or a TimeDependentHamiltonian")
    return "midpoint", partial(_midpoint_factors, batch, space), fmax, DEFAULT_STEPS_PER_PERIOD


def _propagate(
    hamiltonian,
    space: _Space,
    duration: float,
    steps: int | None,
    breakpoints: Sequence[float],
    sample_times: Sequence[float] | None,
    steps_per_period: int | None,
    repetitions: int,
) -> EvolutionResult:
    """Ordered product of real per-step factors over one repetition, chunk
    by chunk, raised to the ``repetitions``-th power.

    ``steps`` budgets one repetition, [0, duration / repetitions]; without
    it, ``steps_per_period`` does, or else the run's default budget.  The
    space's ``restore`` maps the real products to the complex propagators
    or superoperators the result reports, once for the snapshots and the
    final product together.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    period = duration / repetitions
    rule, step_factors, fmax, default = _step_rule(hamiltonian, space, period)
    if steps_per_period is None:
        steps_per_period = default
    require_step_floor(steps_per_period)
    if repetitions > 1 and sample_times is not None:
        raise ValueError("sample times need every repetition stepped through; give no repetition count with them")
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
    if times is not None and not ((times >= 0.0) & (times <= duration)).all():  # NaN too
        raise ValueError(f"sample times must lie in [0, {duration:.3e}] s")
    grid = _Grid(period, steps, breakpoints, times)
    dim = space.dim
    chunk = max(1, CHUNK_BYTES // (8 * dim * dim))
    factors_of = step_factors(grid)
    samples_at = grid.samples_at
    held = None if times is None else np.empty((times.size + 1, dim, dim))  # each sample's product, then the final
    state = np.eye(dim)
    for r in samples_at.get(0, ()):
        held[r] = state
    for _, _, t0, row, ends in grid.chunks(chunk):  # the chunk's runs in one reduction, then one product each
        factors = factors_of(t0, row)  # held until the next chunk's exist: released sooner, glibc may trim the heap
        products = _ordered_product(factors.reshape(len(ends), -1, dim, dim))
        for m, product in zip(ends, products):
            state = product @ state
            for r in samples_at.get(m, ()):
                held[r] = state
    final = np.linalg.matrix_power(state, repetitions)  # repeated squaring
    if times is None:
        states, final = None, space.restore(final)
    else:  # restored together, so a sample at T is the final product bit for bit
        held[-1] = final
        out = space.restore(held)
        states, final = out[:-1], out[-1]
    return EvolutionResult(
        final=final,
        steps=grid.steps,
        rule=rule,
        steps_per_period=budget,
        max_frequency_hz=fmax,
        repetitions=repetitions,
        times=times,
        states=states,
    )


def _midpoint_factors(batch: Callable[[np.ndarray], np.ndarray], space: _Space, grid: _Grid) -> Callable:
    """exp(A(t + dt/2) dt) of sampled H: its 16 entries are the coefficients
    of the unit matrices E_ab, and an open run adds the dissipator's dt."""
    rows = space.rows(space.generators(np.eye(16, dtype=complex).reshape(1, 16, 4, 4)))

    def factors(t0: np.ndarray, row: np.ndarray) -> np.ndarray:
        dts = grid.hs[row]
        mids = t0 + dts / 2.0
        with np.errstate(invalid="ignore"):  # non-finite coefficients are rejected in _combine
            coef = np.asarray(batch(mids), dtype=complex).reshape(-1, 16) * dts[:, None]
        gen = _combine(coef, np.zeros(dts.size, dtype=int), rows)
        if space.dissipator is not None:
            gen += np.multiply.outer(dts, space.dissipator.reshape(-1))
        return batched_expm(gen.reshape(-1, space.dim, space.dim))

    return factors


def filon_weights(nus: np.ndarray, hs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The exact oscillatory moments of a Magnus-Filon step of length h.

    phi[u, k, m] = int_0^h (s/h)^m e^{i nu_k s} ds and
    jj[u, k, l, m, n] = int_0^h (s/h)^m e^{i nu_k s} int_0^s (r/h)^n e^{i nu_l r} dr ds
    at h = hs[u], for m and n up to ``_DEGREE``.  With a = i nu_k h and
    b = i nu_l h they are divided differences of exp (Hermite-Genocchi),
    phi = h f[0, a] and jj = h^2 f[0, a, a + b] at m = n = 0, each weight a
    derivative in a or b, which repeats a node (``_moment_weights``),
    summed as power series free of the cancellation of the closed forms as
    nu h -> 0, up to |a + b| = 2 |nu| h = _SERIES_RADIUS.
    """
    nus, hs = np.asarray(nus, dtype=float), np.asarray(hs, dtype=float)
    k, l = np.indices((nus.size, nus.size)).reshape(2, -1)
    phi, jj = _filon_series(nus, hs, k, l, _series_terms(nus, hs), _DEGREE)
    return phi, jj.reshape(hs.size, nus.size, nus.size, _DEGREE + 1, _DEGREE + 1)


def _series_terms(nus: np.ndarray, hs: np.ndarray) -> int:
    """Terms of the ``filon_weights`` series for every step length in ``hs``:
    the bound below is that of f[0, a, a + b], and more nodes only lower it."""
    r = 2.0 * np.abs(nus).max(initial=0.0) * np.abs(hs).max(initial=0.0)  # max |a + b|, at k = l
    if not r <= _SERIES_RADIUS:
        raise ValueError(f"Magnus-Filon step too long: |z| = 2 |nu h| reaches {r:.3g}, above {_SERIES_RADIUS}")
    terms = 1
    while (terms + 1) * r**terms / math.factorial(terms + 2) > _SERIES_TOL:
        terms += 1
    return terms


@lru_cache
def _moment_weights(degree: int) -> np.ndarray:
    """W[m, n, p - 1, q - 1] with int_0^1 x^m e^{a x} int_0^x y^n e^{b y} dy dx =
    sum W f[0, a (p times), a + b (q times)] for m, n <= degree: the m-th
    derivative in a and n-th in b of f[0, a, a + b], where moving a node of
    multiplicity p adds p f[..., that node once more]."""
    out = np.zeros((degree + 1, degree + 1, degree + 1, 2 * degree + 1))
    for m, n in np.ndindex(degree + 1, degree + 1):
        cells = {(1, 1): 1}
        for in_a in [True] * m + [False] * n:  # a moves both nodes, b only a + b
            nxt: dict[tuple[int, int], int] = {}
            for (p, q), w in cells.items():
                for cell, times in (((p + 1, q), p * in_a), ((p, q + 1), q)):
                    if times:
                        nxt[cell] = nxt.get(cell, 0) + times * w
            cells = nxt
        for (p, q), w in cells.items():
            out[m, n, p - 1, q - 1] = w
    return out


@lru_cache
def _series_weights(terms: int, ps: range, qs: range) -> tuple[np.ndarray, np.ndarray]:
    """The read-only constants of ``_divided_exps``: C(n + q - 1, n) as
    (terms, q, 1, 1) and 1 / (n + p + q)! as (terms, p, q, 1, 1)."""
    n, p, q = np.ogrid[:terms, ps.start : ps.stop, qs.start : qs.stop]
    factorial = np.array([math.factorial(i) for i in range(terms + ps.stop + qs.stop)], dtype=float)
    binomial = (factorial[n + q - 1] / factorial[n] / factorial[q - 1])[:, 0, :, None, None]
    weight = (1.0 / factorial[n + p + q])[..., None, None]  # a real multiply: complex division is 5x slower
    binomial.flags.writeable = weight.flags.writeable = False
    return binomial, weight


def _divided_exps(z: np.ndarray, w: np.ndarray, ps: range, qs: range, terms: int) -> np.ndarray:
    """F[i, j] = f[0, z (ps[i] times), w (qs[j] times)] of exp, qs >= 1:
    sum_n c_n / (n + p + q)!, with c_n the complete homogeneous polynomial
    of degree n in those nodes.  For the w's alone c_n = C(n + q - 1, n) w^n;
    each z joins as c_n(.., z) = z c_{n-1}(.., z) + c_n(..)."""
    binomial, weight = _series_weights(terms, ps, qs)
    c = np.ones((ps.stop, len(qs)) + z.shape, dtype=complex)  # c[p, j] for p up to max(ps), at n = 0
    rows = slice(ps.start, ps.stop)
    out = c[rows] * weight[0]
    wn = np.ones_like(w)
    for i in range(1, terms):
        wn *= w
        np.multiply(wn, binomial[i], out=c[0])
        for j in range(1, ps.stop):
            c[j] *= z
            c[j] += c[j - 1]
        out += c[rows] * weight[i]
    return out


def _filon_series(
    nus: np.ndarray, hs: np.ndarray, k: np.ndarray, l: np.ndarray, terms: int, degree: int
) -> tuple[np.ndarray, np.ndarray]:
    """phi[u, k, m] and jj[u, p, m, n] = jj[u, k[p], l[p], m, n] of
    ``filon_weights``, at a given number of series terms."""
    x = 1j * np.multiply.outer(hs, nus)
    single = _divided_exps(x, x, range(1), range(1, degree + 2), terms)[0]  # f[0, x (m + 1 times)]
    phi = single * np.array([math.factorial(m) for m in range(degree + 1)])[:, None, None]
    double = _divided_exps(x[:, k], x[:, k] + x[:, l], range(1, degree + 2), range(1, 2 * degree + 2), terms)
    jj = np.tensordot(_moment_weights(degree), double, 2)
    return hs[:, None, None] * np.moveaxis(phi, 0, -1), hs[:, None, None, None] ** 2 * np.moveaxis(jj, (0, 1), (-2, -1))


def _generators(terms: FourierTerms, duration: float, poly: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct terms of H on the segments that start before
    ``duration``: their frequencies nu_k, which of them the envelope scales,
    and per segment their matrices, as (segments, K, 4, 4).

    Terms of one frequency merge: with constant envelopes each segment's
    level scales its terms in, and none stays scaled; with a polynomial one
    only terms alike in scaling merge.  The static term (nu = 0, unscaled)
    comes first, even where its matrix is zero, because the dissipator
    joins it.
    """
    count = int(np.searchsorted(terms.edges, duration)) + 1
    mats, scaled = terms.mats[:count], terms.scaled & poly
    if not poly:
        levels = np.array([seg.level for seg in terms.segments[:count]])
        mats = mats * np.where(terms.scaled, levels[:, None], 1.0)[:, :, None, None]
    keys = list(zip(terms.nus.tolist(), scaled.tolist()))
    distinct = sorted(set(keys) | {(0.0, False)}, key=lambda key: (key != (0.0, False), key))
    g = np.zeros((count, len(distinct), 4, 4), dtype=complex)
    for k, key in enumerate(keys):
        g[:, distinct.index(key)] += mats[:, k]
    keep = g.any(axis=(0, 2, 3))
    keep[0] = True
    nus, scaled = (np.array(v)[keep] for v in zip(*distinct))
    return nus, scaled, g[:, keep]


# A polynomial envelope on a step is its quadratic interpolant through the
# step's three Gauss-Legendre points (fractions of the step): _INTERPOLANT
# maps the values there to its coefficients in x = (t - t0) / h, column i
# node i's Lagrange polynomial (np.linalg.inv costs the import 0.5 MB RSS).
_DEGREE = 2
_GAUSS = 0.5 + np.array([-1.0, 0.0, 1.0]) * math.sqrt(0.15)
_INTERPOLANT = np.array(
    [[a * b, -a - b, 1.0] / ((g - a) * (g - b)) for g, a, b in (_GAUSS[[i, i - 1, i - 2]] for i in range(3))]
).T


# The last Magnus-Filon set-up built, by its key: gates share a frame's rows
# when they share its term matrices (a table's N-fold gates), and its table
# when they share its frequencies and step lengths (an envelope-shape sweep).
_LAST_FRAME: dict[tuple, tuple[np.ndarray, ...]] = {}
_LAST_TABLE: dict[tuple, tuple[np.ndarray, ...]] = {}


def _last(cache: dict, key: tuple, build: Callable[[], tuple[np.ndarray, ...]]) -> tuple[np.ndarray, ...]:
    """cache[key], or else build()'s arrays, made read-only and kept as the
    one entry: emptied first, so that two values are never held at once."""
    if key not in cache:
        cache.clear()
        cache[key] = build()
        for x in cache[key]:
            x.flags.writeable = False
    return cache[key]


def _filon_table(
    nus: np.ndarray, scaled: np.ndarray, pk: np.ndarray, pl: np.ndarray, hs: np.ndarray, poly: bool
) -> tuple[np.ndarray]:
    """The Magnus-Filon coefficients of each distinct step length in ``hs``,
    a handful per grid: phi_k for the terms nu_k, then (J_kl - J_lk) / 2
    for the pairs (pk, pl), as (lengths, K + pairs); with a polynomial
    envelope each entry is a matrix that v v^T weights.  J is computed only
    at the pairs (k, l) and (l, k) that enter; the table equals one-shot
    ``filon_weights`` bit for bit."""
    pairs, m = pk.size, 1 + poly * _DEGREE
    k, l = np.concatenate([pk, pl]), np.concatenate([pl, pk])  # J_kl, then J_lk
    phi, jj = _filon_series(nus, hs, k, l, _series_terms(nus, hs), poly * _DEGREE)
    dj = 0.5 * (jj[:, :pairs] - jj[:, pairs:].swapaxes(-1, -2))
    if poly:  # embed[k] takes a term's moments to the entries of v that weight them
        embed = np.where(scaled[:, None, None], np.eye(m + 1, m, -1), np.eye(m + 1, m) * np.eye(1, m))
        phi = np.eye(m + 1, 1) * (embed @ phi[..., None])[..., None, :, 0]  # row 0, as v_0 = 1
        dj = embed[pk] @ dj @ embed[pl].swapaxes(-1, -2)
    else:
        phi, dj = phi[..., 0], dj[..., 0, 0]
    return (np.concatenate([phi, dj], axis=1),)


def _frame(space: _Space, g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs k < l with [A_k, A_l] nonzero and the real rows of the generator
    terms A_k of the term matrices ``g``, then of those commutators, as products."""
    a = space.generators(g)
    if space.dissipator is not None:
        a[:, 0] += space.dissipator
    k, l = np.triu_indices(g.shape[1], 1)
    comm = a[:, k] @ a[:, l] - a[:, l] @ a[:, k]
    nonzero = comm.any(axis=(0, 2, 3))
    return k[nonzero], l[nonzero], space.rows(np.concatenate([a, comm[:, nonzero]], axis=1))


class _MagnusFilon:
    """Fourth-order Magnus-Filon factors exp(Omega_1 + Omega_2) of a
    Hamiltonian given as Fourier terms, closed or open, in real form.

    On a step [t0, t0 + h] of a segment where the generator is
    A = sum_k a_k e^{i nu_k t} A_k, constant a_k = 1,
      Omega = sum_k e^{i nu_k t0} phi_k A_k
              + sum_{k<l} e^{i (nu_k + nu_l) t0} (J_kl - J_lk) / 2 [A_k, A_l],
    with phi and J from ``filon_weights``, evaluated once per distinct step
    length h of the grid's intervals (``grid.hs``, ``_filon_table``): Filon
    coefficients of the rows A_k and [A_k, A_l], the commutators taken as
    products of the A's.  Each step reads its table row by its interval,
    and its segment by its midpoint.

    With a polynomial envelope, the step takes the envelope's quadratic
    interpolant c_0 + c_1 x + c_2 x^2 through its Gauss points (x = (t - t0)
    / h), and phi_k, J_kl become contractions with v = (1, c_0, c_1, c_2):
    an unscaled term's moments enter at the 1, a scaled term's moments
    weighted by x^m at c_m (``filon_weights`` at degree 2).
    """

    def __init__(self, terms: FourierTerms, space: _Space, poly: bool, grid: _Grid):
        self.segment_index, self.envelope, self.poly, self.dim = terms.segment_index, terms.envelope, poly, space.dim
        self.nus, scaled, g = _generators(terms, grid.duration, poly)
        key = (space.dim, None if space.dissipator is None else space.dissipator.tobytes(), g.shape, g.tobytes())
        self.k, self.l, self.rows = _last(_LAST_FRAME, key, partial(_frame, space, g))
        self.hs = grid.hs
        args = (self.nus, scaled, self.k, self.l, self.hs)
        (self.table,) = _last(_LAST_TABLE, (poly, *(x.tobytes() for x in args)), partial(_filon_table, *args, poly))

    def __call__(self, t0: np.ndarray, row: np.ndarray) -> np.ndarray:
        dts = self.hs[row]
        phase = np.exp(1j * np.multiply.outer(t0, self.nus))
        coef = np.concatenate([phase, phase[:, self.k] * phase[:, self.l]], axis=1)
        table = self.table[row]
        if self.poly:
            j = self.envelope((t0 + np.multiply.outer(_GAUSS, dts)).reshape(-1)).reshape(_GAUSS.size, -1)
            v = np.concatenate([np.ones((1, t0.size)), _INTERPOLANT @ j]).T
            vv = (v[:, :, None] * v[:, None, :]).reshape(t0.size, -1, 1)  # v_a v_b
            table = (table.reshape(vv.shape[0], table.shape[1], -1) @ vv)[..., 0]
        gen = _combine(coef * table, self.segment_index(t0 + dts / 2.0), self.rows)
        return batched_expm(gen.reshape(-1, self.dim, self.dim))


_CLOSED = _Space(8, complexify)


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
    terms (or else batch evaluator) and frequency bound are used.  One given
    as Fourier terms is integrated by the Magnus-Filon step, any other by
    the midpoint rule.  With ``sample_times`` the intermediate propagators
    U(t_k, 0) are recorded as well.  With ``repetitions`` = N, H(t)
    repeats every duration / N: one repetition is integrated, on ``steps``
    steps, and raised to the N-th power.
    """
    res = _propagate(hamiltonian, _CLOSED, duration, steps, breakpoints, sample_times, steps_per_period, repetitions)
    return replace(res, unitarity_defect=unitarity_defect(res.final))


# ---------------------------------------------------------------------------
# Lindblad evolution
# ---------------------------------------------------------------------------

# The orthonormal Hermitian operator basis B_mu = sigma_a (x) sigma_b / 2,
# mu = 4 a + b, and the unitary T whose column mu is vec(B_mu): a
# Hermiticity-preserving superoperator S on vec(rho) is the real matrix
# T^dag S T on the coefficients r_mu = tr(B_mu rho) (Havel, J. Math. Phys.
# 44, 534 (2003)).
_SIGMA = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_PAULI = np.einsum("aij,bkl->abikjl", _SIGMA, _SIGMA).reshape(16, 4, 4) / 2.0
_T = _PAULI.transpose(0, 2, 1).reshape(16, 16).T


# The Liouvillians -i[E_ab, .] of the 16 unit matrices in the basis B, (16, 256)
_UNIT_LIOUVILLIANS = np.stack(
    [_T.conj().T @ (1j * (np.kron(e.T, np.eye(4)) - np.kron(np.eye(4), e))) @ _T for e in np.eye(16).reshape(16, 4, 4)]
).reshape(16, 256)


def _in_pauli_basis(s: np.ndarray) -> np.ndarray:
    """T^dag S T of a Hermiticity-preserving superoperator on vec(rho), real."""
    return (_T.conj().T @ s @ _T).real


def _from_pauli_basis(s: np.ndarray) -> np.ndarray:
    """T S T^dag for a stack of superoperators in the basis B: the vec-basis form."""
    return _T @ s @ _T.conj().T


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


# The last open space's dissipator in the Pauli basis, by the device's
# dephasing rates: every gate of a sweep runs on one device.
_LAST_DISSIPATOR: dict[tuple, tuple[np.ndarray, ...]] = {}


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
    """Propagation superoperator S with vec(rho_T) = S vec(rho_0), by the
    step rules of :func:`propagate_unitary` on the Liouvillian.

    One integration serves any number of initial states.  ``repetitions``
    is as for :func:`propagate_unitary`.  H(t) must be Hermitian: the steps
    are taken in the Pauli basis, where only its Hermitian part enters.
    """
    rates = (params.kappa_1, params.kappa_2)
    (dissipator,) = _last(_LAST_DISSIPATOR, rates, lambda: (_in_pauli_basis(dephasing_dissipator(params)),))
    space = _Space(16, _from_pauli_basis, dissipator)
    return _propagate(hamiltonian, space, duration, steps, breakpoints, sample_times, steps_per_period, repetitions)


def apply_superoperator(s: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """The density matrix S vec(rho), or one per superoperator of a stack, in one product."""
    vec = s @ np.asarray(rho, dtype=complex).flatten(order="F")
    return np.swapaxes(vec.reshape(vec.shape[:-1] + (4, 4)), -1, -2)  # column-stacked: vec[a + 4 b] = rho[a, b]


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
    at the default of 200 steps per period unless ``steps`` is given.

    Trace deviation is reported, never silently renormalized.
    """
    rho0 = _require_density_matrix(rho0)
    res = lindblad_superoperator(
        hamiltonian, params, duration, steps, breakpoints=breakpoints, sample_times=sample_times
    )
    rho_t = apply_superoperator(res.final, rho0)
    states = None if res.states is None else apply_superoperator(res.states, rho0)
    trace_defect = abs(np.trace(rho_t).real - 1.0) + abs(np.trace(rho_t).imag)
    min_eig = float(np.linalg.eigvalsh((rho_t + rho_t.conj().T) / 2.0).min())
    return replace(res, final=rho_t, states=states, trace_defect=trace_defect, min_eigenvalue=min_eig)


# ---------------------------------------------------------------------------
# Trajectory export (population curves)
# ---------------------------------------------------------------------------

TRAJECTORY_CSV_HEADER = (
    "t_ns,pop_00,pop_01,pop_10,pop_11,coh_00_01,coh_00_10,coh_00_11,coh_01_10,coh_01_11,coh_10_11"
)


def trajectory_rows(times: np.ndarray, rhos: np.ndarray) -> list[list[float]]:
    """Populations and coherence magnitudes of sampled density matrices, one
    row per sample: t in ns, then the columns of ``TRAJECTORY_CSV_HEADER``."""
    i, j = np.triu_indices(4, 1)  # (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
    return np.column_stack([times * 1e9, np.einsum("nii->ni", rhos).real, np.abs(rhos[:, i, j])]).tolist()

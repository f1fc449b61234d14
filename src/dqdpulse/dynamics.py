"""Time-ordered closed-system propagation and Lindblad open-system evolution.

One driver serves both: it resolves H(t), checks the step floor, lays out
the step grid (breakpoints and sample times on nodes), and walks it in
memory-bounded chunks, each reduced to one ordered product, recording the
running product at every sample time.  The grid holds its breakpoint
intervals and sample nodes, and each chunk computes its own nodes, so a
run holds O(chunk) step factors, O(samples) snapshots and, for the
Magnus-Filon step, O(distinct step lengths) Filon tables, however many
steps it takes.  A chunk holding sample times is cut at them into runs,
padded with identities after their last step to one length and reduced
in one batched tree reduction, which gives each run's product bit for
bit; the running product then takes one matrix product per sample.

H(t) is resolved once into per-segment term matrices R and coefficients
c(t): a frame Hamiltonian's Fourier terms give
c_k = w_k(t) e^{i nu_k t}; any other H is one segment of the 16 unit
matrices, with H's entries as coefficients.  Each step rule builds its
generators the same way, the interleaved (Re c, Im c) of its samples times
a real row table of their segment (``_combine``), so none forms a complex H:

* closed runs whose Fourier terms have constant envelopes on every segment
  stepped through (``fsim_rect``, ``fsim_geometric``, ``bgate``, with their
  Rabi and detuning errors) take the fourth-order Magnus-Filon step
  (Iserles, BIT 42, 561 (2002); Blanes, Casas, Oteo & Ros, Phys. Rep. 470,
  151 (2009)): with H = sum_k G_k e^{i nu_k t} on a segment, its rows are
  G_k and [G_k, G_l] and its coefficients exact oscillatory integrals
  (``filon_weights``).  The error is fourth order once a step is shorter
  than the fastest period, which the floor guarantees;
* other closed runs (``fsim_poly``, whose envelope is a polynomial, and
  sampled H) take the second-order midpoint exponential
  exp(-i H(t + dt/2) dt), with coefficients c(t + dt/2) dt;
* open runs take one classical RK4 step of the linear vectorized master
  equation, the 16x16 matrix I + dt/6 (k1 + 2 k2 + 2 k3 + k4) with the k's
  taken at the identity; one superoperator serves a 1600-state grid.

Rows, step factors and products are real, which numpy multiplies several
times faster than complex matrices.  Closed rows are realify(-i R) and
realify(R), real forms X + iY -> [[X, -Y], [Y, X]]: a ring homomorphism, so
it commutes with products and with the Taylor series
(``algebra.batched_expm``) of an 8x8 step.  Open rows are the Liouvillians
-i[R, .] in the orthonormal Pauli basis sigma_a (x) sigma_b / 2, where a
Hermitian H's is real, from one table of the unit matrices'; the dissipator
is added (Havel, J. Math. Phys. 44, 534 (2003)).  The product returns to
the complex propagator, or to the superoperator on column-stacked vec(rho),
once, at the snapshots and at the end.

Without a budget, a run takes its rule's default
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
from bisect import bisect_left, bisect_right
from itertools import accumulate
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np

from .algebra import batched_expm, complexify, realify, unitarity_defect
from .device import DeviceParams, FourierTerms, TimeDependentHamiltonian

STEPS_PER_PERIOD = 50

# Budget of each step rule when none is given, in steps per period of f_max:
# the Magnus-Filon step integrates the oscillations exactly and is fourth
# order, so the floor serves; the midpoint and RK4 rules keep 200.
DEFAULT_STEPS_PER_PERIOD = {"magnus_filon": STEPS_PER_PERIOD, "midpoint": 200, "rk4": 200}

# filon_weights sums power series in z = i nu h, |z| up to the radius, until
# the next term's bound (n + 1) r^n / (n + 2)! at r = max |z| is below the
# tolerance: within 2.1e-15 of 40-digit values.  The floor keeps |z| < 0.4.
_SERIES_TOL = 2.0**-56
_SERIES_RADIUS = 4.5

# Bytes of step factors held at once: 64 superoperator or 256 propagator
# steps, real 16x16 and 8x8 float64 factors, so the B gate's 160k
# Magnus-Filon steps (closed) and 631k RK4 steps (decohered) run in bounded
# memory.
CHUNK_BYTES = 1 << 17

# Distinct step lengths per block of Magnus-Filon tables: sample times split
# the B gate's steps into 4k lengths, whose full tables at once are a 16 MB
# transient.
_FILON_BLOCK = 256

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


@dataclass(frozen=True)
class _Sampled:
    """Sampled H as ``FourierTerms``: one segment of the 16 unit matrices E_ab, H's entries as coefficients."""

    batch: Callable[[np.ndarray], np.ndarray]
    mats = np.eye(16, dtype=complex).reshape(1, 16, 4, 4)
    edges = np.zeros(0)

    def segment_index(self, ts: np.ndarray) -> np.ndarray:
        return np.zeros(ts.shape, dtype=int)

    def coefficients(self, ts: np.ndarray) -> np.ndarray:
        return np.asarray(self.batch(ts), dtype=complex).reshape(-1, 16)


_Terms = FourierTerms | _Sampled  # H(t) = sum_k c_k(t) mats[s, k] on segment s, [edges[s - 1], edges[s])


def _resolve_hamiltonian(h) -> tuple[_Terms, float]:
    if isinstance(h, TimeDependentHamiltonian):
        return (h.terms if h.terms is not None else _Sampled(h.matrices)), h.max_frequency_hz
    if callable(h):
        return _Sampled(lambda ts: np.array([h(t) for t in ts], dtype=complex)), 0.0
    raise TypeError("hamiltonian must be callable or a TimeDependentHamiltonian")


def _stepped(terms: _Terms, duration: float) -> np.ndarray:
    """The term matrices of the segments that start before ``duration``."""
    return terms.mats[: np.searchsorted(terms.edges, duration) + 1]


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


def _closed_rows(mats: np.ndarray) -> np.ndarray:
    """(S, 2K, 64) rows realify(-i R_k), realify(R_k): the real form of -i sum_k c_k R_k."""
    return np.stack([realify(-1j * mats), realify(mats)], axis=2).reshape(mats.shape[0], -1, 64)


def _distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of ``x``, ascending (np.unique would import numpy.ma: 14 ms, 1.4 MB)."""
    x = np.sort(x)
    return x[np.diff(x, prepend=-np.inf) > 0]


class _Grid:
    """The step grid: nodes 0 = t_0 < ... < t_n = T, which steps end at a
    breakpoint or T, and the node of each sample time, held as its
    breakpoint intervals and sample nodes so that each chunk of steps
    computes its own nodes.

    Steps are distributed over the intervals between breakpoints
    proportionally to length, so discontinuous envelopes never straddle a
    step.  An interval [lo, hi] of n steps has the nodes of
    np.linspace(lo, hi, n + 1) bit for bit: r * step + lo, the last set to
    hi.  Sample times become nodes too, except that one within ``_SNAP`` of
    the local step of a node is taken as that node; the others are the
    ``extra`` nodes, merged between the interval nodes.  ``marks`` holds
    each sample time's node index, and ``rows`` the sample times at each
    sampled node.
    """

    def __init__(
        self, duration: float, steps: int, breakpoints: Sequence[float], sample_times: np.ndarray | None
    ):
        pts = [0.0] + sorted(p for p in set(breakpoints) if 0.0 < p < duration) + [duration]
        self.duration, self.lo, self.hi = duration, pts[:-1], pts[1:]
        self.n = [max(1, int(round(steps * (hi - lo) / duration))) for lo, hi in zip(self.lo, self.hi)]
        self.step = [(hi - lo) / n for lo, hi, n in zip(self.lo, self.hi, self.n)]
        self.base = [0, *accumulate(self.n)]  # interval j's nodes r = 0..n[j] are interval nodes base[j] + r
        # the extra node times, ascending, the interval node after each, and each sample time's node
        self.extra, after, self.marks = np.zeros(0), np.zeros(0, dtype=int), np.zeros(0, dtype=int)
        if sample_times is not None:
            self.extra, after, self.marks = self._merge(sample_times)
        # interval node p is node p + (the extra nodes before it)
        self.extra_at = (after + np.arange(after.size)).tolist()
        ends = np.array(self.base[1:])
        self.end_at = (ends + np.searchsorted(after, ends, side="right")).tolist()  # each interval's last node
        self.steps = self.base[-1] + after.size
        order = np.argsort(self.marks, kind="stable")
        starts = np.flatnonzero(np.diff(self.marks[order], prepend=-1))
        self.cuts = self.marks[order[starts]].tolist()  # the sampled nodes, ascending
        order, bounds = order.tolist(), [*starts.tolist(), order.size]
        self.rows = {m: order[i:j] for m, i, j in zip(self.cuts, bounds, bounds[1:])}

    def _merge(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The extra nodes among the sample times ``s``, the interval node
        after each, and each sample time's node."""
        j = np.minimum(np.searchsorted(self.hi, s), len(self.n) - 1)  # the interval (lo, hi] holding s
        lo, hi, n, step, base = (np.array(v)[j] for v in (self.lo, self.hi, self.n, self.step, self.base))

        def node(r: np.ndarray) -> np.ndarray:
            return np.where(r == n, hi, r * step + lo)

        r = np.clip(np.ceil((s - lo) / step), 1, n)  # the first node at or after s, up to rounding
        r = np.where((r > 1) & (node(r - 1) >= s), r - 1, r)
        r = np.where((r < n) & (node(r) < s), r + 1, r)
        t0, t1 = node(r - 1), node(r)
        tol = _SNAP * (t1 - t0)
        down, up = s - t0 <= tol, t1 - s <= tol
        off = ~(down | up)
        nxt = base + r.astype(int)  # the interval node at t1
        order = np.argsort(s[off], kind="stable")
        extra, after = s[off][order], nxt[off][order]
        keep = np.diff(extra, prepend=-np.inf) > 0
        extra, after = extra[keep], after[keep]
        marks = nxt - down
        marks += np.searchsorted(after, marks, side="right")
        i = np.searchsorted(extra, s[off])
        marks[off] = after[i] + i
        return extra, after, marks

    def nodes(self, a: int, b: int) -> np.ndarray:
        """Nodes a..b: one multiply-add per interval piece, extra nodes sorted in."""
        k0, k1 = bisect_left(self.extra_at, a), bisect_right(self.extra_at, b)
        p, last = a - k0, b - k1  # the interval nodes among them
        j = min(bisect_right(self.base, p), len(self.n)) - 1
        pieces = []
        while True:
            r0, r1 = p - self.base[j], min(last - self.base[j], self.n[j])
            x = np.arange(r0, r1 + 1, dtype=float)
            x *= self.step[j]
            x += self.lo[j]
            if r1 == self.n[j]:
                x[-1] = self.hi[j]
            pieces.append(x)
            if last - self.base[j] <= self.n[j]:
                break
            j += 1
            p = self.base[j] + 1
        if k0 == k1:
            return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        x = np.concatenate([*pieces, self.extra[k0:k1]])
        x.sort()  # extra nodes lie strictly between interval nodes
        return x

    def flags(self, a: int, b: int) -> np.ndarray:
        """Which of the steps a..b-1 end at a breakpoint or T."""
        out = np.zeros(b - a, dtype=bool)
        for e in self.end_at[bisect_right(self.end_at, a) : bisect_right(self.end_at, b)]:
            out[e - a - 1] = True
        return out

    def chunks(self, size: int) -> Iterator[tuple[int, int, np.ndarray, np.ndarray, list[int]]]:
        """Each chunk [a, b) of ``size`` steps: a, b, its nodes a..b, which of
        its steps end at a breakpoint or T, and the sampled nodes in (a, b)
        followed by b.  Nodes are computed a block of chunks at a time, at
        most ``CHUNK_BYTES`` of them."""
        block = size * max(1, CHUNK_BYTES // (8 * size))
        for start in range(0, self.steps, block):
            stop = min(start + block, self.steps)
            nodes, left = self.nodes(start, stop), self.flags(start, stop)
            for a in range(start, stop, size):
                b = min(a + size, stop)
                ends = self.cuts[bisect_right(self.cuts, a) : bisect_left(self.cuts, b)] + [b]
                yield a, b, nodes[a - start : b - start + 1], left[a - start : b - start], ends

    def lengths(self) -> np.ndarray:
        """The distinct step lengths, ascending, in one pass over blocks of
        ``CHUNK_BYTES`` of nodes."""
        return _distinct(np.concatenate([_distinct(np.diff(x)) for _, _, x, _, _ in self.chunks(CHUNK_BYTES // 8)]))


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """Product mats[..., -1, :, :] @ ... @ mats[..., 0, :, :] via an
    order-preserving tree reduction along the step axis, -3."""
    while mats.shape[-3] > 1:
        if mats.shape[-3] % 2:
            tail = mats[..., -1:, :, :]
            mats = np.matmul(mats[..., 1::2, :, :], mats[..., :-1:2, :, :])
            mats = np.concatenate([mats, tail], axis=-3)
        else:
            mats = np.matmul(mats[..., 1::2, :, :], mats[..., ::2, :, :])
    return mats[..., 0, :, :]


def _grouped(factors: np.ndarray, ends: list[int]) -> np.ndarray:
    """The runs factors[ends[g - 1]:ends[g]] (ends increasing, the last
    len(factors)) as one (G, L, dim, dim) stack, each padded after its last
    factor with identities to the longest run's length L.

    An identity factor changes no product, and padding at the end leaves each
    run's tree reduction pairing its factors as it would alone, so
    ``_ordered_product`` of the stack is each run's product bit for bit.
    """
    starts, eye = [0, *ends[:-1]], np.eye(factors.shape[-1])
    out = np.empty((len(ends), max(e - s for s, e in zip(starts, ends))) + factors.shape[1:])
    for g, (s, e) in enumerate(zip(starts, ends)):
        out[g, : e - s] = factors[s:e]
        out[g, e - s :] = eye
    return out


# step_factors(grid) -> factors(nodes, left): the real (len(nodes) - 1, dim, dim)
# factors of the steps between a chunk's nodes; ``left`` marks the steps that
# end at a breakpoint or T
StepFactors = Callable[[_Grid], Callable[[np.ndarray, np.ndarray], np.ndarray]]


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
    restore: Callable[[np.ndarray], np.ndarray],
) -> EvolutionResult:
    """Ordered product of real per-step factors over one repetition, chunk
    by chunk, raised to the ``repetitions``-th power.

    ``steps`` budgets one repetition, [0, duration / repetitions]; without
    it, ``steps_per_period`` does, or else the rule's default budget.
    ``restore`` maps a stack of real products to the complex propagators or
    superoperators the result reports, once for the snapshots and the final
    product together.
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
    if times is not None and not ((times >= 0.0) & (times <= duration)).all():  # NaN too
        raise ValueError(f"sample times must lie in [0, {duration:.3e}] s")
    grid = _Grid(period, steps, breakpoints, times)
    chunk = max(1, CHUNK_BYTES // (8 * dim * dim))
    factors_of = step_factors(grid)
    rows = grid.rows
    held = None if times is None else np.empty((times.size + 1, dim, dim))  # each sample's product, then the final
    state = np.eye(dim)
    for r in rows.get(0, ()):
        held[r] = state
    for a, b, nodes, left, ends in grid.chunks(chunk):
        factors = factors_of(nodes, left)
        if len(ends) == 1:
            products = [_ordered_product(factors)]
        else:  # the chunk's sample intervals in one reduction, then one product per sample
            products = _ordered_product(_grouped(factors, [m - a for m in ends]))
        for m, product in zip(ends, products):
            state = product @ state
            for r in rows.get(m, ()):
                held[r] = state
    final = np.linalg.matrix_power(state, repetitions)  # repeated squaring
    if times is None:
        states, final = None, restore(final)
    else:  # restored together, so a sample at T is the final product bit for bit
        held[-1] = final
        out = restore(held)
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


def _midpoint_factors(h: _Terms, grid: _Grid) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    rows = _closed_rows(_stepped(h, grid.duration))

    def factors(nodes: np.ndarray, left: np.ndarray) -> np.ndarray:
        dts = np.diff(nodes)
        mids = nodes[:-1] + dts / 2.0
        with np.errstate(invalid="ignore"):  # non-finite coefficients are rejected in _combine
            coef = h.coefficients(mids) * dts[:, None]
        return batched_expm(_combine(coef, h.segment_index(mids), rows).reshape(-1, 8, 8))

    return factors


def filon_weights(nus: np.ndarray, hs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The exact oscillatory integrals of a Magnus-Filon step of length h.

    phi[u, k] = int_0^h e^{i nu_k s} ds and
    jj[u, k, l] = int_0^h e^{i nu_k s} int_0^s e^{i nu_l r} dr ds at h = hs[u].
    Both are divided differences of exp (Hermite-Genocchi): with
    z1 = i nu_k h and z2 = i (nu_k + nu_l) h, phi = h f[0, z1] and
    jj = h^2 f[0, z1, z2], summed as power series, free of the cancellation
    of the closed forms as nu h -> 0, up to |z2| = 2 |nu| h = _SERIES_RADIUS.
    """
    nus, hs = np.asarray(nus, dtype=float), np.asarray(hs, dtype=float)
    k, l = np.indices((nus.size, nus.size)).reshape(2, -1)
    phi, jj = _filon_series(nus, hs, k, l, _series_terms(nus, hs))
    return phi, jj.reshape(hs.size, nus.size, nus.size)


def _series_terms(nus: np.ndarray, hs: np.ndarray) -> int:
    """Terms of the ``filon_weights`` series for every step length in ``hs``."""
    r = 2.0 * np.abs(nus).max(initial=0.0) * np.abs(hs).max(initial=0.0)  # max |z2|, at k = l
    if not r <= _SERIES_RADIUS:
        raise ValueError(f"Magnus-Filon step too long: |z| = 2 |nu h| reaches {r:.3g}, above {_SERIES_RADIUS}")
    terms = 1
    while (terms + 1) * r**terms / math.factorial(terms + 2) > _SERIES_TOL:
        terms += 1
    return terms


def _filon_series(
    nus: np.ndarray, hs: np.ndarray, k: np.ndarray, l: np.ndarray, terms: int
) -> tuple[np.ndarray, np.ndarray]:
    """phi[u, k] and jj[u, p] = jj[u, k[p], l[p]] of ``filon_weights``, at a
    given number of series terms."""
    x = 1j * np.multiply.outer(hs, nus)
    z1, z2 = x[:, k], x[:, k] + x[:, l]
    # f[0, z1] = sum z1^n / (n + 1)!; f[0, z1, z2] = sum c_n / (n + 2)! with
    # c_n = sum_{p + q = n} z1^p z2^q = z1 c_{n-1} + z2^n
    p1, s1 = np.ones_like(x), np.ones_like(x)
    p2, cn, s2 = np.ones_like(z2), np.ones_like(z2), np.full_like(z2, 0.5)
    for n in range(1, terms):
        p1 *= x
        s1 += p1 / math.factorial(n + 1)
        p2 *= z2
        cn = z1 * cn + p2
        s2 += cn / math.factorial(n + 2)
    return hs[:, None] * s1, hs[:, None] ** 2 * s2


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
    Hamiltonian given as Fourier terms on constant-envelope segments, in
    real form.

    On a step [t0, t0 + h] of a segment where H = sum_k G_k e^{i nu_k t},
    i Omega = sum_k e^{i nu_k t0} phi_k G_k
              - (i/2) sum_{k<l} e^{i (nu_k + nu_l) t0} (J_kl - J_lk) [G_k, G_l],
    with phi and J from ``filon_weights``, evaluated once per distinct step
    length of the grid (``hs``): Filon coefficients of the rows G_k and
    [G_k, G_l].  The tables are built ``_FILON_BLOCK`` lengths at a time, J
    only at the pairs (k, l) and (l, k) that enter, with the series length
    of all of them, so they equal one-shot ``filon_weights`` tables bit for
    bit.  A chunk finds its steps' rows by length and their segments by
    midpoint.
    """

    def __init__(self, h: _Terms, grid: _Grid):
        self.segment_index = h.segment_index
        count = len(_stepped(h, grid.duration))
        self.nus, self.k, self.l, rows = _generators(h, np.arange(count))
        self.rows = _closed_rows(rows.reshape(count, -1, 4, 4))
        self.hs = hs = grid.lengths()
        terms, pairs = _series_terms(self.nus, hs), self.k.size
        k, l = np.concatenate([self.k, self.l]), np.concatenate([self.l, self.k])  # J_kl, then J_lk
        self.phi = np.empty((hs.size, self.nus.size), dtype=complex)
        self.dj = np.empty((hs.size, pairs), dtype=complex)
        for i in range(0, hs.size, _FILON_BLOCK):
            block = slice(i, i + _FILON_BLOCK)
            self.phi[block], jj = _filon_series(self.nus, hs[block], k, l, terms)
            self.dj[block] = -0.5j * (jj[:, :pairs] - jj[:, pairs:])

    def __call__(self, nodes: np.ndarray, left: np.ndarray) -> np.ndarray:
        t0 = nodes[:-1]
        dts = nodes[1:] - t0
        u = self.hs.searchsorted(dts)  # each step's row of the tables
        phase = np.exp(1j * np.multiply.outer(t0, self.nus))
        coef = np.concatenate([phase * self.phi[u], phase[:, self.k] * phase[:, self.l] * self.dj[u]], axis=1)
        return batched_expm(_combine(coef, self.segment_index(t0 + dts / 2.0), self.rows).reshape(-1, 8, 8))


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
    terms (or else batch evaluator) and frequency bound are used.  One given as Fourier
    terms whose segments (those of one repetition) all have constant
    envelopes is integrated by the Magnus-Filon step, any other by the
    midpoint rule.  With ``sample_times`` the intermediate propagators
    U(t_k, 0) are recorded as well.  With ``repetitions`` = N, H(t)
    repeats every duration / N: one repetition is integrated, on ``steps``
    steps, and raised to the N-th power.
    """
    h, fmax = _resolve_hamiltonian(hamiltonian)
    stepped = h.segments[: len(_stepped(h, duration / repetitions))] if isinstance(h, FourierTerms) else ()
    if isinstance(h, FourierTerms) and None not in [seg.level for seg in stepped]:
        rule, factors = "magnus_filon", partial(_MagnusFilon, h)
    else:
        rule, factors = "midpoint", partial(_midpoint_factors, h)
    res = _propagate(
        fmax, rule, factors, duration, steps, breakpoints, sample_times, steps_per_period, repetitions,
        8, complexify,
    )
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


def _open_rows(mats: np.ndarray) -> np.ndarray:
    """(S, 2K, 256) rows Re L_k, -Im L_k, L_k = -i[R_k, .] in the basis B: the
    real part of the Liouvillian of sum_k c_k R_k, all of it for Hermitian H."""
    ls = mats.reshape(mats.shape[0], -1, 16) @ _UNIT_LIOUVILLIANS
    return np.stack([ls.real, -ls.imag], axis=2).reshape(mats.shape[0], -1, 256)


def _rk4_factors(h: _Terms, diss: np.ndarray, grid: _Grid) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """One classical RK4 step of the linear master equation per step, as a
    real 16x16 matrix in the basis B, from Liouvillians -i[H, .] + D."""
    rows = _open_rows(_stepped(h, grid.duration))

    def factors(nodes: np.ndarray, left: np.ndarray) -> np.ndarray:
        dts = np.diff(nodes)
        n, t0 = dts.size, nodes[:-1]
        # a step ending at a breakpoint or T takes H just inside; where that is
        # an interior node, the node's own H starts the next step
        ends = nodes[1:] - np.where(left, _LEFT_LIMIT * dts, 0.0)
        split = np.flatnonzero(left[:-1])
        ts = np.concatenate([t0, ends[-1:], t0 + dts / 2.0, ends[split]])
        ls = _combine(h.coefficients(ts), h.segment_index(ts), rows)
        ls += diss.reshape(-1)
        ls = ls.reshape(-1, 16, 16)
        l0, lm = ls[:n], ls[n + 1 : 2 * n + 1]
        end_index = np.arange(1, n + 1)
        end_index[split] = np.arange(2 * n + 1, ls.shape[0])
        l1 = ls[end_index]
        dt = dts[:, None, None]
        eye = np.eye(16)
        # k1 = l0, k2 = lm (I + dt/2 k1), k3 = lm (I + dt/2 k2), k4 = l1 (I + dt k3),
        # in place: a fresh temporary of a chunk's size costs more than its arithmetic
        x = l0 * (0.5 * dt)
        x += eye
        k = lm @ x
        acc = k * 2.0
        acc += l0
        np.multiply(k, 0.5 * dt, out=x)
        x += eye
        np.matmul(lm, x, out=k)
        acc += k
        acc += k
        np.multiply(k, dt, out=x)
        x += eye
        np.matmul(l1, x, out=k)
        acc += k
        acc *= dt / 6.0
        acc += eye
        return acc

    return factors


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
    is as for :func:`propagate_unitary`.  H(t) must be Hermitian: the steps
    are taken in the Pauli basis, where only its Hermitian part enters.
    """
    h, fmax = _resolve_hamiltonian(hamiltonian)
    diss = _in_pauli_basis(dephasing_dissipator(params))
    return _propagate(
        fmax, "rk4", partial(_rk4_factors, h, diss), duration, steps, breakpoints, sample_times, steps_per_period,
        repetitions, 16, _from_pauli_basis,
    )


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
    at RK4's default of 200 steps per period unless ``steps`` is given.

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

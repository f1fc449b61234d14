"""Concrete pulse schedules for the four gate construction schemes.

A schedule is an ordered list of segments tiling [0, T].  Each segment
carries the exchange envelope j(t) (rad/s), the exchange carrier
(omega, psi) entering J(t) = 2 j(t) cos(omega t + psi), and, for the
B-gate scheme, the transverse drive amplitude/carrier.  Every envelope is
a ``Polynomial`` on its segment, held as data: coefficients in a local
time, an origin, a scale and a gain.  It is constant (degree 0) for the
rectangular, geometric and B-gate schemes and degree 6 for ``fsim_poly``.
The defining integrals of a schedule are exact, taken from those
coefficients, and segment boundaries are where discontinuous envelopes
jump, so nothing is smoothed.  A schedule is plain data, so it pickles.

The N-repetition rule compresses the base envelope N-fold in time and
repeats it, leaving amplitudes unchanged; the defining integrals are
preserved because each repetition spans a whole carrier period.  A
schedule built that way records N as its ``repetitions`` count, which
its constructor checks against the segments, so the propagators may
integrate one repetition and raise it to the N-th power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .algebra import TWO_PI
from .trajectories import (
    GateTarget,
    IntegralConstraint,
    PhysicalControls,
    solve_bgate_controls,
    solve_fsim_controls,
)

# per-segment fields every repetition shares
_CARRIER_FIELDS = ("carrier_omega", "carrier_phase", "drive_amp", "drive_omega", "drive_phase")


@dataclass(frozen=True)
class Polynomial:
    """Envelope j(t) = gain * sum_m c_m x^m in the local time x = (t - origin) / scale.

    Called on absolute times (vectorized), it sums the terms in increasing
    m and skips zero coefficients.
    """

    coefficients: tuple[float, ...]
    origin: float
    scale: float = 1.0
    gain: float = 1.0

    def __call__(self, ts: np.ndarray) -> np.ndarray:
        x = (np.asarray(ts, dtype=float) - self.origin) / self.scale
        terms = [c * x**m for m, c in enumerate(self.coefficients) if c] or [np.zeros_like(x)]
        return self.gain * sum(terms[1:], terms[0])

    def integral(self, omega: float, lo: float, hi: float) -> complex:
        """Integral of j(t) e^{i omega t} over [lo, hi], in closed form.

        The moments M_m = int_a^b x^m e^{ikx} dx in the local time, with
        k = omega * scale, come from the Taylor series of e^{ikx} where
        |k x| <= 2 on [a, b] (30 terms reach rounding there; at omega = 0
        the first term is the antiderivative).  Elsewhere they come from the
        recurrence M_m = ([x^m e^{ikx}]_a^b - m M_{m-1}) / (ik), which scales
        earlier rounding errors by m / |k|, so by at most 6! / 2^6 over
        degree 6.  On a window that holds the origin |a|, |b| <= b - a, so
        the differences b^p - a^p lose no digits; a non-constant envelope is
        first re-expanded about the centre of any other window.
        """
        coefficients, origin = self.coefficients, self.origin
        a, b = (lo - origin) / self.scale, (hi - origin) / self.scale
        if len(coefficients) > 1 and (a > 0.0 or b < 0.0):
            shift = (a + b) / 2.0
            coefficients, origin = _taylor_shift(coefficients, shift), origin + shift * self.scale
            a, b = (lo - origin) / self.scale, (hi - origin) / self.scale
        k = omega * self.scale
        if abs(k) * max(abs(a), abs(b)) <= 2.0:
            total = sum(
                c * (1j * k) ** n / math.factorial(n) * (b ** (m + n + 1) - a ** (m + n + 1)) / (m + n + 1)
                for m, c in enumerate(coefficients)
                if c
                for n in range(30 if k else 1)
            )
        else:
            ea, eb = np.exp(1j * k * a), np.exp(1j * k * b)
            total, moment = 0.0j, 0.0j
            for m, c in enumerate(coefficients):
                moment = (b**m * eb - a**m * ea - m * moment) / (1j * k)
                total += c * moment
        return complex(self.gain * self.scale * np.exp(1j * omega * origin) * total)

    def antiderivative(self) -> Polynomial:
        """int j dt, vanishing at the origin."""
        coefficients = (0.0, *(c / (m + 1) for m, c in enumerate(self.coefficients)))
        return replace(self, coefficients=coefficients, gain=self.gain * self.scale)

    def peak(self, lo: float, hi: float) -> float:
        """max |j(t)| over [lo, hi], exact: at an end or at a root of j' inside,
        where the real part of every root is tried, lest rounding hide one."""
        a, b = (lo - self.origin) / self.scale, (hi - self.origin) / self.scale
        slope = [m * c for m, c in enumerate(self.coefficients)][:0:-1]  # highest power first
        xs = [a, b, *(r.real for r in np.roots(slope) if a < r.real < b)] if len(slope) > 1 else [a, b]
        return float(np.abs(self(self.origin + self.scale * np.array(xs))).max())


def _taylor_shift(coefficients: tuple[float, ...], shift: float) -> tuple[float, ...]:
    """Coefficients of p(y + shift) from those of p(x), by repeated synthetic division."""
    d = list(coefficients)
    for i in range(len(d) - 1):
        for m in range(len(d) - 2, i - 1, -1):
            d[m] += shift * d[m + 1]
    return tuple(d)


@dataclass(frozen=True)
class Segment:
    """One control segment on [t_start, t_end)."""

    t_start: float
    t_end: float
    envelope: Polynomial  # j(t), rad/s
    carrier_omega: float
    carrier_phase: float = 0.0
    drive_amp: float = 0.0  # B_y^1 amplitude (rad/s); physical field is 2 B_y^1 cos(...)
    drive_omega: float = 0.0
    drive_phase: float = 0.0

    @property
    def level(self) -> float | None:
        """j of a constant (degree-0) envelope, None for any other."""
        env = self.envelope
        return env.gain * env.coefficients[0] if len(env.coefficients) == 1 else None


@dataclass(frozen=True)
class PulseSchedule:
    """Piecewise control record for one composite gate."""

    segments: tuple[Segment, ...]
    duration: float
    scheme: str
    controls: PhysicalControls
    rabi_delta: float = 0.0
    detuning_eps: float = 0.0
    meta: Mapping[str, float] = field(default_factory=dict)
    # N when the controls repeat every T/N: segment k m + i is segment i
    # shifted by k T/N, with the same carriers, each a whole number of turns
    # per repetition.  Rabi and detuning errors keep the count.
    repetitions: int = 1

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("schedule needs at least one segment")
        t = 0.0
        for seg in self.segments:
            if not math.isclose(seg.t_start, t, rel_tol=0.0, abs_tol=1e-15 * self.duration + 1e-30):
                raise ValueError("segments must tile [0, T] without gaps or overlaps")
            if seg.t_end <= seg.t_start:
                raise ValueError("segment must have positive length")
            t = seg.t_end
        if not math.isclose(t, self.duration, rel_tol=1e-12):
            raise ValueError("segments must end exactly at the schedule duration")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.repetitions > 1:
            self._check_repetitions()

    def _check_repetitions(self) -> None:
        """Reject a repetition count that the segments contradict."""
        n, period = self.repetitions, self.period
        if len(self.segments) % n:
            raise ValueError(f"{len(self.segments)} segments do not split into {n} repetitions")
        per_rep = len(self.segments) // n
        tol = 1e-12 * self.duration
        for i, seg in enumerate(self.segments[per_rep:], start=per_rep):
            base, shift = self.segments[i % per_rep], (i // per_rep) * period
            if abs(seg.t_start - shift - base.t_start) > tol or abs(seg.t_end - shift - base.t_end) > tol:
                raise ValueError(f"segment {i} does not start and end one repetition after segment {i % per_rep}")
            if any(getattr(seg, f) != getattr(base, f) for f in _CARRIER_FIELDS):
                raise ValueError(f"segment {i} has other carrier or drive fields than segment {i % per_rep}")
            env, ref = seg.envelope, base.envelope
            if replace(env, origin=ref.origin) != ref or abs(env.origin - shift - ref.origin) > tol:
                raise ValueError(f"segment {i} envelope is not segment {i % per_rep}'s shifted by a repetition")
        for seg in self.segments[:per_rep]:
            for omega in (seg.carrier_omega, seg.drive_omega if seg.drive_amp else 0.0):
                turns = omega * period / TWO_PI
                if not math.isclose(turns, round(turns), rel_tol=1e-12, abs_tol=1e-12):
                    raise ValueError(
                        f"carrier {omega:.6e} rad/s makes {turns:.12g} turns per repetition, not a whole number"
                    )

    @property
    def period(self) -> float:
        """Length T/N of one repetition."""
        return self.duration / self.repetitions

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return tuple(seg.t_start for seg in self.segments[1:])

    def _segment_index(self, ts: np.ndarray) -> np.ndarray:
        edges = np.array([seg.t_end for seg in self.segments[:-1]])
        return np.searchsorted(edges, ts, side="right")

    def envelope(self, ts: np.ndarray) -> np.ndarray:
        """j(t) sampled at absolute times (vectorized)."""
        ts = np.asarray(ts, dtype=float)
        idx = self._segment_index(np.atleast_1d(ts))
        out = np.empty(idx.shape, dtype=float)
        for k in np.flatnonzero(np.bincount(idx)):  # np.unique would import numpy.ma (1.7 MB)
            sel = idx == k
            out[sel] = self.segments[k].envelope(np.atleast_1d(ts)[sel])
        return out.reshape(np.shape(ts)) if np.shape(ts) else float(out[0])

    def _per_segment(self, ts: np.ndarray, *fields: str) -> tuple[np.ndarray, ...]:
        idx = self._segment_index(np.atleast_1d(np.asarray(ts, dtype=float)))
        return tuple(np.array([getattr(seg, f) for seg in self.segments])[idx] for f in fields)

    def carrier(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(omega, psi) of the exchange carrier at each sample time."""
        return self._per_segment(ts, "carrier_omega", "carrier_phase")

    def drive(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(B_y^1, omega_drive, phase) at each sample time."""
        return self._per_segment(ts, "drive_amp", "drive_omega", "drive_phase")

    def exchange(self, ts: np.ndarray) -> np.ndarray:
        """Full exchange pulse J(t) = 2 j(t) cos(omega t + psi)."""
        om, ps = self.carrier(np.atleast_1d(ts))
        j = self.envelope(np.atleast_1d(ts))
        out = 2.0 * j * np.cos(om * np.atleast_1d(ts) + ps)
        return out.reshape(np.shape(ts)) if np.shape(ts) else float(out[0])

    def max_envelope(self) -> float:
        """max_t |j(t)|, exact: each segment's at its ends and at the roots of j'."""
        return max(seg.envelope.peak(seg.t_start, seg.t_end) for seg in self.segments)

    def max_exchange(self) -> float:
        """max_t |J(t)| over 4001 samples per segment: at most the envelope
        amplitude 2 max|j|, and equal to it for every scheme but ``fsim_poly``."""
        peak = 0.0
        for seg in self.segments:
            ts = np.linspace(seg.t_start, seg.t_end, 4001)
            peak = max(peak, float(np.max(np.abs(2.0 * seg.envelope(ts) * np.cos(seg.carrier_omega * ts + seg.carrier_phase)))))
        return peak

    def integrate_envelope(self, omega: float = 0.0, t_start: float = 0.0, t_end: float | None = None) -> float:
        """Integral of j(t) cos(omega t) over [t_start, t_end] (default the
        whole gate), exact from each segment's polynomial."""
        t_end = self.duration if t_end is None else t_end
        total = 0.0
        for seg in self.segments:
            lo = max(t_start, seg.t_start)
            hi = min(t_end, seg.t_end)
            if hi > lo:
                total += seg.envelope.integral(omega, lo, hi).real
        return total

    def integrate_exchange(self) -> float:
        """Integral of the full pulse J(t) = 2 j cos(wt + psi) over [0, T], exact."""
        total = 0.0
        for seg in self.segments:
            moment = seg.envelope.integral(seg.carrier_omega, seg.t_start, seg.t_end)
            total += (2.0 * np.exp(1j * seg.carrier_phase) * moment).real
        return total

    def check_constraints(self) -> dict[str, float]:
        """Evaluate every defining integral in closed form.

        Returns {label: |integral - target|}.
        """
        residuals: dict[str, float] = {}
        for c in self.controls.constraints:
            val = self.integrate_envelope(c.omega, c.t_start, c.t_end)
            residuals[c.label] = abs(val - c.target)
        return residuals


# ---------------------------------------------------------------------------
# fSim schemes
# ---------------------------------------------------------------------------


def fsim_rectangular(
    theta: float, xi: float, duration: float, n_reps: int = 1, *, shifted: bool = False
) -> PulseSchedule:
    """Three-level rectangular envelope realizing fSim(theta, xi) in one step.

    Base pulse: j = (8 theta -/+ xi pi)/(4T) on the outer quarters / middle
    half; for n_reps > 1 the time axis is deflated N-fold and the pulse
    repeated, with carrier delta_Ez = 2 N pi / T.
    """
    controls = solve_fsim_controls(theta, xi, duration, n_reps, shifted=shifted)
    lo = (8.0 * theta - xi * math.pi) / (4.0 * duration)
    hi = (8.0 * theta + xi * math.pi) / (4.0 * duration)
    omega = controls.delta_ez
    rep = duration / n_reps
    segments = []
    for k in range(n_reps):
        t0 = k * rep
        for frac0, frac1, level in ((0.0, 0.25, lo), (0.25, 0.75, hi), (0.75, 1.0, lo)):
            segments.append(
                Segment(t0 + frac0 * rep, t0 + frac1 * rep, Polynomial((level,), t0), omega)
            )
    return PulseSchedule(
        segments=tuple(segments),
        duration=duration,
        scheme="fsim_rect",
        controls=controls,
        meta={"theta": theta, "xi": xi, "n_reps": n_reps, "j_lo": lo, "j_hi": hi},
        repetitions=n_reps,
    )


def polynomial_coefficients(theta: float, xi: float, n_reps: int, eta: float) -> tuple[float, float]:
    """(alpha_hat, beta) of the degree-6 envelope; alpha_hat = alpha * T.

    beta solves the cosine-moment constraint for a single pulse against
    cos(2 n_reps pi t / T); alpha then fixes the area to 2 theta.  Either
    solution denominator may vanish (the amplitude normalization does so
    identically at eta = 0, where beta = -2/5 and 14 + 35 beta = 0), and the
    beta one overflows as theta -> 0: the family's singular configurations.
    """
    m = n_reps * math.pi
    a_coef = -(6300.0 + 12600.0 * eta)
    b_coef = 60.0 * eta + 35.0
    if theta == 0.0:
        raise ValueError("polynomial family is parameterized by xi/theta; theta = 0 is singular")
    ratio = xi / theta
    den = 18900.0 * eta + a_coef * m**2 + b_coef * m**6 * ratio
    scale = abs(18900.0 * eta) + abs(a_coef) * m**2 + abs(b_coef) * m**6 * abs(ratio)
    if not math.isfinite(scale) or abs(den) < 1e-9 * scale:
        raise ValueError(
            f"singular polynomial configuration: beta denominator vanishes or overflows "
            f"(eta={eta}, n_reps={n_reps}, xi/theta={ratio})"
        )
    beta = (2520.0 * m**2 - 14.0 * m**6 * ratio) / den
    norm = 14.0 + 35.0 * beta + 60.0 * eta * beta
    if abs(norm) < 1e-9 * (14.0 + abs(35.0 * beta) + abs(60.0 * eta * beta)):
        raise ValueError(
            f"singular polynomial configuration: amplitude denominator vanishes "
            f"(eta={eta}, n_reps={n_reps}, xi/theta={ratio})"
        )
    alpha_hat = 840.0 * theta / norm
    return alpha_hat, beta


def _poly_envelope(alpha_hat: float, beta: float, eta: float, t0: float, rep: float, duration: float) -> Polynomial:
    coefficients = (
        0.0, 0.0, 1.0 + 2.0 * beta + 3.0 * eta * beta, -(3.0 * beta + 4.0 * eta * beta + 2.0), 1.0, beta, eta * beta
    )
    return Polynomial(coefficients, t0, rep, alpha_hat / duration)


def fsim_polynomial(
    theta: float,
    xi: float,
    duration: float,
    n_reps: int = 1,
    eta: float = -1.0 / 3.0,
    *,
    repeat: bool = True,
) -> PulseSchedule:
    """Smooth degree-6 polynomial envelope with tunable parameter eta.

    j(0) = j(T) = 0 with matching end slopes by construction.  With
    ``repeat`` (default) the n_reps > 1 schedule is the N-fold compressed
    repetition of the base pulse, exactly like the rectangular scheme; the
    single-pulse variant (``repeat=False``) instead recomputes beta against
    the cos(2 N pi t / T) moment, at the cost of a much larger amplitude.
    """
    controls = solve_fsim_controls(theta, xi, duration, n_reps)
    omega = controls.delta_ez
    if repeat:
        alpha_hat, beta = polynomial_coefficients(theta, xi, 1, eta)
        rep = duration / n_reps
        segments = tuple(
            Segment(k * rep, (k + 1) * rep, _poly_envelope(alpha_hat, beta, eta, k * rep, rep, duration), omega)
            for k in range(n_reps)
        )
    else:
        alpha_hat, beta = polynomial_coefficients(theta, xi, n_reps, eta)
        segments = (
            Segment(0.0, duration, _poly_envelope(alpha_hat, beta, eta, 0.0, duration, duration), omega),
        )
    return PulseSchedule(
        segments=segments,
        duration=duration,
        scheme="fsim_poly",
        controls=controls,
        meta={
            "theta": theta,
            "xi": xi,
            "n_reps": n_reps,
            "eta": eta,
            "alpha_hat": alpha_hat,
            "beta": beta,
        },
        repetitions=n_reps if repeat else 1,
    )


def fsim_geometric(theta: float, xi: float, duration: float) -> PulseSchedule:
    """Geometric iSWAP-like rotation plus dynamical conditional phase.

    Four equal segments with discontinuous carrier-phase switching:
    (j, psi) = (2pi/T, pi/2), ((4pi cos th + pi xi)/(2T cos th), th - pi/2),
    ((4pi cos th - pi xi)/(2T cos th), th - pi/2), (2pi/T, pi/2), with
    E_z = xi/(2T) and carrier delta_Ez = 4pi/T.  The envelope areas over
    the three carrier-phase intervals are (pi/2, pi, pi/2), driving the
    bright state equator -> pole -> pole -> equator, and the full exchange
    integral is exactly -xi.
    """
    if abs(math.cos(theta)) < 1e-12:
        raise ValueError("geometric construction divides by cos(theta); theta = pi/2 is excluded")
    if duration <= 0.0:
        raise ValueError("gate duration must be positive")
    base = solve_fsim_controls(theta, xi, duration, 1)
    omega = 4.0 * math.pi / duration
    j_outer = 2.0 * math.pi / duration
    j_plus = (4.0 * math.pi * math.cos(theta) + math.pi * xi) / (2.0 * duration * math.cos(theta))
    j_minus = (4.0 * math.pi * math.cos(theta) - math.pi * xi) / (2.0 * duration * math.cos(theta))
    quarter = duration / 4.0
    layout = (
        (j_outer, math.pi / 2.0),
        (j_plus, theta - math.pi / 2.0),
        (j_minus, theta - math.pi / 2.0),
        (j_outer, math.pi / 2.0),
    )
    segments = tuple(
        Segment(k * quarter, (k + 1) * quarter, Polynomial((j,), 0.0), omega, psi)
        for k, (j, psi) in enumerate(layout)
    )
    constraints = (
        IntegralConstraint("leg1_area", math.pi / 2.0, t_start=0.0, t_end=quarter),
        IntegralConstraint("leg2_area", math.pi, t_start=quarter, t_end=3 * quarter),
        IntegralConstraint("leg3_area", math.pi / 2.0, t_start=3 * quarter, t_end=duration),
    )
    controls = PhysicalControls(
        scheme="fsim_geometric",
        duration=duration,
        e_z=xi / (2.0 * duration),
        delta_ez=omega,
        constraints=constraints,
        target=base.target,
    )
    sched = PulseSchedule(
        segments=segments,
        duration=duration,
        scheme="fsim_geometric",
        controls=controls,
        meta={"theta": theta, "xi": xi, "n_reps": 1},
    )
    return sched


def bgate_rectangular(duration: float, e_z: float, delta_ez: float) -> PulseSchedule:
    """Single-switch rectangular schedule for the B gate.

    [0, 2T/3) realizes B1(pi/4) with drive phase pi/2; [2T/3, T] realizes
    B2(pi/8) with drive phase 0.  The exchange envelope j = -3pi/(2T) is
    constant throughout; only the transverse drive switches at 2T/3.
    Drive carrier omega2 = E_z + delta_Ez/2 in absolute time.
    """
    if duration <= 0.0:
        raise ValueError("gate duration must be positive")
    omega1 = e_z - delta_ez / 2.0
    omega2 = e_z + delta_ez / 2.0
    c1 = solve_bgate_controls("B1", math.pi / 4.0, 2.0 * duration / 3.0, omega1, omega2)
    c2 = solve_bgate_controls("B2", math.pi / 8.0, duration / 3.0, omega1, omega2)
    j_level = -3.0 * math.pi / (2.0 * duration)
    switch = 2.0 * duration / 3.0
    segments = (
        Segment(
            0.0, switch, Polynomial((j_level,), 0.0), delta_ez, 0.0,
            drive_amp=c1.drive_amp, drive_omega=omega2, drive_phase=c1.drive_phase,
        ),
        Segment(
            switch, duration, Polynomial((j_level,), 0.0), delta_ez, 0.0,
            drive_amp=c2.drive_amp, drive_omega=omega2, drive_phase=c2.drive_phase,
        ),
    )
    constraints = (
        IntegralConstraint("b1_area", -math.pi, t_start=0.0, t_end=switch),
        IntegralConstraint("b2_area", -math.pi / 2.0, t_start=switch, t_end=duration),
    )
    controls = PhysicalControls(
        scheme="bgate",
        duration=duration,
        e_z=e_z,
        delta_ez=delta_ez,
        constraints=constraints,
        target=GateTarget("b", duration),
    )
    return PulseSchedule(
        segments=segments,
        duration=duration,
        scheme="bgate",
        controls=controls,
        meta={
            "j_level": j_level,
            "by1_b1": c1.drive_amp,
            "by1_b2": c2.drive_amp,
            "switch": switch,
            # weak-exchange validity indicator J/delta_Ez (reported, not enforced)
            "weak_exchange_ratio": 2.0 * abs(j_level) / delta_ez,
        },
    )


# ---------------------------------------------------------------------------
# Error sensitivity
# ---------------------------------------------------------------------------


def error_sensitivity(schedule: PulseSchedule, *, oversample: int = 1) -> float:
    """Second-order sensitivity q_s to the counter-rotating residue.

    q_s = | integral_0^T exp(-2 i theta(t)) j(t) sin(2 delta_Ez t) (i/2) dt |^2
    with theta(t) the accumulated envelope area, exact from each segment's
    antiderivative, and delta_Ez the schedule's own carrier.  Simpson's rule
    resolves both the carrier and the envelope, with segment edges as
    breakpoints; ``oversample`` multiplies the node density (used by
    convergence checks).
    """
    w = schedule.controls.delta_ez
    total = 0.0 + 0.0j
    theta_acc = 0.0
    periods = max(1.0, w * schedule.duration / TWO_PI)
    per_segment = int(512 * oversample * max(1.0, periods / len(schedule.segments)))
    for seg in schedule.segments:
        n = per_segment
        if n % 2:
            n += 1
        ts = np.linspace(seg.t_start, seg.t_end, n + 1)
        js = seg.envelope(ts)
        h = (seg.t_end - seg.t_start) / n
        area = seg.envelope.antiderivative()
        theta = theta_acc + (area(ts) - area(seg.t_start))
        integrand = np.exp(-2j * theta) * js * np.sin(2.0 * w * ts) * 0.5j
        total += h / 3.0 * (integrand[0] + integrand[-1] + 4.0 * integrand[1:-1:2].sum() + 2.0 * integrand[2:-1:2].sum())
        theta_acc = float(theta[-1])
    return float(abs(total) ** 2)


def optimize_eta(
    theta: float,
    xi: float,
    duration: float,
    n_reps: int = 1,
    eta_grid: Sequence[float] | None = None,
) -> tuple[float, np.ndarray]:
    """Grid argmin of q_s over eta; ties break toward smaller |eta|.

    Returns (eta_star, q_s values over the grid).  Grid points at singular
    configurations are skipped; if every point is singular this raises.
    """
    if eta_grid is None:
        eta_grid = np.linspace(-1.0, 1.0, 201)
    eta_grid = np.asarray(list(eta_grid), dtype=float)
    if eta_grid.size == 0:
        raise ValueError("eta grid must be nonempty")
    qs = np.full(eta_grid.shape, np.inf)
    for i, eta in enumerate(eta_grid):
        try:
            sched = fsim_polynomial(theta, xi, duration, n_reps, float(eta))
        except ValueError:
            continue
        qs[i] = error_sensitivity(sched)
    if not np.any(np.isfinite(qs)):
        raise ValueError("every eta grid point hit a singular configuration")
    best = np.min(qs)
    candidates = np.flatnonzero(qs <= best * (1.0 + 1e-12))
    eta_star = candidates[np.argmin(np.abs(eta_grid[candidates]))]
    return float(eta_grid[eta_star]), qs


# ---------------------------------------------------------------------------
# Error injection on schedules
# ---------------------------------------------------------------------------


def apply_rabi_error(schedule: PulseSchedule, delta: float) -> PulseSchedule:
    """Scale every exchange envelope by (1 + delta); drives are untouched."""
    import warnings

    if abs(delta) > 0.1:
        warnings.warn(f"Rabi error |delta| = {abs(delta)} exceeds the modeled range 0.1")
    if delta == 0.0:
        return schedule
    segments = tuple(
        replace(seg, envelope=replace(seg.envelope, gain=(1.0 + delta) * seg.envelope.gain)) for seg in schedule.segments
    )
    return _same_layout(schedule, segments=segments, rabi_delta=schedule.rabi_delta + delta)


def apply_detuning_error(schedule: PulseSchedule, eps: float) -> PulseSchedule:
    """Mark the schedule with a fractional frame-frequency miscalibration.

    The designed envelopes and carriers are kept; the mismatch enters the
    propagation frame as the diagonal perturbation
    eps * diag(E_z, -delta_Ez/2, +delta_Ez/2, -E_z).
    """
    import warnings

    if abs(eps) > 0.1:
        warnings.warn(f"detuning error |eps| = {abs(eps)} exceeds the modeled range 0.1")
    return _same_layout(schedule, detuning_eps=schedule.detuning_eps + eps)


def _same_layout(schedule: PulseSchedule, **changes) -> PulseSchedule:
    """``dataclasses.replace`` for changes that keep the segment layout: the
    boundaries, the carriers and how the envelopes repeat, which the schedule
    was checked against when it was built, are not checked again."""
    out = object.__new__(PulseSchedule)
    out.__dict__.update(vars(schedule), **changes)
    return out


def detuning_perturbation(e_z: float, delta_ez: float, eps: float) -> np.ndarray:
    """eps * diag(E_z, -delta_Ez/2, +delta_Ez/2, -E_z)."""
    return eps * np.diag([e_z, -delta_ez / 2.0, delta_ez / 2.0, -e_z]).astype(complex)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

SCHEDULE_CSV_HEADER = "t_ns,j_over_2pi_MHz,J_over_2pi_MHz,psi_rad,By_over_2pi_MHz"


def schedule_rows(schedule: PulseSchedule, samples: int = 2001) -> Iterable[tuple[float, ...]]:
    """Time series behind the pulse-shape figures, one row per sample."""
    ts = np.linspace(0.0, schedule.duration, samples)
    j = schedule.envelope(ts)
    jj = schedule.exchange(ts)
    _, psi = schedule.carrier(ts)
    amp, om, ph = schedule.drive(ts)
    by = 2.0 * amp * np.cos(om * ts + ph)
    for k in range(samples):
        yield (
            ts[k] * 1e9,
            j[k] / TWO_PI / 1e6,
            jj[k] / TWO_PI / 1e6,
            psi[k],
            by[k] / TWO_PI / 1e6,
        )

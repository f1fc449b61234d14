"""Reproducible experiment drivers behind the CLI and the scripts.

Each propagated dataset is declared once, as a :class:`Sweep` (its gates,
its conditions, its frame and decoherence), by a function that propagates
nothing: ``table1``, ``fidelity_vs_eta``, ``rabi_sweep``, ``detuning_sweep``,
``robustness_comparison`` and ``initial_phase_sweep``.  ``Sweep.run`` builds each distinct schedule and
grid once and hands the gate-major job list to ``run_jobs``; the CLI's
``simulate`` hands it its own jobs.  A job holds a built schedule, an
initial-state grid and the ``gate_report`` arguments; ``run_jobs``
propagates each distinct gate and injected error once (closed-system or
with projector dephasing) and averages its fidelity over each of its
jobs' grids, in blocks (one per pool worker when asked) that share a
``dynamics.RunTables``, in job order for any worker count, so output is byte-identical.
``run_jobs`` records the invariant checks the CLI exit code keys off: each
distinct pristine schedule's constraint residuals the first time it
appears, and one unitarity or Lindblad-trace check per job.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .device import (
    DEFAULT_DEVICE,
    SCHEMES,
    DeviceParams,
    frame_hamiltonian,
    scheme_spec,
)
from .dynamics import (
    DEFAULT_STEPS_PER_PERIOD,
    EvolutionResult,
    RunTables,
    apply_superoperator,
    lindblad_superoperator,
    propagate_unitary,
)
from .fidelity import (
    FidelityReport,
    InitialStateGrid,
    average_fidelity,
    build_grid,
    require_exact_grid,
)
from .pulses import (
    PulseSchedule,
    apply_detuning_error,
    apply_rabi_error,
    bgate_rectangular,
    error_sensitivity,
    fsim_polynomial,
    fsim_rectangular,
    polynomial_coefficients,
)

# Reference gate parameters used throughout the benchmark datasets.
THETA_REF = math.pi / 4.0
XI_REF = math.pi / 2.0
RECT_GATE_TIME = SCHEMES["fsim_rect"].reference_time
POLY_GATE_TIME = SCHEMES["fsim_poly"].reference_time
GEOMETRIC_GATE_TIME = SCHEMES["fsim_geometric"].reference_time
BGATE_GATE_TIME = SCHEMES["bgate"].reference_time
ETA_REF = -1.0 / 3.0

# the default budget of every run but a closed constant-envelope frame,
# which takes the floor unless given one
STEPS_PER_PERIOD_FULL = DEFAULT_STEPS_PER_PERIOD

# initial state of the exported trajectories
PATH_STATE = np.array([1.0, 1.0, 0.0, 0.0], dtype=complex) / math.sqrt(2.0)


@dataclass
class InvariantCheck:
    name: str
    value: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.value <= self.bound


class InvariantLog:
    """Collects invariant checks across a run; the CLI exit code keys off it."""

    def __init__(self) -> None:
        self.checks: list[InvariantCheck] = []

    def add(self, name: str, value: float, bound: float) -> None:
        self.checks.append(InvariantCheck(name, float(value), float(bound)))

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "ok" if c.ok else "FAIL"
            lines.append(f"[{status}] {c.name}: {c.value:.3e} <= {c.bound:.1e}")
        return "\n".join(lines)


def build_schedule(
    scheme: str,
    theta: float = THETA_REF,
    xi: float = XI_REF,
    duration: float | None = None,
    n_reps: int = 1,
    eta: float = ETA_REF,
    params: DeviceParams = DEFAULT_DEVICE,
) -> PulseSchedule:
    """Construct a schedule, deriving the gate time from the exchange cap if unset.

    One-step fSim times are capped below by the carrier condition
    delta_Ez = 2 N pi / T <= experimentally achievable delta_Ez.
    """
    spec = scheme_spec(scheme)
    duration = spec.gate_time(theta, xi, n_reps, eta, params, duration)
    return spec.build(theta, xi, duration, n_reps, eta, params)


def gate_channel(
    schedule: PulseSchedule,
    *,
    rwa: bool,
    decoherence: bool,
    params: DeviceParams = DEFAULT_DEVICE,
    rabi_delta: float = 0.0,
    detuning_eps: float = 0.0,
    steps_per_period: int | None = None,
    sample_times: Sequence[float] | None = None,
    tables: RunTables | None = None,
) -> EvolutionResult:
    """Propagate one configured gate, at ``steps_per_period`` or else the run's
    default budget (the floor for closed constant envelopes, 200), set-up from ``tables``.

    ``final`` is the 4x4 propagator, or with ``decoherence`` the 16x16
    superoperator; with ``sample_times``, ``states`` holds the same run's
    propagators or superoperators at those times.  Without sample times a
    repeating schedule is propagated over one repetition and raised to the
    power of its repetition count.
    """
    if rabi_delta:
        schedule = apply_rabi_error(schedule, rabi_delta)
    if detuning_eps:
        schedule = apply_detuning_error(schedule, detuning_eps)
    h = frame_hamiltonian(schedule, rwa)
    stepping = dict(
        breakpoints=schedule.breakpoints,
        steps_per_period=steps_per_period,
        sample_times=sample_times,
        repetitions=schedule.repetitions if sample_times is None else 1,
        tables=tables,
    )
    if decoherence:
        return lindblad_superoperator(h, params, schedule.duration, **stepping)
    return propagate_unitary(h, schedule.duration, **stepping)


def log_constraints(schedule: PulseSchedule, log: InvariantLog) -> None:
    # design constraints are checked on the pristine schedule; injected
    # errors intentionally violate them
    for label, residual in schedule.check_constraints().items():
        log.add(f"{schedule.scheme}_{label}", residual, 1e-8)


def log_run(res: EvolutionResult, decoherence: bool, log: InvariantLog) -> None:
    if decoherence:
        rho_t = apply_superoperator(res.final, np.eye(4) / 4.0)
        log.add("lindblad_trace_defect", abs(np.trace(rho_t) - 1.0), 1e-8)
    else:
        log.add("unitarity_defect", res.unitarity_defect, 1e-9)


def fsim_target(schedule: PulseSchedule) -> np.ndarray:
    return schedule.controls.effective_target()


def gate_report(
    schedule: PulseSchedule,
    grid: InitialStateGrid,
    *,
    label: str | None = None,
    convention: str = "standard",
    **gate_channel_kwargs,
) -> tuple[FidelityReport, EvolutionResult]:
    """Propagate one configured gate once and average its fidelity over ``grid``.

    The report names the schedule's scheme (or ``label``), its repetitions,
    gate time and delta_Ez, and the errors injected through
    ``gate_channel_kwargs``, which go to :func:`gate_channel` unchanged.
    """
    res = gate_channel(schedule, **gate_channel_kwargs)
    return _report(schedule, grid, res, label, convention, gate_channel_kwargs), res


def _report(
    schedule: PulseSchedule,
    grid: InitialStateGrid,
    res: EvolutionResult,
    label: str | None,
    convention: str,
    errors: dict,
) -> FidelityReport:
    """``gate_report``'s report of the run ``res`` of ``schedule``, ``errors`` its ``gate_channel`` arguments."""
    return average_fidelity(
        res.final,
        fsim_target(schedule),
        grid,
        convention,
        scheme=label or schedule.scheme,
        n_reps=schedule.meta.get("n_reps", 1),
        gate_time=schedule.duration,
        rabi_delta=errors.get("rabi_delta", 0.0),
        detuning_eps=errors.get("detuning_eps", 0.0),
        delta_ez=schedule.controls.delta_ez,
    )


def state_path(res: EvolutionResult) -> np.ndarray:
    """rho(t) of PATH_STATE at each sampled propagator or superoperator."""
    if res.states.shape[-1] == 4:
        psi = res.states @ PATH_STATE
        return np.einsum("ni,nj->nij", psi, psi.conj())
    rho0 = np.outer(PATH_STATE, PATH_STATE.conj())
    return apply_superoperator(res.states, rho0)


# ---------------------------------------------------------------------------
# Gate jobs
# ---------------------------------------------------------------------------

# (schedule, initial-state grid, gate_report kwargs): the schedule is plain
# data, so a job pickles to a pool worker as it is
Job = tuple[PulseSchedule, InitialStateGrid, dict]


def _run_block(jobs: Sequence[Job]) -> list[tuple[FidelityReport, EvolutionResult]]:
    """``gate_report`` of each job, set-up shared in one ``RunTables``: each
    distinct schedule and ``gate_channel`` arguments (arrays by identity)
    propagated once, its run averaged over each of their jobs' grids."""
    tables, runs, out = RunTables(), {}, []
    for schedule, grid, kwargs in jobs:
        channel = {k: v for k, v in kwargs.items() if k not in ("label", "convention")}
        key = (id(schedule), *((k, id(v) if isinstance(v, np.ndarray) else v) for k, v in sorted(channel.items())))
        if key not in runs:
            runs[key] = gate_channel(schedule, tables=tables, **channel)
        report = _report(schedule, grid, runs[key], kwargs.get("label"), kwargs.get("convention", "standard"), channel)
        out.append((report, runs[key]))
    return out


def run_jobs(
    jobs: Sequence[Job], workers: int = 1, log: InvariantLog | None = None
) -> list[tuple[FidelityReport, EvolutionResult]]:
    """(report, evolution result) of each of ``jobs`` in job order, in one block, or
    ``workers`` > 1 contiguous ones in a process pool; a block's gates share one
    ``RunTables`` and its jobs of one gate and injected errors one propagation.

    ``log`` receives each job's checks in job order: the constraint
    residuals of its pristine schedule the first time that schedule
    appears, then one unitarity or Lindblad-trace check of its run.
    """
    if workers <= 1 or len(jobs) <= 1:
        out = _run_block(jobs)
    else:
        size = -(-len(jobs) // workers)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            out = sum(pool.map(_run_block, [jobs[i : i + size] for i in range(0, len(jobs), size)]), [])
    if log is not None:
        seen: set[int] = set()
        for (schedule, _, report_kwargs), (_, res) in zip(jobs, out):
            if id(schedule) not in seen:
                seen.add(id(schedule))
                log_constraints(schedule, log)
            log_run(res, report_kwargs["decoherence"], log)
    return out


# ---------------------------------------------------------------------------
# Propagated datasets, each declared once
# ---------------------------------------------------------------------------

# the amplitude and detuning errors of fig5 and fig6, and the repetition
# counts of fig5: each sweep's default
PAPER_ERRORS = tuple(np.linspace(-0.1, 0.1, 11))
PAPER_N_VALUES = (1, 2, 3)

# the one condition of an error-free run: the zero-phase grid, no injected error
_PRISTINE = (((0.0, 0.0, 0.0), {}),)


def _errors(name: str, values: Sequence[float]) -> list[tuple[tuple[float, float, float], dict]]:
    """One condition per value of the injected error ``name`` (none given:
    ``PAPER_ERRORS``), on the zero-phase grid."""
    return [((0.0, 0.0, 0.0), {name: float(v)}) for v in tuple(values) or PAPER_ERRORS]


class Sweep(NamedTuple):
    """A propagated dataset: every gate under every condition, gate-major.

    ``gates`` are (key, ``build_schedule`` arguments) and ``conditions`` are
    (initial-state grid phases, errors injected through ``gate_channel``).
    Every gate runs in the RWA frame if ``rwa``, with or without
    ``decoherence``, at its default step budget.  With ``label``, each
    report names its gate key instead of its scheme.
    """

    gates: Sequence[tuple[object, dict]]
    conditions: Sequence[tuple[tuple[float, float, float], dict]]
    rwa: bool
    decoherence: bool
    label: bool = False

    def run(
        self, grid_n: int, workers: int = 1, log: InvariantLog | None = None
    ) -> list[tuple[object, FidelityReport]]:
        """(gate key, report) of every job in job order, from ``run_jobs``;
        each distinct schedule and each distinct grid is built once."""
        require_exact_grid(grid_n, "standard")  # before any build; every sweep report is standard
        schedules = {k: build_schedule(**dict(k)) for k in dict.fromkeys(tuple(a.items()) for _, a in self.gates)}
        grids = {p: build_grid(grid_n, p) for p in dict.fromkeys(p for p, _ in self.conditions)}
        run = dict(rwa=self.rwa, decoherence=self.decoherence)
        keys, jobs = [], []
        for key, args in self.gates:
            for phases, errors in self.conditions:
                keys.append(key)
                label = key if self.label else None
                jobs.append((schedules[tuple(args.items())], grids[phases], {**run, **errors, "label": label}))
        return [(key, rep) for key, (rep, _) in zip(keys, run_jobs(jobs, workers, log))]


def _table1(cells: Sequence[tuple[str, int]]) -> Sweep:
    gates = [((s, n), dict(scheme=s, duration=scheme_spec(s).reference_time, n_reps=n)) for s, n in cells]
    return Sweep(gates, _PRISTINE, rwa=False, decoherence=True)


def table1_entry(scheme: str, n_reps: int) -> Sweep:
    """One fidelity-table cell: decohered pre-RWA fidelity at theta=pi/4, xi=pi/2."""
    return _table1([(scheme, n_reps)])


def table1() -> Sweep:
    """Both fidelity-table rows (rectangular and optimal-parameter) over N = 1..10,
    keyed by (scheme, N)."""
    return _table1([(scheme, n) for scheme in ("fsim_rect", "fsim_poly") for n in range(1, 11)])


def fidelity_vs_eta() -> Sweep:
    """Decohered pre-RWA fidelity of the reference polynomial gate
    (theta = pi/4, xi = pi/2, N = 1) at 41 eta values in [-1, 1], keyed by eta.

    Singular family members are dropped from the sweep.
    """
    etas = _regular_etas(np.linspace(-1.0, 1.0, 41))
    gates = [(eta, dict(scheme="fsim_poly", duration=POLY_GATE_TIME, eta=eta)) for eta in etas]
    return Sweep(gates, _PRISTINE, rwa=False, decoherence=True)


def rabi_sweep(deltas: Sequence[float] = (), scheme: str = "fsim_rect") -> Sweep:
    """Closed-system RWA-frame fidelity of the N = 1 gate under each
    amplitude error (none given: ``PAPER_ERRORS``), for comparison with the
    analytic amplitude-error law.

    The law holds for the one-step fSim schemes only; others are rejected.
    """
    spec = scheme_spec(scheme)
    if not spec.one_step:
        raise ValueError(f"the amplitude-error law covers one-step fSim schemes, not {scheme!r}")
    gates = [(scheme, dict(scheme=scheme, duration=spec.reference_time))]
    return Sweep(gates, _errors("rabi_delta", deltas), rwa=True, decoherence=False)


def _poly_gates(n_values: Sequence[int]) -> list[tuple[int, dict]]:
    """The reference polynomial gate at each N (none given: ``PAPER_N_VALUES``), keyed by N."""
    return [(n, dict(scheme="fsim_poly", duration=POLY_GATE_TIME, n_reps=n)) for n in tuple(n_values) or PAPER_N_VALUES]


def detuning_sweep(eps_values: Sequence[float] = (), n_values: Sequence[int] = ()) -> Sweep:
    """Optimal-parameter-pulse fidelity under frame-frequency miscalibration
    (none given: ``PAPER_ERRORS``), keyed by N."""
    conditions = _errors("detuning_eps", eps_values)
    return Sweep(_poly_gates(n_values), conditions, rwa=True, decoherence=False)


def robustness_comparison(deltas: Sequence[float] = (), eps_values: Sequence[float] = ()) -> Sweep:
    """Geometric+dynamic vs purely dynamic fidelity under control errors
    (none given: ``PAPER_ERRORS``), keyed and labelled "geometric" and
    "dynamic".

    Both schemes run in the RWA frame with decoherence off and the same
    delta_Ez = 4 pi / T, isolating control-error robustness.  Each scheme's
    conditions are sorted by (error kind, value).
    """
    gates = [
        # dynamic comparator: rectangular N=2 so delta_Ez = 4 pi / T matches
        ("dynamic", dict(scheme="fsim_rect", duration=GEOMETRIC_GATE_TIME, n_reps=2)),
        ("geometric", dict(scheme="fsim_geometric", duration=GEOMETRIC_GATE_TIME)),
    ]
    conditions = _errors("detuning_eps", sorted(map(float, eps_values)))
    conditions += _errors("rabi_delta", sorted(map(float, deltas)))
    return Sweep(gates, conditions, rwa=True, decoherence=False, label=True)


def initial_phase_sweep(
    axis: str, values: Sequence[float] = (), n_values: Sequence[int] = (), *, decoherence: bool = True
) -> Sweep:
    """Fidelity of the optimal-parameter scheme vs one initial-state phase
    (none given: five values in [0, pi]), keyed by N."""
    axes = ("phi1", "phi2", "phi3")
    if axis not in axes:
        raise ValueError(f"axis must be one of {axes}, got {axis!r}")
    values = tuple(values) or np.linspace(0.0, math.pi, 5)
    conditions = [(tuple(float(v) if axis == a else 0.0 for a in axes), {}) for v in values]
    return Sweep(_poly_gates(n_values), conditions, rwa=False, decoherence=decoherence)


# ---------------------------------------------------------------------------
# Pulse-amplitude landscape and error sensitivity (the `fig1a`/`fig4c` datasets)
# ---------------------------------------------------------------------------


def amplitude_landscape() -> list[dict]:
    """max |J T| of the rectangular scheme on a 21 x 21 grid of
    0 <= theta <= pi/2, 0 <= xi <= pi."""
    rows = []
    for theta in np.linspace(0.0, math.pi / 2.0, 21):
        for xi in np.linspace(0.0, math.pi, 21):
            jt = 2.0 * fsim_rectangular(theta, xi, 1.0).max_envelope()
            rows.append({"theta_rad": float(theta), "xi_rad": float(xi), "abs_JT_max_rad": float(jt)})
    return rows


def sensitivity_vs_eta(eta_grid: Sequence[float] | None = None, n_reps: int = 1) -> list[dict]:
    """q_s of the reference polynomial gate (theta = pi/4, xi = pi/2) over eta."""
    if eta_grid is None:
        eta_grid = np.linspace(-1.0, 1.0, 201)
    return [
        {"eta": eta, "q_s": error_sensitivity(fsim_polynomial(THETA_REF, XI_REF, POLY_GATE_TIME, n_reps, eta))}
        for eta in _regular_etas(eta_grid)
    ]


def _regular_etas(eta_grid: Sequence[float]) -> list[float]:
    """The eta values of ``eta_grid`` that are not singular members of the
    reference gate's family."""
    etas = []
    for eta in map(float, eta_grid):
        try:
            polynomial_coefficients(THETA_REF, XI_REF, 1, eta)
        except ValueError:
            continue
        etas.append(eta)
    return etas


# ---------------------------------------------------------------------------
# B-gate population trajectory
# ---------------------------------------------------------------------------


def bgate_trajectory() -> tuple[np.ndarray, np.ndarray, EvolutionResult]:
    """Pre-RWA closed-system evolution of PATH_STATE through the B gate of the
    default device at its 76 ns reference time, sampled at 241 times at the
    default budget.

    Returns (times, density matrices along the path, full evolution result).
    """
    schedule = bgate_rectangular(BGATE_GATE_TIME, DEFAULT_DEVICE.e_z, DEFAULT_DEVICE.delta_ez)
    res = gate_channel(
        schedule, rwa=False, decoherence=False, sample_times=np.linspace(0.0, BGATE_GATE_TIME, 241)
    )
    return res.times, state_path(res), res


# ---------------------------------------------------------------------------
# Parallel-transport diagnostics (geometric scheme)
# ---------------------------------------------------------------------------


def parallel_transport_defect(
    schedule: PulseSchedule, sample_count: int = 1000
) -> float:
    """max_t |<b(t)| H_c(t) |b(t)>| * T along the bright-state trajectory.

    Dimensionless (an accumulated-phase rate times the gate time); zero for
    exact parallel transport.
    """
    h = frame_hamiltonian(schedule, rwa=True)
    # sample strictly inside segments; the coupling phase jumps at boundaries
    times = (np.arange(sample_count) + 0.5) * schedule.duration / sample_count
    res = propagate_unitary(
        h, schedule.duration, breakpoints=schedule.breakpoints, sample_times=times
    )
    bt = res.states @ (np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0))
    # H_c is the middle-block coupling alone, so <b|H_c|b> = 2 Re(b_1* H_12 b_2)
    h12 = h.matrices(times)[:, 1, 2]
    return float(np.abs(2.0 * (bt[:, 1].conj() * h12 * bt[:, 2]).real).max()) * schedule.duration

"""Reproducible experiment drivers behind the CLI and the scripts.

Each propagating driver is a list of gate jobs handed to ``run_jobs``.  A
job holds a built schedule, an initial-state grid and the ``gate_report``
arguments.  A driver builds each distinct schedule once and one grid per
grid argument, and its jobs share them.  The runner propagates each job
once (closed-system or with projector dephasing) and averages its fidelity
over the grid, in a process pool when asked.  Reports and their evolution
results come back in job order for any worker count, so the output is
byte-identical regardless of scheduling.  The runner records the invariant
checks the CLI exit code keys off: each distinct pristine schedule's
constraint residuals the first time it appears, and one unitarity or
Lindblad-trace check per job.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

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
    apply_superoperator,
    lindblad_superoperator,
    propagate_unitary,
)
from .fidelity import (
    FidelityReport,
    InitialStateGrid,
    analytic_rabi_fidelity,
    average_fidelity,
    build_grid,
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
STEPS_PER_PERIOD_QUICK = 100

# initial state of the exported trajectories
PATH_STATE = np.array([1.0, 1.0, 0.0, 0.0], dtype=complex) / math.sqrt(2.0)


def _budget(quick: bool) -> int | None:
    return STEPS_PER_PERIOD_QUICK if quick else None


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
) -> EvolutionResult:
    """Propagate one configured gate, at ``steps_per_period`` or else the
    run's default budget (the floor for closed constant envelopes, 200).

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
    report = average_fidelity(
        res.final,
        fsim_target(schedule),
        grid,
        convention,
        scheme=label or schedule.scheme,
        n_reps=schedule.meta.get("n_reps", 1),
        gate_time=schedule.duration,
        rabi_delta=gate_channel_kwargs.get("rabi_delta", 0.0),
        detuning_eps=gate_channel_kwargs.get("detuning_eps", 0.0),
        delta_ez=schedule.controls.delta_ez,
    )
    return report, res


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


def _run_job(job: Job) -> tuple[FidelityReport, EvolutionResult]:
    schedule, grid, report_kwargs = job
    return gate_report(schedule, grid, **report_kwargs)


def run_jobs(
    jobs: Sequence[Job], workers: int = 1, log: InvariantLog | None = None
) -> list[tuple[FidelityReport, EvolutionResult]]:
    """(report, evolution result) of each of ``jobs`` in job order, from a
    process pool when ``workers`` > 1.

    ``log`` receives each job's checks in job order: the constraint
    residuals of its pristine schedule the first time that schedule
    appears, then one unitarity or Lindblad-trace check of its run.
    """
    if workers <= 1 or len(jobs) <= 1:
        out = list(map(_run_job, jobs))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            out = list(pool.map(_run_job, jobs))
    if log is not None:
        seen: set[int] = set()
        for (schedule, _, report_kwargs), (_, res) in zip(jobs, out):
            if id(schedule) not in seen:
                seen.add(id(schedule))
                log_constraints(schedule, log)
            log_run(res, report_kwargs["decoherence"], log)
    return out


# ---------------------------------------------------------------------------
# Fidelity table (the `table1` dataset)
# ---------------------------------------------------------------------------


def _table1_jobs(cells: Sequence[tuple[str, int]], quick: bool) -> list[Job]:
    grid = build_grid(10 if quick else 40)
    report = dict(rwa=False, decoherence=True, steps_per_period=_budget(quick))
    return [
        (build_schedule(scheme, duration=scheme_spec(scheme).reference_time, n_reps=n), grid, report)
        for scheme, n in cells
    ]


def table1_entry(scheme: str, n_reps: int, *, quick: bool = False) -> FidelityReport:
    """One fidelity-table cell: decohered pre-RWA fidelity at theta=pi/4, xi=pi/2."""
    return run_jobs(_table1_jobs([(scheme, n_reps)], quick))[0][0]


def table1(*, quick: bool = False, workers: int = 1, log: InvariantLog | None = None) -> list[FidelityReport]:
    """Both fidelity-table rows (rectangular and optimal-parameter) over N = 1..10."""
    jobs = _table1_jobs([(scheme, n) for scheme in ("fsim_rect", "fsim_poly") for n in range(1, 11)], quick)
    return [rep for rep, _ in run_jobs(jobs, workers, log)]


# ---------------------------------------------------------------------------
# Pulse-amplitude landscape (the `fig1a` dataset)
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


# ---------------------------------------------------------------------------
# Error sensitivity and fidelity vs eta (the `fig4c`/`fig4d` datasets)
# ---------------------------------------------------------------------------


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


def fidelity_vs_eta(workers: int = 1, quick: bool = False, log: InvariantLog | None = None) -> list[dict]:
    """Decohered pre-RWA fidelity of the reference polynomial gate
    (theta = pi/4, xi = pi/2, N = 1) at 41 eta values in [-1, 1], each on
    the 100-state grid.

    Singular family members are dropped from the sweep.
    """
    etas = _regular_etas(np.linspace(-1.0, 1.0, 41))
    grid = build_grid(10)
    report = dict(rwa=False, decoherence=True, steps_per_period=_budget(quick))
    jobs = [(build_schedule("fsim_poly", duration=POLY_GATE_TIME, eta=eta), grid, report) for eta in etas]
    reports = run_jobs(jobs, workers, log)
    return [{"eta": eta, "fidelity": rep.fidelity} for eta, (rep, _) in zip(etas, reports)]


# ---------------------------------------------------------------------------
# Systematic-error sweeps (the `fig5` dataset)
# ---------------------------------------------------------------------------


def rabi_sweep(
    deltas: Sequence[float],
    *,
    scheme: str = "fsim_rect",
    grid_n: int = 40,
    log: InvariantLog | None = None,
) -> list[dict]:
    """Closed-system RWA-frame fidelity of the N = 1 gate against the analytic
    amplitude-error law.

    The law holds for the one-step fSim schemes only; others are rejected.
    """
    spec = scheme_spec(scheme)
    if not spec.one_step:
        raise ValueError(f"the amplitude-error law covers one-step fSim schemes, not {scheme!r}")
    schedule, grid = build_schedule(scheme, duration=spec.reference_time), build_grid(grid_n)
    jobs = [(schedule, grid, dict(rwa=True, decoherence=False, rabi_delta=float(d))) for d in deltas]
    return [
        {
            "rabi_delta": rep.rabi_delta,
            "fidelity_numeric": rep.fidelity,
            "fidelity_analytic": analytic_rabi_fidelity(rep.rabi_delta),
        }
        for rep, _ in run_jobs(jobs, log=log)
    ]


def _poly_schedules(n_values: Sequence[int]) -> dict[int, PulseSchedule]:
    """The reference polynomial gate for each distinct N, built once."""
    return {n: build_schedule("fsim_poly", duration=POLY_GATE_TIME, n_reps=n) for n in n_values}


def detuning_sweep(
    eps_values: Sequence[float],
    n_values: Sequence[int] = (1, 2, 3),
    grid_n: int = 40,
    workers: int = 1,
    quick: bool = False,
    log: InvariantLog | None = None,
) -> list[FidelityReport]:
    """Optimal-parameter-pulse fidelity under frame-frequency miscalibration."""
    schedules, grid = _poly_schedules(n_values), build_grid(grid_n)
    report = dict(rwa=True, decoherence=False, steps_per_period=_budget(quick))
    jobs = [(schedules[n], grid, {**report, "detuning_eps": float(e)}) for n in n_values for e in eps_values]
    return [rep for rep, _ in run_jobs(jobs, workers, log)]


# ---------------------------------------------------------------------------
# Geometric vs dynamic robustness (the `fig6` dataset)
# ---------------------------------------------------------------------------


def robustness_comparison(
    deltas: Sequence[float],
    eps_values: Sequence[float],
    grid_n: int = 40,
    workers: int = 1,
    log: InvariantLog | None = None,
) -> list[dict]:
    """Geometric+dynamic vs purely dynamic fidelity under control errors.

    Both schemes run in the RWA frame with decoherence off and the same
    delta_Ez = 4 pi / T, isolating control-error robustness.  Rows are
    sorted by (scheme, error kind, value).
    """
    schedules = {
        # dynamic comparator: rectangular N=2 so delta_Ez = 4 pi / T matches
        "dynamic": build_schedule("fsim_rect", duration=GEOMETRIC_GATE_TIME, n_reps=2),
        "geometric": build_schedule("fsim_geometric", duration=GEOMETRIC_GATE_TIME),
    }
    grid = build_grid(grid_n)
    errors = {"detuning": ("detuning_eps", eps_values), "rabi": ("rabi_delta", deltas)}
    keys = [(s, k, v) for s in schedules for k, (_, values) in errors.items() for v in sorted(map(float, values))]
    jobs = [
        (schedules[s], grid, {"label": s, "rwa": True, "decoherence": False, errors[k][0]: v})
        for s, k, v in keys
    ]
    reports = run_jobs(jobs, workers, log)
    return [
        {"scheme": s, "error_kind": k, "value": v, "fidelity": rep.fidelity, "report": rep}
        for (s, k, v), (rep, _) in zip(keys, reports)
    ]


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


# ---------------------------------------------------------------------------
# Initial-phase sweeps
# ---------------------------------------------------------------------------


def initial_phase_sweep(
    axis: str,
    values: Sequence[float],
    n_values: Sequence[int] = (1, 2, 3),
    grid_n: int = 40,
    *,
    decoherence: bool = True,
    workers: int = 1,
    quick: bool = False,
    log: InvariantLog | None = None,
) -> list[FidelityReport]:
    """Fidelity of the optimal-parameter scheme vs one initial-state phase."""
    axes = ("phi1", "phi2", "phi3")
    if axis not in axes:
        raise ValueError(f"axis must be one of {axes}, got {axis!r}")
    index = axes.index(axis)
    schedules, grids = _poly_schedules(n_values), {}
    for v in values:
        phases = [0.0, 0.0, 0.0]
        phases[index] = float(v)
        grids[v] = build_grid(grid_n, tuple(phases))
    report = dict(rwa=False, decoherence=decoherence, steps_per_period=_budget(quick))
    jobs = [(schedules[n], grids[v], report) for n in n_values for v in values]
    return [rep for rep, _ in run_jobs(jobs, workers, log)]

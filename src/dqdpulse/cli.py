"""Command-line front end: synthesize, simulate, sweep, reproduce.

Every run writes its outputs atomically (write to a temp path, then
rename) and records a manifest listing each emitted file with a content
hash, the resolved configuration hash, and the runtime; ``simulate`` adds
how it propagated each run: the step rule, the steps integrated, the
repetitions, the steps per period and f_max.  The exit code is 0 only if
every invariant check collected during the run passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from typing import Iterable, Sequence

import numpy as np

from . import experiments as xp
from .algebra import TWO_PI
from .config import ExperimentConfig, load_config
from .device import SCHEMES
from .dynamics import TRAJECTORY_CSV_HEADER, trajectory_rows
from .fidelity import REPORT_CSV_HEADER, build_grid, report_row
from .pulses import SCHEDULE_CSV_HEADER, schedule_rows


def _atomic_write(path: str, lines: Iterable[str]) -> str:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        for line in lines:
            fh.write(line + "\n")
    os.replace(tmp, path)
    return path


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _fmt_row(values: Sequence) -> str:
    out = []
    for v in values:
        out.append(v if isinstance(v, str) else f"{v:.12g}")
    return ",".join(out)


class RunWriter:
    """Accumulates output files and writes the manifest at the end."""

    def __init__(self, outdir: str, cfg: ExperimentConfig):
        self.outdir = outdir
        self.cfg = cfg
        self.files: list[dict] = []
        self.propagations: list[dict] = []
        self.t0 = time.time()
        os.makedirs(outdir, exist_ok=True)

    def write_csv(self, name: str, header: str, rows: Iterable[Sequence]) -> str:
        path = os.path.join(self.outdir, name)
        count = 0

        def lines():
            nonlocal count
            yield header
            for row in rows:
                count += 1
                yield _fmt_row(row)

        _atomic_write(path, lines())
        self.files.append({"path": name, "sha256": _sha256(path), "rows": count})
        return path

    def finish(self) -> str:
        doc = {
            "config_hash": self.cfg.digest(),
            "runtime_s": round(time.time() - self.t0, 3),
            "files": self.files,
        }
        if self.propagations:
            doc["propagations"] = self.propagations
        return _atomic_write(os.path.join(self.outdir, "manifest.json"), [json.dumps(doc, indent=2, sort_keys=True)])


def _build_schedule(cfg: ExperimentConfig):
    return xp.build_schedule(
        cfg.scheme,
        theta=cfg.theta,
        xi=cfg.xi,
        duration=cfg.gate_time,
        n_reps=cfg.n_reps,
        eta=cfg.eta,
        params=cfg.device(),
    )


def cmd_synthesize(cfg: ExperimentConfig) -> int:
    schedule = _build_schedule(cfg)
    writer = RunWriter(cfg.resolved_outdir(), cfg)
    writer.write_csv(f"schedule_{cfg.scheme}.csv", SCHEDULE_CSV_HEADER, schedule_rows(schedule, cfg.samples))
    log = xp.InvariantLog()
    xp.log_constraints(schedule, log)
    writer.finish()
    summary = (
        f"scheme={cfg.scheme} T={schedule.duration * 1e9:.4g} ns "
        f"max|J|/2pi={schedule.max_exchange() / TWO_PI / 1e6:.4g} MHz "
        f"delta_Ez/2pi={schedule.controls.delta_ez / TWO_PI / 1e6:.4g} MHz"
    )
    if "weak_exchange_ratio" in schedule.meta:
        summary += f" J/delta_Ez={schedule.meta['weak_exchange_ratio']:.3g}"
    print(summary)
    print(log.summary())
    return 0 if log.ok else 1


def cmd_simulate(cfg: ExperimentConfig) -> int:
    schedule = _build_schedule(cfg)
    writer = RunWriter(cfg.resolved_outdir(), cfg)
    log = xp.InvariantLog()
    grid = build_grid(cfg.grid_n, cfg.phases)
    # the config admits a trajectory only for a single (delta, eps) run
    sample_times = np.linspace(0.0, schedule.duration, cfg.samples) if cfg.trajectory else None
    xp.log_constraints(schedule, log)
    reports = []
    for delta in cfg.rabi_deltas or (0.0,):
        for eps in cfg.detuning_eps or (0.0,):
            rep, res = xp.gate_report(
                schedule,
                grid,
                convention=cfg.convention,
                rwa=cfg.rwa,
                decoherence=cfg.decoherence,
                params=cfg.device(),
                rabi_delta=delta,
                detuning_eps=eps,
                steps_per_period=cfg.steps_per_period,
                sample_times=sample_times,
            )
            xp.log_run(res, cfg.decoherence, log)
            reports.append(rep)
            how = ("rule", "steps", "repetitions", "steps_per_period", "max_frequency_hz")
            writer.propagations.append({"rabi_delta": delta, "detuning_eps": eps, **{k: getattr(res, k) for k in how}})
    writer.write_csv("fidelity.csv", REPORT_CSV_HEADER, (report_row(r) for r in reports))
    if cfg.trajectory:
        writer.write_csv("trajectory.csv", TRAJECTORY_CSV_HEADER, trajectory_rows(res.times, xp.state_path(res)))
    writer.finish()
    for rep in reports:
        print(
            f"scheme={rep.scheme} N={rep.n_reps} delta={rep.rabi_delta:+.3f} "
            f"eps={rep.detuning_eps:+.3f} F={rep.fidelity:.6f}"
        )
    print(log.summary())
    return 0 if log.ok else 1


# The flags each sweep and each reproduce target reads besides --config and
# --outdir (--quick through grid_n's default); the run rejects any other
# flag rather than ignore it.
SWEEP_FLAGS = {
    "rabi": {"scheme", "grid_n", "quick", "rabi_deltas"},
    "detuning": {"grid_n", "quick", "workers", "detuning_eps", "n_values"},
    "eta": set(),
    "phase": {"grid_n", "quick", "workers", "n_values"},
}
REPRODUCE_FLAGS = {
    "table1": {"quick", "workers"},
    "fig1a": set(),
    "fig4c": set(),
    "fig4d": {"quick", "workers"},
    "fig5": {"grid_n", "quick", "workers"},
    "fig6": {"grid_n", "quick", "workers"},
}


def cmd_sweep(cfg: ExperimentConfig, axis: str) -> int:
    workers = cfg.resolved_workers()
    writer = RunWriter(cfg.resolved_outdir(), cfg)
    log = xp.InvariantLog()
    if axis == "rabi":
        rows = xp.rabi_sweep(cfg.rabi_deltas or np.linspace(-0.1, 0.1, 11), scheme=cfg.scheme, grid_n=cfg.grid_n, log=log)
        writer.write_csv(
            "rabi_sweep.csv",
            "rabi_delta,fidelity_numeric,fidelity_analytic",
            ((r["rabi_delta"], r["fidelity_numeric"], r["fidelity_analytic"]) for r in rows),
        )
    elif axis == "detuning":
        reports = xp.detuning_sweep(
            cfg.detuning_eps or np.linspace(-0.1, 0.1, 11),
            cfg.n_values or (1, 2, 3),
            grid_n=cfg.grid_n,
            workers=workers,
            quick=cfg.quick,
            log=log,
        )
        writer.write_csv("detuning_sweep.csv", REPORT_CSV_HEADER, (report_row(r) for r in reports))
    elif axis == "eta":
        rows = xp.sensitivity_vs_eta()
        writer.write_csv("eta_sensitivity.csv", "eta,q_s", ((r["eta"], r["q_s"]) for r in rows))
    elif axis == "phase":
        reports = xp.initial_phase_sweep(
            "phi1",
            cfg.phases if any(cfg.phases) else np.linspace(0.0, math.pi, 5),
            cfg.n_values or (1, 2, 3),
            grid_n=cfg.grid_n,
            workers=workers,
            quick=cfg.quick,
            log=log,
        )
        writer.write_csv("phase_sweep.csv", REPORT_CSV_HEADER, (report_row(r) for r in reports))
    else:
        raise SystemExit(f"unknown sweep axis {axis!r}")
    writer.finish()
    print(log.summary() or "no invariant checks recorded")
    return 0 if log.ok else 1


def cmd_reproduce(cfg: ExperimentConfig, target: str) -> int:
    workers = cfg.resolved_workers()
    writer = RunWriter(cfg.resolved_outdir(), cfg)
    log = xp.InvariantLog()
    if target == "table1":
        reports = xp.table1(quick=cfg.quick, workers=workers, log=log)
        writer.write_csv("table1.csv", REPORT_CSV_HEADER, (report_row(r) for r in reports))
    elif target == "fig1a":
        rows = xp.amplitude_landscape()
        writer.write_csv(
            "fig1a.csv", "theta_rad,xi_rad,abs_JT_max_rad",
            ((r["theta_rad"], r["xi_rad"], r["abs_JT_max_rad"]) for r in rows),
        )
    elif target == "fig4c":
        rows = xp.sensitivity_vs_eta()
        writer.write_csv("fig4c.csv", "eta,q_s", ((r["eta"], r["q_s"]) for r in rows))
    elif target == "fig4d":
        rows = xp.fidelity_vs_eta(workers=workers, quick=cfg.quick, log=log)
        writer.write_csv("fig4d.csv", "eta,fidelity", ((r["eta"], r["fidelity"]) for r in rows))
    elif target == "fig5":
        deltas = np.linspace(-0.1, 0.1, 11)
        rows = xp.rabi_sweep(deltas, grid_n=cfg.grid_n, log=log)
        writer.write_csv(
            "fig5a.csv", "rabi_delta,fidelity_numeric,fidelity_analytic",
            ((r["rabi_delta"], r["fidelity_numeric"], r["fidelity_analytic"]) for r in rows),
        )
        reports = xp.detuning_sweep(
            np.linspace(-0.1, 0.1, 11), (1, 2, 3), grid_n=cfg.grid_n, workers=workers, quick=cfg.quick, log=log
        )
        writer.write_csv("fig5b.csv", REPORT_CSV_HEADER, (report_row(r) for r in reports))
    elif target == "fig6":
        grid = np.linspace(-0.1, 0.1, 11)
        rows = xp.robustness_comparison(grid, grid, grid_n=cfg.grid_n, workers=workers, log=log)
        writer.write_csv("fig6.csv", REPORT_CSV_HEADER, (report_row(r["report"]) for r in rows))
    else:
        raise SystemExit(f"unknown reproduce target {target!r}")
    writer.finish()
    print(log.summary() or "invariants: none recorded for this target")
    return 0 if log.ok else 1


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override keys")
    parser.add_argument("--scheme", choices=tuple(SCHEMES))
    parser.add_argument("--theta", type=float)
    parser.add_argument("--xi", type=float)
    parser.add_argument("--gate-time-ns", type=float, dest="gate_time_ns")
    parser.add_argument("--n-reps", type=int, dest="n_reps")
    parser.add_argument("--eta", type=float)
    parser.add_argument("--grid-n", type=int, dest="grid_n")
    parser.add_argument("--steps-per-period", type=int, dest="steps_per_period")
    parser.add_argument("--convention", choices=("standard", "paper"))
    parser.add_argument("--outdir")
    parser.add_argument("--workers", type=int)
    parser.add_argument("--quick", action="store_true", default=None)
    parser.add_argument("--device-file", dest="device_file")
    parser.add_argument("--samples", type=int)


def _resolve(args: argparse.Namespace) -> ExperimentConfig:
    overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config", "target", "axis", "func")}
    if args.command in ("sweep", "reproduce"):
        name = args.axis if args.command == "sweep" else args.target
        reads = (SWEEP_FLAGS if args.command == "sweep" else REPRODUCE_FLAGS)[name] | {"outdir"}
        unread = sorted(k for k, v in overrides.items() if v is not None and k not in reads)
        if unread:
            flags = ", ".join("--" + k.replace("_", "-") for k in unread)
            raise ValueError(f"{args.command} {name} does not read {flags}")
    return load_config(args.config, overrides)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dqdpulse",
        description="Synthesize and verify composite two-qubit gate pulse schedules",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_syn = sub.add_parser("synthesize", help="emit a pulse-schedule CSV")
    _add_common(p_syn)

    p_sim = sub.add_parser("simulate", help="propagate a schedule and report fidelities")
    _add_common(p_sim)
    p_sim.add_argument("--no-decoherence", dest="decoherence", action="store_false", default=None)
    p_sim.add_argument("--rwa", action="store_true", default=None)
    p_sim.add_argument("--rabi-deltas", type=float, nargs="*", dest="rabi_deltas")
    p_sim.add_argument("--detuning-eps", type=float, nargs="*", dest="detuning_eps")
    p_sim.add_argument("--trajectory", action="store_true", default=None)

    p_swp = sub.add_parser("sweep", help="sweep an error or design axis")
    _add_common(p_swp)
    p_swp.add_argument("axis", choices=("rabi", "detuning", "eta", "phase"))
    p_swp.add_argument("--rabi-deltas", type=float, nargs="*", dest="rabi_deltas")
    p_swp.add_argument("--detuning-eps", type=float, nargs="*", dest="detuning_eps")
    p_swp.add_argument("--n-values", type=int, nargs="*", dest="n_values")

    p_rep = sub.add_parser("reproduce", help="regenerate a benchmark dataset")
    _add_common(p_rep)
    p_rep.add_argument("target", choices=("table1", "fig1a", "fig4c", "fig4d", "fig5", "fig6"))

    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args)
        if args.command == "synthesize":
            return cmd_synthesize(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.axis)
        return cmd_reproduce(cfg, args.target)
    except ValueError as exc:
        # invalid configs and unsupported combinations: one line, argparse's exit code
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

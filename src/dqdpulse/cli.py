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
import dataclasses
import hashlib
import json
import os
import sys
import time
from functools import lru_cache, partial
from typing import Callable, Iterable, Sequence

import numpy as np

from . import experiments as xp
from .algebra import TWO_PI
from .config import ExperimentConfig, config_document, config_from_mapping
from .device import SCHEMES
from .dynamics import TRAJECTORY_CSV_HEADER, trajectory_rows
from .fidelity import FREQUENCIES, REPORT_CSV_HEADER, analytic_rabi_fidelity, build_grid, report_row
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


@lru_cache(maxsize=32)  # one entry per CSV row layout
def _row_format(types: tuple[type, ...]) -> str:
    """The format string of a CSV row of values of these types: strings as
    they are, numbers in %.12g."""
    return ",".join("{}" if issubclass(t, str) else "{:.12g}" for t in types)


def _fmt_row(values: Sequence) -> str:
    return _row_format(tuple(map(type, values))).format(*values)


class RunWriter:
    """Accumulates output files and writes the manifest at the end; the output
    directory is made with the first file, so a run that fails before any
    output leaves none."""

    def __init__(self, outdir: str, cfg: ExperimentConfig):
        self.outdir = outdir
        self.cfg = cfg
        self.files: list[dict] = []
        self.propagations: list[dict] = []
        self.t0 = time.time()

    def _path(self, name: str) -> str:
        os.makedirs(self.outdir, exist_ok=True)
        return os.path.join(self.outdir, name)

    def write_csv(self, name: str, header: str, rows: Iterable[Sequence]) -> str:
        path = self._path(name)
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
        return _atomic_write(self._path("manifest.json"), [json.dumps(doc, indent=2, sort_keys=True)])


def _gate(cfg: ExperimentConfig) -> dict:
    """``build_schedule`` arguments of the configured gate, on its device read once."""
    return dict(
        scheme=cfg.scheme, theta=cfg.theta, xi=cfg.xi, duration=cfg.gate_time, n_reps=cfg.n_reps, eta=cfg.eta,
        params=cfg.device(),
    )


# The run bodies: each takes (cfg, writer, log), writes its files and records
# its invariant checks; the dispatch in ``main`` writes the manifest.


def _synthesize(cfg: ExperimentConfig, writer: RunWriter, log: xp.InvariantLog) -> None:
    schedule = xp.build_schedule(**_gate(cfg))
    writer.write_csv(f"schedule_{cfg.scheme}.csv", SCHEDULE_CSV_HEADER, schedule_rows(schedule, cfg.samples))
    xp.log_constraints(schedule, log)
    summary = (
        f"scheme={cfg.scheme} T={schedule.duration * 1e9:.4g} ns "
        f"max|J|/2pi={schedule.max_exchange() / TWO_PI / 1e6:.4g} MHz "
        f"delta_Ez/2pi={schedule.controls.delta_ez / TWO_PI / 1e6:.4g} MHz"
    )
    if "weak_exchange_ratio" in schedule.meta:
        summary += f" J/delta_Ez={schedule.meta['weak_exchange_ratio']:.3g}"
    print(summary)


def _simulate(cfg: ExperimentConfig, writer: RunWriter, log: xp.InvariantLog) -> None:
    gate = _gate(cfg)
    schedule, grid = xp.build_schedule(**gate), build_grid(cfg.grid_n, cfg.phases)
    # the config admits a trajectory only for a single (delta, eps) run
    sample_times = np.linspace(0.0, schedule.duration, cfg.samples) if cfg.trajectory else None
    run = dict(
        convention=cfg.convention, rwa=cfg.rwa, decoherence=cfg.decoherence, params=gate["params"],
        steps_per_period=cfg.steps_per_period, sample_times=sample_times,
    )
    pairs = [(d, e) for d in cfg.rabi_deltas or (0.0,) for e in cfg.detuning_eps or (0.0,)]
    jobs = [(schedule, grid, {**run, "rabi_delta": d, "detuning_eps": e}) for d, e in pairs]
    out = xp.run_jobs(jobs, log=log)
    how = ("rule", "steps", "repetitions", "steps_per_period", "max_frequency_hz")
    writer.propagations = [
        {"rabi_delta": d, "detuning_eps": e, **{k: getattr(res, k) for k in how}} for (d, e), (_, res) in zip(pairs, out)
    ]
    writer.write_csv("fidelity.csv", REPORT_CSV_HEADER, (report_row(rep) for rep, _ in out))
    if cfg.trajectory:
        res = out[0][1]
        writer.write_csv("trajectory.csv", TRAJECTORY_CSV_HEADER, trajectory_rows(res.times, xp.state_path(res)))
    for rep, _ in out:
        print(
            f"scheme={rep.scheme} N={rep.n_reps} delta={rep.rabi_delta:+.3f} "
            f"eps={rep.detuning_eps:+.3f} F={rep.fidelity:.6f}"
        )


def _write_dicts(
    name: str, header: str, rows: Callable[[], list[dict]],
    cfg: ExperimentConfig, writer: RunWriter, log: xp.InvariantLog,
) -> None:
    """The body of a run that propagates nothing: it writes the dicts
    ``rows()`` returns, a column per header field."""
    cols = header.split(",")
    writer.write_csv(name, header, ([r[c] for c in cols] for r in rows()))


# CSV layouts of a dataset's (gate key, report) rows: a header and a row format
_REPORTS = (REPORT_CSV_HEADER, lambda key, rep: report_row(rep))
_RABI = (
    "rabi_delta,fidelity_numeric,fidelity_analytic",
    lambda key, rep: (rep.rabi_delta, rep.fidelity, analytic_rabi_fidelity(rep.rabi_delta)),
)
_ETA = ("eta,fidelity", lambda eta, rep: (eta, rep.fidelity))


def _write_sweeps(files, reads: set[str], cfg: ExperimentConfig, writer: RunWriter, log: xp.InvariantLog) -> None:
    """Run each (file name, CSV layout, declaration) of ``files`` in turn and
    write its rows; a declaration maps the config to the ``xp.Sweep`` to run.
    A run takes a process pool and its grid size from ``cfg`` only if it ``reads`` them."""
    workers = cfg.resolved_workers() if "workers" in reads else 1
    grid_n = cfg.grid_n if "grid_n" in reads else ExperimentConfig.grid_n
    for name, (header, row), declare in files:
        out = declare(cfg).run(grid_n, workers, log)
        writer.write_csv(name, header, (row(key, rep) for key, rep in out))


def _sweeps(reads: set[str], *files) -> tuple:
    """The ``RUNS`` entry of a run of declared datasets."""
    return reads, partial(_write_sweeps, files, reads)


# Every run, by command and target (None for a command without targets): the
# config fields it reads besides outdir, and its body, which ``_sweeps`` makes
# for a run of declared datasets.  A run rejects any other flag or
# config-document key rather than ignore it.
_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}
_GATE = {"scheme", "theta", "xi", "gate_time_ns", "n_reps", "eta", "device_file"}
_SIMULATE = _GATE | {
    "grid_n", "phases", "convention", "rwa", "decoherence", "rabi_deltas", "detuning_eps",
    "steps_per_period", "samples", "trajectory",
}
RUNS = {
    "synthesize": {None: (_GATE | {"samples"}, _synthesize)},
    "simulate": {None: (_SIMULATE, _simulate)},
    "sweep": {
        "rabi": _sweeps(
            {"scheme", "grid_n", "rabi_deltas"},
            ("rabi_sweep.csv", _RABI, lambda cfg: xp.rabi_sweep(cfg.rabi_deltas, cfg.scheme)),
        ),
        "detuning": _sweeps(
            {"grid_n", "workers", "detuning_eps", "n_values"},
            ("detuning_sweep.csv", _REPORTS, lambda cfg: xp.detuning_sweep(cfg.detuning_eps, cfg.n_values)),
        ),
        "eta": (set(), partial(_write_dicts, "eta_sensitivity.csv", "eta,q_s", xp.sensitivity_vs_eta)),
        "phase": _sweeps(
            {"grid_n", "workers", "n_values"},
            ("phase_sweep.csv", _REPORTS, lambda cfg: xp.initial_phase_sweep("phi1", n_values=cfg.n_values)),
        ),
    },
    "reproduce": {
        "table1": _sweeps({"workers"}, ("table1.csv", _REPORTS, lambda cfg: xp.table1())),
        "fig1a": (set(), partial(_write_dicts, "fig1a.csv", "theta_rad,xi_rad,abs_JT_max_rad", xp.amplitude_landscape)),
        "fig4c": (set(), partial(_write_dicts, "fig4c.csv", "eta,q_s", xp.sensitivity_vs_eta)),
        "fig4d": _sweeps({"workers"}, ("fig4d.csv", _ETA, lambda cfg: xp.fidelity_vs_eta())),
        "fig5": _sweeps(
            {"grid_n", "workers"},
            ("fig5a.csv", _RABI, lambda cfg: xp.rabi_sweep()),
            ("fig5b.csv", _REPORTS, lambda cfg: xp.detuning_sweep()),
        ),
        "fig6": _sweeps({"grid_n", "workers"}, ("fig6.csv", _REPORTS, lambda cfg: xp.robustness_comparison())),
    },
}


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
    parser.add_argument("--convention", choices=tuple(FREQUENCIES))
    parser.add_argument("--outdir")
    parser.add_argument("--workers", type=int)
    parser.add_argument("--device-file", dest="device_file")
    parser.add_argument("--samples", type=int)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dqdpulse",
        description="Synthesize and verify composite two-qubit gate pulse schedules",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {
        "synthesize": sub.add_parser("synthesize", help="emit a pulse-schedule CSV"),
        "simulate": sub.add_parser("simulate", help="propagate a schedule and report fidelities"),
        "sweep": sub.add_parser("sweep", help="sweep an error or design axis"),
        "reproduce": sub.add_parser("reproduce", help="regenerate a benchmark dataset"),
    }
    for p in parsers.values():
        _add_common(p)
    p_sim, p_swp = parsers["simulate"], parsers["sweep"]
    p_sim.add_argument("--no-decoherence", dest="decoherence", action="store_false", default=None)
    p_sim.add_argument("--rwa", action="store_true", default=None)
    for p in (p_sim, p_swp):
        p.add_argument("--rabi-deltas", type=float, nargs="*", dest="rabi_deltas")
        p.add_argument("--detuning-eps", type=float, nargs="*", dest="detuning_eps")
    p_sim.add_argument("--trajectory", action="store_true", default=None)
    p_swp.add_argument("--n-values", type=int, nargs="*", dest="n_values")
    p_swp.add_argument("axis", choices=tuple(RUNS["sweep"]))
    parsers["reproduce"].add_argument("target", choices=tuple(RUNS["reproduce"]))

    args = vars(parser.parse_args(argv))
    command, path = args.pop("command"), args.pop("config")
    target = args.pop("axis", None) or args.pop("target", None)
    reads, body = RUNS[command][target]
    log = xp.InvariantLog()
    try:
        doc = config_document(path, args)
        # an unknown key is config_from_mapping's error, a known one the run does not read is this one
        unread = sorted(k for k, v in doc.items() if v is not None and k in _FIELDS and k not in reads | {"outdir"})
        if unread:
            flags = ", ".join("--" + k.replace("_", "-") for k in unread)
            raise ValueError(f"{' '.join(filter(None, (command, target)))} does not read {flags}")
        cfg = config_from_mapping(doc)
        cfg.resolved_workers()  # an invalid DQDPULSE_WORKERS fails every run
        writer = RunWriter(cfg.resolved_outdir(), cfg)
        body(cfg, writer, log)
        writer.finish()
    except ValueError as exc:
        # invalid configs and unsupported combinations: one line, argparse's exit code
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    print(log.summary() or "no invariant checks recorded")
    return 0 if log.ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Span tracing of dqdpulse from outside the package.

Wrappers are installed where callers look names up: every ``dqdpulse``
module attribute that refers to a traced function is replaced, and traced
methods are replaced on their class.  ``src/`` is not modified, and
``uninstall`` puts the originals back so untraced passes run the plain code.

A span is ``[name, start, end, parent, pass, job, extra]``; ``parent`` is
the index of the enclosing span (-1 at the top) and ``extra`` a count or
measurement taken from the call's result.  Spans stay in memory until the
run writes them out.  ``algebra`` and ``config`` are not traced: their time
lands in their callers' self time.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time

import numpy as np

import dqdpulse.cli
import dqdpulse.device
import dqdpulse.dynamics
import dqdpulse.experiments
import dqdpulse.fidelity
import dqdpulse.kak
import dqdpulse.pulses
import dqdpulse.trajectories

NAME, START, END, PARENT, PASS, JOB, EXTRA = range(7)

# 4x4 complex128 per propagation step
STEP_BYTES = 16 * 16


def _one(args, kwargs, out):
    return 1


def _steps(args, kwargs, out):
    return out.steps


def _times(args, kwargs, out):
    return int(np.size(args[1] if len(args) > 1 else kwargs["ts"]))


def _states(args, kwargs, out):
    return int(out.per_state.size)


def _constraints(args, kwargs, out):
    return len(out)


def _file_bytes(args, kwargs, out):
    return os.path.getsize(out)


def _synthesis(args, kwargs, out):
    return (out.restarts_used, out.residual)


# (module, function name, span name, extra)
FUNCTIONS = (
    (dqdpulse.cli, "main", "cli.main", None),
    (dqdpulse.experiments, "table1", "experiments.table1", None),
    (dqdpulse.experiments, "table1_entry", "experiments.table1_entry", None),
    (dqdpulse.experiments, "build_schedule", "experiments.build_schedule", None),
    (dqdpulse.experiments, "gate_channel", "experiments.gate_channel", _one),
    (dqdpulse.experiments, "bgate_trajectory", "experiments.bgate_trajectory", _one),
    (dqdpulse.pulses, "fsim_rectangular", "pulses.build", _one),
    (dqdpulse.pulses, "fsim_polynomial", "pulses.build", _one),
    (dqdpulse.pulses, "fsim_geometric", "pulses.build", _one),
    (dqdpulse.pulses, "bgate_rectangular", "pulses.build", _one),
    (dqdpulse.dynamics, "propagate_unitary", "dynamics.unitary", _steps),
    (dqdpulse.dynamics, "lindblad_superoperator", "dynamics.lindblad", _steps),
    (dqdpulse.fidelity, "average_fidelity", "fidelity.avg", _states),
    (dqdpulse.trajectories, "parameterized_hamiltonian", "trajectories.h", _one),
    (dqdpulse.trajectories, "parameterized_propagator", "trajectories.closed", _one),
    (dqdpulse.kak, "synthesize_via_b", "kak.synth", _synthesis),
)

# (class, method name, span name, extra)
METHODS = (
    (dqdpulse.device.TimeDependentHamiltonian, "matrices", "device.h_eval", _times),
    (dqdpulse.pulses.PulseSchedule, "envelope", "pulses.sample", _times),
    (dqdpulse.pulses.PulseSchedule, "carrier", "pulses.sample", _times),
    (dqdpulse.pulses.PulseSchedule, "drive", "pulses.sample", _times),
    (dqdpulse.pulses.PulseSchedule, "check_constraints", "pulses.constraints", _constraints),
    (dqdpulse.cli.RunWriter, "write_csv", "cli.write", _file_bytes),
    (dqdpulse.cli.RunWriter, "finish", "cli.write", _file_bytes),
)


class Tracer:
    """Records nested spans around the traced dqdpulse entry points."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.pass_index = -1
        self.job_index = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, extra=None):
        """``fn`` wrapped so that each call records one span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.pass_index, self.job_index, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if extra is not None:
                rec[EXTRA] = extra(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "dqdpulse" or n.startswith("dqdpulse.")]
        for module, attr, name, extra in FUNCTIONS:
            original = getattr(module, attr)
            wrapper = self.span(name, original, extra)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for cls, attr, name, extra in METHODS:
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self.span(name, original, extra))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def write_csv(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent,pass,job,extra\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[NAME]},{s[START]:.9f},{s[END]:.9f},{s[PARENT]},{s[PASS]},{s[JOB]},{s[EXTRA]}\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_metrics(spans: list[list], self_s: list[float], pass_wall: float) -> dict[str, float]:
    """Per-layer totals of one traced pass: its spans and their self times."""
    time_by: dict[str, float] = {}
    extras: dict[str, list] = {}
    for s, own in zip(spans, self_s):
        time_by[s[NAME]] = time_by.get(s[NAME], 0.0) + own
        if s[EXTRA] is not None:
            extras.setdefault(s[NAME], []).append(s[EXTRA])

    def t(name: str) -> float:
        return time_by.get(name, 0.0)

    def total(name: str) -> float:
        return float(sum(extras.get(name, ())))

    def per(seconds: float, count: float, scale: float = 1e6) -> float:
        return seconds / count * scale if count else 0.0

    lindblad_steps = total("dynamics.lindblad")
    unitary_steps = total("dynamics.unitary")
    states = total("fidelity.avg")
    synth = extras.get("kak.synth", [])
    experiments_s = sum(v for k, v in time_by.items() if k.startswith("experiments."))
    return {
        "dynamics.lindblad_s": t("dynamics.lindblad"),
        "dynamics.lindblad_steps": lindblad_steps,
        "dynamics.lindblad_us_per_step": per(t("dynamics.lindblad"), lindblad_steps),
        "dynamics.unitary_s": t("dynamics.unitary"),
        "dynamics.unitary_steps": unitary_steps,
        "dynamics.unitary_us_per_step": per(t("dynamics.unitary"), unitary_steps),
        "dynamics.batch_mb_computed": max(extras.get("dynamics.unitary", [0])) * STEP_BYTES / 1e6,
        "device.h_eval_s": t("device.h_eval"),
        "device.h_samples": total("device.h_eval"),
        "pulses.sample_s": t("pulses.sample"),
        "pulses.samples": total("pulses.sample"),
        "pulses.build_s": t("pulses.build"),
        "pulses.builds": total("pulses.build"),
        "pulses.constraints_s": t("pulses.constraints"),
        "pulses.constraint_checks": total("pulses.constraints"),
        "fidelity.avg_s": t("fidelity.avg"),
        "fidelity.states": states,
        "fidelity.us_per_state": per(t("fidelity.avg"), states),
        "trajectories.h_s": t("trajectories.h"),
        "trajectories.h_calls": total("trajectories.h"),
        "trajectories.closed_s": t("trajectories.closed"),
        "kak.synth_s": t("kak.synth"),
        "kak.targets": float(len(synth)),
        "kak.restarts": float(sum(r for r, _ in synth)),
        "kak.worst_residual": max((res for _, res in synth), default=0.0),
        "experiments.self_s": experiments_s,
        "experiments.jobs": total("experiments.gate_channel") + total("experiments.bgate_trajectory"),
        "cli.self_s": t("cli.main"),
        "cli.write_s": t("cli.write"),
        "cli.bytes": total("cli.write"),
        "trace.unattributed_s": pass_wall - sum(self_s),
    }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}

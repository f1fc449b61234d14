#!/usr/bin/env python3
"""Regenerate the fine-step references that the benchmark checks results against.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py [open_table] [bgate_closed]

With no arguments both references are rebuilt (about two minutes on 2 cores).

* ``open_table``: the 20 decohered pre-RWA cells of ``reproduce table1``,
  integrated with the Lindblad propagator at 8x the CLI step budget
  (1600 instead of 200 steps per period) and averaged over the same
  1600-state grid.
* ``bgate_closed``: the closed pre-RWA B gate of
  ``simulate --scheme bgate --no-decoherence --trajectory --grid-n 10``.
  The propagator is built piecewise between consecutive sample times and
  breakpoints, each piece a time-shifted ``TimeDependentHamiltonian``
  propagated at 800 and 1600 steps per period and combined by Richardson
  extrapolation (the midpoint exponential rule has an even-power error
  expansion).  Pieces keep memory bounded: a single 8x batch would need
  about 6 GB.  A second extrapolation from 400 and 800 steps per period
  estimates the reference's own error.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

import numpy as np

from dqdpulse import experiments as xp
from dqdpulse.device import DEFAULT_DEVICE, TimeDependentHamiltonian, frame_hamiltonian
from dqdpulse.dynamics import TRAJECTORY_CSV_HEADER, lindblad_superoperator, propagate_unitary, trajectory_rows
from dqdpulse.fidelity import average_fidelity, build_grid
from dqdpulse.kak import b_gate

REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
TABLE_SPP = 8 * xp.STEPS_PER_PERIOD_FULL
BGATE_SPP = (800, 1600)
BGATE_CHECK_SPP = (400, 800)
BGATE_SAMPLES = 2001
BGATE_GRID_N = 10
BGATE_PSI0 = np.array([1.0, 1.0, 0.0, 0.0], dtype=complex) / math.sqrt(2.0)


def _write_json(name: str, doc: dict) -> None:
    path = os.path.join(REF_DIR, name)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


def open_table_reference() -> None:
    rows = []
    t0 = time.perf_counter()
    for scheme, duration in (("fsim_rect", xp.RECT_GATE_TIME), ("fsim_poly", xp.POLY_GATE_TIME)):
        for n_reps in range(1, 11):
            schedule = xp.build_schedule(scheme, duration=duration, n_reps=n_reps)
            res = lindblad_superoperator(
                frame_hamiltonian(schedule, rwa=False),
                DEFAULT_DEVICE,
                schedule.duration,
                breakpoints=schedule.breakpoints,
                steps_per_period=TABLE_SPP,
            )
            fid = average_fidelity(res.final, xp.fsim_target(schedule), build_grid(40)).fidelity
            rows.append(
                {
                    "scheme": scheme,
                    "N": n_reps,
                    "gate_time_ns": schedule.duration * 1e9,
                    "steps": res.steps,
                    "fidelity": fid,
                }
            )
            print(f"{scheme} N={n_reps}: steps={res.steps} F={fid:.15f}")
    _write_json(
        "open_table.json",
        {
            "command": "PYTHONPATH=src python3 perfbench/make_reference.py open_table",
            "method": f"lindblad_superoperator at {TABLE_SPP} steps per period, 40x40 grid",
            "seconds": round(time.perf_counter() - t0, 1),
            "rows": rows,
        },
    )


def _shifted(h: TimeDependentHamiltonian, t0: float) -> TimeDependentHamiltonian:
    return TimeDependentHamiltonian(
        single=lambda t: h(t + t0),
        batch=lambda ts: h.matrices(ts + t0),
        max_frequency_hz=h.max_frequency_hz,
    )


def _piecewise_propagators(h, nodes: np.ndarray, spp: tuple[int, int]) -> np.ndarray:
    """U(nodes[k], 0) for every node, Richardson-extrapolated piece by piece."""
    out = np.empty((nodes.size, 4, 4), dtype=complex)
    u = np.eye(4, dtype=complex)
    out[0] = u
    coarse, fine = spp
    for k, (lo, hi) in enumerate(zip(nodes[:-1], nodes[1:])):
        piece = _shifted(h, lo)
        n = max(16, math.ceil(coarse * h.max_frequency_hz * (hi - lo)))
        u_n = propagate_unitary(piece, hi - lo, n).final
        u_2n = propagate_unitary(piece, hi - lo, n * fine // coarse).final
        u = ((4.0 * u_2n - u_n) / 3.0) @ u
        out[k + 1] = u
    return out


def bgate_reference() -> None:
    t0 = time.perf_counter()
    schedule = xp.build_schedule("bgate")
    h = frame_hamiltonian(schedule, rwa=False)
    times = np.linspace(0.0, schedule.duration, BGATE_SAMPLES)
    nodes = np.unique(np.concatenate([times, np.asarray(schedule.breakpoints)]))
    sample_index = np.searchsorted(nodes, times)
    props = _piecewise_propagators(h, nodes, BGATE_SPP)
    check = _piecewise_propagators(h, nodes, BGATE_CHECK_SPP)
    fid = average_fidelity(props[-1], b_gate(), build_grid(BGATE_GRID_N)).fidelity
    fid_check = average_fidelity(check[-1], b_gate(), build_grid(BGATE_GRID_N)).fidelity

    def rows_of(p: np.ndarray) -> np.ndarray:
        states = p[sample_index] @ BGATE_PSI0
        rhos = np.einsum("ni,nj->nij", states, states.conj())
        return np.array(list(trajectory_rows(times, rhos)))

    rows = rows_of(props)
    change = max(float(np.max(np.abs(rows - rows_of(check))[:, 1:])), abs(fid - fid_check))
    path = os.path.join(REF_DIR, "bgate_trajectory.csv")
    with open(path, "w", newline="") as fh:
        fh.write(TRAJECTORY_CSV_HEADER + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.15g}" for v in row) + "\n")
    print(f"wrote {path}")
    _write_json(
        "bgate_closed.json",
        {
            "command": "PYTHONPATH=src python3 perfbench/make_reference.py bgate_closed",
            "method": (
                f"piecewise propagate_unitary between {nodes.size} nodes (sample times and "
                f"breakpoints), Richardson extrapolation from {BGATE_SPP[0]} and {BGATE_SPP[1]} "
                "steps per period"
            ),
            "gate_time_ns": schedule.duration * 1e9,
            "grid_n": BGATE_GRID_N,
            "samples": BGATE_SAMPLES,
            "fidelity": fid,
            "change_vs_half_budget": change,
            "seconds": round(time.perf_counter() - t0, 1),
        },
    )
    print(f"F = {fid:.15f}; max change against the half-budget extrapolation {change:.2e}")


def main(argv: list[str]) -> int:
    targets = argv or ["open_table", "bgate_closed"]
    generators = {"open_table": open_table_reference, "bgate_closed": bgate_reference}
    unknown = set(targets) - set(generators)
    if unknown:
        print(f"unknown reference(s): {sorted(unknown)}; choose from {sorted(generators)}", file=sys.stderr)
        return 2
    os.makedirs(REF_DIR, exist_ok=True)
    for name in targets:
        generators[name]()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

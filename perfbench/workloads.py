"""The benchmark's workloads: inputs drawn from the seed, jobs, and result checks.

A workload is a list of jobs (one *pass*); the worker repeats the pass for
the measuring window.  Every job checks its own outputs and reports the
worst absolute difference against its reference, from which the run
derives ``ref_digits``.

* ``open_table``: ``dqdpulse reproduce table1``, checked against a
  Lindblad reference at 8x the step budget and against the acceptance
  numbers of the fidelity table.
* ``bgate_closed``: ``dqdpulse simulate --scheme bgate --no-decoherence
  --trajectory --grid-n 10``, checked against a Richardson-extrapolated
  fine-step propagation.
* ``synthesis``: two-B-gate synthesis of canonical targets and the
  inverse-engineering duality oracle on smooth azimuth trajectories.

The first two are the paper's fixed experiments, so the seed does not
change them.  For ``synthesis`` the seed draws every input.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

from dqdpulse import cli, dynamics, kak, trajectories
from dqdpulse.algebra import phase_aligned_distance

HERE = os.path.dirname(os.path.abspath(__file__))
REF_DIR = os.path.join(HERE, "reference")

TABLE_TOL = 1e-6  # |F - F_ref| per table cell
ACCEPTANCE = {
    ("fsim_rect", 1): 0.9856,
    ("fsim_rect", 2): 0.9963,
    ("fsim_rect", 3): 0.9982,
    ("fsim_poly", 1): 0.9898,
    ("fsim_poly", 3): 0.9985,
    ("fsim_poly", 10): 0.9995,
}
ACCEPTANCE_TOL = 0.15e-2
BGATE_TOL = 1e-5  # populations, coherence magnitudes and F; the seed code is off by 3e-7
SYNTHESIS_TOL = 1e-6  # phase-aligned distance of the rebuilt circuit (criterion 10)
DUALITY_TOL = 1e-8  # Frobenius distance at 10k steps (criterion 4)
DUALITY_STEPS = 10_000

# Synthesis targets: the seed jitters each of these fixed canonical points
# (drawn once, spread over the Weyl chamber) by at most SYNTHESIS_JITTER per
# coordinate, and each keeps its own restart seed.  Nelder-Mead's run time
# varies threefold across the chamber and with the restart seed, so drawing
# targets anywhere would make the pass length depend on the seed.
SYNTHESIS_CENTERS = ((1.20, 0.95, 0.40), (1.05, 0.55, 0.20), (0.70, 0.45, 0.30))
SYNTHESIS_JITTER = 0.02
DUALITY_TRAJECTORIES = 3


@dataclass
class Outcome:
    ok: bool
    error: float  # worst |result - reference|; nan where the job has none
    detail: str


@dataclass
class Job:
    name: str
    run: Callable[[str], Outcome]  # argument: a scratch directory for outputs


def _read_csv(path: str) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _load_json(name: str) -> dict:
    with open(os.path.join(REF_DIR, name)) as fh:
        return json.load(fh)


def _cli_job(name: str, argv: list[str], check: Callable[[str], Outcome]) -> Job:
    def run(scratch: str) -> Outcome:
        outdir = tempfile.mkdtemp(prefix=name + "-", dir=scratch)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([*argv, "--outdir", outdir])
            if code != 0:
                return Outcome(False, math.nan, f"exit code {code}: an invariant check failed")
            return check(outdir)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)

    return Job(name, run)


# ---------------------------------------------------------------------------
# open_table
# ---------------------------------------------------------------------------


def check_table(path: str, reference: dict) -> Outcome:
    """Compare a fidelity-report CSV with the table reference, row by key."""
    ref = {(r["scheme"], r["N"]): r for r in reference["rows"]}
    rows = _read_csv(path)
    if not rows:
        return Outcome(False, math.nan, "no rows")
    worst = 0.0
    problems = []
    for row in rows:
        key = (row["scheme"], int(row["N"]))
        if key not in ref:
            return Outcome(False, math.nan, f"row {key} has no reference")
        fid = float(row["fidelity"])
        if abs(float(row["gate_time_ns"]) - ref[key]["gate_time_ns"]) > 1e-6:
            problems.append(f"{key} gate time {row['gate_time_ns']} ns")
        diff = abs(fid - ref[key]["fidelity"])
        worst = max(worst, diff)
        if diff > TABLE_TOL:
            problems.append(f"{key} F off the reference by {diff:.2e}")
        if key in ACCEPTANCE and abs(fid - ACCEPTANCE[key]) > ACCEPTANCE_TOL:
            problems.append(f"{key} F={fid:.5f} misses the acceptance value {ACCEPTANCE[key]}")
    detail = "; ".join(problems) or f"{len(rows)} rows, worst |dF| {worst:.2e}"
    return Outcome(not problems, worst, detail)


def open_table_jobs(seed: int, tiny: bool) -> list[Job]:
    reference = _load_json("open_table.json")
    if tiny:
        # one table cell through `simulate`, which shares the table's code path
        argv = ["simulate", "--scheme", "fsim_rect", "--gate-time-ns", "45", "--n-reps", "1", "--grid-n", "40"]
        return [_cli_job("table_cell", argv, lambda out: check_table(os.path.join(out, "fidelity.csv"), reference))]
    argv = ["reproduce", "table1"]
    return [_cli_job("table1", argv, lambda out: check_table(os.path.join(out, "table1.csv"), reference))]


# ---------------------------------------------------------------------------
# bgate_closed
# ---------------------------------------------------------------------------


def check_bgate(outdir: str, reference: dict, trajectory: list[dict[str, str]]) -> Outcome:
    """Compare the B-gate fidelity and population trajectory with the reference."""
    rows = _read_csv(os.path.join(outdir, "fidelity.csv"))
    if len(rows) != 1:
        return Outcome(False, math.nan, f"expected one fidelity row, got {len(rows)}")
    worst = abs(float(rows[0]["fidelity"]) - reference["fidelity"])
    emitted = _read_csv(os.path.join(outdir, "trajectory.csv"))
    if len(emitted) < 2 or (len(trajectory) - 1) % (len(emitted) - 1):
        return Outcome(False, math.nan, f"{len(emitted)} trajectory samples do not nest in the reference's")
    stride = (len(trajectory) - 1) // (len(emitted) - 1)
    for row, ref in zip(emitted, trajectory[::stride]):
        if abs(float(row["t_ns"]) - float(ref["t_ns"])) > 1e-9:
            return Outcome(False, math.nan, f"sample time {row['t_ns']} ns is not the reference's {ref['t_ns']}")
        for col in ref:
            if col != "t_ns":
                worst = max(worst, abs(float(row[col]) - float(ref[col])))
    ok = worst <= BGATE_TOL
    return Outcome(ok, worst, f"F and {len(emitted)} samples, worst difference {worst:.2e}")


def bgate_jobs(seed: int, tiny: bool) -> list[Job]:
    reference = _load_json("bgate_closed.json")
    trajectory = _read_csv(os.path.join(REF_DIR, "bgate_trajectory.csv"))
    argv = ["simulate", "--scheme", "bgate", "--no-decoherence", "--trajectory", "--grid-n", "10"]
    if tiny:
        argv += ["--steps-per-period", "50", "--samples", "11"]
    return [_cli_job("bgate", argv, lambda out: check_bgate(out, reference, trajectory))]


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------


def synthesis_targets(seed: int, count: int) -> list[tuple[float, float, float]]:
    rng = np.random.default_rng([seed, 0])
    out = []
    for center in SYNTHESIS_CENTERS[:count]:
        c = np.asarray(center) + rng.uniform(-SYNTHESIS_JITTER, SYNTHESIS_JITTER, 3)
        out.append(tuple(float(v) for v in np.sort(c)[::-1]))
    return out


def _trig_fn(rng: np.random.Generator, amplitude: float, zero_at_origin: bool = False) -> trajectories.TimeFunction:
    a = rng.normal(0.0, amplitude, 2)
    b = rng.normal(0.0, amplitude, 2)
    w = rng.uniform(0.3, 1.2, 2)
    off = -float(np.sum(b)) if zero_at_origin else 0.0

    def val(t: float) -> float:
        return off + sum(ai * math.sin(wi * t) + bi * math.cos(wi * t) for ai, bi, wi in zip(a, b, w))

    def der(t: float) -> float:
        return sum(ai * wi * math.cos(wi * t) - bi * wi * math.sin(wi * t) for ai, bi, wi in zip(a, b, w))

    return trajectories.TimeFunction(val, der)


def duality_trajectories(seed: int, count: int, amplitude: float = 0.35) -> list[trajectories.AzimuthTrajectory]:
    """Smooth random azimuth trajectories with gamma1(0) = gamma2(0) = 0."""
    rng = np.random.default_rng([seed, 1])
    out = []
    for _ in range(count):
        fns = {
            name: _trig_fn(rng, amplitude, name in ("gamma1", "gamma2"))
            for name in ("gamma1", "theta1", "phi1", "gamma2", "theta2", "phi2", "vphi2", "vphi3", "vphi4")
        }
        out.append(trajectories.AzimuthTrajectory(**fns))
    return out


def circuit_unitary(angles: np.ndarray) -> np.ndarray:
    """Rebuild (k1 x k2) B (k3 x k4) B (k5 x k6) from the 18 reported Euler angles."""
    k = [kak.euler_zyz(*angles[3 * i : 3 * i + 3]) for i in range(6)]
    b = kak.b_gate()
    return np.kron(k[0], k[1]) @ b @ np.kron(k[2], k[3]) @ b @ np.kron(k[4], k[5])


def _synthesis_job(index: int, c: tuple[float, float, float]) -> Job:
    def run(scratch: str) -> Outcome:
        params = kak.CanonicalParams(*c)
        res = kak.synthesize_via_b(params, restarts=20, seed=1000 + index)
        dist = phase_aligned_distance(circuit_unitary(res.angles), kak.canonical_gate(params))
        ok = res.converged and dist <= SYNTHESIS_TOL
        return Outcome(ok, math.nan, f"c={c} residual {res.residual:.2e}, rebuilt circuit off by {dist:.2e}")

    return Job(f"synth{index}", run)


def _duality_job(index: int, traj: trajectories.AzimuthTrajectory) -> Job:
    def run(scratch: str) -> Outcome:
        closed = trajectories.parameterized_propagator(traj, 1.0)
        res = dynamics.propagate_unitary(
            lambda t: trajectories.parameterized_hamiltonian(traj, t), 1.0, steps=DUALITY_STEPS
        )
        dist = float(np.linalg.norm(res.final - closed))
        return Outcome(dist <= DUALITY_TOL, dist, f"Frobenius distance {dist:.2e}")

    return Job(f"duality{index}", run)


def synthesis_jobs(seed: int, tiny: bool) -> list[Job]:
    targets = synthesis_targets(seed, 1 if tiny else len(SYNTHESIS_CENTERS))
    paths = duality_trajectories(seed, 1 if tiny else DUALITY_TRAJECTORIES)
    return [_synthesis_job(i, c) for i, c in enumerate(targets)] + [
        _duality_job(i, traj) for i, traj in enumerate(paths)
    ]


WORKLOADS: dict[str, Callable[[int, bool], list[Job]]] = {
    "open_table": open_table_jobs,
    "bgate_closed": bgate_jobs,
    "synthesis": synthesis_jobs,
}

#!/usr/bin/env python3
"""Minor page faults, wall time and peak memory of B-gate propagations, run by run.

    scripts/chunk_faults.py [--series 3] [--runs 2]

Each of four B-gate propagations runs in fresh Python processes, ``--series``
of them with and as many without a warm-up: the closed gate at 0, 101 and
2,001 sample times, and the decohered gate without sample times.  A process
propagates its gate ``--runs`` times through ``experiments.gate_channel``,
each run with set-up of its own, and reports for each run the minor page
faults it took (``ru_minflt``), its wall time and the process's peak
resident memory after it (``ru_maxrss``).  The warm-up allocates and frees
a 4 MB array first, which raises glibc's dynamic mmap and trim thresholds,
so that a chunk loop whose large arrays are freed and taken again shows
the faults of either regime.  A second run that takes no more than a few
hundred faults reuses its memory.

The script uses the standard library and the package; the children see the
repository's ``src`` on ``PYTHONPATH`` and one BLAS thread.  The default
three series take about 70 s on two shared vCPUs, most of it the
decohered gate.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CASES = {  # name: (decoherence, sample times)
    "closed": (False, 0),
    "closed, 101 samples": (False, 101),
    "closed, 2001 samples": (False, 2001),
    "decohered": (True, 0),
}
WARM_UP_BYTES = 4_000_000


def child(case: str, warm_up: bool, runs: int) -> None:
    """Run one case ``runs`` times in this process; one JSON line per run."""
    import numpy as np

    from dqdpulse.experiments import build_schedule, gate_channel

    decoherence, samples = CASES[case]
    schedule = build_schedule("bgate")
    times = np.linspace(0.0, schedule.duration, samples) if samples else None
    if warm_up:
        block = np.ones(WARM_UP_BYTES // 8)
        del block
    for run in range(1, runs + 1):
        faults, start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
        gate_channel(schedule, rwa=False, decoherence=decoherence, sample_times=times)
        wall, usage = time.perf_counter() - start, resource.getrusage(resource.RUSAGE_SELF)
        row = {"run": run, "faults": usage.ru_minflt - faults, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}
        print(json.dumps(row))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--series", type=int, default=3, help="fresh processes per case and warm-up setting")
    parser.add_argument("--runs", type=int, default=2, help="propagations per process")
    parser.add_argument("--child", nargs=3, metavar=("CASE", "WARM_UP", "RUNS"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        case, warm_up, runs = args.child
        child(case, warm_up == "1", int(runs))
        return 0
    if args.series < 1 or args.runs < 1:
        parser.error("--series and --runs must be at least 1")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    print(f"{'case':22} {'warm-up':8} {'series':>6} {'run':>4} {'minflt':>8} {'wall_s':>8} {'maxrss_mb':>10}")
    worst: dict[tuple[str, bool], int] = {}
    for case in CASES:
        for warm_up in (False, True):
            for series in range(1, args.series + 1):
                argv = [sys.executable, __file__, "--child", case, str(int(warm_up)), str(args.runs)]
                out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout
                for row in map(json.loads, out.splitlines()):
                    print(
                        f"{case:22} {'4 MB' if warm_up else 'none':8} {series:6d} {row['run']:4d} "
                        f"{row['faults']:8d} {row['wall_s']:8.3f} {row['maxrss_kb'] / 1024:10.1f}",
                        flush=True,
                    )
                    if row["run"] > 1:
                        worst[case, warm_up] = max(worst.get((case, warm_up), 0), row["faults"])
    if worst:
        print("\nmost minor faults of a run after the first:")
        for (case, warm_up), faults in worst.items():
            print(f"  {case:22} {'4 MB warm-up' if warm_up else 'no warm-up':13} {faults}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

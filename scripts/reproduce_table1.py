#!/usr/bin/env python3
"""Regenerate the gate-fidelity table (rectangular and optimal-parameter rows).

Each cell averages its fidelity exactly over the 25-state initial-state
grid at 200 steps per period, and the table computes in about 0.09 s after
the package import (the manifest's runtime_s).  Extra arguments go to
``dqdpulse reproduce table1``, which reads only ``--workers`` and ``--outdir``.
"""
import sys

from dqdpulse.cli import main

if __name__ == "__main__":
    sys.exit(main(["reproduce", "table1", "--outdir", "out/table1", *sys.argv[1:]]))

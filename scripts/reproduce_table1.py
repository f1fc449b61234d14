#!/usr/bin/env python3
"""Regenerate the gate-fidelity table (rectangular and optimal-parameter rows).

The full table averages 1600 initial states per cell and computes in about
0.12 s after the package import (the manifest's runtime_s).  --quick
averages 100 states and halves the RK4 budget to 100 steps per period;
both fidelity grids give the exact grid mean, so --quick changes the
results only through its step budget.
"""
import sys

from dqdpulse.cli import main

if __name__ == "__main__":
    sys.exit(main(["reproduce", "table1", "--outdir", "out/table1", *sys.argv[1:]]))

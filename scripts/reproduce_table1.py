#!/usr/bin/env python3
"""Regenerate the gate-fidelity table (rectangular and optimal-parameter rows).

Each cell averages its fidelity exactly over the 25-state initial-state
grid, and the table computes in about 0.09 s after the package import (the
manifest's runtime_s).  --quick halves the open step's budget to 100 steps
per period, which is all it changes.
"""
import sys

from dqdpulse.cli import main

if __name__ == "__main__":
    sys.exit(main(["reproduce", "table1", "--outdir", "out/table1", *sys.argv[1:]]))

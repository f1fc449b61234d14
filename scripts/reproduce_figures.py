#!/usr/bin/env python3
"""Regenerate the plot-ready datasets (fig1a, fig4c, fig4d, fig5, fig6)."""
import sys

from dqdpulse.cli import RUNS, main

TARGETS = tuple(t for t in RUNS["reproduce"] if t.startswith("fig"))

if __name__ == "__main__":
    targets = [t for t in sys.argv[1:] if not t.startswith("-")] or list(TARGETS)
    flags = [t for t in sys.argv[1:] if t.startswith("-")]
    rc = 0
    for target in targets:
        rc |= main(["reproduce", target, "--outdir", f"out/{target}", *flags])
    sys.exit(rc)

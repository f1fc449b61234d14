#!/usr/bin/env python3
"""Regenerate the plot-ready datasets (fig1a, fig4c, fig4d, fig5, fig6).

    scripts/reproduce_figures.py [TARGET ...] [--workers N] [--grid-n N] [--outdir DIR]

Without targets, every figure is made, each into DIR/<target> (default
out/<target>).  Each target gets only the flags its run reads (``cli.RUNS``):
fig1a and fig4c read none and fig4d no grid size, so ``--grid-n`` goes to
fig5 and fig6 only.  A flag that no chosen target reads is an error.
"""
import argparse
import os
import sys

from dqdpulse import cli

TARGETS = {target: reads for target, (reads, _) in cli.RUNS["reproduce"].items() if target.startswith("fig")}


def figure_runs(argv):
    """The ``dqdpulse`` argument list of each chosen target."""
    parser = argparse.ArgumentParser(prog="reproduce_figures.py", description="Regenerate the figure datasets.")
    parser.add_argument("targets", nargs="*", metavar="target", help=f"any of {', '.join(TARGETS)}; all by default")
    cli._add_common(parser)
    args = vars(parser.parse_args(argv))
    targets, outdir = args.pop("targets") or list(TARGETS), args.pop("outdir") or "out"
    unknown = [t for t in targets if t not in TARGETS]
    if unknown:
        parser.error(f"unknown target {', '.join(unknown)}; choose from {', '.join(TARGETS)}")
    given = {name: value for name, value in args.items() if value is not None}
    unread = sorted(given.keys() - set().union(*(TARGETS[t] for t in targets)))
    if unread:
        parser.error(f"no chosen target reads {', '.join('--' + n.replace('_', '-') for n in unread)}")
    runs = []
    for target in targets:
        flags = []
        for name, value in given.items():
            if name in TARGETS[target]:
                flag = "--" + name.replace("_", "-")
                flags += [flag] if value is True else [flag, str(value)]
        runs.append(["reproduce", target, "--outdir", os.path.join(outdir, target), *flags])
    return runs


if __name__ == "__main__":
    rc = 0
    for argv in figure_runs(sys.argv[1:]):
        rc |= cli.main(argv)
    sys.exit(rc)

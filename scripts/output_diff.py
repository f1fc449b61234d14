#!/usr/bin/env python3
"""Compare the CLI outputs of a git revision with those of the working tree.

    scripts/output_diff.py [REV]

Runs a fixed list of ``dqdpulse`` commands (``COMMANDS``) twice: in a
``git archive`` copy of REV (default HEAD) and in the working tree, each
with ``PYTHONPATH`` pointed at that tree's ``src``.  For every output file
it reports whether the bytes are identical and, if not, the largest
absolute and relative change per CSV column; manifests are compared key by
key, ignoring ``runtime_s``.  It also reports exit-code and stdout
differences.  A changed header, row count or file list is an error.  The
exit code is 0 only if nothing differs.  Uses the standard library only;
one tree takes about 25 s on two shared vCPUs, most of it the decohered
B gate.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMES = ("fsim_rect", "fsim_poly", "fsim_geometric", "bgate")

COMMANDS = [
    ["reproduce", "table1"],
    ["reproduce", "fig1a"],
    ["reproduce", "fig4c"],
    ["reproduce", "fig4d"],
    ["reproduce", "fig5"],
    ["reproduce", "fig5", "--grid-n", "7"],
    ["reproduce", "fig6"],
    ["sweep", "rabi"],
    ["sweep", "rabi", "--scheme", "fsim_poly", "--rabi-deltas", "-0.05", "0.02", "--grid-n", "6"],
    ["sweep", "detuning"],
    ["sweep", "detuning", "--n-values", "2", "2", "--detuning-eps", "0.03"],
    ["sweep", "eta"],
    ["sweep", "phase"],
    ["sweep", "phase", "--n-values", "3", "1"],
    *(["synthesize", "--scheme", s] for s in SCHEMES),
    *(
        ["simulate", "--scheme", s, *closed, *trajectory]
        for s in SCHEMES
        for closed in ([], ["--no-decoherence"])
        for trajectory in ([], ["--trajectory", "--samples", "101"])
    ),
]


def run_all(tree: str, out: str) -> list[dict]:
    """Exit code, stdout and output directory of each command run on
    ``tree``'s source, each writing into a numbered directory under ``out``.

    The output directory is given relative to ``out``, so that both trees
    see the same config and so the same ``config_hash``.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("DQDPULSE_")}
    env["PYTHONPATH"] = os.path.join(tree, "src")
    os.makedirs(out)
    runs = []
    for i, argv in enumerate(COMMANDS):
        proc = subprocess.run(
            [sys.executable, "-m", "dqdpulse.cli", *argv, "--outdir", str(i)],
            capture_output=True, text=True, env=env, cwd=out,
        )
        runs.append({"code": proc.returncode, "stdout": proc.stdout, "outdir": os.path.join(out, str(i))})
    return runs


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def csv_changes(old: str, new: str) -> dict[str, tuple[float, float]]:
    """Largest absolute and relative change of each CSV column that changed.

    A changed text cell counts as an infinite change.  A changed header or
    row count raises ``ValueError``.
    """
    a, b = list(csv.reader(io.StringIO(old))), list(csv.reader(io.StringIO(new)))
    if a[:1] != b[:1]:
        raise ValueError(f"header changed: {a[:1]} -> {b[:1]}")
    if len(a) != len(b):
        raise ValueError(f"row count changed: {len(a) - 1} -> {len(b) - 1}")
    changes: dict[str, tuple[float, float]] = {}
    for row_a, row_b in zip(a[1:], b[1:]):
        for col, x, y in zip(a[0], row_a, row_b):
            if x == y:
                continue
            fx, fy = _number(x), _number(y)
            if fx is None or fy is None:
                diff = rel = math.inf
            else:
                diff = abs(fy - fx)
                rel = diff / abs(fx) if fx else math.inf
            old_abs, old_rel = changes.get(col, (0.0, 0.0))
            changes[col] = (max(old_abs, diff), max(old_rel, rel))
    return changes


def _manifest_changes(old: str, new: str) -> list[str]:
    a, b = json.loads(old), json.loads(new)
    return sorted(k for k in a.keys() | b.keys() if k != "runtime_s" and a.get(k) != b.get(k))


def compare(old: dict, new: dict) -> list[str]:
    """Lines describing every difference between two runs of one command;
    none if every output file but the manifest is byte-identical."""
    lines = []
    if old["code"] != new["code"]:
        lines.append(f"exit code {old['code']} -> {new['code']}")
    if old["stdout"] != new["stdout"]:
        a, b = old["stdout"].splitlines(), new["stdout"].splitlines()
        changed = sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
        lines.append(f"stdout: {changed} of {len(a)} lines differ")
    files = [set(os.listdir(r["outdir"])) if os.path.isdir(r["outdir"]) else set() for r in (old, new)]
    if files[0] != files[1]:
        lines.append(f"ERROR file list {sorted(files[0])} -> {sorted(files[1])}")
    for name in sorted(files[0] & files[1]):
        with open(os.path.join(old["outdir"], name)) as fa, open(os.path.join(new["outdir"], name)) as fb:
            a, b = fa.read(), fb.read()
        if name == "manifest.json":
            keys = _manifest_changes(a, b)
            if keys:
                lines.append(f"{name}: {', '.join(keys)} differ")
        elif a != b:
            try:
                changes = csv_changes(a, b)
            except ValueError as exc:
                lines.append(f"ERROR {name}: {exc}")
                continue
            for col, (diff, rel) in changes.items():
                lines.append(f"{name} {col}: max abs change {diff:.3g}, max rel change {rel:.3g}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare CLI outputs of a revision and the working tree.")
    parser.add_argument("rev", nargs="?", default="HEAD")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="output_diff-") as tmp:
        base = os.path.join(tmp, "base")
        archive = subprocess.run(["git", "archive", args.rev], cwd=ROOT, capture_output=True)
        if archive.returncode:
            parser.error(archive.stderr.decode().strip())
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(base, filter="data")
        old, new = run_all(base, os.path.join(tmp, "old")), run_all(ROOT, os.path.join(tmp, "new"))
        differ = 0
        for argv, a, b in zip(COMMANDS, old, new):
            lines = compare(a, b)
            differ += bool(lines)
            names = sorted(os.listdir(b["outdir"])) if os.path.isdir(b["outdir"]) else []
            csvs = ", ".join(n for n in names if n != "manifest.json") or "no output"
            same = "" if lines else f": {csvs} byte-identical"
            print(f"{'DIFF' if lines else 'same'}  dqdpulse {' '.join(argv)}{same}")
            for line in lines:
                print(f"      {line}")
    print(f"{differ} of {len(COMMANDS)} commands differ from {args.rev}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare the CLI outputs of a git revision with those of the working tree.

    scripts/output_diff.py [REV]

Runs a fixed list of ``dqdpulse`` commands (``COMMANDS``) twice: in a
``git archive`` copy of REV (default HEAD) and in the working tree, each
with ``PYTHONPATH`` pointed at that tree's ``src``.  For every output file
it reports whether the bytes are identical and, if not, the largest
absolute and relative change per CSV column.  Manifests are compared key by
key, ignoring ``runtime_s``, and each changed propagation record by its
fields (rule, steps, budget, ...).  On stdout, each invariant check line
``[ok] name: value <= bound`` whose value, bound or status moved is
reported with its old and new value and the change; other changed lines
are counted.  It also reports exit-code differences.  A changed header,
row count or file list is an error.  The exit code is 0 only if nothing
differs.  Uses the standard library only; one tree takes about 25 s on
two shared vCPUs, most of it the decohered B gate.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter

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
    ["simulate", "--scheme", "bgate", "--no-decoherence", "--trajectory"],  # the benchmark's 2,001 samples
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


# an invariant check as the CLI prints it: [ok] name: 1.234e-15 <= 1.0e-09
CHECK = re.compile(r"\[(ok|FAIL)\] (\S+): (\S+) <= (\S+)")


def _checks(stdout: str) -> tuple[dict[str, tuple[str, str, str]], list[str]]:
    """The check lines of ``stdout`` by name, numbered where a name repeats,
    as (status, value, bound), and the other lines."""
    lines = stdout.splitlines()
    matches = [CHECK.fullmatch(line) for line in lines]
    found = [m.groups() for m in matches if m]
    total, seen = Counter(name for _, name, _, _ in found), Counter()
    checks = {}
    for status, name, value, bound in found:
        seen[name] += 1
        checks[name if total[name] == 1 else f"{name} #{seen[name]}"] = (status, value, bound)
    return checks, [line for line, m in zip(lines, matches) if m is None]


def stdout_changes(old: str, new: str) -> list[str]:
    """One line per invariant check whose value, bound or status moved, with
    the change, and a count of the other lines that differ."""
    (ca, oa), (cb, ob) = _checks(old), _checks(new)
    lines = []
    for name in [*ca, *(n for n in cb if n not in ca)]:
        if name not in ca or name not in cb:
            lines.append(f"check {name}: only in the {'new' if name in cb else 'old'} run")
        elif ca[name] != cb[name]:
            (sa, va, ba), (sb, vb, bb) = ca[name], cb[name]
            fa, fb = _number(va), _number(vb)
            change = f" ({fb - fa:+.3g})" if fa is not None and fb is not None else ""
            extra = "".join(
                f", {what} {x} -> {y}" for what, x, y in (("bound", ba, bb), ("status", sa, sb)) if x != y
            )
            lines.append(f"check {name}: {va} -> {vb}{change}{extra}")
    changed = sum(x != y for x, y in zip(oa, ob)) + abs(len(oa) - len(ob))
    if changed:
        lines.append(f"stdout: {changed} of {len(oa)} other lines differ")
    return lines


def _indices(ix: list[int]) -> str:
    listed = ", ".join(map(str, ix[:5]))
    return f"{listed}, ... ({len(ix)} records)" if len(ix) > 5 else listed


def _manifest_changes(old: str, new: str) -> list[str]:
    """The changed manifest keys but ``runtime_s`` and ``propagations``, then
    each changed propagation record's fields, records with equal changes
    together."""
    a, b = json.loads(old), json.loads(new)
    skip = ("runtime_s", "propagations")
    keys = sorted(k for k in a.keys() | b.keys() if k not in skip and a.get(k) != b.get(k))
    lines = [f"manifest.json: {', '.join(keys)} differ"] if keys else []
    pa, pb = a.get("propagations", []), b.get("propagations", [])
    if len(pa) != len(pb):
        lines.append(f"manifest.json propagations: {len(pa)} -> {len(pb)} records")
    changes: dict[str, list[int]] = {}
    for i, (x, y) in enumerate(zip(pa, pb)):
        fields = [f"{f} {x.get(f)} -> {y.get(f)}" for f in sorted(x.keys() | y.keys()) if x.get(f) != y.get(f)]
        if fields:
            changes.setdefault(", ".join(fields), []).append(i)
    for fields, ix in changes.items():
        lines.append(f"manifest.json propagation {_indices(ix)}: {fields}")
    return lines


def compare(old: dict, new: dict) -> list[str]:
    """Lines describing every difference between two runs of one command;
    none if every output file but the manifest is byte-identical."""
    lines = []
    if old["code"] != new["code"]:
        lines.append(f"exit code {old['code']} -> {new['code']}")
    lines += stdout_changes(old["stdout"], new["stdout"])
    files = [set(os.listdir(r["outdir"])) if os.path.isdir(r["outdir"]) else set() for r in (old, new)]
    if files[0] != files[1]:
        lines.append(f"ERROR file list {sorted(files[0])} -> {sorted(files[1])}")
    for name in sorted(files[0] & files[1]):
        with open(os.path.join(old["outdir"], name)) as fa, open(os.path.join(new["outdir"], name)) as fb:
            a, b = fa.read(), fb.read()
        if name == "manifest.json":
            lines += _manifest_changes(a, b)
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

"""The comparison half of ``scripts/output_diff.py``.

Running its command list takes tens of seconds per tree, so only the
comparison of outputs is tested here.
"""

import ast
import json
import importlib.util
import math
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_diff.py"


@pytest.fixture(scope="module")
def output_diff():
    spec = importlib.util.spec_from_file_location("output_diff", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


OLD = "scheme,N,fidelity\nfsim_rect,1,0.5\nfsim_poly,2,0.25\n"


def test_identical_csvs_have_no_changes(output_diff):
    assert output_diff.csv_changes(OLD, OLD) == {}


def test_largest_absolute_and_relative_change_per_column(output_diff):
    new = "scheme,N,fidelity\nfsim_rect,1,0.5000001\nfsim_poly,2,0.2500001\n"
    changes = output_diff.csv_changes(OLD, new)
    assert set(changes) == {"fidelity"}
    diff, rel = changes["fidelity"]
    assert diff == pytest.approx(1e-7, rel=1e-6) and rel == pytest.approx(4e-7, rel=1e-6)


def test_changed_text_cell_is_an_infinite_change(output_diff):
    new = OLD.replace("fsim_poly", "bgate")
    assert output_diff.csv_changes(OLD, new) == {"scheme": (math.inf, math.inf)}


@pytest.mark.parametrize(
    "new, message",
    [
        (OLD.replace("fidelity", "F"), "header"),
        (OLD + "bgate,1,0.9\n", "row count"),
        ("scheme,N,fidelity\nfsim_rect,1,0.5\n", "row count"),
    ],
    ids=["header", "extra-row", "missing-row"],
)
def test_changed_header_or_row_count_is_an_error(output_diff, new, message):
    with pytest.raises(ValueError, match=message):
        output_diff.csv_changes(OLD, new)


def test_manifests_differ_by_more_than_their_runtime(output_diff, tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    for d, runtime, rows in ((old, 0.1, 2), (new, 0.2, 2)):
        d.mkdir()
        (d / "manifest.json").write_text(f'{{"runtime_s": {runtime}, "files": [{{"rows": {rows}}}]}}')
    runs = [{"code": 0, "stdout": "[ok] check\n", "outdir": str(d)} for d in (old, new)]
    assert output_diff.compare(*runs) == []
    (new / "manifest.json").write_text('{"runtime_s": 0.2, "files": [{"rows": 3}]}')
    (new / "extra.csv").write_text("a\n")
    assert output_diff.compare(*runs) == [
        "ERROR file list ['manifest.json'] -> ['extra.csv', 'manifest.json']",
        "manifest.json: files differ",
    ]


def test_script_imports_only_the_standard_library():
    tree = ast.parse(SCRIPT.read_text())
    modules = {a.name.split(".")[0] for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    modules |= {n.module.split(".")[0] for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level == 0}
    assert modules <= set(sys.stdlib_module_names)


STDOUT = (
    "scheme=fsim_rect N=1 F=0.987183\n"
    "[ok] fsim_rect_area: 2.220e-16 <= 1.0e-08\n"
    "[ok] unitarity_defect: 1.122e-14 <= 1.0e-09\n"
    "[ok] unitarity_defect: 3.000e-15 <= 1.0e-09\n"
)


def test_unchanged_stdout_has_no_changes(output_diff):
    assert output_diff.stdout_changes(STDOUT, STDOUT) == []


def test_moved_check_values_are_reported_with_their_change(output_diff):
    new = STDOUT.replace("1.122e-14", "1.300e-14").replace("[ok] unitarity_defect: 3", "[FAIL] unitarity_defect: 3")
    new = new.replace("2.220e-16", "3.330e-16")
    assert output_diff.stdout_changes(STDOUT, new) == [
        "check fsim_rect_area: 2.220e-16 -> 3.330e-16 (+1.11e-16)",
        "check unitarity_defect #1: 1.122e-14 -> 1.300e-14 (+1.78e-15)",
        "check unitarity_defect #2: 3.000e-15 -> 3.000e-15 (+0), status ok -> FAIL",
    ]


def test_other_stdout_lines_and_missing_checks_are_counted(output_diff):
    new = STDOUT.replace("F=0.987183", "F=0.987184").replace("[ok] fsim_rect_area: 2.220e-16 <= 1.0e-08\n", "")
    assert output_diff.stdout_changes(STDOUT, new) == [
        "check fsim_rect_area: only in the old run",
        "stdout: 1 of 1 other lines differ",
    ]


def propagation(**fields):
    return {"rule": "magnus_filon", "steps": 100, "steps_per_period": 50, "repetitions": 1, **fields}


def test_propagation_records_are_reported_by_their_fields(output_diff, tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    records = [propagation(), propagation(steps=400), propagation()]
    halved = propagation(steps=200, steps_per_period=100)
    moved = [halved, propagation(steps=400), halved]
    for d, props in ((old, records), (new, moved)):
        d.mkdir()
        (d / "manifest.json").write_text(json.dumps({"runtime_s": 0.1, "propagations": props}))
    runs = [{"code": 0, "stdout": "", "outdir": str(d)} for d in (old, new)]
    assert output_diff.compare(*runs) == [
        "manifest.json propagation 0, 2: steps 100 -> 200, steps_per_period 50 -> 100",
    ]
    midpoint = [propagation(rule="midpoint")] * 7
    (new / "manifest.json").write_text(json.dumps({"runtime_s": 0.1, "propagations": midpoint}))
    assert output_diff.compare(*runs) == [
        "manifest.json propagations: 3 -> 7 records",
        "manifest.json propagation 0, 2: rule magnus_filon -> midpoint",
        "manifest.json propagation 1: rule magnus_filon -> midpoint, steps 400 -> 100",
    ]
    assert output_diff._indices(list(range(8))) == "0, 1, 2, 3, 4, ... (8 records)"

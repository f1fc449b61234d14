"""The comparison half of ``scripts/output_diff.py``.

Running its command list takes tens of seconds per tree, so only the
comparison of outputs is tested here.
"""

import ast
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

"""Static checks on the package source, with the stdlib ``ast`` standing in for a linter."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dqdpulse

# __init__.py imports names only to re-export them
MODULES = sorted(p for p in Path(dqdpulse.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression in the module reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_detector_flags_unused_names():
    source = "import os.path\nimport numpy as np\nfrom typing import Callable, Sequence\nx: Callable = np.eye\n"
    assert unused_imports(source) == ["Sequence", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_import_loads_no_scipy():
    # scipy is a test dependency only; the package must import without it
    env = dict(os.environ, PYTHONPATH=str(Path(dqdpulse.__file__).parent.parent))
    code = "import sys, dqdpulse; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

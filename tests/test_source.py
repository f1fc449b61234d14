"""Static checks on the package source, with the stdlib ``ast`` standing in for a linter."""

import ast
import importlib
import importlib.util
import inspect
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


def unread_private_names(source: str) -> list[str]:
    """Module-level ``_private`` names that no expression in the module reads."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(n for n in bound - read if n.startswith("_") and not n.startswith("__"))


def test_detector_flags_unread_private_names():
    source = (
        "import numpy as np\n_I4 = np.eye(4)\n_SCALE: float = 2.0\n_a, b = 1, 2\n__all__ = ['f']\n"
        "class _Unused:\n    pass\n"
        "def _helper():\n    return _SCALE\n"
        "def f(x):\n    _local = x\n    return _helper() * _local\n"
    )
    assert unread_private_names(source) == ["_I4", "_Unused", "_a"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_private_names(path):
    assert unread_private_names(path.read_text()) == []


def _names_read(node: ast.AST) -> set[str]:
    """Names, attributes and string constants read anywhere under ``node``,
    except a definition's reads of its own name (recursion is not a use)."""
    read = set()
    for child in ast.iter_child_nodes(node):
        read |= _names_read(child)
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            read.add(child.id)
        elif isinstance(child, ast.Attribute):
            read.add(child.attr)
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            read.add(child.value)  # getattr-style lookups, as in perfbench/tracing.py
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        read.discard(node.name)
    return read


def _public_definitions(tree: ast.Module) -> dict[str, str]:
    """Reported name -> name read at a use, for the public top-level functions
    and classes of a module and the public methods of its top-level classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    public = {}
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            public[node.name] = node.name
        if isinstance(node, ast.ClassDef):
            public.update(
                (f"{node.name}.{m.name}", m.name)
                for m in node.body
                if isinstance(m, defs[:2]) and not m.name.startswith("_")
            )
    return public


def unreferenced_public_names(defining: list[str], readers: list[str]) -> list[str]:
    """Public top-level functions and classes, and public methods of top-level
    classes, of the ``defining`` sources that no source (defining or reader)
    reads outside their own definitions.  A method counts as read wherever an
    attribute of its name is.

    Re-export lists such as ``__init__.py`` belong in neither argument:
    importing a name is not a use of it.
    """
    trees = [ast.parse(s) for s in defining]
    public = {}
    for tree in trees:
        public.update(_public_definitions(tree))
    read = set().union(*(_names_read(t) for t in trees), *(_names_read(ast.parse(s)) for s in readers))
    return sorted(name for name, used_as in public.items() if used_as not in read)


def test_detector_flags_unreferenced_public_names():
    module = (
        "def used():\n    return 1\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "def looked_up():\n    pass\n"
        "class Dead:\n    pass\n"
        "def _private():\n    pass\n"
        "def caller():\n    return used()\n"
    )
    reader = "import m\nfrom m import Dead\nm.caller()\ngetattr(m, 'looked_up')\n"
    assert unreferenced_public_names([module], [reader]) == ["Dead", "recursive"]


def test_detector_flags_unread_public_methods():
    module = (
        "class Point:\n"
        "    def norm(self):\n        return 1\n"
        "    def normalized(self):\n        return self.normalized()\n"
        "    def _private(self):\n        pass\n"
        "    def __repr__(self):\n        return ''\n"
        "    @property\n    def size(self):\n        return self.norm()\n"
    )
    reader = "from m import Point\nPoint().size\n"
    assert unreferenced_public_names([module], [reader]) == ["Point.normalized"]


def test_no_unreferenced_public_names():
    root = Path(dqdpulse.__file__).resolve().parent.parent.parent
    readers = [p.read_text() for d in ("tests", "scripts", "perfbench") for p in sorted((root / d).rglob("*.py"))]
    assert unreferenced_public_names([p.read_text() for p in MODULES], readers) == []


def _callee(call: ast.Call) -> str | None:
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def _is_dataclass(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        if (d.id if isinstance(d, ast.Name) else getattr(d, "attr", None)) == "dataclass":
            return True
    return False


def _options(tree: ast.Module) -> list[tuple[str, str, str, int | None, bool]]:
    """(reported name, callee name, parameter or field name, call position,
    is a field) of every defaulted parameter of every function and method and
    every defaulted dataclass field; the position is None for keyword-only
    parameters and does not count ``self``."""
    found = []

    def visit(node: ast.AST, cls: ast.ClassDef | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_dataclass(child):
                    fields = [s for s in child.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
                    found.extend(
                        (f"{child.name}.{s.target.id}", child.name, s.target.id, i, True)
                        for i, s in enumerate(fields)
                        if s.value is not None
                    )
                visit(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{cls.name}.{child.name}" if cls else child.name
                callee = cls.name if cls and child.name == "__init__" else child.name
                a = child.args
                positional = a.posonlyargs + a.args
                first = len(positional) - len(a.defaults)
                skip = 1 if cls else 0  # self
                found.extend((f"{qual}({p.arg})", callee, p.arg, i - skip, False) for i, p in enumerate(positional) if i >= first)
                found.extend(
                    (f"{qual}({p.arg})", callee, p.arg, None, False)
                    for p, d in zip(a.kwonlyargs, a.kw_defaults)
                    if d is not None
                )
                visit(child, None)  # a function nested in a method is not a method
            else:
                visit(child, cls)

    visit(tree, None)
    return found


def unset_options(defining: list[str], callers: list[str]) -> list[str]:
    """Defaulted parameters of the functions and methods of the ``defining``
    sources, and defaulted fields of their dataclasses, that no call in any
    source (defining or caller) passes, by keyword or by position.

    Calls are matched by bare callee name (a class name for ``__init__`` and
    for fields), so a name collision can hide an unset option but never
    reports a set one.  A call of the name with ``*`` or ``**`` arguments
    passes everything, and ``replace(obj, name=...)`` passes every field
    called ``name``.
    """
    trees = [ast.parse(s) for s in defining]
    keywords, positions, everything = set(), set(), set()
    for call in (n for t in [*trees, *map(ast.parse, callers)] for n in ast.walk(t) if isinstance(n, ast.Call)):
        name = _callee(call)
        if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
            everything.add(name)
        keywords.update((name, k.arg) for k in call.keywords if k.arg)
        positions.update((name, i) for i in range(len(call.args)))
    unset = []
    for tree in trees:
        for reported, callee, name, position, field in _options(tree):
            passed = callee in everything or (callee, name) in keywords or (callee, position) in positions
            if field:
                passed = passed or "replace" in everything or ("replace", name) in keywords
            if not passed:
                unset.append(reported)
    return sorted(unset)


def test_detector_flags_unset_options():
    module = (
        "from dataclasses import dataclass, replace\n"
        "def f(a, b=1, c=2, *, d=3, e=4):\n    return g(a)\n"
        "def g(x, y=0):\n    return x\n"
        "def h(x=0):\n    return x\n"
        "class Writer:\n"
        "    def __init__(self, path, mode='w'):\n        self.path = path\n"
        "    def write(self, text, end='\\n'):\n        return text\n"
        "@dataclass\n"
        "class Point:\n    x: float\n    y: float = 0.0\n    z: float = 0.0\n    w: float = 0.0\n"
    )
    caller = (
        "f(1, 2, e=5)\nh(*args)\nWriter('p').write('t', '')\n"
        "p = Point(1.0, 2.0)\nreplace(p, w=1.0)\n"
    )
    assert unset_options([module], [caller]) == [
        "Point.z", "Writer.__init__(mode)", "f(c)", "f(d)", "g(y)",
    ]


def test_every_option_has_a_caller():
    root = Path(dqdpulse.__file__).resolve().parent.parent.parent
    callers = [p.read_text() for d in ("tests", "scripts", "perfbench") for p in sorted((root / d).rglob("*.py"))]
    assert unset_options([p.read_text() for p in MODULES], callers) == []


def test_import_loads_no_scipy():
    # scipy is a test dependency only; the package must import without it
    env = dict(os.environ, PYTHONPATH=str(Path(dqdpulse.__file__).parent.parent))
    code = "import sys, dqdpulse; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def scipy_imports(source: str) -> list[str]:
    """The scipy modules a source imports, at any depth of nesting."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "scipy"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] == "scipy":
            found.append(node.module)
    return found


def test_detector_flags_scipy_imports():
    source = (
        "import numpy, scipy.linalg as sl\nfrom . import scipy_like\nimport scipyish\n"
        "def f():\n    from scipy.optimize import brentq\n    import scipy\n"
    )
    assert sorted(scipy_imports(source)) == ["scipy", "scipy.linalg", "scipy.optimize"]


@pytest.mark.parametrize("path", sorted(Path(dqdpulse.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_import(path):
    # numpy is the package's one runtime dependency; scipy serves the tests as an oracle
    assert scipy_imports(path.read_text()) == []


# The benchmark harness reaches into the package by name from outside it; a
# rename there would only surface as a crash of the traced benchmark.
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_script(path: Path):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(dotted: str):
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        obj = getattr(obj, part) if hasattr(obj, part) else importlib.import_module(".".join(parts[:i]))
    return obj


def _chain(node: ast.AST) -> list[str] | None:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def dqdpulse_uses(source: str) -> tuple[list[str], list[tuple[str, ast.Call]]]:
    """Dotted dqdpulse names a script imports or reads off them, and its calls of those names."""
    tree = ast.parse(source)
    bound: dict[str, str] = {}  # local name -> dotted dqdpulse name
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dqdpulse":
            bound.update((a.asname or a.name, f"{node.module}.{a.name}") for a in node.names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "dqdpulse":
                    bound[a.asname or "dqdpulse"] = a.name if a.asname else "dqdpulse"
    names, calls = list(bound.values()), []
    for node in ast.walk(tree):
        target = node.func if isinstance(node, ast.Call) else node
        chain = _chain(target) if isinstance(target, (ast.Attribute, ast.Name)) else None
        if chain and chain[0] in bound:
            dotted = ".".join([bound[chain[0]], *chain[1:]])
            if isinstance(node, ast.Call):
                calls.append((dotted, node))
            elif isinstance(node, ast.Attribute):
                names.append(dotted)
    return names, calls


def test_traced_entry_points_exist():
    tracing = _load_script(PERFBENCH / "tracing.py")
    missing = [f"{m.__name__}.{attr}" for m, attr, _, _ in tracing.FUNCTIONS if not hasattr(m, attr)]
    missing += [f"{cls.__name__}.{attr}" for cls, attr, _, _ in tracing.METHODS if attr not in cls.__dict__]
    assert missing == []


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")), ids=lambda p: p.name)
def test_benchmark_names_resolve(path):
    names, calls = dqdpulse_uses(path.read_text())
    unresolved = []
    for dotted in names:
        try:
            _resolve(dotted)
        except (AttributeError, ImportError):
            unresolved.append(dotted)
    assert unresolved == []
    for dotted, call in calls:
        fn = _resolve(dotted)
        if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
            continue
        try:
            inspect.signature(fn).bind_partial(*call.args, **{k.arg: None for k in call.keywords})
        except TypeError as exc:
            pytest.fail(f"{path.name}:{call.lineno} calls {dotted}: {exc}")


def test_use_detector_sees_imports_attributes_and_calls():
    source = (
        "import dqdpulse.cli\nfrom dqdpulse import experiments as xp\nfrom dqdpulse.kak import b_gate\n"
        "xp.gate_channel(s, rwa=True)\ndqdpulse.cli.main\nb_gate()\nxp.build_schedule('bgate').duration\n"
    )
    names, calls = dqdpulse_uses(source)
    assert sorted(names) == [
        "dqdpulse", "dqdpulse.cli", "dqdpulse.cli.main", "dqdpulse.experiments",
        "dqdpulse.experiments.build_schedule", "dqdpulse.experiments.gate_channel", "dqdpulse.kak.b_gate",
    ]
    assert sorted(dotted for dotted, _ in calls) == [
        "dqdpulse.experiments.build_schedule", "dqdpulse.experiments.gate_channel", "dqdpulse.kak.b_gate",
    ]

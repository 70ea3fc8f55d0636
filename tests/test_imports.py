"""Every module of the package and of its tests uses each name it imports,
and every private module-level name of the package is read somewhere.

No linter ships with the project, so these guards parse each module with
``ast``. An imported name counts as used when the module reads it, reads
an attribute chain through it (``raysep.bench`` for ``import raysep.bench``)
or lists it in ``__all__``. A private name (``_NAME``) that a package
module defines at module level, as a constant, function or class, counts
as read when a module of the package, its tests, its demos or its
benchmark loads it as a name or an attribute.
"""

import ast
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "raysep").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])
READERS = sorted(p for d in ("src", "tests", "demos", "perfbench") for p in (ROOT / d).rglob("*.py"))


def dotted_prefixes(node: ast.Attribute) -> list:
    """``a``, ``a.b`` and ``a.b.c`` for the chain ``a.b.c``; empty if it is not on a name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return []
    parts.append(node.id)
    parts.reverse()
    return [".".join(parts[: i + 1]) for i in range(len(parts))]


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.update(dotted_prefixes(node))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_guard_sees_unused_plain_dotted_and_from_imports():
    source = (
        "import os\nimport numpy as np\nimport raysep.bench\nimport raysep.cli\n"
        "from raysep import bpdn, rmse\n__all__ = ['rmse']\n"
        "np.zeros(1)\nraysep.bench.rmse\n"
    )
    assert unused_imports(source) == ["bpdn (line 5)", "os (line 1)", "raysep.cli (line 4)"]


def private_definitions(source: str) -> dict:
    """The private names a module defines at module level, with their lines."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, node.lineno)
    return defined


def read_names(source: str) -> set:
    """The names and the attributes a module loads."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


@functools.cache
def names_read_anywhere() -> frozenset:
    return frozenset().union(*(read_names(p.read_text()) for p in READERS))


def unread_private_names(source: str, read: set) -> list:
    return sorted(
        f"{name} (line {line})"
        for name, line in private_definitions(source).items()
        if name not in read
    )


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_every_private_module_name_is_read(path):
    assert unread_private_names(path.read_text(), names_read_anywhere()) == []


def test_guard_sees_unread_private_constants_functions_and_classes():
    source = (
        "_A = 1\n_B: int = 2\nx = _C = 3\n__all__ = []\n"
        "def _f():\n    return _A\nclass _K:\n    pass\ndef _g():\n    _H = 4\n"
    )
    other = "import m\nm._g()\nm._C = 5\n"
    assert unread_private_names(source, read_names(source) | read_names(other)) == [
        "_B (line 2)", "_C (line 3)", "_K (line 7)", "_f (line 5)",
    ]

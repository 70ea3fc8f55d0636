"""Every module of the package and of its tests uses each name it imports.

No linter ships with the project, so this guard parses each module with
``ast``. A name counts as used when the module reads it, reads an
attribute chain through it (``raysep.bench`` for ``import raysep.bench``)
or lists it in ``__all__``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src" / "raysep").glob("*.py"), *(ROOT / "tests").glob("*.py")])


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

"""Every module-level import in src/ and tests/ is used somewhere in its file.

A stdlib-ast scan, standing in for a linter: a name bound by a top-level
`import` or `from ... import` must appear as a name elsewhere in the module
(code, annotations or `__all__`).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names if alias.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [name for name in bound if name not in used]


def test_checker_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys\n"
        "from typing import Any, Iterable as It\n"
        "from json import dumps\n"
        "__all__ = ['dumps']\n"
        "def f(x: It) -> None:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == ["sys", "Any"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []

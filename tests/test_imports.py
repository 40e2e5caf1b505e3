"""Every module of the package uses each name it imports.

An ast walk over src/leoplan/*.py (the package's __init__.py, which imports
to re-export, aside): a name bound by an import must be read somewhere in
the module, so a check or helper that moves elsewhere takes its import along.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "leoplan"


def unused_imports(source: str) -> list:
    """Names bound by the imports of source that no expression reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_unused_imports_are_found():
    assert unused_imports("import math\nimport numpy as np\nfrom a import b, c\nc()\n") == [
        "math", "np", "b"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "__init__.py"))
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []

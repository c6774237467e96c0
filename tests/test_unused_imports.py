"""No module of the package or of its test suite imports a name at module
level that it never reads.

Standard-library stand-in for a linter's unused-import rule (F401):
`__init__.py` re-exports its imports, and an import whose lines carry
`# noqa: F401` is a deliberate binding for other modules to read.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "obsgrid"
MODULES = (sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
           + sorted(TESTS.glob("*.py")))


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports of `source` that it never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in ln for ln in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_checker_flags_only_unread_imports():
    src = ("from __future__ import annotations\n"
           "import csv\n"
           "import os.path\n"
           "import numpy as np\n"
           "from math import (inf,\n"
           "                  pi)  # noqa: F401\n"
           "x = np.zeros(1)\n")
    assert unused_imports(src) == ["csv (line 2)", "os (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []

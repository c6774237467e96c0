"""Every top-level function, class, class method and module constant of the
package is read somewhere in the package, its tests or its benchmark.

Standard-library stand-in for a dead-code finder: a definition counts as
read where a loaded name, an attribute or an import alias spells it, in
any module of `src/obsgrid`, `tests/` or `perfbench/`. Dunders are exempt,
and the re-exports of `__init__.py` are read by its import aliases.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "obsgrid"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
READERS = sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")) \
    + sorted((ROOT / "perfbench").glob("*.py"))


def defined_names(source: str) -> list[tuple[str, int]]:
    """(name, line) of each top-level function, class, class method and
    module constant of `source`, dunders aside."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            found += [(f.name, f.lineno) for f in node.body
                      if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
    return [(n, line) for n, line in found if not (n.startswith("__") and n.endswith("__"))]


def read_names(source: str) -> set[str]:
    """The loaded names, attribute names and import aliases of `source`."""
    read = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            read.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            read.add(n.attr)
        elif isinstance(n, ast.alias):
            read.add(n.name.split(".")[-1])
    return read


def unused_names(source: str, readers: list[str]) -> list[str]:
    """`name (line n)` for each definition of `source` that no reader reads."""
    read = set().union(*map(read_names, readers))
    return [f"{name} (line {line})" for name, line in defined_names(source)
            if name not in read]


def test_checker_flags_only_unread_definitions():
    src = ("LIMIT = 3\n"
           "_cache: dict = {}\n"
           "__all__ = ['f']\n"
           "def f():\n"
           "    return LIMIT\n"
           "def g():\n"
           "    pass\n"
           "class ModeBasis:\n"
           "    def __init__(self):\n"
           "        self.mass = None\n"
           "    def mass(self):\n"
           "        return _cache\n"
           "    def stale_form(self, Z):\n"
           "        return Z\n")
    reader = ("from pkg import f as run\n"
              "import pkg.ModeBasis\n"
              "run().mass()\n")
    assert unused_names(src, [src, reader]) == ["g (line 6)", "stale_form (line 13)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_definitions(path):
    readers = [p.read_text() for p in READERS]
    assert unused_names(path.read_text(), readers) == []

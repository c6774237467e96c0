"""No test sets a module constant of the package.

An UPPER_CASE module constant of `src/obsgrid` that a test sets is a knob
kept for tests: the program never runs with the value under test. A call
counts where any `setattr` (`monkeypatch.setattr` or the builtin) names
such a constant, as its attribute-name argument or as the last part of a
dotted target path. Spies that replace functions stay allowed.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "obsgrid"
TESTS = sorted((ROOT / "tests").glob("*.py"))


def module_constants(sources: list[str]) -> set[str]:
    """The UPPER_CASE names assigned at the top level of `sources`."""
    names = set()
    for source in sources:
        for node in ast.parse(source).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            names |= {t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()}
    return names


def patched_constants(source: str, constants: set[str]) -> list[str]:
    """`NAME (line n)` for each setattr call of `source` that names one of
    `constants`."""
    found = []
    for n in ast.walk(ast.parse(source)):
        if not isinstance(n, ast.Call):
            continue
        func = n.func
        if not ((isinstance(func, ast.Attribute) and func.attr == "setattr")
                or (isinstance(func, ast.Name) and func.id == "setattr")):
            continue
        for arg in n.args[:2]:
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                name = arg.value.rsplit(".", 1)[-1]
                if name in constants:
                    found.append(f"{name} (line {n.lineno})")
    return found


def test_checker_flags_only_constants():
    constants = module_constants(["LIMIT = 3\nTOL: float = 1e-8\n_cache = {}\n"
                                  "def f():\n    STEP = 2\n    return STEP\n"])
    assert constants == {"LIMIT", "TOL"}
    src = ("def test_a(monkeypatch):\n"
           "    monkeypatch.setattr(mod, 'LIMIT', 1)\n"
           "    monkeypatch.setattr('pkg.mod.TOL', 0.0)\n"
           "    setattr(mod, 'LIMIT', 2)\n"
           "    monkeypatch.setattr(mod, 'f', lambda: 0)\n"
           "    monkeypatch.setattr(mod, 'STEP', 1)\n"
           "    monkeypatch.setenv('LIMIT', '1')\n")
    assert patched_constants(src, constants) == [
        "LIMIT (line 2)", "TOL (line 3)", "LIMIT (line 4)"]


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.name)
def test_no_module_constant_is_set(path):
    constants = module_constants([p.read_text() for p in SRC.glob("*.py")])
    assert "OVERFLOW_THETA" in constants
    assert patched_constants(path.read_text(), constants) == []

"""No function of the package takes a parameter that its body never reads.

Standard-library stand-in for a linter's unused-argument rule (ARG):
`self` and `cls` are exempt; a read inside a nested function or lambda
counts as a read.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "obsgrid"
MODULES = sorted(SRC.glob("*.py"))
EXEMPT = {"self", "cls"}


def unused_parameters(source: str) -> list[str]:
    """`function.parameter (line n)` for each parameter of a function in
    `source` whose body never reads it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs,
                                  a.kwarg) if p is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [f"{node.name}.{p} (line {node.lineno})" for p in params
                  if p not in EXEMPT and p not in read]
    return found


def test_checker_flags_only_unread_parameters():
    src = ("def f(a, b, *args, c=1, **kw):\n"
           "    return a + kw['x']\n"
           "class K:\n"
           "    def m(self, x, y):\n"
           "        def inner(z):\n"
           "            return x\n"
           "        y = 2\n"
           "        return inner\n"
           "    @classmethod\n"
           "    def c(cls, n=len):\n"
           "        return (lambda: n)()\n")
    assert unused_parameters(src) == [
        "f.b (line 1)", "f.args (line 1)", "f.c (line 1)",
        "m.y (line 4)", "inner.z (line 5)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text()) == []

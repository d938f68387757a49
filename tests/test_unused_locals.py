"""No function in src/bevkit stores a local name it never reads.

A store without a load is dead code or a bug (a value computed and then
ignored). Names that start with "_" are exempt, so write "_" for a value
an unpacking must take but the code does not need.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bevkit"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_nodes(func: ast.AST):
    """Nodes of func's body, not descending into nested functions."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def unused_locals(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name a function stores and nothing in it loads."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, FUNCTIONS):
            continue
        declared = {name for node in _own_nodes(func)
                    if isinstance(node, (ast.Global, ast.Nonlocal)) for name in node.names}
        # loads anywhere inside, nested closures included
        loaded = {node.id for node in ast.walk(func)
                  if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        for node in _own_nodes(func):
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                    and not node.id.startswith("_") and node.id not in loaded | declared):
                found.append((node.lineno, node.id))
    return sorted(set(found))


def test_finds_unused_locals():
    source = ("def f(xs):\n"
              "    a, b = xs\n"
              "    c, _d = xs\n"
              "    for i in xs:\n"
              "        pass\n"
              "    def g():\n"
              "        return c\n"
              "    return a, g\n")
    assert unused_locals(source) == [(2, "b"), (4, "i")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_locals(path):
    assert unused_locals(path.read_text(encoding="utf-8")) == []

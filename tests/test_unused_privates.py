"""Every module-level private function or class in src/bevkit has a caller.

A "_name" def is internal to the package, so once nothing in src/bevkit
refers to it (references inside its own body do not count) it is dead
code left behind by a change. Code that only tests use belongs in
tests/oracles.py.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bevkit"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(tree: ast.AST):
    """Every name a tree loads, reads as an attribute or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """"module:name" of each top-level private def no other code refers to."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    counts = Counter(name for tree in trees.values() for name in _references(tree))
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, DEFS) and node.name.startswith("_")
                    and not node.name.startswith("__")):
                own = Counter(_references(node))[node.name]
                if counts[node.name] == own:
                    found.append(f"{module}:{node.name}")
    return sorted(found)


def test_finds_unreferenced_privates():
    sources = {
        "a.py": ("def _used():\n    return 1\n"
                 "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n"
                 "class _Unused:\n    pass\n"
                 "def __getattr__(name):\n    raise AttributeError(name)\n"
                 "def public():\n    return _Helper()\n"),
        "b.py": ("from .a import _used\nfrom . import c\n"
                 "def _Helper():\n    return c._via_attribute() + _used()\n"),
        "c.py": "def _via_attribute():\n    return 2\n",
    }
    assert unreferenced_privates(sources) == ["a.py:_Unused", "a.py:_recursive"]


def test_no_unreferenced_private_definitions():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert unreferenced_privates(sources) == []

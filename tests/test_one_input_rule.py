"""The input-value rule and the JSON I/O have one owner, bevkit.nnprims.

Every other module reads and writes JSON through nnprims.read_json and
write_json, and tests integers and numbers through nnprims.is_int and
is_number (or the converters built on them). A second json.load, a numpy
scalar type or an exact type test elsewhere would start a second rule.
A bool rule (isinstance(v, bool)) is not a number rule and stays allowed.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bevkit"
OWNER = "nnprims.py"


def _is_type_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "type")


def second_rules(source: str) -> list[str]:
    """"line: what" for each JSON read or write, numpy scalar type or type(...) is int,
    in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
                and node.func.attr in ("load", "dump")):
            found.append((node, f"json.{node.func.attr}"))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy") and node.attr in ("integer", "floating")):
            found.append((node, f"np.{node.attr}"))
        elif (isinstance(node, ast.Compare) and _is_type_call(node.left)
                and any(isinstance(c, ast.Name) and c.id == "int" for c in node.comparators)):
            found.append((node, "type(...) is int"))
    found.sort(key=lambda hit: (hit[0].lineno, hit[0].col_offset))
    return [f"{node.lineno}: {what}" for node, what in found]


def test_finds_second_rules():
    source = ("import json\nimport numpy as np\n"
              "def f(fh, v, w):\n"
              "    json.dump(v, fh)\n"
              "    json.dumps(v)\n"  # building text is not writing a file
              "    isinstance(v, (int, np.integer))\n"
              "    isinstance(w, bool)\n"
              "    return json.load(fh), type(v) is int, type(w) is type(v), np.floating\n")
    assert second_rules(source) == ["4: json.dump", "6: np.integer", "8: json.load",
                                    "8: type(...) is int", "8: np.floating"]


def test_only_nnprims_owns_the_input_rule_and_the_json_io():
    found = {path.name: second_rules(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) if path.name != OWNER}
    assert {name: hits for name, hits in found.items() if hits} == {}

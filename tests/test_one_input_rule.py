"""The input-value rule, the key rule and the JSON I/O have one owner, bevkit.nnprims.

Every other module reads and writes JSON through nnprims.read_json and
write_json, tests integers and numbers through nnprims.is_int and
is_number (or the converters built on them), and checks the keys of a JSON
object through nnprims.known_keys. A second json.load, a numpy scalar type,
an exact type test or a raised "unknown ..." message elsewhere would start a
second rule, and so would a range patch on the rule: catching OverflowError,
or comparing with sys.float_info or math.inf. A bool rule (isinstance(v,
bool)) is not a number rule and stays allowed.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bevkit"
OWNER = "nnprims.py"


def _is_type_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "type")


def second_rules(source: str) -> list[str]:
    """"line: what" for each JSON read or write, numpy scalar type, type(...) is int,
    OverflowError, sys.float_info, math.inf or raised "unknown ..." message, in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
                and node.func.attr in ("load", "dump")):
            found.append((node, f"json.{node.func.attr}"))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy") and node.attr in ("integer", "floating")):
            found.append((node, f"np.{node.attr}"))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and (node.value.id, node.attr) in (("sys", "float_info"), ("math", "inf"))):
            found.append((node, f"{node.value.id}.{node.attr}"))
        elif isinstance(node, ast.Name) and node.id == "OverflowError":
            found.append((node, "OverflowError"))
        elif (isinstance(node, ast.Compare) and _is_type_call(node.left)
                and any(isinstance(c, ast.Name) and c.id == "int" for c in node.comparators)):
            found.append((node, "type(...) is int"))
        elif isinstance(node, ast.Raise):
            found += [(c, "unknown-key message") for c in ast.walk(node)
                      if isinstance(c, ast.Constant) and isinstance(c.value, str)
                      and c.value.startswith("unknown ")]
    found.sort(key=lambda hit: (hit[0].lineno, hit[0].col_offset))
    return [f"{node.lineno}: {what}" for node, what in found]


def test_finds_second_rules():
    source = ("import json\nimport numpy as np\n"
              "def f(fh, v, w):\n"
              "    json.dump(v, fh)\n"
              "    json.dumps(v)\n"  # building text is not writing a file
              "    isinstance(v, (int, np.integer))\n"
              "    isinstance(w, bool)\n"
              "    return json.load(fh), type(v) is int, type(w) is type(v), np.floating\n"
              "def g(v):\n"
              "    try:\n"
              "        return abs(v) <= sys.float_info.max and v < math.inf\n"
              "    except (ValueError, OverflowError):\n"
              "        return math.pi, sys.maxsize\n"
              "def h(k):\n"
              "    print('unknown key')\n"  # a message that is not raised
              "    raise ValueError(f'unknown box key {k!r}' if k else 'unknowns')\n")
    assert second_rules(source) == ["4: json.dump", "6: np.integer", "8: json.load",
                                    "8: type(...) is int", "8: np.floating",
                                    "11: sys.float_info", "11: math.inf", "12: OverflowError",
                                    "16: unknown-key message"]


def test_only_nnprims_owns_the_input_rule_and_the_json_io():
    found = {path.name: second_rules(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) if path.name != OWNER}
    assert {name: hits for name, hits in found.items() if hits} == {}

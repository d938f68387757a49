"""The library writes nothing to stdout or stderr; only bevkit.cli, the command line, does.

What a run did goes into its report: a pillar truncation is
report.pillars.truncated, and a run with no 2 m box pairs shows as
eval.mtp all null with losses.l_bbox 0. A second channel beside the report
(import logging, print, warnings.warn, or naming sys.stdout or sys.stderr)
would restate it on a successful run's stderr. Silencing a warning, as
pillars.read_cloud_csv does with warnings.catch_warnings, writes nothing
and stays allowed.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bevkit"
OWNER = "cli.py"


def outputs(source: str) -> list[str]:
    """"line: what" for each import of logging, print call, warnings.warn call and
    sys.stdout or sys.stderr name, in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node, "import logging") for a in node.names
                      if a.name.split(".")[0] == "logging"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "logging":
            found.append((node, "import logging"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "print"):
            found.append((node, "print"))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and (node.value.id, node.attr) in (("warnings", "warn"), ("sys", "stdout"),
                                                   ("sys", "stderr"))):
            found.append((node, f"{node.value.id}.{node.attr}"))
    found.sort(key=lambda hit: (hit[0].lineno, hit[0].col_offset))
    return [f"{node.lineno}: {what}" for node, what in found]


def test_finds_outputs():
    source = ("import logging\nimport sys, warnings\n"
              "from logging import getLogger\n"
              "import logging.handlers as lh\n"
              "def f(v):\n"
              "    print(v)\n"
              "    warnings.warn('x')\n"
              "    with warnings.catch_warnings():\n"  # silencing writes nothing
              "        warnings.filterwarnings('ignore', 'x')\n"
              "    sys.stdout.write(v)\n"
              "    return sys.stderr, sys.argv, f'print {v}', v.print\n")
    assert outputs(source) == ["1: import logging", "3: import logging", "4: import logging",
                               "6: print", "7: warnings.warn", "10: sys.stdout",
                               "11: sys.stderr"]


def test_only_cli_writes_to_stdout_or_stderr():
    found = {path.name: outputs(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) if path.name != OWNER}
    assert {name: hits for name, hits in found.items() if hits} == {}

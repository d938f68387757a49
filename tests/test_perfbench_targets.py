"""The traced benchmark wraps bevkit functions by (module, attribute) name.

A rename in src/ would otherwise show up only as failed traced ops.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_target_resolves(monkeypatch):
    # load perfbench/tracing.py read-only: no bytecode cache, no sys.modules entry
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.PATCHES
    for module, attr, *_ in tracing.PATCHES:
        assert callable(getattr(importlib.import_module(module), attr, None)), \
            f"{module}.{attr}"

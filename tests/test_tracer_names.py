"""The benchmark's tracer names curcat functions and methods by string; a
renamed or deleted one makes `Tracer.enable()` raise KeyError."""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_in_curcat():
    tracer = _tracer_module()
    assert tracer.SPANNED and tracer.COUNTED
    missing = []
    for mod, fn in tracer.SPANNED:
        if not callable(vars(importlib.import_module(f"curcat.{mod}")).get(fn)):
            missing.append(f"{mod}.{fn}")
    for mod, cls, method, _ in tracer.COUNTED:
        owner = vars(importlib.import_module(f"curcat.{mod}")).get(cls)
        if not isinstance(owner, type) or method not in vars(owner):
            missing.append(f"{mod}.{cls}.{method}")
    assert missing == []

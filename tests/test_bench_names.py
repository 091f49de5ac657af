"""The benchmark's tracer wraps chaoskit functions by name; each must exist.

`bench/tracing.py` replaces the names in its `FUNCTIONS` and `METHODS` tables
during traced benchmark runs, so renaming one of them breaks those runs.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    tracing = _load_tracing()
    assert tracing.FUNCTIONS and tracing.METHODS
    for layer, attr in tracing.FUNCTIONS:
        module = importlib.import_module(f"chaoskit.{layer}")
        assert callable(getattr(module, attr, None)), f"chaoskit.{layer}.{attr}"
    for span, (layer, cls_name, attr) in tracing.METHODS.items():
        cls = getattr(importlib.import_module(f"chaoskit.{layer}"), cls_name, None)
        assert cls is not None and attr in vars(cls), span

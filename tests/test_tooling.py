"""The benchmark tracer wraps library functions by name; keep those names."""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path


def test_every_traced_name_resolves_in_abelift():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SPANNED
    missing = [f"{mod}.{attr}" for mod, attr in tracing.SPANNED
               if not callable(getattr(
                   importlib.import_module("abelift." + mod), attr, None))]
    assert missing == []

"""The benchmark's tracer patches module attributes by name; keep them there."""

import importlib
import sys
from pathlib import Path


def test_every_traced_attribute_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        spans = importlib.import_module("spans")
        missing = [f"{mod.__name__}.{attr}" for mod, attr, _ in spans.PATCHES
                   if not callable(getattr(mod, attr, None))]
    finally:
        sys.modules.pop("spans", None)
    assert missing == []

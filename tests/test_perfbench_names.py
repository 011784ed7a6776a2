"""The perfbench tracer wraps functions by the name each module looks them
up under, so every such name must exist even where the module's own code
no longer calls it."""

import importlib.util
from pathlib import Path


def test_every_traced_name_resolves():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module.__name__}.{name}"
               for pairs in tracing.LAYERS.values() for module, name in pairs
               if not callable(getattr(module, name, None))]
    assert missing == []

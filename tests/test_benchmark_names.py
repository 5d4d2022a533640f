"""The benchmark tracer wraps branlab names by module and attribute, so a
renamed or deleted name breaks it; this catches that without running it."""

import importlib
import importlib.util
from pathlib import Path

import branlab  # noqa: F401  (the tracer installs after the package import)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in spans.TRACED
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
    assert callable(importlib.import_module("branlab.scenarios").ProcessPoolExecutor)

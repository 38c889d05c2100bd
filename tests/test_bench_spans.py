"""Guard for the benchmark's span boundaries.

``bench/spans.py`` records per-layer timings by replacing named attributes
of the xrm modules.  A renamed or deleted function would otherwise only show
up as a missing span in traced benchmark runs; here it fails the suite.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_boundary_resolves():
    spans = _load_spans()
    unresolved = [
        f"{module_name}.{attribute}"
        for module_name, attribute, _ in spans.BOUNDARIES
        if not callable(getattr(importlib.import_module(module_name), attribute, None))
    ]
    assert spans.BOUNDARIES
    assert unresolved == []

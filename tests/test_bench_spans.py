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


def test_train_calls_every_solver_boundary(monkeypatch):
    # A span records only while train calls the block through the module
    # attribute.  A block inlined into train, or bound to a local name, would
    # read 0 in a traced benchmark run; here it fails the suite.  train is the
    # root span, and train applies the W prox as a shrink without calling
    # solve_w_subproblem, so neither is counted.
    from conftest import make_blobs
    from xrm import SolverConfig, solver

    calls = {}
    for module_name, attribute, _ in _load_spans().BOUNDARIES:
        if module_name != "xrm.solver" or attribute in ("train", "solve_w_subproblem"):
            continue
        original = getattr(solver, attribute)

        def counted(*args, _name=attribute, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        calls[attribute] = 0
        monkeypatch.setattr(solver, attribute, counted)
    assert len(calls) == 8
    for N, M in ((40, 5), (12, 30)):  # the features and the instances side
        for name in calls:
            calls[name] = 0
        _, report = solver.train(make_blobs(N, M, seed=1), SolverConfig(components=3))
        assert report.gram_side == ("features" if N >= M else "instances")
        assert [name for name, count in calls.items() if count == 0] == []

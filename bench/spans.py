"""In-memory span recording around the library's layer boundaries.

The tracer replaces module attributes (``xrm.solver.update_E``,
``xrm.datasets.load_dataset``, ...) with recorders for the duration of one
traced fit and puts the originals back afterwards.  ``xrm.solver.train`` and
the CLI look these names up at call time, so calls made inside the library
are recorded too.  An attribute that no longer exists is reported as missing
instead of failing the run.

A span is ``[name, start_ns, end_ns, parent_index, fit_id]``; parent -1 marks
a root.  Self time is a span's duration minus the part of it covered by its
children.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from contextlib import contextmanager
from pathlib import Path

ROOT_SPAN = "fit"

# (module, attribute, span name).  Per-layer metrics are named after the span.
BOUNDARIES = (
    ("xrm.solver", "train", "solver.loop_self"),
    ("xrm.solver", "factor_gram", "solver.factor_gram"),
    ("xrm.solver", "solve_w_subproblem", "solver.w_block"),
    ("xrm.solver", "update_b", "solver.b_block"),
    ("xrm.solver", "update_E", "solver.e_block"),
    ("xrm.solver", "update_P", "solver.p_block"),
    ("xrm.solver", "update_multipliers", "solver.multipliers"),
    ("xrm.solver", "primal_objective", "solver.objective"),
    ("xrm.solver", "constraint_residuals", "solver.residuals"),
    ("xrm.solver", "diversity_report", "diversity.report"),
    ("xrm.datasets", "load_dataset", "datasets.load"),
    ("xrm.datasets", "split", "datasets.split"),
    ("xrm.datasets", "standardize", "datasets.standardize"),
    ("xrm.model", "test_error", "model.test_error"),
    ("xrm.model", "verify_ensemble_bound", "model.bound_check"),
    ("xrm.model", "save_model", "model.save"),
    ("xrm.model", "load_model", "model.load"),
)


class Tracer:
    """Collects spans for fits run inside :meth:`record`."""

    def __init__(self, modules: dict, boundaries=BOUNDARIES):
        self.modules = modules  # module name -> module object
        self.boundaries = boundaries
        self.spans: list[list] = []
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._fit_id = None

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0, 0, parent, self._fit_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter_ns()
        self._stack.pop()

    def _recorder(self, name: str, original):
        @functools.wraps(original)
        def recorded(*args, **kwargs):
            span = self._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(span)
        return recorded

    @contextmanager
    def record(self, fit_id):
        """Install the recorders, wrap the body in a root span, restore."""
        saved = []
        try:
            for module_name, attribute, name in self.boundaries:
                module = self.modules[module_name]
                original = getattr(module, attribute, None)
                if original is None:
                    self.missing.add(name)
                    continue
                saved.append((module, attribute, original))
                setattr(module, attribute, self._recorder(name, original))
            self._fit_id = fit_id
            root = self._open(ROOT_SPAN)
            try:
                yield
            finally:
                self._close(root)
        finally:
            self._fit_id = None
            for module, attribute, original in reversed(saved):
                setattr(module, attribute, original)

    def write(self, path: Path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def covered_ns(intervals) -> int:
    """Length of the union of [start, end) intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times_ns(spans) -> list[int]:
    """Each span's duration minus the time its direct children cover."""
    children = [[] for _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - covered_ns(kids)
            for (_, start, end, _, _), kids in zip(spans, children)]


def totals_by_name(spans) -> tuple[dict, dict]:
    """Summed (self time, duration) in ns per span name."""
    self_total: dict[str, int] = {}
    duration_total: dict[str, int] = {}
    for span, own in zip(spans, self_times_ns(spans)):
        name, start, end = span[0], span[1], span[2]
        self_total[name] = self_total.get(name, 0) + own
        duration_total[name] = duration_total.get(name, 0) + end - start
    return self_total, duration_total

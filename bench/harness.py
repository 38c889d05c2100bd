"""Measurement loop, output checks and metric assembly for one workload run.

A run sets the workload up several times (``setup_s`` is the median), then
either measures untraced fits for the requested seconds (end-to-end metrics)
or alternates untraced and traced fits of the same input (per-layer metrics
plus the tracing overhead).  Untraced runs keep going until the time is up
and at least one full pass over the workload's inputs is done.  Quality
metrics come from that first pass, so they depend only on the seed; timings
use every fit.

A shared virtual machine (measured: 2-core Xeon) can switch between a fast
and a ~30% slower state every 10-60 s, which no run length averages away.  So
untraced runs also time a fixed reference kernel (numpy and plain Python, no
xrm) between fits, and the gated times are scaled to the speed at which that
kernel takes ``REFERENCE_S``: each fit by the mean of the probes just before
and after it.  Wall-clock values are printed and recorded beside them.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import io
import os
import platform
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
import scipy

from xrm import cli
from spans import Tracer, totals_by_name

SETUP_REPEATS = 3
TAIL_MIN_SAMPLES = 100  # p90 needs at least ten samples above it
PROBE_INTERVAL_S = 0.25
REFERENCE_S = 0.0015  # the reference kernel's duration at reference speed

# Per-layer metrics that are summed span self times, in ms per traced fit.
LAYER_SPANS = (
    "solver.w_block", "solver.e_block", "solver.b_block", "solver.multipliers",
    "solver.residuals", "solver.objective", "solver.loop_self", "solver.factor_gram",
    "solver.p_block", "diversity.report", "datasets.load", "datasets.split",
    "datasets.standardize", "model.test_error", "model.bound_check", "model.save",
    "model.load",
)


@dataclass(frozen=True)
class FitFacts:
    """The scalars the metrics need from one fit (models are not kept)."""

    error_pct: float
    objective: float
    iterations: int
    split_residual: float
    slack_residual: float
    bytes_loaded: int


@dataclass
class FitResult:
    index: int
    seconds: float
    facts: FitFacts | None  # None when the fit raised
    problems: list[str] = field(default_factory=list)
    probe: int = 0  # index of the speed probe taken last before the fit


class SpeedProbe:
    """Times a fixed kernel of interpreted Python and small numpy operations,
    none of it xrm code.  Of the candidate kernels tried (these two, 150x150
    products, a 16 MB reduction), this mix tracked the fits' own slowdowns
    best on every workload."""

    def __init__(self):
        self._small = np.random.default_rng(0).random((150, 30))
        self.seconds: list[float] = []
        self.last = float("-inf")  # perf_counter when the last probe ended

    def _kernel(self) -> float:
        total = 0.0
        for i in range(10_000):
            total += i * i
        a = self._small
        for _ in range(60):
            a = np.maximum(a * 0.5 + self._small, 0.0) / (1.0 + np.abs(a))
        return total + float(a[0, 0])

    def measure(self) -> int:
        """Median of three kernel timings; returns the probe's index."""
        times = []
        for _ in range(3):
            started = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - started)
        self.seconds.append(statistics.median(times))
        self.last = time.perf_counter()
        return len(self.seconds) - 1

    def due(self) -> bool:
        return time.perf_counter() - self.last >= PROBE_INTERVAL_S

    def scale(self, before: int) -> float:
        """Factor from wall time to reference-speed time for work done
        between probe ``before`` and the next one."""
        after = min(before + 1, len(self.seconds) - 1)
        return REFERENCE_S / (0.5 * (self.seconds[before] + self.seconds[after]))


def p90_if_enough(samples):
    """90th percentile, or None when fewer than TAIL_MIN_SAMPLES samples."""
    if len(samples) < TAIL_MIN_SAMPLES:
        return None
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def check_outcome(outcome, error_ceiling_pct: float) -> list[str]:
    """Reasons the fit's output is wrong; empty when it passes."""
    problems = []
    if not (np.all(np.isfinite(outcome.model.W)) and np.all(np.isfinite(outcome.model.b))):
        problems.append("non-finite W or b")
    if not outcome.bound_holds:
        problems.append("ensemble loss bound violated")
    if not outcome.error_pct <= error_ceiling_pct:
        problems.append(f"test error {outcome.error_pct:.2f}% above {error_ceiling_pct}%")
    if not outcome.roundtrip_ok:
        problems.append("saved model does not load back identical")
    return problems


def facts_of(outcome) -> FitFacts:
    split_residual, slack_residual = outcome.report.residual_trace[-1]
    return FitFacts(outcome.error_pct, outcome.report.objective_trace[-1],
                    outcome.report.iterations, split_residual, slack_residual,
                    outcome.bytes_loaded)


def timed_fit(fit, index: int, error_ceiling_pct: float, tracer: Tracer | None = None) -> FitResult:
    """Run and time one fit (traced when ``tracer`` is given), then check it."""
    outcome, error = None, None
    with tracer.record(index) if tracer is not None else contextlib.nullcontext():
        started = time.perf_counter()
        try:
            outcome = fit(index)
        except Exception as exc:  # a failing fit is counted, not fatal to the run
            error = exc
        elapsed = time.perf_counter() - started
    if error is not None:
        return FitResult(index, elapsed, None, ["".join(traceback.format_exception(error)).strip()])
    return FitResult(index, elapsed, facts_of(outcome), check_outcome(outcome, error_ceiling_pct))


def timed_setup(workload, seed: int, workdir, probe: SpeedProbe):
    """Run the setup SETUP_REPEATS times between speed probes; return the
    last result and each setup's (wall, reference-speed) seconds."""
    times = []
    before = probe.measure()
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        prepared = workload.setup(seed, workdir)
        elapsed = time.perf_counter() - started
        probe.measure()
        times.append((elapsed, elapsed * probe.scale(before)))
        before += 1
    return prepared, times


def measure_untraced(prepared, seconds: float, error_ceiling_pct: float, probe: SpeedProbe):
    """Closed loop, one client: fits back to back until the time is up and a
    pass is done, with a speed probe at most every PROBE_INTERVAL_S.  Also
    returns the peak RSS when the first pass ended, which unlike the peak at
    the end does not depend on how many fits the time allowed."""
    results = []
    started = time.perf_counter()
    while len(results) < prepared.pass_size or time.perf_counter() - started < seconds:
        index = probe.measure() if probe.due() else len(probe.seconds) - 1
        result = timed_fit(prepared.fit, len(results), error_ceiling_pct)
        result.probe = index
        results.append(result)
        if len(results) == prepared.pass_size:
            pass_rss_mb = peak_rss_mb()
    probe.measure()
    return results, pass_rss_mb


def measure_traced(prepared, seconds: float, error_ceiling_pct: float, tracer: Tracer):
    """Pairs of one untraced and one traced fit of the same input, until the
    time is up; which of the two runs first alternates from pair to pair."""
    untraced, traced = [], []
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        index = len(traced)
        for traced_run in ((False, True) if index % 2 == 0 else (True, False)):
            if traced_run:
                traced.append(timed_fit(prepared.fit, index, error_ceiling_pct, tracer))
            else:
                untraced.append(timed_fit(prepared.fit, index, error_ceiling_pct))
    return untraced, traced


def _mean(values):
    return statistics.fmean(values) if values else float("nan")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end_metrics(results, pass_size: int, setup_times, probe: SpeedProbe,
                       pass_rss_mb: float) -> dict:
    """Every end-to-end metric as (value, unit, sample count); a None value
    marks a metric the run holds too few samples for.  ``*_wall`` metrics
    are the unscaled wall-clock values."""
    wall_ms = [1000.0 * r.seconds for r in results]
    scaled_ms = [ms * probe.scale(r.probe) for ms, r in zip(wall_ms, results)]
    correct = sum(1 for r in results if not r.problems)
    quality = [r.facts for r in results[:pass_size] if r.facts is not None]
    n = len(results)
    return {
        "fits_per_s": (1000.0 * correct / sum(scaled_ms), "1/s", n),
        "fit_ms_p50": (statistics.median(scaled_ms), "ms", n),
        "fit_ms_p90": (p90_if_enough(scaled_ms), "ms", n),
        "test_error_pct": (_mean([f.error_pct for f in quality]), "%", len(quality)),
        "test_error_max_pct": (max((f.error_pct for f in quality), default=None), "%",
                               len(quality)),
        "final_objective": (_mean([f.objective for f in quality]), "1", len(quality)),
        "fail_ratio": ((n - correct) / n, "1", n),
        "setup_s": (statistics.median(s for _, s in setup_times), "s", len(setup_times)),
        "peak_rss_mb": (pass_rss_mb, "MB", 1),
        "fits_per_s_wall": (1000.0 * correct / sum(wall_ms), "1/s", n),
        "fit_ms_p50_wall": (statistics.median(wall_ms), "ms", n),
        "fit_ms_p90_wall": (p90_if_enough(wall_ms), "ms", n),
        "setup_s_wall": (statistics.median(w for w, _ in setup_times), "s", len(setup_times)),
        "probe_ms": (1000.0 * statistics.median(probe.seconds), "ms", len(probe.seconds)),
    }


def layer_metrics(untraced, traced, tracer: Tracer, sweep_ms) -> dict:
    """Per-layer metrics from the traced fits, as (value, unit, sample count)."""
    fits = len(traced)
    self_ns, duration_ns = totals_by_name(tracer.spans)
    metrics = {f"{name}_ms": (self_ns.get(name, 0) / 1e6 / fits, "ms", fits)
               for name in LAYER_SPANS}
    facts = [r.facts for r in traced if r.facts is not None]
    iterations = sum(f.iterations for f in facts)
    loop_ns = (duration_ns.get("solver.loop_self", 0) - duration_ns.get("solver.factor_gram", 0)
               - duration_ns.get("diversity.report", 0))
    load_ns = duration_ns.get("datasets.load", 0)
    loaded_bytes = sum(f.bytes_loaded for f in facts)
    untraced_s = sum(r.seconds for r in untraced)
    traced_s = sum(r.seconds for r in traced)
    metrics.update({
        "solver.outer_iters": (iterations / max(len(facts), 1), "count", len(facts)),
        "solver.ms_per_iter": (loop_ns / 1e6 / max(iterations, 1), "ms", iterations),
        "solver.final_split_residual": (_mean([f.split_residual for f in facts]), "1", len(facts)),
        "solver.final_slack_residual": (_mean([f.slack_residual for f in facts]), "1", len(facts)),
        "datasets.load_mb_per_s": (loaded_bytes / 1e6 / (load_ns / 1e9) if load_ns else 0.0,
                                   "MB/s", fits),
        "cli.sweep_pass_ms": (sweep_ms if sweep_ms is not None else 0.0, "ms",
                              1 if sweep_ms is not None else 0),
        "trace.overhead_pct": (100.0 * (traced_s / untraced_s - 1.0), "%", fits),
    })
    return metrics


def self_time_check(tracer: Tracer, untraced, traced) -> str:
    """Summed self times per traced fit against the untraced fit time."""
    self_ns, _ = totals_by_name(tracer.spans)
    traced_ms = sum(self_ns.values()) / 1e6 / max(len(traced), 1)
    untraced_ms = 1000.0 * sum(r.seconds for r in untraced) / max(len(untraced), 1)
    return (f"self times sum to {traced_ms:.6g} ms per traced fit; "
            f"untraced fits take {untraced_ms:.6g} ms")


def time_sweep_pass(argv) -> tuple[float, int]:
    """One `xrm sweep` pass through the CLI entry point: (ms, exit code)."""
    started = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return 1000.0 * (time.perf_counter() - started), code


def blas_threads():
    """Threads the bundled OpenBLAS will use, or None when it cannot be asked."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.argtypes = []
                function.restype = ctypes.c_int
                return int(function())
    return None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
    }


def print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit, samples) in metrics.items():
        shown = f"{value:.6g}" if value is not None else "n/a"
        note = "" if value is not None else f" (needs >= {TAIL_MIN_SAMPLES} samples)"
        print(f"  {name:<30} {shown:>14} {unit:<6} n={samples}{note}")

"""Self-test of the benchmark harness at tiny sizes.

    python3 bench/selftest.py          # or: python3 -m pytest -q bench/selftest.py

Checks the percentile sample-count rule, the self-time arithmetic, that an
injected failure is counted in ``fail_ratio``, and that the tracer reports a
vanished boundary as missing and always restores the library's functions.
"""

import statistics
import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import harness  # noqa: E402
import workloads  # noqa: E402
from spans import ROOT_SPAN, Tracer, covered_ns, self_times_ns, totals_by_name  # noqa: E402
from xrm import datasets, model, solver  # noqa: E402

MODULES = {"xrm.solver": solver, "xrm.datasets": datasets, "xrm.model": model}


def test_p90_needs_one_hundred_samples():
    assert harness.p90_if_enough([1.0] * 99) is None
    samples = [float(v) for v in range(1, 101)]
    assert harness.p90_if_enough(samples) == statistics.quantiles(samples, n=10,
                                                                  method="inclusive")[8]
    assert abs(harness.p90_if_enough(samples) - 90.1) < 1e-12


def test_self_time_subtracts_children_once():
    spans = [
        ["fit", 0, 100, -1, 0],
        ["a", 10, 40, 0, 0],
        ["a.inner", 20, 30, 1, 0],
        ["b", 50, 60, 0, 0],
    ]
    assert self_times_ns(spans) == [60, 20, 10, 10]
    assert sum(self_times_ns(spans)) == 100
    assert covered_ns([(0, 10), (5, 20), (30, 35)]) == 25
    self_total, duration = totals_by_name(spans + [["b", 70, 75, 0, 0]])
    assert self_total["b"] == 15 and duration["fit"] == 100


def _tiny_fit(i):
    data = workloads.blobs(np.random.default_rng(i), 30, 3)
    return workloads._train_and_evaluate(data, data, solver.SolverConfig(components=2))


def test_fail_ratio_counts_injected_failures():
    def fit(i):
        if i == 1:
            raise solver.DivergenceError("injected", 1)
        outcome = _tiny_fit(i)
        if i == 2:
            outcome.error_pct = 99.0  # above the ceiling below
        return outcome

    prepared = workloads.Prepared(fit=fit, pass_size=4)
    probe = harness.SpeedProbe()
    results, rss = harness.measure_untraced(prepared, seconds=1e-9, error_ceiling_pct=60.0,
                                            probe=probe)
    assert len(results) == 4
    assert [bool(r.problems) for r in results] == [False, True, True, False]
    assert results[1].facts is None and results[2].facts.error_pct == 99.0
    setups = [(0.1, 0.3), (0.2, 0.1), (0.3, 0.2)]
    metrics = harness.end_to_end_metrics(results, prepared.pass_size, setups, probe, rss)
    assert metrics["fail_ratio"][0] == 0.5
    assert metrics["fits_per_s_wall"][0] == 2 / sum(r.seconds for r in results)
    assert metrics["setup_s"][0] == 0.2 and metrics["setup_s_wall"][0] == 0.2
    assert metrics["fit_ms_p90"][0] is None and metrics["fit_ms_p50"][2] == 4
    assert metrics["test_error_pct"][2] == 3  # the fit that raised has no error to average


def test_speed_probe_scales_by_the_bracketing_probes():
    probe = harness.SpeedProbe()
    probe.seconds = [harness.REFERENCE_S, 3 * harness.REFERENCE_S]
    assert probe.scale(0) == 0.5  # work between a probe at speed 1 and one at speed 1/3
    assert probe.scale(1) == 1 / 3  # the last probe brackets from both sides


def test_traced_fit_self_times_sum_to_fit_time():
    tracer = Tracer(MODULES)
    original = solver.update_E
    result = harness.timed_fit(_tiny_fit, 0, 60.0, tracer)
    assert solver.update_E is original and not result.problems and not tracer.missing
    self_total, duration = totals_by_name(tracer.spans)
    assert sum(self_total.values()) == duration[ROOT_SPAN]
    assert {"solver.w_block", "solver.e_block", "solver.p_block", "diversity.report"} <= set(self_total)
    assert abs(duration[ROOT_SPAN] / 1e9 - result.seconds) < 0.05 * result.seconds + 1e-3


def test_vanished_boundary_is_missing_not_fatal():
    stub = types.SimpleNamespace(present=lambda: 7)
    boundaries = (("stub", "present", "stub.present"), ("stub", "gone", "stub.gone"))
    tracer = Tracer({"stub": stub}, boundaries)
    with tracer.record(0):
        assert stub.present() == 7
    assert tracer.missing == {"stub.gone"}
    assert [span[0] for span in tracer.spans] == [ROOT_SPAN, "stub.present"]
    assert stub.present.__name__ == "<lambda>" and not hasattr(stub, "gone")


def test_tracer_restores_after_a_failing_fit():
    tracer = Tracer(MODULES)
    original = solver.train

    def broken(i):
        raise RuntimeError("injected")

    result = harness.timed_fit(broken, 0, 60.0, tracer)
    assert result.facts is None and "injected" in result.problems[0]
    assert solver.train is original


def main() -> int:
    tests = [value for name, value in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    print(f"{len(tests)} harness self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark for the xrm trainer: one workload per run, or all four.

    python3 bench/run.py --workload protocol --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run it from the repository root; it imports ``xrm`` from ``src/`` next to
this directory and exits with code 2 when that is absent.  ``--trace 0``
measures untraced fits and reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced fits and reports per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give every
metric with its unit and sample count, and the environment.  Results and
spans are also written under ``.bench_out/``.
"""

import os

# BLAS threading must be pinned before numpy is first imported; the default
# made fits slower and noisier on two cores.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("protocol", "tall", "general_p", "wide")

# The metrics named in BENCHMARK.json; the tables print a few more.
END_TO_END = ("fits_per_s", "fit_ms_p50", "test_error_pct", "final_objective",
              "setup_s", "peak_rss_mb")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_all(args) -> int:
    """Each workload in its own process, so pinning and peak RSS stay per workload."""
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        status = max(status, subprocess.run(argv, cwd=ROOT, check=False).returncode)
    return status


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import harness
    import workloads
    from spans import Tracer
    from xrm import datasets, model, solver

    workload = workloads.WORKLOADS[args.workload]
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{label}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        probe = harness.SpeedProbe()
        prepared, setup_times = harness.timed_setup(workload, args.seed, workdir, probe)
        if args.trace:
            tracer = Tracer({"xrm.solver": solver, "xrm.datasets": datasets, "xrm.model": model})
            untraced, results = harness.measure_traced(
                prepared, args.seconds, workload.error_ceiling_pct, tracer)
            sweep_ms = None
            if args.workload == "protocol":
                sweep_ms, code = harness.time_sweep_pass(workloads.sweep_argv(args.seed, workdir))
                if code != 0:
                    results.append(harness.FitResult(-1, sweep_ms / 1000.0, None,
                                                     [f"xrm sweep exited with {code}"]))
            table = harness.layer_metrics(untraced, results, tracer, sweep_ms)
            selected = table
            tracer.write(OUT / f"{label}.spans.jsonl.gz")
        else:
            results, pass_rss_mb = harness.measure_untraced(
                prepared, args.seconds, workload.error_ceiling_pct, probe)
            table = harness.end_to_end_metrics(results, prepared.pass_size, setup_times, probe,
                                               pass_rss_mb)
            selected = {name: table[name] for name in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checked = untraced + results if args.trace else results
    failed = [r for r in checked if r.problems]
    env = harness.environment(args.seed)
    harness.print_table(f"workload {args.workload} (seed {args.seed}, trace {args.trace}, "
                        f"{len(results)} fits, pass of {prepared.pass_size})", table)
    if args.trace:
        print("  " + harness.self_time_check(tracer, untraced, results))
        for name in sorted(tracer.missing):
            print(f"  missing span: {name} (its time counts toward its caller)")
    for result in failed[:5]:
        print(f"  FAILED fit {result.index}: {'; '.join(result.problems)}", file=sys.stderr)
    print("env " + json.dumps(env))
    summary = {
        "correct": not failed,
        "attempted": len(checked),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in selected.items()},
    }
    record = dict(summary, env=env, workload=args.workload, trace=args.trace,
                  samples={name: samples for name, (_, _, samples) in table.items()},
                  table={name: value for name, (value, _, _) in table.items()},
                  missing_spans=sorted(tracer.missing) if args.trace else [])
    (OUT / f"{label}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "xrm" / "__init__.py").is_file():
        print(f"error: no xrm sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())

"""Run one workload over several seeds and summarise each metric's spread.

    python3 bench/spread.py --workload tall --seeds 1-10 --seconds 15 [--trace 0]
        [--out bench_spread.json]

For every metric it prints the median of the per-run values, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the quartile
distance as a share of the median, next to the metric's bound from
BENCHMARK.json.  Runs go one after another, never in parallel.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(results: list[dict], bounds: dict) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "iqr_share": (q3 - q1) / median if median else None,
                         "bound": bounds.get(name), "values": values}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    results = []
    for seed in args.seeds:
        results.append(run(args.workload, seed, args.seconds, args.trace))
        print(f"seed {seed}: correct={results[-1]['correct']} "
              f"attempted={results[-1]['attempted']} failed={results[-1]['failed']}", flush=True)
    summary = summarise(results, bounds)
    for name, row in summary.items():
        share = "n/a" if row["iqr_share"] is None else f"{row['iqr_share']:.4f}"
        print(f"  {name:<30} median {row['median']:<14.6g} q1 {row['q1']:<12.6g} "
              f"q3 {row['q3']:<12.6g} iqr/median {share:<8} bound {row['bound']}")
    if args.out is not None:
        args.out.write_text(json.dumps({"workload": args.workload, "seeds": args.seeds,
                                        "seconds": args.seconds, "trace": args.trace,
                                        "metrics": summary}, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

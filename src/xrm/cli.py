"""Command-line surface: train, eval, sweep, and bench subcommands.

All commands are deterministic given their inputs and ``--seed``; pass
``--no-timing`` to zero out wall-clock fields so repeated runs produce
byte-identical JSON/CSV artifacts.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import datasets, model as model_mod, solver

_EXIT_OK = 0
_EXIT_ERROR = 1
_EXIT_MISSING_FILE = 2


def _float_list(text: str) -> list[float]:
    return [float(token) for token in text.split(",") if token.strip()]


def _int_list(text: str) -> list[int]:
    return [int(token) for token in text.split(",") if token.strip()]


def _fmt(value: float) -> str:
    return f"{float(value):.6g}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="xrm",
                                     description="Train and evaluate diverse linear ensembles.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_split=True):
        p.add_argument("--data", required=True, help="sparse-text dataset path")
        p.add_argument("--p", dest="loss_power", type=float, default=2.0,
                       help="hinge exponent (default 2)")
        p.add_argument("--rho", type=float, default=1.1, help="penalty growth factor")
        p.add_argument("--outer-tol", type=float, default=0.05,
                       help="objective-change stopping threshold")
        p.add_argument("--max-iters", type=int, default=300, help="outer iteration cap")
        p.add_argument("--seed", type=int, default=0, help="base seed for splits")
        p.add_argument("--standardize", action="store_true",
                       help="z-score features (fit on train, applied to test); "
                            "eval --model applies the model's saved scaler")
        p.add_argument("--no-timing", action="store_true",
                       help="write wall times as 0 for reproducible artifacts")
        if with_split:
            p.add_argument("--train-size", type=int, default=150,
                           help="training instances per trial (default 150)")
            p.add_argument("--trials", type=int, default=10,
                           help="independent trials (default 10)")

    p_train = sub.add_parser("train", help="train one model on a full dataset file")
    add_common(p_train, with_split=False)
    p_train.add_argument("--lambda", dest="lam", type=float, default=2.0)
    p_train.add_argument("--components", type=int, default=10)
    p_train.add_argument("--model", default="model.json", help="model output path")
    p_train.add_argument("--out", default="report.json", help="training report output path")

    p_eval = sub.add_parser("eval", help="evaluate a model, or mean error over retrained trials")
    add_common(p_eval)
    p_eval.add_argument("--lambda", dest="lam", type=float, default=2.0)
    p_eval.add_argument("--components", type=int, default=10)
    p_eval.add_argument("--model", default=None,
                        help="model path; omit to retrain per trial on random splits")
    p_eval.add_argument("--out", default="eval.json", help="evaluation report output path")

    p_sweep = sub.add_parser("sweep", help="grid over lambda and component counts")
    add_common(p_sweep)
    p_sweep.add_argument("--lambda", dest="lam_grid", type=_float_list, default=[2.0],
                         help="comma-separated lambda values")
    p_sweep.add_argument("--components", dest="component_grid", type=_int_list, default=[10],
                         help="comma-separated component counts")
    p_sweep.add_argument("--out", default="sweep.csv", help="results CSV path")

    p_bench = sub.add_parser("bench", help="training-time scaling against sample count")
    add_common(p_bench, with_split=False)
    p_bench.add_argument("--lambda", dest="lam", type=float, default=2.0)
    p_bench.add_argument("--components", type=int, default=10)
    p_bench.add_argument("--sizes", type=_int_list, required=True,
                         help="comma-separated training sizes")
    p_bench.add_argument("--runs", type=int, default=10,
                         help="runs per size; totals are reported (default 10)")
    p_bench.add_argument("--out", default="bench.csv", help="results CSV path")

    return parser


def _make_config(args, lam: float | None = None, components: int | None = None) -> solver.SolverConfig:
    return solver.SolverConfig(
        lam=args.lam if lam is None else lam,
        components=args.components if components is None else components,
        loss_power=args.loss_power,
        rho=args.rho,
        outer_tol=args.outer_tol,
        outer_max_iters=args.max_iters,
    )


def _load(path: str) -> datasets.DataSet:
    if not Path(path).is_file():
        raise FileNotFoundError(path)
    return datasets.load_dataset(path)


def _run_trial(data, args, config, trial: int):
    spec = datasets.SplitSpec(train_size=args.train_size, seed=args.seed, trials=args.trials)
    train_set, test_set = datasets.split(data, spec, trial)
    if args.standardize:
        train_set, test_set = datasets.standardize(train_set, test_set)
    trained, report = solver.train(train_set, config)
    return {
        "trial": trial,
        "train_error": model_mod.test_error(trained, train_set),
        "test_error": model_mod.test_error(trained, test_set),
        "iterations": report.iterations,
        "wall_time": 0.0 if args.no_timing else report.wall_time,
    }


def cmd_train(args) -> int:
    data = _load(args.data)
    scaler = None
    if args.standardize:
        scaler = datasets.fit_scaler(data)
        data = datasets.standardize(data, scaler=scaler)
    config = _make_config(args)
    trained, report = solver.train(data, config)
    trained = dataclasses.replace(trained, scaler=scaler)
    if args.no_timing:
        report.wall_time = 0.0
    model_mod.save_model(trained, args.model)
    payload = {"config": config.to_dict(), "data": str(args.data)}
    payload.update(report.to_dict())
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"objective={report.objective_trace[-1]:.6g} iterations={report.iterations} "
          f"stop_reason={report.stop_reason} wall_time={report.wall_time:.6g}s")
    if report.stop_reason == "max_iters":
        split, slack = report.residual_trace[-1]
        print(f"warning: training stopped at the iteration cap ({config.outer_max_iters}) "
              f"before the objective settled; final residuals split={split:.3g} "
              f"slack={slack:.3g}", file=sys.stderr)
    return _EXIT_OK


def cmd_eval(args) -> int:
    data = _load(args.data)
    if args.model is not None:
        if not Path(args.model).is_file():
            raise FileNotFoundError(args.model)
        trained = model_mod.load_model(args.model)
        missing = trained.feature_count - data.feature_count
        if missing < 0:
            raise ValueError(
                f"model has {trained.feature_count} features but dataset has "
                f"{data.feature_count}"
            )
        if missing > 0:
            # Sparse text cannot show trailing features that are zero in every
            # instance, so a narrower file is padded with zero feature rows.
            padding = np.zeros((missing, data.instance_count))
            data = datasets.DataSet(X=np.vstack([data.X, padding]), y=data.y)
        if args.standardize and trained.scaler is None:
            raise ValueError(
                f"model {args.model} carries no feature scaler (format "
                f"{model_mod.MODEL_FORMAT_VERSION}); train it with --standardize to save "
                "the training transform"
            )
        if trained.scaler is not None:
            # The model's own training transform, never one fitted on the eval file.
            data = datasets.standardize(data, scaler=trained.scaler)
        error = 100.0 * model_mod.test_error(trained, data)
        payload = {"error_percent": error, "data": str(args.data), "model": str(args.model)}
        print(f"test error: {error:.2f}%")
    else:
        config = _make_config(args)
        results = [_run_trial(data, args, config, trial) for trial in range(args.trials)]
        errors = np.array([100.0 * r["test_error"] for r in results])
        mean = float(errors.mean())
        std = float(errors.std(ddof=1)) if errors.size > 1 else 0.0
        payload = {
            "mean_error_percent": mean,
            "std_error_percent": std,
            "trial_errors_percent": errors.tolist(),
            "config": config.to_dict(),
            "train_size": args.train_size,
            "trials": args.trials,
            "seed": args.seed,
            "standardize": bool(args.standardize),
            "data": str(args.data),
        }
        print(f"test error: {mean:.2f}% +/- {std:.2f}% over {args.trials} trials")
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return _EXIT_OK


def cmd_sweep(args) -> int:
    data = _load(args.data)
    if not args.lam_grid or not args.component_grid:
        raise ValueError("sweep grids must be nonempty")
    rows = []
    for lam in args.lam_grid:
        for components in args.component_grid:
            config = _make_config(args, lam=lam, components=components)
            for trial in range(args.trials):
                result = _run_trial(data, args, config, trial)
                rows.append([
                    _fmt(lam), components, trial,
                    _fmt(result["train_error"]), _fmt(result["test_error"]),
                    result["iterations"], _fmt(result["wall_time"]),
                ])
    with open(args.out, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["lambda", "components", "trial",
                         "train_error", "test_error", "iterations", "wall_time"])
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return _EXIT_OK


def cmd_bench(args) -> int:
    data = _load(args.data)
    if not args.sizes:
        raise ValueError("--sizes must be nonempty")
    N = data.instance_count
    config = _make_config(args)
    rows = []
    for size in args.sizes:
        if size > N:
            raise ValueError(f"requested size {size} exceeds the {N} available instances")
        total = 0.0
        for run in range(args.runs):
            if size == N:
                subsample = data
            else:
                spec = datasets.SplitSpec(train_size=size, seed=args.seed, trials=args.runs)
                subsample, _ = datasets.split(data, spec, run)
            _, report = solver.train(subsample, config)
            total += report.wall_time
        rows.append([size, _fmt(0.0 if args.no_timing else total)])
    with open(args.out, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["n_train", "total_time"])
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return _EXIT_OK


_COMMANDS = {"train": cmd_train, "eval": cmd_eval, "sweep": cmd_sweep, "bench": cmd_bench}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc}", file=sys.stderr)
        return _EXIT_MISSING_FILE
    except (ValueError, solver.DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

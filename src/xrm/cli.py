"""Command-line surface: train, eval, sweep, and bench subcommands.

Every command trains through ``_fit``, with the defaults of ``SolverConfig``.
``eval`` without ``--model``, ``sweep`` and ``bench`` draw each trial's split
(z-scored on its training side under ``--standardize``) through ``_draws``,
and say on stderr how many fits stopped at the iteration cap.

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
    defaults = solver.SolverConfig()
    parser = argparse.ArgumentParser(prog="xrm",
                                     description="Train and evaluate diverse linear ensembles.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_split=True, grid=False):
        p.add_argument("--data", required=True, help="sparse-text dataset path")
        if grid:
            p.add_argument("--lambda", dest="lam_grid", type=_float_list, default=[defaults.lam],
                           help="comma-separated lambda values")
            p.add_argument("--components", dest="component_grid", type=_int_list,
                           default=[defaults.components], help="comma-separated component counts")
        else:
            p.add_argument("--lambda", dest="lam", type=float, default=defaults.lam)
            p.add_argument("--components", type=int, default=defaults.components)
        p.add_argument("--p", dest="loss_power", type=float, default=defaults.loss_power,
                       help="hinge exponent (default %(default)g)")
        p.add_argument("--rho", type=float, default=defaults.rho, help="penalty growth factor")
        p.add_argument("--outer-tol", type=float, default=defaults.outer_tol,
                       help="objective-change stopping threshold")
        p.add_argument("--max-iters", type=int, default=defaults.outer_max_iters,
                       help="outer iteration cap")
        p.add_argument("--seed", type=int, default=0, help="base seed for splits")
        p.add_argument("--standardize", action="store_true",
                       help="z-score features (fit on train, applied to test); "
                            "eval --model applies the model's saved scaler")
        p.add_argument("--no-timing", action="store_true",
                       help="write wall and block times as 0 for reproducible artifacts")
        if with_split:
            p.add_argument("--train-size", type=int, default=150,
                           help="training instances per trial (default 150)")
            p.add_argument("--trials", type=int, default=10,
                           help="independent trials (default 10)")

    p_train = sub.add_parser("train", help="train one model on a full dataset file")
    add_common(p_train, with_split=False)
    p_train.add_argument("--model", default="model.json", help="model output path")
    p_train.add_argument("--out", default="report.json", help="training report output path")

    p_eval = sub.add_parser("eval", help="evaluate a model, or mean error over retrained trials")
    add_common(p_eval)
    p_eval.add_argument("--model", default=None,
                        help="model path; omit to retrain per trial on random splits")
    p_eval.add_argument("--out", default="eval.json", help="evaluation report output path")

    p_sweep = sub.add_parser("sweep", help="grid over lambda and component counts")
    add_common(p_sweep, grid=True)
    p_sweep.add_argument("--out", default="sweep.csv", help="results CSV path")

    p_bench = sub.add_parser("bench", help="training-time scaling against sample count")
    add_common(p_bench, with_split=False)
    p_bench.add_argument("--sizes", type=_int_list, required=True,
                         help="comma-separated training sizes")
    p_bench.add_argument("--runs", type=int, default=10,
                         help="runs per size; totals are reported (default 10)")
    p_bench.add_argument("--out", default="bench.csv", help="results CSV path")

    return parser


def _make_config(args, lam: float, components: int) -> solver.SolverConfig:
    return solver.SolverConfig(lam, components, loss_power=args.loss_power, rho=args.rho,
                               outer_tol=args.outer_tol, outer_max_iters=args.max_iters)


def _existing(path: str) -> str:
    """``path`` itself, once it names a file: a missing input exits 2."""
    if not Path(path).is_file():
        raise FileNotFoundError(path)
    return path


def _fit(train_set, config, args, reports: list):
    """Train once, zero the report's times under ``--no-timing``, and record
    the report in ``reports``."""
    trained, report = solver.train(train_set, config)
    if args.no_timing:
        report.wall_time = 0.0
        report.block_ms = dict.fromkeys(report.block_ms, 0.0)
    reports.append(report)
    return trained, report


def _draws(data, args, size: int, trials: int):
    """Yield each trial's (train, test) split of ``size`` training instances,
    z-scored on its training side under ``--standardize``."""
    spec = datasets.SplitSpec(train_size=size, seed=args.seed, trials=trials)
    for trial in range(trials):
        sets = datasets.split(data, spec, trial)
        yield datasets.standardize(*sets) if args.standardize else sets


def _split_trials(data, args, configs, reports: list):
    """Per config, one (train error, test error, report) per trial; every
    config of a trial trains on that trial's one split and standardization."""
    by_trial = []
    for train_set, test_set in _draws(data, args, args.train_size, args.trials):
        fits = [_fit(train_set, config, args, reports) for config in configs]
        by_trial.append([(model_mod.test_error(trained, train_set),
                          model_mod.test_error(trained, test_set), report)
                         for trained, report in fits])
    return list(zip(*by_trial))


def _warn_at_iteration_cap(reports, max_iters: int) -> None:
    """One stderr line when some of the retrained fits stopped at the cap."""
    capped = sum(report.stop_reason == "max_iters" for report in reports)
    if capped:
        print(f"warning: {capped} of {len(reports)} fits stopped at the iteration cap "
              f"({max_iters}) before the objective settled", file=sys.stderr)


def cmd_train(args) -> int:
    data = datasets.load_dataset(_existing(args.data))
    scaler = None
    if args.standardize:
        scaler = datasets.fit_scaler(data)
        data = datasets.standardize(data, scaler=scaler)
    config = _make_config(args, args.lam, args.components)
    trained, report = _fit(data, config, args, [])
    trained = dataclasses.replace(trained, scaler=scaler)
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
    data = datasets.load_dataset(_existing(args.data))
    if args.model is not None:
        trained = model_mod.load_model(_existing(args.model))
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
                f"model {args.model} carries no feature scaler; train it with --standardize "
                "to save the training transform"
            )
        if trained.scaler is not None:
            # The model's own training transform, never one fitted on the eval file.
            data = datasets.standardize(data, scaler=trained.scaler)
        error = 100.0 * model_mod.test_error(trained, data)
        payload = {"error_percent": error, "data": str(args.data), "model": str(args.model)}
        print(f"test error: {error:.2f}%")
    else:
        config = _make_config(args, args.lam, args.components)
        reports = []
        (fits,) = _split_trials(data, args, [config], reports)
        errors = np.array([100.0 * test_error for _, test_error, _ in fits])
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
        _warn_at_iteration_cap(reports, args.max_iters)
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return _EXIT_OK


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {path}")


def cmd_sweep(args) -> int:
    data = datasets.load_dataset(_existing(args.data))
    if not args.lam_grid or not args.component_grid:
        raise ValueError("sweep grids must be nonempty")
    grid = [_make_config(args, lam, components)
            for lam in args.lam_grid for components in args.component_grid]
    reports = []
    rows = [[_fmt(config.lam), config.components, trial, _fmt(train_error), _fmt(test_error),
             report.iterations, _fmt(report.wall_time)]
            for config, fits in zip(grid, _split_trials(data, args, grid, reports))
            for trial, (train_error, test_error, report) in enumerate(fits)]
    _write_csv(args.out, ["lambda", "components", "trial", "train_error", "test_error",
                          "iterations", "wall_time"], rows)
    _warn_at_iteration_cap(reports, args.max_iters)
    return _EXIT_OK


def cmd_bench(args) -> int:
    data = datasets.load_dataset(_existing(args.data))
    if not args.sizes:
        raise ValueError("--sizes must be nonempty")
    if args.runs < 1:
        raise ValueError("--runs must be positive")
    N = data.instance_count
    for size in args.sizes:
        if not 1 <= size <= N:
            raise ValueError(f"requested size {size} must lie in 1..{N} (the available instances)")
    config = _make_config(args, args.lam, args.components)
    reports, rows = [], []
    for size in args.sizes:
        if size == N:  # the whole file, z-scored on itself
            subsamples = [datasets.standardize(data) if args.standardize else data] * args.runs
        else:
            subsamples = (train_set for train_set, _ in _draws(data, args, size, args.runs))
        total = sum(_fit(sample, config, args, reports)[1].wall_time for sample in subsamples)
        rows.append([size, _fmt(total)])
    _write_csv(args.out, ["n_train", "total_time"], rows)
    _warn_at_iteration_cap(reports, args.max_iters)
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

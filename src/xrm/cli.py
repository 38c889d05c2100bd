"""Command-line surface: train, eval, sweep, and bench subcommands.

Each ``cmd_*`` only computes, and returns ``({path: text}, stdout lines)``.
``main`` alone writes the outputs, all or none, through ``_publish``, and
prints the lines after that; before any fit it refuses an output that names
the same file as an input or another output.

Every command is deterministic given its inputs and ``--seed``; under
``--no-timing`` it writes every time as 0, so reruns write identical bytes.
Each command accepts only the flags it reads.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import itertools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import datasets, model as model_mod, solver

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

    def add_common(p, grid=False):
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
        p.add_argument("--standardize", action="store_true",
                       help="z-score features, fitted on the training side")
        p.add_argument("--no-timing", action="store_true",
                       help="write wall and block times as 0 for reproducible artifacts")

    p_train = sub.add_parser("train", help="train one model on a full dataset file")
    add_common(p_train)
    p_train.add_argument("--model", default="model.json", help="model output path")
    p_train.add_argument("--out", default="report.json", help="training report output path")

    p_eval = sub.add_parser("eval", help="score a saved model on a dataset file")
    p_eval.add_argument("--data", required=True, help="sparse-text dataset path")
    p_eval.add_argument("--model", required=True, help="saved model path")
    p_eval.add_argument("--out", default="eval.json", help="evaluation report output path")

    p_sweep = sub.add_parser("sweep", help="grid over lambda and component counts")
    add_common(p_sweep, grid=True)
    p_sweep.add_argument("--train-size", type=int, default=150,
                         help="training instances per trial (default 150)")
    p_sweep.add_argument("--trials", type=int, default=10, help="independent trials (default 10)")
    p_sweep.add_argument("--out", default="sweep.csv", help="results CSV path")

    p_bench = sub.add_parser("bench", help="training-time scaling against sample count")
    add_common(p_bench)
    p_bench.add_argument("--sizes", type=_int_list, required=True,
                         help="comma-separated training sizes")
    p_bench.add_argument("--runs", type=int, default=10,
                         help="runs per size; totals are reported (default 10)")
    p_bench.add_argument("--out", default="bench.csv", help="results CSV path")

    for p in (p_sweep, p_bench):
        p.add_argument("--seed", type=int, default=0, help="base seed for splits")
    return parser


def _make_config(args, lam: float, components: int) -> solver.SolverConfig:
    return solver.SolverConfig(lam, components, loss_power=args.loss_power, rho=args.rho,
                               outer_tol=args.outer_tol, outer_max_iters=args.max_iters)


class _MissingInput(FileNotFoundError):
    """An input path that names no file: exit 2, where any other OSError exits 1."""


def _existing(path: str) -> str:
    """``path`` itself, once it names a file: a missing input exits 2."""
    if not Path(path).is_file():
        raise _MissingInput(path)
    return path


def _refuse_aliases(args) -> None:
    """Refuse two path flags that name one file, such as an output over the data."""
    flags = [flag for flag in ("data", "model", "out") if hasattr(args, flag)]
    for first, second in itertools.combinations(flags, 2):
        path = getattr(args, second)
        if os.path.realpath(path) == os.path.realpath(getattr(args, first)):
            raise ValueError(f"--{second} and --{first} name the same file {path!r}")


def _fit(train_set, config, args):
    """Train once and zero the report's times under ``--no-timing``."""
    trained, report = solver.train(train_set, config)
    if args.no_timing:
        report.wall_time = 0.0
        report.block_ms = dict.fromkeys(report.block_ms, 0.0)
    return trained, report


def _draws(data, args, size: int, trials: int):
    """Yield each trial's (train, test) split of ``size`` training instances,
    z-scored on its training side under ``--standardize``."""
    spec = datasets.SplitSpec(train_size=size, seed=args.seed, trials=trials)
    for trial in range(trials):
        sets = datasets.split(data, spec, trial)
        yield datasets.standardize(*sets) if args.standardize else sets


def _warn_at_iteration_cap(reports, max_iters: int) -> None:
    """One stderr line when some of the retrained fits stopped at the cap."""
    capped = sum(report.stop_reason == "max_iters" for report in reports)
    if capped:
        print(f"warning: {capped} of {len(reports)} fits stopped at the iteration cap "
              f"({max_iters}) before the objective settled", file=sys.stderr)


def _table(path: str, header, rows, lines=()):
    text = io.StringIO()
    csv.writer(text).writerows([header, *rows])
    return {path: text.getvalue()}, [*lines, f"wrote {len(rows)} rows to {path}"]


def cmd_train(args):
    data = datasets.load_dataset(_existing(args.data))
    scaler = None
    if args.standardize:
        scaler = datasets.fit_scaler(data)
        data = datasets.standardize(data, scaler=scaler)
    config = _make_config(args, args.lam, args.components)
    trained, report = _fit(data, config, args)
    if report.stop_reason == "max_iters":
        split, slack = report.residual_trace[-1]
        print(f"warning: training stopped at the iteration cap ({config.outer_max_iters}) "
              f"before the objective settled; final residuals split={split:.3g} "
              f"slack={slack:.3g}", file=sys.stderr)
    payload = {"config": config.to_dict(), "data": str(args.data), **report.to_dict()}
    outputs = {args.model: model_mod.model_text(dataclasses.replace(trained, scaler=scaler)),
               args.out: json.dumps(payload, indent=2) + "\n"}
    return outputs, [f"objective={report.objective_trace[-1]:.6g} "
                     f"iterations={report.iterations} stop_reason={report.stop_reason} "
                     f"wall_time={report.wall_time:.6g}s"]


def cmd_eval(args):
    data = datasets.load_dataset(_existing(args.data))
    trained = model_mod.load_model(_existing(args.model))
    missing = trained.feature_count - data.feature_count
    if missing < 0:
        raise ValueError(f"model has {trained.feature_count} features but dataset has "
                         f"{data.feature_count}")
    if missing > 0:
        # Sparse text cannot show trailing features that are zero in every
        # instance, so a narrower file is padded with zero features.
        data = datasets._pad_features(data, trained.feature_count)
    if trained.scaler is not None:
        # The model's own training transform, never one fitted on the eval file.
        data = datasets.standardize(data, scaler=trained.scaler)
    error = 100.0 * model_mod.test_error(trained, data)
    payload = {"error_percent": error, "data": str(args.data), "model": str(args.model)}
    return {args.out: json.dumps(payload, indent=2) + "\n"}, [f"test error: {error:.2f}%"]


def cmd_sweep(args):
    data = datasets.load_dataset(_existing(args.data))
    if not args.lam_grid or not args.component_grid:
        raise ValueError("sweep grids must be nonempty")
    grid = [_make_config(args, lam, components)
            for lam in args.lam_grid for components in args.component_grid]
    by_trial = []  # every config of a trial trains on that trial's one split and standardization
    for train_set, test_set in _draws(data, args, args.train_size, args.trials):
        fitted = [_fit(train_set, config, args) for config in grid]
        by_trial.append([(model_mod.test_error(trained, train_set),
                          model_mod.test_error(trained, test_set), report)
                         for trained, report in fitted])
    rows, summaries = [], []
    for config, fits in zip(grid, zip(*by_trial)):
        rows += [[_fmt(config.lam), config.components, trial, _fmt(train_error),
                  _fmt(test_error), report.iterations, _fmt(report.wall_time)]
                 for trial, (train_error, test_error, report) in enumerate(fits)]
        errors = np.array([100.0 * test_error for _, test_error, _ in fits])
        std = float(errors.std(ddof=1)) if errors.size > 1 else 0.0
        summaries.append(f"lambda={_fmt(config.lam)} components={config.components} test "
                         f"error: {errors.mean():.2f}% +/- {std:.2f}% over {args.trials} trials")
    _warn_at_iteration_cap([report for fits in by_trial for _, _, report in fits], args.max_iters)
    return _table(args.out, ["lambda", "components", "trial", "train_error", "test_error",
                             "iterations", "wall_time"], rows, summaries)


def cmd_bench(args):
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
        fitted = [_fit(sample, config, args)[1] for sample in subsamples]
        rows.append([size, _fmt(sum(report.wall_time for report in fitted))])
        reports += fitted
    _warn_at_iteration_cap(reports, args.max_iters)
    return _table(args.out, ["n_train", "total_time"], rows)


_COMMANDS = {"train": cmd_train, "eval": cmd_eval, "sweep": cmd_sweep, "bench": cmd_bench}


def _publish(outputs: dict[str, str]) -> None:
    """Write each output to a new file beside it and rename all into place; a
    failure undoes the renames and raises an OSError naming the output."""
    token = os.urandom(8).hex()
    # A device or a pipe, such as /dev/null, has no file to swap: it is written in place, last.
    streams = [path for path in outputs if os.path.exists(path) and not os.path.isfile(path)]
    files = {path: os.path.realpath(path) for path in outputs if path not in streams}
    made, replaced = [], []  # temporary files; files renamed into place, through any link
    try:
        for path, real in files.items():
            made.append(f"{real}.{token}.tmp")
            Path(made[-1]).write_text(outputs[path], encoding="utf-8", newline="")
        for path, real in files.items():
            if os.path.isfile(real):  # kept as a hard link until all are renamed
                made.append(f"{real}.{token}.old")
                os.link(real, made[-1])
            os.replace(f"{real}.{token}.tmp", real)
            replaced.append(real)
        for path in streams:
            Path(path).write_text(outputs[path], encoding="utf-8", newline="")
    except OSError as exc:
        for done in reversed(replaced):
            if f"{done}.{token}.old" in made:
                os.replace(f"{done}.{token}.old", done)
            else:
                os.remove(done)
        raise OSError(exc.errno, exc.strerror or str(exc), path) from None
    finally:
        for name in made:
            if os.path.lexists(name):
                os.remove(name)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _refuse_aliases(args)
        outputs, lines = _COMMANDS[args.command](args)
        _publish(outputs)
    except _MissingInput as exc:
        print(f"error: no such file: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, solver.DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())

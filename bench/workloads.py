"""The benchmark's four workloads and their seeded input generators.

Each workload's ``setup(seed, workdir)`` generates its inputs from the seed,
writes any files it needs with ``xrm.save_dataset``, warms the code paths up
with one tiny fit, and returns a :class:`Prepared` whose ``fit(i)`` performs
fit number ``i``: the workload's unit of user work, including evaluation.
Fits cycle through ``pass_size`` distinct inputs, so fit ``i`` and fit
``i + pass_size`` do the same work.

Every library call goes through a module attribute (``solver.train``, not a
name imported from it), so the tracer's recorders see the benchmark's calls.
Why each workload exists is written in ``README.md`` and ``BENCHMARK.json``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from xrm import datasets, model, solver


@dataclass
class Outcome:
    """What one fit produced; the harness checks it outside the timed region."""

    model: object
    report: object
    error_pct: float
    bound_holds: bool
    bytes_loaded: int = 0
    roundtrip_ok: bool = True


@dataclass
class Prepared:
    fit: Callable[[int], Outcome]
    pass_size: int


@dataclass(frozen=True)
class Workload:
    name: str
    error_ceiling_pct: float  # per-fit held-out error above this fails the fit
    setup: Callable[[int, Path], Prepared]


# ---------------------------------------------------------------- generators

def blobs(rng, n: int, m: int, separation: float = 2.0, noise: float = 1.0) -> datasets.DataSet:
    """Two Gaussian clouds displaced by ``separation`` along a random unit
    direction, labels +/-1 with equal probability (both always present)."""
    direction = rng.normal(size=m)
    direction /= np.linalg.norm(direction)
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    y[:2] = (1.0, -1.0)
    X = rng.normal(scale=noise, size=(m, n)) + np.outer(direction, y) * (separation / 2.0)
    return datasets.DataSet(X=X, y=y)


def text_like(rng, n: int, m: int = 2000, nnz: int = 100, informative: int = 40,
              signal: float = 3.5) -> datasets.DataSet:
    """Sparse bag-of-words-like data: each instance holds about ``nnz`` of
    ``m`` features drawn by Zipf-like popularity, with log term counts as
    values.  On average ``signal`` of its features come from a pool of
    ``informative`` features that belongs to its class."""
    popularity = rng.permutation(1.0 / (np.arange(m) + 10.0) ** 0.8)
    popularity /= popularity.sum()
    pools = rng.choice(m, size=2 * informative, replace=False).reshape(2, informative)
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    y[:2] = (1.0, -1.0)
    X = np.zeros((m, n))
    for i in range(n):
        features = rng.choice(m, size=nnz, replace=False, p=popularity)
        k = min(int(rng.poisson(signal)), nnz)
        features[:k] = rng.choice(pools[0 if y[i] > 0 else 1], size=k, replace=False)
        features = np.unique(features)
        X[features, i] = np.log1p(rng.geometric(0.5, size=features.size))
    return datasets.DataSet(X=X, y=y)


def _holdout(data: datasets.DataSet, n_train: int):
    return (datasets.DataSet(X=data.X[:, :n_train], y=data.y[:n_train]),
            datasets.DataSet(X=data.X[:, n_train:], y=data.y[n_train:]))


# ----------------------------------------------------------------- fit steps

def _train_and_evaluate(train_set, test_set, config, bytes_loaded: int = 0) -> Outcome:
    trained, report = solver.train(train_set, config)
    error = model.test_error(trained, test_set)
    holds, _, _ = model.verify_ensemble_bound(trained, test_set)
    return Outcome(trained, report, 100.0 * error, bool(holds), bytes_loaded)


def _warm_up(components: int, loss_power: float) -> None:
    """One tiny fit, so lazy imports and first-call costs land in setup."""
    data = blobs(np.random.default_rng(0), 40, 5)
    _train_and_evaluate(data, data, solver.SolverConfig(components=components,
                                                        loss_power=loss_power))


# ------------------------------------------------------------------ protocol

PROTOCOL_LAMBDAS = (0.05, 0.5, 2.0, 4.0)
PROTOCOL_COMPONENTS = (5, 10, 30)
PROTOCOL_TRIALS = 10
PROTOCOL_TRAIN_SIZE = 150
# Iteration counts and objectives of 351-instance problems vary by about 10%
# from one draw to the next; a pass over sixteen files keeps a run's means steady.
PROTOCOL_FILES = 16


def _protocol_path(workdir: Path, k: int) -> Path:
    return workdir / f"protocol{k}.txt"


def setup_protocol(seed: int, workdir: Path) -> Prepared:
    sizes = []
    for k in range(PROTOCOL_FILES):
        path = _protocol_path(workdir, k)
        datasets.save_dataset(blobs(np.random.default_rng([seed, k]), 351, 34), path)
        sizes.append(os.path.getsize(path))
    grid = [(lam, components, trial) for lam in PROTOCOL_LAMBDAS
            for components in PROTOCOL_COMPONENTS for trial in range(PROTOCOL_TRIALS)]
    spec = datasets.SplitSpec(train_size=PROTOCOL_TRAIN_SIZE, seed=seed, trials=PROTOCOL_TRIALS)
    loaded = {}

    def fit(i: int) -> Outcome:
        k, (lam, components, trial) = (i // len(grid)) % PROTOCOL_FILES, grid[i % len(grid)]
        bytes_loaded = 0
        if i % len(grid) == 0:  # each file is read once per grid, as `xrm sweep` does
            loaded["data"] = datasets.load_dataset(_protocol_path(workdir, k))
            bytes_loaded = sizes[k]
        train_set, test_set = datasets.split(loaded["data"], spec, trial)
        train_set, test_set = datasets.standardize(train_set, test_set)
        config = solver.SolverConfig(lam=lam, components=components, loss_power=2.0)
        return _train_and_evaluate(train_set, test_set, config, bytes_loaded)

    _warm_up(components=30, loss_power=2.0)
    return Prepared(fit=fit, pass_size=len(grid) * PROTOCOL_FILES)


def sweep_argv(seed: int, workdir: Path) -> list[str]:
    """The `xrm sweep` invocation that runs the grid on the first protocol file."""
    return ["sweep", "--data", str(_protocol_path(workdir, 0)),
            "--lambda", ",".join(str(v) for v in PROTOCOL_LAMBDAS),
            "--components", ",".join(str(v) for v in PROTOCOL_COMPONENTS),
            "--trials", str(PROTOCOL_TRIALS), "--train-size", str(PROTOCOL_TRAIN_SIZE),
            "--seed", str(seed), "--standardize", "--no-timing",
            "--out", str(workdir / "sweep.csv")]


# ---------------------------------------------------------- tall, general_p

def _in_memory(seed: int, copies: int, n_train: int, n_test: int, m: int,
               config: solver.SolverConfig) -> Prepared:
    splits = [_holdout(blobs(np.random.default_rng([seed, k]), n_train + n_test, m), n_train)
              for k in range(copies)]

    def fit(i: int) -> Outcome:
        train_set, test_set = splits[i % copies]
        return _train_and_evaluate(train_set, test_set, config)

    _warm_up(config.components, config.loss_power)
    return Prepared(fit=fit, pass_size=copies)


def setup_tall(seed: int, workdir: Path) -> Prepared:
    return _in_memory(seed, copies=3, n_train=20000, n_test=5000, m=50,
                      config=solver.SolverConfig(lam=2.0, components=30, loss_power=2.0))


def setup_general_p(seed: int, workdir: Path) -> Prepared:
    return _in_memory(seed, copies=8, n_train=2000, n_test=5000, m=20,
                      config=solver.SolverConfig(lam=2.0, components=10, loss_power=1.5))


# ---------------------------------------------------------------------- wide

WIDE_COPIES = 6


def setup_wide(seed: int, workdir: Path) -> Prepared:
    files = []
    for k in range(WIDE_COPIES):
        train_set, test_set = _holdout(text_like(np.random.default_rng([seed, k]), 800), 400)
        pair = (workdir / f"wide{k}.train.txt", workdir / f"wide{k}.test.txt")
        datasets.save_dataset(train_set, pair[0])
        datasets.save_dataset(test_set, pair[1])
        files.append((pair, os.path.getsize(pair[0]) + os.path.getsize(pair[1])))
    model_path = workdir / "wide.model.json"
    config = solver.SolverConfig(lam=2.0, components=10, loss_power=2.0)

    def fit(i: int) -> Outcome:
        (train_path, test_path), size = files[i % WIDE_COPIES]
        train_set = datasets.load_dataset(train_path)
        test_set = datasets.load_dataset(test_path)
        trained, report = solver.train(train_set, config)
        model.save_model(trained, model_path)
        restored = model.load_model(model_path)
        error = model.test_error(restored, test_set)
        holds, _, _ = model.verify_ensemble_bound(restored, test_set)
        roundtrip = bool(np.array_equal(restored.W, trained.W) and np.array_equal(restored.b, trained.b))
        return Outcome(restored, report, 100.0 * error, bool(holds), size, roundtrip)

    _warm_up(config.components, config.loss_power)
    return Prepared(fit=fit, pass_size=WIDE_COPIES)


WORKLOADS = {w.name: w for w in (
    Workload("protocol", error_ceiling_pct=45.0, setup=setup_protocol),
    Workload("tall", error_ceiling_pct=25.0, setup=setup_tall),
    Workload("general_p", error_ceiling_pct=25.0, setup=setup_general_p),
    Workload("wide", error_ceiling_pct=40.0, setup=setup_wide),
)}

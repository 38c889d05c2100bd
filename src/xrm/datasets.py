"""Sparse-text classification datasets: parsing, label mapping, reproducible splits.

The on-disk format is the usual whitespace-separated sparse text, one instance
per line::

    <label> <index>:<value> <index>:<value> ...

with 1-based, strictly increasing feature indices.  Internally instances are
stored as columns of a dense matrix (benchmark datasets here are small) and
labels live in {-1, +1}.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

_SPLIT_RETRIES = 64


class SparseFormatError(ValueError):
    """Malformed sparse-text input.  ``line_number`` locates the offending line
    (0 means the input as a whole, e.g. an empty file)."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}" if line_number else message)
        self.line_number = line_number


@dataclass(frozen=True)
class DataSet:
    """A binary classification dataset.

    Attributes
    ----------
    X : ndarray of shape (feature_count, instance_count)
        Dense feature matrix; instances are columns.
    y : ndarray of shape (instance_count,)
        Labels in {-1.0, +1.0}.
    """

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.array(self.X, dtype=float)
        y = np.array(self.y, dtype=float)
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise ValueError(f"feature matrix must be 2-d and non-empty, got shape {X.shape}")
        if y.shape != (X.shape[1],):
            raise ValueError(f"label vector of length {y.shape} does not match {X.shape[1]} instances")
        if not np.all(np.isfinite(X)):
            raise ValueError("feature matrix contains NaN or Inf entries")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        # Immutable after construction; safe to share across trial workers.
        self.X.setflags(write=False)
        self.y.setflags(write=False)

    @property
    def feature_count(self) -> int:
        return self.X.shape[0]

    @property
    def instance_count(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class SplitSpec:
    """How to draw train/test splits: ``trials`` deterministic permutations
    keyed on (seed, trial index), each taking ``train_size`` instances."""

    train_size: int
    seed: int = 0
    trials: int = 10

    def __post_init__(self):
        if self.train_size < 1:
            raise ValueError("train_size must be positive")
        if self.trials < 1:
            raise ValueError("trials must be positive")


def map_labels(raw_labels) -> np.ndarray:
    """Map a two-valued raw label vector onto {-1, +1}.

    The larger raw value becomes +1 and the smaller -1.  Input already valued
    in {-1, +1} passes through unchanged (this covers files where only one of
    the two canonical labels happens to occur).  Non-finite labels raise.
    """
    raw = np.asarray(raw_labels, dtype=float)
    if not np.all(np.isfinite(raw)):
        raise ValueError("labels must be finite")
    values = np.unique(raw)
    if np.all(np.isin(values, (-1.0, 1.0))):
        return raw.copy()
    if values.size != 2:
        raise ValueError(
            f"expected exactly two distinct label values, got {values.size}: {values.tolist()}"
        )
    return np.where(raw == values[1], 1.0, -1.0)


def parse_sparse_text(source) -> DataSet:
    """Parse sparse `label index:value` text into a :class:`DataSet`.

    ``source`` may be a string, a text stream, or any iterable of lines.
    The feature count is the largest index seen anywhere; absent indices are
    zero.  Labels go through :func:`map_labels`.

    Raises
    ------
    SparseFormatError
        On a non-numeric or non-finite token, a duplicate or non-increasing
        index, an index below 1, or input with no instances at all.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    labels: list[float] = []
    rows: list[list[tuple[int, float]]] = []
    max_index = 0
    for line_number, raw_line in enumerate(source, start=1):
        line = raw_line.strip()
        if not line:
            continue
        tokens = line.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise SparseFormatError(f"label {tokens[0]!r} is not numeric", line_number) from None
        if not math.isfinite(label):
            raise SparseFormatError(f"label {tokens[0]!r} is not finite", line_number)
        entries: list[tuple[int, float]] = []
        previous = 0
        for token in tokens[1:]:
            index_text, sep, value_text = token.partition(":")
            if not sep:
                raise SparseFormatError(f"entry {token!r} lacks an index:value separator", line_number)
            try:
                index = int(index_text)
                value = float(value_text)
            except ValueError:
                raise SparseFormatError(f"entry {token!r} is not numeric", line_number) from None
            if not math.isfinite(value):
                raise SparseFormatError(f"entry {token!r} is not finite", line_number)
            if index < 1:
                raise SparseFormatError(f"index {index} is not 1-based", line_number)
            if index <= previous:
                raise SparseFormatError(
                    f"index {index} does not increase (previous index {previous})", line_number
                )
            previous = index
            entries.append((index, value))
        max_index = max(max_index, previous)
        labels.append(label)
        rows.append(entries)
    if not labels:
        raise SparseFormatError("input contains no instances", 0)
    if max_index == 0:
        raise SparseFormatError("input contains no feature entries", 0)
    X = np.zeros((max_index, len(labels)))
    for column, entries in enumerate(rows):
        for index, value in entries:
            X[index - 1, column] = value
    return DataSet(X=X, y=map_labels(labels))


def format_sparse_text(data: DataSet) -> str:
    """Serialize a dataset back to sparse text.

    Only nonzero entries are written, except that the highest feature index is
    pinned with an explicit ``M:0.0`` entry on the first line when it would
    otherwise vanish, so parse/format round-trips preserve the matrix shape.
    """
    M = data.feature_count
    highest_written = 0
    lines = []
    for i in range(data.instance_count):
        tokens = [f"{int(data.y[i]):+d}"]
        column = data.X[:, i]
        for j in np.flatnonzero(column):
            tokens.append(f"{j + 1}:{float(column[j])!r}")
            highest_written = max(highest_written, j + 1)
        lines.append(tokens)
    if highest_written < M:
        lines[0].append(f"{M}:0.0")
    return "\n".join(" ".join(tokens) for tokens in lines) + "\n"


def load_dataset(path) -> DataSet:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_sparse_text(handle)


def save_dataset(data: DataSet, path) -> None:
    Path(path).write_text(format_sparse_text(data), encoding="utf-8")


def split(data: DataSet, spec: SplitSpec, trial_index: int) -> tuple[DataSet, DataSet]:
    """Deterministically split ``data`` for one trial.

    The permutation is a pure function of (spec.seed, trial_index).  The first
    ``train_size`` permuted instances form the training set; if they happen to
    contain a single class the permutation is redrawn from the same stream, up
    to a bounded number of retries.
    """
    if not 0 <= trial_index < spec.trials:
        raise ValueError(f"trial_index {trial_index} outside [0, {spec.trials})")
    N = data.instance_count
    if spec.train_size >= N:
        raise ValueError(f"train_size {spec.train_size} must be smaller than {N} instances")
    rng = np.random.default_rng([spec.seed, trial_index])
    for _ in range(_SPLIT_RETRIES):
        order = rng.permutation(N)
        train_idx = order[: spec.train_size]
        if np.unique(data.y[train_idx]).size == 2:
            test_idx = order[spec.train_size :]
            train = DataSet(X=data.X[:, train_idx], y=data.y[train_idx])
            test = DataSet(X=data.X[:, test_idx], y=data.y[test_idx])
            return train, test
    raise ValueError(
        f"could not draw a training set of size {spec.train_size} containing both classes "
        f"after {_SPLIT_RETRIES} attempts"
    )


@dataclass(frozen=True)
class Scaler:
    """A per-feature z-score x -> (x - mean) / scale, as fitted by
    :func:`fit_scaler`; ``mean`` and ``scale`` hold one entry per feature."""

    mean: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float)
        scale = np.array(self.scale, dtype=float)
        if mean.ndim != 1 or scale.shape != mean.shape:
            raise ValueError(f"scaler mean {mean.shape} and scale {scale.shape} must be "
                             "vectors of one length")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(scale)) and np.all(scale > 0)):
            raise ValueError("scaler mean must be finite and scale finite and positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "scale", scale)
        self.mean.setflags(write=False)
        self.scale.setflags(write=False)


def fit_scaler(train: DataSet) -> Scaler:
    """Per-feature mean and standard deviation of ``train``; constant
    features get scale 1, so they are centered but not scaled."""
    std = train.X.std(axis=1)
    return Scaler(mean=train.X.mean(axis=1), scale=np.where(std == 0.0, 1.0, std))


def standardize(train: DataSet, test: DataSet | None = None, *, scaler: Scaler | None = None):
    """Per-feature z-score fitted on the training set and applied to both sets.

    A given ``scaler`` (for example one saved with a model) is applied instead
    of fitting one on ``train``.  Returns the transformed training set, or a
    (train, test) pair when ``test`` is given.
    """
    if scaler is None:
        scaler = fit_scaler(train)
    if scaler.mean.size != train.feature_count:
        raise ValueError(f"scaler has {scaler.mean.size} features but dataset has "
                         f"{train.feature_count}")
    mean, std = scaler.mean[:, None], scaler.scale[:, None]
    scaled_train = DataSet(X=(train.X - mean) / std, y=train.y)
    if test is None:
        return scaled_train
    scaled_test = DataSet(X=(test.X - mean) / std, y=test.y)
    return scaled_train, scaled_test

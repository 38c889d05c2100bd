"""Sparse-text classification datasets: parsing, label mapping, reproducible splits.

The on-disk format is the usual whitespace-separated sparse text, one instance
per line::

    <label> <index>:<value> <index>:<value> ...

Labels are finite numbers of two values; indices are integers of at least 1
that strictly increase along a line; values are finite floats.  Tokens are
read exactly as ``int()`` and ``float()`` read them.  Blank lines are skipped,
and lines are counted at ``\\n`` (a file read in text mode also ends lines at
``\\r\\n`` and ``\\r``); :func:`load_dataset` ignores a leading UTF-8
byte-order mark.  A parse splits each line into tokens and then converts and
checks all tokens in whole-input passes; it reports the first defect in line
and token order.  :func:`format_sparse_text` writes nonzero entries as
shortest round-trip floats and pins the feature count with ``M:0.0`` when the
last feature is all zero.

Internally instances are stored as columns of a dense matrix (benchmark
datasets here are small) and labels live in {-1, +1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

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


def _convert_prefix(kind, tokens) -> list:
    """Apply ``kind`` (``int`` or ``float``) to ``tokens`` in one pass that
    stops at the first token it rejects, so the length of the result is the
    position of that token (``len(tokens)`` when all of them convert)."""
    converted = []
    try:
        converted.extend(map(kind, tokens))  # keeps what was converted before the error
    except ValueError:
        pass
    return converted


def _first(mask: np.ndarray) -> int:
    """Position of the first True in ``mask``, or its length when none is."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else mask.size


def _token(joined: str, position: int) -> str:
    """The token at ``position`` of tokens joined by single spaces."""
    return joined.split(" ", position + 1)[position]


def _label_defect(tokens: list, labels: list):
    """(instance, 0, message) for the first label that is not a finite number, or None."""
    not_finite = _first(~np.isfinite(np.array(labels, dtype=float)))
    if not_finite < len(labels):
        return not_finite, 0, f"label {tokens[not_finite]!r} is not finite"
    if len(labels) < len(tokens):
        return len(labels), 0, f"label {tokens[len(labels)]!r} is not numeric"
    return None


def _entry_arrays(joined: str, instance: np.ndarray):
    """Feature indices and values of the ``index:value`` tokens in ``joined``,
    separated by single spaces, and (instance, 1, message) for the first
    defective token or None; ``instance`` names the instance of each token.

    The tokens are checked, split at every colon and converted by kind in
    whole-input passes.  The checks run on the tokens before the first one
    that cannot be split or converted, which is itself the defect when they
    find none earlier.
    """
    count = len(instance)
    if not count:
        return np.zeros(0, dtype=np.int64), np.zeros(0), None
    # Tokens hold no spaces, so the colons and spaces of ``joined`` alternate
    # ": : ... :" exactly when every token holds one colon.  Where they first
    # do not, an even position is a token without a colon and an odd one a
    # token with a second colon.
    code = np.frombuffer(joined.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    separators = code[(code == ord(":")) | (code == ord(" "))]
    span = min(separators.size, 2 * count - 1)
    wrong = np.empty(span, dtype=bool)
    wrong[0::2] = separators[0:span:2] != ord(":")
    wrong[1::2] = separators[1:span:2] != ord(" ")
    mismatch = _first(wrong)
    if mismatch == span and separators.size == 2 * count - 1:
        split_count, parts = count, joined.replace(" ", ":").split(":")
    else:
        split_count = mismatch // 2
        parts = ":".join(joined.split(" ", split_count)[:split_count]).split(":")
    index_texts, value_texts = parts[0::2], parts[1::2]
    del parts  # the texts are most of a parse's memory: free each kind once read
    index = _convert_prefix(int, index_texts)
    del index_texts
    values = _convert_prefix(float, value_texts)
    del value_texts
    clean = min(len(index), len(values), split_count)
    del index[clean:], values[clean:]
    try:
        index = np.array(index, dtype=np.int64)
    except OverflowError:  # such an index is read; allocating the matrix rejects it
        index = np.array(index, dtype=object)
    values = np.array(values, dtype=float)

    not_finite = _first(~np.isfinite(values))
    below = _first(index < 1)
    owner = instance[:clean]
    rises = (owner[1:] != owner[:-1]) | (index[1:] > index[:-1])
    no_rise = 1 + _first(~rises)
    position = min(not_finite, below, no_rise)
    if position < clean:
        if position == not_finite:
            message = f"entry {_token(joined, position)!r} is not finite"
        elif position == below:
            message = f"index {index[position]} is not 1-based"
        else:
            message = (f"index {index[position]} does not increase "
                       f"(previous index {index[position - 1]})")
    elif clean < count:
        position = clean
        if clean == split_count and mismatch % 2 == 0:
            message = f"entry {_token(joined, position)!r} lacks an index:value separator"
        else:
            message = f"entry {_token(joined, position)!r} is not numeric"
    else:
        return index, values, None
    return index, values, (int(instance[position]), 1, message)


def parse_sparse_text(source) -> DataSet:
    """Parse sparse `label index:value` text into a :class:`DataSet`.

    ``source`` may be a string, a text stream, or any iterable of lines; a
    string is split into lines at ``\\n`` only, as iterating a
    :class:`io.StringIO` would split it.  The feature count is the largest
    index seen anywhere; absent indices are zero.  Labels go through
    :func:`map_labels`.

    Raises
    ------
    SparseFormatError
        On a non-numeric or non-finite token, a duplicate or non-increasing
        index, an index below 1, or input with no instances at all.  The first
        defect in line and token order is reported, with its line number.
    """
    lines = source.split("\n") if isinstance(source, str) else source
    label_tokens, entry_texts, line_numbers, counts = [], [], [], []
    for line_number, line in enumerate(lines, start=1):
        tokens = line.split()
        if tokens:
            label_tokens.append(tokens[0])
            entry_texts.append(" ".join(tokens[1:]))  # one space between tokens
            line_numbers.append(line_number)
            counts.append(len(tokens) - 1)
    if not label_tokens:
        raise SparseFormatError("input contains no instances", 0)
    instance = np.repeat(np.arange(len(counts)), counts)
    labels = _convert_prefix(float, label_tokens)
    index, values, entry_defect = _entry_arrays(" ".join(filter(None, entry_texts)), instance)
    defect = min(filter(None, (_label_defect(label_tokens, labels), entry_defect)), default=None)
    if defect is not None:
        row, _, message = defect
        raise SparseFormatError(message, line_numbers[row])
    if not index.size:
        raise SparseFormatError("input contains no feature entries", 0)
    X = np.zeros((index.max(), len(counts)))
    X[index - 1, instance] = values
    return DataSet(X=X, y=map_labels(labels))


def format_sparse_text(data: DataSet) -> str:
    """Serialize a dataset back to sparse text.

    Only nonzero entries are written, each value as the shortest text that
    reads back to the same float, and labels as ``+1``/``-1``.  The highest
    feature index is pinned with an explicit ``M:0.0`` entry on the first
    line when it would otherwise vanish, so parse/format round-trips preserve
    the matrix shape.
    """
    M = data.feature_count
    instance, feature = np.nonzero(data.X.T)  # instance-major, as the lines run
    entries = np.array(list(map(" {}:{!r}".format, (feature + 1).tolist(),
                                data.X[feature, instance].tolist())), dtype=object)
    starts = np.searchsorted(instance, np.arange(data.instance_count))
    # Each label opens its line; the newline before the first one is dropped.
    tokens = np.insert(entries, starts, np.where(data.y > 0, "\n+1", "\n-1").astype(object))
    if feature.size == 0 or feature.max() + 1 < M:
        first_line_end = starts[1] if data.instance_count > 1 else entries.size  # its last token
        tokens[first_line_end] += f" {M}:0.0"
    return "".join(tokens.tolist())[1:] + "\n"


def load_dataset(path) -> DataSet:
    """Read a sparse-text file; a leading UTF-8 byte-order mark is ignored."""
    with open(path, "r", encoding="utf-8-sig") as handle:
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

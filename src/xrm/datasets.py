"""Sparse-text classification datasets: parsing, label mapping, reproducible splits.

The on-disk format is the usual whitespace-separated sparse text, one instance
per line::

    <label> <index>:<value> <index>:<value> ...

Labels are finite numbers of two values; indices are integers of at least 1
that strictly increase along a line; values are finite floats.  Tokens are
read exactly as ``int()`` and ``float()`` read them.  Blank lines are skipped,
and lines are counted at ``\\n`` (a file read in text mode also ends lines at
``\\r\\n`` and ``\\r``); :func:`load_dataset` ignores a leading UTF-8
byte-order mark.  A parse splits each line into tokens, then converts and
checks all tokens in whole-input passes that only accept or reject the input.
Labels, indices or values whose texts repeat, such as term counts, are
converted once per distinct text by a measured rule (see
:func:`parse_sparse_text`); no result depends on the rule.  Rejected input
is read again token by token, in line order, to report its first defect
with its line number.  :func:`format_sparse_text` writes nonzero
entries as shortest round-trip floats and pins the feature count with
``M:0.0`` when the last feature is all zero.

Instances are the columns of the M x N feature matrix X, and labels live in
{-1, +1}.  X is a dense ndarray, or a ``scipy.sparse.csc_array`` (one column
per instance) for sparse text whose density is below 27%; see
:func:`parse_sparse_text`.  Sets built from an ndarray stay dense.  Code that
needs X dense, such as standardization, copies a sparse X with
:func:`_dense`.  ``scipy.sparse`` is imported only when a sparse set is built.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

import numpy as np

_SPLIT_RETRIES = 64
# A parse stores X as CSC when its entries fill less than this percentage of
# the M x N matrix (see parse_sparse_text).
_CSC_DENSITY_PCT = 27
# A parse converts each distinct label, index or value text once, instead of
# every token, when a sample of every _SAMPLE_STRIDE-th text estimates that
# fewer than this percentage of the texts are distinct (see parse_sparse_text).
_DISTINCT_PCT = 10
_SAMPLE_STRIDE = 64


class SparseFormatError(ValueError):
    """Malformed sparse-text input.  ``line_number`` locates the offending line
    (0 means the input as a whole, e.g. an empty file)."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}" if line_number else message)
        self.line_number = line_number


def _store_frozen(instance, **arrays) -> None:
    """Store each array as the named field of a frozen dataclass ``instance``
    and make it read-only, so that the instance is safe to share: an
    ndarray, or the ``data``, ``indices`` and ``indptr`` of a CSC array."""
    for name, array in arrays.items():
        parts = (array,) if isinstance(array, np.ndarray) else (array.data, array.indices,
                                                                array.indptr)
        for part in parts:
            part.setflags(write=False)
        object.__setattr__(instance, name, array)


def _check_finite(X: np.ndarray) -> None:
    if not np.all(np.isfinite(X)):
        raise ValueError("feature matrix contains NaN or Inf entries")


def _is_sparse(X) -> bool:
    """Whether X is a scipy.sparse array or matrix.  No such X exists before
    ``scipy.sparse`` is loaded, so this never imports it."""
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(X)


def _csc_array(*args, **kwargs):
    """``scipy.sparse.csc_array(*args, **kwargs)``, importing scipy.sparse
    on first use: only sparse sets need it."""
    from scipy.sparse import csc_array

    return csc_array(*args, **kwargs)


def _dense(X, purpose: str) -> np.ndarray:
    """X as a dense ndarray: X itself, or a new copy of a CSC X filled as a
    dense parse of the same text fills its matrix, so with the same bits and
    layout (``toarray`` adds the entries to zeros, which turns -0.0 into
    0.0).  Raises ValueError naming the shape, for ``purpose``, when the copy
    cannot be allocated."""
    if isinstance(X, np.ndarray):
        return X
    M, N = X.shape
    try:
        dense = np.zeros((M, N))
    except (MemoryError, ValueError):  # numpy rejects a shape whose size overflows
        raise ValueError(
            f"largest index {M} over {N} instances: {purpose} needs X stored dense, and its "
            f"{M} x {N} matrix is too large to allocate") from None
    entries = X.tocoo()
    dense[entries.row, entries.col] = entries.data
    return dense


@dataclass(frozen=True)
class DataSet:
    """A binary classification dataset.

    Attributes
    ----------
    X : ndarray or scipy.sparse.csc_array of shape (feature_count, instance_count)
        Feature matrix; instances are columns.  A scipy.sparse X is stored as
        a CSC array in canonical format (sorted row indices, no duplicates),
        anything else as a dense ndarray.
    y : ndarray of shape (instance_count,)
        Labels in {-1.0, +1.0}.
    """

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        # Copies, so that the caller's arrays stay theirs to write.
        if _is_sparse(self.X):
            X = _csc_array(self.X, dtype=float, copy=True)
        else:
            X = np.array(self.X, dtype=float)
        self._take(X, np.array(self.y, dtype=float))

    @classmethod
    def _adopt(cls, X: np.ndarray, y: np.ndarray) -> DataSet:
        """A data set over float arrays that this module has just allocated
        (or read-only arrays of another data set), taken without a copy."""
        data = object.__new__(cls)
        data._take(X, y)
        return data

    @classmethod
    def _adopt_valid(cls, X: np.ndarray, y: np.ndarray) -> DataSet:
        """:meth:`_adopt` for arrays whose values already passed its checks,
        such as subsets of a data set: stored without checking them again."""
        data = object.__new__(cls)
        _store_frozen(data, X=X, y=y)
        return data

    def _take(self, X, y: np.ndarray) -> None:
        """Validate X and y, store them and make them read-only.  A CSC X is
        put in canonical format first, summing duplicate entries."""
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise ValueError(f"feature matrix must be 2-d and non-empty, got shape {X.shape}")
        if y.shape != (X.shape[1],):
            raise ValueError(f"label vector of length {y.shape} does not match {X.shape[1]} instances")
        if isinstance(X, np.ndarray):
            _check_finite(X)
        else:
            X.sum_duplicates()  # in place, and nothing to do on canonical input
            _check_finite(X.data)
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        _store_frozen(self, X=X, y=y)

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


def _raise_first_defect(label_tokens, entry_texts, line_numbers) -> NoReturn:
    """Raise :class:`SparseFormatError` for the first defect of rejected input,
    read one label and one ``index:value`` token at a time in line order.

    Input whose tokens hold no defect is rejected for holding no entries: the
    whole-input checks of :func:`parse_sparse_text` reject nothing else that
    this reading accepts.
    """
    for label, entries, line_number in zip(label_tokens, entry_texts, line_numbers):
        try:
            number = float(label)
        except ValueError:
            raise SparseFormatError(f"label {label!r} is not numeric", line_number) from None
        if not math.isfinite(number):
            raise SparseFormatError(f"label {label!r} is not finite", line_number)
        previous = 0
        for token in entries.split():
            index_text, colon, value_text = token.partition(":")
            if not colon:
                raise SparseFormatError(f"entry {token!r} lacks an index:value separator",
                                        line_number)
            try:
                index, value = int(index_text), float(value_text)
            except ValueError:
                raise SparseFormatError(f"entry {token!r} is not numeric", line_number) from None
            if not math.isfinite(value):
                raise SparseFormatError(f"entry {token!r} is not finite", line_number)
            if index < 1:
                raise SparseFormatError(f"index {index} is not 1-based", line_number)
            if index <= previous:
                raise SparseFormatError(f"index {index} does not increase "
                                        f"(previous index {previous})", line_number)
            previous = index
    raise SparseFormatError("input contains no feature entries", 0)


def _convert(convert, texts: list) -> list:
    """``list(map(convert, texts))``, converting each distinct text once when
    a sample says that the texts repeat enough for that to pay (the rule is
    in :func:`parse_sparse_text`)."""
    # k -> how many sampled texts occur k times in the sample
    occurrences = Counter(Counter(texts[::_SAMPLE_STRIDE]).values())
    once, twice = occurrences[1], occurrences[2]
    distinct = sum(occurrences.values()) + once * (once - 1) / (2 * (twice + 1))
    if 100 * distinct >= _DISTINCT_PCT * len(texts):
        return list(map(convert, texts))
    table = {text: convert(text) for text in set(texts)}
    return list(map(table.__getitem__, texts))


def parse_sparse_text(source) -> DataSet:
    """Parse sparse `label index:value` text into a :class:`DataSet`.

    ``source`` may be a string, a text stream, or any iterable of lines; a
    string is split into lines at ``\\n`` only, as iterating a
    :class:`io.StringIO` would split it.  The feature count M is the largest
    index seen anywhere; absent indices are zero.  Labels go through
    :func:`map_labels`.

    All tokens are converted and checked in whole-input passes that only
    accept or reject the input; rejected input is then read token by token
    to name its first defect.

    The labels, the indices and the values are each converted as one list,
    every token by ``float()`` or ``int()``, or, when the list's texts
    repeat, each distinct text once, with every token then looked up in a
    table of the results.  A list takes the table when fewer than 10% of its
    texts are distinct by Chao's bias-corrected estimate
    ``d + f1 (f1 - 1) / (2 (f2 + 1))`` from a sample of every 64th text, in
    which d texts are distinct, f1 of them occur once and f2 twice.  The
    rule is measured: on 40k texts drawn evenly from D distinct ones (2-core
    VM, one thread, three runs), the table broke even with ``map(int)`` at
    D = 4k to 6k and with ``map(float)`` at D = 12k or more, and on 40k
    all-distinct texts it took 20-25 ms against 5-6 ms for ``map(int)`` and
    25-42 ms against 9-21 ms for ``map(float)``, as it hashes every text and
    converts them in hash order.  The distinct share of the sample itself
    understates repetition: the indices of a ``wide`` benchmark file sample
    465 of 624 texts distinct but hold 1999 distinct texts in 39928, which
    the estimate puts at 1487; and it would send half ``1`` and half
    distinct texts to the table, which the estimate keeps off it.  ``int()``
    and ``float()`` are pure functions of the text, so X, y and every error
    are the same on either path.

    X is stored as a ``scipy.sparse.csc_array``, one column per instance and
    every written entry kept (``k:0`` too), when the nnz entries of the N
    lines fill less than 27% of the M x N matrix; otherwise it is a dense
    ndarray, filled with the same bits.  The rule is measured: at the size of
    the ``wide`` benchmark (2000 x 400 at 5% density, one BLAS thread) a
    matrix-vector product took 0.306 ms dense (800k entries) and 0.055 ms on
    CSC (40k nonzeros), about 0.38 ns per dense entry against 1.4 ns per
    stored one, so CSC wins below about 27% density.  A CSC parse never fills
    or checks M x N values, so its size depends on nnz, not on M.

    Raises
    ------
    SparseFormatError
        On a non-numeric or non-finite token, a duplicate or non-increasing
        index, an index below 1, or input with no instances or no entries at
        all.  The first defect in line and token order is reported, with its
        line number.  A largest index beyond the int64 range, which no
        feature matrix can index, is reported for the input as a whole
        (line 0).
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
    joined = " ".join(filter(None, entry_texts))
    try:
        labels = _convert(float, label_tokens)
        # Tokens hold no spaces, so the colons and spaces of ``joined``
        # alternate ": : ... :" exactly when every token holds one colon (and
        # never when there are no tokens, which is itself a defect).
        code = np.frombuffer(joined.encode("utf-8", "surrogatepass"), dtype=np.uint8)
        separators = code[(code == ord(":")) | (code == ord(" "))]
        del code
        if (separators.size != 2 * instance.size - 1 or np.any(separators[0::2] != ord(":"))
                or np.any(separators[1::2] != ord(" "))):
            raise ValueError("a token does not hold exactly one colon")
        del separators
        parts = joined.replace(" ", ":").split(":")
        index_texts, value_texts = parts[0::2], parts[1::2]
        del parts, joined  # the texts are most of a parse's memory: free each once read
        index = _convert(int, index_texts)
        del index_texts
        values = np.array(_convert(float, value_texts))
        del value_texts
        try:
            index = np.array(index, dtype=np.int64)
        except OverflowError:  # such an index is read, then rejected below
            index = np.array(index, dtype=object)
        rises = (instance[1:] != instance[:-1]) | (index[1:] > index[:-1])
        accepted = (np.all(np.isfinite(labels)) and np.all(np.isfinite(values))
                    and np.all(index >= 1) and np.all(rises))
    except ValueError:
        accepted = False
    if not accepted:
        _raise_first_defect(label_tokens, entry_texts, line_numbers)
    M, N = index.max(), len(counts)
    if index.dtype == object:
        raise SparseFormatError(
            f"largest index {M} over {N} instances is beyond {np.iinfo(np.int64).max}, "
            "the largest index a feature matrix holds", 0)
    if 100 * index.size >= _CSC_DENSITY_PCT * int(M) * N:
        X = np.zeros((M, N))
        X[index - 1, instance] = values
    else:
        # Each line's indices increase, so its entries are a canonical column.
        indptr = np.zeros(N + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        index -= 1
        X = _csc_array((values, index, indptr), shape=(int(M), N))
    return DataSet._adopt(X, map_labels(labels))


def format_sparse_text(data: DataSet) -> str:
    """Serialize a dataset back to sparse text.

    Only nonzero entries are written, each value as the shortest text that
    reads back to the same float, and labels as ``+1``/``-1``.  The highest
    feature index is pinned with an explicit ``M:0.0`` entry on the first
    line when it would otherwise vanish, so parse/format round-trips preserve
    the matrix shape.  A CSC set and its dense copy give the same text.
    """
    M, X = data.feature_count, data.X
    if isinstance(X, np.ndarray):
        instance, feature = np.nonzero(X.T)  # instance-major, as the lines run
        values = X[feature, instance]
    else:  # the stored entries in column order, which is instance-major, without zeros
        entries = X.tocoo()
        written = entries.data != 0.0
        instance, feature = entries.col[written], entries.row[written]
        values = entries.data[written]
    entries = np.array(list(map(" {}:{!r}".format, (feature + 1).tolist(), values.tolist())),
                       dtype=object)
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
    to a bounded number of retries.  The two sets skip the checks of
    :class:`DataSet`: their values are those of ``data``, which passed them.
    A CSC X is split by its columns, which stay canonical.
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
        labels = data.y[train_idx]
        if labels.min() != labels.max():  # both classes
            test_idx = order[spec.train_size :]
            train = DataSet._adopt_valid(data.X[:, train_idx], labels)
            test = DataSet._adopt_valid(data.X[:, test_idx], data.y[test_idx])
            return train, test
    raise ValueError(
        f"could not draw a training set of size {spec.train_size} containing both classes "
        f"after {_SPLIT_RETRIES} attempts"
    )


def _pad_features(data: DataSet, feature_count: int) -> DataSet:
    """``data`` with all-zero features appended up to ``feature_count``: zero
    rows stacked under a dense X, a wider shape for a CSC X."""
    X = data.X
    M, N = X.shape
    if isinstance(X, np.ndarray):
        padded = np.vstack([X, np.zeros((feature_count - M, N))])
    else:
        padded = _csc_array((X.data, X.indices, X.indptr), shape=(feature_count, N))
    return DataSet._adopt_valid(padded, data.y)


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
        _store_frozen(self, mean=mean, scale=scale)


def fit_scaler(train: DataSet) -> Scaler:
    """Per-feature mean and standard deviation of ``train``; constant
    features get scale 1, so they are centered but not scaled.  A sparse X
    is copied dense first, which gives the statistics of the dense parse.
    Raises ValueError when a feature's variance, or its mean, overflows, or
    when a sparse X is too large to copy dense."""
    X = _dense(train.X, "fitting a scaler")
    std = X.std(axis=1)
    # std takes its deviations from this same mean, and every deviation from
    # a non-finite mean is non-finite, so a finite std vouches for the mean
    # too; std >= 0, and its zeros become scale 1.
    if not np.isfinite(std).all():
        raise ValueError("a training feature's variance overflows: its values are too large "
                         "to standardize")
    scaler = object.__new__(Scaler)
    _store_frozen(scaler, mean=X.mean(axis=1), scale=np.where(std == 0.0, 1.0, std))
    return scaler


def standardize(train: DataSet, test: DataSet | None = None, *, scaler: Scaler | None = None):
    """Per-feature z-score fitted on the training set and applied to both sets.

    A given ``scaler`` (for example one saved with a model) is applied instead
    of fitting one on ``train``.  Returns the transformed training set, or a
    (train, test) pair when ``test`` is given.  The labels skip the checks of
    :class:`DataSet`; the features do not, as a value far from the training
    data, divided by a tiny training scale, can overflow to inf.  Centering
    fills in every zero, so a sparse X is copied dense first and the result
    is dense, with the bits of the dense parse's result; a set too large to
    copy dense raises ValueError naming its shape.  Either set having another
    feature count than the scaler raises ValueError.
    """
    if scaler is None:
        scaler = fit_scaler(train)
    for data in (train,) if test is None else (train, test):
        if scaler.mean.size != data.feature_count:
            raise ValueError(f"scaler has {scaler.mean.size} features but dataset has "
                             f"{data.feature_count}")
    mean, std = scaler.mean[:, None], scaler.scale[:, None]

    def transform(data: DataSet) -> DataSet:
        X = _dense(data.X, "standardization") - mean
        X /= std  # in place, so a dense set allocates one matrix
        _check_finite(X)
        return DataSet._adopt_valid(X, data.y)

    if test is None:
        return transform(train)
    return transform(train), transform(test)

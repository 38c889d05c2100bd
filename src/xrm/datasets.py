"""Sparse-text classification datasets: parsing, label mapping, reproducible splits.

The on-disk format is the usual whitespace-separated sparse text, one instance
per line::

    <label> <index>:<value> <index>:<value> ...

Labels are finite numbers of two values; indices are integers of at least 1
that strictly increase along a line; values are finite floats, read as
``int()`` and ``float()`` read them.  Instances are the columns of the M x N
feature matrix X, a dense ndarray or, for sparse text, a
``scipy.sparse.csc_array``; labels live in {-1, +1}.  ``scipy.sparse`` is
imported only when a sparse set is built.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_SPLIT_RETRIES = 64
# A parse stores X as CSC when its entries fill less than this percentage of
# the M x N matrix (see parse_sparse_text).
_CSC_DENSITY_PCT = 27
# _convert converts each distinct text once when a sample of every
# _SAMPLE_STRIDE-th text estimates that fewer than this percentage of the
# texts are distinct.
_DISTINCT_PCT = 10
_SAMPLE_STRIDE = 64
# A parse reads index texts of at most this many ASCII digits from their bytes
# (see parse_sparse_text); 10^18 - 1 is below the int64 maximum.
_MAX_ASCII_DIGITS = 18


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
    """A binary classification dataset: the feature_count x instance_count
    matrix X, a dense ndarray or, when given as scipy.sparse, a canonical
    CSC array (sorted row indices, no duplicates), and the labels y in
    {-1.0, +1.0}, one per instance."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        """Validate copies of X and y, so that the caller's arrays stay
        theirs to write, store them and make them read-only.  A CSC X is put
        in canonical format, summing duplicate entries."""
        if _is_sparse(self.X):
            X = _csc_array(self.X, dtype=float, copy=True)
        else:
            X = np.array(self.X, dtype=float)
        y = np.array(self.y, dtype=float)
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

    @classmethod
    def _adopt_valid(cls, X: np.ndarray, y: np.ndarray) -> DataSet:
        """A data set over float64 arrays that already pass the checks of
        :class:`DataSet`, taken without a copy or a second check: subsets of
        a data set, or the arrays that :func:`parse_sparse_text` has just
        built and checked.  A CSC X must be canonical."""
        data = object.__new__(cls)
        _store_frozen(data, X=X, y=y)
        return data

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
        # bool is a subclass of int; numpy integers are accepted.
        for name, least in (("train_size", 1), ("seed", 0), ("trials", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
                kind = "positive" if least else "non-negative"
                raise ValueError(f"{name} must be a {kind} integer, got {value!r}")


def map_labels(raw_labels) -> np.ndarray:
    """Map a two-valued raw label vector onto {-1, +1}: the larger value
    becomes +1.  Input valued in {-1, +1}, even one value only, passes
    through unchanged.  Non-finite labels raise."""
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


def _read_tokens(label_tokens, entry_texts, line_numbers):
    """Read input one token at a time, in line order: the labels (a list),
    indices (int64, one-based) and values of valid input, as
    :func:`parse_sparse_text` stores them.  Raises
    :class:`SparseFormatError` for the first defect, for input whose tokens
    hold no entries, and, at line 0, for a largest index beyond the int64
    range."""
    labels, indices, values = [], [], []
    for label, entries, line_number in zip(label_tokens, entry_texts, line_numbers):
        try:
            labels.append(float(label))
        except ValueError:
            raise SparseFormatError(f"label {label!r} is not numeric", line_number) from None
        if not math.isfinite(labels[-1]):
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
            indices.append(index)
            values.append(value)
    if not indices:
        raise SparseFormatError("input contains no feature entries", 0)
    if max(indices) > np.iinfo(np.int64).max:
        raise SparseFormatError(
            f"largest index {max(indices)} over {len(labels)} instances is beyond "
            f"{np.iinfo(np.int64).max}, the largest index a feature matrix holds", 0)
    return labels, np.array(indices, dtype=np.int64), np.array(values)


def _convert(convert, texts: list) -> list:
    """``list(map(convert, texts))``, converting each distinct text once,
    through a table, when fewer than ``_DISTINCT_PCT`` percent of the texts
    are distinct by Chao's estimate ``d + f1 (f1 - 1) / (2 (f2 + 1))`` from a
    sample of every ``_SAMPLE_STRIDE``-th text, in which d texts are
    distinct, f1 of them occur once and f2 twice.  The table hashes every
    text, so it pays only on texts that repeat; the result and every error
    are the same either way."""
    # k -> how many sampled texts occur k times in the sample
    occurrences = Counter(Counter(texts[::_SAMPLE_STRIDE]).values())
    once, twice = occurrences[1], occurrences[2]
    distinct = sum(occurrences.values()) + once * (once - 1) / (2 * (twice + 1))
    if 100 * distinct >= _DISTINCT_PCT * len(texts):
        return list(map(convert, texts))
    table = {text: convert(text) for text in set(texts)}
    return list(map(table.__getitem__, texts))


def _ascii_indices(code: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """The numbers that the byte texts ``code[starts[k]:ends[k]]`` write in
    decimal, as int64, and a mask of the bytes of ``code`` that are in none
    of these texts and at none of ``ends``.  Raises ValueError unless every
    text is 1 to 18 ASCII digits."""
    lengths = ends - starts
    if lengths.min() < 1 or lengths.max() > _MAX_ASCII_DIGITS:
        raise ValueError("an index text is not 1 to 18 bytes long")
    index = np.zeros(lengths.size, dtype=np.int64)
    kept = np.ones(code.size, dtype=bool)
    kept[ends] = False
    place = 1
    for j in range(lengths.max()):
        # The byte of place value 10^j.  A text shorter than j + 1 reads a
        # byte before its start instead, counts it as 0 and keeps it; before
        # position 0 that is a byte from the end of code, which is longer
        # than j.
        at = ends - (j + 1)
        digit = code[at] - np.uint8(ord("0"))  # other bytes wrap past 9
        if j:
            longer = lengths > j
            digit *= longer
            at = at[longer]
        if digit.max() > 9:
            raise ValueError("an index text is not ASCII digits")
        index += np.multiply(digit, place, dtype=np.int64)
        kept[at] = False
        place *= 10
    return index, kept


def _read_bytes(label_tokens, entry_texts, instance):
    """The labels, indices and values of valid input whose index texts are
    all 1 to 18 ASCII digits, read in whole-input passes over the UTF-8 bytes
    of its entries, as :func:`_read_tokens` reads them; ``instance`` numbers
    each entry's line.  Raises ValueError on any other input."""
    labels = _convert(float, label_tokens)
    # Tokens hold no spaces, so the colons and spaces of the joined entries
    # alternate ": : ... :" exactly when every token holds one colon (and
    # never when there are no tokens).
    code = np.frombuffer(" ".join(filter(None, entry_texts)).encode("utf-8", "surrogatepass"),
                         dtype=np.uint8)
    cuts = np.flatnonzero((code == ord(":")) | (code == ord(" ")))
    colons, spaces = cuts[0::2], cuts[1::2]
    if (cuts.size != 2 * instance.size - 1 or np.any(code[colons] != ord(":"))
            or np.any(code[spaces] != ord(" "))):
        raise ValueError("a token does not hold exactly one colon")
    # The bytes kept are the value texts joined by the spaces between tokens.
    index, kept = _ascii_indices(code, np.concatenate(([0], spaces + 1)), colons)
    del cuts, colons, spaces
    value_text = code[kept].tobytes().decode("utf-8", "surrogatepass")
    del code, kept  # the texts are most of a parse's memory: free each once read
    value_texts = value_text.split(" ")
    del value_text
    values = np.array(_convert(float, value_texts))
    rises = (instance[1:] != instance[:-1]) | (index[1:] > index[:-1])
    if not (np.all(np.isfinite(labels)) and np.all(np.isfinite(values))
            and np.all(index >= 1) and np.all(rises)):
        raise ValueError("a label, value or index is out of range")
    return labels, index, values


def parse_sparse_text(source) -> DataSet:
    """Parse sparse `label index:value` text into a :class:`DataSet`.

    ``source`` may be a string, split into lines at ``\\n`` only, a text
    stream, or any iterable of lines; blank lines are skipped.  The feature
    count M is the largest index seen; absent entries are zero.  Labels go
    through :func:`map_labels`.  Input whose index texts are all 1 to 18
    ASCII digits is read in whole-input passes, the indices with integer
    arithmetic from the UTF-8 bytes, as ``int()`` reads them; all other
    input, and input those passes reject, is read one token at a time,
    which names the first defect of rejected input.  Label and value texts
    go through :func:`_convert`.

    X is a CSC array, one column per instance keeping every written entry,
    when the entries fill less than 27% of the M x N matrix, below which a
    product with it costs less than a dense one; otherwise a dense ndarray
    with the same bits.

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
    del lines  # a string source's lines, whose tokens are copied
    if not label_tokens:
        raise SparseFormatError("input contains no instances", 0)
    instance = np.repeat(np.arange(len(counts)), counts)
    try:
        read = _read_bytes(label_tokens, entry_texts, instance)
    except ValueError:
        read = None
    labels, index, values = read or _read_tokens(label_tokens, entry_texts, line_numbers)
    M, N = index.max(), len(counts)
    if 100 * index.size >= _CSC_DENSITY_PCT * int(M) * N:
        X = np.zeros((M, N))
        X[index - 1, instance] = values
    else:
        # Each line's indices increase, so its entries are a canonical column.
        indptr = np.zeros(N + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        index -= 1
        X = _csc_array((values, index, indptr), shape=(int(M), N))
    # Every check of DataSet has passed: finite labels mapped to +-1 and
    # finite values, indices from 1 that rise within each line (a canonical
    # CSC array), and at least one instance and one feature.
    return DataSet._adopt_valid(X, map_labels(labels))


def format_sparse_text(data: DataSet) -> str:
    """Serialize a dataset back to sparse text.

    Only nonzero entries are written, each value as its ``repr``, the
    shortest text that reads back to the same float, and labels as
    ``+1``/``-1``.  The highest feature index is pinned with an explicit
    ``M:0.0`` entry on the first line when it would otherwise vanish, so
    parse/format round-trips preserve the matrix shape.  A CSC set and its
    dense copy give the same text.  Each distinct index and value is
    formatted once, found by ``np.unique``, which merges no two written
    values with different ``repr`` texts as they are finite and nonzero.
    The work grows with the entries and instances written, not with M.
    """
    M, N, X = data.feature_count, data.instance_count, data.X
    if isinstance(X, np.ndarray):  # instance-major, as the lines run
        instance, feature = np.divmod(np.flatnonzero(X.T != 0.0), M)
        values = X[feature, instance]
    else:  # the stored entries in column order, which is instance-major, without zeros
        entries = X.tocoo()
        written = entries.data != 0.0
        instance, feature = entries.col[written], entries.row[written]
        values = entries.data[written]
    # Line i is its label, then two tokens, " j:" and the value, per entry:
    # the label sits after the i labels and the entries of the lines before
    # it, and entry k of line i at i + 1 + 2k.
    label_at = np.arange(N) + 2 * np.searchsorted(instance, np.arange(N))
    head_at = instance + 1 + 2 * np.arange(values.size)
    tokens = np.empty(N + 2 * values.size, dtype=object)
    tokens[label_at] = np.where(data.y > 0, "\n+1", "\n-1")  # the first newline is dropped
    for at, format_one, numbers in ((head_at, " {}:".format, feature + 1),
                                    (head_at + 1, repr, values)):
        distinct, inverse = np.unique(numbers, return_inverse=True)
        tokens[at] = np.array(list(map(format_one, distinct.tolist())), dtype=object)[inverse]
    if feature.size == 0 or feature.max() + 1 < M:
        tokens[(label_at[1] if N > 1 else tokens.size) - 1] += f" {M}:0.0"  # the first line's end
    return "".join(tokens.tolist())[1:] + "\n"


def load_dataset(path) -> DataSet:
    """Read a sparse-text file; a leading UTF-8 byte-order mark is ignored."""
    with open(path, "r", encoding="utf-8-sig") as handle:
        return parse_sparse_text(handle)


def save_dataset(data: DataSet, path) -> None:
    Path(path).write_text(format_sparse_text(data), encoding="utf-8")


def split(data: DataSet, spec: SplitSpec, trial_index: int) -> tuple[DataSet, DataSet]:
    """Deterministically split ``data`` for one trial: the first
    ``train_size`` instances of a permutation that is a pure function of
    (spec.seed, trial_index), redrawn from the same stream, a bounded number
    of times, while they hold a single class; the rest form the test set."""
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
    """Per-feature z-score fitted on the training set, or the given
    ``scaler``, applied to both sets; returns the training set, or a
    (train, test) pair when ``test`` is given.  The result is dense, with
    the bits of the dense parse's result.  Raises ValueError when a set has
    another feature count than the scaler, is too large to copy dense, or
    transforms to a non-finite value."""
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

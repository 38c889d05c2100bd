import io
import math
import random
import tracemalloc
from unittest import mock

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings
from scipy.sparse import coo_array, csc_array

from xrm import datasets
from xrm.datasets import (
    DataSet,
    Scaler,
    SparseFormatError,
    SplitSpec,
    fit_scaler,
    format_sparse_text,
    map_labels,
    parse_sparse_text,
    split,
    standardize,
)


def _reference_parse(source) -> DataSet:
    """``parse_sparse_text`` as one loop over the entries of each line: the
    differential reference for the bulk parser."""
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
    if max_index > np.iinfo(np.int64).max:
        raise SparseFormatError(
            f"largest index {max_index} over {len(labels)} instances is beyond "
            f"{np.iinfo(np.int64).max}, the largest index a feature matrix holds", 0)
    X = np.zeros((max_index, len(labels)))
    for column, entries in enumerate(rows):
        for index, value in entries:
            X[index - 1, column] = value
    return DataSet(X=X, y=map_labels(labels))


def _reference_format(data: DataSet) -> str:
    """``format_sparse_text`` as one loop over the entries of each instance:
    the differential reference for the bulk formatter."""
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


def _dense(X) -> np.ndarray:
    """X as an ndarray: itself, or a dense copy of a CSC X with its stored
    entries assigned, which keeps -0.0 (``toarray`` adds them to zeros)."""
    if isinstance(X, np.ndarray):
        return X
    entries = X.tocoo()
    dense = np.zeros(X.shape)
    dense[entries.row, entries.col] = entries.data
    return dense


def _outcome(parse, source):
    """What ``parse`` makes of ``source``: the exact bits of X and y, or the
    exception's type, message and line number."""
    try:
        data = parse(source)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line_number", None)
    return data.X.shape, _dense(data.X).tobytes(), data.y.tobytes()


# Whitespace that str.split() splits at but that is no line break of a string
# source; "\r" is one for a stream that translates newlines.
_SPACES = [" ", "  ", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u3000"]
_LABEL_PAIRS = [("+1", "-1"), ("1", "-1"), ("0", "1"), ("1", "2"), ("2", "1"), ("-1", "+1")]
_FULL_WIDTH = str.maketrans("0123456789", "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19")


@st.composite
def _index_text(draw, index):
    """Text that int() reads as ``index``."""
    text = str(index)
    style = draw(st.sampled_from(["plain", "plus", "zero", "full_width", "underscore"]))
    if style == "plus":
        return "+" + text
    if style == "zero":
        return "0" + text
    if style == "full_width":
        return text.translate(_FULL_WIDTH)
    if style == "underscore" and len(text) > 1:
        return text[0] + "_" + text[1:]
    return text


_VALUE_TEXT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["0", "-0", "0.0", "-0.0", "1_0.5", "+3", "\uff13.\uff15", "1e3", "-2E-5",
                     ".5", "5.", "5e-324", "1.7976931348623157e308", "-1.7976931348623157e308"]),
)


@st.composite
def _sparse_lines(draw):
    """A valid file as token lists, one per line ([] for a blank line): at
    least one instance and one entry, and two label values unless the labels
    are already canonical."""
    width = draw(st.integers(1, 8))
    instances = draw(st.integers(1, 6))
    pair = draw(st.sampled_from(_LABEL_PAIRS)) if instances > 1 else ("+1", "-1")
    lines = []
    for row in range(instances):
        lines.extend([] for _ in range(draw(st.integers(0, 1))))
        label = pair[row] if row < 2 else draw(st.sampled_from(pair))
        indices = sorted(draw(st.sets(st.integers(1, width), min_size=int(row == 0), max_size=width)))
        lines.append([label] + [f"{draw(_index_text(i))}:{draw(_VALUE_TEXT)}" for i in indices])
    return lines


@st.composite
def _render(draw, lines):
    """(text, as_stream): the token lists joined with assorted whitespace and
    line endings, and whether to parse the text as a stream, which also breaks
    lines at a carriage return, so one does not then separate tokens."""
    as_stream = draw(st.booleans())
    spaces = [space for space in _SPACES if not (as_stream and space == "\r")]
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    rendered = []
    for tokens in lines:
        text = draw(st.sampled_from(["", " ", "\t"]))
        for k, token in enumerate(tokens):
            text += (draw(st.sampled_from(spaces)) if k else "") + token
        rendered.append(text + draw(st.sampled_from(["", " ", "\x0c"])))
    return ending.join(rendered) + draw(st.sampled_from(["", ending])), as_stream


_DEFECTS = ["no_colon", "two_colons", "bad_index", "bad_value", "bad_label", "value_not_finite",
            "label_not_finite", "index_below_one", "index_repeats", "index_decreases", "huge_index"]


@st.composite
def _corrupted_lines(draw):
    """A valid file with one to three defects, each on a random instance line."""
    lines = draw(_sparse_lines())
    rows = [k for k, tokens in enumerate(lines) if tokens]
    for _ in range(draw(st.integers(1, 3))):
        tokens = lines[draw(st.sampled_from(rows))]
        kind = draw(st.sampled_from(_DEFECTS))
        if kind == "bad_label":
            tokens[0] = draw(st.sampled_from(["abc", "1:2", "0x1", "--1", "1__0", "\ud800"]))
            continue
        if kind == "label_not_finite":
            tokens[0] = draw(st.sampled_from(["nan", "inf", "-inf", "infinity", "NaN", "1e999"]))
            continue
        if len(tokens) == 1:
            tokens.append("1:1")
        k = draw(st.integers(1, len(tokens) - 1))
        index, _, value = tokens[k].partition(":")
        if kind == "no_colon":  # never empty, as an empty token would vanish
            choices = [tokens[k].replace(":", ""), index, tokens[k].replace(":", "\uff1a")]
            tokens[k] = draw(st.sampled_from(choices)) or "x"
        elif kind == "two_colons":
            choices = [f"{index}:{value}:1", f":{index}:{value}", f"{index}::{value}"]
            tokens[k] = draw(st.sampled_from(choices))
        elif kind == "bad_index":
            bad = draw(st.sampled_from(["x", "", "1.5", "0x1", "1__0", "_1", "\ud800"]))
            tokens[k] = bad + ":" + value
        elif kind == "bad_value":
            bad = draw(st.sampled_from(["abc", "", "1,5", "--1", "1__0", "0x1", "\ud800"]))
            tokens[k] = index + ":" + bad
        elif kind == "value_not_finite":
            bad = draw(st.sampled_from(["nan", "inf", "-inf", "infinity", "-Infinity", "NaN", "1e999"]))
            tokens[k] = index + ":" + bad
        elif kind == "index_below_one":
            bad = draw(st.sampled_from(["0", "-0", "+0", "-1", "-99999999999999999999"]))
            tokens[k] = bad + ":" + value
        elif kind == "huge_index":  # read, then too large for any matrix
            tokens[k] = "99999999999999999999:" + value
        elif kind == "index_repeats":
            tokens.insert(k, tokens[k])
        else:  # index_decreases, or repeats index 1; later defects never undo it
            tokens.insert(k + 1, "1:1")
    return lines


_BLANK_LINES = st.lists(st.just([]), max_size=4)
_LABEL_LINES = st.lists(st.lists(st.sampled_from(["+1", "-1"]), min_size=1, max_size=1),
                        min_size=1, max_size=4)


def _outcomes(text, as_stream):
    """The outcomes of the parser and of the reference on ``text``, given as a
    string or as a stream that translates line endings as reading a file does."""
    return tuple(_outcome(parse, io.StringIO(text, newline=None) if as_stream else text)
                 for parse in (parse_sparse_text, _reference_parse))


# Small pools of texts that differ but read alike, so that a parse converts
# each distinct text once and must still keep them apart.  At most 10 texts a
# pool and 20 entries a file keep the sampled estimate of distinct texts
# below a tenth of the texts, whatever the sample holds.
_POOLED_VALUES = ["0", "-0", "0.0", "-0.0", "1_0.5", "10.5", "+3", "3", "\uff13", "5e-324"]
_POOLED_INDEX_SPELLINGS = {1: ["1", "+1", "01", "\uff11"]}


@st.composite
def _pooled_lines(draw):
    """A valid file of 20 to 600 instance lines, each with at least one entry
    drawn from the pools: a few hundred to a few thousand entries.  The lines
    come from a seeded generator, as a draw per token would be slow."""
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    width = draw(st.integers(1, 7))
    pair = draw(st.sampled_from(_LABEL_PAIRS))
    lines = []
    for row in range(rnd.randint(20, 600)):
        label = pair[row] if row < 2 else rnd.choice(pair)
        indices = sorted(rnd.sample(range(1, width + 1), rnd.randint(1, width)))
        lines.append([label] + [
            rnd.choice(_POOLED_INDEX_SPELLINGS.get(i, [str(i)])) + ":" + rnd.choice(_POOLED_VALUES)
            for i in indices])
    return lines


@st.composite
def _pooled_defects(draw):
    """A pooled file with a defect on one line, then a bad value or index text
    on every entry of every line from a later one on."""
    lines = draw(_pooled_lines())
    first = draw(st.integers(0, len(lines) - 2))
    tokens = lines[first]
    kind = draw(st.sampled_from(["index_decreases", "index_repeats", "index_below_one",
                                 "value_not_finite", "bad_label", "label_not_finite"]))
    if kind == "index_decreases":
        tokens.append("1:1")
    elif kind == "index_repeats":
        tokens.append(tokens[-1])
    elif kind == "index_below_one":
        tokens[1] = "0:" + tokens[1].partition(":")[2]
    elif kind == "value_not_finite":
        tokens[-1] = tokens[-1].partition(":")[0] + ":inf"
    else:
        tokens[0] = "abc" if kind == "bad_label" else "nan"
    bad = draw(st.sampled_from(["abc", "1,5", "x", "--1", "\ud800"]))
    in_index = draw(st.booleans())
    for later in lines[draw(st.integers(first + 1, len(lines) - 1)):]:
        for k in range(1, len(later)):
            index, _, value = later[k].partition(":")
            later[k] = f"{bad}:{value}" if in_index else f"{index}:{bad}"
    return lines


# An index decreases on line 2, and every value is "abc" from line 5 on.
_DECREASING_THEN_BAD_VALUES = "".join(
    f"{label} {entries}\n" for label, entries in zip(
        ["+1", "-1"] * 50,
        ["1:0 2:-0 3:1_0.5", "2:1 1:1", "1:+3 3:5e-324", "2:0.0 3:3"] + ["1:abc 2:abc 3:abc"] * 96))


def _pooled_text(lines) -> str:
    return "\n".join(" ".join(tokens) for tokens in lines) + "\n"


def _conversions(convert, texts) -> int:
    """How many texts ``datasets._convert`` passes to ``convert``."""
    calls = []
    datasets._convert(lambda text: calls.append(text) or convert(text), texts)
    return len(calls)


class TestParse:
    def test_single_line(self):
        data = parse_sparse_text("+1 1:0.5 3:-2")
        assert data.feature_count == 3
        assert data.instance_count == 1
        np.testing.assert_array_equal(data.X[:, 0], [0.5, 0.0, -2.0])
        np.testing.assert_array_equal(data.y, [1.0])

    def test_two_lines_fills_missing_indices(self):
        data = parse_sparse_text("-1 2:1\n+1 1:1 2:1\n")
        assert data.X.shape == (2, 2)
        np.testing.assert_array_equal(data.X[:, 0], [0.0, 1.0])
        np.testing.assert_array_equal(data.X[:, 1], [1.0, 1.0])
        np.testing.assert_array_equal(data.y, [-1.0, 1.0])

    def test_accepts_stream_input(self):
        data = parse_sparse_text(io.StringIO("1 1:2\n0 1:3\n"))
        np.testing.assert_array_equal(data.y, [1.0, -1.0])

    def test_nineteen_digit_index(self):
        # The byte path reads indices of at most 18 digits; the per-token
        # reader reads this one.  27 M N overflows int64 here, so the density
        # rule must compute in Python integers to store X as CSC.
        data = parse_sparse_text("+1 1000000000000000000:1.5\n-1 2:1\n")
        assert isinstance(data.X, csc_array)
        assert data.X.shape == (10**18, 2)
        np.testing.assert_array_equal(data.X.indices, [10**18 - 1, 1])
        np.testing.assert_array_equal(data.X.indptr, [0, 1, 2])
        np.testing.assert_array_equal(data.X.data, [1.5, 1.0])
        np.testing.assert_array_equal(data.y, [1.0, -1.0])

    def test_malformed_value_reports_line(self):
        with pytest.raises(SparseFormatError) as err:
            parse_sparse_text("1 1:abc")
        assert err.value.line_number == 1

    def test_malformed_label(self):
        with pytest.raises(SparseFormatError):
            parse_sparse_text("abc 1:1")

    def test_non_increasing_index(self):
        with pytest.raises(SparseFormatError) as err:
            parse_sparse_text("1 1:1 2:5\n-1 3:1 3:2")
        assert err.value.line_number == 2

    def test_decreasing_index(self):
        with pytest.raises(SparseFormatError):
            parse_sparse_text("1 5:1 2:1")

    def test_zero_index_rejected(self):
        with pytest.raises(SparseFormatError):
            parse_sparse_text("1 0:1")

    def test_missing_separator(self):
        with pytest.raises(SparseFormatError):
            parse_sparse_text("1 12")

    def test_empty_input(self):
        with pytest.raises(SparseFormatError):
            parse_sparse_text("\n\n")

    def test_blank_lines_skipped(self):
        data = parse_sparse_text("\n+1 1:1\n\n-1 1:-1\n\n")
        assert data.instance_count == 2

    def test_index_beyond_any_matrix_names_index_and_count(self):
        # The parse keeps the 2**62 x 2 matrix sparse; numpy rejects its
        # dense shape before it allocates anything.
        data = parse_sparse_text(f"+1 1:0.5 {2 ** 62}:1.0\n-1 2:1.0\n")
        assert data.X.shape == (2 ** 62, 2)
        with pytest.raises(ValueError) as err:
            standardize(data)
        message = str(err.value)
        assert f"largest index {2 ** 62} over 2 instances" in message
        assert f"{2 ** 62} x 2 matrix" in message and "stored dense" in message

    def test_failed_dense_allocation_names_the_shape(self, monkeypatch):
        data = parse_sparse_text("+1 1:0.5 100000000000:1.0\n")
        assert data.X.shape == (100000000000, 1)
        original = np.zeros

        def zeros(shape, *args, **kwargs):
            if shape[0] > 10**9:  # stands in for an allocation the host cannot give
                raise MemoryError(f"cannot allocate {shape}")
            return original(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", zeros)
        for densify in (fit_scaler, standardize):
            with pytest.raises(ValueError) as err:
                densify(data)
            assert not isinstance(err.value, SparseFormatError)
            assert str(err.value).startswith("largest index 100000000000 over 1 instances")
            assert "100000000000 x 1 matrix is too large to allocate" in str(err.value)

    def test_index_beyond_int64_is_rejected(self):
        with pytest.raises(SparseFormatError) as err:
            parse_sparse_text(f"+1 1:0.5 {2 ** 63}:1.0\n-1 2:1.0\n")
        assert err.value.line_number == 0
        assert str(err.value).startswith(f"largest index {2 ** 63} over 2 instances is beyond")

    @pytest.mark.parametrize("entries, sparse", [(26, True), (27, False)])
    def test_density_below_27_percent_is_stored_csc(self, entries, sparse):
        # one instance over 100 features: 26 entries fill 26%, 27 fill 27%
        text = "+1 " + " ".join(f"{3 * k}:1.5" for k in range(1, entries)) + " 100:0\n"
        data = parse_sparse_text(text)
        assert data.X.shape == (100, 1)
        assert isinstance(data.X, np.ndarray) is not sparse
        expected = np.zeros((100, 1))
        expected[3 * np.arange(1, entries) - 1] = 1.5
        assert _dense(data.X).tobytes() == expected.tobytes()

    def test_repeated_texts_are_converted_once(self):
        repeated = ["3", "+3", "\uff13", "-0", "0"] * 400
        distinct = [repr(k + 0.5) for k in range(2000)]
        for texts, conversions in ((repeated, 5), (distinct, 2000)):
            assert _conversions(float, texts) == conversions
            converted = np.array(datasets._convert(float, texts))
            assert converted.tobytes() == np.array(list(map(float, texts))).tobytes()

    @pytest.mark.parametrize("label", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_label_reports_line(self, label):
        with pytest.raises(SparseFormatError) as err:
            parse_sparse_text(f"1 1:0.5\n{label} 1:0.2\n1 2:0.3\n")
        assert err.value.line_number == 2
        assert "not finite" in str(err.value)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_reports_line(self, value):
        with pytest.raises(SparseFormatError) as err:
            parse_sparse_text(f"1 1:0.5\n-1 1:0.2\n\n1 1:1 2:{value}\n")
        assert err.value.line_number == 4
        assert "not finite" in str(err.value)


class TestMapLabels:
    def test_zero_one(self):
        np.testing.assert_array_equal(map_labels([0, 1, 0]), [-1.0, 1.0, -1.0])

    def test_identity_on_canonical(self):
        np.testing.assert_array_equal(map_labels([-1, 1]), [-1.0, 1.0])

    def test_three_classes_rejected_with_values(self):
        with pytest.raises(ValueError) as err:
            map_labels([1, 2, 3])
        assert "3" in str(err.value)

    def test_single_noncanonical_value_rejected(self):
        with pytest.raises(ValueError):
            map_labels([5.0, 5.0])

    def test_single_canonical_value_passes(self):
        np.testing.assert_array_equal(map_labels([1.0, 1.0]), [1.0, 1.0])

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        y = rng.choice([-1.0, 1.0], size=50)
        np.testing.assert_array_equal(map_labels(map_labels(y)), y)

    def test_larger_value_maps_positive(self):
        np.testing.assert_array_equal(map_labels([2, 7, 2]), [-1.0, 1.0, -1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_label_rejected(self, bad):
        # np.unique sorts NaN last, so an unchecked NaN turns every label into -1
        with pytest.raises(ValueError, match="finite"):
            map_labels([1.0, bad, 1.0])
        with pytest.raises(ValueError, match="finite"):
            map_labels([0.0, bad, 2.0])


def _assert_equals_checked_set(data: DataSet) -> None:
    """``data`` holds what DataSet builds, with its checks, from its arrays:
    the same values in float64, read-only, and a CSC X in canonical format."""
    checked = DataSet(X=data.X, y=data.y)
    assert type(data.X) is type(checked.X)
    for array, expected in ((data.X, checked.X), (data.y, checked.y)):
        assert array.dtype == expected.dtype == np.float64
        assert array.shape == expected.shape
        assert _dense(array).tobytes() == _dense(expected).tobytes()
    if isinstance(data.X, np.ndarray):
        parts = (data.X,)
    else:
        parts = (data.X.data, data.X.indices, data.X.indptr)
        assert data.X.has_canonical_format
    assert not any(part.flags.writeable for part in (*parts, data.y))


class TestDataSetValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            DataSet(X=np.array([[np.nan]]), y=np.array([1.0]))

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            DataSet(X=np.ones((1, 2)), y=np.array([1.0, 0.5]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            DataSet(X=np.ones((2, 3)), y=np.array([1.0, -1.0]))

    @pytest.mark.parametrize("X", [np.ones(3), np.zeros((0, 3))], ids=["1-d", "no_rows"])
    def test_rejects_degenerate_feature_matrix(self, X):
        with pytest.raises(ValueError, match="feature matrix must be 2-d and non-empty"):
            DataSet(X=X, y=np.array([1.0, -1.0, 1.0]))

    def test_immutable(self):
        data = DataSet(X=np.ones((1, 2)), y=np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            data.X[0, 0] = 5.0

    def test_caller_arrays_are_copied(self):
        X, y = np.ones((2, 3)), np.array([1.0, -1.0, 1.0])
        data = DataSet(X=X, y=y)
        X[0, 0], y[0] = 5.0, -1.0
        np.testing.assert_array_equal(data.X, np.ones((2, 3)))
        np.testing.assert_array_equal(data.y, [1.0, -1.0, 1.0])


def _text_like(M=2000, N=400, per_instance=100, seed=0) -> DataSet:
    """Sparse bag-of-words-like data: ``per_instance`` log counts per instance."""
    rng = np.random.default_rng(seed)
    X = np.zeros((M, N))
    for i in range(N):
        X[rng.choice(M, size=per_instance, replace=False), i] = np.log1p(
            rng.geometric(0.5, size=per_instance))
    return DataSet(X=X, y=np.where(np.arange(N) % 2 == 0, 1.0, -1.0))


def _peak_bytes(action):
    """Peak bytes allocated while ``action()`` runs, and its result."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = action()
        return tracemalloc.get_traced_memory()[1] - before, result
    finally:
        if started:
            tracemalloc.stop()


class TestOneCopyOfX:
    # The matrices that parse, split and standardize allocate become the new
    # data set's X as they are; a second copy would double these peaks.
    def test_parse_peak(self):
        # Term counts repeat and are converted once per distinct text; values
        # that are all distinct are converted one token at a time.
        repeated = _text_like()
        X = np.array(repeated.X)
        X[X != 0] = np.random.default_rng(1).uniform(1.0, 2.0, np.count_nonzero(X))
        for source in (repeated, DataSet(X=X, y=repeated.y)):
            text = format_sparse_text(source)
            peak, data = _peak_bytes(lambda: parse_sparse_text(text))
            assert data.X.shape == (2000, 400)
            assert peak < 2 * data.X.toarray().nbytes
            # Each buffer is freed once read, which keeps the peaks at 0.87
            # and 0.98 times the dense matrix's bytes on these two texts.
            assert peak < 1.1 * data.X.toarray().nbytes

    def test_standardize_and_split_peaks(self):
        data = _text_like()
        peak, scaled = _peak_bytes(lambda: standardize(data))
        assert peak < 2 * scaled.X.nbytes
        peak, _ = _peak_bytes(lambda: split(data, SplitSpec(train_size=200), 0))
        assert peak < 1.5 * data.X.nbytes


class TestSplit:
    def _four_points(self):
        return DataSet(X=np.arange(8.0).reshape(2, 4), y=np.array([1.0, -1.0, 1.0, -1.0]))

    def test_deterministic(self):
        data = self._four_points()
        spec = SplitSpec(train_size=2, seed=7, trials=3)
        a_train, a_test = split(data, spec, 1)
        b_train, b_test = split(data, spec, 1)
        np.testing.assert_array_equal(a_train.X, b_train.X)
        np.testing.assert_array_equal(a_test.X, b_test.X)

    def test_trials_differ_and_partition(self):
        data = self._four_points()
        spec = SplitSpec(train_size=2, seed=7, trials=3)
        for trial in range(3):
            train, test = split(data, spec, trial)
            assert train.instance_count == 2
            assert test.instance_count == 2
            combined = np.concatenate([train.X, test.X], axis=1)
            assert sorted(map(tuple, combined.T)) == sorted(map(tuple, data.X.T))

    def test_train_size_too_large(self):
        with pytest.raises(ValueError):
            split(self._four_points(), SplitSpec(train_size=5), 0)

    def test_trial_index_out_of_range(self):
        with pytest.raises(ValueError):
            split(self._four_points(), SplitSpec(train_size=2, trials=2), 2)

    def test_both_classes_in_train(self):
        # 19 positives and one negative force the resample path on many seeds
        y = np.ones(20)
        y[13] = -1.0
        data = DataSet(X=np.arange(20.0)[None, :], y=y)
        for trial in range(6):
            train, _ = split(data, SplitSpec(train_size=5, seed=3, trials=6), trial)
            assert np.unique(train.y).size == 2

    def test_single_class_dataset_errors(self):
        data = DataSet(X=np.arange(6.0)[None, :], y=np.ones(6))
        with pytest.raises(ValueError):
            split(data, SplitSpec(train_size=3), 0)

    @pytest.mark.parametrize("kwargs", [
        {"train_size": 0}, {"train_size": -2}, {"trials": 0}, {"seed": -1},
        # Counts and the seed must be integers: True would draw a training
        # set of size True, 2.0 and a seed of 1.5 would fail inside split,
        # and 2.5 trials would accept a third trial index.
        {"train_size": True}, {"train_size": 2.0}, {"trials": 2.5}, {"trials": True},
        {"seed": 1.5}, {"seed": False}, {"seed": "0"},
    ])
    def test_spec_rejects_bad_values(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=name):
            SplitSpec(**{"train_size": 2, **kwargs})

    def test_spec_accepts_numpy_integers(self):
        spec = SplitSpec(train_size=np.int64(2), seed=np.uint32(0), trials=np.int32(3))
        train, _ = split(self._four_points(), spec, 2)
        assert train.instance_count == 2


    def test_sets_are_read_only_and_equal_checked_sets(self):
        # split and standardize store arrays they did not check again; the
        # sets equal those that DataSet builds, with its checks, from them.
        rng = np.random.default_rng(5)
        data = DataSet(X=rng.normal(size=(3, 20)), y=np.where(np.arange(20) % 3, 1.0, -1.0))
        train, test = split(data, SplitSpec(train_size=8, seed=2), 1)
        for subset in (train, test, *standardize(train, test), standardize(train)):
            _assert_equals_checked_set(subset)


class TestRoundTrip:
    def test_random_round_trip(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            M = int(rng.integers(1, 9))
            N = int(rng.integers(1, 12))
            X = np.where(rng.random((M, N)) < 0.4, rng.normal(size=(M, N)), 0.0)
            X[0, 0] = X[0, 0] or 1.0  # keep at least one entry
            y = rng.choice([-1.0, 1.0], size=N)
            data = DataSet(X=X, y=y)
            again = parse_sparse_text(format_sparse_text(data))
            np.testing.assert_array_equal(_dense(again.X), data.X)
            np.testing.assert_array_equal(again.y, data.y)

    def test_trailing_zero_feature_preserved(self):
        data = DataSet(X=np.array([[1.0, 2.0], [0.0, 0.0]]), y=np.array([1.0, -1.0]))
        text = format_sparse_text(data)
        again = parse_sparse_text(text)
        assert again.feature_count == 2
        np.testing.assert_array_equal(again.X, data.X)

    def test_save_load(self, tmp_path):
        data = parse_sparse_text("+1 1:0.25 2:-3\n-1 2:1.5\n")
        path = tmp_path / "data.txt"
        datasets.save_dataset(data, path)
        again = datasets.load_dataset(path)
        np.testing.assert_array_equal(again.X, data.X)


    def test_byte_order_mark_is_ignored(self, tmp_path):
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbf+1 1:0.25 2:-3\n-1 2:1.5\n")
        data = datasets.load_dataset(path)
        np.testing.assert_array_equal(data.X, [[0.25, 0.0], [-3.0, 1.5]])
        np.testing.assert_array_equal(data.y, [1.0, -1.0])

class TestParseMatchesReference:
    """The bulk parser against the per-entry reference: bit-identical X and y
    on valid input, and the same exception, message and line on defects."""

    @settings(max_examples=300, deadline=None)
    @given(case=_sparse_lines().flatmap(_render))
    @example(case=("+1 1:0\n", False))  # M = 1, N = 1, a zero value
    @example(case=("-1 3:2.5\r\n\r\n", True))
    @example(case=("1 1:1\n\n0\n", False))  # a label-only line
    @example(case=("+1 1:1\u20282:1\n-1 3:1\x0c4:1\n", False))  # no line breaks
    @example(case=("+1 1:1\r-1 2:1\n", True))  # a stream breaks lines at a carriage return
    @example(case=("+1 +3:\uff13 1_0:1_0.5\n-1 \uff11\uff12:-0.0\n", False))
    @example(case=("+1 01:1 0010:2.5\n-1 3:1 12:0\n", True))  # leading zeros, read from bytes
    def test_valid_input_matches(self, case):
        got, expected = _outcomes(*case)
        assert got == expected
        assert not isinstance(got[0], type)
        # The parse stores its arrays without DataSet's checks, having made them.
        text, as_stream = case
        _assert_equals_checked_set(
            parse_sparse_text(io.StringIO(text, newline=None) if as_stream else text))

    @settings(max_examples=500, deadline=None)
    @given(case=st.one_of(_corrupted_lines(), _BLANK_LINES, _LABEL_LINES).flatmap(_render))
    @example(case=("+1 1:1\n\x0c\n-1 x:1\n", False))  # the defect is on line 3
    @example(case=("+1 1:1\u2028-1 2:1\n", False))  # label-like token, no colon
    @example(case=("+1 1:1\r-1 2:x\n", True))  # line 2 in a stream
    @example(case=("+1 1:1 2:infinity\n", False))
    @example(case=("+1 1:1 3\n-1 0:1", False))  # the first defect wins
    @example(case=("+1 2:1 1:1:1\n", False))  # a second colon, also decreasing
    @example(case=("+1 1:1 99999999999999999999:1 5:1\n", False))
    @example(case=("+1 1:1 9999999999999999999:1\n", False))  # 19 digits, read by int()
    @example(case=("x 1:1\n", False))
    @example(case=("+1 1:1\n-1 2:1\nnan 1:1\n", False))  # a label that is not finite
    @example(case=("+1 -0:1\n", False))  # an index below 1
    @example(case=("+1 1:1 1:2\n", False))  # a repeated index
    @example(case=("+1 :1\n", False))  # an empty index
    @example(case=("+1 1:\n", False))  # an empty value
    @example(case=("+1 1\uff1a1\n", False))  # a full-width colon is no separator
    @example(case=("+1 \ud800:1\n", False))  # a lone surrogate index
    def test_defects_match(self, case):
        got, expected = _outcomes(*case)
        assert got == expected
        assert isinstance(got[0], type)

    @pytest.mark.parametrize("spelling", ["+12", "012", "1_2", "\uff11\uff12"])
    def test_index_spellings_match_ascii_digits(self, monkeypatch, spelling):
        # Index texts of 1 to 18 ASCII digits are read from the text's bytes;
        # any other spelling sends the input to the per-token reader.  Both
        # give the same CSC arrays and labels.
        plain = "+1 1:0.5 12:-2 30:1\n-1 3:1 12:4 29:0\n"
        spelled = plain.replace(" 12:-2", f" {spelling}:-2")
        by_reader = []
        read_tokens = datasets._read_tokens

        def recording(*args):
            by_reader.append(True)
            return read_tokens(*args)

        monkeypatch.setattr(datasets, "_read_tokens", recording)
        expected = parse_sparse_text(plain)
        assert not any(by_reader)
        got = parse_sparse_text(spelled)
        assert any(by_reader) is not (spelling.isascii() and spelling.isdigit())
        assert isinstance(got.X, csc_array) and isinstance(expected.X, csc_array)
        assert got.X.shape == expected.X.shape
        for name in ("data", "indices", "indptr"):
            assert getattr(got.X, name).dtype == getattr(expected.X, name).dtype
            assert getattr(got.X, name).tobytes() == getattr(expected.X, name).tobytes()
        assert got.y.tobytes() == expected.y.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(lines=_pooled_lines(), as_stream=st.booleans())
    def test_repeated_texts_match(self, lines, as_stream):
        with mock.patch.object(datasets, "_read_tokens", wraps=datasets._read_tokens) as read:
            got, expected = _outcomes(_pooled_text(lines), as_stream)
        assert got == expected
        assert not isinstance(got[0], type)
        parts = [token.partition(":") for tokens in lines for token in tokens[1:]]
        # Index texts of ASCII digits are read from bytes; a spelling such as
        # "+1" or a full-width digit sends the input to the per-token reader.
        # Written with plain indices, the same file is read from bytes alone.
        assert read.called is not all(index.isascii() and index.isdigit()
                                      for index, _, _ in parts)
        plain = [[tokens[0]] + [f"{int(index)}:{value}" for index, _, value
                                in (token.partition(":") for token in tokens[1:])]
                 for tokens in lines]
        with mock.patch.object(datasets, "_read_tokens", wraps=datasets._read_tokens) as read:
            assert _outcome(parse_sparse_text, _pooled_text(plain)) == got
        assert not read.called
        # Each distinct value text is converted once.
        values = [value for _, _, value in parts]
        assert _conversions(float, values) == len(set(values)) < len(values)

    @settings(max_examples=25, deadline=None)
    @given(case=_pooled_defects().map(lambda lines: (_pooled_text(lines), False)))
    @example(case=(_DECREASING_THEN_BAD_VALUES, False))
    def test_repeated_bad_texts_after_a_defect_match(self, case):
        got, expected = _outcomes(*case)
        assert got == expected
        assert isinstance(got[0], type)


_FORMAT_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


# The extremes of the float range and a few plain values: formatting a set
# drawn from them formats each distinct value once.
_POOLED_FLOATS = [5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 1e-300,
                  0.5, -3.0, 0.1]


def _format_recording_reprs(monkeypatch, data) -> tuple[str, int]:
    """``format_sparse_text(data)``, and how many times it calls ``repr``,
    counted through a module-level ``repr`` that shadows the builtin."""
    calls = []

    def counting(value):
        calls.append(value)
        return repr(value)

    monkeypatch.setattr(datasets, "repr", counting, raising=False)
    text = format_sparse_text(data)
    monkeypatch.undo()
    return text, len(calls)


class TestFormatMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(X=hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 6)),
                        elements=_FORMAT_VALUES, fill=st.just(0.0)),
           positive=st.lists(st.booleans(), min_size=6, max_size=6))
    @example(X=np.zeros((3, 2)), positive=[True] * 6)  # all zero: only the M:0.0 pin
    @example(X=np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]), positive=[False] * 6)
    @example(X=np.array([[-0.0, 2.0], [0.0, -0.0]]), positive=[True, False] * 3)
    @example(X=np.array([[5e-324]]), positive=[False] * 6)  # M = 1, N = 1
    @example(X=np.array([[1.7976931348623157e308, 0.0, -1.7976931348623157e308]]),
             positive=[True] * 6)
    @example(X=np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 3.0]]),
             positive=[True, False, True] * 2)  # a line with no entries between two with some
    @example(X=np.array([[1.5], [0.0], [0.0]]), positive=[False] * 6)  # the pin on the only line
    @example(X=np.array([[0.0, 0.0, -2.5], [0.0, 0.0, 0.0]]),
             positive=[True, False, False] * 2)  # entries in the last line only; the pin
    def test_matches_reference_and_round_trips(self, X, positive):
        data = DataSet(X=X, y=np.where(positive[: X.shape[1]], 1.0, -1.0))
        text = format_sparse_text(data)
        assert text == _reference_format(data)
        again = parse_sparse_text(text)
        assert again.X.shape == data.X.shape
        # -0.0 is not written, so it reads back as 0.0; every other bit survives
        assert _dense(again.X).tobytes() == (data.X + 0.0).tobytes()
        assert again.y.tobytes() == data.y.tobytes()


    # The ids True and False say whether the entries come from _POOLED_FLOATS.
    @pytest.mark.parametrize("pool, M", [
        pytest.param(_POOLED_FLOATS, 30, id="True"),
        pytest.param(None, 30, id="False"),
        # About 40k entries, about 8 of each of 5000 values: Chao's estimate
        # from a sample of every 64th puts more than 10% of them as distinct.
        pytest.param(np.random.default_rng(6).uniform(1.0, 2.0, 5000), 333, id="5000-of-40k"),
    ])
    def test_repeated_values_are_formatted_once(self, monkeypatch, pool, M):
        # Entries at 30% density drawn from a pool, or all distinct, with
        # stored 0.0 and -0.0 in CSC X; each distinct value is formatted once.
        rng = np.random.default_rng(5)
        N = 400
        drawn = (rng.uniform(1.0, 2.0, size=(M, N)) if pool is None
                 else rng.choice(pool, size=(M, N)))
        X = np.where(rng.random((M, N)) < 0.3, drawn, 0.0)
        X[-1] = 0.0  # the M:0.0 pin
        y = np.where(np.arange(N) % 3, 1.0, -1.0)
        zeros = [(r, c, rng.choice([0.0, -0.0])) for r, c in np.argwhere(X == 0.0)[::7]]
        sparse_set = _csc_set(X, y, zeros)
        dense_set = DataSet(X=_dense(sparse_set.X), y=y)
        written = X[X != 0.0].tolist()
        expected = _reference_format(dense_set)
        for data in (dense_set, sparse_set):
            text, reprs = _format_recording_reprs(monkeypatch, data)
            assert text == expected
            assert reprs == len(set(written))
        assert (len(set(written)) < len(written)) is (pool is not None)


def _csc_set(X, y, zeros=()) -> DataSet:
    """A data set over the CSC form of X that also stores each
    ``(row, column, value)`` of ``zeros``, such as 0.0 or -0.0, explicitly."""
    stored = coo_array(np.asarray(X, dtype=float))
    extra = np.array(zeros, dtype=float).reshape(-1, 3)
    rows = np.concatenate([stored.row, extra[:, 0].astype(int)])
    columns = np.concatenate([stored.col, extra[:, 1].astype(int)])
    values = np.concatenate([stored.data, extra[:, 2]])
    return DataSet(X=coo_array((values, (rows, columns)), shape=stored.shape), y=y)


@st.composite
def _csc_sets(draw):
    """A data set with a CSC X of at most 8 x 6 whose stored entries may hold
    0.0 and -0.0, and whose last feature is all zero about half the time."""
    M, N = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    usable = M - draw(st.integers(0, 1))  # the features that may hold entries
    indices, indptr = [], [0]
    for _ in range(N):
        mask = draw(st.lists(st.booleans(), min_size=usable, max_size=usable))
        indices += [row for row, stored in enumerate(mask) if stored]
        indptr.append(len(indices))
    values = draw(st.lists(_FORMAT_VALUES, min_size=len(indices), max_size=len(indices)))
    positive = draw(st.lists(st.booleans(), min_size=N, max_size=N))
    X = csc_array((np.array(values, dtype=float), np.array(indices, dtype=np.int64),
                   np.array(indptr)), shape=(M, N))
    return DataSet(X=X, y=np.where(positive, 1.0, -1.0))


class TestSparseSets:
    def test_dataset_copies_sums_duplicates_and_freezes(self):
        X = coo_array(([1.0, 2.0, 0.5, -0.0], ([2, 0, 2, 1], [0, 1, 0, 1])), shape=(3, 2))
        data = DataSet(X=X, y=[1.0, -1.0])
        assert isinstance(data.X, csc_array) and data.X.has_canonical_format
        np.testing.assert_array_equal(data.X.toarray(), [[0.0, 2.0], [0.0, 0.0], [1.5, 0.0]])
        X.data[0] = 9.0
        assert data.X[2, 0] == 1.5
        for part in (data.X.data, data.X.indices, data.X.indptr):
            assert not part.flags.writeable
        with pytest.raises(ValueError):
            data.X.data[0] = 5.0

    def test_rejects_non_finite_entries(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="NaN or Inf"):
                DataSet(X=csc_array(np.array([[1.0, 0.0], [0.0, bad]])), y=[1.0, -1.0])

    def test_split_takes_columns_of_the_csc_array(self):
        rng = np.random.default_rng(3)
        X = np.where(rng.random((30, 12)) < 0.1, rng.normal(size=(30, 12)), 0.0)
        y = np.where(np.arange(12) % 2, 1.0, -1.0)
        spec = SplitSpec(train_size=5, seed=4)
        for sparse_part, dense_part in zip(split(_csc_set(X, y), spec, 2),
                                           split(DataSet(X=X, y=y), spec, 2)):
            assert isinstance(sparse_part.X, csc_array) and sparse_part.X.has_canonical_format
            assert sparse_part.X.toarray().tobytes() == dense_part.X.tobytes()
            assert sparse_part.y.tobytes() == dense_part.y.tobytes()
            assert not sparse_part.X.data.flags.writeable

    def test_scaler_and_standardize_give_the_dense_bits(self):
        rng = np.random.default_rng(6)
        X = np.where(rng.random((20, 15)) < 0.15, rng.normal(size=(20, 15)), 0.0)
        y = np.where(np.arange(15) % 3, 1.0, -1.0)
        sparse_set = _csc_set(X, y, [(4, 7, -0.0)])
        dense_set = DataSet(X=_dense(sparse_set.X), y=y)
        assert np.signbit(dense_set.X[4, 7])
        sparse_scaler, dense_scaler = fit_scaler(sparse_set), fit_scaler(dense_set)
        assert sparse_scaler.mean.tobytes() == dense_scaler.mean.tobytes()
        assert sparse_scaler.scale.tobytes() == dense_scaler.scale.tobytes()
        for got, expected in zip(standardize(sparse_set, sparse_set),
                                 standardize(dense_set, dense_set)):
            assert isinstance(got.X, np.ndarray)
            assert got.X.tobytes() == expected.X.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(data=_csc_sets())
    @example(data=_csc_set([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], [1.0, -1.0],
                           [(1, 1, 0.0), (0, 1, -0.0)]))  # stored zeros, zero last feature
    @example(data=_csc_set([[0.0]], [1.0], [(0, 0, -0.0)]))  # nothing to write but the pin
    def test_csc_formats_as_its_dense_copy_and_round_trips(self, data):
        dense = DataSet(X=_dense(data.X), y=data.y)
        text = format_sparse_text(data)
        assert text == format_sparse_text(dense)
        again = parse_sparse_text(text)
        # -0.0 and stored zeros are not written, so they read back as 0.0
        assert _dense(again.X).tobytes() == (dense.X + 0.0).tobytes()
        assert format_sparse_text(again) == text

    def test_format_cost_follows_the_entries_not_the_feature_count(self):
        data = DataSet(X=csc_array(([0.5, -2.0], [2, 6], [0, 1, 2]), shape=(10**6, 2)),
                       y=[1.0, -1.0])
        peak, text = _peak_bytes(lambda: format_sparse_text(data))
        assert text == "+1 3:0.5 1000000:0.0\n-1 7:-2.0\n"
        assert peak < 100_000  # a text for each of the 10^6 features would take 50 MB

    def test_save_writes_the_bytes_of_the_dense_copy(self, tmp_path):
        sparse_set = _csc_set([[0.0, 2.5, 0.0], [1e-300, 0.0, 0.0], [0.0, 0.0, 0.0]],
                              [1.0, -1.0, 1.0], [(2, 0, 0.0), (0, 2, -0.0)])
        datasets.save_dataset(sparse_set, tmp_path / "sparse.txt")
        datasets.save_dataset(DataSet(X=_dense(sparse_set.X), y=sparse_set.y),
                              tmp_path / "dense.txt")
        assert (tmp_path / "sparse.txt").read_bytes() == (tmp_path / "dense.txt").read_bytes()

    @pytest.mark.parametrize("density", [0.05, 0.6])
    def test_parse_format_parse_round_trips(self, density):
        rng = np.random.default_rng(8)
        X = np.where(rng.random((30, 20)) < density, rng.normal(size=(30, 20)), 0.0)
        X[-1] = 0.0
        text = format_sparse_text(DataSet(X=X, y=np.where(np.arange(20) % 2, 1.0, -1.0)))
        first = parse_sparse_text(text)
        second = parse_sparse_text(format_sparse_text(first))
        assert isinstance(first.X, np.ndarray) is (density > 0.27)
        assert type(second.X) is type(first.X)
        assert _dense(second.X).tobytes() == _dense(first.X).tobytes() == X.tobytes()
        assert format_sparse_text(second) == text


class TestStandardize:
    def test_train_statistics(self):
        rng = np.random.default_rng(1)
        train = DataSet(X=rng.normal(3.0, 2.0, size=(4, 50)), y=rng.choice([-1.0, 1.0], 50))
        scaled = standardize(train)
        np.testing.assert_allclose(scaled.X.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(scaled.X.std(axis=1), 1.0, atol=1e-12)

    def test_test_uses_train_statistics(self):
        train = DataSet(X=np.array([[0.0, 2.0]]), y=np.array([1.0, -1.0]))
        test = DataSet(X=np.array([[4.0]]), y=np.array([1.0]))
        _, scaled_test = standardize(train, test)
        # train mean 1, std 1 -> 4 maps to 3
        np.testing.assert_allclose(scaled_test.X, [[3.0]])

    def test_constant_feature(self):
        train = DataSet(X=np.array([[5.0, 5.0], [1.0, 2.0]]), y=np.array([1.0, -1.0]))
        scaled = standardize(train)
        np.testing.assert_allclose(scaled.X[0], [0.0, 0.0])

    def test_given_scaler_is_applied_unchanged(self):
        train = DataSet(X=np.array([[0.0, 2.0], [5.0, 5.0]]), y=np.array([1.0, -1.0]))
        scaler = fit_scaler(train)
        np.testing.assert_array_equal(scaler.mean, [1.0, 5.0])
        np.testing.assert_array_equal(scaler.scale, [1.0, 1.0])
        other = DataSet(X=np.array([[4.0], [7.0]]), y=np.array([1.0]))
        # the scaler fitted on train, not one fitted on the single instance
        np.testing.assert_array_equal(standardize(other, scaler=scaler).X, [[3.0], [2.0]])
        np.testing.assert_array_equal(standardize(train, other)[1].X,
                                      standardize(other, scaler=scaler).X)

    def test_fitted_statistics_are_numpys(self):
        rng = np.random.default_rng(2)
        X = rng.normal(3.0, 2.0, size=(5, 37)) * 10.0 ** rng.integers(-3, 4, size=(5, 1))
        X[1] = 4.0  # a constant feature: scale 1
        scaler = fit_scaler(DataSet(X=X, y=rng.choice([-1.0, 1.0], 37)))
        std = X.std(axis=1)
        assert scaler.mean.tobytes() == X.mean(axis=1).tobytes()
        assert scaler.scale.tobytes() == np.where(std == 0.0, 1.0, std).tobytes()
        assert not (scaler.mean.flags.writeable or scaler.scale.flags.writeable)

    def test_overflowing_training_variance_is_rejected(self):
        # Finite features whose squared deviations pass the largest float.
        train = DataSet(X=np.array([[1e200, -1e200, 0.0]]), y=np.array([1.0, -1.0, 1.0]))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="variance overflows"):
            fit_scaler(train)

    def test_overflowing_test_set_is_rejected(self):
        # A tiny training scale (about 4.7e-151) sends a test value of 1e160
        # past the largest float; the scaled features are checked again.
        train = DataSet(X=np.array([[0.0, 1e-150, 0.0]]), y=np.array([1.0, -1.0, 1.0]))
        test = DataSet(X=np.array([[1e160]]), y=np.array([1.0]))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="NaN or Inf"):
            standardize(train, test)

    def test_scaler_validation(self):
        with pytest.raises(ValueError):
            Scaler(mean=[0.0, 1.0], scale=[1.0])
        with pytest.raises(ValueError):
            Scaler(mean=[0.0], scale=[0.0])
        train = DataSet(X=np.ones((2, 3)), y=np.array([1.0, -1.0, 1.0]))
        with pytest.raises(ValueError):
            standardize(train, scaler=Scaler(mean=[0.0], scale=[1.0]))

    @pytest.mark.parametrize("test_features", [1, 3])
    def test_test_set_feature_count_is_checked(self, test_features):
        # A narrower test set would be broadcast to the train set's width,
        # and a wider one would fail inside numpy.
        train = DataSet(X=np.array([[0.0, 2.0], [1.0, 5.0]]), y=np.array([1.0, -1.0]))
        test = DataSet(X=np.ones((test_features, 3)), y=np.array([1.0, -1.0, 1.0]))
        with pytest.raises(ValueError,
                           match=f"^scaler has 2 features but dataset has {test_features}$"):
            standardize(train, test)
        with pytest.raises(ValueError, match="^scaler has 2 features but dataset has"):
            standardize(train, test, scaler=fit_scaler(train))

import io
import math

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

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


def _outcome(parse, source):
    """What ``parse`` makes of ``source``: the exact bits of X and y, or the
    exception's type, message and line number."""
    try:
        data = parse(source)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line_number", None)
    return data.X.shape, data.X.tobytes(), data.y.tobytes()


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

    def test_immutable(self):
        data = DataSet(X=np.ones((1, 2)), y=np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            data.X[0, 0] = 5.0


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
            np.testing.assert_array_equal(again.X, data.X)
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
    def test_valid_input_matches(self, case):
        got, expected = _outcomes(*case)
        assert got == expected
        assert not isinstance(got[0], type)

    @settings(max_examples=500, deadline=None)
    @given(case=st.one_of(_corrupted_lines(), _BLANK_LINES, _LABEL_LINES).flatmap(_render))
    @example(case=("+1 1:1\n\x0c\n-1 x:1\n", False))  # the defect is on line 3
    @example(case=("+1 1:1\u2028-1 2:1\n", False))  # label-like token, no colon
    @example(case=("+1 1:1\r-1 2:x\n", True))  # line 2 in a stream
    @example(case=("+1 1:1 2:infinity\n", False))
    @example(case=("+1 1:1 3\n-1 0:1", False))  # the first defect wins
    @example(case=("+1 2:1 1:1:1\n", False))  # a second colon, also decreasing
    @example(case=("+1 1:1 99999999999999999999:1 5:1\n", False))
    @example(case=("x 1:1\n", False))
    def test_defects_match(self, case):
        got, expected = _outcomes(*case)
        assert got == expected
        assert isinstance(got[0], type)


_FORMAT_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


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
    def test_matches_reference_and_round_trips(self, X, positive):
        data = DataSet(X=X, y=np.where(positive[: X.shape[1]], 1.0, -1.0))
        text = format_sparse_text(data)
        assert text == _reference_format(data)
        again = parse_sparse_text(text)
        assert again.X.shape == data.X.shape
        # -0.0 is not written, so it reads back as 0.0; every other bit survives
        assert again.X.tobytes() == (data.X + 0.0).tobytes()
        assert again.y.tobytes() == data.y.tobytes()


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

    def test_scaler_validation(self):
        with pytest.raises(ValueError):
            Scaler(mean=[0.0, 1.0], scale=[1.0])
        with pytest.raises(ValueError):
            Scaler(mean=[0.0], scale=[0.0])
        train = DataSet(X=np.ones((2, 3)), y=np.array([1.0, -1.0, 1.0]))
        with pytest.raises(ValueError):
            standardize(train, scaler=Scaler(mean=[0.0], scale=[1.0]))

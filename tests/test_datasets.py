import io

import numpy as np
import pytest

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

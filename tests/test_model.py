import json
import tempfile
from dataclasses import replace
from pathlib import Path

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from scipy.sparse import csc_array, csr_array

from conftest import make_blobs
from xrm import DataSet, Scaler
from xrm.model import (
    EnsembleModel,
    _power_in_place,
    average_component_loss,
    decision_values,
    ensemble_loss,
    load_model,
    model_from_dict,
    model_to_dict,
    predict_all,
    save_model,
    verify_ensemble_bound,
)
from xrm.model import test_error as error_rate


def _model(W, b, lam=1.0, p=2.0):
    return EnsembleModel(W=np.asarray(W, float), b=np.asarray(b, float), lam=lam, p=p)


class TestDecision:
    def test_on_margin(self):
        model = _model([[1.0], [0.0]], [-1.0])
        assert decision_values(model, [[1.0], [0.0]])[0] == 0.0

    def test_constant_model(self):
        model = _model([[0.0], [0.0]], [0.5])
        assert decision_values(model, [[3.0], [-4.0]])[0] == 0.5

    def test_component_averaging(self):
        model = _model([[2.0, 0.0]], [0.0, 0.0])
        assert decision_values(model, [[1.0]])[0] == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            decision_values(_model([[1.0]], [0.0]), [[1.0], [2.0]])

    def test_averages_recomputed(self):
        # The model computes its averaged predictor once, read-only, and a
        # replaced model computes its own.
        rng = np.random.default_rng(0)
        W, b = _columns_with_repeats(rng, 4, 6)
        model = _model(W, b)
        for W, b in ((W, b), (rng.normal(size=(4, 3)), rng.normal(size=3))):
            model = replace(model, W=W, b=b)
            assert model.w_e.tobytes() == W.mean(axis=1).tobytes()
            assert model.b_e == float(b.mean()) and type(model.b_e) is float
            assert not model.w_e.flags.writeable


class TestPredict:
    def test_positive(self):
        assert predict_all(_model([[0.3]], [0.0]), [[1.0]])[0] == 1

    def test_negative(self):
        assert predict_all(_model([[-0.3]], [0.0]), [[1.0]])[0] == -1

    def test_zero_ties_positive(self):
        assert predict_all(_model([[0.0]], [0.0]), [[1.0]])[0] == 1

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        W = rng.normal(size=(3, 2))
        b = rng.normal(size=2)
        X = rng.normal(size=(3, 40))
        base = predict_all(_model(W, b), X)
        for alpha in (0.5, 2.0, 117.0):
            scaled = predict_all(_model(alpha * W, alpha * b), X)
            values = X.T @ _model(W, b).w_e + _model(W, b).b_e
            nonzero = values != 0.0
            np.testing.assert_array_equal(scaled[nonzero], base[nonzero])


class TestLosses:
    def test_zero_on_separated_data(self):
        data = DataSet(X=np.array([[2.0, -2.0]]), y=np.array([1.0, -1.0]))
        model = _model([[1.0]], [0.0])
        assert ensemble_loss(model, data) == 0.0

    def test_zero_model_loss_counts_instances(self):
        data = DataSet(X=np.zeros((2, 3)), y=np.array([1.0, -1.0, 1.0]))
        model = _model(np.zeros((2, 1)), [0.0])
        assert ensemble_loss(model, data) == 3.0

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(2)
        data = DataSet(X=rng.normal(size=(4, 15)), y=rng.choice([-1.0, 1.0], 15))
        W = rng.normal(size=(4, 3))
        b = rng.normal(size=3)
        model = _model(W, b)
        for p in (1.0, 2.0):
            w_e, b_e = W.mean(axis=1), b.mean()
            expected = sum(
                max(0.0, 1.0 - (data.X[:, i] @ w_e + b_e) * data.y[i]) ** p
                for i in range(15)
            )
            assert ensemble_loss(replace(model, p=p), data) == pytest.approx(expected, abs=1e-12)

    def test_identical_components_collapse(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=4)
        data = DataSet(X=rng.normal(size=(4, 10)), y=rng.choice([-1.0, 1.0], 10))
        model = _model(np.tile(w[:, None], (1, 3)), [0.2, 0.2, 0.2])
        assert average_component_loss(model, data) == pytest.approx(ensemble_loss(model, data))

    def test_single_component_collapse(self):
        rng = np.random.default_rng(4)
        data = DataSet(X=rng.normal(size=(3, 8)), y=rng.choice([-1.0, 1.0], 8))
        model = _model(rng.normal(size=(3, 1)), [0.1], p=1.0)
        assert average_component_loss(model, data) == pytest.approx(ensemble_loss(model, data))

    def test_midpoint_convexity_in_averaged_parameters(self):
        rng = np.random.default_rng(5)
        data = DataSet(X=rng.normal(size=(3, 20)), y=rng.choice([-1.0, 1.0], 20))
        for p in (1.0, 2.0):
            for _ in range(50):
                w1, w2 = rng.normal(size=(2, 3))
                b1, b2 = rng.normal(size=2)
                mid = _model(((w1 + w2) / 2)[:, None], [(b1 + b2) / 2], p=p)
                left = _model(w1[:, None], [b1], p=p)
                right = _model(w2[:, None], [b2], p=p)
                assert ensemble_loss(mid, data) <= 0.5 * (
                    ensemble_loss(left, data) + ensemble_loss(right, data)
                ) + 1e-9


class TestPowerKernel:
    # Zeros of both signs, the smallest subnormal, a power that underflows
    # and one that overflows at p > 1.5.
    EDGES = [0.0, -0.0, 5e-324, 1e-300, 1e200]

    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(0, 40),
                      elements=st.floats(0.0, 3e205)))  # x**1.5 overflows above 3.18e205
    def test_matches_pow(self, drawn):
        hinge = np.concatenate((drawn, self.EDGES))
        with np.errstate(over="ignore"):
            for p in (1.0, 1.25, 2.0, 3.0):
                powered = hinge.copy()
                assert _power_in_place(powered, p) is powered
                assert powered.tobytes() == (hinge ** p).tobytes(), p
            expected = hinge ** 1.5
        powered = hinge.copy()
        assert _power_in_place(powered, 1.5) is powered
        # Two correctly rounded operations, sqrt and the product, stay
        # within two units in the last place of pow.
        assert np.all(np.abs(powered - expected) <= 2.0 * np.spacing(expected))

    def test_overflow_gives_inf_as_pow(self):
        hinge = np.array([3.2e205, 1e206])
        with np.errstate(over="ignore"):
            assert np.all(hinge ** 1.5 == np.inf)
            assert np.all(_power_in_place(hinge.copy(), 1.5) == np.inf)


def _columns_with_repeats(rng, M, C):
    """An M x C matrix and C biases in which some components repeat an
    earlier one exactly, some share its weights but not its bias, some
    differ from one by 1 ulp in W or in b, and some differ only in the sign
    of a zero; the rest are drawn afresh."""
    W = rng.normal(size=(M, C))
    b = rng.normal(size=C)
    for c in range(1, C):
        source = int(rng.integers(0, c))
        kind = rng.integers(0, 7)
        if kind == 6:
            continue
        W[:, c], b[c] = W[:, source], b[source]
        if kind == 2:
            b[c] += rng.normal()
        elif kind == 3:
            b[c] = np.nextafter(b[c], np.inf)
        elif kind == 4:
            W[0, c] = np.nextafter(W[0, c], -np.inf)
        elif kind == 5:
            W[0, source] = 0.0
            W[0, c] = -0.0
    return W, b


class TestDistinctComponentLoss:
    """``average_component_loss`` evaluates each distinct component once;
    the reference loops over every column."""

    @staticmethod
    def _reference(W, b, data, p):
        total = 0.0
        for c in range(W.shape[1]):
            margins = 1.0 - (data.X.T @ W[:, c] + b[c]) * data.y
            total += float(np.sum(np.maximum(margins, 0.0) ** p))
        return total / W.shape[1]

    def test_matches_per_column_loop(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            M, C, N = (int(rng.integers(1, 9)), int(rng.integers(1, 13)),
                       int(rng.integers(1, 60)))
            W, b = _columns_with_repeats(rng, M, C)
            W *= rng.uniform(0.1, 5.0)
            data = DataSet(X=rng.normal(size=(M, N)), y=rng.choice([-1.0, 1.0], N))
            model = _model(W, b)
            for p in (1.0, 1.5, 2.0):
                expected = self._reference(W, b, data, p)
                assert average_component_loss(replace(model, p=p), data) == pytest.approx(
                    expected, rel=1e-12, abs=0.0)


class TestSparseFeatures:
    """Evaluation on a CSC feature matrix agrees with its dense copy."""

    def test_matches_dense_copy(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            M, C, N = int(rng.integers(1, 30)), int(rng.integers(1, 6)), int(rng.integers(1, 40))
            X = np.where(rng.random((M, N)) < 0.2, rng.normal(size=(M, N)), 0.0)
            y = rng.choice([-1.0, 1.0], N)
            W, b = _columns_with_repeats(rng, M, C)
            dense, sparse = DataSet(X=X, y=y), DataSet(X=csc_array(X), y=y)
            for p in (1.0, 2.0):
                model = _model(W, b, p=p)
                np.testing.assert_allclose(decision_values(model, sparse.X),
                                           decision_values(model, X), rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(decision_values(model, csr_array(X)),
                                           decision_values(model, X), rtol=1e-12, atol=1e-12)
                for loss in (ensemble_loss, average_component_loss):
                    assert loss(model, sparse) == pytest.approx(loss(model, dense), rel=1e-12,
                                                                abs=1e-12)
                assert verify_ensemble_bound(model, sparse)[0]
                assert error_rate(model, sparse) == error_rate(model, dense)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="2 rows"):
            decision_values(_model([[1.0]], [0.0]), csc_array(np.ones((2, 3))))


class TestEnsembleBound:
    def test_random_draws(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            M = int(rng.integers(1, 7))
            C = int(rng.integers(1, 6))
            N = int(rng.integers(1, 15))
            model = _model(rng.normal(size=(M, C)) * 3, rng.normal(size=C))
            data = DataSet(X=rng.normal(size=(M, N)), y=rng.choice([-1.0, 1.0], N))
            for p in (1.0, 2.0):
                holds, ens, avg = verify_ensemble_bound(replace(model, p=p), data)
                assert holds
                assert ens <= avg + 1e-9

    def test_equality_for_identical_components(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=3)
        model = _model(np.tile(w[:, None], (1, 4)), np.full(4, 0.3))
        data = DataSet(X=rng.normal(size=(3, 12)), y=rng.choice([-1.0, 1.0], 12))
        holds, ens, avg = verify_ensemble_bound(model, data)
        assert holds
        assert ens == pytest.approx(avg, rel=1e-12)


class TestErrorRate:
    def test_perfect(self):
        data = DataSet(X=np.array([[1.0, -1.0]]), y=np.array([1.0, -1.0]))
        assert error_rate(_model([[1.0]], [0.0]), data) == 0.0

    def test_all_flipped(self):
        data = DataSet(X=np.array([[1.0, -1.0]]), y=np.array([1.0, -1.0]))
        assert error_rate(_model([[-1.0]], [0.0]), data) == 1.0

    def test_half_wrong(self):
        data = DataSet(X=np.array([[1.0, -1.0, 1.0, -1.0]]),
                       y=np.array([1.0, -1.0, -1.0, 1.0]))
        assert error_rate(_model([[1.0]], [0.0]), data) == 0.5


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        model = _model(rng.normal(size=(5, 3)), rng.normal(size=3), lam=2.0, p=1.5)
        path = tmp_path / "model.json"
        save_model(model, path)
        again = load_model(path)
        np.testing.assert_array_equal(again.W, model.W)
        np.testing.assert_array_equal(again.b, model.b)
        assert again.lam == model.lam
        assert again.p == model.p

    @pytest.mark.parametrize("number", [2, np.float32(2.0), np.float64(2.0), True],
                             ids=["int", "float32", "float64", "bool"])
    def test_numeric_hyperparameters_round_trip(self, tmp_path, number):
        # The model stores lam and p as plain floats, so every number it
        # accepts saves to a file that loads back with the same fields.
        model = EnsembleModel(W=np.ones((2, 1)), b=[0.0], lam=number, p=number)
        assert type(model.lam) is float and type(model.p) is float
        save_model(model, tmp_path / "model.json")
        again = load_model(tmp_path / "model.json")
        assert again.W.tobytes() == model.W.tobytes()
        assert again.b.tobytes() == model.b.tobytes()
        assert (again.lam, again.p, again.scaler) == (model.lam, model.p, None)
        assert again.lam == float(number)

    def test_version_field(self):
        payload = model_to_dict(_model([[1.0]], [0.0]))
        assert payload["version"] == "xrm-model/3"
        assert payload["column"] == [0]
        assert "feature_mean" not in payload and "feature_scale" not in payload

    def test_each_distinct_column_stored_once(self):
        W = [[1.0, 2.0, 1.0, 1.0], [3.0, 4.0, 3.0, 3.0]]
        payload = model_to_dict(_model(W, [0.0, 0.1, 0.2, 0.0]))
        assert payload["W"] == [1.0, 2.0, 3.0, 4.0]
        assert payload["column"] == [0, 1, 0, 0]
        assert payload["b"] == [0.0, 0.1, 0.2, 0.0]

    def test_scaler_round_trip(self, tmp_path):
        scaler = Scaler(mean=[0.5, -1.0], scale=[2.0, 1.0])
        model = EnsembleModel(W=[[1.0], [2.0]], b=[0.0], lam=2.0, p=2.0, scaler=scaler)
        payload = model_to_dict(model)
        assert payload["version"] == "xrm-model/3"
        assert payload["feature_mean"] == [0.5, -1.0]
        assert payload["feature_scale"] == [2.0, 1.0]
        save_model(model, tmp_path / "model.json")
        again = load_model(tmp_path / "model.json")
        np.testing.assert_array_equal(again.scaler.mean, scaler.mean)
        np.testing.assert_array_equal(again.scaler.scale, scaler.scale)
        assert model_from_dict(model_to_dict(_model([[1.0]], [0.0]))).scaler is None

    def test_scaler_must_match_features(self):
        with pytest.raises(ValueError):
            EnsembleModel(W=[[1.0], [2.0]], b=[0.0], lam=2.0, p=2.0,
                          scaler=Scaler(mean=[0.0], scale=[1.0]))

    @pytest.mark.parametrize("W, b, lam, p, message", [
        (np.zeros((3, 0)), np.zeros(0), 2.0, 2.0, "at least one feature and one component"),
        (np.zeros((0, 2)), np.zeros(2), 2.0, 2.0, "at least one feature and one component"),
        (np.ones((2, 2)), [0.0], 2.0, 2.0, r"bias length \(1,\) does not match 2 components"),
        (np.ones((2, 1)), [0.0], float("nan"), 2.0, "lam must be finite and positive"),
        (np.ones((2, 1)), [0.0], float("inf"), 2.0, "lam must be finite and positive"),
        (np.ones((2, 1)), [0.0], 0.0, 2.0, "lam must be finite and positive"),
        (np.ones((2, 1)), [0.0], 2.0, 0.5, "p must be finite and at least 1"),
        (np.ones((2, 1)), [0.0], 2.0, float("nan"), "p must be finite and at least 1"),
        (np.ones((2, 1)), [0.0], 2.0, float("inf"), "p must be finite and at least 1"),
    ], ids=["no_components", "no_features", "bias_length", "nan_lam", "inf_lam", "zero_lam",
            "power_below_one", "nan_power", "inf_power"])
    def test_degenerate_models_rejected(self, W, b, lam, p, message):
        # The rules of SolverConfig: lam finite and positive, p finite and >= 1.
        with pytest.raises(ValueError, match=message):
            EnsembleModel(W=W, b=b, lam=lam, p=p)

    @pytest.mark.parametrize("field, bad", [("W", [float("nan"), 1.0]), ("W", [1.0, float("inf")]),
                                            ("b", [float("-inf")])])
    def test_non_finite_parameters_rejected(self, tmp_path, field, bad):
        payload = model_to_dict(_model([[1.0], [2.0]], [0.0]))
        payload[field] = bad
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="finite"):
            load_model(path)

    @pytest.mark.parametrize("key, value", [("lambda", 10**400), ("p", 2**1024),
                                            ("W", [1.0, -(10**309)]), ("b", [10**400])])
    def test_integer_beyond_float_range_names_key(self, key, value):
        # A JSON integer too large for a float fails as a ValueError naming
        # its key, not as the OverflowError of the conversion.
        payload = model_to_dict(_model([[1.0], [2.0]], [0.0]))
        payload[key] = value
        with pytest.raises(ValueError, match=f"model's {key} holds an integer too large"):
            model_from_dict(json.loads(json.dumps(payload)))
        payload[key] = 10**300 if key in ("lambda", "p") else [10**300] * len(value)
        model = model_from_dict(payload)  # within the float range it converts as before
        assert 1e300 in (model.lam, model.p, *model.W.ravel(), *model.b)

    def test_unknown_version_rejected(self):
        payload = {**model_to_dict(_model([[1.0]], [0.0])), "version": "xrm-model/999"}
        with pytest.raises(ValueError) as caught:
            model_from_dict(payload)
        assert str(caught.value) == ("unsupported model format 'xrm-model/999'; "
                                     "expected 'xrm-model/3'")

    @pytest.mark.parametrize("version", ["xrm-model/1", "xrm-model/2"])
    def test_earlier_format_rejected(self, version):
        # Files of the formats before xrm-model/3, which stored all C columns
        # of W (/1) and then the scaler (/2), are refused by their version.
        payload = {"version": version, "feature_count": 2, "components": 3,
                   "W": [0.1, -0.0, 0.1, 2.5e-300, 0.0, 2.5e-300], "b": [0.3, -1.0, 0.3],
                   "lambda": 2.0, "p": 1.5}
        if version == "xrm-model/2":
            payload.update(feature_mean=[0.7, -3.0], feature_scale=[1e-3, 4.0])
        with pytest.raises(ValueError) as caught:
            model_from_dict(payload)
        assert str(caught.value) == (f"unsupported model format {version!r}; "
                                     "expected 'xrm-model/3'")

    def test_row_major_layout(self):
        model = _model([[1.0, 2.0], [3.0, 4.0]], [0.0, 0.0])
        assert model_to_dict(model)["W"] == [1.0, 2.0, 3.0, 4.0]

    def test_scaler_keys_come_in_pairs(self):
        payload = model_to_dict(EnsembleModel(W=[[1.0], [2.0]], b=[0.0], lam=2.0, p=2.0,
                                              scaler=Scaler(mean=[0.0, 1.0], scale=[1.0, 2.0])))
        del payload["feature_scale"]
        with pytest.raises(ValueError, match="lacks feature_scale"):
            model_from_dict(payload)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_round_trip_is_bit_identical(self, data):
        # Columns drawn from a small pool repeat exactly; the pool always holds
        # two columns that differ only in the sign of a zero, which must stay
        # two stored columns.
        values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5]), st.floats(-1e3, 1e3))
        M = data.draw(st.integers(1, 4), label="M")
        pool = data.draw(hnp.arrays(float, (M, data.draw(st.integers(1, 3))), elements=values))
        zero_pair = np.repeat(pool[:, :1], 2, axis=1)
        zero_pair[0] = (0.0, -0.0)
        pool = np.hstack([pool, zero_pair])
        drawn = data.draw(st.lists(st.integers(0, pool.shape[1] - 1), max_size=6))
        pattern = data.draw(st.permutations(drawn + [pool.shape[1] - 2, pool.shape[1] - 1]))
        W = pool[:, pattern]
        b = data.draw(hnp.arrays(float, len(pattern), elements=values))
        scaler = None
        if data.draw(st.booleans(), label="scaled"):
            scaler = Scaler(mean=data.draw(hnp.arrays(float, M, elements=values)),
                            scale=data.draw(hnp.arrays(float, M, elements=st.floats(1e-3, 1e3))))
        model = EnsembleModel(W=W, b=b, lam=0.5, p=1.5, scaler=scaler)
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "model.json"
            save_model(model, path)
            payload = json.loads(path.read_text())
            again = load_model(path)
        distinct = {W[:, c].tobytes() for c in range(W.shape[1])}
        assert len(payload["W"]) == M * len(distinct)
        assert again.W.shape == W.shape and again.W.tobytes() == W.tobytes()
        assert again.b.tobytes() == b.tobytes()
        assert (again.lam, again.p) == (0.5, 1.5)
        if scaler is None:
            assert again.scaler is None
        else:
            assert again.scaler.mean.tobytes() == scaler.mean.tobytes()
            assert again.scaler.scale.tobytes() == scaler.scale.tobytes()


def test_trained_model_satisfies_bound():
    from xrm import SolverConfig, train

    data = make_blobs(60, 4, seed=11)
    model, _ = train(data, SolverConfig(components=3, outer_max_iters=120))
    holds, _, _ = verify_ensemble_bound(model, data)
    assert holds

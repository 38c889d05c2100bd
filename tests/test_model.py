import json

import numpy as np
import pytest

from conftest import make_blobs
from xrm import DataSet, Scaler
from xrm.model import (
    EnsembleModel,
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
        rng = np.random.default_rng(0)
        W = rng.normal(size=(4, 3))
        b = rng.normal(size=3)
        model = _model(W, b)
        np.testing.assert_allclose(model.w_e, W.mean(axis=1))
        assert model.b_e == pytest.approx(b.mean())


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
        assert ensemble_loss(model, data, p=2) == 0.0

    def test_zero_model_loss_counts_instances(self):
        data = DataSet(X=np.zeros((2, 3)), y=np.array([1.0, -1.0, 1.0]))
        model = _model(np.zeros((2, 1)), [0.0])
        assert ensemble_loss(model, data, p=2) == 3.0

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
            assert ensemble_loss(model, data, p=p) == pytest.approx(expected, abs=1e-12)

    def test_identical_components_collapse(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=4)
        data = DataSet(X=rng.normal(size=(4, 10)), y=rng.choice([-1.0, 1.0], 10))
        model = _model(np.tile(w[:, None], (1, 3)), [0.2, 0.2, 0.2])
        assert average_component_loss(model, data, p=2) == pytest.approx(
            ensemble_loss(model, data, p=2)
        )

    def test_single_component_collapse(self):
        rng = np.random.default_rng(4)
        data = DataSet(X=rng.normal(size=(3, 8)), y=rng.choice([-1.0, 1.0], 8))
        model = _model(rng.normal(size=(3, 1)), [0.1])
        assert average_component_loss(model, data, p=1) == pytest.approx(
            ensemble_loss(model, data, p=1)
        )

    def test_midpoint_convexity_in_averaged_parameters(self):
        rng = np.random.default_rng(5)
        data = DataSet(X=rng.normal(size=(3, 20)), y=rng.choice([-1.0, 1.0], 20))
        for p in (1.0, 2.0):
            for _ in range(50):
                w1, w2 = rng.normal(size=(2, 3))
                b1, b2 = rng.normal(size=2)
                mid = _model(((w1 + w2) / 2)[:, None], [(b1 + b2) / 2])
                left = _model(w1[:, None], [b1])
                right = _model(w2[:, None], [b2])
                assert ensemble_loss(mid, data, p=p) <= 0.5 * (
                    ensemble_loss(left, data, p=p) + ensemble_loss(right, data, p=p)
                ) + 1e-9


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
                holds, ens, avg = verify_ensemble_bound(model, data, p=p)
                assert holds
                assert ens <= avg + 1e-9

    def test_equality_for_identical_components(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=3)
        model = _model(np.tile(w[:, None], (1, 4)), np.full(4, 0.3))
        data = DataSet(X=rng.normal(size=(3, 12)), y=rng.choice([-1.0, 1.0], 12))
        holds, ens, avg = verify_ensemble_bound(model, data, p=2)
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

    def test_version_field(self):
        payload = model_to_dict(_model([[1.0]], [0.0]))
        assert payload["version"] == "xrm-model/1"

    def test_scaler_round_trip(self, tmp_path):
        scaler = Scaler(mean=[0.5, -1.0], scale=[2.0, 1.0])
        model = EnsembleModel(W=[[1.0], [2.0]], b=[0.0], lam=2.0, p=2.0, scaler=scaler)
        payload = model_to_dict(model)
        assert payload["version"] == "xrm-model/2"
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

    @pytest.mark.parametrize("field, bad", [("W", [float("nan"), 1.0]), ("W", [1.0, float("inf")]),
                                            ("b", [float("-inf")])])
    def test_non_finite_parameters_rejected(self, tmp_path, field, bad):
        payload = model_to_dict(_model([[1.0], [2.0]], [0.0]))
        payload[field] = bad
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="finite"):
            load_model(path)

    def test_unknown_version_rejected(self):
        payload = model_to_dict(_model([[1.0]], [0.0]))
        payload["version"] = "xrm-model/999"
        with pytest.raises(ValueError):
            model_from_dict(payload)

    def test_row_major_layout(self):
        model = _model([[1.0, 2.0], [3.0, 4.0]], [0.0, 0.0])
        assert model_to_dict(model)["W"] == [1.0, 2.0, 3.0, 4.0]


def test_trained_model_satisfies_bound():
    from xrm import SolverConfig, train

    data = make_blobs(60, 4, seed=11)
    model, _ = train(data, SolverConfig(components=3, outer_max_iters=120))
    holds, _, _ = verify_ensemble_bound(model, data)
    assert holds

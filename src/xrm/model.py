"""Trained ensemble representation, prediction, and loss evaluation.

An ensemble holds C linear components (columns of W with biases b) and
predicts with their uniform average (w_e, b_e).  By convexity of the powered
hinge, the averaged predictor's loss never exceeds the mean component loss;
``verify_ensemble_bound`` checks that numerically.

A model trained on standardized features carries the training
:class:`~xrm.datasets.Scaler`; prediction here works on features that are
already transformed, and callers apply ``model.scaler`` first.  Such a model
is saved as ``xrm-model/2``; a model without a scaler is saved as
``xrm-model/1``, and both load.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datasets import Scaler

MODEL_FORMAT_VERSION = "xrm-model/1"
SCALED_MODEL_FORMAT_VERSION = "xrm-model/2"  # adds feature_mean and feature_scale

_BOUND_TOL = 1e-9


@dataclass(frozen=True)
class EnsembleModel:
    """Component weights W (features x components), biases b, the training
    hyperparameters recorded for provenance, and the feature scaler the model
    was trained under (None when trained on raw features)."""

    W: np.ndarray
    b: np.ndarray
    lam: float
    p: float
    scaler: Scaler | None = None

    def __post_init__(self):
        W = np.array(self.W, dtype=float)
        b = np.array(self.b, dtype=float)
        if W.ndim != 2:
            raise ValueError(f"W must be a matrix, got shape {W.shape}")
        if b.shape != (W.shape[1],):
            raise ValueError(f"bias length {b.shape} does not match {W.shape[1]} components")
        if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
            raise ValueError("weights and biases must be finite")
        if self.scaler is not None and self.scaler.mean.size != W.shape[0]:
            raise ValueError(f"scaler has {self.scaler.mean.size} features but W has {W.shape[0]}")
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "b", b)
        self.W.setflags(write=False)
        self.b.setflags(write=False)

    @property
    def feature_count(self) -> int:
        return self.W.shape[0]

    @property
    def components(self) -> int:
        return self.W.shape[1]

    @property
    def w_e(self) -> np.ndarray:
        """Averaged ensemble weights, recomputed from W."""
        return self.W.mean(axis=1)

    @property
    def b_e(self) -> float:
        """Averaged ensemble bias, recomputed from b."""
        return float(self.b.mean())


def decision_values(model: EnsembleModel, X) -> np.ndarray:
    """Ensemble decision values for a column-major instance matrix."""
    X = np.asarray(X, dtype=float)
    if X.shape[0] != model.feature_count:
        raise ValueError(f"matrix with {X.shape[0]} rows does not match {model.feature_count} features")
    return X.T @ model.w_e + model.b_e


def predict_all(model: EnsembleModel, X) -> np.ndarray:
    """Sign of each decision value as +/-1.0; an exact zero maps to +1."""
    return np.where(decision_values(model, X) >= 0.0, 1.0, -1.0)


def _powered_hinge(margins: np.ndarray, p: float) -> np.ndarray:
    return np.maximum(margins, 0.0) ** p


def ensemble_loss(model: EnsembleModel, data, p: float | None = None) -> float:
    """Powered hinge loss of the averaged predictor, summed over instances."""
    p = model.p if p is None else p
    margins = 1.0 - decision_values(model, data.X) * data.y
    return float(_powered_hinge(margins, p).sum())


def average_component_loss(model: EnsembleModel, data, p: float | None = None) -> float:
    """Mean over components of each component's summed powered hinge loss."""
    p = model.p if p is None else p
    scores = data.X.T @ model.W + model.b  # instances x components
    margins = 1.0 - scores * data.y[:, None]
    return float(_powered_hinge(margins, p).sum() / model.components)


def verify_ensemble_bound(model: EnsembleModel, data, p: float | None = None):
    """Check that the averaged predictor's loss is bounded by the mean
    component loss.  Returns (holds, ensemble value, average value)."""
    ens = ensemble_loss(model, data, p)
    avg = average_component_loss(model, data, p)
    return ens <= avg + _BOUND_TOL, ens, avg


def test_error(model: EnsembleModel, data) -> float:
    """Fraction of instances the ensemble misclassifies."""
    if data.instance_count < 1:
        raise ValueError("dataset is empty")
    return float(np.mean(predict_all(model, data.X) != data.y))


def model_to_dict(model: EnsembleModel) -> dict:
    payload = {
        "version": MODEL_FORMAT_VERSION if model.scaler is None else SCALED_MODEL_FORMAT_VERSION,
        "feature_count": model.feature_count,
        "components": model.components,
        "W": model.W.ravel(order="C").tolist(),
        "b": model.b.tolist(),
        "lambda": model.lam,
        "p": model.p,
    }
    if model.scaler is not None:
        payload["feature_mean"] = model.scaler.mean.tolist()
        payload["feature_scale"] = model.scaler.scale.tolist()
    return payload


def model_from_dict(payload: dict) -> EnsembleModel:
    """The model a :func:`model_to_dict` payload describes; raises ValueError
    unless the payload is an object of a known format holding every key of
    that format, each with a value of a usable type."""
    if not isinstance(payload, dict):
        raise ValueError(f"model file must hold a JSON object, got {type(payload).__name__}")
    version = payload.get("version")
    if version not in (MODEL_FORMAT_VERSION, SCALED_MODEL_FORMAT_VERSION):
        raise ValueError(f"unsupported model format {version!r}; expected "
                         f"{MODEL_FORMAT_VERSION!r} or {SCALED_MODEL_FORMAT_VERSION!r}")
    required = ["feature_count", "components", "W", "b", "lambda", "p"]
    if version == SCALED_MODEL_FORMAT_VERSION:
        required += ["feature_mean", "feature_scale"]
    missing = [key for key in required if key not in payload]
    if missing:
        raise ValueError(f"{version} model lacks {', '.join(missing)}")
    try:
        M = int(payload["feature_count"])
        C = int(payload["components"])
        W = np.asarray(payload["W"], dtype=float).reshape(M, C)
        scaler = None
        if version == SCALED_MODEL_FORMAT_VERSION:
            scaler = Scaler(mean=payload["feature_mean"], scale=payload["feature_scale"])
        return EnsembleModel(W=W, b=np.asarray(payload["b"], dtype=float),
                             lam=float(payload["lambda"]), p=float(payload["p"]), scaler=scaler)
    except TypeError as exc:  # a JSON null, list or object where a number belongs
        raise ValueError(f"{version} model holds a value of the wrong type: {exc}") from exc


def save_model(model: EnsembleModel, path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model)) + "\n", encoding="utf-8")


def load_model(path) -> EnsembleModel:
    with open(path, "r", encoding="utf-8") as handle:
        return model_from_dict(json.load(handle))

"""Trained ensemble representation, prediction, and loss evaluation.

An ensemble holds C linear components (columns of W with biases b) and
predicts with their uniform average (w_e, b_e).  By convexity of the powered
hinge, the averaged predictor's loss never exceeds the mean component loss;
``verify_ensemble_bound`` checks that numerically.  The mean component loss
is computed once per distinct component and weighted by its count, so the C
equal columns that ``train`` returns cost as much as one.

A model trained on standardized features carries the training
:class:`~xrm.datasets.Scaler`; prediction here works on features that are
already transformed, and callers apply ``model.scaler`` first.

Models are saved as ``xrm-model/3``: the distinct columns of W, each once, as
a row-major M x U list ``W``, and a list ``column`` of C indices that names
each component's stored column.  ``b`` keeps all C biases, and a model with
a scaler adds ``feature_mean`` and ``feature_scale``.  A ``wide`` benchmark
model (M = 2000, C = 10 equal columns) takes 44 kB instead of the 442 kB of
one column per component.  Files of the earlier formats still load:
``xrm-model/1`` (row-major M x C ``W``, no scaler) and ``xrm-model/2``
(``/1`` plus the scaler keys).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datasets import Scaler
from .diversity import _distinct_columns

MODEL_FORMAT_VERSION = "xrm-model/3"
_EARLIER_VERSIONS = ("xrm-model/1", "xrm-model/2")  # every column stored; /2 adds the scaler
_SCALER_KEYS = ("feature_mean", "feature_scale")

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
    first, inverse = _distinct_columns(model.W, model.b)
    scores = model.W[:, first].T @ data.X + model.b[first, None]  # distinct components x instances
    margins = 1.0 - scores * data.y
    losses = _powered_hinge(margins, p).sum(axis=1)
    return float(losses @ np.bincount(inverse) / model.components)


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
    first, inverse = _distinct_columns(model.W)
    payload = {
        "version": MODEL_FORMAT_VERSION,
        "feature_count": model.feature_count,
        "components": model.components,
        "W": model.W[:, first].ravel(order="C").tolist(),
        "column": inverse.tolist(),
        "b": model.b.tolist(),
        "lambda": model.lam,
        "p": model.p,
    }
    if model.scaler is not None:
        payload["feature_mean"] = model.scaler.mean.tolist()
        payload["feature_scale"] = model.scaler.scale.tolist()
    return payload


def _expand_stored_columns(stored: np.ndarray, C: int, column) -> np.ndarray:
    """The M x C weights of an ``xrm-model/3`` payload: its M x U stored
    columns, repeated as its ``column`` list says; raises ValueError naming
    the key that does not fit."""
    version = MODEL_FORMAT_VERSION
    U = stored.shape[1]
    if not isinstance(column, list) or len(column) != C:
        raise ValueError(f"{version} model's column must list {C} indices, one per component")
    if not all(type(index) is int and 0 <= index < U for index in column):
        raise ValueError(f"{version} model's column holds an entry that is not an index "
                         f"in 0..{U - 1} of its {U} stored columns")
    if len(set(column)) != U:
        raise ValueError(f"{version} model's column leaves some of its {U} stored columns unused")
    return stored[:, column]


def model_from_dict(payload: dict) -> EnsembleModel:
    """The model a :func:`model_to_dict` payload describes, or one of an
    earlier format; raises ValueError unless the payload is an object of a
    known format holding every key of that format with a usable value, and
    ``feature_count`` and ``components`` are JSON integers of at least 1."""
    if not isinstance(payload, dict):
        raise ValueError(f"model file must hold a JSON object, got {type(payload).__name__}")
    version = payload.get("version")
    known = (MODEL_FORMAT_VERSION, *_EARLIER_VERSIONS)
    if version not in known:
        raise ValueError(f"unsupported model format {version!r}; expected one of "
                         f"{', '.join(map(repr, known))}")
    required = ["feature_count", "components", "W", "b", "lambda", "p"]
    if version == MODEL_FORMAT_VERSION:
        required.append("column")
    scaled = (version == "xrm-model/2"
              or (version == MODEL_FORMAT_VERSION and any(key in payload for key in _SCALER_KEYS)))
    if scaled:
        required += _SCALER_KEYS
    missing = [key for key in required if key not in payload]
    if missing:
        raise ValueError(f"{version} model lacks {', '.join(missing)}")
    try:
        M, C = payload["feature_count"], payload["components"]
        for key, count in (("feature_count", M), ("components", C)):
            if type(count) is not int:  # bool is a subclass of int
                raise TypeError(f"{key} must be an integer, got {count!r}")
        if C < 1:
            raise ValueError(f"{version} model's components is {C}, not a positive integer")
        stored = np.asarray(payload["W"], dtype=float)
        if M < 1 or stored.size == 0 or stored.size % M:
            raise ValueError(f"{version} model's W holds {stored.size} values, "
                             f"not a positive multiple of feature_count {M}")
        if version == MODEL_FORMAT_VERSION:
            W = _expand_stored_columns(stored.reshape(M, -1), C, payload["column"])
        else:
            W = stored.reshape(M, C)
        scaler = None
        if scaled:
            scaler = Scaler(mean=payload["feature_mean"], scale=payload["feature_scale"])
        return EnsembleModel(W=W, b=np.asarray(payload["b"], dtype=float),
                             lam=float(payload["lambda"]), p=float(payload["p"]), scaler=scaler)
    except TypeError as exc:  # a null, list or object for a number, or a non-integer count
        raise ValueError(f"{version} model holds a value of the wrong type: {exc}") from exc


def save_model(model: EnsembleModel, path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model)) + "\n", encoding="utf-8")


def load_model(path) -> EnsembleModel:
    with open(path, "r", encoding="utf-8") as handle:
        return model_from_dict(json.load(handle))

"""Trained ensemble representation, prediction, and loss evaluation.

An ensemble holds C linear components (columns of W with biases b) and
predicts with their uniform average (w_e, b_e).  By convexity of the powered
hinge, the averaged predictor's loss never exceeds the mean component loss,
which ``verify_ensemble_bound`` checks.  The mean component loss and the
model file take each distinct component once, with its count, so the C
equal columns that ``train`` returns cost as much as one.  Every loss is
taken at the model's own ``p``; for another power q, pass
``dataclasses.replace(model, p=q)``.  Callers apply ``model.scaler``, the
training :class:`~xrm.datasets.Scaler`, before prediction.

Models are saved as ``xrm-model/3``: the distinct columns of W, each once, as
a row-major M x U list ``W``, a list ``column`` of C indices that names each
component's stored column, all C biases ``b``, and, with a scaler,
``feature_mean`` and ``feature_scale``.  No other format loads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .datasets import Scaler, _is_sparse, _store_frozen
from .diversity import _distinct_columns

MODEL_FORMAT_VERSION = "xrm-model/3"
_SCALER_KEYS = ("feature_mean", "feature_scale")

_BOUND_TOL = 1e-9


@dataclass(frozen=True)
class EnsembleModel:
    """Component weights W (features x components), biases b, the training
    hyperparameters, which obey the rules of :class:`~xrm.solver.SolverConfig`,
    and the feature scaler the model was trained under, or None.  The
    averaged weights ``w_e`` (read-only) and bias ``b_e`` are derived once,
    when the model is built."""

    W: np.ndarray
    b: np.ndarray
    lam: float
    p: float
    scaler: Scaler | None = None
    w_e: np.ndarray = field(init=False, repr=False, compare=False)
    b_e: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        W = np.array(self.W, dtype=float)
        b = np.array(self.b, dtype=float)
        if W.ndim != 2 or 0 in W.shape:
            raise ValueError(f"W must be a matrix with at least one feature and one component, "
                             f"got shape {W.shape}")
        if b.shape != (W.shape[1],):
            raise ValueError(f"bias length {b.shape} does not match {W.shape[1]} components")
        if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
            raise ValueError("weights and biases must be finite")
        if not 0 < self.lam < np.inf:  # NaN fails every comparison
            raise ValueError(f"lam must be finite and positive, got {self.lam}")
        if not 1 <= self.p < np.inf:
            raise ValueError(f"p must be finite and at least 1, got {self.p}")
        if self.scaler is not None and self.scaler.mean.size != W.shape[0]:
            raise ValueError(f"scaler has {self.scaler.mean.size} features but W has {W.shape[0]}")
        _store_frozen(self, W=W, b=b, w_e=W.mean(axis=1))
        # Plain floats, which save_model writes as JSON numbers that load_model reads back.
        for name, value in (("lam", self.lam), ("p", self.p), ("b_e", b.mean())):
            object.__setattr__(self, name, float(value))

    @property
    def feature_count(self) -> int:
        return self.W.shape[0]

    @property
    def components(self) -> int:
        return self.W.shape[1]


def decision_values(model: EnsembleModel, X) -> np.ndarray:
    """Ensemble decision values for a column-major instance matrix, dense
    or scipy.sparse; a sparse one is multiplied as it is stored."""
    if not _is_sparse(X):
        X = np.asarray(X, dtype=float)
    if X.shape[0] != model.feature_count:
        raise ValueError(f"matrix with {X.shape[0]} rows does not match {model.feature_count} features")
    return X.T @ model.w_e + model.b_e


def predict_all(model: EnsembleModel, X) -> np.ndarray:
    """Sign of each decision value as +/-1.0; an exact zero maps to +1."""
    return np.where(decision_values(model, X) >= 0.0, 1.0, -1.0)


def _power_in_place(hinge: np.ndarray, p: float) -> np.ndarray:
    """Raise the non-negative array ``hinge`` to the power p in place and
    return it: at p = 1.5 by multiplying it by its square root, which is
    faster than ``pow`` and within two units in the last place of
    ``hinge ** 1.5``; at p = 2 by squaring it and at p = 1 not at all, both
    with the bits of ``hinge ** p``; and at any other p by ``hinge **= p``."""
    if p == 1.5:
        hinge *= np.sqrt(hinge)
    elif p == 2:
        np.square(hinge, out=hinge)
    elif p != 1:
        hinge **= p
    return hinge


def _powered_hinge(margins: np.ndarray, p: float) -> np.ndarray:
    return _power_in_place(np.maximum(margins, 0.0), p)


def ensemble_loss(model: EnsembleModel, data) -> float:
    """Powered hinge loss of the averaged predictor, summed over instances."""
    margins = 1.0 - decision_values(model, data.X) * data.y
    return float(_powered_hinge(margins, model.p).sum())


def average_component_loss(model: EnsembleModel, data) -> float:
    """Mean over components of each component's summed powered hinge loss."""
    first, inverse = _distinct_columns(model.W, model.b)
    scores = (data.X.T @ model.W[:, first]).T + model.b[first, None]  # components x instances
    margins = 1.0 - scores * data.y
    losses = _powered_hinge(margins, model.p).sum(axis=1)
    return float(losses @ np.bincount(inverse) / model.components)


def verify_ensemble_bound(model: EnsembleModel, data):
    """Check that the averaged predictor's loss is bounded by the mean
    component loss.  Returns (holds, ensemble value, average value)."""
    ens = ensemble_loss(model, data)
    avg = average_component_loss(model, data)
    return ens <= avg + _BOUND_TOL, ens, avg


def test_error(model: EnsembleModel, data) -> float:
    """Fraction of instances the ensemble misclassifies."""
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
    """The model a :func:`model_to_dict` payload describes; raises
    ValueError unless the payload is an ``xrm-model/3`` object holding every
    key of that format with a value of the right JSON type within the float
    range, ``feature_count`` and ``components`` are integers of at least 1,
    ``W`` holds a positive multiple of M values, and ``column`` lists C
    indices that use every stored column."""
    if not isinstance(payload, dict):
        raise ValueError(f"model file must hold a JSON object, got {type(payload).__name__}")
    version = payload.get("version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format {version!r}; expected {MODEL_FORMAT_VERSION!r}")
    required = ["feature_count", "components", "W", "b", "lambda", "p", "column"]
    scaled = any(key in payload for key in _SCALER_KEYS)
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
        # json.load reads a JSON number as int or float, never as bool or str.
        numbers = {}
        for key in ("lambda", "p"):
            if type(payload[key]) not in (int, float):
                raise TypeError(f"{key} must be a number, got {payload[key]!r}")
            numbers[key] = float(payload[key])
        for key in ("W", "b", *(_SCALER_KEYS if scaled else ())):
            values = payload[key]
            if not isinstance(values, list) or not set(map(type, values)) <= {int, float}:
                raise ValueError(f"{version} model's {key} must be a flat list of numbers")
            numbers[key] = np.asarray(values, dtype=float)
        stored = numbers["W"]
        if M < 1 or stored.size == 0 or stored.size % M:
            raise ValueError(f"{version} model's W holds {stored.size} values, "
                             f"not a positive multiple of feature_count {M}")
        W = _expand_stored_columns(stored.reshape(M, -1), C, payload["column"])
        scaler = None
        if scaled:
            scaler = Scaler(mean=numbers["feature_mean"], scale=numbers["feature_scale"])
        return EnsembleModel(W=W, b=numbers["b"], lam=numbers["lambda"], p=numbers["p"],
                             scaler=scaler)
    except TypeError as exc:  # a count that is not an integer, or a hyperparameter not a number
        raise ValueError(f"{version} model holds a value of the wrong type: {exc}") from exc
    except OverflowError as exc:  # only the conversions above overflow, so key names the value
        raise ValueError(f"{version} model's {key} holds an integer too large for a float") from exc


def model_text(model: EnsembleModel) -> str:
    """The text of ``model``'s file, as ``save_model`` writes it."""
    return json.dumps(model_to_dict(model)) + "\n"


def save_model(model: EnsembleModel, path) -> None:
    Path(path).write_text(model_text(model), encoding="utf-8")


def load_model(path) -> EnsembleModel:
    with open(path, "r", encoding="utf-8") as handle:
        return model_from_dict(json.load(handle))

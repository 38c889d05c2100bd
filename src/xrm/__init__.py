"""Diverse linear max-margin ensembles with exclusivity regularization.

Train C linear classifiers jointly so that a hinge-style loss and a pairwise
exclusivity penalty are minimized together, then predict with their average.
The solver is an augmented Lagrangian scheme with closed-form block updates;
:mod:`xrm.oracles` holds slow independent references used for verification.
"""

from .datasets import (
    DataSet,
    Scaler,
    SparseFormatError,
    SplitSpec,
    fit_scaler,
    format_sparse_text,
    load_dataset,
    map_labels,
    parse_sparse_text,
    save_dataset,
    split,
    standardize,
)
from .diversity import (
    DiversityReport,
    diversity_report,
    exclusivity,
    exclusivity_regularizer,
    relaxed_exclusivity,
)
from .model import (
    EnsembleModel,
    average_component_loss,
    decision_values,
    ensemble_loss,
    load_model,
    predict_all,
    save_model,
    test_error,
    verify_ensemble_bound,
)
from .solver import (
    DivergenceError,
    SolverConfig,
    TrainReport,
    train,
)

__all__ = [
    "DataSet",
    "Scaler",
    "SparseFormatError",
    "SplitSpec",
    "fit_scaler",
    "format_sparse_text",
    "load_dataset",
    "map_labels",
    "parse_sparse_text",
    "save_dataset",
    "split",
    "standardize",
    "DiversityReport",
    "diversity_report",
    "exclusivity",
    "exclusivity_regularizer",
    "relaxed_exclusivity",
    "EnsembleModel",
    "average_component_loss",
    "decision_values",
    "ensemble_loss",
    "load_model",
    "predict_all",
    "save_model",
    "test_error",
    "verify_ensemble_bound",
    "DivergenceError",
    "SolverConfig",
    "TrainReport",
    "train",
]

__version__ = "0.1.0"

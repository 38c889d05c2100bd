import csv
import errno
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import make_blobs, make_gram_overflow, make_ill_scaled, random_instance
from xrm import (DataSet, datasets, fit_scaler, load_dataset, load_model, save_dataset, solver,
                 standardize)
from xrm import cli
from xrm.cli import build_parser, main
from xrm.model import test_error as error_rate


def _count_calls(monkeypatch, module, *names):
    """Wrap each named function of ``module`` to count its calls."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


# A valid model of 3 features and 1 component, and header changes that the
# loader rejects with an error naming the key.
_HEADER_BASE = {"feature_count": 3, "components": 1, "W": [0.5, -1.0, 2.0], "column": [0],
                "b": [0.0], "lambda": 2.0, "p": 2.0}
_HEADER_BASES = {"xrm-model/3": _HEADER_BASE}
_WRONG_TYPE = "model holds a value of the wrong type: "
_BAD_HEADERS = [
    ("negative_feature_count", {"feature_count": -1},
     "model's W holds 3 values, not a positive multiple of feature_count -1"),
    ("zero_feature_count", {"feature_count": 0},
     "model's W holds 3 values, not a positive multiple of feature_count 0"),
    ("float_feature_count", {"feature_count": 2.9},
     _WRONG_TYPE + "feature_count must be an integer, got 2.9"),
    ("bool_feature_count", {"feature_count": True},
     _WRONG_TYPE + "feature_count must be an integer, got True"),
    ("string_feature_count", {"feature_count": "2"},
     _WRONG_TYPE + "feature_count must be an integer, got '2'"),
    ("no_components", {"components": 0, "W": [], "b": []},
     "model's components is 0, not a positive integer"),
    ("float_components", {"components": 1.0},
     _WRONG_TYPE + "components must be an integer, got 1.0"),
    ("bool_components", {"components": True},
     _WRONG_TYPE + "components must be an integer, got True"),
    ("string_components", {"components": "1"},
     _WRONG_TYPE + "components must be an integer, got '1'"),
    ("nested_W", {"W": [[0.5], [-1.0], [2.0]]}, "model's W must be a flat list of numbers"),
    ("ragged_W", {"W": [[0.5, -1.0], [2.0]]}, "model's W must be a flat list of numbers"),
    ("string_W", {"W": ["0.5", "-1", "2"]}, "model's W must be a flat list of numbers"),
    ("bool_W", {"W": [0.5, True, 2.0]}, "model's W must be a flat list of numbers"),
    ("string_b", {"b": ["0"]}, "model's b must be a flat list of numbers"),
    ("bool_b", {"b": [True]}, "model's b must be a flat list of numbers"),
    ("scalar_b", {"b": 0.0}, "model's b must be a flat list of numbers"),
    ("string_lambda", {"lambda": "2"}, _WRONG_TYPE + "lambda must be a number, got '2'"),
    ("bool_lambda", {"lambda": True}, _WRONG_TYPE + "lambda must be a number, got True"),
    ("null_p", {"p": None}, _WRONG_TYPE + "p must be a number, got None"),
    ("bool_p", {"p": True}, _WRONG_TYPE + "p must be a number, got True"),
    ("huge_lambda", {"lambda": 10**400}, "model's lambda holds an integer too large for a float"),
    ("huge_p", {"p": -(10**400)}, "model's p holds an integer too large for a float"),
    ("huge_W", {"W": [0.5, 10**400, 2.0]}, "model's W holds an integer too large for a float"),
    ("huge_b", {"b": [10**400]}, "model's b holds an integer too large for a float"),
]
# Scaler changes that the loader rejects.
_SCALED_VERSIONS = ("xrm-model/3",)
_BAD_SCALERS = [
    ("string_feature_mean", {"feature_mean": ["0", "0", "0"], "feature_scale": [1.0, 1.0, 1.0]},
     "model's feature_mean must be a flat list of numbers"),
    ("bool_feature_scale", {"feature_mean": [0.0, 0.0, 0.0], "feature_scale": [1.0, True, 1.0]},
     "model's feature_scale must be a flat list of numbers"),
    ("huge_feature_mean", {"feature_mean": [0, 10**400, 0], "feature_scale": [1.0, 1.0, 1.0]},
     "model's feature_mean holds an integer too large for a float"),
]
# Files of the formats before xrm-model/3, which stored all C columns of W and
# no column list, with the header and scaler changes each was checked on.
# The loader refuses them by their version, before it reads any other key.
_EARLIER_BASE = {key: value for key, value in _HEADER_BASE.items() if key != "column"}
_EARLIER_BASES = {
    "xrm-model/1": (_EARLIER_BASE, _BAD_HEADERS),
    "xrm-model/2": ({**_EARLIER_BASE, "feature_mean": [0.0, 0.0, 0.0],
                     "feature_scale": [1.0, 1.0, 1.0]}, _BAD_HEADERS + _BAD_SCALERS),
}
# A valid model of the 4 features of ``blob_file``.
_BLOB_MODEL = {"version": "xrm-model/3", "feature_count": 4, "components": 1,
               "W": [0.5, -1.0, 2.0, 0.0], "column": [0], "b": [0.0], "lambda": 2.0, "p": 2.0}


def _unsupported(version: str) -> str:
    return f"error: unsupported model format {version!r}; expected 'xrm-model/3'\n"


@pytest.fixture
def blob_file(tmp_path):
    path = tmp_path / "blobs.txt"
    save_dataset(make_blobs(120, 4, seed=1, separation=6.0, noise=0.5), path)
    return path


def _sparse_blobs(n, m, seed, density=0.1):
    """Blobs of ``m`` features in which each entry is kept with probability
    ``density``, so that a parse stores the set as CSC."""
    data = make_blobs(n, m, seed=seed, separation=8.0)
    keep = np.random.default_rng(seed).random((m, n)) < density
    return DataSet(X=np.where(keep, data.X, 0.0), y=data.y)


class TestTrain:
    def test_writes_artifacts(self, tmp_path, blob_file, capsys):
        model_path = tmp_path / "model.json"
        report_path = tmp_path / "report.json"
        rc = main(["train", "--data", str(blob_file), "--model", str(model_path),
                   "--out", str(report_path)])
        assert rc == 0
        assert "objective=" in capsys.readouterr().out
        model = load_model(model_path)
        assert model.feature_count == 4
        assert model.components == 10
        report = json.loads(report_path.read_text())
        assert report["iterations"] == len(report["objective_trace"])
        assert report["config"]["lambda"] == 2.0
        assert report["diversity"]["regularizer_value"] > 0

    def test_config_lists_the_six_settings(self, tmp_path, blob_file):
        report_path = tmp_path / "report.json"
        rc = main(["train", "--data", str(blob_file), "--model", str(tmp_path / "m.json"),
                   "--out", str(report_path), "--max-iters", "2"])
        assert rc == 0
        config = json.loads(report_path.read_text())["config"]
        assert list(config) == ["lambda", "components", "loss_power", "rho", "outer_tol",
                                "outer_max_iters"]

    def test_reports_distinct_components(self, tmp_path, blob_file):
        report_path = tmp_path / "report.json"
        rc = main(["train", "--data", str(blob_file), "--model", str(tmp_path / "m.json"),
                   "--out", str(report_path), "--components", "4"])
        assert rc == 0
        diversity = json.loads(report_path.read_text())["diversity"]
        assert diversity["distinct_components"] == 1
        assert len(diversity["pairwise_exclusivity"]) == 4

    def test_reports_stop_reason(self, tmp_path, blob_file, capsys):
        report_path = tmp_path / "report.json"
        rc = main(["train", "--data", str(blob_file), "--model", str(tmp_path / "m.json"),
                   "--out", str(report_path), "--max-iters", "2"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "stop_reason=max_iters" in captured.out
        report = json.loads(report_path.read_text())
        assert report["stop_reason"] == "max_iters"
        split, slack = report["residual_trace"][-1]
        assert captured.err == (
            "warning: training stopped at the iteration cap (2) before the objective settled; "
            f"final residuals split={split:.3g} slack={slack:.3g}\n")

    def test_converged_run_prints_no_warning(self, tmp_path, blob_file, capsys):
        reports = []
        for run in range(2):
            report_path = tmp_path / f"report{run}.json"
            rc = main(["train", "--data", str(blob_file), "--model", str(tmp_path / "m.json"),
                       "--out", str(report_path), "--p", "1.5", "--no-timing"])
            assert rc == 0
            captured = capsys.readouterr()
            assert "stop_reason=objective_change" in captured.out
            assert captured.err == ""
            reports.append(report_path.read_text())
        report = json.loads(reports[0])
        assert report["schema_version"] == 1
        assert len(report["e_inner_steps"]) == report["iterations"]
        assert reports[0] == reports[1]

    def test_missing_file_exit_two(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "absent.txt")])
        assert rc == 2
        assert "absent.txt" in capsys.readouterr().err

    def test_parse_error_exit_one(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 1:abc\n")
        rc = main(["train", "--data", str(bad), "--model", str(tmp_path / "m.json"),
                   "--out", str(tmp_path / "r.json")])
        assert rc == 1

    def test_byte_order_mark_is_ignored(self, tmp_path, blob_file):
        marked = tmp_path / "marked.txt"
        marked.write_bytes(b"\xef\xbb\xbf" + blob_file.read_bytes())
        rc = main(["train", "--data", str(marked), "--model", str(tmp_path / "m.json"),
                   "--out", str(tmp_path / "r.json")])
        assert rc == 0

    def test_ill_scaled_features_exit_one(self, tmp_path, capsys):
        # a Gram matrix left singular by rounding, then one whose product overflows
        for data in (make_ill_scaled(), make_gram_overflow(40, 3)):
            data_path = tmp_path / "ill.txt"
            save_dataset(data, data_path)
            argv = ["train", "--data", str(data_path), "--model", str(tmp_path / "m.json"),
                    "--out", str(tmp_path / "r.json")]
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert "too large for the Gram factorization" in err and "--standardize" in err
            assert main(argv + ["--standardize"]) == 0  # the advice works

    def test_reports_gram_side(self, tmp_path, blob_file):
        wide_file = tmp_path / "wide.txt"
        save_dataset(make_blobs(8, 20, seed=3), wide_file)
        sides = []
        for path in (blob_file, wide_file):
            report_path = tmp_path / "report.json"
            rc = main(["train", "--data", str(path), "--model", str(tmp_path / "m.json"),
                       "--out", str(report_path)])
            assert rc == 0
            sides.append(json.loads(report_path.read_text())["gram_side"])
        assert sides == ["features", "instances"]

    def test_standardize_saves_training_scaler(self, tmp_path, blob_file):
        model_path = tmp_path / "model.json"
        rc = main(["train", "--data", str(blob_file), "--standardize", "--model", str(model_path),
                   "--out", str(tmp_path / "r.json")])
        assert rc == 0
        assert json.loads(model_path.read_text())["version"] == "xrm-model/3"
        scaler = load_model(model_path).scaler
        expected = fit_scaler(load_dataset(blob_file))
        np.testing.assert_array_equal(scaler.mean, expected.mean)
        np.testing.assert_array_equal(scaler.scale, expected.scale)

    def test_standardize_on_a_sparse_file_trains_on_the_dense_bits(self, tmp_path):
        data = _sparse_blobs(60, 40, seed=3)
        save_dataset(data, tmp_path / "sparse.txt")
        assert not isinstance(load_dataset(tmp_path / "sparse.txt").X, np.ndarray)
        report_path = tmp_path / "r.json"
        rc = main(["train", "--data", str(tmp_path / "sparse.txt"), "--standardize",
                   "--no-timing", "--model", str(tmp_path / "m.json"), "--out", str(report_path)])
        assert rc == 0
        _, expected = solver.train(standardize(data), solver.SolverConfig())
        assert json.loads(report_path.read_text())["objective_trace"] == expected.objective_trace

    def test_no_timing_zeroes_wall_time(self, tmp_path, blob_file):
        report_path = tmp_path / "report.json"
        rc = main(["train", "--data", str(blob_file), "--model", str(tmp_path / "m.json"),
                   "--out", str(report_path), "--no-timing"])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["wall_time"] == 0.0
        assert report["block_ms"] == dict.fromkeys(
            ["W", "b", "E", "P", "multipliers", "objective", "factorization"], 0.0)

    def test_non_finite_setting_exits_one(self, tmp_path, blob_file, capsys):
        rc = main(["train", "--data", str(blob_file), "--outer-tol", "nan",
                   "--model", str(tmp_path / "m.json"), "--out", str(tmp_path / "r.json")])
        assert rc == 1
        assert capsys.readouterr().err == "error: outer_tol must be finite, got nan\n"
        assert not (tmp_path / "m.json").exists()

    def test_divergence_names_block_and_exits_one(self, tmp_path, blob_file, capsys,
                                                  monkeypatch):
        original = solver.update_E
        calls = []

        def poisoned(*args):
            calls.append(1)
            E, steps = original(*args)
            return (E * np.nan if len(calls) == 3 else E), steps

        monkeypatch.setattr(solver, "update_E", poisoned)
        rc = main(["train", "--data", str(blob_file), "--model", str(tmp_path / "m.json"),
                   "--out", str(tmp_path / "r.json")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: non-finite solver state at iteration 3 in block E\n")
        assert not (tmp_path / "m.json").exists()


class TestEval:
    def test_model_mode_perfect_separation(self, tmp_path, blob_file, capsys):
        model_path = tmp_path / "model.json"
        main(["train", "--data", str(blob_file), "--model", str(model_path),
              "--out", str(tmp_path / "r.json")])
        rc = main(["eval", "--data", str(blob_file), "--model", str(model_path),
                   "--out", str(tmp_path / "e.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0.00%" in out
        assert json.loads((tmp_path / "e.json").read_text())["error_percent"] == 0.0

    def test_dimension_mismatch(self, tmp_path, blob_file, capsys):
        model_path = tmp_path / "model.json"
        main(["train", "--data", str(blob_file), "--model", str(model_path),
              "--out", str(tmp_path / "r.json")])
        other = tmp_path / "other.txt"
        save_dataset(make_blobs(30, 7, seed=2), other)
        rc = main(["eval", "--data", str(other), "--model", str(model_path),
                   "--out", str(tmp_path / "e.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "4" in err and "7" in err

    def test_narrow_file_is_zero_padded(self, tmp_path, blob_file):
        model_path = tmp_path / "model.json"
        main(["train", "--data", str(blob_file), "--model", str(model_path),
              "--out", str(tmp_path / "r.json")])
        narrow = make_blobs(40, 3, seed=4, separation=1.0)
        padded = DataSet(X=np.vstack([narrow.X, np.zeros((1, 40))]), y=narrow.y)
        errors = []
        for name, data in (("narrow", narrow), ("padded", padded)):
            save_dataset(data, tmp_path / f"{name}.txt")
            out = tmp_path / f"{name}.json"
            rc = main(["eval", "--data", str(tmp_path / f"{name}.txt"),
                       "--model", str(model_path), "--out", str(out)])
            assert rc == 0
            errors.append(json.loads(out.read_text())["error_percent"])
        assert load_dataset(tmp_path / "narrow.txt").feature_count == 3
        assert errors[0] == errors[1]
        assert errors[0] > 0.0

    def test_saved_scaler_is_applied(self, tmp_path):
        # Evaluating on a shifted copy of the training instances must use the
        # training transform; a z-score re-fitted on the eval file hides the shift.
        data = make_blobs(200, 5, seed=1, separation=3.0)
        shifted = DataSet(X=data.X[:, :60] + 2.0, y=data.y[:60])
        save_dataset(data, tmp_path / "train.txt")
        save_dataset(shifted, tmp_path / "shifted.txt")
        model_path = tmp_path / "model.json"
        main(["train", "--data", str(tmp_path / "train.txt"), "--standardize",
              "--model", str(model_path), "--out", str(tmp_path / "r.json")])
        trained = load_model(model_path)
        under_training = 100.0 * error_rate(trained, standardize(shifted, scaler=fit_scaler(data)))
        refitted = 100.0 * error_rate(trained, standardize(shifted))
        assert under_training == pytest.approx(35.0)
        assert refitted == pytest.approx(5.0)
        out = tmp_path / "e.json"
        rc = main(["eval", "--data", str(tmp_path / "shifted.txt"), "--model", str(model_path),
                   "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["error_percent"] == under_training

    def test_saved_scaler_applies_after_zero_padding(self, tmp_path, blob_file):
        model_path = tmp_path / "model.json"
        main(["train", "--data", str(blob_file), "--standardize", "--model", str(model_path),
              "--out", str(tmp_path / "r.json")])
        narrow = make_blobs(40, 3, seed=4, separation=1.0)
        padded = DataSet(X=np.vstack([narrow.X, np.zeros((1, 40))]), y=narrow.y)
        save_dataset(narrow, tmp_path / "narrow.txt")
        out = tmp_path / "e.json"
        rc = main(["eval", "--data", str(tmp_path / "narrow.txt"), "--model", str(model_path),
                   "--out", str(out)])
        assert rc == 0
        trained = load_model(model_path)
        expected = 100.0 * error_rate(trained, standardize(padded, scaler=trained.scaler))
        assert json.loads(out.read_text())["error_percent"] == expected

    @pytest.mark.parametrize("standardize_flag", [[], ["--standardize"]])
    def test_narrow_sparse_file_is_padded(self, tmp_path, standardize_flag):
        # The model has 60 features; the narrow file holds 50 of them.
        data = _sparse_blobs(280, 60, seed=5)
        save_dataset(DataSet(X=data.X[:, :200], y=data.y[:200]), tmp_path / "train.txt")
        model_path = tmp_path / "model.json"
        rc = main(["train", "--data", str(tmp_path / "train.txt"), *standardize_flag,
                   "--model", str(model_path), "--out", str(tmp_path / "r.json")])
        assert rc == 0
        held_out, y = data.X[:, 200:], data.y[200:]
        padded = DataSet(X=np.vstack([held_out[:50], np.zeros((10, 80))]), y=y)
        narrow = DataSet(X=held_out[:50], y=y)
        save_dataset(narrow, tmp_path / "narrow.txt")
        assert not isinstance(load_dataset(tmp_path / "narrow.txt").X, np.ndarray)
        out = tmp_path / "e.json"
        rc = main(["eval", "--data", str(tmp_path / "narrow.txt"), "--model", str(model_path),
                   "--out", str(out)])
        assert rc == 0
        trained = load_model(model_path)
        assert (trained.scaler is not None) == bool(standardize_flag)
        if trained.scaler is not None:
            padded = standardize(padded, scaler=trained.scaler)
        expected = 100.0 * error_rate(trained, padded)
        assert 0.0 < expected < 50.0
        assert json.loads(out.read_text())["error_percent"] == expected

    def test_non_finite_model_exits_one(self, tmp_path, blob_file, capsys):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({"version": "xrm-model/3", "feature_count": 4,
                                          "components": 1, "W": [float("nan"), 1.0, 0.0, 0.0],
                                          "column": [0], "b": [0.0], "lambda": 2.0, "p": 2.0}))
        out = tmp_path / "e.json"
        rc = main(["eval", "--data", str(blob_file), "--model", str(model_path),
                   "--out", str(out)])
        assert rc == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("payload, message", [
        ([1], "error: model file must hold a JSON object, got list\n"),
        ({"version": "xrm-model/3", **{key: value for key, value in _HEADER_BASE.items()
                                       if key != "lambda"}},
         "error: xrm-model/3 model lacks lambda\n"),
        ({"version": "xrm-model/3", **_HEADER_BASE, "feature_count": None},
         "error: xrm-model/3 model holds a value of the wrong type: "),
        # Six values are a multiple of feature_count 2, but not 2 x 2; an
        # earlier-format file is refused by its version before W is read.
        ({"version": "xrm-model/1", "feature_count": 2, "components": 2, "W": [1.0] * 6,
          "b": [0.0, 0.0], "lambda": 2.0, "p": 2.0}, _unsupported("xrm-model/1")),
        ({"version": "xrm-model/2", "feature_count": 2, "components": 2, "W": [1.0] * 6,
          "b": [0.0, 0.0], "lambda": 2.0, "p": 2.0, "feature_mean": [0.0, 0.0],
          "feature_scale": [1.0, 1.0]}, _unsupported("xrm-model/2")),
        # json reads NaN, so a file can carry hyperparameters no fit accepts.
        ({"version": "xrm-model/3", **_HEADER_BASE, "lambda": float("nan")},
         "error: lam must be finite and positive, got nan\n"),
        ({"version": "xrm-model/3", **_HEADER_BASE, "p": 0.5},
         "error: p must be finite and at least 1, got 0.5\n"),
    ] + [({"version": version, **base, **change}, f"error: {version} {message}\n")
         for version, base in _HEADER_BASES.items() for _, change, message in _BAD_HEADERS]
      + [({"version": version, **_HEADER_BASES[version], **change}, f"error: {version} {message}\n")
         for version in _SCALED_VERSIONS for _, change, message in _BAD_SCALERS]
      + [({"version": version, **base, **change}, _unsupported(version))
         for version, (base, cases) in _EARLIER_BASES.items() for _, change, _ in cases],
        ids=["not_an_object", "missing_key", "null_value", "v1_W_not_M_by_C", "v2_W_not_M_by_C",
             "nan_lambda", "power_below_one"]
        + [f"{version}-{name}" for version in _HEADER_BASES for name, _, _ in _BAD_HEADERS]
        + [f"{version}-{name}" for version in _SCALED_VERSIONS for name, _, _ in _BAD_SCALERS]
        + [f"{version}-{name}" for version, (_, cases) in _EARLIER_BASES.items()
           for name, _, _ in cases])
    def test_malformed_model_exits_one(self, tmp_path, blob_file, capsys, payload, message):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(payload))
        out = tmp_path / "e.json"
        rc = main(["eval", "--data", str(blob_file), "--model", str(model_path),
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(message) and err.endswith("\n") and err.count("\n") == 1
        assert not out.exists()

    def test_missing_model_exits_two(self, tmp_path, blob_file, capsys):
        rc = main(["eval", "--data", str(blob_file), "--model", str(tmp_path / "absent.json"),
                   "--out", str(tmp_path / "e.json")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: no such file: {tmp_path / 'absent.json'}\n"
        assert not (tmp_path / "e.json").exists()

    @pytest.mark.parametrize("change, message", [
        ({"column": [0]}, "error: xrm-model/3 model's column must list 2 indices"),
        ({"column": "01"}, "error: xrm-model/3 model's column must list 2 indices"),
        ({"column": [0, 1.0]}, "error: xrm-model/3 model's column holds an entry that is not"),
        ({"column": [0, "1"]}, "error: xrm-model/3 model's column holds an entry that is not"),
        ({"column": [0, True]}, "error: xrm-model/3 model's column holds an entry that is not"),
        ({"column": [0, 2]}, "error: xrm-model/3 model's column holds an entry that is not"),
        ({"column": [-1, 1]}, "error: xrm-model/3 model's column holds an entry that is not"),
        ({"column": [1, 1]}, "error: xrm-model/3 model's column leaves some of its 2 stored"),
        ({"W": [0.5, -1.0, 2.0]}, "error: xrm-model/3 model's W holds 3 values, not a positive "
                                  "multiple of feature_count 4"),
        ({"feature_count": 0}, "error: xrm-model/3 model's W holds 8 values, not a positive "
                               "multiple of feature_count 0"),
        ({"W": []}, "error: xrm-model/3 model's W holds 0 values, not a positive multiple"),
    ], ids=["short_column", "column_not_a_list", "float_index", "string_index", "bool_index",
            "index_out_of_range", "negative_index", "stored_column_unused", "ragged_W",
            "no_features", "empty_W"])
    def test_malformed_stored_columns_exit_one(self, tmp_path, blob_file, capsys, change,
                                               message):
        payload = {"version": "xrm-model/3", "feature_count": 4, "components": 2,
                   "W": [0.5, -1.0, 0.0, 2.0, 1.5, 0.25, -0.5, 0.0], "column": [0, 1],
                   "b": [0.0, 0.1], "lambda": 2.0, "p": 2.0}
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({**payload, **change}))
        out = tmp_path / "e.json"
        rc = main(["eval", "--data", str(blob_file), "--model", str(model_path),
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(message) and err.endswith("\n") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("version", list(_HEADER_BASES))
    def test_header_cases_start_from_a_valid_model(self, tmp_path, version):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({"version": version, **_HEADER_BASES[version]}))
        model = load_model(model_path)
        np.testing.assert_array_equal(model.W, [[0.5], [-1.0], [2.0]])

    @pytest.mark.parametrize("version", ["xrm-model/1", "xrm-model/2"])
    def test_earlier_format_model_exits_one(self, tmp_path, blob_file, capsys, version):
        # A file that earlier releases loaded and scored on this data set is
        # refused by its version too, with nothing on stdout.
        payload = {"version": version, "feature_count": 4, "components": 1,
                   "W": [0.5, -1.0, 2.0, 0.0], "b": [0.0], "lambda": 2.0, "p": 2.0}
        if version == "xrm-model/2":
            payload.update(feature_mean=[0.0] * 4, feature_scale=[1.0] * 4)
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(payload))
        out = tmp_path / "e.json"
        rc = main(["eval", "--data", str(blob_file), "--model", str(model_path),
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr() == ("", _unsupported(version))
        assert not out.exists()

    def test_well_formed_stored_columns_load(self, tmp_path, blob_file):
        # The payload the malformed cases above start from is itself valid.
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({
            "version": "xrm-model/3", "feature_count": 4, "components": 3,
            "W": [0.5, -1.0, 0.0, 2.0, 1.5, 0.25, -0.5, 0.0], "column": [1, 0, 1],
            "b": [0.0, 0.1, 0.2], "lambda": 2.0, "p": 2.0}))
        rc = main(["eval", "--data", str(blob_file), "--model", str(model_path),
                   "--out", str(tmp_path / "e.json")])
        assert rc == 0
        np.testing.assert_array_equal(load_model(model_path).W,
                                      [[-1.0, 0.5, -1.0], [2.0, 0.0, 2.0],
                                       [0.25, 1.5, 0.25], [0.0, -0.5, 0.0]])


class TestSweep:
    def test_row_count_and_columns(self, tmp_path, blob_file):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--data", str(blob_file), "--lambda", "0.5,2",
                   "--components", "2,4", "--train-size", "40", "--trials", "3",
                   "--out", str(out), "--no-timing"])
        assert rc == 0
        with open(out) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["lambda", "components", "trial",
                           "train_error", "test_error", "iterations", "wall_time"]
        assert len(rows) - 1 == 2 * 2 * 3

    def test_iteration_cap_warns_once(self, tmp_path, blob_file, capsys):
        # The cap warning goes to stderr alone; the CSV keeps its columns.
        out = tmp_path / "sweep.csv"
        args = ["sweep", "--data", str(blob_file), "--lambda", "0.5,2", "--components", "2,4",
                "--train-size", "40", "--trials", "3", "--out", str(out), "--no-timing"]
        assert main(args) == 0
        assert capsys.readouterr().err == ""
        with open(out) as handle:
            converged = list(csv.reader(handle))
        # Uncapped, these fits take 9 to 14 iterations; a fit that settles
        # at the cap itself does not count.
        for cap, capped in (("2", 12), ("11", 6)):
            assert main(args + ["--max-iters", cap]) == 0
            captured = capsys.readouterr()
            assert captured.err == (
                f"warning: {capped} of 12 fits stopped at the iteration cap ({cap}) before the "
                "objective settled\n")
            lines = captured.out.splitlines()
            assert [line.split(" test error: ")[0] for line in lines[:4]] == [
                "lambda=0.5 components=2", "lambda=0.5 components=4", "lambda=2 components=2",
                "lambda=2 components=4"]
            assert lines[4:] == [f"wrote 12 rows to {out}"]
            with open(out) as handle:
                rows = list(csv.reader(handle))
            assert rows[0] == converged[0]
            assert sum(int(row[5]) == int(cap) < int(full[5])
                       for row, full in zip(rows[1:], converged[1:])) == capped

    @pytest.mark.parametrize("flags, trials", [([], 3), (["--standardize"], 3), ([], 1)],
                             ids=["raw", "standardized", "one_trial"])
    def test_summary_line_is_the_mean_and_std_of_the_csv(self, tmp_path, noisy_file, capsys,
                                                         flags, trials):
        # Per (lambda, components), the mean and sample standard deviation of
        # the held-out error over the trials, in percent; one trial has no
        # spread.
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--data", str(noisy_file), "--lambda", "2", "--components", "10",
                   "--train-size", "40", "--trials", str(trials), "--seed", "9",
                   "--out", str(out), "--no-timing", *flags])
        assert rc == 0
        with open(out) as handle:
            errors = 100.0 * np.array([float(row["test_error"]) for row in csv.DictReader(handle)])
        assert errors.size == trials and errors.mean() > 0
        std = errors.std(ddof=1) if trials > 1 else 0.0
        assert capsys.readouterr().out == (
            f"lambda=2 components=10 test error: {errors.mean():.2f}% +/- {std:.2f}% "
            f"over {trials} trials\nwrote {trials} rows to {out}\n")

    def test_byte_identical_reruns(self, tmp_path, blob_file):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        args = ["sweep", "--data", str(blob_file), "--lambda", "2", "--components", "3",
                "--train-size", "40", "--trials", "2", "--seed", "5", "--no-timing"]
        main(args + ["--out", str(first)])
        main(args + ["--out", str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_splits_once_per_trial(self, tmp_path, blob_file, monkeypatch):
        # Every (lambda, components) pair of a trial trains on that trial's
        # one split and standardization; rows stay in (lambda, components,
        # trial) order.
        calls = _count_calls(monkeypatch, datasets, "split", "standardize")
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--data", str(blob_file), "--lambda", "0.5,2",
                   "--components", "2,4", "--train-size", "40", "--trials", "3",
                   "--standardize", "--out", str(out), "--no-timing"])
        assert rc == 0
        assert calls == {"split": 3, "standardize": 3}
        with open(out) as handle:
            keys = [row[:3] for row in list(csv.reader(handle))[1:]]
        assert keys == [[lam, components, trial] for lam in ("0.5", "2")
                        for components in ("2", "4") for trial in ("0", "1", "2")]

    def test_empty_grid_rejected(self, tmp_path, blob_file):
        rc = main(["sweep", "--data", str(blob_file), "--lambda", ",",
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 1

    def test_non_positive_trials_exit_one(self, tmp_path, blob_file, capsys):
        out = tmp_path / "s.csv"
        for trials in ("0", "-3"):
            rc = main(["sweep", "--data", str(blob_file), "--train-size", "40", "--trials", trials,
                       "--out", str(out)])
            assert rc == 1
            assert "trials must be a positive integer" in capsys.readouterr().err
            assert not out.exists()

    @pytest.fixture
    def noisy_file(self, tmp_path):
        path = tmp_path / "noisy.txt"
        save_dataset(make_blobs(600, 8, seed=9, separation=1.5, noise=1.2), path)
        return path

    @staticmethod
    def _mean_train_error(path, key_index, key_type):
        with open(path) as handle:
            rows = list(csv.reader(handle))[1:]
        by_key = {}
        for row in rows:
            by_key.setdefault(key_type(row[key_index]), []).append(float(row[3]))
        return {key: float(np.mean(values)) for key, values in by_key.items()}

    def test_training_error_drops_as_lambda_grows(self, tmp_path, noisy_file):
        out = tmp_path / "lam.csv"
        main(["sweep", "--data", str(noisy_file), "--lambda", "0.05,4",
              "--components", "10", "--train-size", "150", "--trials", "5",
              "--seed", "1", "--out", str(out), "--no-timing"])
        means = self._mean_train_error(out, 0, float)
        assert means[4.0] <= means[0.05]

    def test_training_error_grows_with_components(self, tmp_path, noisy_file):
        out = tmp_path / "comp.csv"
        main(["sweep", "--data", str(noisy_file), "--lambda", "2",
              "--components", "5,10,30", "--train-size", "150", "--trials", "5",
              "--seed", "1", "--out", str(out), "--no-timing"])
        means = self._mean_train_error(out, 1, int)
        assert means[5] <= means[10] <= means[30]


class TestBench:
    def test_rows_and_positive_times(self, tmp_path, blob_file):
        out = tmp_path / "bench.csv"
        rc = main(["bench", "--data", str(blob_file), "--sizes", "30,60,90", "--runs", "2",
                   "--out", str(out)])
        assert rc == 0
        with open(out) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["n_train", "total_time"]
        assert [r[0] for r in rows[1:]] == ["30", "60", "90"]
        assert all(float(r[1]) > 0 for r in rows[1:])

    def test_oversized_request_rejected(self, tmp_path, blob_file, capsys):
        rc = main(["bench", "--data", str(blob_file), "--sizes", "500",
                   "--out", str(tmp_path / "b.csv")])
        assert rc == 1
        assert "500" in capsys.readouterr().err

    @pytest.mark.parametrize("runs", ["0", "-1"])
    def test_non_positive_runs_exit_one(self, tmp_path, blob_file, capsys, runs):
        out = tmp_path / "b.csv"
        rc = main(["bench", "--data", str(blob_file), "--sizes", "30,120", "--runs", runs,
                   "--out", str(out)])
        assert rc == 1
        assert "--runs must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_sizes_exit_one(self, tmp_path, blob_file, capsys):
        out = tmp_path / "b.csv"
        rc = main(["bench", "--data", str(blob_file), "--sizes", "", "--out", str(out)])
        assert rc == 1
        assert "--sizes must be nonempty" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_size_fails_before_any_fit(self, tmp_path, blob_file, capsys,
                                                 monkeypatch):
        calls = _count_calls(monkeypatch, solver, "train")
        out = tmp_path / "b.csv"
        rc = main(["bench", "--data", str(blob_file), "--sizes", "30,500", "--out", str(out)])
        assert rc == 1
        assert calls == {"train": 0}
        assert "500" in capsys.readouterr().err
        assert not out.exists()

    def test_standardize_z_scores_each_subsample(self, tmp_path, blob_file, monkeypatch):
        # Each subsample is z-scored on itself, and at size N the whole file is.
        calls = _count_calls(monkeypatch, datasets, "split", "standardize")
        trained_on = []
        original_train = solver.train

        def recorded(data, config):
            trained_on.append(data)
            return original_train(data, config)
        monkeypatch.setattr(solver, "train", recorded)
        rc = main(["bench", "--data", str(blob_file), "--sizes", "30,120", "--runs", "2",
                   "--standardize", "--out", str(tmp_path / "b.csv"), "--no-timing"])
        assert rc == 0
        assert calls == {"split": 2, "standardize": 3}
        assert [data.instance_count for data in trained_on] == [30, 30, 120, 120]
        for data in trained_on:
            np.testing.assert_allclose(data.X.mean(axis=1), 0.0, atol=1e-12)
            np.testing.assert_allclose(data.X.std(axis=1), 1.0)

    def test_iteration_cap_warns_once(self, tmp_path, blob_file, capsys):
        # The cap warning goes to stderr alone; the CSV and exit code stay.
        out = tmp_path / "b.csv"
        args = ["bench", "--data", str(blob_file), "--sizes", "30,60", "--runs", "2",
                "--out", str(out), "--no-timing"]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        converged = out.read_text()
        assert main(args + ["--max-iters", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.out == f"wrote 2 rows to {out}\n"
        assert captured.err == ("warning: 4 of 4 fits stopped at the iteration cap (2) before "
                                "the objective settled\n")
        assert out.read_text() == converged == "n_train,total_time\n30,0\n60,0\n"

    def test_full_dataset_size_allowed(self, tmp_path, blob_file):
        out = tmp_path / "bench.csv"
        rc = main(["bench", "--data", str(blob_file), "--sizes", "120", "--runs", "1",
                   "--out", str(out)])
        assert rc == 0

    def test_defaults_match_protocol(self):
        args = build_parser().parse_args(["bench", "--data", "x", "--sizes", "10"])
        assert args.runs == 10
        args = build_parser().parse_args(["sweep", "--data", "x"])
        assert args.trials == 10
        assert args.train_size == 150
        args = build_parser().parse_args(["train", "--data", "x"])
        assert args.lam == 2.0
        assert args.components == 10
        assert args.loss_power == 2.0
        # Every solver flag defaults to its SolverConfig field.
        for argv in (["train"], ["bench", "--sizes", "10"]):
            args = build_parser().parse_args([argv[0], "--data", "x", *argv[1:]])
            assert cli._make_config(args, args.lam, args.components) == solver.SolverConfig()
        args = build_parser().parse_args(["sweep", "--data", "x"])
        assert [cli._make_config(args, lam, components) for lam in args.lam_grid
                for components in args.component_grid] == [solver.SolverConfig()]


@pytest.mark.parametrize("argv", [
    ["train", "--seed", "1"], ["eval", "--no-timing"], ["eval", "--lambda", "99"],
    ["eval", "--trials", "3"], ["eval", "--seed", "1"], ["eval", "--standardize"],
], ids=["train_seed", "eval_no_timing", "eval_lambda", "eval_trials", "eval_seed",
        "eval_standardize"])
def test_flag_the_command_does_not_read_exits_two(tmp_path, blob_file, capsys, argv):
    # train draws no split, and eval only scores a model file under the
    # transform saved in it, so neither takes the flag.
    out = tmp_path / "out.json"
    model = ["--model", str(tmp_path / "m.json")] if argv[0] == "eval" else []
    with pytest.raises(SystemExit) as caught:
        main([argv[0], "--data", str(blob_file), *model, *argv[1:], "--out", str(out)])
    assert caught.value.code == 2
    assert f"error: unrecognized arguments: {' '.join(argv[1:])}\n" in capsys.readouterr().err
    assert not out.exists()


def test_eval_needs_a_model(blob_file, capsys):
    with pytest.raises(SystemExit) as caught:
        main(["eval", "--data", str(blob_file)])
    assert caught.value.code == 2
    assert "the following arguments are required: --model" in capsys.readouterr().err


def _files(folder):
    """Every file under ``folder`` with its bytes."""
    return {path: path.read_bytes() for path in sorted(folder.rglob("*")) if path.is_file()}


# One small run of each command whose fits settle before the iteration cap,
# with its output flags.
_RUNS = {
    "train": (["train"], ["--model", "--out"]),
    "eval": (["eval", "--model", "model.json"], ["--out"]),
    "sweep": (["sweep", "--lambda", "2", "--components", "2", "--train-size", "40",
               "--trials", "2"], ["--out"]),
    "bench": (["bench", "--sizes", "30", "--runs", "1"], ["--out"]),
}


@pytest.mark.parametrize("argv, output", [
    (["train", "--out", "r.json"], "--model"),
    (["train", "--model", "m.json"], "--out"),
    (_RUNS["eval"][0], "--out"),
    (_RUNS["sweep"][0], "--out"),
    (_RUNS["bench"][0], "--out"),
], ids=["train_model", "train_report", "eval", "sweep", "bench"])
@pytest.mark.parametrize("path", ["folder", "absent/out"], ids=["directory", "missing_parent"])
def test_unwritable_output_exits_one(tmp_path, blob_file, capsys, monkeypatch, argv, output,
                                     path):
    # An output that cannot be written is an error of the run (exit 1), not a
    # missing input (exit 2), and its one line names the path.  The run
    # writes no other output and prints nothing on stdout.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "folder").mkdir()
    (tmp_path / "model.json").write_text(json.dumps(_BLOB_MODEL))
    before = _files(tmp_path)
    rc = main([argv[0], "--data", str(blob_file), *argv[1:], output, path])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and f"'{path}'" in captured.err
    assert captured.err.count("\n") == 1
    assert _files(tmp_path) == before


def _fail_on_call(k, original):
    """``original``, but its ``k``-th call writes half its text, if it takes
    one, and raises OSError."""
    calls = []

    def failing(*args, **kwargs):
        calls.append(args)
        if len(calls) != k:
            return original(*args, **kwargs)
        if isinstance(args[0], Path):
            original(args[0], args[1][:len(args[1]) // 2], **kwargs)
        raise OSError(errno.ENOSPC, "No space left on device")
    return failing


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("target", ["write", "replace"])
@pytest.mark.parametrize("command, k", [("train", 1), ("train", 2), ("eval", 1), ("sweep", 1),
                                        ("bench", 1)])
def test_failed_publish_changes_no_output(tmp_path, blob_file, capsys, monkeypatch, command, k,
                                          target, existing):
    # A write or a rename that fails on the k-th output leaves every output
    # as it was before the run, and no file of its own, and prints one error
    # line that names the k-th output.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "model.json").write_text(json.dumps(_BLOB_MODEL))
    argv, flags = _RUNS[command]
    outputs = [f"out{index}.txt" for index in range(len(flags))]
    if existing:
        for output in outputs:
            Path(output).write_text(f"{output} before the run\n")
    before = _files(tmp_path)
    owner, name = (Path, "write_text") if target == "write" else (os, "replace")
    monkeypatch.setattr(owner, name, _fail_on_call(k, getattr(owner, name)))
    rc = main([*argv, "--data", str(blob_file),
               *[item for pair in zip(flags, outputs) for item in pair]])
    monkeypatch.undo()
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno {errno.ENOSPC}] No space left on device: " \
                           f"'{outputs[k - 1]}'\n"
    assert _files(tmp_path) == before


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_publish_replaces_every_output(tmp_path, blob_file, monkeypatch, existing):
    # The same runs, unhindered, write every output and leave no other file.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "model.json").write_text(json.dumps(_BLOB_MODEL))
    for command, (argv, flags) in _RUNS.items():
        outputs = [f"{command}{index}.txt" for index in range(len(flags))]
        if existing:
            for output in outputs:
                Path(output).write_text("before the run\n")
        rc = main([*argv, "--data", str(blob_file),
                   *[item for pair in zip(flags, outputs) for item in pair]])
        assert rc == 0
        assert all(Path(output).read_text() != "before the run\n" for output in outputs)
    written = {path.name for path in tmp_path.iterdir()}
    assert written == {"blobs.txt", "model.json", "train0.txt", "train1.txt", "eval0.txt",
                       "sweep0.txt", "bench0.txt"}
    assert load_model("train0.txt").feature_count == 4


def test_device_or_pipe_output_is_written_in_place(tmp_path, blob_file):
    # An output that exists but is no regular file, such as /dev/stdout or a
    # pipe, takes the text in place and stays what it was.
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        rc = main(["bench", "--data", str(blob_file), "--sizes", "30", "--runs", "1",
                   "--no-timing", "--out", str(fifo)])
        assert rc == 0
        assert os.read(reader, 1 << 16) == b"n_train,total_time\r\n30,0\r\n"
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert sorted(tmp_path.iterdir()) == [tmp_path / "blobs.txt", fifo]


def test_symlinked_output_is_written_through_its_link(tmp_path, blob_file):
    # The new file is renamed over the file the link names, beside it, so
    # the link stays a link.
    (tmp_path / "runs").mkdir()
    (tmp_path / "runs" / "bench.csv").write_text("before the run\n")
    link = tmp_path / "latest.csv"
    link.symlink_to(tmp_path / "runs" / "bench.csv")
    rc = main(["bench", "--data", str(blob_file), "--sizes", "30", "--runs", "1",
               "--no-timing", "--out", str(link)])
    assert rc == 0
    assert link.is_symlink()
    assert (tmp_path / "runs" / "bench.csv").read_bytes() == b"n_train,total_time\r\n30,0\r\n"
    assert sorted(path.name for path in (tmp_path / "runs").iterdir()) == ["bench.csv"]


@pytest.mark.parametrize("argv, message", [
    (["train", "--model", "r.json", "--out", "r.json"],
     "error: --out and --model name the same file 'r.json'\n"),
    (["train", "--model", "r.json", "--out", "./sub/../r.json"],
     "error: --out and --model name the same file './sub/../r.json'\n"),
    (["sweep", "--out", "blobs.txt"], "error: --out and --data name the same file 'blobs.txt'\n"),
    (["eval", "--model", "model.json", "--out", "model.json"],
     "error: --out and --model name the same file 'model.json'\n"),
], ids=["train_report_over_model", "train_spelled_apart", "sweep_over_data", "eval_over_model"])
def test_aliased_paths_exit_one_before_any_fit(tmp_path, blob_file, capsys, monkeypatch, argv,
                                               message):
    # An output that names the same file as an input or as another output
    # would replace it; the run is refused before it loads or fits anything.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "model.json").write_text(json.dumps(_BLOB_MODEL))
    calls = _count_calls(monkeypatch, solver, "train")
    before = _files(tmp_path)
    rc = main([argv[0], "--data", str(blob_file), *argv[1:]])
    assert rc == 1
    assert capsys.readouterr() == ("", message)
    assert calls == {"train": 0}
    assert _files(tmp_path) == before


def test_scipy_sparse_loads_with_the_first_sparse_set():
    # Importing the CLI and parsing dense text leave scipy.sparse unloaded.
    code = (
        "import sys, xrm.cli\n"
        "from xrm import parse_sparse_text\n"
        "loaded = ['scipy.sparse' in sys.modules]\n"
        "parse_sparse_text('+1 1:1 2:2\\n-1 1:3 2:4\\n')\n"
        "loaded.append('scipy.sparse' in sys.modules)\n"
        "parse_sparse_text('+1 1:1 100:2\\n-1 1:3\\n')\n"
        "loaded.append('scipy.sparse' in sys.modules)\n"
        "print(loaded)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=str(src)), timeout=60, check=True)
    assert result.stdout.strip() == "[False, False, True]"


def test_huge_feature_index_exits_one(tmp_path, capsys):
    # numpy rejects the dense 2**62-row matrix before allocating anything.
    path = tmp_path / "huge.txt"
    path.write_text(f"+1 1:0.5 {2 ** 62}:1.0\n-1 1:0.2\n")
    rc = main(["train", "--data", str(path), "--model", str(tmp_path / "m.json"),
               "--out", str(tmp_path / "r.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: largest index {2 ** 62} over 2 instances")
    assert "stored dense" in err and err.count("\n") == 1
    assert not (tmp_path / "m.json").exists()


def test_single_component_matches_reference_optimum(tmp_path):
    # a C=1 training run through the CLI lands on the quadratic-hinge optimum
    from xrm import load_dataset
    from xrm.oracles import reference_primal_solver

    rng = np.random.default_rng(33)
    data = random_instance(rng, n_max=25, m_max=5)
    path = tmp_path / "small.txt"
    save_dataset(data, path)
    report_path = tmp_path / "report.json"
    rc = main(["train", "--data", str(path), "--components", "1", "--lambda", "2",
               "--p", "2", "--rho", "1.05", "--outer-tol", "1e-300", "--max-iters", "1500",
               "--model", str(tmp_path / "m.json"), "--out", str(report_path)])
    assert rc == 0
    final = json.loads(report_path.read_text())["objective_trace"][-1]
    _, _, best = reference_primal_solver(load_dataset(path), 2.0, 1, 2.0, max_iters=30_000)
    assert abs(final - best) / best <= 1e-3

import csv
import json

import numpy as np
import pytest

from conftest import make_blobs, make_ill_scaled, random_instance
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


# A valid model of 3 features and 1 component in each format, and header
# changes that every format rejects with an error naming the key.
_HEADER_BASE = {"feature_count": 3, "components": 1, "W": [0.5, -1.0, 2.0], "b": [0.0],
                "lambda": 2.0, "p": 2.0}
_HEADER_BASES = {
    "xrm-model/1": _HEADER_BASE,
    "xrm-model/2": {**_HEADER_BASE, "feature_mean": [0.0, 0.0, 0.0],
                    "feature_scale": [1.0, 1.0, 1.0]},
    "xrm-model/3": {**_HEADER_BASE, "column": [0]},
}
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
]


@pytest.fixture
def blob_file(tmp_path):
    path = tmp_path / "blobs.txt"
    save_dataset(make_blobs(120, 4, seed=1, separation=6.0, noise=0.5), path)
    return path


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
        data_path = tmp_path / "ill.txt"
        save_dataset(make_ill_scaled(), data_path)
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
        for flags in ([], ["--standardize"]):
            out = tmp_path / "e.json"
            rc = main(["eval", "--data", str(tmp_path / "shifted.txt"), "--model", str(model_path),
                       "--out", str(out), *flags])
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

    def test_standardize_needs_a_saved_scaler(self, tmp_path, blob_file, capsys):
        model_path = tmp_path / "model.json"
        main(["train", "--data", str(blob_file), "--model", str(model_path),
              "--out", str(tmp_path / "r.json")])
        payload = json.loads(model_path.read_text())
        assert payload["version"] == "xrm-model/3" and "feature_mean" not in payload
        rc = main(["eval", "--data", str(blob_file), "--model", str(model_path), "--standardize",
                   "--out", str(tmp_path / "e.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "no feature scaler" in err and "xrm-model/" not in err
        assert not (tmp_path / "e.json").exists()

    def test_trials_mode(self, tmp_path, blob_file):
        out = tmp_path / "eval.json"
        rc = main(["eval", "--data", str(blob_file), "--train-size", "40", "--trials", "3",
                   "--seed", "9", "--out", str(out), "--no-timing"])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert len(payload["trial_errors_percent"]) == 3
        assert payload["mean_error_percent"] == pytest.approx(
            np.mean(payload["trial_errors_percent"])
        )
        assert payload["config"]["components"] == 10

    def test_trials_mode_with_standardization(self, tmp_path, blob_file):
        out = tmp_path / "eval.json"
        rc = main(["eval", "--data", str(blob_file), "--train-size", "40", "--trials", "2",
                   "--seed", "9", "--standardize", "--out", str(out), "--no-timing"])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["standardize"] is True
        assert len(payload["trial_errors_percent"]) == 2

    def test_trials_at_the_iteration_cap_warn(self, tmp_path, blob_file, capsys):
        out = tmp_path / "eval.json"
        rc = main(["eval", "--data", str(blob_file), "--train-size", "40", "--trials", "3",
                   "--max-iters", "2", "--out", str(out), "--no-timing"])
        assert rc == 0
        assert capsys.readouterr().err == (
            "warning: 3 of 3 fits stopped at the iteration cap (2) before the objective "
            "settled\n")
        assert list(json.loads(out.read_text())) == [
            "mean_error_percent", "std_error_percent", "trial_errors_percent", "config",
            "train_size", "trials", "seed", "standardize", "data"]

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_non_positive_trials_exit_one(self, tmp_path, blob_file, capsys, trials):
        out = tmp_path / "eval.json"
        rc = main(["eval", "--data", str(blob_file), "--train-size", "40", "--trials", trials,
                   "--out", str(out)])
        assert rc == 1
        assert "trials must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_model_exits_one(self, tmp_path, blob_file, capsys):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({"version": "xrm-model/1", "feature_count": 4,
                                          "components": 1, "W": [float("nan"), 1.0, 0.0, 0.0],
                                          "b": [0.0], "lambda": 2.0, "p": 2.0}))
        out = tmp_path / "e.json"
        rc = main(["eval", "--data", str(blob_file), "--model", str(model_path),
                   "--out", str(out)])
        assert rc == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("payload, message", [
        ([1], "error: model file must hold a JSON object, got list\n"),
        ({"version": "xrm-model/1", "feature_count": 1, "components": 1, "W": [0.0],
          "b": [0.0], "p": 2.0}, "error: xrm-model/1 model lacks lambda\n"),
        ({"version": "xrm-model/1", "feature_count": None, "components": 1, "W": [0.0],
          "b": [0.0], "lambda": 2.0, "p": 2.0},
         "error: xrm-model/1 model holds a value of the wrong type: "),
    ] + [({"version": version, **base, **change}, f"error: {version} {message}\n")
         for version, base in _HEADER_BASES.items() for _, change, message in _BAD_HEADERS],
        ids=["not_an_object", "missing_key", "null_value"]
        + [f"{version}-{name}" for version in _HEADER_BASES for name, _, _ in _BAD_HEADERS])
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
            assert captured.out == f"wrote 12 rows to {out}\n"
            with open(out) as handle:
                rows = list(csv.reader(handle))
            assert rows[0] == converged[0]
            assert sum(int(row[5]) == int(cap) < int(full[5])
                       for row, full in zip(rows[1:], converged[1:])) == capped

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
        rc = main(["sweep", "--data", str(blob_file), "--train-size", "40", "--trials", "0",
                   "--out", str(out)])
        assert rc == 1
        assert "trials must be positive" in capsys.readouterr().err
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
        args = build_parser().parse_args(["eval", "--data", "x"])
        assert args.trials == 10
        assert args.train_size == 150
        assert args.lam == 2.0
        assert args.components == 10
        assert args.loss_power == 2.0
        # Every solver flag defaults to its SolverConfig field.
        for argv in (["train"], ["eval"], ["bench", "--sizes", "10"]):
            args = build_parser().parse_args([argv[0], "--data", "x", *argv[1:]])
            assert cli._make_config(args, args.lam, args.components) == solver.SolverConfig()
        args = build_parser().parse_args(["sweep", "--data", "x"])
        assert [cli._make_config(args, lam, components) for lam in args.lam_grid
                for components in args.component_grid] == [solver.SolverConfig()]


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

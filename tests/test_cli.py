import csv
import json

import numpy as np
import pytest

from conftest import make_blobs, make_ill_scaled, random_instance
from xrm import DataSet, fit_scaler, load_dataset, load_model, save_dataset, standardize
from xrm.cli import build_parser, main
from xrm.model import test_error as error_rate


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
        assert json.loads(model_path.read_text())["version"] == "xrm-model/2"
        scaler = load_model(model_path).scaler
        expected = fit_scaler(load_dataset(blob_file))
        np.testing.assert_array_equal(scaler.mean, expected.mean)
        np.testing.assert_array_equal(scaler.scale, expected.scale)

    def test_no_timing_zeroes_wall_time(self, tmp_path, blob_file):
        report_path = tmp_path / "report.json"
        rc = main(["train", "--data", str(blob_file), "--model", str(tmp_path / "m.json"),
                   "--out", str(report_path), "--no-timing"])
        assert rc == 0
        assert json.loads(report_path.read_text())["wall_time"] == 0.0


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
        assert json.loads(model_path.read_text())["version"] == "xrm-model/1"
        rc = main(["eval", "--data", str(blob_file), "--model", str(model_path), "--standardize",
                   "--out", str(tmp_path / "e.json")])
        assert rc == 1
        assert "no feature scaler" in capsys.readouterr().err
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

    def test_byte_identical_reruns(self, tmp_path, blob_file):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        args = ["sweep", "--data", str(blob_file), "--lambda", "2", "--components", "3",
                "--train-size", "40", "--trials", "2", "--seed", "5", "--no-timing"]
        main(args + ["--out", str(first)])
        main(args + ["--out", str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_empty_grid_rejected(self, tmp_path, blob_file):
        rc = main(["sweep", "--data", str(blob_file), "--lambda", ",",
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 1

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


def test_single_component_matches_reference_optimum(tmp_path):
    # a C=1 training run through the CLI lands on the quadratic-hinge optimum
    from xrm import load_dataset
    from xrm.oracles import OracleConfig, reference_primal_solver

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
    _, _, best = reference_primal_solver(load_dataset(path), 2.0, 1, 2.0,
                                         OracleConfig(max_iters=30_000))
    assert abs(final - best) / best <= 1e-3

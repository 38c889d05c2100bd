"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The benchmark-dataset
criterion needs user-downloaded files (see README) and skips when they are
absent.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import make_blobs, random_instance
from xrm import DataSet, SolverConfig, SplitSpec, load_dataset, split, train
from xrm import model as model_mod
from xrm import oracles, solver
from xrm.cli import main as cli_main
from xrm.diversity import exclusivity_regularizer, relaxed_exclusivity

# Tight-convergence configurations for the optimality checks: gentle penalty
# growth keeps the blocks and multipliers equilibrated all the way down, and
# the effectively-disabled objective tolerance lets runs continue until the
# capped penalty freezes the state, driving feasibility to float precision.
# The strictly convex single-component instances tolerate (and need, to reach
# feasibility before their objective bit-freezes) slightly faster growth.
_TIGHT = dict(rho=1.02, outer_tol=1e-300, outer_max_iters=1500)
_TIGHT_SMOOTH = dict(rho=1.05, outer_tol=1e-300, outer_max_iters=1500)


def _report(number: int, name: str, detail: str):
    print(f"ACCEPTANCE {number:02d} ({name}): PASS [{detail}]")


@pytest.fixture(scope="module")
def criterion1_runs():
    rng = np.random.default_rng(11)
    runs = []
    for _ in range(20):
        data = random_instance(rng, n_max=40, m_max=8)
        C = int(rng.integers(1, 4))
        p = float(rng.choice([1.0, 2.0]))
        lam = float(rng.choice([0.5, 2.0]))
        config = SolverConfig(lam=lam, components=C, loss_power=p, **_TIGHT)
        model, report = train(data, config)
        _, _, oracle_best = oracles.reference_primal_solver(
            data, lam, C, p, oracles.OracleConfig(max_iters=50_000)
        )
        runs.append({"data": data, "p": p, "model": model, "report": report,
                     "oracle_best": oracle_best})
    return runs


@pytest.fixture(scope="module")
def criterion2_runs():
    rng = np.random.default_rng(23)
    runs = []
    for _ in range(10):
        data = random_instance(rng, n_max=30, m_max=6)
        lam = float(rng.choice([0.5, 2.0]))
        config = SolverConfig(lam=lam, components=1, loss_power=2.0, **_TIGHT_SMOOTH)
        model, report = train(data, config)
        _, _, oracle_best = oracles.reference_primal_solver(
            data, lam, 1, 2.0, oracles.OracleConfig(max_iters=50_000)
        )
        runs.append({"data": data, "p": 2.0, "model": model, "report": report,
                     "oracle_best": oracle_best})
    return runs


def test_criterion_01_oracle_equivalence(criterion1_runs):
    worst = 0.0
    for run in criterion1_runs:
        ratio = run["report"].objective_trace[-1] / run["oracle_best"]
        worst = max(worst, ratio)
        assert ratio <= 1.01
    _report(1, "oracle equivalence on 20 random instances", f"worst ratio {worst:.6f}")


def test_criterion_02_single_component_reduction(criterion2_runs):
    worst = 0.0
    for run in criterion2_runs:
        final = run["report"].objective_trace[-1]
        relative = abs(final - run["oracle_best"]) / run["oracle_best"]
        worst = max(worst, relative)
        assert relative <= 1e-3
    _report(2, "C=1 quadratic-hinge reduction", f"worst relative gap {worst:.2e}")


def test_criterion_03_row_subproblem_optimality():
    rng = np.random.default_rng(7)
    worst = -np.inf
    for _ in range(200):
        C = int(rng.integers(1, 6))
        P_row = rng.normal(size=(1, C))
        Q_row = rng.normal(size=(1, C))
        mu = float(rng.uniform(0.2, 5.0))
        state = solver.SolverState(W=np.ones((1, C)), b=np.zeros(C), E=np.zeros((1, C)),
                                   P=P_row, Q=Q_row, Z=np.zeros((1, C)), mu=mu)
        w = solver.solve_w_subproblem(state)[0]
        reference = oracles.w_row_reference(P_row[0], Q_row[0], mu)
        gap = (oracles.w_row_objective(w, P_row[0], Q_row[0], mu)
               - oracles.w_row_objective(reference, P_row[0], Q_row[0], mu))
        worst = max(worst, gap)
        assert gap <= 1e-6
    _report(3, "row solver beats golden-section reference", f"worst gap {worst:.2e}")


def test_criterion_04_slack_update_matches_grid_search():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        y = float(rng.choice([-1.0, 1.0]))
        s = float(rng.uniform(-5.0, 5.0))
        k = float(rng.uniform(0.01, 3.0))
        p = float(rng.choice([1.0, 1.5, 2.0]))
        e = solver.update_E(np.array([[s]]), np.array([[y]]), lam=k, mu=1.0, p=p)[0][0, 0]
        reference = oracles.scalar_e_minimizer(y, s, k, p)
        gap = abs(e - reference)
        worst = max(worst, gap)
        assert gap <= 1e-4
    _report(4, "slack update vs scalar grid oracle", f"worst |gap| {worst:.2e}")


def test_criterion_05_ensemble_loss_bound(criterion1_runs, criterion2_runs):
    rng = np.random.default_rng(29)
    for _ in range(1000):
        M = int(rng.integers(1, 8))
        C = int(rng.integers(1, 6))
        N = int(rng.integers(1, 20))
        model = model_mod.EnsembleModel(W=rng.normal(size=(M, C)) * rng.uniform(0.1, 5.0),
                                        b=rng.normal(size=C), lam=1.0, p=2.0)
        data = DataSet(X=rng.normal(size=(M, N)), y=rng.choice([-1.0, 1.0], N))
        p = float(rng.choice([1.0, 1.5, 2.0]))
        holds, ens, avg = model_mod.verify_ensemble_bound(model, data, p)
        assert holds, (ens, avg)
    for run in criterion1_runs + criterion2_runs:
        holds, ens, avg = model_mod.verify_ensemble_bound(run["model"], run["data"], run["p"])
        assert holds, (ens, avg)
    _report(5, "averaged-ensemble loss bound", "1000 random draws + 30 trained models")


def test_criterion_06_regularizer_identity():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(1000):
        M = int(rng.integers(1, 12))
        C = int(rng.integers(1, 8))
        W = rng.normal(size=(M, C)) * rng.uniform(0.1, 10.0)
        pair_sum = sum(relaxed_exclusivity(W[:, c], W[:, cc])
                       for c in range(C) for cc in range(c + 1, C))
        lhs = exclusivity_regularizer(W)
        rhs = 0.5 * np.linalg.norm(W) ** 2 + pair_sum
        relative = abs(lhs - rhs) / max(abs(rhs), 1e-30)
        worst = max(worst, relative)
        assert relative <= 1e-9
    _report(6, "pairwise decomposition of the regularizer", f"worst relative {worst:.2e}")


def test_criterion_07_feasibility_and_bounded_multipliers(criterion1_runs, criterion2_runs):
    worst_residual = 0.0
    worst_multiplier = 0.0
    for run in criterion1_runs + criterion2_runs:
        first, second = run["report"].residual_trace[-1]
        worst_residual = max(worst_residual, first, second)
        worst_multiplier = max(worst_multiplier, max(run["report"].multiplier_sup_trace))
        assert first < 1e-3 and second < 1e-3
        assert worst_multiplier <= 1e8
    _report(7, "feasibility at termination, multipliers bounded",
            f"worst residual {worst_residual:.2e}, multiplier sup {worst_multiplier:.2e}")


def test_criterion_08_convergence_speed():
    data = make_blobs(500, 10, seed=42)
    _, report_p2 = train(data, SolverConfig(loss_power=2.0))
    assert report_p2.iterations <= 100
    _, report_p1 = train(data, SolverConfig(loss_power=1.0))
    assert report_p1.iterations <= 200
    _report(8, "outer-iteration budget on 500-instance synthetic",
            f"p=2 took {report_p2.iterations}, p=1 took {report_p1.iterations}")


_BENCHMARKS = {
    "heart": (("heart", "heart_scale", "heart.txt"), 17.83),
    "sonar": (("sonar", "sonar_scale", "sonar.txt"), 23.79),
    "ionosphere": (("ionosphere", "ionosphere_scale", "ionosphere.txt"), 13.03),
}


def _find_benchmark(name):
    root = Path(os.environ.get("XRM_DATA_DIR", "data"))
    for candidate in _BENCHMARKS[name][0]:
        path = root / candidate
        if path.is_file():
            return path
    return None


def test_criterion_09_benchmark_error_bands():
    paths = {name: _find_benchmark(name) for name in _BENCHMARKS}
    missing = [name for name, path in paths.items() if path is None]
    if missing:
        pytest.skip(
            "benchmark datasets not found (download heart, sonar, ionosphere into "
            f"./data or $XRM_DATA_DIR); missing: {', '.join(missing)}"
        )
    config = SolverConfig(lam=2.0, components=10, loss_power=2.0)
    details = []
    for name, (_, target) in _BENCHMARKS.items():
        data = load_dataset(paths[name])
        spec = SplitSpec(train_size=150, seed=0, trials=10)
        errors = []
        for trial in range(spec.trials):
            train_set, test_set = split(data, spec, trial)
            model, _ = train(train_set, config)
            errors.append(100.0 * model_mod.test_error(model, test_set))
        mean = float(np.mean(errors))
        details.append(f"{name} {mean:.2f}% (target {target}%)")
        assert abs(mean - target) <= 5.0, f"{name}: mean {mean:.2f}% vs target {target}%"
    _report(9, "benchmark error bands", "; ".join(details))


def test_criterion_10_quasi_linear_timing(tmp_path):
    data = make_blobs(4000, 10, seed=3)
    path = tmp_path / "synth.txt"
    from xrm import save_dataset

    save_dataset(data, path)
    ratios = []
    for repetition in range(5):
        out = tmp_path / f"bench{repetition}.csv"
        rc = cli_main(["bench", "--data", str(path), "--sizes", "2000,4000",
                       "--runs", "10", "--seed", str(repetition), "--out", str(out)])
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        ratios.append(float(rows[1][1]) / float(rows[0][1]))
    mean_ratio = float(np.mean(ratios))
    assert mean_ratio <= 2.8
    _report(10, "quasi-linear training time", f"mean time(2N)/time(N) {mean_ratio:.2f}")

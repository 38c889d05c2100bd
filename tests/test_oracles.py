import numpy as np
import pytest

from conftest import random_instance
from xrm import DataSet
from xrm.oracles import (
    joint_objective,
    reference_primal_solver,
    scalar_e_minimizer,
    w_row_objective,
    w_row_reference,
)


class TestScalarMinimizer:
    def test_quadratic_stationary_point(self):
        assert scalar_e_minimizer(1.0, 2.0, 0.5, 2.0) == pytest.approx(1.0, abs=1e-4)

    def test_no_loss_returns_target(self):
        assert scalar_e_minimizer(1.0, 1.75, 0.0, 2.0) == pytest.approx(1.75, abs=1e-4)

    def test_negative_label_mirror(self):
        assert scalar_e_minimizer(-1.0, -2.0, 0.5, 1.0) == pytest.approx(-1.5, abs=1e-4)

    def test_deterministic(self):
        a = scalar_e_minimizer(1.0, 0.37, 0.9, 1.5)
        b = scalar_e_minimizer(1.0, 0.37, 0.9, 1.5)
        assert a == b


class TestReferencePrimalSolver:
    def test_zero_loss_weight(self):
        rng = np.random.default_rng(1)
        data = DataSet(X=rng.normal(size=(3, 8)), y=rng.choice([-1.0, 1.0], 8))
        W, b, best = reference_primal_solver(data, lam=0.0, components=2, p=2.0,
                                             max_iters=100)
        np.testing.assert_allclose(W, 0.0)
        assert best == 0.0

    def test_more_iterations_never_hurt(self):
        rng = np.random.default_rng(2)
        data = random_instance(rng, n_max=15, m_max=4)
        short = reference_primal_solver(data, 2.0, 2, 1.0, max_iters=2000)[2]
        long = reference_primal_solver(data, 2.0, 2, 1.0, max_iters=4000)[2]
        assert long <= short

    def test_rejects_other_powers(self):
        rng = np.random.default_rng(3)
        data = random_instance(rng)
        with pytest.raises(ValueError):
            reference_primal_solver(data, 1.0, 1, 1.5)

    @pytest.mark.parametrize("max_iters", [0, -1])
    def test_rejects_empty_run(self, max_iters):
        data = random_instance(np.random.default_rng(3))
        with pytest.raises(ValueError, match="max_iters must be at least 1"):
            reference_primal_solver(data, 1.0, 1, 2.0, max_iters=max_iters)

    def test_best_matches_reported_iterate(self):
        rng = np.random.default_rng(4)
        data = random_instance(rng, n_max=12, m_max=3)
        W, b, best = reference_primal_solver(data, 0.5, 2, 2.0, max_iters=3000)
        assert joint_objective(W, b, data, 0.5, 2.0) == pytest.approx(best)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        data = random_instance(rng, n_max=10, m_max=3)
        first = reference_primal_solver(data, 1.0, 2, 1.0, max_iters=500)
        second = reference_primal_solver(data, 1.0, 2, 1.0, max_iters=500)
        np.testing.assert_array_equal(first[0], second[0])
        assert first[2] == second[2]


class TestRowReference:
    def test_penalty_dominated(self):
        P_row = np.array([0.8, -0.4, 0.1])
        row = w_row_reference(P_row, np.zeros(3), mu=1e8)
        np.testing.assert_allclose(row, P_row, atol=1e-4)

    def test_zero_inputs(self):
        np.testing.assert_allclose(w_row_reference(np.zeros(3), np.zeros(3), 1.0), 0.0,
                                   atol=1e-12)

    def test_symmetric_known_solution(self):
        row = w_row_reference(np.array([1.0, 1.0]), np.zeros(2), mu=1.0)
        np.testing.assert_allclose(row, [1 / 3, 1 / 3], atol=1e-6)

    def test_objective_converged(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            C = int(rng.integers(1, 6))
            P_row = rng.normal(size=C)
            Q_row = rng.normal(size=C)
            mu = float(rng.uniform(0.3, 4.0))
            row = w_row_reference(P_row, Q_row, mu)
            base = w_row_objective(row, P_row, Q_row, mu)
            # perturbing any coordinate should not improve the objective
            for c in range(C):
                for delta in (-1e-5, 1e-5):
                    trial = row.copy()
                    trial[c] += delta
                    assert w_row_objective(trial, P_row, Q_row, mu) >= base - 1e-10

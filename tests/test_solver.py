import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from conftest import make_blobs, make_ill_scaled, random_instance
from xrm import DataSet, SolverConfig, train
from xrm import oracles, solver
from xrm.diversity import exclusivity_regularizer
from xrm.model import EnsembleModel, average_component_loss


def _state(W=None, b=None, E=None, P=None, Q=None, Z=None, mu=1.0):
    shapes = [a.shape for a in (W, P, Q) if a is not None]
    M, C = shapes[0]
    N = E.shape[0] if E is not None else (Z.shape[0] if Z is not None else 1)
    return solver.SolverState(
        W=W if W is not None else np.ones((M, C)),
        b=b if b is not None else np.zeros(C),
        E=E if E is not None else np.zeros((N, C)),
        P=P if P is not None else np.zeros((M, C)),
        Q=Q if Q is not None else np.zeros((M, C)),
        Z=Z if Z is not None else np.zeros((N, C)),
        mu=mu,
    )


def _count_products_with_x(data, config):
    """Train while recording every product that has X, or a view of it such
    as X.T, as an operand; returns (count, report, widths), where widths
    lists the column count of the other operand of each product except the
    Gram product of X with itself."""
    products = []
    widths = []

    def record(other):
        products.append(1)
        if not isinstance(other, CountingArray):
            widths.append(other.shape[1] if other.ndim == 2 else 1)

    class CountingArray(np.ndarray):
        def __matmul__(self, other):
            record(other)
            return np.asarray(self) @ np.asarray(other)

        def __rmatmul__(self, other):
            record(other)
            return np.asarray(other) @ np.asarray(self)

    object.__setattr__(data, "X", data.X.view(CountingArray))
    _, report = train(data, config)
    return len(products), report, widths


def _reference_train(data, config):
    """The outer loop of ``solver.train`` carried on all C columns: the public
    block functions with unit multiplicity from the symmetric start
    ``make_initial_state(data, C)``.  Returns the final state and the
    objective and residual traces, the iteration count and the stop reason."""
    C = config.components
    Y = np.broadcast_to(data.y[:, None], (data.y.size, C))
    solve_gram = solver.factor_gram(data.X)
    state = solver.make_initial_state(data, C)
    XtP = np.zeros_like(state.E)
    objectives, residuals = [], []
    stop_reason = "max_iters"
    for iteration in range(1, config.outer_max_iters + 1):
        Z_over_mu = state.Z / state.mu
        W = solver.solve_w_subproblem(state)
        b = solver.update_b(state, data, XtP, Z_over_mu)
        E, _ = solver.update_E(Y - XtP - b[None, :] - Z_over_mu, Y, config.lam, state.mu,
                               config.loss_power)
        P = solver.update_P(state, data, W, E, b, solve_gram, Z_over_mu)
        XtP = data.X.T @ P
        gaps = solver.constraint_gaps(W, b, E, P, XtP, data.y)
        Z, Q, mu = solver.update_multipliers(state, *gaps, config.rho)
        residuals.append(solver.constraint_residuals(*gaps))
        state = solver.SolverState(W=W, b=b, E=E, P=P, Q=Q, Z=Z, mu=mu, iteration=iteration)
        objectives.append(solver.primal_objective(W, b, data, config.lam, config.loss_power))
        if len(objectives) > 1 and abs(objectives[-1] - objectives[-2]) < config.outer_tol:
            stop_reason = "objective_change"
            break
    return state, objectives, residuals, state.iteration, stop_reason


def _bisection_reference(a, k, p, tol):
    """Plain bisection of f(t) = k p t^(p-1) + t - a on [0, a] down to width
    tol (at most 200 halvings); returns the midpoints and the halving count,
    the same contract as ``solver._positive_branch_minimizer``."""
    lo = np.zeros_like(a)
    hi = np.array(a, dtype=float)
    steps = 0
    while steps < 200 and float((hi - lo).max()) > tol:
        mid = 0.5 * (lo + hi)
        positive = k * p * mid ** (p - 1.0) + mid - a > 0.0
        hi = np.where(positive, mid, hi)
        lo = np.where(positive, lo, mid)
        steps += 1
    return 0.5 * (lo + hi), steps


class TestConfig:
    def test_defaults(self):
        config = SolverConfig()
        assert config.lam == 2.0
        assert config.rho == 1.1
        assert config.outer_tol == 0.05
        assert solver.MU_INIT == 1.0
        assert solver.MU_CAP == 1e10
        assert solver.GENERAL_P_TOL == 1e-10

    @pytest.mark.parametrize("kwargs", [
        {"lam": 0.0}, {"components": 0}, {"loss_power": 0.5}, {"rho": 1.0},
        {"lam": -1.0}, {"loss_power": 0.0}, {"rho": 0.5}, {"outer_tol": 0.0},
        {"outer_max_iters": 0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestInitialState:
    def test_starting_point(self):
        data = DataSet(X=np.ones((3, 5)), y=np.array([1.0, -1.0, 1.0, -1.0, 1.0]))
        state = solver.make_initial_state(data, 2)
        np.testing.assert_array_equal(state.W, np.zeros((3, 2)))
        np.testing.assert_array_equal(state.b, np.zeros(2))
        np.testing.assert_array_equal(state.P, np.zeros((3, 2)))
        np.testing.assert_array_equal(state.Q, np.ones((3, 2)))
        np.testing.assert_array_equal(state.Z, np.zeros((5, 2)))
        assert state.mu == 1.0


class TestWSubproblem:
    def test_penalty_dominated_limit(self):
        P = np.array([[0.3, -0.2], [1.0, 0.5]])
        Q = np.array([[0.1, 0.4], [-0.3, 0.2]])
        state = _state(W=np.ones((2, 2)), P=P, Q=Q, mu=1e8)
        W = solver.solve_w_subproblem(state)
        np.testing.assert_allclose(W, P, atol=1e-6)

    def test_zero_inputs_give_zero_row(self):
        state = _state(W=np.ones((1, 3)), P=np.zeros((1, 3)), Q=np.zeros((1, 3)), mu=1.0)
        W = solver.solve_w_subproblem(state)
        np.testing.assert_allclose(W, 0.0, atol=1e-12)

    def test_known_symmetric_solution(self):
        # with targets (1, 1) and mu = 1 the row optimum is (1/3, 1/3)
        state = _state(W=np.ones((1, 2)), P=np.array([[1.0, 1.0]]), Q=np.zeros((1, 2)), mu=1.0)
        W = solver.solve_w_subproblem(state)
        np.testing.assert_allclose(W, [[1 / 3, 1 / 3]], atol=1e-6)

    def test_matches_reference_on_random_rows(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            C = int(rng.integers(1, 6))
            P_row = rng.normal(size=(1, C))
            Q_row = rng.normal(size=(1, C))
            mu = float(rng.uniform(0.2, 5.0))
            state = _state(W=np.ones((1, C)), P=P_row, Q=Q_row, mu=mu)
            W = solver.solve_w_subproblem(state)
            reference = oracles.w_row_reference(P_row[0], Q_row[0], mu)
            ours = oracles.w_row_objective(W[0], P_row[0], Q_row[0], mu)
            best = oracles.w_row_objective(reference, P_row[0], Q_row[0], mu)
            assert ours <= best + 1e-6

    def test_hand_computed_exact_zeros(self):
        # v = (3, 1, 0.2), mu = 1: only the largest entry survives the
        # threshold 3 / (1 + 1) = 1.5, and the others are exactly zero
        state = _state(P=np.array([[3.0, 1.0, 0.2]]), Q=np.zeros((1, 3)), mu=1.0)
        np.testing.assert_array_equal(solver.solve_w_subproblem(state), [[1.5, 0.0, 0.0]])

    @settings(max_examples=300, deadline=None)
    @given(
        V=hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 4), st.integers(1, 6)),
            elements=st.one_of(st.sampled_from([0.0, 1.0, -1.0, 2.5, -2.5]),
                               st.floats(-1e3, 1e3)),
        ),
        mu=st.floats(1e-3, 1e3),
    )
    def test_prox_optimality_conditions(self, V, mu):
        # the row minimizer of 0.5*||w||_1^2 + mu/2*||w - v||^2 satisfies
        # w_c = v_c - sign(v_c) * ||w||_1 / mu where w_c != 0, and
        # |v_c| <= ||w||_1 / mu where w_c == 0.  Both are checked multiplied
        # by mu, because dividing the rounding error of ||w||_1 by a small mu
        # would swamp the tolerance, which is relative to the size of v.
        state = _state(P=V, Q=np.zeros_like(V), mu=mu)
        W = solver.solve_w_subproblem(state)
        for v, w in zip(V, W):
            l1 = np.abs(w).sum()
            tol = 1e-12 * (1.0 + mu) * max(1.0, float(np.abs(v).max()))
            nonzero = w != 0.0
            np.testing.assert_allclose(mu * (v - w)[nonzero], np.sign(v[nonzero]) * l1,
                                       rtol=0.0, atol=tol)
            assert np.all(mu * np.abs(v[~nonzero]) <= l1 + tol)


    @settings(max_examples=300, deadline=None)
    @given(
        V=hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 4), st.integers(1, 5)),
            elements=st.one_of(st.sampled_from([0.0, 1.0, -1.0, 2.5, -2.5]),
                               st.floats(-1e3, 1e3)),
        ),
        data=st.data(),
        mu=st.floats(1e-3, 1e3),
    )
    @example(V=np.array([[1.5]]), data=None, mu=1.0)  # m = 1
    @example(V=np.array([[2.0, -2.0, 0.0, 1.0]]), data=None, mu=0.5)  # ties and a zero
    def test_multiplicity_repeats_columns(self, V, data, mu):
        # Every column with multiplicity m gives the unit-multiplicity prox
        # of the row in which each column appears m times, de-duplicated.
        C = V.shape[1]
        if data is None:
            m = 1 if C == 1 else 3
        else:
            m = data.draw(st.integers(1, 4))
        repeated = np.repeat(V, m, axis=1)
        expanded = solver.solve_w_subproblem(_state(P=repeated, Q=np.zeros_like(repeated), mu=mu))
        first = np.arange(C) * m
        for c in range(C):
            np.testing.assert_array_equal(expanded[:, first[c]:first[c] + m],
                                          np.repeat(expanded[:, first[c], None], m, axis=1))
        weighted = solver.solve_w_subproblem(_state(P=V, Q=np.zeros_like(V), mu=mu), m)
        tol = 1e-12 * max(1.0, float(np.abs(V).max()))
        np.testing.assert_allclose(weighted, expanded[:, first], rtol=0.0, atol=tol)

    def test_single_column_of_multiplicity_c_shrinks(self):
        rng = np.random.default_rng(31)
        P, Q = rng.normal(size=(6, 1)), rng.normal(size=(6, 1))
        for C, mu in ((1, 1.0), (7, 0.3), (30, 2.5)):
            W = solver.solve_w_subproblem(_state(P=P, Q=Q, mu=mu), C)
            np.testing.assert_allclose(W, (P + Q / mu) * mu / (mu + C), rtol=1e-14)


class TestUpdateB:
    def test_column_mean(self):
        data = DataSet(X=np.zeros((1, 2)), y=np.array([1.0, -1.0]))
        # choose E so that the residual matrix has one column equal to (1, 3)
        E = data.y[:, None] - np.array([[1.0], [3.0]])
        state = _state(W=np.ones((1, 1)), E=E, P=np.zeros((1, 1)), Z=np.zeros((2, 1)))
        assert solver.update_b(state, data, data.X.T @ state.P,
                               state.Z / state.mu) == pytest.approx(np.array([2.0]))

    def test_zero_residual(self):
        data = DataSet(X=np.zeros((1, 3)), y=np.array([1.0, -1.0, 1.0]))
        state = _state(W=np.ones((1, 2)), E=data.y[:, None] * np.ones((1, 2)),
                       P=np.zeros((1, 2)), Z=np.zeros((3, 2)))
        np.testing.assert_allclose(solver.update_b(state, data, data.X.T @ state.P,
                                                   state.Z / state.mu), np.zeros(2))

    def test_minimizes_by_finite_differences(self):
        rng = np.random.default_rng(19)
        M, N, C = 3, 7, 2
        data = DataSet(X=rng.normal(size=(M, N)), y=rng.choice([-1.0, 1.0], N))
        state = _state(W=rng.normal(size=(M, C)), E=rng.normal(size=(N, C)),
                       P=rng.normal(size=(M, C)), Z=rng.normal(size=(N, C)),
                       Q=rng.normal(size=(M, C)), mu=1.7)
        b = solver.update_b(state, data, data.X.T @ state.P, state.Z / state.mu)

        def penalty(b_vec):
            resid = state.E - data.y[:, None] + data.X.T @ state.P + b_vec[None, :]
            return 0.5 * state.mu * (resid**2).sum() + (state.Z * resid).sum()

        h = 1e-6
        for c in range(C):
            shift = np.zeros(C)
            shift[c] = h
            gradient = (penalty(b + shift) - penalty(b - shift)) / (2 * h)
            assert abs(gradient) < 1e-5


class TestUpdateE:
    def test_soft_threshold_cases(self):
        Y = np.array([[1.0], [1.0], [-1.0]])
        S = np.array([[2.0], [0.3], [0.3]])
        E, _ = solver.update_E(S, Y, lam=0.5, mu=1.0, p=1.0)
        np.testing.assert_allclose(E, [[1.5], [0.0], [0.3]])

    def test_quadratic_shrink(self):
        E, _ = solver.update_E(np.array([[2.0]]), np.array([[1.0]]), lam=0.5, mu=1.0, p=2.0)
        assert E[0, 0] == pytest.approx(1.0)

    def test_intermediate_power(self):
        # frozen from the grid oracle: argmin of t^1.5 + (t-2)^2/2 is ~0.723828
        E, _ = solver.update_E(np.array([[2.0]]), np.array([[1.0]]), lam=1.0, mu=1.0, p=1.5)
        assert E[0, 0] == pytest.approx(0.7238284, abs=1e-6)
        reference = oracles.scalar_e_minimizer(1.0, 2.0, 1.0, 1.5)
        assert abs(E[0, 0] - reference) <= 1e-4

    def test_vanishing_loss_returns_target(self):
        rng = np.random.default_rng(21)
        S = rng.normal(size=(6, 3))
        Y = rng.choice([-1.0, 1.0], size=(6, 1)) * np.ones((1, 3))
        for p in (1.0, 1.7, 2.0):
            E, _ = solver.update_E(S, Y, lam=1e-14, mu=1.0, p=p)
            np.testing.assert_allclose(E, S, atol=1e-10)

    def test_rejects_power_below_one(self):
        with pytest.raises(ValueError):
            solver.update_E(np.ones((1, 1)), np.ones((1, 1)), lam=1.0, mu=1.0, p=0.5)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(60):
            y = float(rng.choice([-1.0, 1.0]))
            s = float(rng.uniform(-5, 5))
            k = float(rng.uniform(0.01, 3.0))
            p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
            e = solver.update_E(np.array([[s]]), np.array([[y]]), lam=k, mu=1.0, p=p)[0][0, 0]
            reference = oracles.scalar_e_minimizer(y, s, k, p)
            assert abs(e - reference) <= 1e-4

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=300, deadline=None)
    @given(st.floats(1.01, 4.0), st.floats(-12.0, 8.0),
           hnp.arrays(np.float64, st.integers(1, 6), elements=st.floats(-8.0, 8.0)))
    @example(p=1.01, log_k=-2.0, log_a=np.array([8.0, 0.0, -8.0]))  # bracket powers overflow
    @example(p=1.01, log_k=8.0, log_a=np.array([-8.0, 8.0]))  # the small root underflows to 0
    @example(p=3.0, log_k=-12.0, log_a=np.array([8.0, -8.0, 0.0]))
    @example(p=3.0, log_k=-9.0, log_a=np.array([8.0]))  # neighbouring floats alternate
    @example(p=1.5, log_k=2.5, log_a=np.array([7.5]))  # likewise
    @example(p=4.0, log_k=8.0, log_a=np.array([-8.0]))
    def test_general_power_minimizer(self, p, log_k, log_a):
        k, a, tol = 10.0**log_k, 10.0**log_a, 1e-10
        t, steps = solver._positive_branch_minimizer(a, k, p, tol)
        assert np.all(np.isfinite(t)) and np.all((t >= 0.0) & (t <= a))
        assert 1 <= steps < 200
        # f(t) = k p t^(p-1) + t - a changes sign within a few tol (or float
        # spacings of a) of t.  |f(t)| itself is not small against a when the
        # root underflows to 0 or when a is comparable to tol.
        slack = 4 * tol + 16 * np.spacing(a)

        def f(u):
            return k * p * u ** (p - 1.0) + u - a

        assert np.all(f(np.maximum(t - slack, 0.0)) <= 0.0)
        assert np.all(f(t + slack) >= 0.0)
        reference, _ = _bisection_reference(a, k, p, tol)
        assert np.all(np.abs(t - reference) <= slack)


class TestUpdateP:
    def test_zero_features(self):
        data = DataSet(X=np.zeros((2, 3)), y=np.array([1.0, -1.0, 1.0]))
        W = np.array([[1.0, 2.0], [3.0, 4.0]])
        Q = np.array([[0.5, 0.0], [0.0, 0.5]])
        state = _state(W=W, Q=Q, E=np.zeros((3, 2)), P=np.zeros((2, 2)), Z=np.zeros((3, 2)), mu=2.0)
        K = solver.factor_gram(data.X)
        P = solver.update_P(state, data, W, np.zeros((3, 2)), np.zeros(2), K, state.Z / state.mu)
        np.testing.assert_allclose(P, W - Q / 2.0)

    def test_matches_generic_dense_solve(self):
        rng = np.random.default_rng(23)
        # M < N factors I + X X^T; M > N factors I + X^T X.
        for M, N, C in ((4, 9, 3), (9, 4, 3)):
            data = DataSet(X=rng.normal(size=(M, N)), y=rng.choice([-1.0, 1.0], N))
            W = rng.normal(size=(M, C))
            E = rng.normal(size=(N, C))
            b = rng.normal(size=C)
            state = _state(W=W, E=E, P=rng.normal(size=(M, C)), Q=rng.normal(size=(M, C)),
                           Z=rng.normal(size=(N, C)), mu=1.3)
            K = solver.factor_gram(data.X)
            P = solver.update_P(state, data, W, E, b, K, state.Z / state.mu)
            R = data.y[:, None] - b[None, :] - state.Z / state.mu
            rhs = W - state.Q / state.mu + data.X @ (R - E)
            expected = np.linalg.solve(np.eye(M) + data.X @ data.X.T, rhs)
            np.testing.assert_allclose(P, expected, atol=1e-8)

    def test_first_order_optimality(self):
        rng = np.random.default_rng(24)
        for M, N, C in ((3, 6, 2), (9, 4, 2)):
            data = DataSet(X=rng.normal(size=(M, N)), y=rng.choice([-1.0, 1.0], N))
            W = rng.normal(size=(M, C))
            E = rng.normal(size=(N, C))
            b = rng.normal(size=C)
            state = _state(W=W, E=E, P=rng.normal(size=(M, C)), Q=rng.normal(size=(M, C)),
                           Z=rng.normal(size=(N, C)), mu=0.9)
            K = solver.factor_gram(data.X)
            P = solver.update_P(state, data, W, E, b, K, state.Z / state.mu)

            def objective(P_mat):
                split = P_mat - W
                slack = E - data.y[:, None] + data.X.T @ P_mat + b[None, :]
                return (0.5 * state.mu * (split**2).sum() + (state.Q * split).sum()
                        + 0.5 * state.mu * (slack**2).sum() + (state.Z * slack).sum())

            h = 1e-6
            worst = 0.0
            for j in range(M):
                for c in range(C):
                    shift = np.zeros((M, C))
                    shift[j, c] = h
                    gradient = (objective(P + shift) - objective(P - shift)) / (2 * h)
                    worst = max(worst, abs(gradient))
            assert worst < 1e-6


class TestFactorGram:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @example(M=1, N=1, C=1, seed=0)
    @example(M=1, N=12, C=2, seed=1)
    @example(M=12, N=1, C=2, seed=2)
    @example(M=7, N=7, C=3, seed=3)
    def test_solve_matches_dense_inverse(self, M, N, C, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(M, N)) * rng.choice([0.1, 1.0, 10.0])
        R = rng.normal(size=(M, C))
        expected = np.linalg.solve(np.eye(M) + X @ X.T, R)
        got = solver.factor_gram(X)(R)
        scale = 1.0 + np.abs(X).max() ** 2
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10 * scale * (1 + np.abs(R).max()))

    def test_ill_scaled_features_fail_with_advice(self):
        # finite X whose squared norm nears 1/eps: rounding costs I + X X^T its
        # positive definiteness, and the error says to rescale the features
        with pytest.raises(ValueError, match="too large for the Gram factorization") as err:
            train(make_ill_scaled(), SolverConfig())
        assert "--standardize" in str(err.value)

    def test_side_follows_shape(self):
        assert solver.gram_side(np.zeros((3, 5))) == "features"
        assert solver.gram_side(np.zeros((4, 4))) == "features"
        assert solver.gram_side(np.zeros((5, 3))) == "instances"
        assert solver.gram_side(np.zeros((1, 1))) == "features"


class TestMultipliers:
    def test_feasible_state_only_grows_mu(self):
        data = DataSet(X=np.zeros((2, 3)), y=np.array([1.0, -1.0, 1.0]))
        W = np.ones((2, 2))
        b = np.zeros(2)
        E = data.y[:, None] * np.ones((1, 2))  # feasible: E = Y - X^T P - 1 b^T with X = 0
        state = _state(W=W, E=E, P=W.copy(), Q=np.ones((2, 2)), Z=np.ones((3, 2)), mu=1.0)
        gaps = solver.constraint_gaps(W, b, E, W.copy(), data.X.T @ W, data.y)
        Z, Q, mu = solver.update_multipliers(state, *gaps, rho=1.1)
        np.testing.assert_array_equal(Z, state.Z)
        np.testing.assert_array_equal(Q, state.Q)
        assert mu == pytest.approx(1.1)

    def test_unit_residual_steps_by_mu(self):
        data = DataSet(X=np.zeros((2, 2)), y=np.array([1.0, -1.0]))
        W = np.zeros((2, 2))
        P = W + 1.0
        E = data.y[:, None] * np.ones((1, 2)) + 1.0
        state = _state(W=W, E=E, P=P, Q=np.zeros((2, 2)), Z=np.zeros((2, 2)), mu=2.0)
        gaps = solver.constraint_gaps(W, np.zeros(2), E, P, data.X.T @ P, data.y)
        Z, Q, mu = solver.update_multipliers(state, *gaps, rho=1.5)
        np.testing.assert_allclose(Q, np.full((2, 2), 2.0))
        np.testing.assert_allclose(Z, np.full((2, 2), 2.0))
        assert mu == 3.0

    def test_mu_cap(self):
        data = DataSet(X=np.zeros((1, 1)), y=np.array([1.0]))
        state = _state(W=np.zeros((1, 1)), E=np.ones((1, 1)), P=np.zeros((1, 1)),
                       Z=np.zeros((1, 1)), mu=9e9)
        gaps = solver.constraint_gaps(np.zeros((1, 1)), np.zeros(1), np.ones((1, 1)),
                                      np.zeros((1, 1)), data.X.T @ np.zeros((1, 1)), data.y)
        _, _, mu = solver.update_multipliers(state, *gaps, rho=2.0)
        assert mu == 1e10


class TestPrimalObjective:
    def test_hand_computed(self):
        data = DataSet(X=np.zeros((2, 1)), y=np.array([1.0]))
        value = solver.primal_objective(np.array([[1.0], [0.0]]), np.zeros(1), data,
                                        lam=1.0, p=1.0)
        assert value == pytest.approx(1.5)

    def test_zero_model(self):
        N = 5
        data = DataSet(X=np.zeros((2, N)), y=np.ones(N))
        assert solver.primal_objective(np.zeros((2, 1)), np.zeros(1), data, 1.0, 2.0) == N
        assert solver.primal_objective(np.zeros((2, 3)), np.zeros(3), data, 1.0, 2.0) == 3 * N

    def test_compositional_identity(self):
        rng = np.random.default_rng(25)
        data = DataSet(X=rng.normal(size=(4, 12)), y=rng.choice([-1.0, 1.0], 12))
        W = rng.normal(size=(4, 3))
        b = rng.normal(size=3)
        for lam, p in ((0.5, 1.0), (2.0, 2.0)):
            model = EnsembleModel(W=W, b=b, lam=lam, p=p)
            expected = exclusivity_regularizer(W) + lam * 3 * average_component_loss(model, data, p)
            assert solver.primal_objective(W, b, data, lam, p) == pytest.approx(expected, abs=1e-12)

    def test_multiplicity_counts_repeated_columns(self):
        rng = np.random.default_rng(32)
        data = DataSet(X=rng.normal(size=(4, 12)), y=rng.choice([-1.0, 1.0], 12))
        W = rng.normal(size=(4, 3))
        b = rng.normal(size=3)
        for m in (2, 4):
            for lam, p in ((0.5, 1.0), (2.0, 1.5), (2.0, 2.0)):
                expected = solver.primal_objective(np.repeat(W, m, axis=1), np.repeat(b, m),
                                                   data, lam, p)
                assert solver.primal_objective(W, b, data, lam, p, m) == \
                    pytest.approx(expected, rel=1e-14)
                assert solver.primal_objective(W, b, data, lam, p, 1) == \
                    solver.primal_objective(W, b, data, lam, p)


class TestResiduals:
    def test_feasible(self):
        rng = np.random.default_rng(26)
        data = DataSet(X=rng.normal(size=(3, 5)), y=rng.choice([-1.0, 1.0], 5))
        W = rng.normal(size=(3, 2))
        b = rng.normal(size=2)
        E = data.y[:, None] - data.X.T @ W - b[None, :]
        state = _state(W=W, b=b, E=E, P=W.copy(), Z=np.zeros((5, 2)))
        gaps = solver.constraint_gaps(state.W, state.b, state.E, state.P,
                                      data.X.T @ state.P, data.y)
        np.testing.assert_allclose(solver.constraint_residuals(*gaps), (0.0, 0.0),
                                   atol=1e-12)

    def test_unit_offset(self):
        data = DataSet(X=np.zeros((3, 4)), y=np.ones(4))
        W = np.zeros((3, 2))
        E = np.ones((4, 1)) * np.array([[1.0, 1.0]])
        state = _state(W=W, b=np.zeros(2), E=E + 0.0, P=W + 1.0, Z=np.zeros((4, 2)))
        gaps = solver.constraint_gaps(state.W, state.b, state.E, state.P,
                                      data.X.T @ state.P, data.y)
        first, _ = solver.constraint_residuals(*gaps)
        assert first == pytest.approx(np.sqrt(3 * 2))

    def test_multiplicity_counts_repeated_columns(self):
        rng = np.random.default_rng(33)
        split_gap, slack_gap = rng.normal(size=(3, 2)), rng.normal(size=(5, 2))
        m = 3
        expected = solver.constraint_residuals(np.repeat(split_gap, m, axis=1),
                                               np.repeat(slack_gap, m, axis=1))
        np.testing.assert_allclose(solver.constraint_residuals(split_gap, slack_gap, m),
                                   expected, rtol=1e-14)


class TestColumnSymmetry:
    def test_block_updates_permute_with_columns(self):
        # From a start state with distinct columns, permuting the columns of
        # every input permutes the output of every block update alike.
        rng = np.random.default_rng(34)
        M, N, C = 4, 9, 5
        data = DataSet(X=rng.normal(size=(M, N)), y=rng.choice([-1.0, 1.0], N))
        state = _state(W=rng.normal(size=(M, C)), b=rng.normal(size=C), E=rng.normal(size=(N, C)),
                       P=rng.normal(size=(M, C)), Q=rng.normal(size=(M, C)),
                       Z=rng.normal(size=(N, C)), mu=1.7)
        perm = rng.permutation(C)
        swapped = _state(W=state.W[:, perm], b=state.b[perm], E=state.E[:, perm],
                         P=state.P[:, perm], Q=state.Q[:, perm], Z=state.Z[:, perm], mu=state.mu)
        solve_gram = solver.factor_gram(data.X)
        Y = np.broadcast_to(data.y[:, None], (N, C))

        def blocks(s):
            XtP, Z_over_mu = data.X.T @ s.P, s.Z / s.mu
            W = solver.solve_w_subproblem(s)
            b = solver.update_b(s, data, XtP, Z_over_mu)
            E, _ = solver.update_E(Y - XtP - b[None, :] - Z_over_mu, Y, 2.0, s.mu, 1.5)
            P = solver.update_P(s, data, W, E, b, solve_gram, Z_over_mu)
            gaps = solver.constraint_gaps(W, b, E, P, data.X.T @ P, data.y)
            Z, Q, mu = solver.update_multipliers(s, *gaps, rho=1.1)
            return W, b, E, P, Z, Q, mu

        W, b, E, P, Z, Q, mu = blocks(state)
        W2, b2, E2, P2, Z2, Q2, mu2 = blocks(swapped)
        assert len({tuple(column) for column in W.T}) == C  # the columns stay distinct
        np.testing.assert_array_equal(W2, W[:, perm])
        np.testing.assert_array_equal(b2, b[perm])
        for got, want in ((E2, E[:, perm]), (P2, P[:, perm]), (Z2, Z[:, perm]),
                          (Q2, Q[:, perm])):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        assert mu2 == mu


class TestTrain:
    def test_two_point_problem(self):
        data = DataSet(X=np.array([[1.0, -1.0]]), y=np.array([1.0, -1.0]))
        config = SolverConfig(lam=2.0, components=2, loss_power=2.0,
                              outer_tol=1e-8, outer_max_iters=400)
        model, report = train(data, config)
        from xrm.model import test_error
        assert test_error(model, data) == 0.0
        # analytic optimum: 2 w^2 + 8 (1 - w)^2 minimized at w = 0.8, value 1.6
        assert report.objective_trace[-1] == pytest.approx(1.6, rel=0.01)

    def test_traces_match_iterations(self):
        data = make_blobs(40, 3, seed=2)
        _, report = train(data, SolverConfig(components=2))
        assert len(report.objective_trace) == report.iterations
        assert len(report.residual_trace) == report.iterations
        assert len(report.multiplier_sup_trace) == report.iterations

    def test_deterministic(self):
        data = make_blobs(30, 3, seed=5)
        config = SolverConfig(components=3)
        _, first = train(data, config)
        _, second = train(data, config)
        assert first.objective_trace == second.objective_trace

    def test_feasible_at_tight_termination(self):
        rng = np.random.default_rng(27)
        data = random_instance(rng, n_max=25, m_max=5)
        config = SolverConfig(components=2, rho=1.05, outer_tol=1e-10, outer_max_iters=1200)
        _, report = train(data, config)
        first, second = report.residual_trace[-1]
        assert first < 1e-3
        assert second < 1e-3

    def test_report_contains_diversity(self):
        data = make_blobs(30, 3, seed=6)
        model, report = train(data, SolverConfig(components=2))
        assert report.diversity is not None
        assert report.diversity.regularizer_value == pytest.approx(
            exclusivity_regularizer(model.W)
        )

    def test_converges_quickly_on_synthetic(self):
        data = make_blobs(100, 5, seed=7)
        _, report = train(data, SolverConfig(components=4))
        assert report.iterations <= 150

    def test_intermediate_power_end_to_end(self):
        data = make_blobs(50, 4, seed=8)
        config = SolverConfig(components=3, loss_power=1.5, rho=1.05,
                              outer_tol=1e-10, outer_max_iters=800)
        model, report = train(data, config)
        assert model.p == 1.5
        first, second = report.residual_trace[-1]
        assert first < 1e-3 and second < 1e-3
        assert np.all(np.isfinite(model.W))

    def test_stop_reason(self):
        _, capped = train(make_blobs(40, 3, seed=2), SolverConfig(components=2, outer_max_iters=3))
        assert capped.iterations == 3
        assert capped.stop_reason == "max_iters"
        data = DataSet(X=np.array([[1.0, -1.0]]), y=np.array([1.0, -1.0]))
        _, settled = train(data, SolverConfig(lam=2.0, components=2, outer_tol=1e-8,
                                              outer_max_iters=400))
        assert settled.iterations < 400
        assert settled.stop_reason == "objective_change"
        assert settled.to_dict()["stop_reason"] == "objective_change"

    def test_three_products_with_x_per_iteration(self):
        # Each outer iteration needs X (R - E), X^T P and X^T W; the Gram
        # factorization adds one X X^T.  Count every product that has X (or
        # a view of it, such as X.T) as an operand.
        products, report, _ = _count_products_with_x(make_blobs(60, 4, seed=3),
                                                  SolverConfig(components=3))
        assert report.iterations > 1
        assert products == 1 + 3 * report.iterations

    def test_five_products_per_iteration_on_instances_side(self):
        # With M > N the Gram solve adds X^T rhs and X (...) to the three
        # products above; forming I + X^T X is the one product outside the loop.
        products, report, _ = _count_products_with_x(make_blobs(12, 30, seed=3),
                                                  SolverConfig(components=3))
        assert report.gram_side == "instances"
        assert report.iterations > 1
        assert products == 1 + 5 * report.iterations

    def test_instances_side_matches_dense_reference(self, monkeypatch):
        data = make_blobs(15, 40, seed=11)
        config = SolverConfig(components=3, loss_power=1.5, outer_tol=1e-6)
        _, fast = train(data, config)

        def dense_reference(X):
            K = np.eye(X.shape[0]) + X @ X.T
            return lambda rhs: np.linalg.solve(K, rhs)

        monkeypatch.setattr(solver, "factor_gram", dense_reference)
        _, dense = train(data, config)
        assert fast.gram_side == "instances"
        assert fast.iterations == dense.iterations
        assert fast.objective_trace[-1] == pytest.approx(dense.objective_trace[-1], rel=1e-9)

    def test_general_power_matches_bisection_reference(self, monkeypatch):
        data = make_blobs(60, 5, seed=12)
        config = SolverConfig(components=3, loss_power=1.5)
        _, newton = train(data, config)
        monkeypatch.setattr(solver, "_positive_branch_minimizer", _bisection_reference)
        _, bisection = train(data, config)
        assert newton.e_inner_steps != bisection.e_inner_steps
        assert newton.iterations == bisection.iterations
        assert newton.objective_trace[-1] == pytest.approx(bisection.objective_trace[-1], rel=1e-9)

    def test_e_inner_steps_in_report(self):
        data = make_blobs(40, 3, seed=2)
        _, quadratic = train(data, SolverConfig(components=2))
        _, general = train(data, SolverConfig(components=2, loss_power=1.5))
        assert quadratic.e_inner_steps == [0] * quadratic.iterations
        assert len(general.e_inner_steps) == general.iterations
        # Newton takes a handful of steps; bisection to 1e-10 would take ~40.
        assert all(0 < steps < 20 for steps in general.e_inner_steps)
        assert general.to_dict()["e_inner_steps"] == general.e_inner_steps

    def test_gram_side_in_report(self):
        _, tall = train(make_blobs(40, 3, seed=2), SolverConfig(components=2))
        _, wide = train(make_blobs(5, 20, seed=2), SolverConfig(components=2))
        assert tall.gram_side == "features"
        assert wide.gram_side == "instances"
        assert tall.to_dict()["gram_side"] == "features"
        assert wide.to_dict()["gram_side"] == "instances"

    @pytest.mark.parametrize("components", [1, 3, 7])
    @pytest.mark.parametrize("shape", [(40, 5), (12, 30)], ids=["features", "instances"])
    @pytest.mark.parametrize("power", [1.0, 1.5, 2.0])
    def test_matches_c_column_reference(self, power, shape, components):
        # train carries one column of multiplicity C; the reference loop runs
        # all C columns with unit multiplicities from the symmetric start.
        N, M = shape
        data = make_blobs(N, M, seed=int(10 * power) + components)
        config = SolverConfig(components=components, loss_power=power)
        model, report = train(data, config)
        state, objectives, residuals, iterations, stop_reason = _reference_train(data, config)
        assert report.iterations == iterations
        assert report.stop_reason == stop_reason
        np.testing.assert_allclose(report.objective_trace, objectives, rtol=1e-12)
        np.testing.assert_allclose(report.residual_trace, residuals, rtol=1e-9, atol=1e-12)
        scale = max(1.0, float(np.abs(state.W).max()))
        np.testing.assert_allclose(model.W, state.W, rtol=0.0, atol=1e-12 * scale)
        np.testing.assert_allclose(model.b, state.b, rtol=0.0, atol=1e-12 * max(1.0, np.abs(state.b).max()))
        # the reference's columns coincide too: the start and the blocks are symmetric
        assert np.ptp(state.W, axis=1).max() <= 1e-12 * scale

    def test_products_with_x_have_one_column(self):
        # Every product with X inside the loop is with a single column,
        # whatever C is; only the Gram product X X^T is wider.
        for N, M in ((60, 4), (12, 30)):
            products, report, widths = _count_products_with_x(make_blobs(N, M, seed=3),
                                                              SolverConfig(components=3))
            assert len(widths) == products - 1
            assert widths == [1] * len(widths)

    def test_reports_one_distinct_component(self):
        model, report = train(make_blobs(40, 3, seed=2), SolverConfig())
        assert model.W.shape == (3, 10)
        assert report.diversity.distinct_components == 1
        assert report.to_dict()["diversity"]["distinct_components"] == 1

    def test_divergence_error_attributes(self):
        err = solver.DivergenceError("boom", iteration=12)
        assert err.iteration == 12
        assert "boom" in str(err)

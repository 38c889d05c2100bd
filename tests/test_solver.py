import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings
from scipy.linalg import cho_factor, cho_solve

from conftest import make_blobs, make_ill_scaled, random_instance
from xrm import DataSet, SolverConfig, train
from xrm import oracles, solver
from xrm.diversity import exclusivity_regularizer
from xrm.model import EnsembleModel, average_component_loss


def _objective(W, b, data, lam, p, multiplicity=1):
    """``solver.primal_objective`` with X^T W formed directly."""
    return solver.primal_objective(W, b, data.X.T @ W, data.y, lam, p, multiplicity)


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
    block functions with unit multiplicity from the symmetric start (Q all
    ones, every other block zero, mu = ``MU_INIT``).  Returns the final W and
    b, the objective and residual traces, the iteration count and the stop
    reason."""
    C = config.components
    M, N = data.X.shape
    Y = np.broadcast_to(data.y[:, None], (N, C))
    solve_gram = solver.factor_gram(data.X)
    P, Q, mu = np.zeros((M, C)), np.ones((M, C)), solver.MU_INIT
    E, Z = np.zeros((N, C)), np.zeros((N, C))
    XtP = np.zeros_like(E)
    objectives, residuals = [], []
    stop_reason = "max_iters"
    for iteration in range(1, config.outer_max_iters + 1):
        Z_over_mu = Z / mu
        W = solver.solve_w_subproblem(P, Q, mu)
        b = solver.update_b(data.y, E, XtP, Z_over_mu)
        E, _ = solver.update_E(Y - XtP - b[None, :] - Z_over_mu, Y, config.lam, mu,
                               config.loss_power)
        P, _ = solver.update_P(solve_gram, W, Q, data.X.T @ W, data.X.T @ Q, mu,
                               Y - b[None, :] - Z_over_mu - E)
        XtP = data.X.T @ P
        gaps = solver.constraint_gaps(W, b, E, P, XtP, data.y)
        Z, Q, mu = solver.update_multipliers(Z, Q, mu, *gaps, config.rho)
        residuals.append(solver.constraint_residuals(*gaps))
        objectives.append(_objective(W, b, data, config.lam, config.loss_power))
        if len(objectives) > 1 and abs(objectives[-1] - objectives[-2]) < config.outer_tol:
            stop_reason = "objective_change"
            break
    return W, b, objectives, residuals, iteration, stop_reason


def _bisection_reference(a, k, p, start):
    """Plain bisection of f(t) = k p t^(p-1) + t - a on [0, a] down to width
    ``solver.GENERAL_P_TOL`` (at most 200 halvings); returns the midpoints and
    the halving count, the same contract as
    ``solver._positive_branch_minimizer``, whose ``start`` it ignores."""
    lo = np.zeros_like(a)
    hi = np.array(a, dtype=float)
    steps = 0
    while steps < 200 and float((hi - lo).max()) > solver.GENERAL_P_TOL:
        mid = 0.5 * (lo + hi)
        with np.errstate(over="ignore"):  # an overflowed f(mid) = inf is positive
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
        {"lam": np.nan}, {"loss_power": np.nan}, {"rho": np.nan}, {"outer_tol": np.nan},
        {"lam": np.inf}, {"loss_power": np.inf}, {"rho": np.inf}, {"outer_tol": np.inf},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestWSubproblem:
    def test_penalty_dominated_limit(self):
        P = np.array([[0.3, -0.2], [1.0, 0.5]])
        Q = np.array([[0.1, 0.4], [-0.3, 0.2]])
        W = solver.solve_w_subproblem(P, Q, 1e8)
        np.testing.assert_allclose(W, P, atol=1e-6)

    def test_zero_inputs_give_zero_row(self):
        W = solver.solve_w_subproblem(np.zeros((1, 3)), np.zeros((1, 3)), 1.0)
        np.testing.assert_allclose(W, 0.0, atol=1e-12)

    def test_known_symmetric_solution(self):
        # with targets (1, 1) and mu = 1 the row optimum is (1/3, 1/3)
        W = solver.solve_w_subproblem(np.array([[1.0, 1.0]]), np.zeros((1, 2)), 1.0)
        np.testing.assert_allclose(W, [[1 / 3, 1 / 3]], atol=1e-6)

    def test_matches_reference_on_random_rows(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            C = int(rng.integers(1, 6))
            P_row = rng.normal(size=(1, C))
            Q_row = rng.normal(size=(1, C))
            mu = float(rng.uniform(0.2, 5.0))
            W = solver.solve_w_subproblem(P_row, Q_row, mu)
            reference = oracles.w_row_reference(P_row[0], Q_row[0], mu)
            ours = oracles.w_row_objective(W[0], P_row[0], Q_row[0], mu)
            best = oracles.w_row_objective(reference, P_row[0], Q_row[0], mu)
            assert ours <= best + 1e-6

    def test_hand_computed_exact_zeros(self):
        # v = (3, 1, 0.2), mu = 1: only the largest entry survives the
        # threshold 3 / (1 + 1) = 1.5, and the others are exactly zero
        np.testing.assert_array_equal(
            solver.solve_w_subproblem(np.array([[3.0, 1.0, 0.2]]), np.zeros((1, 3)), 1.0),
            [[1.5, 0.0, 0.0]])

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
        W = solver.solve_w_subproblem(V, np.zeros_like(V), mu)
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
        # One column of multiplicity m, shrunk by mu / (mu + m) as train does,
        # equals the unit-multiplicity prox of that column repeated m times.
        C = V.shape[1]
        if data is None:
            m = 1 if C == 1 else 3
        else:
            m = data.draw(st.integers(1, 4))
        tol = 1e-12 * max(1.0, float(np.abs(V).max()))
        for c in range(C):
            repeated = np.repeat(V[:, c, None], m, axis=1)
            expanded = solver.solve_w_subproblem(repeated, np.zeros_like(repeated), mu)
            np.testing.assert_array_equal(expanded, np.repeat(expanded[:, :1], m, axis=1))
            np.testing.assert_allclose(expanded[:, 0], V[:, c] * mu / (mu + m), rtol=0.0, atol=tol)

    def test_single_column_of_multiplicity_c_shrinks(self):
        rng = np.random.default_rng(31)
        P, Q = rng.normal(size=(6, 1)), rng.normal(size=(6, 1))
        for C, mu in ((1, 1.0), (7, 0.3), (30, 2.5)):
            W = solver.solve_w_subproblem(np.repeat(P, C, axis=1), np.repeat(Q, C, axis=1), mu)
            np.testing.assert_allclose(W, np.repeat((P + Q / mu) * mu / (mu + C), C, axis=1),
                                       rtol=1e-14)


class TestUpdateB:
    def test_column_mean(self):
        data = DataSet(X=np.zeros((1, 2)), y=np.array([1.0, -1.0]))
        # choose E so that the residual matrix has one column equal to (1, 3)
        E = data.y[:, None] - np.array([[1.0], [3.0]])
        assert solver.update_b(data.y, E, data.X.T @ np.zeros((1, 1)),
                               np.zeros((2, 1))) == pytest.approx(np.array([2.0]))

    def test_zero_residual(self):
        data = DataSet(X=np.zeros((1, 3)), y=np.array([1.0, -1.0, 1.0]))
        E = data.y[:, None] * np.ones((1, 2))
        np.testing.assert_allclose(solver.update_b(data.y, E, data.X.T @ np.zeros((1, 2)),
                                                   np.zeros((3, 2))), np.zeros(2))

    @pytest.mark.parametrize("N", [1, 7, 150, 1021])
    def test_equals_the_mean_form(self, N):
        rng = np.random.default_rng(N)
        y = rng.choice([-1.0, 1.0], N)
        E, XtP, Z_over_mu = (rng.normal(size=(N, 2)) * 10.0 ** rng.integers(-3, 4, size=(N, 2))
                             for _ in range(3))
        expected = (y[:, None] - E - XtP - Z_over_mu).mean(axis=0)
        np.testing.assert_array_equal(solver.update_b(y, E, XtP, Z_over_mu), expected)

    def test_minimizes_by_finite_differences(self):
        rng = np.random.default_rng(19)
        M, N, C = 3, 7, 2
        data = DataSet(X=rng.normal(size=(M, N)), y=rng.choice([-1.0, 1.0], N))
        E, P, Z, mu = (rng.normal(size=(N, C)), rng.normal(size=(M, C)),
                       rng.normal(size=(N, C)), 1.7)
        b = solver.update_b(data.y, E, data.X.T @ P, Z / mu)

        def penalty(b_vec):
            resid = E - data.y[:, None] + data.X.T @ P + b_vec[None, :]
            return 0.5 * mu * (resid**2).sum() + (Z * resid).sum()

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

    def test_newton_powers_match_scalar_oracle(self):
        # Criterion 04's draws and bound at powers that only Newton solves,
        # each from a cold start and from a previous E block.
        rng = np.random.default_rng(23)
        worst = 0.0
        for _ in range(1000):
            y = float(rng.choice([-1.0, 1.0]))
            s = float(rng.uniform(-5.0, 5.0))
            k = float(rng.uniform(0.01, 3.0))
            p = float(rng.choice([1.25, 2.5, 3.0]))
            S, Y = np.array([[s]]), np.array([[y]])
            previous = np.array([[rng.uniform(-5.0, 5.0)]])
            reference = oracles.scalar_e_minimizer(y, s, k, p)
            for E_prev in (None, previous):
                E, steps = solver.update_E(S, Y, lam=k, mu=1.0, p=p, E_prev=E_prev)
                assert steps > 0 or y * s <= 0.0
                worst = max(worst, abs(E[0, 0] - reference))
        assert worst <= 1e-4

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(k=st.floats(-13.0, 300.0).map(lambda power: 10.0**power),
           entries=st.lists(st.tuples(st.floats(-12.0, 300.0),
                                      st.sampled_from(["active", "inactive", "zero"]),
                                      st.sampled_from([-1.0, 1.0])),
                            min_size=1, max_size=8))
    @example(k=1e200, entries=[(300.0, "active", 1.0), (300.0, "inactive", -1.0)])  # h^2 overflows
    @example(k=5e-324, entries=[(-12.0, "active", -1.0), (0.0, "zero", 1.0),
                                (300.0, "active", 1.0)])
    # a * t is above the largest float, so the Newton step must not form it.
    @example(k=2.34e186, entries=[(np.log10(3.24e255), "active", 1.0)])
    def test_three_halves_closed_form(self, k, entries):
        # Targets a = Y*S: 10^power when active, -10^power or 0 when not.
        log_a, kinds, labels = (np.array(column) for column in zip(*entries))
        magnitude = 10.0**log_a
        target = np.where(kinds == "active", magnitude,
                          np.where(kinds == "inactive", -magnitude, 0.0))
        Y = labels[:, None]
        S = Y * target[:, None]
        E, steps = solver.update_E(S, Y, lam=k, mu=1.0, p=1.5)
        assert steps == 0
        active = kinds == "active"
        np.testing.assert_array_equal(E[~active], S[~active])
        a, t = magnitude[active], (Y * E)[active, 0]
        eps = np.finfo(float).eps
        # The root is below a; rounding in s^2 can end a few ulps above it.
        assert np.all(np.isfinite(t)) and np.all((t >= 0.0) & (t <= a * (1.0 + 4 * eps)))
        # f(t) = 1.5 k sqrt(t) + t - a is a few roundings from 0 where t is
        # a normal float.  Below that range |f(t)| can be as large as a, and
        # the root must lie below the smallest normal floats instead.
        def f(u):
            return 1.5 * k * np.sqrt(u) + u - a

        tiny = np.finfo(float).tiny
        normal = t >= tiny
        assert np.all(np.abs(f(t)[normal]) <= 4 * eps * np.maximum(a[normal], 1.0))
        assert np.all(f(np.full_like(a, 2 * tiny))[~normal] >= 0.0)
        # Newton's method from a cold start agrees over the whole range.
        newton, _ = solver._positive_branch_minimizer(a, k, 1.5, a)
        slack = 4 * solver.GENERAL_P_TOL + 16 * np.spacing(a)
        assert np.all(np.abs(t - newton) <= slack)

    @pytest.mark.filterwarnings("error")
    def test_three_halves_with_underflowed_penalty_ratio(self):
        # lam/mu underflows to 0: targets of 0 are inactive and stay 0, and
        # active targets are kept, as with no loss at all.
        S = np.array([[0.0], [2.0], [-3.0], [0.0]])
        Y = np.array([[1.0], [1.0], [1.0], [-1.0]])
        E, steps = solver.update_E(S, Y, lam=1e-300, mu=1e30, p=1.5)
        assert steps == 0
        np.testing.assert_array_equal(E[[0, 2, 3]], S[[0, 2, 3]])
        assert E[1, 0] == pytest.approx(2.0, rel=4 * np.finfo(float).eps)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(p=st.sampled_from([1.0, 1.25, 1.5, 2.0, 3.0]),
           k=st.floats(-323.3, 300.0).map(lambda power: 10.0**power),
           entries=st.lists(st.tuples(st.floats(-12.0, 300.0),
                                      st.sampled_from(["active", "inactive", "zero", "-zero"]),
                                      st.sampled_from([-1.0, 1.0])),
                            min_size=1, max_size=8))
    @example(p=1.25, k=5e-324, entries=[(300.0, "active", 1.0), (0.0, "zero", -1.0)])
    @example(p=3.0, k=1e300, entries=[(-12.0, "active", -1.0), (0.0, "-zero", 1.0)])
    def test_every_power_keeps_inactive_entries(self, p, k, entries):
        # Targets a = Y*S: 10^power when active, -10^power or a signed 0 when not.
        log_a, kinds, labels = (np.array(column) for column in zip(*entries))
        magnitude = 10.0**log_a
        target = np.select([kinds == "active", kinds == "inactive", kinds == "zero"],
                           [magnitude, -magnitude, 0.0], -0.0)
        Y = labels[:, None]
        S = Y * target[:, None]
        active = (Y * S > 0.0)[:, 0]
        E, steps = solver.update_E(S, Y, lam=k, mu=1.0, p=p)
        assert E[~active].tobytes() == S[~active].tobytes()
        t, a = (Y * E)[active, 0], magnitude[active]
        assert np.all((t >= 0.0) & (t <= a * (1.0 + 4 * np.finfo(float).eps)))
        if p in (1.0, 1.5, 2.0):
            assert steps == 0
        # The same block with every entry inactive is returned as it is,
        # without a Newton step.
        S_inactive = np.where(active[:, None], -S, S)
        E, steps = solver.update_E(S_inactive, Y, lam=k, mu=1.0, p=p)
        assert steps == 0 and E.tobytes() == S_inactive.tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(st.floats(1.01, 4.0), st.floats(-12.0, 8.0),
           hnp.arrays(np.float64, st.integers(1, 6), elements=st.floats(-8.0, 8.0)),
           st.sampled_from(["cold", "zero", "inside", "below", "above"]), st.floats(0.0, 1.0))
    @example(p=1.01, log_k=-2.0, log_a=np.array([8.0, 0.0, -8.0]),  # bracket powers overflow
             start="cold", fraction=0.0)
    @example(p=1.01, log_k=8.0, log_a=np.array([-8.0, 8.0]),  # the small root underflows to 0
             start="cold", fraction=0.0)
    @example(p=3.0, log_k=-12.0, log_a=np.array([8.0, -8.0, 0.0]), start="cold", fraction=0.0)
    @example(p=3.0, log_k=-9.0, log_a=np.array([8.0]),  # neighbouring floats alternate
             start="cold", fraction=0.0)
    @example(p=1.5, log_k=2.5, log_a=np.array([7.5]), start="cold", fraction=0.0)  # likewise
    @example(p=4.0, log_k=8.0, log_a=np.array([-8.0]), start="cold", fraction=0.0)
    # a * t is above the largest float, so the Newton step must not form it.
    @example(p=1.25, log_k=np.log10(2.34e186), log_a=np.array([np.log10(3.24e255)]),
             start="cold", fraction=0.0)
    @example(p=1.5, log_k=np.log10(2.34e186), log_a=np.array([np.log10(3.24e255)]),
             start="cold", fraction=0.0)
    # Near p = 1 the lower bracket power underflows to 0, and a Newton step
    # from t = 0 is 0/0; the roots run from 4.1e-5 to 2.8e-3.
    @example(p=1.0005, log_k=0.0, log_a=np.log10(1.0005 * np.array([0.995, 0.999, 0.9999])),
             start="zero", fraction=0.0)
    # A tiny start there: its Newton steps are shorter than tol far from the root.
    @example(p=1.0005, log_k=0.0, log_a=np.log10(1.0005 * np.array([0.995, 0.999, 0.9999])),
             start="inside", fraction=1e-300)
    def test_general_power_minimizer(self, p, log_k, log_a, start, fraction):
        k, a, tol = 10.0**log_k, 10.0**log_a, solver.GENERAL_P_TOL
        # The closed-form bracket of the root: f(lo) <= 0 <= f(hi).
        with np.errstate(over="ignore"):
            lo = np.minimum(0.5 * a, (0.5 * a / (k * p)) ** (1.0 / (p - 1.0)))
            hi = np.minimum(a, (a / (k * p)) ** (1.0 / (p - 1.0)))
        start = {"cold": a, "zero": np.zeros_like(a),
                 "inside": lo + fraction * (hi - lo),
                 "below": lo * (1.0 - fraction) - fraction,
                 "above": a + fraction * (a + 1.0)}[start]
        t, steps = solver._positive_branch_minimizer(a, k, p, start)
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
        reference, _ = _bisection_reference(a, k, p, a)
        assert np.all(np.abs(t - reference) <= slack)


class TestUpdateP:
    def test_zero_features(self):
        data = DataSet(X=np.zeros((2, 3)), y=np.array([1.0, -1.0, 1.0]))
        W = np.array([[1.0, 2.0], [3.0, 4.0]])
        Q = np.array([[0.5, 0.0], [0.0, 0.5]])
        K = solver.factor_gram(data.X)
        u = np.repeat(data.y[:, None], 2, axis=1)  # Y - 1 b^T - Z/mu - E with b, Z, E zero
        P, XtP = solver.update_P(K, W, Q, data.X.T @ W, data.X.T @ Q, 2.0, u)
        np.testing.assert_allclose(P, W - Q / 2.0)
        np.testing.assert_array_equal(XtP, np.zeros((3, 2)))

    def test_matches_generic_dense_solve(self):
        rng = np.random.default_rng(23)
        # M < N factors I + X X^T; M > N factors I + X^T X.
        for M, N, C in ((4, 9, 3), (9, 4, 3)):
            data = DataSet(X=rng.normal(size=(M, N)), y=rng.choice([-1.0, 1.0], N))
            W = rng.normal(size=(M, C))
            E = rng.normal(size=(N, C))
            b = rng.normal(size=C)
            rng.normal(size=(M, C))  # a P, drawn only to keep the random stream
            Q, Z, mu = rng.normal(size=(M, C)), rng.normal(size=(N, C)), 1.3
            K = solver.factor_gram(data.X)
            R = data.y[:, None] - b[None, :] - Z / mu
            P, XtP = solver.update_P(K, W, Q, data.X.T @ W, data.X.T @ Q, mu, R - E)
            rhs = W - Q / mu + data.X @ (R - E)
            expected = np.linalg.solve(np.eye(M) + data.X @ data.X.T, rhs)
            np.testing.assert_allclose(P, expected, atol=1e-8)
            np.testing.assert_allclose(XtP, data.X.T @ P, rtol=0.0, atol=1e-12)

    def test_first_order_optimality(self):
        rng = np.random.default_rng(24)
        for M, N, C in ((3, 6, 2), (9, 4, 2)):
            data = DataSet(X=rng.normal(size=(M, N)), y=rng.choice([-1.0, 1.0], N))
            W = rng.normal(size=(M, C))
            E = rng.normal(size=(N, C))
            b = rng.normal(size=C)
            rng.normal(size=(M, C))  # a P, drawn only to keep the random stream
            Q, Z, mu = rng.normal(size=(M, C)), rng.normal(size=(N, C)), 0.9
            K = solver.factor_gram(data.X)
            P, _ = solver.update_P(K, W, Q, data.X.T @ W, data.X.T @ Q, mu,
                                   data.y[:, None] - b[None, :] - Z / mu - E)

            def objective(P_mat):
                split = P_mat - W
                slack = E - data.y[:, None] + data.X.T @ P_mat + b[None, :]
                return (0.5 * mu * (split**2).sum() + (Q * split).sum()
                        + 0.5 * mu * (slack**2).sum() + (Z * slack).sum())

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
        # W = R and Q = 0 make the right-hand side R.  Only the instances
        # side reads X^T W and X^T Q; the features side gets None for both.
        Q = np.zeros((M, C))
        XtW, XtQ = (X.T @ R, X.T @ Q) if M > N else (None, None)
        got, Xt_got = solver.factor_gram(X)(R, Q, XtW, XtQ, 1.0, np.zeros((N, C)))
        scale = 1.0 + np.abs(X).max() ** 2
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10 * scale * (1 + np.abs(R).max()))
        # X^T P comes back without a product on the instances side
        np.testing.assert_allclose(Xt_got, X.T @ got, rtol=0,
                                   atol=1e-10 * scale * (1 + np.abs(R).max()))

    @pytest.mark.parametrize("shape", [(5, 40), (30, 12)], ids=["features", "instances"])
    def test_bound_solve_equals_cho_solve(self, shape):
        # The solve calls LAPACK potrs directly; cho_solve on the same factor
        # gives the same bits on both sides.  On the instances side X^T P is
        # the solution s of the N x N system itself.
        M, N = shape
        rng = np.random.default_rng(M)
        X, W, u = rng.normal(size=(M, N)), rng.normal(size=(M, 1)), rng.normal(size=(N, 1))
        Q, mu = rng.normal(size=(M, 1)), 1.7
        XtW, XtQ = X.T @ W, X.T @ Q
        got, Xt_got = solver.factor_gram(X)(W, Q, XtW, XtQ, mu, u)
        if M <= N:
            expected = cho_solve(cho_factor(np.eye(M) + X @ X.T), W - Q / mu + X @ u)
            Xt_expected = X.T @ expected
        else:
            K = X.T @ X
            s = cho_solve(cho_factor(np.eye(N) + K), XtW - XtQ / mu + K @ u)
            expected, Xt_expected = W - Q / mu + X @ (u - s), s
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(Xt_got, Xt_expected)

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
        Q0, Z0 = np.ones((2, 2)), np.ones((3, 2))
        gaps = solver.constraint_gaps(W, b, E, W.copy(), data.X.T @ W, data.y)
        Z, Q, mu = solver.update_multipliers(Z0, Q0, 1.0, *gaps, rho=1.1)
        np.testing.assert_array_equal(Z, Z0)
        np.testing.assert_array_equal(Q, Q0)
        assert mu == pytest.approx(1.1)

    def test_unit_residual_steps_by_mu(self):
        data = DataSet(X=np.zeros((2, 2)), y=np.array([1.0, -1.0]))
        W = np.zeros((2, 2))
        P = W + 1.0
        E = data.y[:, None] * np.ones((1, 2)) + 1.0
        gaps = solver.constraint_gaps(W, np.zeros(2), E, P, data.X.T @ P, data.y)
        Z, Q, mu = solver.update_multipliers(np.zeros((2, 2)), np.zeros((2, 2)), 2.0, *gaps,
                                             rho=1.5)
        np.testing.assert_allclose(Q, np.full((2, 2), 2.0))
        np.testing.assert_allclose(Z, np.full((2, 2), 2.0))
        assert mu == 3.0

    def test_mu_cap(self):
        data = DataSet(X=np.zeros((1, 1)), y=np.array([1.0]))
        gaps = solver.constraint_gaps(np.zeros((1, 1)), np.zeros(1), np.ones((1, 1)),
                                      np.zeros((1, 1)), data.X.T @ np.zeros((1, 1)), data.y)
        _, _, mu = solver.update_multipliers(np.zeros((1, 1)), np.zeros((1, 1)), 9e9, *gaps,
                                             rho=2.0)
        assert mu == 1e10


class TestPrimalObjective:
    def test_hand_computed(self):
        data = DataSet(X=np.zeros((2, 1)), y=np.array([1.0]))
        value = _objective(np.array([[1.0], [0.0]]), np.zeros(1), data, lam=1.0, p=1.0)
        assert value == pytest.approx(1.5)

    def test_zero_model(self):
        N = 5
        data = DataSet(X=np.zeros((2, N)), y=np.ones(N))
        assert _objective(np.zeros((2, 1)), np.zeros(1), data, 1.0, 2.0) == N
        assert _objective(np.zeros((2, 3)), np.zeros(3), data, 1.0, 2.0) == 3 * N

    def test_compositional_identity(self):
        rng = np.random.default_rng(25)
        data = DataSet(X=rng.normal(size=(4, 12)), y=rng.choice([-1.0, 1.0], 12))
        W = rng.normal(size=(4, 3))
        b = rng.normal(size=3)
        for lam, p in ((0.5, 1.0), (2.0, 2.0)):
            model = EnsembleModel(W=W, b=b, lam=lam, p=p)
            expected = exclusivity_regularizer(W) + lam * 3 * average_component_loss(model, data, p)
            assert _objective(W, b, data, lam, p) == pytest.approx(expected, abs=1e-12)

    def test_multiplicity_counts_repeated_columns(self):
        rng = np.random.default_rng(32)
        data = DataSet(X=rng.normal(size=(4, 12)), y=rng.choice([-1.0, 1.0], 12))
        W = rng.normal(size=(4, 3))
        b = rng.normal(size=3)
        for m in (2, 4):
            for lam, p in ((0.5, 1.0), (2.0, 1.5), (2.0, 2.0)):
                expected = _objective(np.repeat(W, m, axis=1), np.repeat(b, m), data, lam, p)
                assert _objective(W, b, data, lam, p, m) == pytest.approx(expected, rel=1e-14)
                assert _objective(W, b, data, lam, p, 1) == _objective(W, b, data, lam, p)


class TestResiduals:
    def test_feasible(self):
        rng = np.random.default_rng(26)
        data = DataSet(X=rng.normal(size=(3, 5)), y=rng.choice([-1.0, 1.0], 5))
        W = rng.normal(size=(3, 2))
        b = rng.normal(size=2)
        E = data.y[:, None] - data.X.T @ W - b[None, :]
        P = W.copy()
        gaps = solver.constraint_gaps(W, b, E, P, data.X.T @ P, data.y)
        np.testing.assert_allclose(solver.constraint_residuals(*gaps), (0.0, 0.0),
                                   atol=1e-12)

    def test_unit_offset(self):
        data = DataSet(X=np.zeros((3, 4)), y=np.ones(4))
        W = np.zeros((3, 2))
        E = np.ones((4, 1)) * np.array([[1.0, 1.0]])
        P = W + 1.0
        gaps = solver.constraint_gaps(W, np.zeros(2), E, P, data.X.T @ P, data.y)
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
        rng.normal(size=(M, C)), rng.normal(size=C)  # a W and b, drawn only to keep the stream
        state = dict(E=rng.normal(size=(N, C)), P=rng.normal(size=(M, C)),
                     Q=rng.normal(size=(M, C)), Z=rng.normal(size=(N, C)))
        perm = rng.permutation(C)
        swapped = {name: value[:, perm] for name, value in state.items()}
        solve_gram = solver.factor_gram(data.X)
        Y = np.broadcast_to(data.y[:, None], (N, C))

        def blocks(s, mu=1.7):
            XtP, Z_over_mu = data.X.T @ s["P"], s["Z"] / mu
            W = solver.solve_w_subproblem(s["P"], s["Q"], mu)
            b = solver.update_b(data.y, s["E"], XtP, Z_over_mu)
            E, _ = solver.update_E(Y - XtP - b[None, :] - Z_over_mu, Y, 2.0, mu, 1.5)
            P, _ = solver.update_P(solve_gram, W, s["Q"], data.X.T @ W, data.X.T @ s["Q"], mu,
                                   Y - b[None, :] - Z_over_mu - E)
            gaps = solver.constraint_gaps(W, b, E, P, data.X.T @ P, data.y)
            Z, Q, mu = solver.update_multipliers(s["Z"], s["Q"], mu, *gaps, rho=1.1)
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
    @pytest.mark.parametrize("components", [1, 3, 7])
    @pytest.mark.parametrize("shape", [(40, 5), (12, 30)], ids=["features", "instances"])
    def test_first_iteration_from_the_start(self, shape, components):
        # From Q = 1, P = E = Z = 0 and mu = 1 the first W shrink gives
        # (0 + 1/1) * 1/(1 + C) and the first bias the mean of y.
        N, M = shape
        data = make_blobs(N, M, seed=components)
        model, report = train(data, SolverConfig(components=components, outer_max_iters=1))
        assert report.iterations == 1
        assert np.all(model.W == 1.0 / (1.0 + components))
        assert np.all(model.b == np.mean(data.y))

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

    def test_two_products_with_x_per_iteration(self):
        # Each outer iteration needs X (R - E) and X^T P; X^T W and X^T Q are
        # carried.  The Gram factorization adds one X X^T and the start one
        # X^T Q.  Count every product that has X (or a view of it, such as
        # X.T) as an operand.
        products, report, _ = _count_products_with_x(make_blobs(60, 4, seed=3),
                                                  SolverConfig(components=3))
        assert report.gram_side == "features"
        assert report.iterations > 1
        assert products == 2 + 2 * report.iterations

    def test_one_product_per_iteration_on_instances_side(self):
        # With M > N the P update reads X once, in X (u - s), and gets X^T P
        # from the kept X^T X; forming I + X^T X and the starting X^T Q are
        # the two products outside the loop.
        products, report, _ = _count_products_with_x(make_blobs(12, 30, seed=3),
                                                  SolverConfig(components=3))
        assert report.gram_side == "instances"
        assert report.iterations > 1
        assert products == 2 + report.iterations

    def test_instances_side_matches_dense_reference(self, monkeypatch):
        data = make_blobs(15, 40, seed=11)
        config = SolverConfig(components=3, loss_power=1.5, outer_tol=1e-6)
        _, fast = train(data, config)

        def dense_reference(X):
            K = np.eye(X.shape[0]) + X @ X.T

            def solve(W, Q, XtW, XtQ, mu, u):
                P = np.linalg.solve(K, W - Q / mu + X @ u)
                return P, X.T @ P
            return solve

        monkeypatch.setattr(solver, "factor_gram", dense_reference)
        _, dense = train(data, config)
        assert fast.gram_side == "instances"
        assert fast.iterations == dense.iterations
        assert fast.objective_trace[-1] == pytest.approx(dense.objective_trace[-1], rel=1e-9)

    @pytest.mark.parametrize("outer_tol", [SolverConfig().outer_tol, 1e-300],
                             ids=["default_stop", "tight"])
    @pytest.mark.parametrize("power", [1.0, 1.25, 1.5, 2.0])
    @pytest.mark.parametrize("shape", [(40, 5), (200, 6), (12, 30), (15, 40), (24, 25)],
                             ids=["features-40x5", "features-200x6", "instances-12x30",
                                  "instances-15x40", "instances-24x25"])
    def test_split_step_is_stationary(self, monkeypatch, shape, power, outer_tol):
        # P minimizes the augmented Lagrangian in P, whose gradient there,
        # Q + mu (P - W) + X (Z + mu (E - Y + X^T P + 1 b^T)), is Q + X Z
        # for the multipliers after the ascent.  So Q + X Z = 0 to rounding
        # at every iteration, on both Gram sides, when train's X^T P is X^T
        # of its P.  The bound is in units of eps * mu times the scale of Q
        # and of X Z, with mu the penalty of that iteration's P step.
        data = make_blobs(*shape, seed=3)
        X = data.X
        row_sum = np.abs(X).sum(axis=1).max()
        eps = np.finfo(float).eps
        units = []
        original = solver.update_multipliers

        def recorded(Z, Q, mu, *args):
            Z_new, Q_new, mu_new = original(Z, Q, mu, *args)
            scale = 1.0 + np.abs(Q_new).max() + row_sum * np.abs(Z_new).max()
            units.append(float(np.abs(Q_new + X @ Z_new).max() / (eps * mu * scale)))
            return Z_new, Q_new, mu_new

        monkeypatch.setattr(solver, "update_multipliers", recorded)
        _, report = train(data, SolverConfig(components=3, loss_power=power, outer_tol=outer_tol))
        assert len(units) == report.iterations
        assert max(units) <= 16.0

    def test_general_power_matches_bisection_reference(self, monkeypatch):
        # p = 1.25 reaches Newton; p = 1.5 has a closed form of its own.
        data = make_blobs(60, 5, seed=12)
        config = SolverConfig(components=3, loss_power=1.25)
        _, newton = train(data, config)
        monkeypatch.setattr(solver, "_positive_branch_minimizer", _bisection_reference)
        _, bisection = train(data, config)
        assert newton.e_inner_steps != bisection.e_inner_steps
        assert newton.iterations == bisection.iterations
        assert newton.objective_trace[-1] == pytest.approx(bisection.objective_trace[-1], rel=1e-9)

    def test_three_halves_matches_bisection_reference(self, monkeypatch):
        data = make_blobs(60, 5, seed=12)
        config = SolverConfig(components=3, loss_power=1.5)
        _, closed = train(data, config)
        monkeypatch.setattr(solver, "_three_halves_minimizer",
                            lambda a, k: _bisection_reference(a, k, 1.5, a)[0])
        _, bisection = train(data, config)
        assert closed.iterations == bisection.iterations
        assert closed.objective_trace[-1] == pytest.approx(bisection.objective_trace[-1], rel=1e-9)

    @pytest.mark.parametrize("power", [1.0005, 1.2, 3.0])
    def test_warm_start_matches_cold_start(self, monkeypatch, power):
        # train starts the slack solver from the previous E, the first time
        # from E = 0; dropping that sixth argument starts it cold at hi.  Both
        # clamp directions are covered: p < 2 approaches the root from below,
        # p > 2 from above.  Fewer steps show that train passes E at all.
        data = make_blobs(200, 6, seed=13)
        config = SolverConfig(components=3, loss_power=power)
        _, warm = train(data, config)
        original = solver.update_E
        monkeypatch.setattr(solver, "update_E", lambda *args: original(*args[:5]))
        _, cold = train(data, config)
        assert warm.iterations == cold.iterations
        assert warm.objective_trace[-1] == pytest.approx(cold.objective_trace[-1], rel=1e-9)
        assert sum(warm.e_inner_steps) < sum(cold.e_inner_steps)

    def test_e_inner_steps_in_report(self, monkeypatch):
        data = make_blobs(40, 3, seed=2)
        _, quadratic = train(data, SolverConfig(components=2))
        _, general = train(data, SolverConfig(components=2, loss_power=1.25))
        assert quadratic.e_inner_steps == [0] * quadratic.iterations
        assert len(general.e_inner_steps) == general.iterations
        # Newton takes a handful of steps; bisection to 1e-10 would take ~40.
        assert all(0 < steps < 20 for steps in general.e_inner_steps)
        assert general.to_dict()["e_inner_steps"] == general.e_inner_steps

        # p = 1.5 is solved in closed form and never reaches Newton.
        def unreachable(*args):
            raise AssertionError("Newton called at p = 1.5")

        monkeypatch.setattr(solver, "_positive_branch_minimizer", unreachable)
        _, three_halves = train(data, SolverConfig(components=2, loss_power=1.5))
        assert three_halves.e_inner_steps == [0] * three_halves.iterations

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
        W, b, objectives, residuals, iterations, stop_reason = _reference_train(data, config)
        assert report.iterations == iterations
        assert report.stop_reason == stop_reason
        np.testing.assert_allclose(report.objective_trace, objectives, rtol=1e-12)
        np.testing.assert_allclose(report.residual_trace, residuals, rtol=1e-9, atol=1e-12)
        scale = max(1.0, float(np.abs(W).max()))
        np.testing.assert_allclose(model.W, W, rtol=0.0, atol=1e-12 * scale)
        np.testing.assert_allclose(model.b, b, rtol=0.0, atol=1e-12 * max(1.0, np.abs(b).max()))
        # the reference's columns coincide too: the start and the blocks are symmetric
        assert np.ptp(W, axis=1).max() <= 1e-12 * scale

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

    @pytest.mark.parametrize("power", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("shape", [(40, 5), (12, 30)], ids=["features", "instances"])
    def test_carried_xtw_does_not_drift(self, monkeypatch, shape, power):
        # 300 iterations of carried X^T W against a direct product at every one.
        N, M = shape
        data = make_blobs(N, M, seed=int(10 * power))
        seen = []
        original = solver.primal_objective

        def capture(W, b, XtW, *args):
            seen.append((W.copy(), XtW.copy()))
            return original(W, b, XtW, *args)

        monkeypatch.setattr(solver, "primal_objective", capture)
        _, report = train(data, SolverConfig(components=3, loss_power=power, outer_tol=1e-300))
        assert report.iterations == len(seen) == 300
        instance_norm = float(np.abs(data.X).sum(axis=0).max())  # max_i ||x_i||_1
        for W, XtW in seen:
            bound = 1e-10 * instance_norm * float(np.abs(W).max())
            np.testing.assert_allclose(XtW, data.X.T @ W, rtol=0.0, atol=bound)

    def test_block_times_in_report(self):
        _, report = train(make_blobs(60, 4, seed=3), SolverConfig(components=3))
        assert list(report.block_ms) == ["W", "b", "E", "P", "multipliers", "objective",
                                         "factorization"]
        assert all(value >= 0.0 for value in report.block_ms.values())
        assert sum(report.block_ms.values()) <= report.wall_time * 1e3
        assert report.to_dict()["block_ms"] == report.block_ms

    def test_divergence_error_attributes(self):
        err = solver.DivergenceError("boom", iteration=12)
        assert err.iteration == 12
        assert err.block is None
        assert "boom" in str(err)

    @pytest.mark.parametrize("shape", [(40, 5), (12, 30)], ids=["features", "instances"])
    @pytest.mark.parametrize("name, block", [("update_E", "E"), ("update_P", "P"),
                                             ("update_b", "b"), ("update_multipliers", "Z"),
                                             ("update_multipliers", "Q")])
    def test_divergence_names_block(self, monkeypatch, shape, name, block):
        # The block that turns NaN at iteration 3 is the one reported, even
        # though every later block inherits the NaN.  update_b returns b
        # alone; the others return a tuple whose first entry is the block,
        # except Q, the second entry of update_multipliers.
        original = getattr(solver, name)
        calls = []

        def poisoned(*args):
            calls.append(1)
            result = original(*args)
            if len(calls) != 3:
                return result
            if name == "update_b":
                return result * np.nan
            index = 1 if block == "Q" else 0
            return tuple(part * np.nan if i == index else part for i, part in enumerate(result))

        monkeypatch.setattr(solver, name, poisoned)
        N, M = shape
        with pytest.raises(solver.DivergenceError, match=f"in block {block}") as err:
            train(make_blobs(N, M, seed=2), SolverConfig(components=3, outer_tol=1e-300))
        assert err.value.iteration == 3
        assert err.value.block == block

    @pytest.mark.parametrize("shape", [(40, 5), (12, 30)], ids=["features", "instances"])
    def test_converging_fit_scans_no_block(self, monkeypatch, shape):
        # Finite residuals, multiplier sizes and sum of X^T Q clear every
        # block, so the per-block scan never runs.
        calls = []
        original = solver._first_non_finite
        monkeypatch.setattr(solver, "_first_non_finite",
                            lambda blocks: calls.append(1) or original(blocks))
        N, M = shape
        for power in (1.0, 1.5, 2.0):
            _, report = train(make_blobs(N, M, seed=2), SolverConfig(components=3,
                                                                      loss_power=power))
            assert report.stop_reason == "objective_change"
        assert calls == []

    def test_non_finite_residual_of_finite_blocks_is_recorded(self, monkeypatch):
        # An overflowing norm of finite blocks makes the scan run, find
        # nothing, and leave the fit as it was: the inf goes into the trace.
        data, config = make_blobs(40, 5, seed=2), SolverConfig(components=3)
        model, report = train(data, config)
        original = solver.constraint_residuals
        calls, scans = [], []

        def overflowing(*args):
            calls.append(1)
            return (float("inf"), 0.0) if len(calls) == 4 else original(*args)

        scan = solver._first_non_finite
        monkeypatch.setattr(solver, "constraint_residuals", overflowing)
        monkeypatch.setattr(solver, "_first_non_finite",
                            lambda blocks: scans.append(1) or scan(blocks))
        patched_model, patched = train(data, config)
        assert scans == [1]
        expected = list(report.residual_trace)
        expected[3] = (float("inf"), 0.0)
        assert patched.residual_trace == expected
        assert patched.objective_trace == report.objective_trace
        assert patched.multiplier_sup_trace == report.multiplier_sup_trace
        assert patched.iterations == report.iterations
        np.testing.assert_array_equal(patched_model.W, model.W)
        np.testing.assert_array_equal(patched_model.b, model.b)

    def test_non_finite_objective_is_named(self, monkeypatch):
        monkeypatch.setattr(solver, "primal_objective", lambda *args: float("inf"))
        with pytest.raises(solver.DivergenceError) as err:
            train(make_blobs(40, 3, seed=2), SolverConfig(components=2))
        assert (err.value.iteration, err.value.block) == (1, "objective")


def _invariance_fits(problems, components, power):
    """W of a fit of each ``(X, y)`` in ``problems``, all after the same number
    of iterations, so that they share one mu schedule.  ``outer_tol=1e-300``
    stops a fit only once two consecutive objectives are equal, which a small
    fit can reach before the cap of 25; then every fit is run again, capped
    at the fewest iterations any of them took."""
    def fit(X, y, cap):
        config = SolverConfig(components=components, loss_power=power,
                              outer_tol=1e-300, outer_max_iters=cap)
        model, report = train(DataSet(X=X, y=y), config)
        return model.W, report.iterations

    fits = [fit(X, y, 25) for X, y in problems]
    fewest = min(iterations for _, iterations in fits)
    if any(iterations != fewest for _, iterations in fits):
        fits = [fit(X, y, fewest) for X, y in problems]
    assert all(iterations == fewest for _, iterations in fits)
    return [W for W, _ in fits]


_invariance_cases = dict(
    shape=st.sampled_from([(30, 4), (40, 7), (8, 20), (12, 30)]),  # both Gram sides
    components=st.integers(1, 5),
    power=st.sampled_from([1.0, 1.5, 2.0]),
    seed=st.integers(0, 2**16),
)


class TestExactInvariances:
    """Symmetries of the training problem that hold to rounding after any
    fixed number of iterations, because the start and every block update
    share them."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), **_invariance_cases)
    def test_permutations(self, data, shape, components, power, seed):
        # Permuting features permutes the rows of W; permuting instances
        # leaves W unchanged.
        N, M = shape
        blobs = make_blobs(N, M, seed=seed)
        features = np.array(data.draw(st.permutations(range(M))))
        instances = np.array(data.draw(st.permutations(range(N))))
        W, W_f, W_i = _invariance_fits(
            [(blobs.X, blobs.y), (blobs.X[features], blobs.y),
             (blobs.X[:, instances], blobs.y[instances])], components, power)
        bound = 1e-12 * max(1.0, float(np.abs(W).max()))
        np.testing.assert_allclose(W_f, W[features], rtol=0.0, atol=bound)
        np.testing.assert_allclose(W_i, W, rtol=0.0, atol=bound)

    @settings(max_examples=60, deadline=None)
    @given(**_invariance_cases)
    def test_zero_features(self, shape, components, power, seed):
        # Appending zero features leaves the old rows of W as they were, and
        # the new rows depend only on C and the mu schedule: they are the
        # same bits for another data set of another shape.
        N, M = shape
        blobs = make_blobs(N, M, seed=seed)
        other = make_blobs(M + 3, N + 2, seed=seed + 1)
        W, padded, other_padded = _invariance_fits(
            [(blobs.X, blobs.y), (np.vstack([blobs.X, np.zeros((3, N))]), blobs.y),
             (np.vstack([other.X, np.zeros((3, M + 3))]), other.y)], components, power)
        bound = 1e-12 * max(1.0, float(np.abs(W).max()))
        np.testing.assert_allclose(padded[:M], W, rtol=0.0, atol=bound)
        np.testing.assert_array_equal(padded[M:], other_padded[-3:])

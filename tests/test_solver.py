import json
import tracemalloc
from dataclasses import fields

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.blas import dtrsv
from scipy.sparse import csc_array

from conftest import make_blobs, make_gram_overflow, make_ill_scaled, random_instance
from xrm import DataSet, SolverConfig, TrainReport, train
from xrm import oracles, solver
from xrm.diversity import exclusivity_regularizer
from xrm.model import EnsembleModel, average_component_loss


def _objective(W, b, data, lam, p, multiplicity=1):
    """``solver.primal_objective`` on an M x C block W with X^T W formed directly."""
    return solver.primal_objective(W, b[None, :], data.X.T @ W, data.y[:, None], lam, p,
                                   multiplicity)


def _count_products_with_x(data, config):
    """Train while recording every product that has X, or a view of it such
    as X.T, as an operand, by ``@`` or by ``ndarray.dot`` (with or without
    ``out=``); returns (count, report, widths), where widths lists the column
    count of the other operand of each product except the Gram product of X
    with itself."""
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

        def dot(self, other, out=None):
            record(other)
            return np.asarray(self).dot(np.asarray(other), out=out)

    object.__setattr__(data, "X", data.X.view(CountingArray))
    _, report = train(data, config)
    return len(products), report, widths


def _solve_operands(X, W, Q, mu):
    """The stacked operands of an ``update_P`` solve for W and Q with M
    rows: WX = [X^T W; W] and over_mu = [X^T Q/mu; Q/mu]."""
    return np.concatenate((X.T @ W, W)), np.concatenate((X.T @ Q, Q)) / mu


def _update_P(gram, X, W, Q, mu, u):
    """``solver.update_P`` on the stacked operands for W and Q, into a new
    buffer; returns P and X^T P."""
    WX, over_mu = _solve_operands(X, W, Q, mu)
    PX = solver.update_P(gram, WX, over_mu, u, np.empty_like(WX))
    N = X.shape[1]
    return PX[N:], PX[:N]


def _split_and_slack_gaps(X, W, b, E, P, XtP, Y):
    """``solver.constraint_gaps`` on the stacks [X^T P; P] and [X^T W; W],
    into a new buffer; returns its rows behind X^T P - X^T W, the split and
    slack gaps [P - W; E - Y + X^T P + b]."""
    PX, WX = np.concatenate((XtP, P)), np.concatenate((X.T @ W, W))
    gaps = np.empty((len(PX) + len(E), *P.shape[1:]))
    solver.constraint_gaps(PX, WX, E, Y, b, gaps)
    return gaps[len(XtP):]


def _reference_train(data, config):
    """The outer loop of ``solver.train`` carried on all C columns: the public
    block functions with unit multiplicity from the symmetric start (Q all
    ones, every other block zero, mu = ``MU_INIT``).  Returns the final W and
    b, the objective and residual traces, the iteration count and the stop
    reason."""
    C = config.components
    M, N = data.X.shape
    Y = data.y[:, None]
    gram = solver.factor_gram(data.X)
    P, Q, mu = np.zeros((M, C)), np.ones((M, C)), solver.MU_INIT
    E, Z = np.zeros((N, C)), np.zeros((N, C))
    XtP = np.zeros_like(E)
    objectives, residuals = [], []
    stop_reason = "max_iters"
    for iteration in range(1, config.outer_max_iters + 1):
        Z_over_mu = Z / mu
        W = solver.solve_w_subproblem(P, Q, mu)
        b = solver.update_b(data.y[:, None], E, XtP, Z_over_mu)
        E, _ = solver.update_E(Y - XtP - b[None, :] - Z_over_mu, Y, config.lam, mu,
                               config.loss_power)
        P, _ = _update_P(gram, data.X, W, Q, mu, Y - b[None, :] - Z_over_mu - E)
        XtP = data.X.T @ P
        gaps = _split_and_slack_gaps(data.X, W, b[None, :], E, P, XtP, data.y[:, None])
        QZ, mu = solver.update_multipliers(np.concatenate((Q, Z)), mu, gaps, config.rho)
        Q, Z = QZ[:M], QZ[M:]
        residuals.append(solver.constraint_residuals(gaps, M))
        objectives.append(_objective(W, b, data, config.lam, config.loss_power))
        if len(objectives) > 1 and abs(objectives[-1] - objectives[-2]) < config.outer_tol:
            stop_reason = "objective_change"
            break
    return W, b, objectives, residuals, iteration, stop_reason


def _bisection_reference(a, k, p):
    """Plain bisection of f(t) = k p t^(p-1) + t - a on [0, a] down to width
    ``solver.GENERAL_P_TOL`` (at most 200 halvings); returns the midpoints and
    the halving count, the same contract as
    ``solver._positive_branch_minimizer``."""
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


def _masked_update_E(S, Y, lam, mu, p):
    """The closed forms of ``solver.update_E`` at p = 1, 1.5 and 2 as they
    selected entries before they were written branch-free: each form on the
    whole block, at p = 1.5 with the inactive targets (Y*S <= 0) set to 1,
    then the inactive entries put back from S by ``np.putmask``."""
    k = lam / mu
    target = Y * S
    active = target > 0.0
    if p == 1:
        value = Y * np.maximum(target - k, 0.0)
    elif p == 2:
        value = S / (1.0 + 2.0 * k)
    else:
        value = Y * solver._three_halves_minimizer(np.where(active, target, 1.0), k)
    np.putmask(value, ~active, S)
    return value


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
        # Counts must be integers: 2.5 would train a problem of multiplicity
        # 2.5, True one component, and 50.0 would fail inside train.
        {"components": 2.5}, {"components": True}, {"outer_max_iters": 50.0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_accepts_numpy_integer_counts(self):
        config = SolverConfig(components=np.int64(3), outer_max_iters=np.int32(7))
        assert (config.components, config.outer_max_iters) == (3, 7)


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
        assert solver.update_b(data.y[:, None], E, data.X.T @ np.zeros((1, 1)),
                               np.zeros((2, 1))) == pytest.approx(np.array([2.0]))

    def test_zero_residual(self):
        data = DataSet(X=np.zeros((1, 3)), y=np.array([1.0, -1.0, 1.0]))
        E = data.y[:, None] * np.ones((1, 2))
        np.testing.assert_allclose(solver.update_b(data.y[:, None], E,
                                                   data.X.T @ np.zeros((1, 2)),
                                                   np.zeros((3, 2))), np.zeros(2))

    @pytest.mark.parametrize("N", [1, 7, 150, 1021])
    def test_equals_the_mean_form(self, N):
        rng = np.random.default_rng(N)
        y = rng.choice([-1.0, 1.0], N)
        E, XtP, Z_over_mu = (rng.normal(size=(N, 2)) * 10.0 ** rng.integers(-3, 4, size=(N, 2))
                             for _ in range(3))
        expected = (y[:, None] - E - XtP - Z_over_mu).mean(axis=0)
        np.testing.assert_array_equal(solver.update_b(y[:, None], E, XtP, Z_over_mu), expected)

    def test_minimizes_by_finite_differences(self):
        rng = np.random.default_rng(19)
        M, N, C = 3, 7, 2
        data = DataSet(X=rng.normal(size=(M, N)), y=rng.choice([-1.0, 1.0], N))
        E, P, Z, mu = (rng.normal(size=(N, C)), rng.normal(size=(M, C)),
                       rng.normal(size=(N, C)), 1.7)
        b = solver.update_b(data.y[:, None], E, data.X.T @ P, Z / mu)

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
        # Criterion 04's draws and bound at powers that only Newton solves.
        rng = np.random.default_rng(23)
        worst = 0.0
        for _ in range(1000):
            y = float(rng.choice([-1.0, 1.0]))
            s = float(rng.uniform(-5.0, 5.0))
            k = float(rng.uniform(0.01, 3.0))
            p = float(rng.choice([1.25, 2.5, 3.0]))
            E, steps = solver.update_E(np.array([[s]]), np.array([[y]]), lam=k, mu=1.0, p=p)
            assert steps > 0 or y * s <= 0.0
            worst = max(worst, abs(E[0, 0] - oracles.scalar_e_minimizer(y, s, k, p)))
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
        # Newton's method agrees over the whole range.
        newton, _ = solver._positive_branch_minimizer(a, k, 1.5)
        slack = 4 * solver.GENERAL_P_TOL + 16 * np.spacing(a)
        assert np.all(np.abs(t - newton) <= slack)

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
    # Zeros of both signs under both labels at the closed forms, so that the
    # sign of a zero target is checked on every run; the first row fails a
    # p = 1 form that takes the minimum with t and does not copy its sign.
    @example(p=1.0, k=1.0, entries=[(0.0, "-zero", -1.0)])
    @example(p=1.0, k=1.0, entries=[(0.0, "zero", -1.0), (0.0, "-zero", 1.0),
                                    (0.0, "zero", 1.0), (0.0, "active", 1.0)])
    @example(p=1.5, k=1.0, entries=[(0.0, "-zero", -1.0), (0.0, "zero", -1.0),
                                    (0.0, "-zero", 1.0), (0.0, "zero", 1.0)])
    @example(p=1.5, k=5e-324, entries=[(0.0, "-zero", 1.0), (0.0, "zero", -1.0),
                                       (300.0, "active", -1.0)])
    @example(p=2.0, k=1.0, entries=[(0.0, "-zero", -1.0), (0.0, "zero", -1.0),
                                    (0.0, "-zero", 1.0), (0.0, "zero", 1.0)])
    @example(p=2.0, k=1e300, entries=[(0.0, "-zero", 1.0), (-12.0, "inactive", -1.0)])
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
        # The same entries in two columns, the second with the signs of S
        # flipped, take the labels as y[:, None] with the bytes and step
        # count of the labels broadcast to the block.
        S_wide = np.hstack((S, -S))
        E, steps = solver.update_E(S_wide, Y, lam=k, mu=1.0, p=p)
        E_full, steps_full = solver.update_E(S_wide, np.broadcast_to(Y, S_wide.shape), lam=k,
                                             mu=1.0, p=p)
        assert E.tobytes() == E_full.tobytes() and steps == steps_full
        # The same block with every entry inactive is returned as it is,
        # without a Newton step.
        S_inactive = np.where(active[:, None], -S, S)
        E, steps = solver.update_E(S_inactive, Y, lam=k, mu=1.0, p=p)
        assert steps == 0 and E.tobytes() == S_inactive.tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p", [1.0, 1.25, 1.5, 2.0, 3.0])
    def test_underflowed_penalty_ratio_returns_target(self, p):
        # lam/mu underflows to 0: no loss at all, so every entry keeps its
        # target bit for bit, active or not, signed zeros and subnormals
        # included, and no form runs to divide by k.
        S = np.array([[2.0], [-3.0], [0.0], [0.0], [-0.0], [5e-324], [-5e-324], [1e300],
                      [0.5]])
        Y = np.array([[1.0], [1.0], [1.0], [-1.0], [1.0], [1.0], [-1.0], [-1.0], [-1.0]])
        for s, y in ((S, Y), (S[:, 0], Y[:, 0])):
            E, steps = solver.update_E(s, y, lam=1e-300, mu=1e30, p=p)
            assert steps == 0 and E.shape == s.shape and E.tobytes() == s.tobytes()
            assert E is not s

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(p=st.sampled_from([1.0, 1.5, 2.0]),
           k=st.one_of(st.sampled_from([5e-324, 1e-300, 1.0, 1e200, 1e300]),
                       st.floats(-323.3, 300.0).map(lambda power: 10.0**power)),
           columns=st.one_of(st.none(), st.integers(1, 4)),
           data=st.data())
    def test_closed_forms_match_the_masked_forms(self, p, k, columns, data):
        # The branch-free closed forms have the bits of the masked ones on y
        # with 1-D targets and on y[:, None] with N x C targets, for targets
        # of both signs, signed zeros, subnormals and magnitudes up to 1e300.
        # Infinities and NaN are left out: both versions warn on them.
        N = data.draw(st.integers(1, 8))
        y = data.draw(hnp.arrays(np.float64, N, elements=st.sampled_from([-1.0, 1.0])))
        elements = st.one_of(
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
                             1.0, -1.0, 1e300, -1e300, 9.999999999999999e299]),
            st.floats(-1e300, 1e300),
            st.floats(-12.0, 300.0).map(lambda power: 10.0**power))
        S = data.draw(hnp.arrays(np.float64, (N,) if columns is None else (N, columns),
                                 elements=elements))
        Y = y if columns is None else y[:, None]
        E, steps = solver.update_E(S, Y, lam=k, mu=1.0, p=p)
        expected = _masked_update_E(S, Y, k, 1.0, p)
        assert steps == 0 and E.shape == expected.shape
        assert E.tobytes() == expected.tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(st.floats(1.01, 4.0), st.floats(-12.0, 8.0),
           hnp.arrays(np.float64, st.integers(1, 6), elements=st.floats(-8.0, 8.0)))
    @example(p=1.01, log_k=-2.0, log_a=np.array([8.0, 0.0, -8.0]))  # bracket powers overflow
    @example(p=1.01, log_k=8.0, log_a=np.array([-8.0, 8.0]))  # the small root underflows to 0
    @example(p=3.0, log_k=-12.0, log_a=np.array([8.0, -8.0, 0.0]))
    @example(p=3.0, log_k=-9.0, log_a=np.array([8.0]))  # neighbouring floats alternate
    @example(p=1.5, log_k=2.5, log_a=np.array([7.5]))  # likewise
    @example(p=4.0, log_k=8.0, log_a=np.array([-8.0]))
    # a * t is above the largest float, so the Newton step must not form it.
    @example(p=1.25, log_k=np.log10(2.34e186), log_a=np.array([np.log10(3.24e255)]))
    @example(p=1.5, log_k=np.log10(2.34e186), log_a=np.array([np.log10(3.24e255)]))
    # Near p = 1 the power in hi underflows to 0 and the roots run from
    # 4.1e-5 to 2.8e-3, where a Newton step from t = 0 would be 0/0.
    @example(p=1.0005, log_k=0.0, log_a=np.log10(1.0005 * np.array([0.995, 0.999, 0.9999])))
    def test_general_power_minimizer(self, p, log_k, log_a):
        k, a, tol = 10.0**log_k, 10.0**log_a, solver.GENERAL_P_TOL
        t, steps = solver._positive_branch_minimizer(a, k, p)
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
        reference, _ = _bisection_reference(a, k, p)
        assert np.all(np.abs(t - reference) <= slack)


class TestUpdateP:
    def test_zero_features(self):
        data = DataSet(X=np.zeros((2, 3)), y=np.array([1.0, -1.0, 1.0]))
        W = np.array([[1.0, 2.0], [3.0, 4.0]])
        Q = np.array([[0.5, 0.0], [0.0, 0.5]])
        K = solver.factor_gram(data.X)
        u = np.repeat(data.y[:, None], 2, axis=1)  # Y - 1 b^T - Z/mu - E with b, Z, E zero
        P, XtP = _update_P(K, data.X, W, Q, 2.0, u)
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
            P, XtP = _update_P(K, data.X, W, Q, mu, R - E)
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
            P, _ = _update_P(K, data.X, W, Q, mu, data.y[:, None] - b[None, :] - Z / mu - E)

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
        # side reads X^T W and X^T Q/mu; the features side gets NaN for both.
        Q = np.zeros((M, C))
        WX, over_mu = _solve_operands(X, R, Q, 1.0)
        if M <= N:
            WX[:N] = over_mu[:N] = np.nan
        PX = solver.update_P(solver.factor_gram(X), WX, over_mu, np.zeros((N, C)),
                             np.empty_like(WX))
        got, Xt_got = PX[N:], PX[:N]
        scale = 1.0 + np.abs(X).max() ** 2
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10 * scale * (1 + np.abs(R).max()))
        # X^T P comes back without a product on the instances side
        np.testing.assert_allclose(Xt_got, X.T @ got, rtol=0,
                                   atol=1e-10 * scale * (1 + np.abs(R).max()))

    @pytest.mark.parametrize("shape", [(5, 40), (30, 12)], ids=["features", "instances"])
    def test_bound_solve_equals_cho_solve(self, shape):
        # The features side calls LAPACK potrs directly, overwriting the
        # right-hand side that it forms in the caller's buffer; cho_solve on
        # the same factor, which copies a fresh right-hand side, gives the
        # same bits, for 1-D vectors, one column, and three columns that
        # potrs returns as a copy.  The instances side solves
        # z = (I + K)^-1 (X^T W - X^T Q/mu - u) by two BLAS triangular
        # solves with the same factor, one column at a time, and returns
        # X^T P = u + z and P = W - Q/mu - X z.
        M, N = shape
        for width in ((), (1,), (3,)):
            rng = np.random.default_rng(M)
            X, W, u = (rng.normal(size=(M, N)), rng.normal(size=(M, *width)),
                       rng.normal(size=(N, *width)))
            Q, mu = rng.normal(size=(M, *width)), 1.7
            XtW, XtQ = X.T @ W, X.T @ Q
            WX, over_mu = _solve_operands(X, W, Q, mu)
            out = np.full_like(WX, np.nan)
            assert solver.update_P(solver.factor_gram(X), WX, over_mu, u, out) is out
            got, Xt_got = out[N:], out[:N]
            if M <= N:
                expected = cho_solve(cho_factor(np.eye(M) + X @ X.T), W - Q / mu + X @ u)
                Xt_expected = X.T @ expected
            else:
                factor, _ = cho_factor(np.eye(N) + X.T @ X)
                z = XtW - XtQ / mu - u
                for column in z.reshape(N, -1).T:
                    column[...] = dtrsv(factor, dtrsv(factor, column.copy(), trans=1))
                expected, Xt_expected = W - Q / mu - X @ z, u + z
            np.testing.assert_array_equal(got, expected)
            np.testing.assert_array_equal(Xt_got, Xt_expected)

    def test_instances_block_solves_each_column_as_a_vector(self):
        # On the instances side a 3-column block solves to the bits of the
        # 1-D solve of each of its columns, because the triangular solves run
        # column by column: X^T P = u + z has the same bits.  P adds the
        # product X z, which BLAS may round apart on a block and a vector.
        M, N = 30, 12
        rng = np.random.default_rng(N)
        X = rng.normal(size=(M, N))
        W, Q, u = rng.normal(size=(M, 3)), rng.normal(size=(M, 3)), rng.normal(size=(N, 3))
        gram = solver.factor_gram(X)
        WX, over_mu = _solve_operands(X, W, Q, 1.7)
        block = solver.update_P(gram, WX, over_mu, u, np.empty_like(WX))
        for c in range(3):
            operands = (WX[:, c].copy(), over_mu[:, c].copy(), u[:, c].copy())
            column = solver.update_P(gram, *operands, np.empty(N + M))
            np.testing.assert_array_equal(block[:N, c], column[:N])
            np.testing.assert_allclose(block[N:, c], column[N:], rtol=1e-13, atol=1e-15)

    def test_instances_side_keeps_the_factor_alone(self):
        # The solve reads the N x N factor of I + X^T X and no copy of
        # X^T X, so what factor_gram returns holds about N^2 * 8 bytes, not
        # twice that.
        M, N = 400, 200
        X = np.random.default_rng(5).normal(size=(M, N))
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            gram = solver.factor_gram(X)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            if started:
                tracemalloc.stop()
        assert N * N * 8 <= kept < 1.5 * N * N * 8
        del gram

    @pytest.mark.parametrize("shape", [(5, 40), (30, 12)], ids=["features", "instances"])
    def test_csc_solve_matches_dense_solve(self, shape):
        # A CSC X factors the Gram of its dense copy, so the factor is the
        # same; its products add the nonzeros alone, in their own order.
        M, N = shape
        for width in ((), (3,)):
            rng = np.random.default_rng(N)
            X = np.where(rng.random((M, N)) < 0.2, rng.normal(size=(M, N)), 0.0)
            W, u = rng.normal(size=(M, *width)), rng.normal(size=(N, *width))
            WX, over_mu = _solve_operands(X, W, rng.normal(size=(M, *width)), 1.7)
            dense = solver.update_P(solver.factor_gram(X), WX, over_mu, u, np.empty_like(WX))
            out = np.full_like(WX, np.nan)
            assert solver.update_P(solver.factor_gram(csc_array(X)), WX, over_mu, u, out) is out
            np.testing.assert_allclose(out, dense, rtol=1e-12, atol=1e-12)

    def test_ill_scaled_features_fail_with_advice(self):
        # finite X whose squared norm nears 1/eps: rounding costs I + X X^T its
        # positive definiteness, and the error says to rescale the features.
        # Larger X overflows the Gram product on either side (features, then
        # instances), with the same advice and no overflow warning.
        for data in (make_ill_scaled(), make_gram_overflow(40, 3), make_gram_overflow(3, 40)):
            with np.errstate(all="raise"), pytest.raises(
                    ValueError, match="too large for the Gram factorization") as err:
                train(data, SolverConfig())
            assert "--standardize" in str(err.value)

    def test_side_follows_shape(self):
        assert solver.gram_side(np.zeros((3, 5))) == "features"
        assert solver.gram_side(np.zeros((4, 4))) == "features"
        assert solver.gram_side(np.zeros((5, 3))) == "instances"
        assert solver.gram_side(np.zeros((1, 1))) == "features"


class TestSparseFeatures:
    """A CSC copy of X trains like the dense set: its products add the
    same terms in another order, so the fits agree to rounding."""

    @pytest.mark.parametrize("components", [1, 5])
    @pytest.mark.parametrize("power", [1.0, 1.5, 2.0])
    @settings(max_examples=20, deadline=None)
    @given(shape=st.sampled_from([(40, 8), (60, 12), (10, 30), (8, 50)]),  # both Gram sides
           density=st.sampled_from([0.1, 0.3]), seed=st.integers(0, 2**16))
    def test_csc_copy_stops_as_the_dense_set(self, components, power, shape, density, seed):
        N, M = shape
        blobs = make_blobs(N, M, seed=seed)
        X = np.where(np.random.default_rng(seed).random((M, N)) < density, blobs.X, 0.0)
        config = SolverConfig(components=components, loss_power=power)
        _, dense = train(DataSet(X=X, y=blobs.y), config)
        _, sparse = train(DataSet(X=csc_array(X), y=blobs.y), config)
        assert ((sparse.iterations, sparse.stop_reason, sparse.gram_side)
                == (dense.iterations, dense.stop_reason, dense.gram_side))
        assert sparse.objective_trace[-1] == pytest.approx(dense.objective_trace[-1],
                                                           rel=1e-12, abs=0.0)


class TestMultipliers:
    def test_feasible_state_only_grows_mu(self):
        data = DataSet(X=np.zeros((2, 3)), y=np.array([1.0, -1.0, 1.0]))
        W = np.ones((2, 2))
        b = np.zeros(2)
        E = data.y[:, None] * np.ones((1, 2))  # feasible: E = Y - X^T P - 1 b^T with X = 0
        Q0, Z0 = np.ones((2, 2)), np.ones((3, 2))
        gaps = _split_and_slack_gaps(data.X, W, b[None, :], E, W.copy(), data.X.T @ W,
                                     data.y[:, None])
        QZ, mu = solver.update_multipliers(np.concatenate((Q0, Z0)), 1.0, gaps, rho=1.1)
        Q, Z = QZ[:2], QZ[2:]
        np.testing.assert_array_equal(Z, Z0)
        np.testing.assert_array_equal(Q, Q0)
        assert mu == pytest.approx(1.1)

    def test_unit_residual_steps_by_mu(self):
        data = DataSet(X=np.zeros((2, 2)), y=np.array([1.0, -1.0]))
        W = np.zeros((2, 2))
        P = W + 1.0
        E = data.y[:, None] * np.ones((1, 2)) + 1.0
        gaps = _split_and_slack_gaps(data.X, W, np.zeros((1, 2)), E, P, data.X.T @ P,
                                     data.y[:, None])
        QZ, mu = solver.update_multipliers(np.zeros((4, 2)), 2.0, gaps, rho=1.5)
        Q, Z = QZ[:2], QZ[2:]
        np.testing.assert_allclose(Q, np.full((2, 2), 2.0))
        np.testing.assert_allclose(Z, np.full((2, 2), 2.0))
        assert mu == 3.0

    def test_mu_cap(self):
        data = DataSet(X=np.zeros((1, 1)), y=np.array([1.0]))
        gaps = _split_and_slack_gaps(data.X, np.zeros((1, 1)), np.zeros((1, 1)),
                                     np.ones((1, 1)), np.zeros((1, 1)),
                                     data.X.T @ np.zeros((1, 1)), data.y[:, None])
        _, mu = solver.update_multipliers(np.zeros((2, 1)), 9e9, gaps, rho=2.0)
        assert mu == 1e10

    @pytest.mark.parametrize("shape", [(5, 9), (9, 5)], ids=["features", "instances"])
    def test_stacked_ascent_has_the_bits_of_separate_ascents(self, shape):
        # train ascends [X^T Q; Q; Z] along [X^T P - X^T W; P - W; slack gap]
        # in one call, with mu a 0-d array; each block gets the bits of its
        # own ascent, block + gap * mu, and mu grows as a float.
        M, N = shape
        rng = np.random.default_rng(M)
        XtQ, Q, Z = (rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n) for n in (N, M, N))
        lift, split, slack = (rng.normal(size=n) for n in (N, M, N))
        mu_op = np.array(1.7)
        stacked, mu = solver.update_multipliers(np.concatenate((XtQ, Q, Z)), mu_op,
                                                np.concatenate((lift, split, slack)), 1.1)
        separate = [block + gap * 1.7 for block, gap in ((XtQ, lift), (Q, split), (Z, slack))]
        assert stacked.tobytes() == np.concatenate(separate).tobytes()
        assert type(mu) is float and mu == 1.1 * 1.7


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
            expected = exclusivity_regularizer(W) + lam * 3 * average_component_loss(model, data)
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

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csc"])
    @pytest.mark.parametrize("components", [1, 5])
    @pytest.mark.parametrize("power", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("shape", [(40, 5), (12, 30)], ids=["features", "instances"])
    def test_last_objective_matches_oracle(self, shape, power, components, sparse):
        # The last traced objective, from the carried X^T W and the solver's
        # power kernel, against the oracle's direct product and hinge**p.
        N, M = shape
        data = make_blobs(N, M, seed=int(4 * power) + components)
        fitted = DataSet(X=csc_array(data.X), y=data.y) if sparse else data
        config = SolverConfig(components=components, loss_power=power)
        model, report = train(fitted, config)
        expected = oracles.joint_objective(model.W, model.b, data, config.lam, power)
        assert report.objective_trace[-1] == pytest.approx(expected, rel=1e-10, abs=0.0)


class TestResiduals:
    def test_feasible(self):
        rng = np.random.default_rng(26)
        data = DataSet(X=rng.normal(size=(3, 5)), y=rng.choice([-1.0, 1.0], 5))
        W = rng.normal(size=(3, 2))
        b = rng.normal(size=2)
        E = data.y[:, None] - data.X.T @ W - b[None, :]
        P = W.copy()
        gaps = _split_and_slack_gaps(data.X, W, b[None, :], E, P, data.X.T @ P,
                                     data.y[:, None])
        np.testing.assert_allclose(solver.constraint_residuals(gaps, 3), (0.0, 0.0),
                                   atol=1e-12)

    def test_unit_offset(self):
        data = DataSet(X=np.zeros((3, 4)), y=np.ones(4))
        W = np.zeros((3, 2))
        E = np.ones((4, 1)) * np.array([[1.0, 1.0]])
        P = W + 1.0
        gaps = _split_and_slack_gaps(data.X, W, np.zeros((1, 2)), E, P, data.X.T @ P,
                                     data.y[:, None])
        first, _ = solver.constraint_residuals(gaps, 3)
        assert first == pytest.approx(np.sqrt(3 * 2))

    def test_multiplicity_counts_repeated_columns(self):
        rng = np.random.default_rng(33)
        gaps = np.concatenate((rng.normal(size=(3, 2)), rng.normal(size=(5, 2))))
        m = 3
        expected = solver.constraint_residuals(np.repeat(gaps, m, axis=1), 3)
        np.testing.assert_allclose(solver.constraint_residuals(gaps, 3, m), expected, rtol=1e-14)


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
        gram = solver.factor_gram(data.X)
        Y = data.y[:, None]

        def blocks(s, mu=1.7):
            XtP, Z_over_mu = data.X.T @ s["P"], s["Z"] / mu
            W = solver.solve_w_subproblem(s["P"], s["Q"], mu)
            b = solver.update_b(data.y[:, None], s["E"], XtP, Z_over_mu)
            E, _ = solver.update_E(Y - XtP - b[None, :] - Z_over_mu, Y, 2.0, mu, 1.5)
            P, _ = _update_P(gram, data.X, W, s["Q"], mu, Y - b[None, :] - Z_over_mu - E)
            gaps = _split_and_slack_gaps(data.X, W, b[None, :], E, P, data.X.T @ P,
                                         data.y[:, None])
            QZ, mu = solver.update_multipliers(np.concatenate((s["Q"], s["Z"])), mu, gaps,
                                               rho=1.1)
            return W, b, E, P, QZ[M:], QZ[:M], mu

        W, b, E, P, Z, Q, mu = blocks(state)
        W2, b2, E2, P2, Z2, Q2, mu2 = blocks(swapped)
        assert len({tuple(column) for column in W.T}) == C  # the columns stay distinct
        np.testing.assert_array_equal(W2, W[:, perm])
        np.testing.assert_array_equal(b2, b[perm])
        for got, want in ((E2, E[:, perm]), (P2, P[:, perm]), (Z2, Z[:, perm]),
                          (Q2, Q[:, perm])):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        assert mu2 == mu


def _assert_same_bits(vector, column):
    """A block's result on 1-D vectors (or its scalar) holds the bits of its
    result on the same data as (n, 1) columns."""
    vector, column = np.asarray(vector), np.asarray(column)
    assert vector.ndim < column.ndim and vector.size == column.size
    assert vector.ravel().tobytes() == column.ravel().tobytes()


class TestVectorLayout:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 8), st.integers(1, 12), st.integers(0, 2**32 - 1))
    @example(M=3, N=9, seed=0)  # features side
    @example(M=8, N=3, seed=1)  # instances side
    def test_blocks_give_column_bits_on_vectors(self, M, N, seed):
        # train carries its one column as 1-D vectors with a scalar bias and
        # y as it is; the C-column reference passes (n, 1) columns, y[:, None]
        # and b[None, :].  Each block function gives the same bits either way.
        # M >= 2, so a penalty that summed a 1-D W whole, instead of row by
        # row, would differ.
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(M, N)) * rng.choice([0.1, 1.0, 10.0])
        y = rng.choice([-1.0, 1.0], N)
        W, P, Q = (rng.normal(size=M) for _ in range(3))
        E, Z, XtP = (rng.normal(size=N) * rng.choice([0.1, 1.0, 10.0]) for _ in range(3))
        b, mu, lam = np.float64(rng.normal()), float(rng.uniform(0.5, 3.0)), 2.0
        col = {name: value[:, None] for name, value in
               dict(X_W=X.T @ W, W=W, P=P, Q=Q, E=E, Z=Z, XtP=XtP, y=y).items()}
        b_row = np.full((1, 1), b)

        _assert_same_bits(solver.update_b(y, E, XtP, Z / mu),
                          solver.update_b(col["y"], col["E"], col["XtP"], col["Z"] / mu))
        S = y - XtP - b - Z / mu
        for p in (1.0, 1.25, 1.5, 2.0):
            vector, vector_steps = solver.update_E(S, y, lam, mu, p)
            column, column_steps = solver.update_E(S[:, None], col["y"], lam, mu, p)
            _assert_same_bits(vector, column)
            assert vector_steps == column_steps
        gram = solver.factor_gram(X)
        u = y - b - Z / mu - E
        WX, over_mu = _solve_operands(X, W, Q, mu)
        column_WX, column_over_mu = _solve_operands(X, col["W"], col["Q"], mu)
        _assert_same_bits(solver.update_P(gram, WX, over_mu, u, np.empty_like(WX)),
                          solver.update_P(gram, column_WX, column_over_mu, u[:, None],
                                          np.empty_like(column_WX)))
        gaps, column_gaps = np.empty(2 * N + M), np.empty((2 * N + M, 1))
        solver.constraint_gaps(np.concatenate((XtP, P)), WX, E, y, b, gaps)
        solver.constraint_gaps(np.concatenate((col["XtP"], col["P"])), column_WX, col["E"],
                               col["y"], b_row, column_gaps)
        _assert_same_bits(gaps, column_gaps)
        XtQ = X.T @ Q
        vector_QZ, vector_mu = solver.update_multipliers(np.concatenate((XtQ, Q, Z)), mu, gaps,
                                                         1.1)
        column_QZ, column_mu = solver.update_multipliers(
            np.concatenate((XtQ[:, None], col["Q"], col["Z"])), mu, column_gaps, 1.1)
        _assert_same_bits(vector_QZ, column_QZ)
        assert vector_mu == column_mu
        for m in (1, 3):
            assert (solver.constraint_residuals(gaps[N:], M, m)
                    == solver.constraint_residuals(column_gaps[N:], M, m))
            for p in (1.0, 1.5, 2.0):
                assert (solver.primal_objective(W, b, X.T @ W, y, lam, p, m)
                        == solver.primal_objective(col["W"], b_row, col["X_W"], col["y"], lam, p,
                                                   m))


class TestBlocksLeaveInputs:
    @pytest.mark.parametrize("columns", [None, 3], ids=["vectors", "columns"])
    @pytest.mark.parametrize("shape", [(5, 9), (9, 5)], ids=["features", "instances"])
    def test_read_only_inputs_give_the_same_bits(self, shape, columns):
        # train finishes its vector expressions in place, on arrays it has
        # just allocated, and the P solve writes into the buffer its caller
        # passes as ``out``.  No block function writes to anything else: each
        # runs on read-only inputs, where a write would raise, and returns
        # the bits it returns on writable copies, which it leaves as they
        # were.
        M, N = shape
        rng = np.random.default_rng([M, columns or 1])
        width = () if columns is None else (columns,)
        y = rng.choice([-1.0, 1.0], N)
        inputs = {"W": rng.normal(size=(M, *width))}
        inputs.update({name: rng.normal(size=(N, *width)) for name in
                       ("E", "S", "Z_over_mu", "XtW", "XtP", "u")})
        # The stacks of train: PX = [X^T P; P], WX = [X^T W; W], the
        # multipliers [X^T Q; Q; Z] and their gaps.
        inputs["PX"], inputs["WX"] = (rng.normal(size=(N + M, *width)) for _ in range(2))
        inputs["multipliers"], inputs["gaps"] = (rng.normal(size=(2 * N + M, *width))
                                                 for _ in range(2))
        inputs["over_mu"] = rng.normal(size=(N + M, *width))
        inputs["X"] = rng.normal(size=(M, N))
        inputs["Y"] = y if columns is None else np.repeat(y[:, None], columns, axis=1)
        inputs["b"] = np.float64(rng.normal()) if columns is None else rng.normal(size=(1, columns))
        mu, lam, rho = 1.7, 2.0, 1.1

        def run(a):
            results = [solver.update_b(a["Y"], a["E"], a["XtP"], a["Z_over_mu"])]
            for p in (1.0, 1.25, 1.5, 2.0):
                results.extend(solver.update_E(a["S"], a["Y"], lam, mu, p))
            out = np.empty_like(a["WX"])  # the caller's buffer for [X^T P; P]
            assert solver.update_P(solver.factor_gram(a["X"]), a["WX"], a["over_mu"], a["u"],
                                   out) is out
            results.append(out)
            gaps = np.empty((2 * N + M, *width))  # the caller's buffer for the gaps
            assert solver.constraint_gaps(a["PX"], a["WX"], a["E"], a["Y"], a["b"], gaps) is gaps
            results.append(gaps)
            results.extend(solver.update_multipliers(a["multipliers"], mu, a["gaps"], rho))
            results.extend(solver.constraint_residuals(a["gaps"][N:], M, 3))
            for p in (1.0, 1.5, 2.0):
                results.append(solver.primal_objective(a["W"], a["b"], a["XtW"], a["Y"], lam, p,
                                                       3))
            return [np.asarray(result).tobytes() for result in results]

        frozen = {name: np.array(value) for name, value in inputs.items()}
        for value in frozen.values():
            value.setflags(write=False)
        writable = {name: np.array(value) for name, value in inputs.items()}
        assert run(frozen) == run(writable)
        for name, value in inputs.items():
            assert writable[name].tobytes() == np.asarray(value).tobytes(), name


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

    def test_csc_x_is_transposed_once_per_fit(self):
        # Each X.T of a CSC X builds a new CSR array, which costs several
        # times a product, so the features-side solve transposes X once per
        # fit and train once for the starting X^T Q: no transpose per
        # iteration.
        transposes = []

        class CountingCSC(csc_array):
            def transpose(self, *args, **kwargs):
                transposes.append(1)
                return super().transpose(*args, **kwargs)

        data = make_blobs(60, 4, seed=3)
        object.__setattr__(data, "X", CountingCSC(data.X))
        _, report = train(data, SolverConfig(components=3))
        assert report.gram_side == "features"
        assert report.iterations > 2
        assert len(transposes) == 2

    def test_one_product_per_iteration_on_instances_side(self):
        # With M > N the P update reads X once, in X z, and gets X^T P as
        # u + z from the N x N solve; forming I + X^T X and the starting X^T Q
        # are the two products outside the loop.
        products, report, _ = _count_products_with_x(make_blobs(12, 30, seed=3),
                                                  SolverConfig(components=3))
        assert report.gram_side == "instances"
        assert report.iterations > 1
        assert products == 2 + report.iterations

    def test_instances_side_matches_dense_reference(self, monkeypatch):
        data = make_blobs(15, 40, seed=11)
        config = SolverConfig(components=3, loss_power=1.5, outer_tol=1e-6)
        _, fast = train(data, config)

        X, N = data.X, data.X.shape[1]
        K = np.eye(X.shape[0]) + X @ X.T

        def dense_reference(gram, WX, over_mu, u, out):
            out[N:] = np.linalg.solve(K, WX[N:] - over_mu[N:] + X @ u)
            out[:N] = X.T @ out[N:]
            return out

        monkeypatch.setattr(solver, "update_P", dense_reference)
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
        M, N = X.shape
        row_sum = np.abs(X).sum(axis=1).max()
        eps = np.finfo(float).eps
        units = []
        original = solver.update_multipliers

        def recorded(multipliers, mu, *args):
            stacked, mu_new = original(multipliers, mu, *args)
            Q_new, Z_new = stacked[N:N + M], stacked[N + M:]  # of [X^T Q; Q; Z]
            scale = 1.0 + np.abs(Q_new).max() + row_sum * np.abs(Z_new).max()
            units.append(float(np.abs(Q_new + X @ Z_new).max() / (eps * mu * scale)))
            return stacked, mu_new

        monkeypatch.setattr(solver, "update_multipliers", recorded)
        _, report = train(data, SolverConfig(components=3, loss_power=power, outer_tol=outer_tol))
        assert len(units) == report.iterations
        assert max(units) <= 16.0

    def test_general_power_matches_bisection_reference(self, monkeypatch):
        # These powers reach Newton (p = 1.5 has a closed form of its own) in
        # both clamp directions: from below at p < 2, from above at p > 2.
        # At p = 1.0005 the power in hi can under- or overflow.
        data = make_blobs(60, 5, seed=12)
        configs = [SolverConfig(components=3, loss_power=power) for power in (1.0005, 1.25, 3.0)]
        newton = [train(data, config)[1] for config in configs]
        monkeypatch.setattr(solver, "_positive_branch_minimizer", _bisection_reference)
        for config, report in zip(configs, newton):
            _, bisection = train(data, config)
            assert report.e_inner_steps != bisection.e_inner_steps
            assert report.iterations == bisection.iterations
            assert report.objective_trace[-1] == pytest.approx(bisection.objective_trace[-1],
                                                               rel=1e-9)

    def test_three_halves_matches_bisection_reference(self, monkeypatch):
        data = make_blobs(60, 5, seed=12)
        config = SolverConfig(components=3, loss_power=1.5)
        _, closed = train(data, config)
        monkeypatch.setattr(solver, "_three_halves_minimizer",
                            lambda a, k: _bisection_reference(a, k, 1.5)[0])
        _, bisection = train(data, config)
        assert closed.iterations == bisection.iterations
        assert closed.objective_trace[-1] == pytest.approx(bisection.objective_trace[-1], rel=1e-9)

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
    @pytest.mark.parametrize("power", [1.0, 1.25, 1.5, 2.0])
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

    def test_report_dict_keys_are_the_fields(self):
        # A field added to TrainReport reaches the JSON with no second edit.
        _, report = train(make_blobs(40, 3, seed=2), SolverConfig(components=2))
        payload = report.to_dict()
        assert list(payload) == ["schema_version", *(f.name for f in fields(TrainReport))]
        assert json.loads(json.dumps(payload)) == payload

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
        # though every later block inherits the NaN.  update_b returns b and
        # update_P the stack [X^T P; P]; update_E returns a tuple whose first
        # entry is E, and update_multipliers one whose first entry is the
        # stack [X^T Q; Q; Z], of which only the Q or the Z rows turn NaN.
        N, M = shape
        original = getattr(solver, name)
        calls = []

        def poisoned(*args):
            calls.append(1)
            result = original(*args)
            if len(calls) != 3:
                return result
            if name == "update_b":
                return result * np.nan
            if name == "update_P":  # P alone, with X^T P left finite
                poisoned = result.copy()
                poisoned[N:] = np.nan
                return poisoned
            first = result[0] * np.nan
            if name == "update_multipliers":
                first = result[0].copy()
                first[slice(N, N + M) if block == "Q" else slice(N + M, None)] = np.nan
            return (first, *result[1:])

        monkeypatch.setattr(solver, name, poisoned)
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

"""Augmented Lagrangian trainer for exclusivity-regularized linear ensembles.

The training problem couples a powered hinge loss over C linear components
with the row-wise l1,2 penalty from :mod:`xrm.diversity`:

    min_{W, b}  0.5 * sum_j (sum_c |W[j,c]|)^2
                + lam * sum_c sum_i max(0, 1 - (x_i . w_c + b_c) y_i)^p

Two auxiliary blocks make the objective separable: P, a split copy of W, and
E, the per-instance slack matrix with e[i,c] = y_i - (x_i . w_c + b_c), so the
loss becomes a function of (Y * E)_+ alone.  Each outer iteration updates the
blocks in turn (W by an exact row-wise proximal map, b in closed form, E
elementwise, P through one cached SPD solve), then performs multiplier ascent
on Q and Z and grows the penalty mu geometrically.  Termination monitors the
change of the primal objective evaluated at the current (W, b).

The default start is symmetric under column permutations (Q all ones, every
other block zero) and every block update is column-equivariant, so the C
columns of the iterates stay identical.  :func:`train` therefore carries one
column with the integer ``multiplicity`` C wherever the C columns are summed
(the W prox, the objective and the residuals), and repeats it C times at the
end.

The P update solves with I + X X^T, factored once per fit on the smaller side
of X (M features x N instances):

* M <= N ("features"): the M x M Cholesky of I + X X^T, formed with M^2 N
  flops and factored with M^3/3; each solve costs about 2 M^2 per column.
* M > N ("instances"): the N x N Cholesky of I + X^T X, formed with N^2 M
  flops and factored with N^3/3, applied through the matrix inversion lemma
  (I + X X^T)^-1 = I - X (I + X^T X)^-1 X^T; each solve costs two
  products with X plus about 2 N^2 per column.

Besides that solve, each iteration costs three products of X with a single
column, N x M flops each whatever C is: X (r - e) in the P update, X^T p
once the new p is known, and X^T w in the objective.  That makes three
products with X per iteration on the features side and five on the
instances side, plus one per fit to form the Gram matrix.  X^T p is carried
into the next iteration's b and E updates, and the two constraint gaps are
formed once for both the multiplier ascent and the residual trace.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .diversity import DiversityReport, diversity_report, exclusivity_regularizer
from .model import EnsembleModel

MU_INIT = 1.0  # starting penalty mu
MU_CAP = 1e10  # mu stops growing here, so late-iteration arithmetic stays well conditioned
GENERAL_P_TOL = 1e-10  # step tolerance of the slack solver at p not in {1, 2}


class DivergenceError(RuntimeError):
    """Non-finite solver state; carries the outer iteration that produced it."""

    def __init__(self, message: str, iteration: int):
        super().__init__(message)
        self.iteration = iteration


@dataclass(frozen=True)
class SolverConfig:
    """Training hyperparameters and stopping controls.

    ``lam`` weighs the loss against the diversity penalty, ``components`` is
    the ensemble width C, ``loss_power`` the hinge exponent p >= 1.  The
    penalty mu starts at ``MU_INIT``, is multiplied by ``rho`` each iteration,
    and is clamped at ``MU_CAP``.
    """

    lam: float = 2.0
    components: int = 10
    loss_power: float = 2.0
    rho: float = 1.1
    outer_tol: float = 0.05
    outer_max_iters: int = 300

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.components < 1:
            raise ValueError("components must be a positive integer")
        if self.loss_power < 1:
            raise ValueError("loss_power must be at least 1")
        if self.rho <= 1:
            raise ValueError("rho must exceed 1")
        if self.outer_tol <= 0:
            raise ValueError("outer_tol must be positive")
        if self.outer_max_iters < 1:
            raise ValueError("the iteration cap must be positive")

    def to_dict(self) -> dict:
        """The fields in order, with ``lam`` under the key ``lambda``."""
        return {"lambda" if name == "lam" else name: value for name, value in asdict(self).items()}


@dataclass
class SolverState:
    """One snapshot of the block variables and multipliers."""

    W: np.ndarray  # features x components
    b: np.ndarray  # components
    E: np.ndarray  # instances x components, slack block
    P: np.ndarray  # features x components, split copy of W
    Q: np.ndarray  # multiplier for P = W
    Z: np.ndarray  # multiplier for the slack constraint
    mu: float
    iteration: int = 0


@dataclass
class TrainReport:
    """Per-iteration traces and summary facts from one training run."""

    objective_trace: list[float] = field(default_factory=list)
    residual_trace: list[tuple[float, float]] = field(default_factory=list)
    multiplier_sup_trace: list[float] = field(default_factory=list)
    iterations: int = 0
    stop_reason: str = ""  # "objective_change" or "max_iters"
    gram_side: str = ""  # "features" (M x M factor) or "instances" (N x N)
    e_inner_steps: list[int] = field(default_factory=list)  # E-block steps per iteration
    wall_time: float = 0.0
    diversity: DiversityReport | None = None

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,  # raise when a key is renamed, removed or changes meaning
            "objective_trace": self.objective_trace,
            "residual_trace": [list(pair) for pair in self.residual_trace],
            "multiplier_sup_trace": self.multiplier_sup_trace,
            "iterations": self.iterations,
            "stop_reason": self.stop_reason,
            "gram_side": self.gram_side,
            "e_inner_steps": self.e_inner_steps,
            "wall_time": self.wall_time,
            "diversity": self.diversity.to_dict() if self.diversity is not None else None,
        }


def make_initial_state(data, columns: int) -> SolverState:
    """Starting point with ``columns`` columns: Q all ones, the rest zero, mu = MU_INIT.

    The first W update reads only P, Q and mu, so the starting W is never
    used; zero keeps it consistent with P = W.
    """
    M, N = data.X.shape
    return SolverState(
        W=np.zeros((M, columns)),
        b=np.zeros(columns),
        E=np.zeros((N, columns)),
        P=np.zeros((M, columns)),
        Q=np.ones((M, columns)),
        Z=np.zeros((N, columns)),
        mu=MU_INIT,
    )


def gram_side(X: np.ndarray) -> str:
    """The side of X (M x N) that :func:`factor_gram` factors: ``"features"``
    (the M x M matrix I + X X^T) when M <= N, else ``"instances"`` (the
    N x N matrix I + X^T X)."""
    M, N = X.shape
    return "features" if M <= N else "instances"


def factor_gram(X: np.ndarray):
    """Factor I + X X^T once per fit and return ``solve(rhs)``, which gives
    (I + X X^T)^-1 rhs for an M x C right-hand side.

    On the features side (M <= N) this is the Cholesky of the M x M matrix
    I + X X^T: M^2 N flops to form, M^3/3 to factor, about 2 M^2 C per solve.
    On the instances side (M > N) it is the Cholesky of the N x N matrix
    I + X^T X, and a solve is rhs - X (I + X^T X)^-1 X^T rhs: N^2 M flops to
    form, N^3/3 to factor, about 4 M N C + 2 N^2 C per solve.
    """
    features = gram_side(X) == "features"
    K = np.eye(X.shape[0]) + X @ X.T if features else np.eye(X.shape[1]) + X.T @ X
    try:
        factor = cho_factor(K)
    except np.linalg.LinAlgError as exc:
        # I + X X^T is positive definite in exact arithmetic, but once |X|^2
        # nears 1/eps rounding swallows the identity and can leave it singular.
        raise ValueError(
            f"factorization of the regularized Gram matrix failed ({exc}): the features are "
            "too large for the Gram factorization in double precision; rescale them, "
            "for example with --standardize"
        ) from exc
    if features:
        return lambda rhs: cho_solve(factor, rhs)
    return lambda rhs: rhs - X @ cho_solve(factor, X.T @ rhs)


def solve_w_subproblem(state: SolverState, multiplicity: int = 1) -> np.ndarray:
    """Minimize the W block exactly, row by row.

    Each row solves min_w 0.5 * (m sum_c |w_c|)^2 + mu/2 * m sum_c (w_c - v_c)^2
    with v = P + Q/mu, where every column stands for m identical columns
    (``multiplicity``, 1 by default).  With m = 1 this is the proximal map of
    half a squared l1 norm.  The minimizer soft-thresholds v at
    tau_k = m * (sum of the k largest |v|) / (mu + m k), where k is the largest
    count whose k-th largest |v| exceeds tau_k (Kowalski 2009; Zhou, Jin and
    Hoi 2010): the prox of the row in which every column is repeated m times,
    whose tied copies pass the test together.  That threshold makes
    m sum_c |w_c| = mu * tau_k, so w_c = v_c - sign(v_c) * m sum_c |w_c| / mu
    wherever w_c is nonzero, the row's optimality condition.  A single column
    of multiplicity C shrinks v to v * mu / (mu + C).  An all-zero row of v
    gives a zero row.  The one threshold per row couples the columns of a call.
    """
    V = state.P + state.Q / state.mu
    magnitude = np.abs(V)
    ranked = np.sort(magnitude, axis=1)[:, ::-1]
    positions = np.arange(1, V.shape[1] + 1)
    thresholds = multiplicity * np.cumsum(ranked, axis=1) / (state.mu + multiplicity * positions)
    support = np.where(ranked > thresholds, positions, 0).max(axis=1)
    tau = np.take_along_axis(thresholds, np.maximum(support - 1, 0)[:, None], axis=1)
    return np.sign(V) * np.maximum(magnitude - tau, 0.0)


def update_b(state: SolverState, data, XtP: np.ndarray, Z_over_mu: np.ndarray) -> np.ndarray:
    """Closed-form bias update: per-component mean of Y - E - X^T P - Z / mu,
    given XtP = X^T state.P and Z_over_mu = state.Z / state.mu."""
    residual = data.y[:, None] - state.E - XtP - Z_over_mu
    return residual.mean(axis=0)


def _positive_branch_minimizer(a: np.ndarray, k: float, p: float,
                               tol: float) -> tuple[np.ndarray, int]:
    """Solve min_{t >= 0} k * t^p + 0.5 * (t - a)^2 for positive targets ``a``
    by safeguarded Newton on the increasing derivative f(t) = k p t^(p-1) + t - a
    (the Newton-bisection hybrid ``rtsafe`` of Numerical Recipes).

    The root lies in [lo, hi] with lo = min(a/2, (a/(2kp))^(1/(p-1))) and
    hi = min(a, (a/(kp))^(1/(p-1))), since f(lo) <= 0 <= f(hi).  Starting at
    hi, every step shrinks the bracket by the sign of f and takes the Newton
    step when it lands inside the bracket (ends included, where a converged
    iterate sits), else the midpoint.  Iteration stops once no entry moves by
    more than ``tol`` plus a few units in the last place of t (for large t the
    iterates can alternate between two neighbouring floats further apart than
    ``tol``), or after 200 steps.  Returns the minimizers and the step count.
    """
    slope = k * p
    resolution = 4.0 * np.finfo(float).eps
    # Near p = 1 the bracket powers overflow to inf, which the minimum with a
    # absorbs.  Where they underflow to [0, 0], the Newton quotient at t = 0 is
    # 0/0, and the bracket test rejects it in favour of the midpoint 0.
    with np.errstate(over="ignore", invalid="ignore"):
        lo = np.minimum(0.5 * a, (0.5 * a / slope) ** (1.0 / (p - 1.0)))
        hi = np.minimum(a, (a / slope) ** (1.0 / (p - 1.0)))
        t = hi
        for steps in range(1, 201):
            power_term = slope * t ** (p - 1.0)
            f = power_term + t - a
            lo = np.where(f < 0.0, t, lo)
            hi = np.where(f > 0.0, t, hi)
            # f / f'(t) with f'(t) = (p - 1) k p t^(p-2) + 1, reusing t^(p-1).
            newton = t - f * t / ((p - 1.0) * power_term + t)
            step = np.where((lo <= newton) & (newton <= hi), newton, 0.5 * (lo + hi))
            settled = np.abs(step - t) <= tol + resolution * t
            t = step
            if settled.all():
                break
    return t, steps


def update_E(S: np.ndarray, Y: np.ndarray, lam: float, mu: float,
             p: float) -> tuple[np.ndarray, int]:
    """Elementwise minimizer of (lam/mu) * (Y*E)_+^p + 0.5 * (E - S)^2, and the
    number of safeguarded Newton steps it took (0 at p = 1 and p = 2).

    p = 1 soft-thresholds the entries whose target violates the margin,
    p = 2 shrinks them by 1 / (1 + 2 lam/mu), and any other p >= 1 solves the
    active branch by :func:`_positive_branch_minimizer` to ``GENERAL_P_TOL``.
    That branch needs no comparison with the boundary t = 0: for p >= 1 the
    scalar problem is convex with slope -a < 0 at t = 0, so its stationary
    point beats 0.5 a^2.
    Entries with Y*S <= 0 keep their target S.
    """
    if p < 1:
        raise ValueError("loss power p must be at least 1")
    k = lam / mu
    target = Y * S
    active = target > 0.0
    if p == 1:
        shrunk = np.sign(S) * np.maximum(np.abs(S) - k, 0.0)
        return np.where(active, shrunk, S), 0
    if p == 2:
        return np.where(active, S / (1.0 + 2.0 * k), S), 0
    E = S.copy()
    steps = 0
    if np.any(active):
        t, steps = _positive_branch_minimizer(target[active], k, p, GENERAL_P_TOL)
        E[active] = Y[active] * t
    return E, steps


def update_P(state: SolverState, data, W_new: np.ndarray, E_new: np.ndarray,
             b_new: np.ndarray, solve_gram, Z_over_mu: np.ndarray) -> np.ndarray:
    """Closed-form P update: solve (I + X X^T) P = W - Q/mu + X (R - E) with
    R = Y - 1 b^T - Z/mu, given Z_over_mu = state.Z / state.mu and the
    ``solve_gram`` that :func:`factor_gram` returned.  Forming the right-hand
    side costs one N x M x C product; the solve costs about 2 M^2 C flops on
    the features side and two more N x M x C products on the instances side."""
    R = data.y[:, None] - b_new[None, :] - Z_over_mu
    rhs = W_new - state.Q / state.mu + data.X @ (R - E_new)
    return solve_gram(rhs)


def constraint_gaps(W: np.ndarray, b: np.ndarray, E: np.ndarray, P: np.ndarray,
                    XtP: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Violations of the two constraints, P - W and E - Y + X^T P + 1 b^T,
    given XtP = X^T P."""
    return P - W, E - y[:, None] + XtP + b[None, :]


def update_multipliers(state: SolverState, split_gap: np.ndarray, slack_gap: np.ndarray,
                       rho: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Ascent on both multipliers along the constraint gaps of the new
    iterate, then geometric penalty growth capped at MU_CAP."""
    Z = state.Z + state.mu * slack_gap
    Q = state.Q + state.mu * split_gap
    mu = min(rho * state.mu, MU_CAP)
    return Z, Q, mu


def primal_objective(W: np.ndarray, b: np.ndarray, data, lam: float, p: float,
                     multiplicity: int = 1) -> float:
    """The quantity being minimized: diversity penalty plus weighted powered
    hinge loss over all components and instances.  Every column of (W, b)
    counts ``multiplicity`` times (once by default):
    0.5 * sum_j (m sum_c |W[j,c]|)^2 + lam * m sum_c loss_c."""
    margins = 1.0 - (data.X.T @ W + b[None, :]) * data.y[:, None]
    loss = float((np.maximum(margins, 0.0) ** p * multiplicity).sum())
    return exclusivity_regularizer(W * multiplicity) + lam * loss


def constraint_residuals(split_gap: np.ndarray, slack_gap: np.ndarray,
                         multiplicity: int = 1) -> tuple[float, float]:
    """Frobenius norms of the two gaps from :func:`constraint_gaps`, with
    every column counted ``multiplicity`` times: sqrt(m sum_c ||gap_c||^2)."""
    root = np.sqrt(multiplicity)
    return float(np.linalg.norm(split_gap * root)), float(np.linalg.norm(slack_gap * root))


def train(data, config: SolverConfig = SolverConfig()) -> tuple[EnsembleModel, TrainReport]:
    """Run the outer loop to convergence and return the averaged ensemble.

    The C components start identical and every block update treats columns
    alike, so the loop carries one column of multiplicity C and the returned
    model repeats it C times.  The objective and residual traces are those of
    the C-column problem.

    Stops when the absolute change of the primal objective between consecutive
    outer iterations falls below ``outer_tol`` (stop reason
    ``"objective_change"``), or at ``outer_max_iters`` (``"max_iters"``).
    The report carries per-iteration objective, residual, and multiplier-size
    traces together with the final diversity structure.
    """
    started = time.perf_counter()
    C = config.components
    Y = data.y[:, None]
    solve_gram = factor_gram(data.X)
    state = make_initial_state(data, 1)
    XtP = np.zeros_like(state.E)  # X^T state.P for the starting P = 0
    report = TrainReport(stop_reason="max_iters", gram_side=gram_side(data.X))
    previous_objective = None
    for iteration in range(1, config.outer_max_iters + 1):
        Z_over_mu = state.Z / state.mu
        W = solve_w_subproblem(state, C)
        b = update_b(state, data, XtP, Z_over_mu)
        # The E target Y - X^T P - 1 b^T - Z/mu is a temporary and the gaps are
        # dropped after use: X^T P is then the only N-vector that outlives its
        # block, so it alone adds to the peak memory.
        E, e_steps = update_E(Y - XtP - b[None, :] - Z_over_mu, Y, config.lam, state.mu,
                              config.loss_power)
        report.e_inner_steps.append(e_steps)
        P = update_P(state, data, W, E, b, solve_gram, Z_over_mu)
        XtP = data.X.T @ P
        split_gap, slack_gap = constraint_gaps(W, b, E, P, XtP, data.y)
        Z, Q, mu = update_multipliers(state, split_gap, slack_gap, config.rho)
        residuals = constraint_residuals(split_gap, slack_gap, C)
        del split_gap, slack_gap
        state.W, state.b, state.E, state.P, state.Z, state.Q, state.mu = W, b, E, P, Z, Q, mu
        state.iteration = iteration

        if not all(np.all(np.isfinite(block)) for block in (W, b, E, P, Z, Q)):
            raise DivergenceError(f"non-finite solver state at iteration {iteration}", iteration)

        objective = primal_objective(W, b, data, config.lam, config.loss_power, C)
        report.objective_trace.append(objective)
        report.residual_trace.append(residuals)
        report.multiplier_sup_trace.append(max(float(np.abs(Z).max()), float(np.abs(Q).max())))

        if previous_objective is not None and abs(objective - previous_objective) < config.outer_tol:
            report.stop_reason = "objective_change"
            break
        previous_objective = objective

    report.iterations = state.iteration
    report.wall_time = time.perf_counter() - started
    W = np.repeat(state.W, C, axis=1)
    report.diversity = diversity_report(W)
    model = EnsembleModel(W=W, b=np.repeat(state.b, C), lam=config.lam, p=config.loss_power)
    return model, report

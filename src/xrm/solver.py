"""Augmented Lagrangian trainer for exclusivity-regularized linear ensembles.

The training problem couples a powered hinge loss over C linear components
with the row-wise l1,2 penalty from :mod:`xrm.diversity`:

    min_{W, b}  0.5 * sum_j (sum_c |W[j,c]|)^2
                + lam * sum_c sum_i max(0, 1 - (x_i . w_c + b_c) y_i)^p

Two auxiliary blocks make the objective separable: P, a split copy of W, and
E, the per-instance slack matrix with e[i,c] = y_i - (x_i . w_c + b_c), so the
loss becomes a function of (Y * E)_+ alone.  Each outer iteration updates the
blocks in turn (W by an exact row-wise proximal map, b in closed form, E
elementwise, in closed form at p = 1, 1.5 and 2 and by Newton's method at
any other p, P through one cached SPD solve), then performs multiplier ascent
on Q and Z and grows the penalty mu geometrically.  Termination monitors the
change of the primal objective evaluated at the current (W, b).  :func:`train`
holds the iterate as local arrays and passes each block function only the
arrays that block reads.

The default start is symmetric under column permutations (Q all ones, every
other block zero) and every block update is column-equivariant, so the C
columns of the iterates stay identical.  :func:`train` therefore carries one
column with the integer ``multiplicity`` C wherever the C columns are summed
(the objective and the residuals), and repeats it C times at the end.  For
one column of multiplicity C the row prox of the W block is the shrink
W = (P + Q/mu) * mu / (mu + C).

The P update solves with I + X X^T, factored once per fit on the smaller side
of X (M features x N instances):

* M <= N ("features"): the M x M Cholesky of I + X X^T, formed with M^2 N
  flops and factored with M^3/3; each solve costs about 2 M^2 per column.
* M > N ("instances"): the N x N Cholesky of I + K with K = X^T X, formed
  with N^2 M flops and factored with N^3/3, applied through the matrix
  inversion lemma (I + X X^T)^-1 = I - X (I + K)^-1 X^T; K is kept beside
  the factor.

With the W block a shrink, W, the multiplier ascent on Q and the P update are
all affine, so :func:`train` carries the N-vectors X^T P, X^T Q and X^T W
beside P, Q and W and updates them by the same formulas instead of
multiplying by X again: X^T W = (X^T P + X^T Q/mu) * mu / (mu + C) and
X^T Q <- X^T Q + mu (X^T P - X^T W), starting from X^T Q = X^T 1.  X^T P
feeds the next iteration's b and E updates, X^T W the objective, and the two
constraint gaps are formed once for both the multiplier ascent and the
residual trace.  The products with X, N x M flops each whatever C is, are:

* features side: two per iteration, X (r - e) for the right-hand side of
  the P solve and X^T p of its solution;
* instances side: one per iteration.  The P update forms
  X^T rhs = X^T w - X^T q/mu + K u with u = r - e from the carried vectors,
  solves s = (I + K)^-1 X^T rhs, and returns p = w - q/mu + X (u - s) and
  X^T p = X^T rhs - K s = s, which costs the one product X (u - s) plus
  about 4 N^2 flops;

plus, once per fit, the Gram product and X^T Q for the starting Q.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.linalg import cho_factor, get_lapack_funcs

from .diversity import DiversityReport, _l12_penalty, diversity_report
from .model import EnsembleModel

MU_INIT = 1.0  # starting penalty mu
MU_CAP = 1e10  # mu stops growing here, so late-iteration arithmetic stays well conditioned
GENERAL_P_TOL = 1e-10  # step tolerance of the slack solver at p not in {1, 1.5, 2}
TIMED_BLOCKS = ("W", "b", "E", "P", "multipliers", "objective", "factorization")


class DivergenceError(RuntimeError):
    """Non-finite solver state; carries the outer iteration that produced it
    and ``block``, the first non-finite quantity in update order (``"W"``,
    ``"b"``, ``"E"``, ``"P"``, ``"Z"``, ``"Q"`` or ``"objective"``), when known."""

    def __init__(self, message: str, iteration: int, block: str | None = None):
        super().__init__(message)
        self.iteration = iteration
        self.block = block


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
        # NaN fails no ordered comparison, so finiteness is checked first.
        for name in ("lam", "loss_power", "rho", "outer_tol"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
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
class TrainReport:
    """Per-iteration traces and summary facts from one training run."""

    objective_trace: list[float] = field(default_factory=list)
    residual_trace: list[tuple[float, float]] = field(default_factory=list)
    multiplier_sup_trace: list[float] = field(default_factory=list)
    iterations: int = 0
    stop_reason: str = ""  # "objective_change" or "max_iters"
    gram_side: str = ""  # "features" (M x M factor) or "instances" (N x N)
    # E-block Newton steps per iteration, all 0 at p = 1, 1.5 and 2
    e_inner_steps: list[int] = field(default_factory=list)
    wall_time: float = 0.0
    # milliseconds per block summed over the iterations; "multipliers" includes
    # the gaps, the residuals and the multiplier sizes, "objective" the
    # finiteness check on those scalars and, when one is non-finite, the scan
    # of the blocks
    block_ms: dict[str, float] = field(default_factory=lambda: dict.fromkeys(TIMED_BLOCKS, 0.0))
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
            "block_ms": dict(self.block_ms),
            "diversity": self.diversity.to_dict() if self.diversity is not None else None,
        }


def gram_side(X: np.ndarray) -> str:
    """The side of X (M x N) that :func:`factor_gram` factors: ``"features"``
    (the M x M matrix I + X X^T) when M <= N, else ``"instances"`` (the
    N x N matrix I + X^T X)."""
    M, N = X.shape
    return "features" if M <= N else "instances"


def factor_gram(X: np.ndarray):
    """Factor I + X X^T once per fit and return ``solve(W, Q, XtW, XtQ, mu, u)``,
    which gives P = (I + X X^T)^-1 (W - Q/mu + X u) and X^T P for M x C
    blocks W and Q, XtW = X^T W and XtQ = X^T Q (read only on the instances
    side), the penalty mu and an N x C ``u``.

    On the features side (M <= N) this is the Cholesky of the M x M matrix
    I + X X^T: M^2 N flops to form, M^3/3 to factor; a solve costs the two
    products X u and X^T P plus about 2 M^2 C flops.
    On the instances side (M > N) it is the Cholesky of the N x N matrix
    I + K with K = X^T X, which is kept: N^2 M flops to form, N^3/3 to
    factor.  By the matrix inversion lemma P = W - Q/mu + X (u - s) with
    s = (I + K)^-1 X^T rhs and X^T rhs = XtW - XtQ/mu + K u, so
    X^T P = X^T rhs - K s = s, and a solve costs the one product X (u - s)
    plus about 4 N^2 C flops.

    Both sides solve with the factor through LAPACK ``potrs``, looked up once
    here and called directly: the routine and arguments of ``cho_solve``
    without its per-call validation, so the solutions are the same bits.
    """
    features = gram_side(X) == "features"
    gram = X @ X.T if features else X.T @ X
    try:
        factor = cho_factor(np.eye(gram.shape[0]) + gram)
    except np.linalg.LinAlgError as exc:
        # I + X X^T is positive definite in exact arithmetic, but once |X|^2
        # nears 1/eps rounding swallows the identity and can leave it singular.
        raise ValueError(
            f"factorization of the regularized Gram matrix failed ({exc}): the features are "
            "too large for the Gram factorization in double precision; rescale them, "
            "for example with --standardize"
        ) from exc
    c, lower = factor
    potrs, = get_lapack_funcs(("potrs",), (c,))

    # A non-finite right-hand side passes through unchecked, so that train
    # can name the block that produced it.
    def potrs_solve(rhs):
        x, info = potrs(c, rhs, lower=lower)
        if info != 0:
            raise ValueError(f"illegal value in {-info}th argument of internal potrs")
        return x

    if features:
        def solve(W, Q, XtW, XtQ, mu, u):
            P = potrs_solve(W - Q / mu + X @ u)
            return P, X.T @ P
        return solve

    def solve(W, Q, XtW, XtQ, mu, u):
        s = potrs_solve(XtW - XtQ / mu + gram @ u)
        return W - Q / mu + X @ (u - s), s
    return solve


def solve_w_subproblem(P: np.ndarray, Q: np.ndarray, mu: float) -> np.ndarray:
    """Minimize the W block of C separate columns exactly, row by row, given
    the split copy P, its multiplier Q and the penalty mu.

    Each row solves min_w 0.5 * (sum_c |w_c|)^2 + mu/2 * sum_c (w_c - v_c)^2
    with v = P + Q/mu, the proximal map of half a squared l1 norm.  The
    minimizer soft-thresholds v at tau_k = (sum of the k largest |v|) / (mu + k),
    where k is the largest count whose k-th largest |v| exceeds tau_k
    (Kowalski 2009; Zhou, Jin and Hoi 2010).  That threshold makes
    sum_c |w_c| = mu * tau_k, so w_c = v_c - sign(v_c) * sum_c |w_c| / mu
    wherever w_c is nonzero, the row's optimality condition.  An all-zero row
    of v gives a zero row.  The one threshold per row couples the columns.

    :func:`train` does not call it: for its one column of multiplicity C the
    prox is the shrink v * mu / (mu + C), which equals this prox of the
    column repeated C times.
    """
    V = P + Q / mu
    magnitude = np.abs(V)
    ranked = np.sort(magnitude, axis=1)[:, ::-1]
    positions = np.arange(1, V.shape[1] + 1)
    thresholds = np.cumsum(ranked, axis=1) / (mu + positions)
    support = np.where(ranked > thresholds, positions, 0).max(axis=1)
    tau = np.take_along_axis(thresholds, np.maximum(support - 1, 0)[:, None], axis=1)
    return np.sign(V) * np.maximum(magnitude - tau, 0.0)


def update_b(y: np.ndarray, E: np.ndarray, XtP: np.ndarray, Z_over_mu: np.ndarray) -> np.ndarray:
    """Closed-form bias update: per-component mean of Y - E - X^T P - Z / mu,
    given the labels y, the slack block E, XtP = X^T P and Z_over_mu = Z / mu."""
    residual = y[:, None] - E - XtP - Z_over_mu
    # The arithmetic of mean(axis=0), without its dispatch.
    return residual.sum(axis=0) / residual.shape[0]


def _positive_branch_minimizer(a: np.ndarray, k: float, p: float,
                               start: np.ndarray) -> tuple[np.ndarray, int]:
    """Solve min_{t >= 0} k * t^p + 0.5 * (t - a)^2 for positive targets ``a``
    by Newton's method on the increasing derivative f(t) = k p t^(p-1) + t - a,
    from ``start`` clipped into [lo, hi]; a start of ``a`` clips to hi.

    The root lies in (0, hi] with hi = min(a, (a/(kp))^(1/(p-1))), since
    f(hi) >= 0.  f is concave for 1 < p < 2 and convex for p > 2, so every
    Newton step ends on one side of the root: at or below it for p < 2, at
    or above it for p > 2.  The iterates approach the root monotonically
    from that side, and a start on the other side crosses over in one step.
    No bracket is needed; one clamp per step catches rounding, at lo for
    p < 2 and at hi for p > 2.

    For p < 2, lo is the Newton step from hi.  The Newton map falls above the
    root and rises below it, so no step from [lo, hi] ends below lo, and the
    iterates from a warm start never trail those from hi.  Clipping the start
    to lo keeps Newton off t = 0, where f' is infinite and the step is 0/0,
    and off tiny starts whose steps fall below the tolerance far from the root.
    For p > 2, lo = 0, and the 0/0 step at t = 0 clamps to hi.

    Iteration stops once no entry moves by more than ``GENERAL_P_TOL`` plus a
    few units in the last place of t (for large t the iterates can alternate
    between two neighbouring floats further apart than the tolerance), or
    after 200 steps.  Returns the minimizers and the step count.
    """
    slope = k * p
    resolution = 4.0 * np.finfo(float).eps

    def newton(t):
        # t - f / f'(t) with f'(t) = (p - 1) k p t^(p-2) + 1, reusing t^(p-1);
        # t / (t f'(t)) lies in (0, 1], so no a * t forms to overflow.
        power_term = slope * t ** (p - 1.0)
        return t - (power_term + t - a) * (t / ((p - 1.0) * power_term + t))

    # Near p = 1 the power in hi overflows to inf, which the minimum with a
    # absorbs, or underflows to 0, where the root is below the smallest float.
    with np.errstate(over="ignore", invalid="ignore"):
        hi = np.minimum(a, (a / slope) ** (1.0 / (p - 1.0)))
        if p < 2.0:
            lo = np.fmax(newton(hi), 0.0)  # fmax drops the NaN of hi = 0
            clamp, bound = np.fmax, lo
        else:
            lo = 0.0
            clamp, bound = np.fmin, hi
        t = np.clip(start, lo, hi)
        for steps in range(1, 201):
            step = clamp(newton(t), bound)
            settled = np.abs(step - t) <= GENERAL_P_TOL + resolution * t
            t = step
            if settled.all():
                break
    return t, steps


def _three_halves_minimizer(a: np.ndarray, k: float) -> np.ndarray:
    """Solve min_{t >= 0} k * t^1.5 + 0.5 * (t - a)^2 for positive targets
    ``a`` in closed form.

    The stationary condition 1.5 k sqrt(t) + t - a = 0 is the quadratic
    s^2 + 2h s - a = 0 in s = sqrt(t), with h = 0.75 k.  Its positive root
    s = a / (h + sqrt(h^2 + a)) has no cancellation, and t = s^2.  For h > 1
    the same root is written with r = a / h as s = r / (1 + sqrt(1 + r/h)),
    so that h^2 cannot overflow.
    """
    h = 0.75 * k
    if h <= 1.0:
        s = a / (h + np.sqrt(h * h + a))
    else:
        r = a / h
        s = r / (1.0 + np.sqrt(1.0 + r / h))
    return s * s


def update_E(S: np.ndarray, Y: np.ndarray, lam: float, mu: float, p: float,
             E_prev: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """Elementwise minimizer of (lam/mu) * (Y*E)_+^p + 0.5 * (E - S)^2, and the
    number of Newton steps it took (0 at p = 1, 1.5 and 2).

    p = 1 soft-thresholds the entries whose target violates the margin,
    p = 2 shrinks them by 1 / (1 + 2 lam/mu), p = 1.5 solves the active
    branch by :func:`_three_halves_minimizer` in closed form, and any other
    p >= 1 solves it by :func:`_positive_branch_minimizer` to
    ``GENERAL_P_TOL``, starting from Y * ``E_prev``, the previous E block,
    when it is given, and from the target otherwise.
    The active branch needs no comparison with the boundary t = 0: for p >= 1
    the scalar problem is convex with slope -a < 0 at t = 0, so its
    stationary point beats 0.5 a^2.
    Entries with Y*S <= 0 keep their target S.  Closed forms run on the whole
    block, at p = 1.5 with inactive targets set to 1 (no root of a negative, no
    0/0 when lam/mu underflows).  Only Newton gathers the active entries: its
    step from t = 0 is 0/0, and inactive targets would enter its stop test.
    """
    if p < 1:
        raise ValueError("loss power p must be at least 1")
    k = lam / mu
    target = Y * S
    active = target > 0.0
    steps = 0
    if p == 1:
        value = Y * np.maximum(target - k, 0.0)
    elif p == 2:
        value = S / (1.0 + 2.0 * k)
    elif p == 1.5:
        value = Y * _three_halves_minimizer(np.where(active, target, 1.0), k)
    else:
        value = np.zeros_like(S)
        if active.any():
            start = target if E_prev is None else Y * E_prev
            t, steps = _positive_branch_minimizer(target[active], k, p, start[active])
            value[active] = Y[active] * t
    return np.where(active, value, S), steps


def update_P(solve_gram, W: np.ndarray, Q: np.ndarray, XtW: np.ndarray, XtQ: np.ndarray,
             mu: float, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form P update: solve (I + X X^T) P = W - Q/mu + X u, where the
    caller passes u = Y - 1 b^T - Z/mu - E, and return P and X^T P.  Takes
    the ``solve_gram`` that :func:`factor_gram` returned, and XtW = X^T W and
    XtQ = X^T Q, which only the instances side reads.  Costs two products
    with X on the features side and one on the instances side, where X^T P
    is the solution of the N x N system (see :func:`factor_gram`)."""
    return solve_gram(W, Q, XtW, XtQ, mu, u)


def constraint_gaps(W: np.ndarray, b: np.ndarray, E: np.ndarray, P: np.ndarray,
                    XtP: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Violations of the two constraints, P - W and E - Y + X^T P + 1 b^T,
    given XtP = X^T P."""
    return P - W, E - y[:, None] + XtP + b[None, :]


def update_multipliers(Z: np.ndarray, Q: np.ndarray, mu: float, split_gap: np.ndarray,
                       slack_gap: np.ndarray, rho: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Ascent on both multipliers with step mu along the constraint gaps of
    the new iterate, then geometric penalty growth capped at MU_CAP; returns
    the new Z, Q and mu."""
    return Z + mu * slack_gap, Q + mu * split_gap, min(rho * mu, MU_CAP)


def primal_objective(W: np.ndarray, b: np.ndarray, XtW: np.ndarray, y: np.ndarray,
                     lam: float, p: float, multiplicity: int = 1) -> float:
    """The quantity being minimized: diversity penalty plus weighted powered
    hinge loss over all components and instances, given XtW = X^T W and the
    labels y.  Every column of (W, b) counts ``multiplicity`` times (once by
    default): 0.5 * sum_j (m sum_c |W[j,c]|)^2 + lam * m sum_c loss_c.

    The penalty is that of :func:`xrm.diversity.exclusivity_regularizer`
    without its finiteness check: :func:`train` calls this only on finite
    blocks."""
    margins = 1.0 - (XtW + b[None, :]) * y[:, None]
    loss = float((np.maximum(margins, 0.0) ** p * multiplicity).sum())
    return _l12_penalty(W * multiplicity) + lam * loss


def constraint_residuals(split_gap: np.ndarray, slack_gap: np.ndarray,
                         multiplicity: int = 1) -> tuple[float, float]:
    """Frobenius norms of the two gaps from :func:`constraint_gaps`, with
    every column counted ``multiplicity`` times: sqrt(m sum_c ||gap_c||^2),
    with the arithmetic of ``np.linalg.norm``."""
    root = math.sqrt(multiplicity)
    split, slack = (split_gap * root).ravel(), (slack_gap * root).ravel()
    return math.sqrt(split.dot(split)), math.sqrt(slack.dot(slack))


def _lap(block_ms: dict[str, float], block: str, since: float) -> float:
    """Add the milliseconds since ``since`` to ``block_ms[block]``; return now."""
    now = time.perf_counter()
    block_ms[block] += (now - since) * 1e3
    return now


def _first_non_finite(blocks) -> str | None:
    """The name of the first ``(name, *arrays)`` entry with a non-finite
    value, or None.  :func:`train` scans its blocks only when a scalar that
    covers them is non-finite, to name the block that went non-finite."""
    for name, *arrays in blocks:
        if not all(np.isfinite(array).all() for array in arrays):
            return name
    return None


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
    traces, the time spent per block, and the final diversity structure.
    Raises :class:`DivergenceError` naming the first block that went
    non-finite.
    """
    started = time.perf_counter()
    C = config.components
    Y = data.y[:, None]
    report = TrainReport(stop_reason="max_iters", gram_side=gram_side(data.X))
    solve_gram = factor_gram(data.X)
    _lap(report.block_ms, "factorization", started)
    M, N = data.X.shape
    # The start: Q all ones, every other block zero, mu = MU_INIT.  W and b
    # are written before any block reads them.
    P, Q, mu = np.zeros((M, 1)), np.ones((M, 1)), MU_INIT
    E, Z = np.zeros((N, 1)), np.zeros((N, 1))
    # X^T P, X^T Q and X^T W follow P, Q and W by the same affine updates.
    XtP = np.zeros_like(E)  # X^T P for the starting P = 0
    XtQ = data.X.T @ Q
    previous_objective = None
    for iteration in range(1, config.outer_max_iters + 1):
        tick = time.perf_counter()
        # The row prox of one column of multiplicity C is the shrink
        # (P + Q/mu) * mu / (mu + C).
        shrink = mu / (mu + C)
        W = P * shrink + Q / (mu + C)
        XtW = XtP * shrink + XtQ / (mu + C)
        tick = _lap(report.block_ms, "W", tick)
        Z_over_mu = Z / mu
        b = update_b(data.y, E, XtP, Z_over_mu)
        tick = _lap(report.block_ms, "b", tick)
        # The E target Y - X^T P - 1 b^T - Z/mu and the P operand
        # u = Y - 1 b^T - Z/mu - E are temporaries and the gaps are dropped
        # after use, so only the carried N-vectors outlive their block.
        E, e_steps = update_E(Y - XtP - b[None, :] - Z_over_mu, Y, config.lam, mu,
                              config.loss_power, E)
        report.e_inner_steps.append(e_steps)
        tick = _lap(report.block_ms, "E", tick)
        P, XtP = update_P(solve_gram, W, Q, XtW, XtQ, mu, Y - b[None, :] - Z_over_mu - E)
        tick = _lap(report.block_ms, "P", tick)
        split_gap, slack_gap = constraint_gaps(W, b, E, P, XtP, data.y)
        XtQ = XtQ + mu * (XtP - XtW)
        Z, Q, mu = update_multipliers(Z, Q, mu, split_gap, slack_gap, config.rho)
        residuals = constraint_residuals(split_gap, slack_gap, C)
        del split_gap, slack_gap
        z_sup, q_sup = float(np.abs(Z).max()), float(np.abs(Q).max())
        tick = _lap(report.block_ms, "multipliers", tick)

        # Each scalar is non-finite when an array it covers is: the split
        # residual covers P and W, the slack residual E, b and X^T P, the
        # sups Z and Q, and the sum of X^T Q covers X^T Q and, through its
        # update, X^T W.  NaN and infinities of either sign stay non-finite
        # in the total, so the blocks are scanned only when it is.  Finite
        # blocks whose total overflows scan clean, and the fit goes on.
        block = None
        if not math.isfinite(sum(residuals) + z_sup + q_sup + float(XtQ.sum())):
            block = _first_non_finite((("W", W, XtW), ("b", b), ("E", E), ("P", P, XtP),
                                       ("Z", Z), ("Q", Q, XtQ)))
        if block is None:
            objective = primal_objective(W, b, XtW, data.y, config.lam, config.loss_power, C)
            _lap(report.block_ms, "objective", tick)
            if not np.isfinite(objective):
                block = "objective"
        if block is not None:
            raise DivergenceError(
                f"non-finite solver state at iteration {iteration} in block {block}",
                iteration, block)
        report.objective_trace.append(objective)
        report.residual_trace.append(residuals)
        report.multiplier_sup_trace.append(max(z_sup, q_sup))

        if previous_objective is not None and abs(objective - previous_objective) < config.outer_tol:
            report.stop_reason = "objective_change"
            break
        previous_objective = objective

    report.iterations = iteration
    report.wall_time = time.perf_counter() - started
    W = np.repeat(W, C, axis=1)
    report.diversity = diversity_report(W)
    model = EnsembleModel(W=W, b=np.repeat(b, C), lam=config.lam, p=config.loss_power)
    return model, report

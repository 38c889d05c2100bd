"""Augmented Lagrangian trainer for exclusivity-regularized linear ensembles.

The training problem couples a powered hinge loss over C linear components
with the row-wise l1,2 penalty from :mod:`xrm.diversity`:

    min_{W, b}  0.5 * sum_j (sum_c |W[j,c]|)^2
                + lam * sum_c sum_i max(0, 1 - (x_i . w_c + b_c) y_i)^p

Two auxiliary blocks make the objective separable: P, a split copy of W, and
E, the per-instance slack matrix with e[i,c] = y_i - (x_i . w_c + b_c).  Each
outer iteration updates W, b, E and P in turn, each exactly, ascends the
multipliers Q and Z and grows the penalty mu geometrically, and stops on the
change of the primal objective at the current (W, b).

The default start (Q all ones, every other block zero) is symmetric under
column permutations and every block update is column-equivariant, so the C
columns stay identical.  :func:`train` therefore carries one column, as 1-D
vectors with a scalar bias, counts it ``multiplicity`` = C times where the
columns are summed, and repeats it C times at the end; its W prox is the
shrink W = (P + Q/mu) * mu / (mu + C).  The block functions broadcast over
the layout their caller shapes: y and a scalar b, or N x C blocks with
y[:, None] and b[None, :], with the same bits.

With W a shrink, the W, Q and P updates are affine, so :func:`train`
updates X^T P, X^T Q and X^T W by the same formulas instead of multiplying
by X again.  To cut per-call overhead, which dominates on small vectors,
with the bits of the plain expressions: blocks that take the same op share
one stacked vector, N rows first (PX = [X^T P; P], WX = [X^T W; W],
QZ = [X^T Q; Q; Z] and the gaps G = [X^T P - X^T W; P - W; slack gap]);
expressions of three or more operands finish in place, in the plain
order of operations; and the scalar operands of vector ops are read-only
0-d float64 arrays, which numpy does not convert on each call.  Every
product is ``X.dot(v)`` or ``Xt.dot(v)``, which dispatches faster than
``@``, with Xt = X.T taken once; a dense and a CSC X multiply alike, so only
:func:`factor_gram` looks at how X is stored.

The P step takes two functions: :func:`factor_gram` factors I plus the Gram
matrix on the smaller side once per fit and returns the Cholesky factor with
X and Xt, and :func:`update_P` solves with them each iteration, writing
[X^T P; P] into the caller's buffer.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.linalg.blas import dtrsv
from scipy.linalg.lapack import dpotrf, dpotrs

from .datasets import _dense
from .diversity import DiversityReport, _l12_penalty, diversity_report
from .model import EnsembleModel, _power_in_place

MU_INIT = 1.0  # starting penalty mu
MU_CAP = 1e10  # mu stops growing here, so late-iteration arithmetic stays well conditioned
GENERAL_P_TOL = 1e-10  # step tolerance of the slack solver at p not in {1, 1.5, 2}
TIMED_BLOCKS = ("W", "b", "E", "P", "multipliers", "objective", "factorization")


def _read_only_scalars(values: np.ndarray) -> list[np.ndarray]:
    """Read-only 0-d views of the entries of the float64 vector ``values``:
    scalar operands that vector ops use without converting them, and that a
    caller holding ``values`` can rewrite in place."""
    view = values.view()
    view.setflags(write=False)
    return [view[i, ...] for i in range(values.size)]


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
    """Training hyperparameters and stopping controls: ``lam`` weighs the
    loss against the penalty, ``components`` is C, ``loss_power`` is p >= 1,
    and mu starts at ``MU_INIT``, grows by ``rho`` and stops at ``MU_CAP``."""

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
        # bool is a subclass of int; numpy integers are accepted.
        for name in ("components", "outer_max_iters"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.loss_power < 1:
            raise ValueError("loss_power must be at least 1")
        if self.rho <= 1:
            raise ValueError("rho must exceed 1")
        if self.outer_tol <= 0:
            raise ValueError("outer_tol must be positive")

    def to_dict(self) -> dict:
        """The fields in order, with ``lam`` under the key ``lambda``."""
        return {"lambda" if name == "lam" else name: value for name, value in asdict(self).items()}


@dataclass
class TrainReport:
    """Per-iteration traces and summary facts from one training run.  The keys
    of its JSON form (:meth:`to_dict`) are ``schema_version`` and its fields."""

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
            **asdict(self),
            "residual_trace": [list(pair) for pair in self.residual_trace],
            "diversity": self.diversity.to_dict() if self.diversity is not None else None,
        }


def gram_side(X: np.ndarray) -> str:
    """The side of X (M x N) that :func:`factor_gram` factors: ``"features"``
    (the M x M matrix I + X X^T) when M <= N, else ``"instances"`` (the
    N x N matrix I + X^T X)."""
    M, N = X.shape
    return "features" if M <= N else "instances"


def _gram_failure(cause: str) -> ValueError:
    return ValueError(
        f"factorization of the regularized Gram matrix failed ({cause}): the features are "
        "too large for the Gram factorization in double precision; rescale them, "
        "for example with --standardize")


def factor_gram(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Factor the regularized Gram matrix of X (M x N) once per fit and
    return ``(factor, X, Xt)``, the operands of :func:`update_P`: the upper
    Cholesky factor U of I + X X^T (M x M) on the features side and of
    I + X^T X (N x N) on the instances side (:func:`gram_side`), X itself,
    and Xt = X.T on the features side, None on the instances side, whose
    solve reads no X^T.  LAPACK ``potrf`` factors without ``cho_factor``'s
    per-call checks, with its bits.  Features whose Gram overflows or is
    singular in floating point raise ValueError with the advice to rescale
    them.
    """
    features = gram_side(X) == "features"
    dense = _dense(X, "the Gram factorization")
    with np.errstate(over="ignore", invalid="ignore"):  # reported by the check below
        gram = dense @ dense.T if features else dense.T @ dense
        regularized = np.eye(gram.shape[0]) + gram
    del dense, gram
    if not np.isfinite(regularized).all():
        raise _gram_failure("its entries overflow")
    factor, info = dpotrf(regularized, lower=False, overwrite_a=False, clean=False)
    if info > 0:
        # I + X X^T is positive definite in exact arithmetic, but once |X|^2
        # nears 1/eps rounding swallows the identity and can leave it singular.
        raise _gram_failure(f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrf")
    # Xt once per fit: each X.T of a CSC X builds a new CSR array.
    return factor, X, X.T if features else None


def solve_w_subproblem(P: np.ndarray, Q: np.ndarray, mu: float) -> np.ndarray:
    """Minimize the W block of C separate columns exactly, row by row, given
    the split copy P, its multiplier Q and the penalty mu.

    Each row solves min_w 0.5 * (sum_c |w_c|)^2 + mu/2 * sum_c (w_c - v_c)^2
    with v = P + Q/mu by soft-thresholding v at
    tau_k = (sum of the k largest |v|) / (mu + k), where k is the largest
    count whose k-th largest |v| exceeds tau_k (Kowalski 2009; Zhou, Jin and
    Hoi 2010).  An all-zero row of v gives a zero row.  :func:`train` uses
    the shrink v * mu / (mu + C), this prox of one column repeated C times.
    """
    V = P + Q / mu
    magnitude = np.abs(V)
    ranked = np.sort(magnitude, axis=1)[:, ::-1]
    positions = np.arange(1, V.shape[1] + 1)
    thresholds = np.cumsum(ranked, axis=1) / (mu + positions)
    support = np.where(ranked > thresholds, positions, 0).max(axis=1)
    tau = np.take_along_axis(thresholds, np.maximum(support - 1, 0)[:, None], axis=1)
    return np.sign(V) * np.maximum(magnitude - tau, 0.0)


def update_b(Y: np.ndarray, E: np.ndarray, XtP: np.ndarray, Z_over_mu: np.ndarray):
    """Closed-form bias update: the mean over instances of Y - E - X^T P - Z/mu,
    Y shaped by the caller; a scalar for N-vectors, one per column for N x C.
    Summed row-major whatever E's layout: the bits of ``np.mean(..., axis=0)``
    on row-major blocks, and permuting the inputs' columns permutes b alike."""
    total = np.subtract(Y, E, order="C")
    total -= XtP
    total -= Z_over_mu
    # The arithmetic of mean(axis=0), without its dispatch.
    return np.add.reduce(total) / len(total)


def _positive_branch_minimizer(a: np.ndarray, k: float, p: float) -> tuple[np.ndarray, int]:
    """Solve min_{t >= 0} k * t^p + 0.5 * (t - a)^2 for positive targets ``a``
    by Newton's method on the increasing derivative f(t) = k p t^(p-1) + t - a.

    The root lies in (0, hi] with hi = min(a, (a/(kp))^(1/(p-1))).  f is
    concave for 1 < p < 2 and convex for p > 2, so the Newton iterates
    approach the root monotonically from one side and no bracket is needed:
    Newton starts at a bound on that side and clamps each step to it, hi for
    p > 2 and max(newton(hi), 0) for p < 2.  Stops once no entry moves by
    more than ``GENERAL_P_TOL`` plus a few ulps of t, or after 200 steps.
    Returns the minimizers and the step count.
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
            clamp, bound = np.fmax, np.fmax(newton(hi), 0.0)  # fmax drops the NaN of hi = 0
        else:
            clamp, bound = np.fmin, hi
        t = bound
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
    s^2 + 2h s - a = 0 in s = sqrt(t), with h = 0.75 k, whose positive root
    s = a / (h + sqrt(h^2 + a)) has no cancellation; t = s^2.  For h > 1 it
    is written s = r / (1 + sqrt(1 + r/h)) with r = a / h, so that h^2
    cannot overflow.
    """
    h = 0.75 * k
    if h <= 1.0:
        s = a / (h + np.sqrt(h * h + a))
    else:
        r = a / h
        s = r / (1.0 + np.sqrt(1.0 + r / h))
    return s * s


def update_E(S: np.ndarray, Y: np.ndarray, lam: float, mu: float,
             p: float) -> tuple[np.ndarray, int]:
    """Elementwise minimizer of (lam/mu) * (Y*E)_+^p + 0.5 * (E - S)^2, and the
    number of Newton steps it took (0 at p = 1, 1.5 and 2).

    Entries with Y*S <= 0 keep their target S.  On the others p = 1
    soft-thresholds, p = 2 shrinks by 1 / (1 + 2 lam/mu), p = 1.5 solves by
    :func:`_three_halves_minimizer` and any other p by
    :func:`_positive_branch_minimizer`; the result depends on the target Y*S
    alone.  Closed forms run on the whole block, at p = 1.5 with inactive
    targets set to 1 so that none is negative; Newton gathers the active
    entries, as its step from t = 0 is 0/0.
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
            t, steps = _positive_branch_minimizer(target[active], k, p)
            value[active] = Y[active] * t
    np.putmask(value, ~active, S)
    return value, steps


def update_P(gram: tuple, WX: np.ndarray, over_mu: np.ndarray, u: np.ndarray,
             out: np.ndarray) -> np.ndarray:
    """Closed-form P update: solve (I + X X^T) P = W - Q/mu + X u, where the
    caller passes u = Y - b - Z/mu - E, write the stacked [X^T P; P] into
    ``out`` and return ``out``.  Takes the ``gram`` that :func:`factor_gram`
    returned, the stacked WX = [X^T W; W] and ``over_mu`` = [X^T Q/mu; Q/mu];
    ``u`` has N rows, and blocks are 1-D or all C columns.

    The features side (M <= N) solves by LAPACK ``potrs`` in place in
    ``out``, with the bits of ``cho_solve`` on the same factor, then forms
    X^T P from P.
    The instances side (M > N) applies the matrix inversion lemma:
    X^T P = u + z with z = (I + X^T X)^-1 (X^T W - X^T Q/mu - u) and
    P = W - Q/mu - X z, solving for z one column at a time by two BLAS
    ``trsv`` calls, which skip the packing that ``potrs`` does, so a
    C-column block has the bits of its columns solved alone.  A non-finite
    right-hand side passes through unchecked, so that :func:`train` can name
    the block that produced it.
    """
    factor, X, Xt = gram
    N = len(u)
    if Xt is not None:
        P = np.subtract(WX[N:], over_mu[N:], out=out[N:])
        P += X.dot(u)
        solution, info = dpotrs(factor, P, lower=False, overwrite_b=True)
        if info != 0:
            raise ValueError(f"illegal value in {-info}th argument of internal potrs")
        if solution is not P:
            P[...] = solution
        out[:N] = Xt.dot(P)
        return out
    z = np.subtract(WX[:N], over_mu[:N], out=out[:N])
    z -= u
    # z = (U^T U)^-1 z with the factor U, one column at a time
    for column in z.T if z.ndim == 2 else (z,):
        solution = dtrsv(factor, dtrsv(factor, column, trans=1, overwrite_x=1), overwrite_x=1)
        if solution is not column:
            column[...] = solution
    P = np.subtract(WX[N:], over_mu[N:], out=out[N:])
    P -= X.dot(z)
    z += u
    return out


def constraint_gaps(PX: np.ndarray, WX: np.ndarray, E: np.ndarray, Y: np.ndarray,
                    b: np.ndarray | float, out: np.ndarray) -> np.ndarray:
    """Write the violations of the two constraints into ``out``, behind
    X^T P - X^T W: [X^T P - X^T W; P - W; E - Y + X^T P + b], from the stacks
    PX = [X^T P; P] and WX = [X^T W; W] and the bias b and labels Y shaped by
    the caller to broadcast against E: a scalar and y, or a 1 x C row and an
    N x 1 column.  Returns ``out``."""
    rows = len(PX)
    np.subtract(PX, WX, out=out[:rows])
    slack = np.subtract(E, Y, out=out[rows:])
    slack += PX[:len(E)]
    slack += b
    return out


def update_multipliers(multipliers: np.ndarray, mu, gaps: np.ndarray,
                       rho: float) -> tuple[np.ndarray, float]:
    """Ascent with step mu along the constraint gaps of the new iterate, on
    any stack of multipliers and the gaps in the same layout, then geometric
    penalty growth capped at MU_CAP; returns the new multipliers and mu.
    ``mu`` may be a 0-d array, and the new mu is a float."""
    ascended = gaps * mu
    ascended += multipliers
    return ascended, min(rho * float(mu), MU_CAP)


def primal_objective(W: np.ndarray, b: np.ndarray | float, XtW: np.ndarray, Y: np.ndarray,
                     lam: float, p: float, multiplicity: int = 1) -> float:
    """The quantity being minimized: diversity penalty plus weighted powered
    hinge loss over all components and instances, given XtW = X^T W and b and
    Y shaped as for :func:`constraint_gaps`.  Every column of (W, b), one
    M-vector or an M x C block, counts ``multiplicity`` times (once by
    default): 0.5 * sum_j (m sum_c |W[j,c]|)^2 + lam * m sum_c loss_c.

    The penalty skips the finiteness check of
    :func:`xrm.diversity.exclusivity_regularizer`; on a 1-D W, one column, it
    is 0.5 * sum((m W)^2), with the bits of :func:`xrm.diversity._l12_penalty`
    on the M x 1 view."""
    margins = XtW + b
    margins *= Y
    np.subtract(1.0, margins, out=margins)
    np.maximum(margins, 0.0, out=margins)
    _power_in_place(margins, p)
    margins *= multiplicity
    loss = float(np.add.reduce(margins, axis=None))
    if W.ndim == 1:  # one column: _l12_penalty of the M x 1 view, without its row sums
        return float(0.5 * np.add.reduce(np.square(W * multiplicity))) + lam * loss
    return _l12_penalty(W * multiplicity) + lam * loss


def constraint_residuals(gaps: np.ndarray, split_rows: int,
                         multiplicity: int = 1) -> tuple[float, float]:
    """Frobenius norms of the split and slack gaps, stacked as in the last
    rows of :func:`constraint_gaps`, the split gap in the first
    ``split_rows`` rows, with every column counted ``multiplicity`` times:
    sqrt(m sum_c ||gap_c||^2), with the arithmetic of ``np.linalg.norm``."""
    scaled = gaps * math.sqrt(multiplicity)
    split, slack = scaled[:split_rows], scaled[split_rows:]
    if scaled.ndim > 1:
        split, slack = split.ravel(), slack.ravel()
    return math.sqrt(split.dot(split)), math.sqrt(slack.dot(slack))


def _first_non_finite(blocks) -> str | None:
    """The name of the first ``(name, array)`` entry with a non-finite
    value, or None.  :func:`train` scans its blocks only when a scalar that
    covers them is non-finite, to name the block that went non-finite."""
    for name, array in blocks:
        if not np.isfinite(array).all():
            return name
    return None


def train(data, config: SolverConfig = SolverConfig()) -> tuple[EnsembleModel, TrainReport]:
    """Run the outer loop and return the model, which repeats the carried
    column C times, and the report, whose traces are the C-column problem's.
    Stops when the objective changes by less than ``outer_tol`` between
    iterations (``"objective_change"``) or at ``outer_max_iters``
    (``"max_iters"``); raises :class:`DivergenceError` naming the first
    block that went non-finite."""
    clock = time.perf_counter
    started = clock()
    C, lam, power, rho = config.components, config.lam, config.loss_power, config.rho
    X, y = data.X, data.y
    report = TrainReport(stop_reason="max_iters", gram_side=gram_side(X))
    gram = factor_gram(X)
    factorized = clock()
    M, N = X.shape
    # The stacked iterate PX = [X^T P; P] and multipliers QZ = [X^T Q; Q; Z];
    # the gaps G = [X^T P - X^T W; P - W; slack gap] and WX = [X^T W; W]
    # share their layout, so one op updates blocks that move in lockstep.
    # The start: Q all ones, every other block zero, mu = MU_INIT.  W and b
    # are written before any block reads them.
    PX, QZ, E, mu = np.zeros(N + M), np.zeros(2 * N + M), np.zeros(N), MU_INIT
    QZ[N:N + M] = 1.0
    QZ[:N] = X.T.dot(QZ[N:N + M])
    G = np.empty(2 * N + M)  # written whole by constraint_gaps each iteration
    # The scalar operands of vector ops as read-only 0-d arrays: C for the
    # fit, and mu, mu + C, the shrink and b, which each iteration writes
    # into ``scalars``.
    [C_op] = _read_only_scalars(np.array([C], dtype=float))
    scalars = np.empty(4)
    mu_op, mu_C_op, shrink_op, b_op = _read_only_scalars(scalars)
    previous_objective = None
    # Seconds per loop block, summed here and written to the report once.
    s_W = s_b = s_E = s_P = s_mult = s_obj = 0.0
    for iteration in range(1, config.outer_max_iters + 1):
        t_0 = clock()
        # The row prox of one column of multiplicity C is the shrink
        # (P + Q/mu) * mu / (mu + C), and X^T W follows by the same formula.
        mu_C = mu + C
        scalars[0], scalars[1], scalars[2] = mu, mu_C, mu / mu_C
        WX = PX * shrink_op
        WX += QZ[:N + M] / mu_C_op
        t_W = clock()
        over_mu = QZ / mu_op  # [X^T Q/mu; Q/mu] for the P solve, and Z/mu
        Z_over_mu = over_mu[-N:]
        scalars[3] = b = update_b(y, E, PX[:N], Z_over_mu)
        t_b = clock()
        # The E target y - X^T P - b - Z/mu and the P operand
        # u = y - b - Z/mu - E, each one new vector finished in place.
        target = y - PX[:N]
        target -= b_op
        target -= Z_over_mu
        E, e_steps = update_E(target, y, lam, mu, power)
        report.e_inner_steps.append(e_steps)
        t_E = clock()
        u = y - b_op
        u -= Z_over_mu
        u -= E
        # Nothing reads the old X^T P and P past the E target, so the solve
        # writes the new ones over them.
        PX = update_P(gram, WX, over_mu[:-N], u, PX)
        t_P = clock()
        constraint_gaps(PX, WX, E, y, b_op, G)
        QZ, mu = update_multipliers(QZ, mu_op, G, rho)
        residuals = constraint_residuals(G[N:], M, C)
        sup = float(np.maximum.reduce(np.abs(QZ[N:])))
        t_mult = clock()

        # Each scalar is non-finite when an array it covers is: the split
        # residual covers P and W, the slack residual E, b and X^T P, the
        # sup Z and Q, and the sum of X^T Q covers X^T Q and, through its
        # update, X^T W.  NaN and infinities of either sign stay non-finite
        # in the total, so the blocks are scanned only when it is.  Finite
        # blocks whose total overflows scan clean, and the fit goes on.
        block = None
        if not math.isfinite(sum(residuals) + sup + float(np.add.reduce(QZ[:N]))):
            block = _first_non_finite((("W", WX), ("b", b), ("E", E), ("P", PX),
                                       ("Z", QZ[N + M:]), ("Q", QZ[:N + M])))
        if block is None:
            objective = primal_objective(WX[N:], b_op, WX[:N], y, lam, power, C_op)
            if not math.isfinite(objective):
                block = "objective"
        if block is not None:
            raise DivergenceError(
                f"non-finite solver state at iteration {iteration} in block {block}",
                iteration, block)
        s_W, s_b, s_E = s_W + (t_W - t_0), s_b + (t_b - t_W), s_E + (t_E - t_b)
        s_P, s_mult, s_obj = s_P + (t_P - t_E), s_mult + (t_mult - t_P), s_obj + (clock() - t_mult)
        report.objective_trace.append(objective)
        report.residual_trace.append(residuals)
        report.multiplier_sup_trace.append(sup)

        if previous_objective is not None and abs(objective - previous_objective) < config.outer_tol:
            report.stop_reason = "objective_change"
            break
        previous_objective = objective

    report.iterations = iteration
    seconds = (s_W, s_b, s_E, s_P, s_mult, s_obj, factorized - started)
    report.block_ms = {block: 1e3 * spent for block, spent in zip(TIMED_BLOCKS, seconds)}
    report.wall_time = clock() - started
    W = np.repeat(WX[N:, None], C, axis=1)
    report.diversity = diversity_report(W)
    model = EnsembleModel(W=W, b=np.repeat(b, C), lam=lam, p=power)
    return model, report

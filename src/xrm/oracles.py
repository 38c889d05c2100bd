"""Independent reference solvers used by tests to cross-check the trainer.

Nothing here shares formulas with the solver module: the joint objective is
re-derived locally, the scalar slack problem is brute-forced on a grid, and
the per-row weight problem is minimized by coordinate-wise golden-section
search.  These are deliberately slow and simple.  The joint objective keeps
``hinge**p`` at every p on purpose, where the solver multiplies the hinge
by its square root at p = 1.5, so the two agree only if both power the hinge
correctly.
"""

from __future__ import annotations

import math

import numpy as np

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
_STEP_SIZE = 1.0  # initial subgradient step; the schedule is _STEP_SIZE / sqrt(t)
_GRID_LO, _GRID_HI, _GRID_STEP = -10.0, 10.0, 1e-4  # the scalar brute-force grid
_ROW_SWEEPS = 500  # coordinate-descent sweeps of the per-row weight reference


def _hinge(W, b, data) -> np.ndarray:
    """max(0, 1 - (x_i . w_c + b_c) y_i) for every instance i and component c."""
    return np.maximum(1.0 - (data.X.T @ W + b) * data.y[:, None], 0.0)


def _objective_from_parts(row_l1, hinge, lam: float, p: float) -> float:
    penalty = 0.5 * float(np.add.reduce(row_l1**2, axis=None))
    loss = float(np.add.reduce(hinge**p, axis=None))
    return penalty + lam * loss


def joint_objective(W, b, data, lam: float, p: float) -> float:
    """Regularized ensemble training objective, derived independently here:
    half the squared row-wise l1 sums of W, plus lam times the powered hinge
    loss summed over components and instances."""
    W = np.asarray(W, dtype=float)
    b = np.asarray(b, dtype=float)
    return _objective_from_parts(np.abs(W).sum(axis=1), _hinge(W, b, data), lam, p)


def reference_primal_solver(data, lam: float, components: int, p: float,
                            max_iters: int = 50_000):
    """Projected subgradient descent on the joint objective, ``max_iters`` steps.

    Deterministic given its inputs: starts from zero, moves 1/sqrt(t) at step t
    along the normalized subgradient, projects back onto a ball that provably
    contains every minimizer, and returns the best (W, b, objective) seen.
    The hinge terms and row l1 sums that score one iterate also give the
    next step's subgradient.  Meant for small instances only.
    """
    if p not in (1.0, 2.0, 1, 2):
        raise ValueError("reference solver supports p in {1, 2}")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    M, N = data.X.shape
    X, y = data.X, data.y
    # The zero model has objective lam*C*N, so any minimizer satisfies
    # 0.5*||W||_F^2 <= lam*C*N; the loss bound then confines each bias.
    radius_W = np.sqrt(2.0 * lam * components * N) + 1.0
    column_norm = float(np.linalg.norm(X, axis=0).max())
    radius_b = (components * N) ** (1.0 / p) + column_norm * radius_W + 1.0
    W = np.zeros((M, components))
    b = np.zeros(components)
    row_l1 = np.abs(W).sum(axis=1)
    hinge = _hinge(W, b, data)
    best_obj = _objective_from_parts(row_l1, hinge, lam, p)
    best_W, best_b = W.copy(), b.copy()
    # Per-call overhead dominates on small instances, so ufuncs, their reduce
    # and vdot stand in for the ndarray.sum, np.linalg.norm and np.clip wrappers.
    for t in range(1, max_iters + 1):
        if p == 1:
            active = (hinge > 0.0).astype(float)  # zero subgradient at the kink
        else:
            active = 2.0 * hinge
        signed = active * y[:, None]
        grad_W = row_l1[:, None] * np.sign(W) - lam * (X @ signed)
        grad_b = -lam * np.add.reduce(signed, axis=0)
        norm = math.sqrt(np.add.reduce(grad_W**2, axis=None) + np.add.reduce(grad_b**2, axis=None))
        if norm == 0.0:
            break
        step = _STEP_SIZE / (math.sqrt(t) * norm)
        W = W - step * grad_W
        b = b - step * grad_b
        scale_W = math.sqrt(np.vdot(W, W))
        if scale_W > radius_W:
            W *= radius_W / scale_W
        np.minimum(np.maximum(b, -radius_b, out=b), radius_b, out=b)
        row_l1 = np.add.reduce(np.abs(W), axis=1)
        hinge = _hinge(W, b, data)
        obj = _objective_from_parts(row_l1, hinge, lam, p)
        if obj < best_obj:
            best_obj = obj
            best_W, best_b = W.copy(), b.copy()
    return best_W, best_b, best_obj


def scalar_e_minimizer(y: float, s: float, lambda_over_mu: float, p: float) -> float:
    """Brute-force the scalar slack problem
    min_e lambda_over_mu * max(y*e, 0)**p + 0.5 * (e - s)**2 on a grid of
    step 1e-4 over [-10, 10]."""
    grid = np.arange(_GRID_LO, _GRID_HI + 0.5 * _GRID_STEP, _GRID_STEP)
    values = lambda_over_mu * np.maximum(y * grid, 0.0) ** p + 0.5 * (grid - s) ** 2
    return float(grid[int(np.argmin(values))])


def w_row_objective(row, P_row, Q_row, mu: float) -> float:
    """Objective of the per-row weight problem:
    0.5 * (sum_c |row(c)|)**2 + mu/2 * ||P_row - row||^2 + Q_row . (P_row - row)."""
    row = np.asarray(row, dtype=float)
    P_row = np.asarray(P_row, dtype=float)
    Q_row = np.asarray(Q_row, dtype=float)
    gap = P_row - row
    return float(0.5 * np.abs(row).sum() ** 2 + 0.5 * mu * (gap @ gap) + Q_row @ gap)


def _golden_section(fn, lo: float, hi: float, tol: float = 1e-13, max_iters: int = 200) -> float:
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(max_iters):
        if b - a < tol:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = fn(x2)
    return 0.5 * (a + b)


def w_row_reference(P_row, Q_row, mu: float) -> np.ndarray:
    """Minimize the per-row weight objective by cyclic coordinate descent, at
    most 500 sweeps, each coordinate solved with golden-section search.

    The problem is the proximal map of half a squared l1 norm at
    v = P_row + Q_row / mu, so every coordinate of the minimizer lies between
    0 and the matching coordinate of v; that interval is the search bracket.
    """
    P_row = np.asarray(P_row, dtype=float)
    Q_row = np.asarray(Q_row, dtype=float)
    v = P_row + Q_row / mu
    C = v.size
    row = np.zeros(C)
    previous = w_row_objective(row, P_row, Q_row, mu)
    for _ in range(_ROW_SWEEPS):
        for c in range(C):
            rest = float(np.abs(row).sum() - abs(row[c]))
            p_c, q_c = P_row[c], Q_row[c]

            def coordinate_objective(t):
                return 0.5 * (abs(t) + rest) ** 2 + 0.5 * mu * (p_c - t) ** 2 + q_c * (p_c - t)

            row[c] = _golden_section(coordinate_objective, min(0.0, v[c]) - 1e-12,
                                     max(0.0, v[c]) + 1e-12)
        current = w_row_objective(row, P_row, Q_row, mu)
        if previous - current < 1e-12:
            break
        previous = current
    return row

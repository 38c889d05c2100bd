"""Exclusivity measures between weight vectors and the row-wise l1,2 regularizer.

Exclusivity counts coordinates where two vectors are simultaneously nonzero;
its convex relaxation sums the products of absolute values.  Summing the
relaxation over all component pairs, plus a Frobenius term, equals half the
squared l1,2 norm of the transposed weight matrix, which is the regularizer
the solver minimizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def exclusivity(u, v) -> int:
    """Count coordinates where the elementwise product u*v is nonzero.

    The zero test is exact, on the computed product; thresholding is the
    caller's business.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError(f"vector shapes differ: {u.shape} vs {v.shape}")
    return int(np.count_nonzero(u * v))


def relaxed_exclusivity(u, v) -> float:
    """Sum of |u(i)| * |v(i)|, the convex surrogate of :func:`exclusivity`."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError(f"vector shapes differ: {u.shape} vs {v.shape}")
    return float(np.abs(u) @ np.abs(v))


def exclusivity_regularizer(W) -> float:
    """Half the squared l1,2 norm of W transposed.

    For W with feature rows j and component columns c this is
    ``0.5 * sum_j (sum_c |W[j, c]|)**2``.  It equals half the squared
    Frobenius norm plus the relaxed exclusivity summed over unordered
    component pairs.
    """
    W = np.asarray(W, dtype=float)
    if not np.all(np.isfinite(W)):
        raise ValueError("weight matrix contains NaN or Inf entries")
    return _l12_penalty(W)


def _l12_penalty(W: np.ndarray) -> float:
    """The formula of :func:`exclusivity_regularizer` on a float array that
    the caller knows to be finite."""
    row_l1 = np.abs(W).sum(axis=-1)
    return float(0.5 * (row_l1**2).sum())


DISTINCT_RTOL = 1e-9  # columns closer than this, relative to max |W|, count as one


def _distinct_columns(W: np.ndarray, b: np.ndarray | None = None):
    """The exactly distinct columns of W, or of (W, b) when biases are given.

    Returns ``(first, inverse)``: ``first`` holds the index of each distinct
    column's first occurrence, in order, and ``W[:, first][:, inverse]``
    equals W.  Columns compare by their bytes, so -0.0 and 0.0 stay apart.
    """
    first: list[int] = []
    index_of: dict[bytes, int] = {}
    inverse = np.empty(W.shape[1], dtype=np.intp)
    for c in range(W.shape[1]):
        key = W[:, c].tobytes() if b is None else W[:, c].tobytes() + b[c].tobytes()
        if key not in index_of:
            index_of[key] = len(first)
            first.append(c)
        inverse[c] = index_of[key]
    return np.array(first, dtype=np.intp), inverse


@dataclass(frozen=True)
class DiversityReport:
    """Pairwise exclusivity structure of a trained component matrix, and the
    number of distinct components among its columns."""

    pairwise_relaxed_exclusivity: np.ndarray
    pairwise_exclusivity: np.ndarray
    regularizer_value: float
    distinct_components: int

    def to_dict(self) -> dict:
        return {
            "pairwise_relaxed_exclusivity": self.pairwise_relaxed_exclusivity.tolist(),
            "pairwise_exclusivity": self.pairwise_exclusivity.tolist(),
            "regularizer_value": self.regularizer_value,
            "distinct_components": self.distinct_components,
        }


def diversity_report(W) -> DiversityReport:
    """Evaluate both exclusivity measures over every component pair of W, and
    count the distinct components: the columns whose largest entrywise
    difference from every earlier column exceeds ``DISTINCT_RTOL * max |W|``
    (the first column always counts).

    Pairwise exclusivity follows :func:`exclusivity`: a coordinate counts when
    the computed product is nonzero, so products that underflow to 0 do not.
    Both pairwise matrices are built on the exactly distinct columns and then
    expanded to every component pair, so the C equal columns that ``train``
    returns cost as much as one.  A column equal to an earlier one never
    counts as distinct, so the count over the distinct columns, in order of
    first occurrence, is the count over all of W.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[1] < 1:
        raise ValueError(f"expected a features-by-components matrix, got shape {W.shape}")
    first, inverse = _distinct_columns(W)
    D = W[:, first]
    U = D.shape[1]
    relaxed = np.abs(D).T @ np.abs(D)
    counts = np.empty((U, U))
    tolerance = DISTINCT_RTOL * np.max(np.abs(D), initial=0.0)
    distinct = 0
    for c in range(U):
        column = D[:, c, None]
        counts[c] = np.count_nonzero(column * D, axis=0)
        nearest = np.min(np.max(np.abs(D[:, :c] - column), axis=0, initial=0.0), initial=np.inf)
        distinct += int(nearest > tolerance)
    pairs = np.ix_(inverse, inverse)
    return DiversityReport(
        pairwise_relaxed_exclusivity=relaxed[pairs],
        pairwise_exclusivity=counts[pairs],
        regularizer_value=exclusivity_regularizer(W),
        distinct_components=distinct,
    )

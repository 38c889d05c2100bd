"""Shared synthetic-data helpers for the test suite, and the hypothesis
profiles: ``HYPOTHESIS_PROFILE=ci`` draws the same examples on every run
and prints the blob that reproduces a failure."""

import os

import numpy as np
from hypothesis import settings

from xrm import DataSet

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def make_blobs(n, m, seed, separation=2.0, noise=1.0):
    """Two Gaussian clouds displaced along a random direction; labels +/-1."""
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=m)
    direction /= np.linalg.norm(direction)
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    if np.unique(y).size < 2:
        y[0] = -y[0]
    X = rng.normal(scale=noise, size=(m, n)) + np.outer(direction, y) * (separation / 2.0)
    return DataSet(X=X, y=y)


def make_gram_overflow(n, m, seed=0):
    """m features of n instances near 1e154: every entry of X X^T and of
    X^T X sums at least two squares near 1e308 and overflows, while the
    features, centered, have a spread near 1e152 and standardize well."""
    rng = np.random.default_rng(seed)
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    y[:2] = (1.0, -1.0)
    return DataSet(X=1e154 * (1.0 + 0.01 * rng.normal(size=(m, n))), y=y)


def random_instance(rng, n_max=40, m_max=8):
    """Unstructured random instance with both classes present."""
    N = int(rng.integers(6, n_max + 1))
    M = int(rng.integers(2, m_max + 1))
    X = rng.normal(size=(M, N))
    y = rng.choice([-1.0, 1.0], size=N)
    while np.unique(y).size < 2:
        y = rng.choice([-1.0, 1.0], size=N)
    return DataSet(X=X, y=y)


def make_ill_scaled(n=40, seed=0, scale=1e8):
    """Features f, 2f (f Gaussian times ``scale``) and one unit Gaussian.  I + X X^T
    is positive definite in exact arithmetic, but with |X|^2 near 1/eps rounding
    takes that away and its Cholesky factorization fails."""
    rng = np.random.default_rng(seed)
    f = rng.normal(size=n) * scale
    X = np.vstack([f, 2.0 * f, rng.normal(size=n)])
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    y[:2] = (1.0, -1.0)
    return DataSet(X=X, y=y)

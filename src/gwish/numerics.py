"""Dense symmetric linear algebra, special functions and random draws.

Wishart convention
------------------
Throughout the package ``W_q(df, scale)`` denotes the distribution with
density proportional to ``det(B)^((df-2)/2) * exp(-tr(B @ scale) / 2)`` on
positive definite q x q matrices.  In the textbook parameterisation this is
a Wishart with ``df + q - 1`` degrees of freedom and scale ``inv(scale)``,
so its mean is ``(df + q - 1) * inv(scale)``.  The density is normalisable
for ``df > 2`` independently of q, which is what makes the parameterisation
convenient for graph-indexed models.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, NotPositiveDefinite

LOG_2 = float(np.log(2.0))
LOG_PI = float(np.log(np.pi))
LOG_2PI = float(np.log(2.0 * np.pi))


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator keyed by (seed, stream).

    Distinct streams from the same seed are statistically independent, and a
    given (seed, stream) pair reproduces the identical draw sequence across
    runs, which is what makes parallel chains reproducible.
    """
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


def symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def cholesky_factor(m: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a square float positive definite matrix, or
    of each matrix of a stack.

    Raises NotPositiveDefinite when the factorisation fails; this is the
    library's one conversion of numpy's LinAlgError.
    """
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc


def spd_inverse(m: np.ndarray) -> np.ndarray:
    """Inverse of a positive definite matrix as inv(L)' inv(L), L = chol(m).

    The product is exactly symmetric and ``m`` is not overwritten.  Raises
    NotPositiveDefinite when the factorisation fails.
    """
    li = np.linalg.inv(cholesky_factor(m))
    return li.T @ li


def submatrix(m: np.ndarray, subset: Sequence[int]) -> np.ndarray:
    """Principal submatrix on ``sorted(subset)``; a 0x0 array for the empty set."""
    m = np.asarray(m)
    idx = sorted(int(i) for i in subset)
    if len(set(idx)) != len(idx):
        raise IndexOutOfRange(f"duplicate indices in {subset}")
    if idx and (idx[0] < 0 or idx[-1] >= m.shape[0]):
        raise IndexOutOfRange(f"indices {idx} out of range for shape {m.shape}")
    return m[np.ix_(idx, idx)]


def log_multigamma(a: float, q: int) -> float:
    """log of the multivariate gamma function Gamma_q(a).

    Equals ``q(q-1)/4 * log(pi) + sum_{i=0}^{q-1} lgamma(a - i/2)`` with the
    empty product convention Gamma_0(a) = 1.  Requires a > (q-1)/2.
    """
    if q < 0:
        raise ValueError(f"q must be nonnegative, got {q}")
    if q == 0:
        return 0.0
    if a <= (q - 1) / 2.0:
        raise ValueError(f"log_multigamma needs a > (q-1)/2, got a={a}, q={q}")
    return q * (q - 1) / 4.0 * LOG_PI + sum(
        math.lgamma(a - i / 2.0) for i in range(q)
    )


def sample_mvn(
    n: int, sigma: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """n independent rows from N(0, sigma); shape (n, p), valid for n = 0."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {sigma.shape}")
    lower = cholesky_factor(sigma)
    z = rng.standard_normal((n, sigma.shape[0]))
    return z @ lower.T

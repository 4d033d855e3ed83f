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
from scipy.linalg import get_lapack_funcs, solve_triangular
from scipy.special import gammaln

from .errors import DimensionMismatch, IndexOutOfRange, NotPositiveDefinite

LOG_2 = float(np.log(2.0))
LOG_PI = float(np.log(np.pi))
LOG_2PI = float(np.log(2.0 * np.pi))


# the LAPACK routine behind scipy's cho_solve, fetched once instead of per call
(_POTRS,) = get_lapack_funcs(("potrs",), (np.empty((1, 1)),))


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator keyed by (seed, stream).

    Distinct streams from the same seed are statistically independent, and a
    given (seed, stream) pair reproduces the identical draw sequence across
    runs, which is what makes parallel chains reproducible.
    """
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


def symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def cholesky_logdet(m: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor and log determinant of a positive definite matrix.

    Raises NotPositiveDefinite when the factorisation fails.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    try:
        lower = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    logdet = 2.0 * float(np.sum(np.log(np.diag(lower))))
    return lower, logdet


def cholesky_factor(m: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a square float positive definite matrix.

    Raises NotPositiveDefinite when the factorisation fails.
    """
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc


def cholesky_solve(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b given the lower Cholesky factor of A; ``b`` is not
    overwritten, so ``cholesky_solve(lower, eye)`` is inv(A).

    The same LAPACK ``potrs`` call as ``scipy.linalg.cho_solve((lower, True),
    b)``, bit for bit, without its per-call input checks: both arguments
    must be finite float arrays of matching size.
    """
    x, info = _POTRS(lower, b, lower=True)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of potrs")
    return x


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
    i = np.arange(q, dtype=float)
    return q * (q - 1) / 4.0 * LOG_PI + float(np.sum(gammaln(a - i / 2.0)))


def wishart_root(scale: np.ndarray) -> np.ndarray:
    """F = inv(L)' for the lower Cholesky factor L of ``scale``, so that
    F F' = inv(scale): the fixed part of a Bartlett draw from W_q(df, scale).
    """
    lower, _ = cholesky_logdet(scale)
    return solve_triangular(lower, np.eye(lower.shape[0]), lower=True, trans="T")


def sample_wishart_root(
    df: float, root: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """One draw from W_q(df, scale) given ``root = wishart_root(scale)``.

    Bartlett construction: with T lower triangular, T_ii the square root of
    a chi-square with df + q - 1 - i degrees of freedom and T_ij (j < i)
    standard normal, F T (F T)' has the target law.  Row i takes its chi
    square, then its i normals in one call.  Requires q >= 1.
    """
    if df <= 2.0:
        raise ValueError(f"df must exceed 2, got {df}")
    q = root.shape[0]
    df_std = df + q - 1
    t = np.zeros((q, q))
    for i in range(q):
        t[i, i] = math.sqrt(rng.chisquare(df_std - i))
        t[i, :i] = rng.standard_normal(i)
    ft = root @ t
    return symmetrize(ft @ ft.T)


def sample_mvn(
    n: int, sigma: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """n independent rows from N(0, sigma); shape (n, p), valid for n = 0."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    sigma = np.asarray(sigma, dtype=float)
    lower, _ = cholesky_logdet(sigma)
    z = rng.standard_normal((n, sigma.shape[0]))
    return z @ lower.T

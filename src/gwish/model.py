"""Hierarchical Wishart model for decomposable Gaussian graphical models.

The precision matrix Omega of a zero-mean Gaussian sample is restricted to
the cone of matrices that are positive definite with support in a
decomposable graph G.  Its prior is the graph Wishart W_G(nu, A) whose
normalising constant factorises over any perfect sequence of cliques and
separators::

    I_G(nu, A) = prod_cliques I_C(nu, A_C) / prod_seps I_S(nu, A_S)

with the complete-graph constant

    I_q(nu, A) = 2^((nu+q-1)q/2) * Gamma_q((nu+q-1)/2) * det(A)^(-(nu+q-1)/2).

The prior scale is tied to the data as A = g * X'X, so the marginal
likelihood of a graph reduces to clique and separator terms built from Gram
submatrices scaled by g and 1 + g; the p x p matrix A is never formed.
Graphs carry a size-penalised prior over decomposable graphs.  Conjugacy
gives Omega | G, X ~ W_G(n + nu, X'X + A), whose Bayes estimators given G
under squared-error and Stein's loss are clique/separator sums in closed
form; no precision matrix is ever drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable

import numpy as np

from .errors import CliqueTooLarge, DimensionMismatch
from .graph import UndirectedGraph, _bits, _clique_masks
from .numerics import (
    LOG_2,
    LOG_2PI,
    cholesky_factor,
    log_multigamma,
    spd_inverse,
    symmetrize,
)

# Named hyperparameter presets: g as a power law in the dimension.  The
# "ratio" preset uses g = 0.1 / delta * p^(-2.5 - delta) with delta = 0.01;
# the "selection" preset uses g = 1 / (0.1 * delta) * p^(-2.5 - delta) with
# delta = 0.001, which is markedly weaker shrinkage at moderate p.
PRESETS: dict[str, Callable[[int], float]] = {
    "ratio": lambda p: 10.0 * float(p) ** (-2.51),
    "selection": lambda p: 1.0e4 * float(p) ** (-2.501),
}


@dataclass(frozen=True)
class Hyperparameters:
    """Model hyperparameters: Wishart df nu, scale multiplier g, prior slope
    c_tau and optional edge-count cap r_max (None leaves the cap inactive)."""

    nu: float = 3.0
    g: float = 0.1
    c_tau: float = 0.5
    r_max: int | None = None

    def __post_init__(self) -> None:
        for name in ("nu", "g", "c_tau"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.nu > 2.0:
            raise ValueError(f"nu must exceed 2, got {self.nu}")
        if not self.g > 0.0:
            raise ValueError(f"g must be positive, got {self.g}")
        if self.c_tau < 0.0:
            raise ValueError(f"c_tau must be nonnegative, got {self.c_tau}")
        if self.r_max is not None and self.r_max < 0:
            raise ValueError(f"r_max must be nonnegative, got {self.r_max}")

    @classmethod
    def preset(cls, name: str, p: int, **overrides) -> "Hyperparameters":
        """Hyperparameters with g resolved from a named preset at dimension p."""
        try:
            g = PRESETS[name](p)
        except KeyError:
            raise ValueError(
                f"unknown preset {name!r}; available: {sorted(PRESETS)}"
            ) from None
        return replace(cls(g=g), **overrides)


def theory_r_max(n: int, p: int) -> int:
    """Edge cap (n / log(max(n, p)))^(1/4), at least 1: the theory scaling
    c_r (n / log max(n, p))^(xi / 2) with c_r = 1 and xi = 1/2."""
    return max(1, math.floor((n / math.log(max(n, p))) ** 0.25))


@dataclass(frozen=True)
class GroundTruth:
    """A known generating model: precision, covariance and support graph."""

    omega: np.ndarray
    sigma: np.ndarray
    graph: UndirectedGraph


def _check_finite(m: np.ndarray, name: str) -> None:
    """ValueError naming the first NaN or infinite entry of a 2-d array."""
    bad = np.argwhere(~np.isfinite(m))
    if len(bad):
        row, col = bad[0]
        raise ValueError(
            f"{name} has {len(bad)} non-finite entries (NaN or inf); the "
            f"first is at row {row}, column {col} (0-based)"
        )


@dataclass(frozen=True)
class Dataset:
    """An n x p data matrix with its Gram matrix X'X cached."""

    x: np.ndarray
    gram: np.ndarray

    @classmethod
    def from_matrix(cls, x: np.ndarray) -> "Dataset":
        """Wrap an n x p matrix; ValueError if it has fewer than 2 rows or
        any entry is NaN or infinite."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            raise DimensionMismatch(f"data must be 2-d, got shape {x.shape}")
        if x.shape[0] < 2:
            raise ValueError(f"data needs at least 2 rows, got {x.shape[0]}")
        _check_finite(x, "data")
        return cls(x=x, gram=symmetrize(x.T @ x))

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class GraphScore:
    """Log marginal likelihood, log prior and their sum for one graph."""

    log_marginal: float
    log_prior: float

    @property
    def log_posterior(self) -> float:
        return self.log_marginal + self.log_prior


def _check_p(g: UndirectedGraph, data: Dataset) -> None:
    if g.p != data.p:
        raise DimensionMismatch(f"graph p={g.p} does not match data p={data.p}")


class GraphScorer:
    """Scores graphs against one dataset and hyperparameter setting, under
    the graph prior of ``_size_prior``.

    Clique and separator contributions depend on the vertex subset only, so
    they are cached across calls, keyed by vertex mask (bit v set for each
    vertex v); the cache is deterministic, making scores safe to reuse
    across chains.  A full score reads the graph's cliques and separators
    as masks (``graph._clique_masks``) and factorises the Gram blocks of the
    missing terms together, one stacked Cholesky per block size
    (``_factorise``).  A single-edge move changes only four of these terms
    (``_move_delta``), so moves are scored without finding any clique, and a
    run of additions has its blocks factorised together in the same way.
    """

    def __init__(self, data: Dataset, hyper: Hyperparameters):
        self.data = data
        self.hyper = hyper
        self._terms: dict[int, float] = {0: 0.0}  # the empty set's term is 0
        self._scalar: dict[int, float] = {}
        self._size_priors: dict[int, float] = {}

    def _factorise(self, masks: Iterable[int]) -> None:
        """Cache the terms of the masks not yet cached, with one stacked
        Cholesky of their Gram blocks per block size.

        A factor of a stack is computed matrix by matrix, as a lone call
        computes it, and each log determinant sums the logs of one row of
        diagonals, so every term has the bits of a one-block factorisation.
        Raises CliqueTooLarge for a mask of more than n vertices before any
        block is factorised, and NotPositiveDefinite when a block's
        factorisation fails.
        """
        n = self.data.n
        by_size: dict[int, dict[int, None]] = {}
        for m in masks:
            if m not in self._terms:
                by_size.setdefault(m.bit_count(), {})[m] = None
        for q in by_size:
            if q > n:
                raise CliqueTooLarge(q, n)
        for q, group in by_size.items():
            idx = np.array([_bits(m) for m in group])
            lower = cholesky_factor(self.data.gram[idx[:, :, None], idx[:, None, :]])
            logdets = 2.0 * np.log(np.diagonal(lower, axis1=1, axis2=2)).sum(axis=1)
            scalar = self._scalar_term(q)
            for m, logdet in zip(group, logdets.tolist()):
                self._terms[m] = scalar - n / 2.0 * logdet

    def _scalar_term(self, q: int) -> float:
        # size-only part of a clique contribution
        cached = self._scalar.get(q)
        if cached is not None:
            return cached
        n, nu, g = self.data.n, self.hyper.nu, self.hyper.g
        val = (
            n * q / 2.0 * LOG_2
            + log_multigamma((n + nu + q - 1) / 2.0, q)
            - log_multigamma((nu + q - 1) / 2.0, q)
            - q / 2.0 * ((n + nu + q - 1) * math.log1p(g) - (nu + q - 1) * math.log(g))
        )
        self._scalar[q] = val
        return val

    def _size_prior(self, k: int) -> float:
        """Log prior of a decomposable graph with k edges, up to the common
        normalising constant, memoised per edge count: pi(G) is proportional
        to ``1 / binom(m, |G|) * exp(-|G| c_tau log p)`` over decomposable
        graphs with at most r_max edges (m = p(p-1)/2), -inf past r_max.
        Chordality is tested by the marginal's clique search, not here."""
        cached = self._size_priors.get(k)
        if cached is None:
            p, hyper, lg = self.data.p, self.hyper, math.lgamma
            m = p * (p - 1) // 2
            if k > (m if hyper.r_max is None else hyper.r_max):
                cached = -math.inf
            else:
                log_binomial = lg(m + 1) - lg(k + 1) - lg(m - k + 1)
                cached = -log_binomial - k * hyper.c_tau * math.log(p)
            self._size_priors[k] = cached
        return cached

    def clique_term(self, subset: Iterable[int]) -> float:
        """log I_C(n+nu, (1+g) Gram_C) - log I_C(nu, g Gram_C) for one subset
        of distinct vertices, read from the term cache or factorised alone."""
        mask = 0
        for v in subset:
            mask |= 1 << v
        term = self._terms.get(mask)
        if term is None:
            self._factorise((mask,))
            term = self._terms[mask]
        return term

    def log_marginal_core(self, g: UndirectedGraph) -> float:
        """Log marginal likelihood without the -np/2 log(2 pi) constant.

        The clique terms are added and the separator terms subtracted one at
        a time, in perfect order.  Raises NotDecomposable for a non-chordal
        graph and CliqueTooLarge when a clique has more than n vertices.
        """
        _check_p(g, self.data)
        cliques, separators = _clique_masks(g)
        self._factorise(cliques + separators)
        terms = self._terms
        total = 0.0
        for c in cliques:
            total += terms[c]
        for s in separators:
            total -= terms[s]
        return total

    def log_marginal(self, g: UndirectedGraph) -> float:
        n, p = self.data.n, self.data.p
        return self.log_marginal_core(g) - n * p / 2.0 * LOG_2PI

    def score(self, g: UndirectedGraph) -> GraphScore:
        _check_p(g, self.data)
        log_prior = self._size_prior(g.size)
        if log_prior == -math.inf:
            # outside the prior support; marginal never evaluated
            return GraphScore(log_marginal=-math.inf, log_prior=-math.inf)
        # the marginal's clique search raises NotDecomposable: this is the
        # prior's one chordality test
        return GraphScore(log_marginal=self.log_marginal(g), log_prior=log_prior)

    def _move_delta(self, u: int, v: int, sep: int, adding: bool) -> float:
        """log_marginal_core(g') - log_marginal_core(g) for adding (or deleting)
        the edge (u, v), with ``sep`` = S = N(u) & N(v); g and g' decomposable.

        The move merges or splits the cliques S | {u} and S | {v} around the
        clique S | {u, v}, so only four terms change (Giudici & Green 1999):
        ``term(S | uv) - term(S | u) - term(S | v) + term(S)`` for an
        addition, negated for a deletion.  A miss factorises all four."""
        m0, m1, m2 = sep | 1 << u | 1 << v, sep | 1 << u, sep | 1 << v
        terms = self._terms
        if m0 not in terms or m1 not in terms or m2 not in terms or sep not in terms:
            self._factorise((m0, m1, m2, sep))
        delta = terms[m0] - terms[m1] - terms[m2] + terms[sep]
        return delta if adding else -delta

    def _support_prior(self, sep: int, k: int, adding: bool) -> float:
        """Log size prior of the k-edge graph a move leads to, or -inf when
        that graph lies outside the support: more than r_max edges, or an
        addition whose new clique S | {u, v} has more than n vertices."""
        if adding and sep.bit_count() + 2 > self.data.n:
            return -math.inf
        return self._size_prior(k)

    def _delta(self, u: int, v: int, sep: int, size: int, adding: bool) -> float:
        """Log posterior of g' minus that of g for the move on (u, v) of a
        decomposable g with ``size`` edges and ``sep`` = S = N(u) & N(v).

        The size-prior change plus ``_move_delta``.  -inf when g' lies outside
        the support: more than r_max edges (the marginal is then never
        evaluated), or an addition whose new clique S | {u, v} has more
        vertices than the sample size.
        """
        log_prior = self._support_prior(sep, size + 1 if adding else size - 1, adding)
        if log_prior == -math.inf:
            return -math.inf
        prior_delta = log_prior - self._size_prior(size)
        return self._move_delta(u, v, sep, adding) + prior_delta

    def _factorise_walk(self, walk: list[tuple[int, int, int]]) -> None:
        """Factorise, stacked, the blocks of a run of additions from the
        empty graph, each given as (u, v, S): those of every addition up to
        the first whose graph lies outside the support, since its delta
        makes every later score -inf."""
        masks: list[int] = []
        for k, (u, v, sep) in enumerate(walk):
            if self._support_prior(sep, k + 1, True) == -math.inf:
                break
            bu, bv = 1 << u, 1 << v
            masks += (sep | bu | bv, sep | bu, sep | bv, sep)
        self._factorise(masks)


def log_posterior_ratio(
    data: Dataset,
    g1: UndirectedGraph,
    g0: UndirectedGraph,
    hyper: Hyperparameters,
) -> float:
    """Log posterior odds of g1 over g0: the Bayes factor plus the prior ratio,
    both from one scorer, whose clique search raises NotDecomposable for a
    non-chordal graph.  ValueError when both lie outside the prior support."""
    return _log_bayes_factor_and_ratio(data, g1, g0, hyper)[1]


def _log_bayes_factor_and_ratio(
    data: Dataset, g1: UndirectedGraph, g0: UndirectedGraph, hyper: Hyperparameters
) -> tuple[float, float]:
    # the log Bayes factor log f(X | G1) - log f(X | G0), whose 2 pi constants
    # cancel exactly, and the ratio above, from one scorer: one clique search
    # per graph
    scorer = GraphScorer(data, hyper)
    bf = scorer.log_marginal_core(g1) - scorer.log_marginal_core(g0)
    lp1, lp0 = scorer._size_prior(g1.size), scorer._size_prior(g0.size)
    if lp1 == lp0 == -math.inf:
        raise ValueError("both graphs are outside the prior support")
    return bf, bf + lp1 - lp0


def _clique_separator_sum(
    data: Dataset, g: UndirectedGraph, weight: Callable[[int], float]
) -> np.ndarray:
    """Sum over the cliques C of weight(|C|) * inv(Gram_C), each padded with
    zeros to p x p, minus the same sum over the separators.

    Only clique blocks are written, so every entry off the graph is exactly
    0.0; each block inverse is exactly symmetric, and so is the sum.  Raises
    NotDecomposable for a non-chordal graph and CliqueTooLarge when a clique
    has more than n vertices, since its Gram block is then singular.
    """
    _check_p(g, data)
    cliques, separators = _clique_masks(g)
    n = data.n
    for c in cliques:
        if c.bit_count() > n:
            raise CliqueTooLarge(c.bit_count(), n)
    out = np.zeros((data.p, data.p))
    for masks, sign in ((cliques, 1.0), (separators, -1.0)):
        for m in masks:
            if not m:
                continue
            idx = _bits(m)
            ix = np.ix_(idx, idx)
            out[ix] += sign * weight(m.bit_count()) * spd_inverse(data.gram[ix])
    return out


def posterior_mean_precision(
    data: Dataset, g: UndirectedGraph, hyper: Hyperparameters
) -> np.ndarray:
    """Closed-form posterior mean of Omega given the graph: the Bayes
    estimator under squared-error (l2) loss.

    Sum over cliques of (n + nu + |C| - 1) / (1 + g) * inv(Gram_C), padded
    with zeros, minus the matching separator terms.
    """
    nu_post = data.n + hyper.nu
    shrink = 1.0 / (1.0 + hyper.g)
    return _clique_separator_sum(data, g, lambda q: (nu_post + q - 1) * shrink)


def bayes_estimator_l1_stein(
    data: Dataset, g: UndirectedGraph, hyper: Hyperparameters
) -> np.ndarray:
    """Bayes estimator of Omega given the graph under Stein's loss:
    inv(E[Sigma | G, X]) with Sigma = inv(Omega), in closed form.

    Under the W_q convention of ``numerics``, each clique block Sigma_C has
    posterior mean D_C / (n + nu - 2), D = (1 + g) X'X, whatever |C|, and
    E[Sigma | G, X] is the G-completion of D / (n + nu - 2).  The inverse of
    that completion is

        (n + nu - 2) / (1 + g) * (sum_C inv(Gram_C)^0 - sum_S inv(Gram_S)^0),

    where ^0 pads a block with zeros to p x p (Rajaratnam, Massam & Carvalho
    2008, Ann. Statist. 36): the clique/separator sum of
    ``posterior_mean_precision`` with n + nu - 2 in place of n + nu + |C| - 1.
    No variate is drawn; entries off the graph are exactly 0.0.
    """
    weight = (data.n + hyper.nu - 2.0) / (1.0 + hyper.g)
    return _clique_separator_sum(data, g, lambda q: weight)

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
from typing import Callable

import numpy as np

from .errors import CliqueTooLarge, DimensionMismatch
from .graph import (
    Edge,
    GrowingGraph,
    PerfectSequence,
    UndirectedGraph,
    is_decomposable,
    perfect_sequence,
)
from .numerics import (
    LOG_2,
    LOG_2PI,
    cholesky_logdet,
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


@dataclass(frozen=True)
class Dataset:
    """An n x p data matrix with its Gram matrix X'X cached.

    ``truth`` optionally carries the generating model for simulations.
    """

    x: np.ndarray
    gram: np.ndarray
    truth: GroundTruth | None = None

    @classmethod
    def from_matrix(cls, x: np.ndarray, truth: GroundTruth | None = None) -> "Dataset":
        """Wrap an n x p matrix; ValueError if it has fewer than 2 rows or
        any entry is NaN or infinite."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            raise DimensionMismatch(f"data must be 2-d, got shape {x.shape}")
        if x.shape[0] < 2:
            raise ValueError(f"data needs at least 2 rows, got {x.shape[0]}")
        bad = np.argwhere(~np.isfinite(x))
        if len(bad):
            row, col = bad[0]
            raise ValueError(
                f"data has {len(bad)} non-finite entries (NaN or inf); the "
                f"first is at row {row}, column {col} (0-based)"
            )
        return cls(x=x, gram=symmetrize(x.T @ x), truth=truth)

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


def _log_binomial(m: int, k: int) -> float:
    return math.lgamma(m + 1) - math.lgamma(k + 1) - math.lgamma(m - k + 1)


def _log_size_prior(p: int, k: int, hyper: Hyperparameters) -> float:
    # the prior of log_graph_prior for a decomposable graph with k edges
    m = p * (p - 1) // 2
    r = hyper.r_max if hyper.r_max is not None else m
    if k > r:
        return -math.inf
    return -_log_binomial(m, k) - k * hyper.c_tau * math.log(p)


def log_graph_prior(g: UndirectedGraph, hyper: Hyperparameters) -> float:
    """Log prior of a graph, up to the common normalising constant.

    pi(G) is proportional to ``1 / binom(m, |G|) * exp(-|G| c_tau log p)``
    over decomposable graphs with at most r_max edges (m = p(p-1)/2);
    anything outside that support gets -inf.
    """
    log_prior = _log_size_prior(g.p, g.size, hyper)
    if log_prior == -math.inf or not is_decomposable(g):
        return -math.inf
    return log_prior


class GraphScorer:
    """Scores graphs against one dataset and hyperparameter setting.

    Clique and separator contributions depend on the vertex subset only, so
    their Gram log determinants are cached across calls; the cache is
    deterministic, making scores safe to reuse across chains.  A single-edge
    move changes only four of these terms (``move_delta``), so moves are
    scored without rebuilding a perfect sequence.
    """

    def __init__(self, data: Dataset, hyper: Hyperparameters):
        self.data = data
        self.hyper = hyper
        self._logdet: dict[frozenset[int], float] = {}
        self._scalar: dict[int, float] = {}

    def _gram_logdet(self, subset: frozenset[int]) -> float:
        cached = self._logdet.get(subset)
        if cached is not None:
            return cached
        # a subset of distinct vertices 0..p-1, so the Gram block is indexed
        # directly, in sorted order, without ``submatrix``'s checks
        idx = np.array(sorted(subset))
        _, val = cholesky_logdet(self.data.gram[idx[:, None], idx])
        self._logdet[subset] = val
        return val

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

    def clique_term(self, subset: frozenset[int]) -> float:
        """log I_C(n+nu, (1+g) Gram_C) - log I_C(nu, g Gram_C) for one subset."""
        q = len(subset)
        if q == 0:
            return 0.0
        if q > self.data.n:
            raise CliqueTooLarge(q, self.data.n)
        return self._scalar_term(q) - self.data.n / 2.0 * self._gram_logdet(subset)

    def log_marginal_core(
        self, g: UndirectedGraph, seq: PerfectSequence | None = None
    ) -> float:
        """Log marginal likelihood without the -np/2 log(2 pi) constant."""
        if g.p != self.data.p:
            raise DimensionMismatch(f"graph p={g.p} does not match data p={self.data.p}")
        if seq is None:
            seq = perfect_sequence(g)
        total = 0.0
        for c in seq.cliques:
            total += self.clique_term(c)
        for s in seq.separators:
            total -= self.clique_term(s)
        return total

    def log_marginal(self, g: UndirectedGraph, seq: PerfectSequence | None = None) -> float:
        n, p = self.data.n, self.data.p
        return self.log_marginal_core(g, seq) - n * p / 2.0 * LOG_2PI

    def score(self, g: UndirectedGraph, seq: PerfectSequence | None = None) -> GraphScore:
        log_prior = _log_size_prior(g.p, g.size, self.hyper)
        if log_prior == -math.inf:
            # outside the prior support; marginal never evaluated
            return GraphScore(log_marginal=-math.inf, log_prior=-math.inf)
        # perfect_sequence raises NotDecomposable, so the prior can skip its
        # own chordality test once a sequence is in hand
        if seq is None:
            seq = perfect_sequence(g)
        return GraphScore(log_marginal=self.log_marginal(g, seq), log_prior=log_prior)

    def move_delta(self, g: UndirectedGraph | GrowingGraph, edge: Edge) -> float:
        """log_marginal_core(g') - log_marginal_core(g) for the move on ``edge``.

        g' is ``g.toggled(*edge)``: ``edge`` deleted if ``g`` has it, added
        otherwise; both must be decomposable.  With S = N(u) & N(v), the move
        merges or splits the cliques S | {u} and S | {v} around the clique
        S | {u, v}, so only four terms change (Giudici & Green 1999):
        ``term(S | uv) - term(S | u) - term(S | v) + term(S)`` for an
        addition, negated for a deletion.
        """
        u, v = edge
        # frozen, so that the four subsets below can key the log-det cache
        sep = frozenset(g.neighbor_sets[u] & g.neighbor_sets[v])
        delta = (
            self.clique_term(sep | {u, v})
            - self.clique_term(sep | {u})
            - self.clique_term(sep | {v})
            + self.clique_term(sep)
        )
        return -delta if g.has_edge(u, v) else delta

    def log_posterior_delta(
        self, g: UndirectedGraph | GrowingGraph, edge: Edge
    ) -> float:
        """Log posterior of g' minus that of ``g`` for the move on ``edge``.

        The size-prior change plus ``move_delta``.  -inf when g' lies outside
        the support: more than r_max edges (the marginal is then never
        evaluated), or an addition whose new clique S | {u, v} has more
        vertices than the sample size.  ``g`` may also be a ``GrowingGraph``,
        which the thresholded-candidate walk scores as it grows.
        """
        u, v = edge
        adding = not g.has_edge(u, v)
        k = g.size + 1 if adding else g.size - 1
        log_prior = _log_size_prior(g.p, k, self.hyper)
        if log_prior == -math.inf:
            return -math.inf
        if adding and len(g.neighbor_sets[u] & g.neighbor_sets[v]) + 2 > self.data.n:
            return -math.inf
        prior_delta = log_prior - _log_size_prior(g.p, g.size, self.hyper)
        return self.move_delta(g, edge) + prior_delta


def log_pairwise_bayes_factor(
    data: Dataset,
    g1: UndirectedGraph,
    g0: UndirectedGraph,
    hyper: Hyperparameters,
) -> float:
    """log f(X | G1) - log f(X | G0); the 2 pi constants cancel exactly."""
    scorer = GraphScorer(data, hyper)
    return scorer.log_marginal_core(g1) - scorer.log_marginal_core(g0)


def log_posterior_ratio(
    data: Dataset,
    g1: UndirectedGraph,
    g0: UndirectedGraph,
    hyper: Hyperparameters,
) -> float:
    """Log posterior odds of g1 over g0 (Bayes factor plus prior ratio);
    ValueError when both lie outside the prior support, where it is undefined."""
    bf = log_pairwise_bayes_factor(data, g1, g0, hyper)
    lp1, lp0 = log_graph_prior(g1, hyper), log_graph_prior(g0, hyper)
    if lp1 == lp0 == -math.inf:
        raise ValueError("both graphs are outside the prior support")
    return bf + lp1 - lp0


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
    if g.p != data.p:
        raise DimensionMismatch(f"graph p={g.p} does not match data p={data.p}")
    seq = perfect_sequence(g)
    n = data.n
    for c in seq.cliques:
        if len(c) > n:
            raise CliqueTooLarge(len(c), n)
    out = np.zeros((data.p, data.p))
    for subsets, sign in ((seq.cliques, 1.0), (seq.separators, -1.0)):
        for s in subsets:
            if not s:
                continue
            ix = np.ix_(sorted(s), sorted(s))
            out[ix] += sign * weight(len(s)) * spd_inverse(data.gram[ix])
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

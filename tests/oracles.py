"""Independent reference implementations used to check the library.

Everything here is deliberately written from first principles (brute force
where feasible) rather than by calling the code under test.  The exceptions
come first.  ``perfect_sequence`` and ``perfect_numbering`` hand out the
library's clique masks and MCS visit order as frozensets and sorted lists,
so the properties tested on them hold for ``graph._clique_masks``.  The full
normalising constant of W_G(nu, A) for an arbitrary scale A
(``log_norm_const``) is the oracle for the scorer's Gram-based clique and
separator terms; it reads that perfect sequence and ``cholesky_logdet``,
the log determinant of one ``cholesky_factor``.  ``log_graph_prior`` states
the graph prior on its own, with its own chordality test, as the reference
for the scorer's size prior.  The other exceptions are the former
implementations at the end, kept as references for their faster
replacements: ``log_posterior_delta``, the scorer's move delta with S read
from the edge set, the dense maximum cardinality search, the per-pair and
per-move walks, which call the library's single-move test and that delta
(both have oracle tests of their own), the per-vertex posterior precision
sampler, the Monte Carlo reference for both closed-form estimators, the
Monte Carlo Stein-loss estimator built on it, and the frozenset-based
clique/separator sum of the closed-form estimators.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from gwish.errors import (
    CliqueTooLarge,
    DimensionMismatch,
    NotDecomposable,
    NotPositiveDefinite,
    NoValidMove,
)
from gwish.graph import (
    Edge,
    UndirectedGraph,
    _all_complete,
    _bits,
    _clique_masks,
    _mcs_visit,
    is_decomposable,
    move_is_decomposable,
)
from gwish.model import Dataset, Hyperparameters
from gwish.numerics import (
    LOG_2,
    cholesky_factor,
    log_multigamma,
    spd_inverse,
    submatrix,
    symmetrize,
)


@dataclass(frozen=True)
class PerfectSequence:
    """Cliques P_1..P_h and separators S_2..S_h of a decomposable graph.

    separators[l] pairs with cliques[l+1]; the leading clique has none.  The
    running intersection property holds: each separator is contained in some
    earlier clique.
    """

    cliques: tuple[frozenset[int], ...]
    separators: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if len(self.separators) != len(self.cliques) - 1:
            raise ValueError("need exactly one separator per clique after the first")


def perfect_sequence(g: UndirectedGraph) -> PerfectSequence:
    """The maximal cliques in perfect order, with their separators: the
    masks of ``graph._clique_masks`` as frozensets.

    Raises NotDecomposable when the graph is not chordal.  The order is the
    one induced by MCS with lowest-index tie-breaking, so it is
    deterministic given the graph.  Another perfect sequence of g is that of
    a relabelled copy of g, mapped back through the labels
    (``relabelled_perfect_sequence``).
    """
    cliques, separators = _clique_masks(g)
    return PerfectSequence(
        tuple(frozenset(_bits(m)) for m in cliques),
        tuple(frozenset(_bits(m)) for m in separators),
    )


def perfect_numbering(g: UndirectedGraph) -> tuple[list[int], list[list[int]]]:
    """MCS visit order with each vertex's earlier neighbours, ascending,
    which form a clique: a perfect numbering of a decomposable graph.

    Raises NotDecomposable when the graph is not chordal.
    """
    order, earlier = _mcs_visit(g)
    if not _all_complete(g, earlier):
        raise NotDecomposable("graph is not chordal")
    return order, [_bits(m) for m in earlier]


def chordless_cycle_exists(p: int, edges: set[tuple[int, int]]) -> bool:
    """Brute force: scan all vertex subsets of size >= 4 and all cyclic
    orders, looking for a cycle whose subset spans no chord."""

    def has(i, j):
        return (min(i, j), max(i, j)) in edges

    for k in range(4, p + 1):
        for subset in itertools.combinations(range(p), k):
            # fix subset[0] first and quotient out direction to dedupe orders
            rest = subset[1:]
            for perm in itertools.permutations(rest):
                if perm[0] > perm[-1]:
                    continue
                cycle = (subset[0],) + perm
                if not all(
                    has(cycle[t], cycle[(t + 1) % k]) for t in range(k)
                ):
                    continue
                chord = False
                for a in range(k):
                    for b in range(a + 1, k):
                        if (b - a) in (1, k - 1):
                            continue
                        if has(cycle[a], cycle[b]):
                            chord = True
                            break
                    if chord:
                        break
                if not chord:
                    return True
    return False


def chordal_by_cycle_scan(p: int, edges: set[tuple[int, int]]) -> bool:
    return not chordless_cycle_exists(p, edges)


def reachable(p: int, edges: set[tuple[int, int]], u: int, v: int) -> bool:
    """Plain breadth-first search from u over an edge set."""
    seen, queue = {u}, [u]
    for a in queue:
        for b in range(p):
            if b not in seen and (min(a, b), max(a, b)) in edges:
                seen.add(b)
                queue.append(b)
    return v in seen


def relabel(g: UndirectedGraph, perm: list[int]) -> UndirectedGraph:
    """The graph with vertex i renamed to perm[i]."""
    assert sorted(perm) == list(range(g.p)), "perm must be a permutation of 0..p-1"
    return UndirectedGraph.from_edges(g.p, ((perm[i], perm[j]) for i, j in g.edges))


def adjacency(g: UndirectedGraph) -> np.ndarray:
    """Dense boolean adjacency matrix (no self loops)."""
    a = np.zeros((g.p, g.p), dtype=bool)
    for i, j in g.edges:
        a[i, j] = a[j, i] = True
    return a


def relabelled_perfect_sequence(g: UndirectedGraph, perm: list[int]) -> PerfectSequence:
    """Another perfect sequence of ``g``: that of ``relabel(g, perm)``, with
    each clique and separator mapped back to the labels of ``g``.  It is the
    sequence MCS gives when its ties go to the lowest ``perm`` value."""
    inv = [0] * g.p
    for v, r in enumerate(perm):
        inv[r] = v

    def back(subsets):
        return tuple(frozenset(inv[r] for r in s) for s in subsets)

    seq = perfect_sequence(relabel(g, perm))
    return PerfectSequence(back(seq.cliques), back(seq.separators))


def check_perfect_sequence(g: UndirectedGraph, seq: PerfectSequence) -> None:
    """Assert the defining properties of a perfect sequence of ``g``.

    The cliques are complete, maximal and cover every vertex; their
    within-clique pairs are exactly the edge set; each separator is its
    clique's intersection with the earlier cliques and lies inside one of
    them (running intersection).
    """
    cliques = seq.cliques
    pairs = {
        pair for c in cliques for pair in itertools.combinations(sorted(c), 2)
    }
    assert pairs <= g.edges, "a clique is not complete"
    assert pairs == g.edges, "cliques do not reconstruct the edge set"
    assert set().union(*cliques) == set(range(g.p)), "cliques do not cover all vertices"
    for l, c in enumerate(cliques):
        assert not any(c < other for other in cliques), "a clique is not maximal"
        if l == 0:
            continue
        s = seq.separators[l - 1]
        assert s == c & frozenset().union(*cliques[:l]), (
            "separator != clique intersected with history"
        )
        assert any(s <= cliques[m] for m in range(l)), (
            "running intersection property violated"
        )


def cholesky_logdet(m: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor and log determinant of a positive definite matrix.

    Raises NotPositiveDefinite when the factorisation fails.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    lower = cholesky_factor(m)
    logdet = 2.0 * float(np.sum(np.log(np.diag(lower))))
    return lower, logdet


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


def log_norm_const_complete(nu: float, scale: np.ndarray) -> float:
    """Log normalising constant of W_q(nu, scale) on the complete graph.

    ``scale`` is the q x q positive definite scale block; q = 0 returns 0
    under the empty-product convention.  Requires nu > 2.  Values are
    memoised on (nu, shape, bytes of the block): the sequence-invariance
    criterion asks for about 1,100 distinct blocks some 280,000 times.
    """
    if not nu > 2.0:
        raise ValueError(f"nu must exceed 2, got {nu}")
    scale = np.asarray(scale, dtype=float)
    return _log_norm_const_block(nu, scale.shape, scale.tobytes())


@functools.lru_cache(maxsize=4096)
def _log_norm_const_block(nu: float, shape: tuple[int, ...], block: bytes) -> float:
    scale = np.frombuffer(block).reshape(shape)
    q = scale.shape[0]
    if q == 0:
        return 0.0
    _, logdet = cholesky_logdet(scale)
    a = (nu + q - 1) / 2.0
    return a * q * LOG_2 + log_multigamma(a, q) - a * logdet


def log_norm_const(
    g: UndirectedGraph,
    nu: float,
    a: np.ndarray,
    seq: PerfectSequence | None = None,
) -> float:
    """Log normalising constant of W_G(nu, A) for decomposable G.

    Clique terms minus separator terms over a perfect sequence; the value
    does not depend on which perfect sequence is used.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (g.p, g.p):
        raise DimensionMismatch(f"scale shape {a.shape} does not match p={g.p}")
    if seq is None:
        seq = perfect_sequence(g)
    total = 0.0
    for c in seq.cliques:
        total += log_norm_const_complete(nu, submatrix(a, c))
    for s in seq.separators:
        total -= log_norm_const_complete(nu, submatrix(a, s))
    return total


def wishart_batch(
    df: float, scale: np.ndarray, rng: np.random.Generator, size: int
) -> np.ndarray:
    """size draws from the density det(B)^((df-2)/2) exp(-tr(B scale)/2),
    via a vectorised Bartlett construction."""
    q = scale.shape[0]
    df_std = df + q - 1
    lower = np.linalg.cholesky(scale)
    f = np.linalg.inv(lower).T  # F F' = inv(scale)
    t = np.zeros((size, q, q))
    for i in range(q):
        t[:, i, i] = np.sqrt(rng.chisquare(df_std - i, size=size))
        for j in range(i):
            t[:, i, j] = rng.standard_normal(size)
    ft = np.einsum("ab,nbc->nac", f, t)
    return np.einsum("nab,ncb->nac", ft, ft)


def gwishart_prior_batch(
    cliques: list[tuple[int, ...]],
    separators: list[tuple[int, ...]],
    p: int,
    df: float,
    a: np.ndarray,
    rng: np.random.Generator,
    size: int,
) -> np.ndarray:
    """Batched draws with support on a decomposable graph, built clique by
    clique: the leading clique block of the covariance comes from inverting
    complete-graph draws, later cliques are filled in conditional on their
    separator block, and the precision is assembled by the clique-minus-
    separator completion."""
    sigma = np.zeros((size, p, p))
    first = list(cliques[0])
    k = wishart_batch(df, a[np.ix_(first, first)], rng, size)
    sigma[np.ix_(range(size), first, first)] = np.linalg.inv(k)
    for l in range(1, len(cliques)):
        cl = cliques[l]
        sep = separators[l - 1]
        r = [v for v in cl if v not in sep]
        s = list(sep)
        if not s:
            k = wishart_batch(df, a[np.ix_(r, r)], rng, size)
            sigma[np.ix_(range(size), r, r)] = np.linalg.inv(k)
            continue
        b_rr = a[np.ix_(r, r)]
        b_rs = a[np.ix_(r, s)]
        b_ss = a[np.ix_(s, s)]
        b_ss_inv = np.linalg.inv(b_ss)
        b_res = b_rr - b_rs @ b_ss_inv @ b_rs.T
        k_rr = wishart_batch(df + len(s), b_res, rng, size)
        gamma = np.linalg.inv(k_rr)
        lo_g = np.linalg.cholesky(gamma)
        col = np.linalg.cholesky(b_ss_inv)
        z = rng.standard_normal((size, len(r), len(s)))
        u = b_rs @ b_ss_inv + lo_g @ z @ col.T
        sig_ss = sigma[np.ix_(range(size), s, s)]
        sig_rs = u @ sig_ss
        sigma[np.ix_(range(size), r, s)] = sig_rs
        sigma[np.ix_(range(size), s, r)] = np.swapaxes(sig_rs, 1, 2)
        sigma[np.ix_(range(size), r, r)] = gamma + sig_rs @ np.swapaxes(u, 1, 2)
    omega = np.zeros((size, p, p))
    for cl in cliques:
        idx = list(cl)
        omega[np.ix_(range(size), idx, idx)] += np.linalg.inv(
            sigma[np.ix_(range(size), idx, idx)]
        )
    for sep in separators:
        if not sep:
            continue
        idx = list(sep)
        omega[np.ix_(range(size), idx, idx)] -= np.linalg.inv(
            sigma[np.ix_(range(size), idx, idx)]
        )
    return omega


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def _chol(m: np.ndarray) -> np.ndarray:
    return np.linalg.cholesky(m)


def _wishart_draw_reference(
    df: float, scale: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    q = scale.shape[0]
    lower = _chol(scale)
    f = solve_triangular(lower, np.eye(q), lower=True, trans="T")
    df_std = df + q - 1
    t = np.zeros((q, q))
    for i in range(q):
        t[i, i] = np.sqrt(rng.chisquare(df_std - i))
        for j in range(i):
            t[i, j] = rng.standard_normal()
    ft = f @ t
    return _sym(ft @ ft.T)


def sample_precision_reference(
    gram: np.ndarray,
    n: int,
    nu: float,
    g: float,
    cliques: list[frozenset[int]],
    separators: list[frozenset[int]],
    rng: np.random.Generator,
) -> np.ndarray:
    """One draw of Omega ~ W_G(n + nu, (1 + g) gram) clique by clique along
    a perfect sequence (Carvalho, Massam & West 2007), recomputing every
    scale block, Schur complement and Bartlett root per draw, and assembled
    by the clique-minus-separator completion: the distributional reference
    for the per-vertex sampler."""
    p = gram.shape[0]
    nu_post = n + nu
    b_full = (1.0 + g) * gram

    sigma = np.zeros((p, p))
    first = sorted(cliques[0])
    k = _wishart_draw_reference(nu_post, b_full[np.ix_(first, first)], rng)
    sigma[np.ix_(first, first)] = cho_solve((_chol(k), True), np.eye(len(first)))

    for l in range(1, len(cliques)):
        clique, sep = cliques[l], separators[l - 1]
        r_idx, s_idx = sorted(clique - sep), sorted(sep)
        nr, ns = len(r_idx), len(s_idx)
        if ns == 0:
            k = _wishart_draw_reference(nu_post, b_full[np.ix_(r_idx, r_idx)], rng)
            sigma[np.ix_(r_idx, r_idx)] = cho_solve((_chol(k), True), np.eye(nr))
            continue
        b_rr = b_full[np.ix_(r_idx, r_idx)]
        b_rs = b_full[np.ix_(r_idx, s_idx)]
        b_ss = b_full[np.ix_(s_idx, s_idx)]
        lo_ss = _chol(b_ss)
        half = solve_triangular(lo_ss, b_rs.T, lower=True)
        b_res = _sym(b_rr - half.T @ half)
        k_rr = _wishart_draw_reference(nu_post + ns, b_res, rng)
        gamma = cho_solve((_chol(k_rr), True), np.eye(nr))
        mean_u = cho_solve((lo_ss, True), b_rs.T).T
        lo_g = _chol(gamma)
        col_factor = solve_triangular(lo_ss, np.eye(ns), lower=True, trans="T")
        u = mean_u + lo_g @ rng.standard_normal((nr, ns)) @ col_factor.T
        sig_rs = u @ sigma[np.ix_(s_idx, s_idx)]
        sigma[np.ix_(r_idx, s_idx)] = sig_rs
        sigma[np.ix_(s_idx, r_idx)] = sig_rs.T
        sigma[np.ix_(r_idx, r_idx)] = _sym(gamma + sig_rs @ u.T)

    omega = np.zeros((p, p))
    for c in cliques:
        idx = sorted(c)
        lo = _chol(sigma[np.ix_(idx, idx)])
        omega[np.ix_(idx, idx)] += cho_solve((lo, True), np.eye(len(idx)))
    for s in separators:
        if not s:
            continue
        idx = sorted(s)
        lo = _chol(sigma[np.ix_(idx, idx)])
        omega[np.ix_(idx, idx)] -= cho_solve((lo, True), np.eye(len(idx)))
    return _sym(omega)


def gaussian_loglik_batch(x: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """log prod_i N(x_i; 0, inv(Omega)) for a batch of precisions."""
    n, p = x.shape
    gram = x.T @ x
    sign, logdet = np.linalg.slogdet(omegas)
    assert np.all(sign > 0)
    tr = np.einsum("nab,ba->n", omegas, gram)
    return -n * p / 2.0 * math.log(2 * math.pi) + n / 2.0 * logdet - 0.5 * tr


def mc_mean_and_se(log_values: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of exp(log_values), computed stably."""
    shift = log_values.max()
    w = np.exp(log_values - shift)
    mean = float(w.mean())
    se = float(w.std(ddof=1) / math.sqrt(len(w)))
    return mean * math.exp(shift), se * math.exp(shift)


def log_mc_mean_and_rel_se(log_values: np.ndarray) -> tuple[float, float]:
    """log of the MC mean of exp(log_values) and its relative standard error."""
    shift = log_values.max()
    w = np.exp(log_values - shift)
    mean = w.mean()
    rel_se = float(w.std(ddof=1) / math.sqrt(len(w)) / mean)
    return float(np.log(mean) + shift), rel_se


def decomposable_neighbors_reference(g: UndirectedGraph) -> list[tuple[int, int]]:
    """The decomposable single-edge neighbourhood, one local move test (and
    for an absent pair one BFS) per vertex pair, in lexicographic order."""
    if not is_decomposable(g):
        raise NotDecomposable("neighbourhood is defined for decomposable graphs only")
    return [
        (i, j)
        for i in range(g.p)
        for j in range(i + 1, g.p)
        if move_is_decomposable(g, (i, j))
    ]


def common_neighbour_mask(g: UndirectedGraph, u: int, v: int) -> int:
    """S = N(u) & N(v) as a vertex mask, one edge-set lookup per vertex."""
    return sum(
        1 << w for w in range(g.p)
        if w not in (u, v) and g.has_edge(u, w) and g.has_edge(v, w)
    )


def log_posterior_delta(scorer, g: UndirectedGraph, edge: Edge) -> float:
    """Log posterior of g' minus that of ``g`` for the move on ``edge``: the
    scorer's ``_delta`` with S = N(u) & N(v) and the move's direction read
    vertex by vertex from the edge set, the reference for every caller that
    hands ``_delta`` an S of its own."""
    u, v = edge
    sep = common_neighbour_mask(g, u, v)
    return scorer._delta(u, v, sep, g.size, not g.has_edge(u, v))


def candidate_graphs_reference(scorer, config) -> list[tuple[UndirectedGraph, float]]:
    """Thresholded candidates by the frozen-graph walk: pairs sorted as
    Python tuples by (-weight, i, j), one ``move_is_decomposable`` test per
    pair and a new graph per added edge, scored by the running sum of
    ``log_posterior_delta``."""
    data = scorer.data
    p = data.p
    out: list[tuple[UndirectedGraph, float]] = []
    seen: set[frozenset] = set()
    empty = UndirectedGraph.empty(p)
    empty_lp = scorer.score(empty).log_posterior
    for lam in config.ridge_grid:
        w = spd_inverse(data.gram / data.n + lam * np.eye(p))
        entries = [
            (abs(float(w[i, j])), i, j) for i in range(p) for j in range(i + 1, p)
        ]
        entries.sort(key=lambda t: (-t[0], t[1], t[2]))
        weights = np.array([t[0] for t in entries])
        lengths = sorted(
            {int(np.searchsorted(-weights, -tau, side="left"))
             for tau in config.threshold_grid}
        )
        g, lp = empty, empty_lp
        consumed = 0
        for length in lengths:
            while consumed < length:
                _, i, j = entries[consumed]
                consumed += 1
                if move_is_decomposable(g, (i, j)):
                    if lp > -math.inf:
                        lp += log_posterior_delta(scorer, g, (i, j))
                    g = g.toggled(i, j)
            if g.edges not in seen:
                seen.add(g.edges)
                out.append((g, lp))
                if len(out) >= config.max_candidates:
                    return out
    return out


def _add_candidates_reference(g: UndirectedGraph) -> list[Edge]:
    """The add-candidate filter rebuilt from a whole graph: the absent pairs
    in different components or with a common neighbour, in row-major order,
    from one depth-first labelling and one two-step adjacency product."""
    nbrs = g.neighbor_masks
    comp = [-1] * g.p
    for root in range(g.p):
        if comp[root] < 0:
            comp[root] = root
            stack = [root]
            while stack:
                w = stack.pop()
                for x in range(g.p):
                    if nbrs[w] >> x & 1 and comp[x] < 0:
                        comp[x] = root
                        stack.append(x)
    labels = np.asarray(comp)
    adj = adjacency(g)
    a = adj.astype(np.float32)
    mask = ~adj & (((a @ a) > 0) | (labels[:, None] != labels[None, :]))
    rows, cols = np.nonzero(np.triu(mask, 1))
    return list(zip(rows.tolist(), cols.tolist()))


def random_decomposable_move_reference(
    g: UndirectedGraph, add: bool, rng: np.random.Generator
) -> UndirectedGraph:
    """One random decomposable move with every candidate list rebuilt from
    ``g``: the add candidates (or the sorted edges) as a list of tuples,
    shuffled by ``rng``, and the first that passes ``move_is_decomposable``
    applied.  With no pair of the requested kind the move is of the other
    kind."""
    if g.size == (g.max_edges if add else 0):
        add = not add
    cand = _add_candidates_reference(g) if add else list(g.sorted_edges)
    rng.shuffle(cand)
    for e in cand:
        if move_is_decomposable(g, e):
            return g.toggled(*e)
    raise NoValidMove(f"no decomposability-preserving move exists at p={g.p}")


def case_graph_reference(
    case: int, truth_graph: UndirectedGraph, rng: np.random.Generator
) -> UndirectedGraph:
    """A posterior-ratio case graph built one reference move at a time."""
    k0 = truth_graph.size
    empty = UndirectedGraph.empty(truth_graph.p)
    g, target, add = {
        1: (truth_graph, 2 * k0, True),
        2: (truth_graph, k0 // 2, False),
        3: (empty, 2 * k0, True),
        4: (empty, k0 // 2, True),
    }[case]
    while g.size != target:
        g = random_decomposable_move_reference(g, add, rng)
    return g


def mcs_visit_reference(
    g: UndirectedGraph, priority: list[int] | None = None
) -> tuple[list[int], list[list[int]]]:
    """Maximum cardinality search by p argmax rounds over the dense
    adjacency: the visit order and each vertex's earlier neighbours in
    ascending order, ties toward the lowest vertex index or ``priority``
    value."""
    p = g.p
    adj = adjacency(g)
    weights = np.zeros(p, dtype=np.int64)
    visited = np.zeros(p, dtype=bool)
    if priority is None:
        rank = np.arange(p, dtype=np.int64)
    else:
        if sorted(priority) != list(range(p)):
            raise ValueError("priority must be a permutation of 0..p-1")
        rank = np.asarray(priority, dtype=np.int64)

    order: list[int] = []
    earlier: list[list[int]] = []
    for _ in range(p):
        # lexicographic argmax on (weight, -rank) over unvisited vertices
        key = weights * p - rank
        key[visited] = np.iinfo(np.int64).min
        z = int(np.argmax(key))
        mask = adj[z] & visited
        earlier.append(np.nonzero(mask)[0].tolist())
        visited[z] = True
        order.append(z)
        weights[adj[z]] += 1
    return order, earlier


class PrecisionSampler:
    """Draws of Omega from its posterior W_G(n+nu, D) given G, D = (1+g) X'X.

    Along a perfect numbering of G (MCS order, in which the earlier
    neighbours pa(v) of each vertex v form a clique), Omega = (I - B)'
    Lambda (I - B): row v of B holds the coefficients beta_v of v on pa(v),
    and Lambda = diag(lambda_v).  The pairs (lambda_v, beta_v) are
    independent (Roverato 2000, Biometrika 87):

        lambda_v ~ Gamma((n + nu + |pa(v)|) / 2, rate D_{v|pa} / 2),
        beta_v | lambda_v ~ N(inv(D_pa) D_{pa,v}, inv(lambda_v D_pa)),

    with D_{v|pa} = D_vv - D_{v,pa} inv(D_pa) D_{pa,v}.  Each pa(v) is a
    clique, so Omega has support exactly on G.

    Shapes, rates, means and the triangular factors of inv(D_pa) depend on
    the data, G and the hyperparameters only, so they are computed once
    here; ``draw`` is p gamma variates and |E| normals.  Raises
    NotDecomposable for a non-chordal graph, CliqueTooLarge when a clique
    has more than n vertices and NotPositiveDefinite when a clique's Gram
    block is singular.
    """

    def __init__(self, data: Dataset, g: UndirectedGraph, hyper: Hyperparameters):
        n, p = data.n, data.p
        if g.p != p:
            raise DimensionMismatch(f"graph p={g.p} does not match data p={p}")
        order, earlier = perfect_numbering(g)
        largest = 1 + max(len(pa) for pa in earlier)
        if largest > n:
            raise CliqueTooLarge(largest, n)
        self.graph = g
        self.p = p
        d = (1.0 + hyper.g) * data.gram
        self._shape = np.empty(p)
        self._scale = np.empty(p)
        # per vertex with parents: (v, pa, mean, factor, slice of the normals)
        self._rows: list[tuple] = []
        start = 0
        for v, pa in zip(order, earlier):
            self._shape[v] = (n + hyper.nu + len(pa)) / 2.0
            cond = d[v, v]
            if pa:
                # factor F with F F' = inv(D_pa), so F' D_{pa,v} = inv(L) D_{pa,v}
                factor = np.linalg.inv(cholesky_factor(d[np.ix_(pa, pa)])).T
                half = factor.T @ d[pa, v]
                cond -= half @ half
                self._rows.append(
                    (v, pa, factor @ half, factor, slice(start, start + len(pa)))
                )
                start += len(pa)
            if not cond > 0.0:
                raise NotPositiveDefinite(
                    f"Gram block of vertex {v} and its earlier neighbours "
                    f"{pa} is singular"
                )
            self._scale[v] = 2.0 / cond
        self._normals = start

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """One draw of Omega; consumes ``rng`` as p gamma variates in vertex
        order, then |E| normals, pa(v) by pa(v) in MCS order."""
        lam = rng.gamma(self._shape, self._scale)
        z = rng.standard_normal(self._normals)
        a = np.eye(self.p)
        for v, pa, mean, factor, block in self._rows:
            a[v, pa] = -(mean + factor @ z[block] / math.sqrt(lam[v]))
        root = np.sqrt(lam)[:, None] * a
        return symmetrize(root.T @ root)


def clique_separator_sum_reference(
    data: Dataset, g: UndirectedGraph, weight: Callable[[int], float]
) -> np.ndarray:
    """The former ``model._clique_separator_sum``, over the frozensets of
    ``perfect_sequence``: weight(|C|) * inv(Gram_C) summed over the cliques,
    each padded with zeros to p x p, minus the same sum over the separators.
    Raises CliqueTooLarge when a clique has more than n vertices."""
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


def posterior_mean_covariance_mc(
    data, g: UndirectedGraph, hyper, rng: np.random.Generator, draws: int
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo mean of Sigma = inv(Omega) over ``draws`` posterior draws
    of Omega given ``g``, and its entrywise standard error.  The inverse of
    the mean is the former Monte Carlo Stein-loss estimator, the reference
    for the closed form ``model.bayes_estimator_l1_stein``."""
    sampler = PrecisionSampler(data, g, hyper)
    sigmas = np.array([spd_inverse(sampler.draw(rng)) for _ in range(draws)])
    return sigmas.mean(axis=0), sigmas.std(axis=0, ddof=1) / math.sqrt(draws)

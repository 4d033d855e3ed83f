"""Mode hunting on a caller's scorer: ``threshold_init`` screens thresholded
candidates, ``shotgun_search`` climbs from a graph, ``hybrid_mode`` does both."""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .graph import (
    Edge,
    GrowingGraph,
    UndirectedGraph,
    _move_table,
    is_decomposable,
    random_decomposable_move,
)
from .model import Dataset, GraphScore, GraphScorer, Hyperparameters
from .numerics import spd_inverse
from .errors import CliqueTooLarge, NotDecomposable, NoValidMove

# random moves that perturb the incumbent before a shotgun restart
_RESTART_JITTER = 2


@dataclass(frozen=True)
class CandidateConfig:
    """Grids for the thresholded-candidate generator.

    Each ridge value gives a regularised precision surrogate
    inv(Gram/n + lam I); each threshold keeps the entries above it in
    magnitude.  Defaults yield 5000 (ridge, threshold) pairs before
    deduplication.
    """

    ridge_grid: tuple[float, ...] = tuple(np.logspace(-2.0, 1.0, 10))
    threshold_grid: tuple[float, ...] = tuple(np.linspace(0.0, 0.5, 500))
    max_candidates: int = 5000

    def __post_init__(self) -> None:
        if not all(0 < lam < math.inf for lam in self.ridge_grid):
            raise ValueError("ridge values must be positive and finite")
        if not all(t >= 0 for t in self.threshold_grid):
            # NaN fails this test; +inf keeps no pair and is allowed
            raise ValueError("thresholds must be nonnegative numbers")
        if self.max_candidates < 1:
            raise ValueError("max_candidates must be positive")


@dataclass(frozen=True)
class ModeSearchResult:
    """Best graph found, its score and work counter."""

    mode_graph: UndirectedGraph
    mode_score: GraphScore
    visited: int


def _ridge_edge_order(
    data: Dataset, lam: float, thresholds: tuple[float, ...]
) -> tuple[list[Edge], list[int]]:
    """Vertex pairs by decreasing |entry| of inv(Gram/n + lam I), ties by
    (i, j), and the sorted distinct prefix lengths the thresholds keep (the
    pairs whose weight exceeds each threshold)."""
    p = data.p
    w = spd_inverse(data.gram / data.n + lam * np.eye(p))
    rows, cols = np.triu_indices(p, 1)
    weights = np.abs(w[rows, cols])
    # triu_indices lists the pairs by (i, j), which a stable sort keeps for ties
    order = np.argsort(-weights, kind="stable")
    lengths = np.searchsorted(-weights[order], -np.asarray(thresholds), side="left")
    pairs = list(zip(rows[order].tolist(), cols[order].tolist()))
    return pairs, sorted(set(lengths.tolist()))


def _walk_candidates(
    scorer: GraphScorer, config: CandidateConfig
) -> Iterator[tuple[list[Edge], int, float]]:
    """Decomposable candidates from ridge-inverse thresholding plus greedy
    repair: yields (edges, count, log posterior under ``scorer``) once per
    new candidate, where the candidate's edges are ``edges[:count]`` and
    ``edges`` is a list that only grows.

    For each ridge value, each threshold keeps a prefix of the pairs sorted
    by weight, and its candidate is that prefix walked in order, keeping
    each edge whose addition preserves decomposability.  A longer prefix
    only appends pairs, so one incremental walk per ridge value yields all
    prefixes; its add-candidate filter decides most pairs from component
    labels and common neighbours without a search.  Order is deterministic
    and at most ``max_candidates`` candidates are yielded.

    Duplicates are dropped by pair bitmask, a Python int with bit k set
    when the k-th pair i < j in row-major order is an edge, looked up only
    when the walk has grown since the last prefix.  A score is the empty
    graph's score plus the deltas of the walk's additions, so a candidate
    outside the support scores -inf, as does every later one of its walk.

    Each ridge value's walk runs in two passes.  The first tests and makes
    the additions, recording each one's common-neighbour mask S, and the
    candidates; the scorer then factorises the Gram blocks of every scored
    addition, one stacked Cholesky per block size
    (``GraphScorer._factorise_walk``), and the second pass adds up the
    deltas from its cache.
    """
    data = scorer.data
    p = data.p
    seen: set[int] = set()
    empty_lp = scorer.score(UndirectedGraph.empty(p)).log_posterior
    for lam in config.ridge_grid:
        pairs, lengths = _ridge_edge_order(data, lam, config.threshold_grid)
        walk = GrowingGraph(UndirectedGraph.empty(p))
        nbrs = walk.neighbor_masks
        added: list[tuple[int, int, int]] = []  # (u, v, S) per addition
        ends: list[int] = []  # len(added) at each new candidate
        key = 0
        consumed = 0
        tested_size = -1  # the walk's size when its key was last looked up
        for length in lengths:
            for i, j in pairs[consumed:length]:
                if walk.can_add(i, j):
                    added.append((i, j, nbrs[i] & nbrs[j]))
                    walk.add(i, j)
                    # bit k for the k-th pair i < j in row-major order
                    key |= 1 << (i * (2 * p - i - 3) // 2 + j - 1)
            consumed = length
            if walk.size == tested_size:
                continue  # not grown: the graph last looked up, so in ``seen``
            tested_size = walk.size
            if key not in seen:
                seen.add(key)
                ends.append(len(added))
                if len(seen) >= config.max_candidates:
                    break
        scorer._factorise_walk(added)
        edges = [(i, j) for i, j, _ in added]
        lp = empty_lp
        scored = 0
        for end in ends:
            while scored < end and lp > -math.inf:
                i, j, sep = added[scored]
                lp += scorer._delta(i, j, sep, scored, True)
                scored += 1
            yield edges, end, lp
        if len(seen) >= config.max_candidates:
            return


def threshold_init(
    scorer: GraphScorer, config: CandidateConfig | None = None
) -> tuple[UndirectedGraph, int]:
    """Highest-scoring thresholded candidate and the number of candidates.

    Ties go to the earliest candidate, and the empty graph is returned when
    every candidate lies outside the support.  The candidates are ranked as
    the walk makes them, so only a candidate that beats the best so far is
    frozen.  ``scorer`` keeps the log determinants of the walk, so a chain
    or search that goes on from the candidate with the same scorer does not
    factorise them again.
    """
    best_edges: frozenset[Edge] = frozenset()
    best_lp = -math.inf
    count = 0
    for edges, end, lp in _walk_candidates(scorer, config or CandidateConfig()):
        count += 1
        if lp > best_lp:
            best_edges, best_lp = frozenset(edges[:end]), lp
    return UndirectedGraph._trusted(scorer.data.p, best_edges), count


def shotgun_search(
    init: UndirectedGraph,
    scorer: GraphScorer,
    max_iters: int = 30,
    rng: np.random.Generator | None = None,
) -> ModeSearchResult:
    """Greedy best-neighbour ascent with random restarts, scored by ``scorer``.

    Each step scores every decomposable single-edge neighbour by its move
    delta and moves to the best when it improves the current score; at a
    local optimum the search restarts from the incumbent best perturbed by
    two random decomposability-preserving moves, or stops there when no rng
    is given.  Neighbours with a clique larger than n are skipped, and a
    restart whose jitter creates one starts from the unperturbed incumbent.
    Only the states moved to get a full score.  Raises ValueError for a
    negative ``max_iters`` and NotDecomposable for a non-decomposable init.
    """
    if max_iters < 0:
        raise ValueError(f"max_iters must be nonnegative, got {max_iters}")
    if not is_decomposable(init):
        raise NotDecomposable("initial graph must be decomposable")
    current = init
    cur_lp = scorer.score(current).log_posterior
    best_g, best_lp = current, cur_lp
    visited = 1
    for _ in range(max_iters):
        moved = False
        nbr_best: Edge | None = None
        nbr_lp = -math.inf
        nbrs, size = current.neighbor_masks, current.size
        for u, v, sep in _move_table(current):
            if cur_lp > -math.inf:
                # a neighbour outside the support scores -inf, never taken
                lp = cur_lp + scorer._delta(u, v, sep, size, not nbrs[u] >> v & 1)
            else:
                # above r_max (a jittered restart or the initial graph) there
                # is no finite score to add a delta to
                lp = scorer.score(current.toggled(u, v)).log_posterior
            visited += 1
            if lp > nbr_lp:
                nbr_best, nbr_lp = (u, v), lp
        if nbr_best is not None and nbr_lp > cur_lp:
            current = current.toggled(*nbr_best)
            cur_lp = scorer.score(current).log_posterior
            moved = True
            if cur_lp > best_lp:
                best_g, best_lp = current, cur_lp
        if not moved:
            if rng is None:
                break
            current = best_g
            for _ in range(_RESTART_JITTER):
                try:
                    current = random_decomposable_move(current, rng.random() < 0.5, rng)
                except NoValidMove:
                    pass
            try:
                cur_lp = scorer.score(current).log_posterior
            except CliqueTooLarge:
                # the jitter left the support; restart from the incumbent
                current, cur_lp = best_g, best_lp
            visited += 1
    return ModeSearchResult(
        mode_graph=best_g,
        mode_score=scorer.score(best_g),
        visited=visited,
    )


def hybrid_mode(
    data: Dataset,
    hyper: Hyperparameters,
    config: CandidateConfig | None = None,
    search_iters: int = 30,
    rng: np.random.Generator | None = None,
) -> ModeSearchResult:
    """``threshold_init``, then ``shotgun_search`` from its graph on the
    same scorer, which reuses the walk's log determinants.  Each candidate
    counts once in ``visited``."""
    scorer = GraphScorer(data, hyper)
    start, n_candidates = threshold_init(scorer, config)
    refined = shotgun_search(start, scorer, search_iters, rng)
    return replace(refined, visited=refined.visited + n_candidates)

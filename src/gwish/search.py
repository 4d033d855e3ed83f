"""Mode hunting: thresholded candidates, greedy repair and shotgun refinement."""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .graph import (
    Edge,
    GrowingGraph,
    UndirectedGraph,
    decomposable_neighbors,
    random_decomposable_move,
)
from .model import Dataset, GraphScore, GraphScorer, Hyperparameters
from .numerics import spd_inverse
from .errors import CliqueTooLarge, NoValidMove

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
    """Best graph found, its score, work counter and best-so-far trace."""

    mode_graph: UndirectedGraph
    mode_score: GraphScore
    visited: int
    score_trace: tuple[float, ...]


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
    order = np.lexsort((cols, rows, -weights))
    lengths = np.searchsorted(-weights[order], -np.asarray(thresholds), side="left")
    pairs = list(zip(rows[order].tolist(), cols[order].tolist()))
    return pairs, sorted(set(lengths.tolist()))


def _walk_candidates(
    scorer: GraphScorer, config: CandidateConfig
) -> Iterator[tuple[GrowingGraph, float]]:
    """The walk behind ``candidate_graphs``: yields (walk, log posterior)
    once per new candidate, in the order that ``candidate_graphs`` lists
    them.  ``walk`` is the live ``GrowingGraph``: the caller reads it before
    it draws the next item and never changes it.

    A candidate is known by its pair bitmask, a Python int with one bit per
    vertex pair i < j, numbered in row-major order, set for each edge.  So
    the deduplication keeps one int of at most p(p-1)/2 bits per candidate
    and builds no edge set.
    """
    data = scorer.data
    p = data.p
    seen: set[int] = set()
    empty_lp = scorer.score(UndirectedGraph.empty(p)).log_posterior
    for lam in config.ridge_grid:
        pairs, lengths = _ridge_edge_order(data, lam, config.threshold_grid)
        walk = GrowingGraph(UndirectedGraph.empty(p))
        lp = empty_lp
        key = 0
        consumed = 0
        tested_size = -1  # the walk's size when its key was last looked up
        for length in lengths:
            for i, j in pairs[consumed:length]:
                if walk.can_add(i, j):
                    if lp > -math.inf:
                        lp += scorer.log_posterior_delta(walk, (i, j))
                    walk.add(i, j)
                    # bit k for the k-th pair i < j in row-major order
                    key |= 1 << (i * (2 * p - i - 3) // 2 + j - 1)
            consumed = length
            if walk.size == tested_size:
                continue  # not grown: the graph last looked up, so in ``seen``
            tested_size = walk.size
            if key not in seen:
                seen.add(key)
                yield walk, lp
                if len(seen) >= config.max_candidates:
                    return


def candidate_graphs(
    scorer: GraphScorer, config: CandidateConfig | None = None
) -> list[tuple[UndirectedGraph, float]]:
    """Decomposable candidates from ridge-inverse thresholding plus repair,
    each with its log posterior under ``scorer``.

    For each ridge value, each threshold keeps a prefix of the pairs sorted
    by weight, and the greedy repair of that prefix is a candidate: the
    prefix walked in order, keeping each edge whose addition preserves
    decomposability.  Since a longer prefix only appends pairs, one
    incremental walk per ridge value yields all prefixes.  The walk grows a
    ``GrowingGraph`` from the empty graph, whose add-candidate filter
    decides most pairs from its component labels and common neighbours
    without a search.  The walk looks a prefix's graph up among the earlier
    candidates only when it has grown since the last prefix, by its pair
    bitmask (one bit per vertex pair).  Duplicates are dropped, order is
    deterministic, and at most ``max_candidates`` (graph, log posterior)
    pairs are returned.  This list holds a frozen graph per candidate;
    ``threshold_init`` and ``hybrid_mode`` rank the same walk as it runs
    and keep only the best graph.

    A score is the empty graph's score plus the move deltas of the additions
    along the walk.  A candidate outside the support scores -inf, and so
    does every later one of its walk, since the walk only adds edges.
    """
    p = scorer.data.p
    return [
        (UndirectedGraph._trusted(p, frozenset(walk.edges)), lp)
        for walk, lp in _walk_candidates(scorer, config or CandidateConfig())
    ]


def _best_candidate(
    scorer: GraphScorer, config: CandidateConfig | None
) -> tuple[UndirectedGraph, int]:
    """Highest-scoring candidate of ``candidate_graphs`` (earliest on ties,
    the empty graph when every candidate is outside the support) and the
    number of candidates, ranked as the walk makes them: only a candidate
    that beats the best so far is frozen.  ``scorer`` keeps the log
    determinants of the walk, so a chain or search that goes on from the
    candidate with the same scorer does not factorise them again."""
    best_edges: frozenset[Edge] = frozenset()
    best_lp = -math.inf
    count = 0
    for walk, lp in _walk_candidates(scorer, config or CandidateConfig()):
        count += 1
        if lp > best_lp:
            best_edges, best_lp = frozenset(walk.edges), lp
    return UndirectedGraph._trusted(scorer.data.p, best_edges), count


def threshold_init(
    data: Dataset,
    hyper: Hyperparameters,
    config: CandidateConfig | None = None,
) -> UndirectedGraph:
    """Highest-scoring thresholded candidate; ties go to the earliest.

    Returns the empty graph when every candidate lies outside the support.
    The candidates of ``candidate_graphs`` are ranked as the walk makes
    them, deduplicated by their pair bitmasks, so only the best graph so
    far is kept.
    """
    return _best_candidate(GraphScorer(data, hyper), config)[0]


def shotgun_search(
    init: UndirectedGraph,
    data: Dataset,
    hyper: Hyperparameters,
    max_iters: int = 30,
    rng: np.random.Generator | None = None,
) -> ModeSearchResult:
    """Greedy best-neighbour ascent with random restarts.

    Each step scores every decomposable single-edge neighbour by its move
    delta and moves to the best when it improves the current score; at a
    local optimum the search restarts from the incumbent best perturbed by
    two random decomposability-preserving moves (skipped when no rng is
    given, in which case the search stops there).  Neighbours with a clique
    larger than n are skipped, and a restart whose jitter creates one starts
    from the unperturbed incumbent.  Only the states the search moves to get
    a full score.  The score trace records the incumbent after each step and
    never decreases.  Raises ValueError for a negative ``max_iters``.
    """
    return _shotgun(init, GraphScorer(data, hyper), max_iters, rng)


def _shotgun(
    init: UndirectedGraph,
    scorer: GraphScorer,
    max_iters: int,
    rng: np.random.Generator | None,
) -> ModeSearchResult:
    """The ascent of ``shotgun_search``, scoring with ``scorer``."""
    if max_iters < 0:
        raise ValueError(f"max_iters must be nonnegative, got {max_iters}")
    current = init
    cur_lp = scorer.score(current).log_posterior
    best_g, best_lp = current, cur_lp
    visited = 1
    trace: list[float] = []
    for _ in range(max_iters):
        moved = False
        nbr_best: Edge | None = None
        nbr_lp = -math.inf
        for e in decomposable_neighbors(current):
            if cur_lp > -math.inf:
                # a neighbour outside the support scores -inf, never taken
                lp = cur_lp + scorer.log_posterior_delta(current, e)
            else:
                # above r_max (a jittered restart or the initial graph) there
                # is no finite score to add a delta to
                lp = scorer.score(current.toggled(*e)).log_posterior
            visited += 1
            if lp > nbr_lp:
                nbr_best, nbr_lp = e, lp
        if nbr_best is not None and nbr_lp > cur_lp:
            current = current.toggled(*nbr_best)
            cur_lp = scorer.score(current).log_posterior
            moved = True
            if cur_lp > best_lp:
                best_g, best_lp = current, cur_lp
        trace.append(best_lp)
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
        score_trace=tuple(trace),
    )


def hybrid_mode(
    data: Dataset,
    hyper: Hyperparameters,
    config: CandidateConfig | None = None,
    search_iters: int = 30,
    rng: np.random.Generator | None = None,
) -> ModeSearchResult:
    """Score all candidates, then refine the best by shotgun search.

    The candidates are ranked as the threshold walk makes them, as in
    ``threshold_init``, and each counts once in ``visited``.  The walk and
    the search share one scorer, so the search reuses the walk's log
    determinants.
    """
    scorer = GraphScorer(data, hyper)
    start, n_candidates = _best_candidate(scorer, config)
    refined = _shotgun(start, scorer, search_iters, rng)
    return ModeSearchResult(
        mode_graph=refined.mode_graph,
        mode_score=refined.mode_score,
        visited=refined.visited + n_candidates,
        score_trace=refined.score_trace,
    )

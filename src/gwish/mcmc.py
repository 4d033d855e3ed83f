"""Metropolis-Hastings over decomposable graphs.

A proposal is one edge move (u, v, S), S = N(u) & N(v): it deletes (u, v)
if present and adds it otherwise.  Each ``KERNELS`` entry proposes a move
with its log Hastings ratio.  ``uniform`` flips a fair coin and draws one
existing edge (delete) or one absent pair (add), uniformly; ``exact`` draws
uniformly from the table of decomposable moves (``graph._move_table``) and
corrects by the table sizes.  Both leave the graph posterior invariant.

The support is the decomposable graphs with at most r_max edges and no
clique larger than n; a proposal outside it is a rejected step, never an
error (Giudici & Green 1999).  ``mh_step`` scores every other proposal by
the four-term delta of ``GraphScorer._delta``; only an accepted move builds
the new graph and gives it a full score, so every recorded score is exact.

The model-averaged precision estimate E[Omega | X] = sum_G pi(G | X)
E[Omega | G, X] averages the closed-form ``posterior_mean_precision`` over
the kept states (Rao-Blackwellisation), so only ``mh_step`` consumes the
chain's generator.  It is the CLI's ``mcmc --sample-precision``; ``estimate``
computes the estimators given one graph.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import CliqueTooLarge, NotDecomposable
from .graph import (
    UndirectedGraph,
    _move_table,
    enumerate_decomposable_graphs,
    is_decomposable,
    move_is_decomposable,
)
from .model import (
    Dataset,
    GraphScore,
    GraphScorer,
    Hyperparameters,
    posterior_mean_precision,
)
from .numerics import make_rng
from .search import threshold_init

@dataclass(frozen=True)
class ChainConfig:
    """Chain schedule and sampling options.

    ``init`` is "empty", "threshold" (highest-scoring thresholded candidate,
    see the search module) or an explicit decomposable graph.  When
    ``sample_precision`` is set, the chain also averages the posterior mean
    of Omega given each kept graph, so it needs ``iterations > 0``; it draws
    no variate for it, so the graphs visited are the same either way.
    ``track_graphs`` additionally counts visits per graph after burn-in
    (small graph spaces only).
    """

    iterations: int = 3000
    burn_in: int = 3000
    seed: int = 0
    stream: int = 0
    kernel: str = "uniform"
    init: UndirectedGraph | str = "empty"
    sample_precision: bool = False
    track_graphs: bool = False

    def __post_init__(self) -> None:
        if self.iterations < 0 or self.burn_in < 0:
            raise ValueError("iterations and burn_in must be nonnegative")
        if self.sample_precision and self.iterations == 0:
            raise ValueError("sample_precision needs iterations > 0")
        if self.kernel not in KERNELS:
            raise ValueError(
                f"kernel must be one of {tuple(KERNELS)}, got {self.kernel!r}"
            )
        if isinstance(self.init, str) and self.init not in ("empty", "threshold"):
            raise ValueError(f"unknown init {self.init!r}")


@dataclass
class ChainState:
    """Current graph with its cached score; ``table`` memoises the exact
    kernel's move table, (u, v, S) per move (``graph._move_table``)."""

    graph: UndirectedGraph
    score: GraphScore
    table: list[tuple[int, int, int]] | None = None


@dataclass
class ChainResult:
    """Post-burn-in summaries plus full traces of one chain."""

    p: int
    iterations: int
    inclusion: np.ndarray
    log_posterior_trace: np.ndarray
    size_trace: np.ndarray
    accepted_trace: np.ndarray
    best_graph: UndirectedGraph
    best_score: GraphScore
    precision_mean: np.ndarray | None = None
    graph_counts: Counter = field(default_factory=Counter)

    @property
    def acceptance_rate(self) -> float:
        if len(self.accepted_trace) == 0:
            return 0.0
        return float(np.mean(self.accepted_trace))


# a move (u, v, S), its log Hastings ratio and the move table of G', if any
Proposal = tuple[tuple[int, int, int], float, list[tuple[int, int, int]] | None]


def _uniform_absent_pair(
    g: UndirectedGraph, rng: np.random.Generator
) -> tuple[int, int]:
    while True:
        i = int(rng.integers(g.p))
        j = int(rng.integers(g.p - 1))
        if j >= i:
            j += 1
        e = (i, j) if i < j else (j, i)
        if e not in g.edges:
            return e


def _propose_uniform(state: ChainState, rng: np.random.Generator) -> Proposal | None:
    """One fair coin, then one uniform edge (delete) or absent pair (add):
    the move (u, v, S), its log Hastings ratio log q(G|G') - log q(G'|G) and
    no table; None when the coin finds no edge of its kind or the move
    breaks decomposability."""
    g = state.graph
    m, k = g.max_edges, g.size
    if rng.random() < 0.5:
        if k == 0:
            return None
        u, v = g.sorted_edges[int(rng.integers(k))]
        lqr = math.log(k) - math.log(m - k + 1)
    else:
        if k == m:
            return None
        u, v = _uniform_absent_pair(g, rng)
        lqr = math.log(m - k) - math.log(k + 1)
    if not move_is_decomposable(g, (u, v)):
        return None
    nbrs = g.neighbor_masks
    return (u, v, nbrs[u] & nbrs[v]), lqr, None


def _propose_exact(state: ChainState, rng: np.random.Generator) -> Proposal:
    """One uniform move (u, v, S) from the state's move table, its log
    Hastings ratio (the log ratio of the two table sizes) and the move table
    of the graph it leads to."""
    if state.table is None:
        # memoised so a rejected step does not rebuild it next time
        state.table = _move_table(state.graph)
    table = state.table
    move = table[int(rng.integers(len(table)))]
    table_new = _move_table(state.graph.toggled(move[0], move[1]))
    return move, math.log(len(table)) - math.log(len(table_new)), table_new


# name -> (state, rng) -> Proposal, or None for a step rejected unscored
KERNELS = {"uniform": _propose_uniform, "exact": _propose_exact}


def mh_step(
    state: ChainState,
    scorer: GraphScorer,
    kernel: str,
    rng: np.random.Generator,
) -> tuple[ChainState, bool]:
    """Advance one Metropolis-Hastings step; returns (state, accepted).

    A uniform draw with no posterior mass is rejected before it is scored
    or an acceptance variate is drawn; a move past r_max or to a clique
    larger than n is scored, with a delta of -inf.  Only an accepted move
    builds and fully scores the new graph.  At p = 1 every step is a
    rejected proposal that draws nothing.  Raises ValueError for a kernel
    not in KERNELS.
    """
    if kernel not in KERNELS:
        raise ValueError(f"kernel must be one of {tuple(KERNELS)}, got {kernel!r}")
    g = state.graph
    if g.max_edges == 0:
        return state, False
    proposal = KERNELS[kernel](state, rng)
    if proposal is None:
        return state, False
    (i, j, sep), lqr, table_new = proposal
    adding = not g.neighbor_masks[i] >> j & 1
    log_alpha = scorer._delta(i, j, sep, g.size, adding) + lqr
    u = rng.random()
    if math.log(u) < log_alpha:
        g_new = g.toggled(i, j)
        return ChainState(g_new, scorer.score(g_new), table_new), True
    return state, False


def _resolve_init(config: ChainConfig, scorer: GraphScorer) -> UndirectedGraph:
    # the threshold start is ranked with the chain's own scorer, so the
    # chain reuses the walk's log determinants
    if isinstance(config.init, UndirectedGraph):
        if not is_decomposable(config.init):
            raise NotDecomposable("initial graph must be decomposable")
        return config.init
    if config.init == "empty":
        return UndirectedGraph.empty(scorer.data.p)
    return threshold_init(scorer)[0]


def run_chain(
    config: ChainConfig, data: Dataset, hyper: Hyperparameters
) -> ChainResult:
    """Run burn_in + iterations MH steps and accumulate summaries.

    Edge inclusion frequencies, optional precision averaging and graph visit
    counts use post-burn-in states only; traces cover every step.  Both
    averages are counted per run of kept steps in one graph, once, when a
    move is accepted and at the end: the run's length is added to each of
    its edges, and the precision sum gains the run's length times
    ``posterior_mean_precision`` of its graph.  The inclusion sums are
    integers, exact in float64, so the frequencies are the same bits as
    counting every step.  All randomness comes from the (seed, stream)
    generator and only ``mh_step`` draws from it, so reruns with the same
    config are bit-identical, and ``sample_precision`` leaves the graphs
    visited unchanged.
    """
    rng = make_rng(config.seed, config.stream)
    scorer = GraphScorer(data, hyper)
    g0 = _resolve_init(config, scorer)
    state = ChainState(g0, scorer.score(g0))
    p = data.p

    total = config.burn_in + config.iterations
    log_post = np.empty(total)
    sizes = np.empty(total, dtype=np.int64)
    accepts = np.zeros(total, dtype=bool)
    inclusion = np.zeros((p, p))
    best_graph, best_score = state.graph, state.score
    prec_sum = np.zeros((p, p)) if config.sample_precision else None
    counts: Counter = Counter()
    run_graph, run_length = state.graph, 0  # kept steps in the current state

    def add_run() -> None:
        for i, j in run_graph.edges:
            inclusion[i, j] += run_length
        if prec_sum is not None and run_length:
            mean = posterior_mean_precision(data, run_graph, hyper)
            prec_sum[...] += run_length * mean

    lp, size = state.score.log_posterior, state.graph.size
    for it in range(total):
        state, accepted = mh_step(state, scorer, config.kernel, rng)
        if accepted:
            # a rejected step keeps the state, so its score, size and the best
            lp, size = state.score.log_posterior, state.graph.size
            accepts[it] = True
            if lp > best_score.log_posterior:
                best_graph, best_score = state.graph, state.score
        log_post[it] = lp
        sizes[it] = size
        if it < config.burn_in:
            continue
        if accepted and run_length:
            add_run()
            run_length = 0
        run_graph = state.graph
        run_length += 1
        if config.track_graphs:
            counts[state.graph] += 1

    add_run()
    if config.iterations > 0:
        inclusion /= config.iterations
    precision_mean = None if prec_sum is None else prec_sum / config.iterations
    inclusion = inclusion + inclusion.T

    return ChainResult(
        p=p,
        iterations=config.iterations,
        inclusion=inclusion,
        log_posterior_trace=log_post,
        size_trace=sizes,
        accepted_trace=accepts,
        best_graph=best_graph,
        best_score=best_score,
        precision_mean=precision_mean,
        graph_counts=counts,
    )


def median_probability_graph(
    result: ChainResult, threshold: float = 0.5
) -> UndirectedGraph:
    """Edges whose inclusion frequency strictly exceeds the threshold.

    The result is reported as-is; it need not be decomposable.
    """
    p = result.p
    edges = [
        (i, j)
        for i in range(p)
        for j in range(i + 1, p)
        if result.inclusion[i, j] > threshold
    ]
    return UndirectedGraph.from_edges(p, edges)


def exact_posterior(
    data: Dataset, hyper: Hyperparameters
) -> dict[UndirectedGraph, float]:
    """Exact graph posterior by enumeration (tiny p only).

    Scores every decomposable graph on data.p vertices and normalises with
    a log-sum-exp.  Graphs outside the support are dropped: more than r_max
    edges, which score -inf, or a clique with more vertices than the sample
    size, whose score raises CliqueTooLarge before any block is factorised.
    """
    scorer = GraphScorer(data, hyper)
    scored: list[tuple[UndirectedGraph, float]] = []
    for g in enumerate_decomposable_graphs(data.p):
        try:
            lp = scorer.score(g).log_posterior
        except CliqueTooLarge:
            continue
        if lp > -math.inf:
            scored.append((g, lp))
    top = max(lp for _, lp in scored)
    weights = [(g, math.exp(lp - top)) for g, lp in scored]
    z = sum(w for _, w in weights)
    return {g: w / z for g, w in weights}


def visit_frequencies(result: ChainResult) -> dict[UndirectedGraph, float]:
    """Post-burn-in visit frequencies (requires track_graphs)."""
    total = sum(result.graph_counts.values())
    if total == 0:
        raise ValueError("no tracked visits; run with track_graphs=True")
    return {g: c / total for g, c in result.graph_counts.items()}


def tv_distance(
    freq: dict[UndirectedGraph, float], exact: dict[UndirectedGraph, float]
) -> float:
    """Total variation distance between two graph distributions."""
    keys: set[UndirectedGraph] = set(freq) | set(exact)
    return 0.5 * sum(abs(freq.get(k, 0.0) - exact.get(k, 0.0)) for k in keys)

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gwish.mcmc
from gwish.errors import NotDecomposable
from gwish.graph import (
    UndirectedGraph,
    _move_table,
    enumerate_decomposable_graphs,
    is_decomposable,
)
from gwish.mcmc import (
    KERNELS,
    ChainConfig,
    ChainResult,
    ChainState,
    exact_posterior,
    median_probability_graph,
    mh_step,
    run_chain,
    tv_distance,
    visit_frequencies,
    _propose_exact,
    _propose_uniform,
)
from gwish.model import GraphScorer, Hyperparameters, posterior_mean_precision
from gwish.numerics import make_rng
from gwish.search import threshold_init
from gwish.simulate import TrueModelSpec, build_truth, sample_dataset

from conftest import chordal_graphs
from oracles import (
    common_neighbour_mask,
    decomposable_neighbors_reference,
    perfect_sequence,
)


class FakeRng:
    """Plays back scripted draws for proposal-path tests."""

    def __init__(self, randoms=(), ints=()):
        self.randoms = list(randoms)
        self.ints = list(ints)

    def random(self):
        return self.randoms.pop(0)

    def integers(self, n):
        v = self.ints.pop(0)
        assert 0 <= v < n
        return v


class FixedDelta:
    """Scores every move with one fixed delta; full scores are not needed."""

    def __init__(self, delta):
        self.delta = delta

    def _delta(self, *move):
        return self.delta

    def score(self, g):
        return None


class NoScorer:
    """Fails the test on any use."""

    def __getattr__(self, name):
        raise AssertionError(f"scorer.{name} used")


def path_graph(p, k):
    return UndirectedGraph.from_edges(p, [(i, i + 1) for i in range(k)])


class TestUniformProposal:
    def test_add_ratio_frozen_value(self):
        # p=10, k=5: adding gives log((m-k)/(k+1)) = log(40/6)
        g = path_graph(10, 5)
        rng = FakeRng(randoms=[0.9], ints=[0, 8])  # coin -> add, pair -> (0, 9)
        move, lqr, table = _propose_uniform(ChainState(g, None), rng)
        assert move == (0, 9, 0) and not g.has_edge(0, 9) and table is None
        assert lqr == pytest.approx(math.log(40.0 / 6.0), abs=1e-12)
        assert lqr == pytest.approx(1.8971199848858813, abs=1e-12)

    def test_delete_ratio(self):
        # p=10, k=5: deleting gives log(k/(m-k+1)) = log(5/41)
        g = path_graph(10, 5)
        rng = FakeRng(randoms=[0.1], ints=[0])  # coin -> delete, edge 0 = (0,1)
        move, lqr, table = _propose_uniform(ChainState(g, None), rng)
        assert move == (0, 1, 0) and g.has_edge(0, 1) and table is None
        assert lqr == pytest.approx(math.log(5.0 / 41.0), abs=1e-12)

    # a draw with no posterior mass is a rejected step before any score or
    # acceptance draw: the FakeRng has no u to give, NoScorer fails on use
    @pytest.mark.parametrize(
        "g, coin",
        [(UndirectedGraph.empty(4), 0.1), (UndirectedGraph.complete(4), 0.9)],
        ids=["delete-coin-on-empty", "add-coin-on-complete"],
    )
    def test_coin_without_an_edge_is_rejected(self, g, coin):
        state = ChainState(g, None)
        rng = FakeRng(randoms=[coin])
        new, accepted = mh_step(state, NoScorer(), "uniform", rng)
        assert new is state and not accepted
        assert rng.randoms == [] and rng.ints == []

    def test_non_decomposable_move_is_rejected(self):
        # path 0-1-2-3: adding (0,3) closes a chordless four-cycle
        state = ChainState(path_graph(4, 3), None)
        rng = FakeRng(randoms=[0.9], ints=[0, 2])  # coin -> add, pair -> (0, 3)
        new, accepted = mh_step(state, NoScorer(), "uniform", rng)
        assert new is state and not accepted
        assert rng.randoms == [] and rng.ints == []


KERNEL_ERROR = "kernel must be one of ('uniform', 'exact'), got 'swap'"


class TestExactProposal:
    def test_neighbourhood_ratio(self):
        # path on 4 vertices has 5 decomposable neighbours; adding (0,2)
        # yields a triangle with a tail, which has 6
        g = path_graph(4, 3)
        pairs = decomposable_neighbors_reference(g)
        assert len(pairs) == 5
        state = ChainState(g, None)
        rng = FakeRng(ints=[pairs.index((0, 2))])
        move, lqr, table_new = _propose_exact(state, rng)
        assert [(u, v) for u, v, _ in state.table] == pairs
        assert move == (0, 2, 0b10)  # S = {1}
        g2 = g.toggled(0, 2)
        assert table_new == _move_table(g2)
        assert [(u, v) for u, v, _ in table_new] == decomposable_neighbors_reference(g2)
        assert len(table_new) == 6
        assert lqr == pytest.approx(math.log(5.0 / 6.0), abs=1e-12)

    def test_move_table_memo(self, monkeypatch):
        # a fresh state builds its own table and that of G'; a rejected step
        # keeps the memo, and an accepted state starts with the table of G'
        built = []

        def counted(g):
            built.append(g)
            return _move_table(g)

        monkeypatch.setattr(gwish.mcmc, "_move_table", counted)
        state = ChainState(path_graph(4, 3), None)
        for delta, accept, tables in [
            (-math.inf, False, 2), (-math.inf, False, 1), (math.inf, True, 1),
            (-math.inf, False, 1),
        ]:
            del built[:]
            rng = FakeRng(randoms=[0.5], ints=[0])
            state, accepted = mh_step(state, FixedDelta(delta), "exact", rng)
            assert accepted == accept and len(built) == tables
            assert state.table == _move_table(state.graph)

    def test_unknown_kernel(self, small_data):
        # raised before any draw: FakeRng has none to give
        scorer = GraphScorer(small_data, Hyperparameters())
        g = UndirectedGraph.empty(4)
        with pytest.raises(ValueError, match=re.escape(KERNEL_ERROR)):
            mh_step(ChainState(g, scorer.score(g)), scorer, "swap", FakeRng())

    def test_config_error_lists_the_kernels(self):
        with pytest.raises(ValueError, match=re.escape(KERNEL_ERROR)):
            ChainConfig(kernel="swap")


class TestProposalSeparators:
    @settings(max_examples=100, deadline=None)
    @given(chordal_graphs, st.integers(0, 2**32 - 1))
    def test_valid_proposals_carry_their_separator(self, g, seed):
        # every kernel's S is N(u) & N(v) of the current graph, whatever
        # the move's direction, and the move keeps g decomposable
        rng = make_rng(seed)
        for kernel, propose in KERNELS.items():
            state = ChainState(g, None)
            for _ in range(10):
                proposal = propose(state, rng)
                if proposal is None:
                    continue
                (u, v, sep), _, _ = proposal
                assert u < v and sep == common_neighbour_mask(g, u, v), kernel
                assert is_decomposable(g.toggled(u, v))


@pytest.fixture(scope="module")
def small_data():
    truth = build_truth(TrueModelSpec(kind="ar1", p=4))
    return sample_dataset(truth, n=60, rng=make_rng(5))


class TestRunChain:
    def test_bit_identical_reruns(self, small_data):
        hyper = Hyperparameters(g=0.2)
        config = ChainConfig(iterations=400, burn_in=100, seed=11, stream=2)
        a = run_chain(config, small_data, hyper)
        b = run_chain(config, small_data, hyper)
        assert np.array_equal(a.log_posterior_trace, b.log_posterior_trace)
        assert np.array_equal(a.inclusion, b.inclusion)
        assert np.array_equal(a.size_trace, b.size_trace)
        assert a.best_graph == b.best_graph

    def test_seed_changes_trajectory(self, small_data):
        hyper = Hyperparameters(g=0.2)
        a = run_chain(ChainConfig(iterations=400, burn_in=0, seed=1), small_data, hyper)
        b = run_chain(ChainConfig(iterations=400, burn_in=0, seed=2), small_data, hyper)
        assert not np.array_equal(a.size_trace, b.size_trace)

    def test_traces_cover_burn_in(self, small_data):
        config = ChainConfig(iterations=50, burn_in=30, seed=0)
        res = run_chain(config, small_data, Hyperparameters(g=0.2))
        assert len(res.log_posterior_trace) == 80
        assert len(res.size_trace) == 80
        assert len(res.accepted_trace) == 80

    def test_zero_iterations(self, small_data):
        res = run_chain(
            ChainConfig(iterations=0, burn_in=20, seed=0), small_data, Hyperparameters()
        )
        assert np.all(res.inclusion == 0.0)
        assert res.acceptance_rate >= 0.0

    def test_inclusion_is_symmetric_probability(self, small_data):
        res = run_chain(
            ChainConfig(iterations=300, burn_in=100, seed=3),
            small_data,
            Hyperparameters(g=0.2),
        )
        assert np.array_equal(res.inclusion, res.inclusion.T)
        assert np.all(res.inclusion >= 0.0) and np.all(res.inclusion <= 1.0)
        assert np.all(np.diag(res.inclusion) == 0.0)

    @pytest.mark.parametrize("kernel", ["uniform", "exact"])
    def test_inclusion_counts_every_kept_visit(self, kernel):
        # counted once per run of steps in a graph, inclusion must equal,
        # bit for bit, its recount from the per-step visit counts
        truth = build_truth(TrueModelSpec(kind="ar1", p=5))
        data = sample_dataset(truth, n=40, rng=make_rng(6))
        config = ChainConfig(
            iterations=400, burn_in=50, seed=7, kernel=kernel, track_graphs=True
        )
        res = run_chain(config, data, Hyperparameters(g=0.2))
        assert len(res.graph_counts) > 1
        recount = np.zeros((5, 5))
        for g, visits in res.graph_counts.items():
            for i, j in g.edges:
                recount[i, j] += visits
        recount /= config.iterations
        assert np.array_equal(res.inclusion, recount + recount.T)

    def test_best_graph_tracks_maximum(self, small_data):
        res = run_chain(
            ChainConfig(iterations=300, burn_in=0, seed=4),
            small_data,
            Hyperparameters(g=0.2),
        )
        assert res.best_score.log_posterior == pytest.approx(
            float(np.max(res.log_posterior_trace))
        )

    def test_edge_cap_is_absorbing(self, small_data):
        hyper = Hyperparameters(g=0.2, r_max=2)
        for kernel in ("uniform", "exact"):
            res = run_chain(
                ChainConfig(iterations=300, burn_in=100, seed=6, kernel=kernel),
                small_data,
                hyper,
            )
            assert np.all(res.size_trace <= 2)

    def test_explicit_and_threshold_init(self, small_data):
        g0 = UndirectedGraph.from_edges(4, [(0, 1)])
        res = run_chain(
            ChainConfig(iterations=20, burn_in=0, seed=0, init=g0),
            small_data,
            Hyperparameters(g=0.2),
        )
        assert res.iterations == 20
        res = run_chain(
            ChainConfig(iterations=20, burn_in=0, seed=0, init="threshold"),
            small_data,
            Hyperparameters(g=0.2),
        )
        assert res.iterations == 20

    def test_threshold_start_shares_the_walks_scorer(self, monkeypatch):
        # the chain scores with the scorer that ranked the threshold walk;
        # cached terms are the same bits, so the chain is the one a cold
        # scorer runs from the same start
        truth = build_truth(TrueModelSpec(kind="ar2", p=10))
        data = sample_dataset(truth, n=40, rng=make_rng(8))
        hyper = Hyperparameters(g=0.3)
        start, _ = threshold_init(GraphScorer(data, hyper))
        runs = {}
        built = []
        init = GraphScorer.__init__

        def counted(scorer, *args):
            built.append(scorer)
            init(scorer, *args)

        monkeypatch.setattr(GraphScorer, "__init__", counted)
        for label, g0 in (("cold", start), ("threshold", "threshold")):
            runs[label] = run_chain(
                ChainConfig(iterations=150, burn_in=50, seed=2, init=g0), data, hyper
            )
        assert len(built) == 2  # one scorer per chain
        cold, shared = runs["cold"], runs["threshold"]
        assert np.array_equal(shared.log_posterior_trace, cold.log_posterior_trace)
        assert np.array_equal(shared.accepted_trace, cold.accepted_trace)
        assert np.array_equal(shared.inclusion, cold.inclusion)

    def test_non_decomposable_init_rejected(self, small_data):
        c4 = UndirectedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        with pytest.raises(NotDecomposable):
            run_chain(
                ChainConfig(iterations=5, burn_in=0, init=c4),
                small_data,
                Hyperparameters(),
            )

    def test_precision_sampling(self, small_data):
        res = run_chain(
            ChainConfig(iterations=40, burn_in=10, seed=9, sample_precision=True),
            small_data,
            Hyperparameters(g=0.2),
        )
        assert res.precision_mean.shape == (4, 4)
        assert np.array_equal(res.precision_mean, res.precision_mean.T)
        assert np.all(np.linalg.eigvalsh(res.precision_mean) > 0)

    @pytest.mark.parametrize("kernel", ["uniform", "exact"])
    def test_sample_precision_leaves_the_chain_unchanged(self, kernel):
        # averaging the precision draws nothing from the chain's generator
        truth = build_truth(TrueModelSpec(kind="ar2", p=6))
        data = sample_dataset(truth, n=30, rng=make_rng(3))
        hyper = Hyperparameters(g=0.3)
        plain, averaged = (
            run_chain(
                ChainConfig(
                    iterations=200, burn_in=20, seed=4, kernel=kernel,
                    sample_precision=flag,
                ),
                data,
                hyper,
            )
            for flag in (False, True)
        )
        assert plain.accepted_trace[20:].sum() > 5
        assert np.array_equal(plain.log_posterior_trace, averaged.log_posterior_trace)
        assert np.array_equal(plain.accepted_trace, averaged.accepted_trace)
        assert np.array_equal(plain.inclusion, averaged.inclusion)
        assert plain.best_graph == averaged.best_graph
        assert plain.precision_mean is None and averaged.precision_mean is not None

    @pytest.mark.parametrize("kernel", ["uniform", "exact"])
    def test_precision_mean_is_the_visit_weighted_posterior_mean(self, kernel):
        # sum over visited G of visit_freq(G) * E[Omega | G, X]
        truth = build_truth(TrueModelSpec(kind="ar2", p=6))
        data = sample_dataset(truth, n=30, rng=make_rng(3))
        hyper = Hyperparameters(g=0.3)
        config = ChainConfig(
            iterations=300, burn_in=20, seed=4, kernel=kernel,
            sample_precision=True, track_graphs=True,
        )
        res = run_chain(config, data, hyper)
        freq = visit_frequencies(res)
        assert len(freq) > 3
        expected = sum(
            w * posterior_mean_precision(data, g, hyper) for g, w in freq.items()
        )
        np.testing.assert_allclose(res.precision_mean, expected, rtol=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ChainConfig(iterations=-1)
        with pytest.raises(ValueError):
            ChainConfig(kernel="gibbs")
        with pytest.raises(ValueError):
            ChainConfig(init="warmstart")
        # the precision average is over kept steps, so it needs some
        with pytest.raises(ValueError, match="iterations > 0"):
            ChainConfig(iterations=0, sample_precision=True)


class TestScoreBookkeeping:
    @pytest.mark.parametrize("kernel", ["uniform", "exact"])
    @pytest.mark.parametrize("r_max", [None, 3])
    def test_recorded_scores_are_full_scores(self, kernel, r_max):
        # steps are scored by deltas; every kept state must still carry,
        # and the trace record, its exact full score (no drift)
        truth = build_truth(TrueModelSpec(kind="ar2", p=7))
        data = sample_dataset(truth, n=40, rng=make_rng(21))
        hyper = Hyperparameters(g=0.2, r_max=r_max)
        config = ChainConfig(iterations=300, burn_in=100, seed=9, kernel=kernel)
        res = run_chain(config, data, hyper)
        scorer = GraphScorer(data, hyper)
        rng = make_rng(config.seed, config.stream)
        g0 = UndirectedGraph.empty(7)
        state = ChainState(g0, scorer.score(g0))
        for it in range(config.burn_in + config.iterations):
            state, _ = mh_step(state, scorer, kernel, rng)
            full = GraphScorer(data, hyper).score(state.graph).log_posterior
            assert state.score.log_posterior == full
            assert res.log_posterior_trace[it] == full
        assert res.acceptance_rate > 0.0


def tv_to_exact_posterior(p, n, data_seed, g, kernel, iterations, burn_in, seed):
    """TV distance between a chain's visit frequencies on ar1 data and the
    enumerated posterior."""
    truth = build_truth(TrueModelSpec(kind="ar1", p=p))
    data = sample_dataset(truth, n=n, rng=make_rng(data_seed))
    hyper = Hyperparameters(g=g)
    res = run_chain(
        ChainConfig(
            iterations=iterations, burn_in=burn_in, seed=seed, kernel=kernel,
            track_graphs=True,
        ),
        data,
        hyper,
    )
    return tv_distance(visit_frequencies(res), exact_posterior(data, hyper))


class TestPosteriorSummaries:
    def test_median_graph_threshold_is_strict(self):
        inclusion = np.zeros((3, 3))
        inclusion[0, 1] = inclusion[1, 0] = 0.5
        inclusion[1, 2] = inclusion[2, 1] = 0.5 + 1e-9
        res = ChainResult(
            p=3,
            iterations=1,
            inclusion=inclusion,
            log_posterior_trace=np.zeros(1),
            size_trace=np.zeros(1, dtype=np.int64),
            accepted_trace=np.zeros(1, dtype=bool),
            best_graph=UndirectedGraph.empty(3),
            best_score=None,
        )
        g = median_probability_graph(res)
        assert g.edges == frozenset({(1, 2)})

    def test_exact_posterior_normalised(self, small_data):
        post = exact_posterior(small_data, Hyperparameters(g=0.2))
        assert sum(post.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(v > 0.0 for v in post.values())
        assert len(post) == 61  # decomposable graphs on 4 vertices

    def test_exact_posterior_drops_cliques_above_n(self):
        # n=3: the complete graph on 4 vertices is outside the support
        truth = build_truth(TrueModelSpec(kind="ar1", p=4))
        data = sample_dataset(truth, n=3, rng=make_rng(1))
        post = exact_posterior(data, Hyperparameters(g=0.2))
        assert len(post) == 60
        assert UndirectedGraph.complete(4) not in post
        assert sum(post.values()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("r_max", [None, 4])
    def test_exact_posterior_matches_the_clique_size_filter(self, r_max):
        # the former enumeration: a graph whose largest clique has more than
        # n vertices is dropped before it is scored
        truth = build_truth(TrueModelSpec(kind="ar1", p=4))
        data = sample_dataset(truth, n=3, rng=make_rng(1))
        hyper = Hyperparameters(g=0.2, r_max=r_max)
        scorer = GraphScorer(data, hyper)
        scored = []
        for g in enumerate_decomposable_graphs(4):
            if max(len(c) for c in perfect_sequence(g).cliques) > data.n:
                continue
            lp = scorer.score(g).log_posterior
            if lp > -math.inf:
                scored.append((g, lp))
        top = max(lp for _, lp in scored)
        weights = [(g, math.exp(lp - top)) for g, lp in scored]
        z = sum(w for _, w in weights)
        assert exact_posterior(data, hyper) == {g: w / z for g, w in weights}

    def test_tv_distance_extremes(self):
        a = UndirectedGraph.empty(2)
        b = UndirectedGraph.complete(2)
        assert tv_distance({a: 1.0}, {a: 1.0}) == 0.0
        assert tv_distance({a: 1.0}, {b: 1.0}) == 1.0
        assert tv_distance({a: 0.5, b: 0.5}, {a: 1.0}) == pytest.approx(0.5)

    def test_chain_approaches_exact_posterior_p3(self):
        assert tv_to_exact_posterior(
            p=3, n=40, data_seed=2, g=0.3, kernel="exact",
            iterations=8000, burn_in=1000, seed=7,
        ) < 0.1

    # criterion 3's data, chain seed and bound at p = 4 and 5; the exact
    # kernel at p = 4 is criterion 3 itself
    @pytest.mark.parametrize(
        "kernel, p", [("uniform", 4), ("uniform", 5), ("exact", 5)]
    )
    def test_kernel_approaches_exact_posterior(self, kernel, p):
        assert tv_to_exact_posterior(
            p=p, n=200, data_seed=42, g=0.2, kernel=kernel,
            iterations=50_000, burn_in=5_000, seed=0,
        ) <= 0.05

    def test_visit_frequencies_requires_tracking(self, small_data):
        res = run_chain(
            ChainConfig(iterations=10, burn_in=0, seed=0), small_data, Hyperparameters()
        )
        with pytest.raises(ValueError):
            visit_frequencies(res)

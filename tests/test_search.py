import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gwish.cli import main
from gwish.errors import NotDecomposable
from gwish.graph import (
    UndirectedGraph,
    enumerate_decomposable_graphs,
    is_decomposable,
    write_edge_list,
)
from gwish.model import (
    Dataset,
    GraphScorer,
    Hyperparameters,
    bayes_estimator_l1_stein,
    posterior_mean_precision,
)
from gwish.numerics import make_rng, spd_inverse
from gwish.search import (
    CandidateConfig,
    _ridge_edge_order,
    _walk_candidates,
    hybrid_mode,
    shotgun_search,
    threshold_init,
)
from gwish.simulate import TrueModelSpec, build_truth, sample_dataset

from oracles import candidate_graphs_reference, decomposable_neighbors_reference


@pytest.fixture(scope="module")
def ar1_truth():
    return build_truth(TrueModelSpec(kind="ar1", p=4))


@pytest.fixture(scope="module")
def ar1_data(ar1_truth):
    return sample_dataset(ar1_truth, n=200, rng=make_rng(31))


@pytest.fixture(scope="module")
def ar2_data():
    truth = build_truth(TrueModelSpec(kind="ar2", p=10))
    return sample_dataset(truth, n=40, rng=make_rng(32))


def log_post(data, g, hyper):
    return GraphScorer(data, hyper).score(g).log_posterior


def candidate_graphs(scorer, config=None):
    """Every thresholded candidate with its log posterior, in walk order."""
    return [
        (UndirectedGraph(scorer.data.p, frozenset(edges[:end])), lp)
        for edges, end, lp in _walk_candidates(scorer, config or CandidateConfig())
    ]


def graphs(data, config=None):
    scorer = GraphScorer(data, Hyperparameters())
    return [g for g, _ in candidate_graphs(scorer, config)]


class TestCandidates:
    def test_deterministic_and_decomposable(self, ar1_data):
        a = candidate_graphs(GraphScorer(ar1_data, Hyperparameters()))
        b = candidate_graphs(GraphScorer(ar1_data, Hyperparameters()))
        assert a == b
        assert all(is_decomposable(g) for g, _ in a)
        assert len({g.edges for g, _ in a}) == len(a)

    def test_extreme_thresholds(self, ar1_data):
        config = CandidateConfig(threshold_grid=(1e9,))
        assert graphs(ar1_data, config) == [UndirectedGraph.empty(4)]
        config = CandidateConfig(ridge_grid=(0.1,), threshold_grid=(0.0,))
        (g,) = graphs(ar1_data, config)
        # every pair survives thresholding at 0, so this is the full repair
        assert g.size >= 3

    def test_max_candidates_truncates(self, ar1_data):
        config = CandidateConfig(max_candidates=2)
        assert len(graphs(ar1_data, config)) == 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CandidateConfig(ridge_grid=(0.0,))
        with pytest.raises(ValueError):
            CandidateConfig(threshold_grid=(-0.1,))
        for ridge in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                CandidateConfig(ridge_grid=(0.1, ridge))
        with pytest.raises(ValueError):
            CandidateConfig(threshold_grid=(0.1, math.nan))
        # +inf keeps no pair: a valid, empty threshold
        CandidateConfig(threshold_grid=(math.inf,))
        with pytest.raises(ValueError):
            CandidateConfig(max_candidates=0)

    def test_threshold_init_is_argmax(self, ar1_data, ar2_data):
        for data, r_max in itertools.product((ar1_data, ar2_data), (None, 2)):
            hyper = Hyperparameters(g=0.2, r_max=r_max)
            best, _ = threshold_init(GraphScorer(data, hyper))
            cands = graphs(data)
            scores = [log_post(data, g, hyper) for g in cands]
            assert best == cands[int(np.argmax(scores))]

    @pytest.mark.parametrize("r_max", [None, 4])
    def test_walk_scores_match_full_scores(self, ar2_data, r_max):
        hyper = Hyperparameters(g=0.2, r_max=r_max)
        scored = candidate_graphs(GraphScorer(ar2_data, hyper))
        # the support cut changes scores, never the candidates
        assert [g for g, _ in scored] == graphs(ar2_data)
        for g, lp in scored:
            full = log_post(ar2_data, g, hyper)
            if full == -math.inf:
                assert lp == -math.inf
            else:
                assert lp == pytest.approx(full, abs=1e-9)

    def test_all_candidates_outside_support_gives_empty(self, ar1_data):
        config = CandidateConfig(ridge_grid=(0.1,), threshold_grid=(0.0,))
        (cand,) = graphs(ar1_data, config)
        assert cand.size > 0
        scorer = GraphScorer(ar1_data, Hyperparameters(g=0.2, r_max=0))
        best, _ = threshold_init(scorer, config)
        assert best == UndirectedGraph.empty(4)


WALK_CASES = dict(
    p=st.integers(2, 14),
    n=st.integers(3, 40),
    seed=st.integers(0, 2**32 - 1),
    r_max=st.sampled_from([None, 0, 2, 5]),
    ridge=st.lists(st.floats(0.01, 10.0), min_size=1, max_size=3),
    thresholds=st.lists(st.floats(0.0, 0.6), min_size=1, max_size=6),
    max_candidates=st.integers(1, 40),
)


def walk_case(p, n, seed, r_max, ridge, thresholds, max_candidates):
    # mixed columns give the ridge inverses some structure; with n as low
    # as 3 the walk reaches cliques larger than n, which score -inf
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p)) @ (np.eye(p) + 0.5 * rng.standard_normal((p, p)))
    data = Dataset.from_matrix(x)
    hyper = Hyperparameters(g=0.2, r_max=r_max)
    config = CandidateConfig(tuple(ridge), tuple(thresholds), max_candidates)
    return data, hyper, config


class TestCandidateWalk:
    """The incremental walk against the frozen-graph walk it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(**WALK_CASES)
    # the first ridge value's walk yields six candidates, the second five:
    # cuts after the third and the eighth fall inside a walk, so its blocks
    # are factorised only up to the cut
    @example(p=10, n=30, seed=5, r_max=None, ridge=[0.1, 1.0],
             thresholds=[0.0, 0.05, 0.1, 0.2, 0.3, 0.4], max_candidates=3)
    @example(p=10, n=30, seed=5, r_max=None, ridge=[0.1, 1.0],
             thresholds=[0.0, 0.05, 0.1, 0.2, 0.3, 0.4], max_candidates=8)
    # r_max = 3 is below every candidate of the first walk (16 edges and
    # more) and leaves the second walk after its one-edge candidate
    @example(p=10, n=30, seed=5, r_max=3, ridge=[0.1, 1.0],
             thresholds=[0.0, 0.05, 0.1, 0.2, 0.3, 0.4], max_candidates=40)
    def test_same_graphs_and_scores_as_reference(
        self, p, n, seed, r_max, ridge, thresholds, max_candidates
    ):
        data, hyper, config = walk_case(
            p, n, seed, r_max, ridge, thresholds, max_candidates
        )
        got = candidate_graphs(GraphScorer(data, hyper), config)
        want = candidate_graphs_reference(GraphScorer(data, hyper), config)
        assert got == want

    @settings(max_examples=150, deadline=None)
    @given(**WALK_CASES)
    # r_max = 0: the empty candidate comes first and is the only finite one
    @example(p=6, n=30, seed=3, r_max=0, ridge=[0.1],
             thresholds=[1e9, 0.0], max_candidates=40)
    # every candidate scores -inf, so the empty graph, which is no candidate
    @example(p=6, n=3, seed=3, r_max=0, ridge=[0.1],
             thresholds=[0.0], max_candidates=40)
    # six candidates untruncated, cut to two
    @example(p=8, n=30, seed=2, r_max=None, ridge=[0.1, 1.0],
             thresholds=[0.0, 0.1, 0.3], max_candidates=2)
    def test_streamed_ranking_is_first_argmax(
        self, p, n, seed, r_max, ridge, thresholds, max_candidates
    ):
        data, hyper, config = walk_case(
            p, n, seed, r_max, ridge, thresholds, max_candidates
        )
        scored = candidate_graphs(GraphScorer(data, hyper), config)
        best, lp = max(scored, key=lambda c: c[1])  # the first maximum
        if lp == -math.inf:
            best = UndirectedGraph.empty(p)
        assert threshold_init(GraphScorer(data, hyper), config) == (best, len(scored))

    def test_threshold_init_keeps_no_candidate_list(self):
        # A list of every candidate graph peaked at 6.6 MB here; the ranking
        # keeps one bitmask per candidate and the best graph so far.
        truth = build_truth(TrueModelSpec(kind="ar2", p=60))
        data = sample_dataset(truth, n=150, rng=make_rng(11))
        hyper = Hyperparameters.preset("selection", 60)
        # lazy imports and caches outside the trace
        threshold_init(GraphScorer(data, hyper))
        tracemalloc.start()
        try:
            threshold_init(GraphScorer(data, hyper))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6

    def test_forest_walk_runs_no_separator_search(self, separator_searches):
        # The strongest pairs of this ar1 sample are the seven path edges,
        # then (3, 6) at 0.055, three steps apart on the path.  The walk joins
        # components, then skips (3, 6): connected with no common neighbour.
        truth = build_truth(TrueModelSpec(kind="ar1", p=8))
        data = sample_dataset(truth, n=400, rng=make_rng(31))
        config = CandidateConfig(ridge_grid=(0.1,), threshold_grid=(0.45, 0.3, 0.05))
        cands = graphs(data, config)
        assert [g.size for g in cands] == [3, 7]
        assert cands[-1] == truth.graph
        assert separator_searches == []


    def test_tied_weights_keep_pair_order(self):
        # three equal blocks on the pairs (0, 3), (1, 4) and (2, 5): their
        # weights tie exactly, as do the twelve zero weights of the other
        # pairs, and a tie goes to the lower pair (i, j)
        y = np.array([[1.0, 0.5], [0.2, 1.0], [0.7, -0.3]])
        x = np.zeros((9, 6))
        for k in range(3):
            x[3 * k:3 * k + 3, [k, k + 3]] = y
        data = Dataset.from_matrix(x)
        for lam in CandidateConfig().ridge_grid:
            pairs, _ = _ridge_edge_order(data, lam, (0.0,))
            w = np.abs(spd_inverse(data.gram / data.n + lam * np.eye(6)))
            assert len({w[e] for e in pairs}) == 2
            assert pairs == sorted(itertools.combinations(range(6), 2),
                                   key=lambda e: (-w[e], e))


class TestShotgun:
    def test_without_rng_stops_at_local_optimum(self, ar1_data):
        hyper = Hyperparameters(g=0.2)
        res = shotgun_search(
            UndirectedGraph.empty(4), GraphScorer(ar1_data, hyper), max_iters=50
        )
        mode, lp = res.mode_graph, res.mode_score.log_posterior
        for e in decomposable_neighbors_reference(mode):
            assert log_post(ar1_data, mode.toggled(*e), hyper) <= lp

    @pytest.mark.parametrize("r_max", [None, 2])
    def test_non_decomposable_start_raises(self, ar1_data, r_max):
        # above the cap the start's score is -inf without a clique search,
        # so the entry point tests chordality itself
        c4 = UndirectedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        scorer = GraphScorer(ar1_data, Hyperparameters(g=0.2, r_max=r_max))
        with pytest.raises(NotDecomposable):
            shotgun_search(c4, scorer, max_iters=3, rng=make_rng(1))

    def test_finds_enumerated_global_mode(self, ar1_data, ar1_truth):
        # at this g the exact posterior mode over all 61 decomposable graphs
        # is the generating path; the search must land on it
        hyper = Hyperparameters(g=0.01)
        exact_mode = max(
            enumerate_decomposable_graphs(4),
            key=lambda g: log_post(ar1_data, g, hyper),
        )
        assert exact_mode == ar1_truth.graph
        res = shotgun_search(
            UndirectedGraph.empty(4), GraphScorer(ar1_data, hyper), max_iters=40,
            rng=make_rng(8),
        )
        assert res.mode_graph == exact_mode

    def test_start_above_cap_descends_into_support(self, ar1_data):
        # no delta can be added to the -inf score of a graph above r_max;
        # the first step must still reach the best neighbour inside the cap
        hyper = Hyperparameters(g=0.2, r_max=2)
        start = UndirectedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        res = shotgun_search(start, GraphScorer(ar1_data, hyper), max_iters=1)
        best = max(
            (start.toggled(*e) for e in start.edges),
            key=lambda g: log_post(ar1_data, g, hyper),
        )
        assert res.mode_graph == best
        assert res.mode_score.log_posterior == log_post(ar1_data, best, hyper)

    def test_restarts_at_p1_return(self):
        # one vertex has no pair to jitter, so each restart keeps the graph;
        # the start and each of the three restarts are scored
        data = Dataset.from_matrix(np.random.default_rng(2).standard_normal((10, 1)))
        res = shotgun_search(
            UndirectedGraph.empty(1), GraphScorer(data, Hyperparameters()), max_iters=3,
            rng=make_rng(0),
        )
        assert res.mode_graph == UndirectedGraph.empty(1)
        assert res.visited == 4

    def test_negative_iterations_raise(self, ar1_data):
        with pytest.raises(ValueError, match="max_iters"):
            shotgun_search(UndirectedGraph.empty(4),
                           GraphScorer(ar1_data, Hyperparameters()), max_iters=-2)

    def test_visited_counts_work(self, ar1_data):
        res = shotgun_search(
            UndirectedGraph.empty(4), GraphScorer(ar1_data, Hyperparameters(g=0.2)),
            max_iters=5,
        )
        assert res.visited > 5


class TestHybrid:
    def test_refinement_never_hurts(self, ar1_data):
        hyper = Hyperparameters(g=0.2)
        start, _ = threshold_init(GraphScorer(ar1_data, hyper))
        res = hybrid_mode(ar1_data, hyper, search_iters=15, rng=make_rng(4))
        assert res.mode_score.log_posterior >= log_post(ar1_data, start, hyper)
        assert is_decomposable(res.mode_graph)

    def test_one_scorer_from_walk_to_search(self, ar2_data, monkeypatch):
        # the search goes on with the walk's scorer and its cached log
        # determinants; cached terms are the same bits, so the result is
        # that of a cold scorer started from the threshold graph
        hyper = Hyperparameters(g=0.2)
        start, n_candidates = threshold_init(GraphScorer(ar2_data, hyper))
        cold = shotgun_search(
            start, GraphScorer(ar2_data, hyper), max_iters=8, rng=make_rng(5)
        )
        built = []
        init = GraphScorer.__init__

        def counted(scorer, *args):
            built.append(scorer)
            init(scorer, *args)

        monkeypatch.setattr(GraphScorer, "__init__", counted)
        res = hybrid_mode(ar2_data, hyper, search_iters=8, rng=make_rng(5))
        assert len(built) == 1
        assert res.mode_graph == cold.mode_graph
        assert res.mode_score == cold.mode_score
        assert res.visited == cold.visited + n_candidates


class TestEstimators:
    def test_l2_is_posterior_mean(self, ar1_data, ar1_truth, tmp_path):
        # ``estimate --estimator l2`` writes the posterior mean precision;
        # %.17g round-trips every double, so the match is exact
        np.savetxt(tmp_path / "X.csv", ar1_data.x, delimiter=",", fmt="%.17g")
        g = ar1_truth.graph
        write_edge_list(g, str(tmp_path / "g.edges"))
        assert main(["estimate", "--x", str(tmp_path / "X.csv"), "--g", "0.2",
                     "--estimator", "l2", "--graph", str(tmp_path / "g.edges"),
                     "--out", str(tmp_path / "l2")]) == 0
        omega = np.loadtxt(tmp_path / "l2/omega_hat.csv", delimiter=",", ndmin=2)
        assert np.array_equal(
            omega, posterior_mean_precision(ar1_data, g, Hyperparameters(g=0.2))
        )

    def test_estimates_are_exactly_symmetric(self, ar1_data, ar1_truth):
        # symmetric inverses and sums of them need no symmetrising pass
        hyper = Hyperparameters(g=0.2)
        g = ar1_truth.graph
        for est in (
            posterior_mean_precision(ar1_data, g, hyper),
            bayes_estimator_l1_stein(ar1_data, g, hyper),
        ):
            assert np.array_equal(est, est.T)

    def test_stein_limit_complete_bivariate(self):
        # complete graph: E[Sigma | X] = (1+g) Gram / (n + nu - 2), so the
        # estimator is (n + nu - 2) inv((1+g) Gram)
        rng = np.random.default_rng(12)
        data = Dataset.from_matrix(rng.standard_normal((30, 2)))
        hyper = Hyperparameters(nu=3.0, g=0.5)
        g = UndirectedGraph.complete(2)
        est = bayes_estimator_l1_stein(data, g, hyper)
        expected = (data.n + hyper.nu - 2.0) * np.linalg.inv(
            (1.0 + hyper.g) * data.gram
        )
        np.testing.assert_allclose(est, expected, rtol=1e-12)

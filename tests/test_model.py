import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import ks_2samp

import gwish.graph
from gwish.errors import (
    CliqueTooLarge,
    DimensionMismatch,
    NotDecomposable,
    NotPositiveDefinite,
)
from gwish.graph import UndirectedGraph, enumerate_decomposable_graphs
from gwish.model import (
    PRESETS,
    Dataset,
    GraphScorer,
    Hyperparameters,
    bayes_estimator_l1_stein,
    log_pairwise_bayes_factor,
    log_posterior_ratio,
    posterior_mean_precision,
    theory_r_max,
)
from gwish.numerics import LOG_2PI, make_rng

from conftest import chordal_graphs, random_chordal_graph
from oracles import (
    PrecisionSampler,
    adjacency,
    cholesky_logdet,
    clique_separator_sum_reference,
    log_graph_prior,
    log_norm_const,
    log_norm_const_complete,
    perfect_sequence,
    posterior_mean_covariance_mc,
    relabel,
    relabelled_perfect_sequence,
    sample_precision_reference,
)


def random_dataset(n, p, seed=0, truth=None):
    rng = np.random.default_rng(seed)
    return Dataset.from_matrix(rng.standard_normal((n, p)), truth)


class TestDataset:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, value):
        x = np.ones((5, 3))
        x[2, 1] = value
        x[4, 0] = value
        with pytest.raises(ValueError, match=r"2 non-finite .* row 2, column 1"):
            Dataset.from_matrix(x)


class TestNormConstComplete:
    def test_frozen_scalar_value(self):
        # q=1, nu=3, A=[[2]]: the 2^a and det(A)^-a factors cancel exactly,
        # leaving log Gamma(3/2)
        val = log_norm_const_complete(3.0, np.array([[2.0]]))
        assert val == pytest.approx(-0.12078223763524543, abs=1e-12)

    def test_frozen_bivariate_value(self):
        val = log_norm_const_complete(3.0, np.eye(2))
        assert val == pytest.approx(3.224171427529236, abs=1e-12)

    def test_empty_block(self):
        assert log_norm_const_complete(3.0, np.zeros((0, 0))) == 0.0

    def test_scaling_law(self):
        # I_q(nu, cA) = c^{-q(nu+q-1)/2} I_q(nu, A)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((10, 3))
        a = x.T @ x
        nu, c = 4.5, 3.7
        lhs = log_norm_const_complete(nu, c * a)
        rhs = log_norm_const_complete(nu, a) - 3 * (nu + 2) / 2 * math.log(c)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_rejects_small_nu(self):
        with pytest.raises(ValueError):
            log_norm_const_complete(2.0, np.eye(2))


class TestNormConstGraph:
    def test_empty_graph_p2(self):
        g = UndirectedGraph.empty(2)
        val = log_norm_const(g, 3.0, np.eye(2))
        assert val == pytest.approx(math.log(2 * math.pi), abs=1e-12)

    def test_complete_graph_matches_direct_formula(self):
        rng = np.random.default_rng(2)
        for p in (1, 2, 4):
            x = rng.standard_normal((p + 6, p))
            a = x.T @ x
            g = UndirectedGraph.complete(p)
            assert log_norm_const(g, 3.0, a) == pytest.approx(
                log_norm_const_complete(3.0, a), rel=1e-12
            )

    def test_invariant_to_perfect_sequence(self):
        rng = np.random.default_rng(3)
        p = 5
        x = rng.standard_normal((12, p))
        a = x.T @ x
        for g in enumerate_decomposable_graphs(p):
            base = None
            for _ in range(4):
                seq = relabelled_perfect_sequence(g, rng.permutation(p).tolist())
                val = log_norm_const(g, 3.0, a, seq)
                if base is None:
                    base = val
                else:
                    assert val == pytest.approx(base, rel=1e-10)

    def test_disconnected_graph_factorises(self):
        # two isolated edges: constant is the product of the edge constants
        a = np.diag([1.0, 2.0, 3.0, 4.0]) + 0.1
        g = UndirectedGraph.from_edges(4, [(0, 1), (2, 3)])
        lhs = log_norm_const(g, 3.0, a)
        rhs = log_norm_const_complete(3.0, a[:2, :2]) + log_norm_const_complete(
            3.0, a[2:, 2:]
        )
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestMarginalLikelihood:
    def test_dual_route_identity(self):
        # clique-cached route vs materialised ratio of normalising constants
        data = random_dataset(20, 5, seed=4)
        hyper = Hyperparameters(nu=3.0, g=0.2)
        scorer = GraphScorer(data, hyper)
        a_prior = hyper.g * data.gram
        a_post = (1.0 + hyper.g) * data.gram
        rng = np.random.default_rng(5)
        graphs = list(enumerate_decomposable_graphs(5))
        rng.shuffle(graphs)
        for g in graphs[:60]:
            direct = scorer.log_marginal(g)
            via_constants = (
                -data.n * data.p / 2.0 * math.log(2 * math.pi)
                + log_norm_const(g, data.n + hyper.nu, a_post)
                - log_norm_const(g, hyper.nu, a_prior)
            )
            assert direct == pytest.approx(via_constants, rel=1e-10)

    def test_univariate_quadrature_oracle(self):
        # p=1: marginal = int N(x | 0, 1/w) W(w; nu, g s) dw, both the
        # posterior integral and the prior constant done numerically
        rng = np.random.default_rng(6)
        x = rng.standard_normal((8, 1)) * 1.3
        data = Dataset.from_matrix(x)
        s = float(data.gram[0, 0])
        n = data.n
        for nu, gg in ((3.0, 0.1), (4.5, 1.7)):
            hyper = Hyperparameters(nu=nu, g=gg)
            post, _ = quad(
                lambda w: w ** ((n + nu - 2) / 2.0) * math.exp(-w * (1 + gg) * s / 2.0),
                0.0,
                np.inf,
            )
            prior, _ = quad(
                lambda w: w ** ((nu - 2) / 2.0) * math.exp(-w * gg * s / 2.0),
                0.0,
                np.inf,
            )
            expected = -n / 2.0 * math.log(2 * math.pi) + math.log(post) - math.log(prior)
            got = GraphScorer(data, hyper).log_marginal(UndirectedGraph.empty(1))
            assert got == pytest.approx(expected, rel=1e-8)

    def test_column_permutation_invariance(self):
        data = random_dataset(15, 4, seed=7)
        hyper = Hyperparameters(g=0.3)
        g = UndirectedGraph.from_edges(4, [(0, 1), (1, 2)])
        perm = [2, 0, 3, 1]
        data_perm = Dataset.from_matrix(data.x[:, perm])
        # new column j carries old column perm[j]; old vertex v moves to inv[v]
        inv = [0] * 4
        for new_pos, old in enumerate(perm):
            inv[old] = new_pos
        relabelled = relabel(g, inv)
        assert GraphScorer(data_perm, hyper).log_marginal(relabelled) == pytest.approx(
            GraphScorer(data, hyper).log_marginal(g), rel=1e-10
        )

    def test_clique_too_large(self):
        data = random_dataset(3, 5, seed=8)
        with pytest.raises(CliqueTooLarge):
            GraphScorer(data, Hyperparameters()).log_marginal(UndirectedGraph.complete(5))

    def test_bayes_factor_antisymmetry(self):
        data = random_dataset(18, 4, seed=9)
        hyper = Hyperparameters(g=0.15)
        g1 = UndirectedGraph.from_edges(4, [(0, 1), (2, 3)])
        g0 = UndirectedGraph.from_edges(4, [(0, 2)])
        ab = log_pairwise_bayes_factor(data, g1, g0, hyper)
        ba = log_pairwise_bayes_factor(data, g0, g1, hyper)
        assert ab == pytest.approx(-ba, rel=1e-12)
        assert log_pairwise_bayes_factor(data, g1, g1, hyper) == 0.0


def scored_prior(g, hyper):
    """The graph prior as the scorer states it: ``score(g).log_prior``.  A
    non-chordal graph raises (``test_score_raises_on_non_decomposable``)."""
    return GraphScorer(random_dataset(12, g.p), hyper).score(g).log_prior


class TestGraphPrior:
    def test_frozen_difference(self):
        hyper = Hyperparameters(c_tau=0.5)
        g6 = UndirectedGraph.from_edges(
            10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]
        )
        g5 = UndirectedGraph.from_edges(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        diff = scored_prior(g6, hyper) - scored_prior(g5, hyper)
        assert diff == pytest.approx(-3.0484125313829042, abs=1e-10)

    def test_edge_cap(self):
        hyper = Hyperparameters(r_max=1)
        g2 = UndirectedGraph.from_edges(4, [(0, 1), (1, 2)])
        assert scored_prior(g2, hyper) == -math.inf
        g1 = UndirectedGraph.from_edges(4, [(0, 1)])
        assert math.isfinite(scored_prior(g1, hyper))

    def test_empty_graph_prior_is_zero(self):
        # binom(m, 0) = 1 and the size penalty vanishes
        assert scored_prior(UndirectedGraph.empty(6), Hyperparameters()) == 0.0


class TestScorer:
    def test_score_composes_prior_and_marginal(self):
        data = random_dataset(12, 4, seed=10)
        hyper = Hyperparameters(g=0.4)
        g = UndirectedGraph.from_edges(4, [(0, 1)])
        scorer = GraphScorer(data, hyper)
        sc = scorer.score(g)
        assert sc.log_marginal == pytest.approx(scorer.log_marginal(g), rel=1e-12)
        assert sc.log_prior == pytest.approx(log_graph_prior(g, hyper), rel=1e-12)
        assert sc.log_posterior == sc.log_marginal + sc.log_prior

    def test_score_beyond_cap_is_minus_inf(self):
        data = random_dataset(12, 4, seed=10)
        path = UndirectedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        sc = GraphScorer(data, Hyperparameters(r_max=2)).score(path)
        # 3 edges > cap 2
        assert sc.log_posterior == -math.inf

    def test_score_checks_the_dimension_before_the_cap(self):
        # a graph on the wrong number of vertices is an error even when its
        # edge count alone would put it outside the support
        data = random_dataset(12, 4, seed=10)
        with pytest.raises(DimensionMismatch):
            GraphScorer(data, Hyperparameters(r_max=2)).score(UndirectedGraph.complete(3))

    def test_score_raises_on_non_decomposable(self):
        data = random_dataset(12, 4, seed=10)
        c4 = UndirectedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        with pytest.raises(NotDecomposable):
            GraphScorer(data, Hyperparameters()).score(c4)

    def test_posterior_ratio_matches_scores(self):
        data = random_dataset(14, 4, seed=11)
        hyper = Hyperparameters(g=0.25)
        g1 = UndirectedGraph.from_edges(4, [(0, 1), (1, 3)])
        g0 = UndirectedGraph.empty(4)
        ratio = log_posterior_ratio(data, g1, g0, hyper)
        scorer = GraphScorer(data, hyper)
        s1, s0 = scorer.score(g1), scorer.score(g0)
        assert ratio == pytest.approx(s1.log_posterior - s0.log_posterior, rel=1e-10)

    def test_ratio_makes_one_clique_search_per_graph(self, monkeypatch):
        # the Bayes factor's clique searches have already found both graphs
        # chordal, so the priors add no chordality test of their own
        calls = []
        visit = gwish.graph._mcs_visit

        def counted(g):
            calls.append(g)
            return visit(g)

        monkeypatch.setattr(gwish.graph, "_mcs_visit", counted)
        data = random_dataset(14, 5, seed=11)
        g1 = UndirectedGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        g0 = UndirectedGraph.from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
        log_posterior_ratio(data, g1, g0, Hyperparameters(g=0.25))
        assert calls == [g1, g0]

    def test_ratio_of_two_graphs_outside_support_raises(self):
        # at r_max = 0 every one-edge graph has prior -inf, and -inf - -inf
        # would be NaN; one graph inside the support keeps a defined ratio
        data = random_dataset(30, 4, seed=11)
        hyper = Hyperparameters(g=0.25, r_max=0)
        g1 = UndirectedGraph.from_edges(4, [(0, 1)])
        g0 = UndirectedGraph.from_edges(4, [(2, 3)])
        with pytest.raises(ValueError, match="both graphs are outside the prior"):
            log_posterior_ratio(data, g1, g0, hyper)
        empty = UndirectedGraph.empty(4)
        assert log_posterior_ratio(data, g1, empty, hyper) == -math.inf

    def test_cache_reuse_is_exact(self):
        data = random_dataset(16, 5, seed=12)
        scorer = GraphScorer(data, Hyperparameters(g=0.2))
        g = UndirectedGraph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        first = scorer.log_marginal(g)
        again = scorer.log_marginal(g)
        fresh = GraphScorer(data, Hyperparameters(g=0.2)).log_marginal(g)
        assert first == again == fresh


    def test_stacked_factors_equal_single_factors(self):
        # The threshold walk factorises its Gram blocks in one stacked
        # Cholesky per block size, while a lone miss (and every score before
        # the stacking) factorises one block.  Candidate scores decide the
        # chain's start and the goldens pin its trace to the bit, so each
        # stacked log determinant must equal the lone factorisation's.
        p = 16
        data = random_dataset(40, p, seed=13)
        scorer = GraphScorer(data, Hyperparameters(g=0.2))
        rng = np.random.default_rng(13)
        masks = [
            sum(1 << int(v) for v in rng.choice(p, q, replace=False))
            for q in range(1, 13)
            for _ in range(8)
        ]
        scorer._factorise(masks)
        for m in masks:
            idx = [v for v in range(p) if m >> v & 1]
            _, logdet = cholesky_logdet(data.gram[np.ix_(idx, idx)])
            single = scorer._scalar_term(len(idx)) - data.n / 2.0 * logdet
            assert scorer.clique_term(idx) == single

    def test_failing_block_in_a_stack_raises(self):
        # two equal columns of ones: their 2 x 2 Gram block [[4, 4], [4, 4]]
        # has a zero pivot, so the stack holding it cannot be factorised
        x = np.random.default_rng(14).standard_normal((4, 4))
        x[:, 2:] = 1.0
        scorer = GraphScorer(Dataset.from_matrix(x), Hyperparameters(g=0.2))
        with pytest.raises(NotPositiveDefinite):
            scorer._factorise([0b0011, 0b1100])

    def test_clique_above_n_raises_before_any_factorisation(self):
        # exact_posterior skips a graph whose score raises CliqueTooLarge, so
        # that error must win over a singular block earlier in perfect order:
        # here the clique {0, 1} of two columns of ones, then a 5-clique, n=4
        x = np.random.default_rng(14).standard_normal((4, 7))
        x[:, :2] = 1.0
        k5 = [(i, j) for i in range(2, 7) for j in range(i + 1, 7)]
        g = UndirectedGraph.from_edges(7, [(0, 1)] + k5)
        assert perfect_sequence(g).cliques == (frozenset({0, 1}), frozenset(range(2, 7)))
        scorer = GraphScorer(Dataset.from_matrix(x), Hyperparameters(g=0.2))
        with pytest.raises(CliqueTooLarge):
            scorer.score(g)


def per_clique_log_marginal(data, hyper, g):
    """The former full score: ``clique_term`` of each clique of the oracle
    perfect sequence added, then each separator's subtracted, one at a time
    in perfect order, on a scorer of its own."""
    scorer = GraphScorer(data, hyper)
    seq = perfect_sequence(g)
    total = 0.0
    for c in seq.cliques:
        total += scorer.clique_term(c)
    for s in seq.separators:
        total -= scorer.clique_term(s)
    return total - data.n * data.p / 2.0 * LOG_2PI


class TestFullScoreReadsCliqueMasks:
    """A full score reads the cliques and separators as masks and
    factorises its missing terms together; its value has the bits of the
    per-clique sum, on a cold or a warm scorer."""

    def test_every_small_decomposable_graph(self):
        hyper = Hyperparameters(g=0.3)
        for p in range(1, 6):
            data = random_dataset(8, p, seed=20 + p)
            scorer = GraphScorer(data, hyper)
            for g in enumerate_decomposable_graphs(p):
                sc = scorer.score(g)
                assert sc.log_marginal == per_clique_log_marginal(data, hyper, g)
                assert sc.log_prior == log_graph_prior(g, hyper)

    @given(chordal_graphs)
    def test_random_chordal_graphs(self, g):
        hyper = Hyperparameters(g=0.3)
        data = random_dataset(14, g.p, seed=g.p)
        sc = GraphScorer(data, hyper).score(g)
        assert sc.log_marginal == per_clique_log_marginal(data, hyper, g)

    def test_one_stacked_cholesky_per_block_size(self, monkeypatch):
        calls = []
        cholesky = np.linalg.cholesky

        def counted(a):
            calls.append(a.shape)
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        hyper = Hyperparameters(g=0.3)
        data = random_dataset(20, 12, seed=15)
        g = random_chordal_graph(12, seed=15, steps=40)
        seq = perfect_sequence(g)
        blocks = {s for s in seq.cliques + seq.separators if s}
        sizes = {len(s) for s in blocks}
        assert len(sizes) > 2, "the test graph needs several block sizes"
        scorer = GraphScorer(data, hyper)
        scorer.score(g)
        # one stack per size, holding each distinct block of that size once
        assert sorted(q for _, q, _ in calls) == sorted(sizes)
        for k, q, _ in calls:
            assert k == sum(1 for s in blocks if len(s) == q)
        scorer.score(g)
        assert len(calls) == len(sizes)  # a warm score factorises nothing


class TestEstimatorsReadCliqueMasks:
    """Both estimators equal the frozenset-based clique/separator sum of
    the oracles, weighted as each estimator weighs a block."""

    @staticmethod
    def check(data, g, hyper):
        nu_post = data.n + hyper.nu
        shrink = 1.0 / (1.0 + hyper.g)
        stein = (data.n + hyper.nu - 2.0) / (1.0 + hyper.g)
        assert np.array_equal(
            posterior_mean_precision(data, g, hyper),
            clique_separator_sum_reference(data, g, lambda q: (nu_post + q - 1) * shrink),
        )
        assert np.array_equal(
            bayes_estimator_l1_stein(data, g, hyper),
            clique_separator_sum_reference(data, g, lambda q: stein),
        )

    def test_every_small_decomposable_graph(self):
        hyper = Hyperparameters(g=0.3)
        for p in range(1, 6):
            data = random_dataset(8, p, seed=30 + p)
            for g in enumerate_decomposable_graphs(p):
                self.check(data, g, hyper)

    @given(chordal_graphs)
    def test_random_chordal_graphs(self, g):
        self.check(random_dataset(14, g.p, seed=g.p), g, Hyperparameters(g=0.3))


class TestHyperparameters:
    def test_validation(self):
        with pytest.raises(ValueError):
            Hyperparameters(nu=2.0)
        with pytest.raises(ValueError):
            Hyperparameters(g=0.0)
        with pytest.raises(ValueError):
            Hyperparameters(c_tau=-1.0)
        with pytest.raises(ValueError):
            Hyperparameters(r_max=-1)
        for name in ("nu", "g", "c_tau"):
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    Hyperparameters(**{name: value})

    def test_preset_values(self):
        assert PRESETS["ratio"](30) == pytest.approx(0.0019607654721305423, rel=1e-12)
        assert PRESETS["selection"](30) == pytest.approx(2.021714109091191, rel=1e-12)
        h = Hyperparameters.preset("ratio", 30, nu=4.0)
        assert h.g == pytest.approx(PRESETS["ratio"](30))
        assert h.nu == 4.0
        with pytest.raises(ValueError):
            Hyperparameters.preset("nonsense", 30)

    def test_theory_r_max(self):
        assert theory_r_max(100, 50) == 2
        assert theory_r_max(2, 2) >= 1


class TestPosteriorSampling:
    def test_support_and_positive_definiteness(self):
        data = random_dataset(25, 6, seed=13)
        hyper = Hyperparameters(g=0.3)
        g = UndirectedGraph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4)])
        rng = make_rng(77)
        adj = adjacency(g)
        sampler = PrecisionSampler(data, g, hyper)
        for _ in range(10):
            omega = sampler.draw(rng)
            assert np.all(np.linalg.eigvalsh(omega) > 0)
            off = ~adj & ~np.eye(6, dtype=bool)
            assert np.all(omega[off] == 0.0)
            assert np.all(omega[adj] != 0.0)

    def test_deterministic_given_rng(self):
        data = random_dataset(20, 4, seed=14)
        hyper = Hyperparameters(g=0.2)
        g = UndirectedGraph.from_edges(4, [(0, 1), (1, 2)])
        a = PrecisionSampler(data, g, hyper).draw(make_rng(5, 3))
        b = PrecisionSampler(data, g, hyper).draw(make_rng(5, 3))
        assert np.array_equal(a, b)

    def test_clique_too_large(self):
        data = random_dataset(2, 4, seed=15)
        with pytest.raises(CliqueTooLarge):
            PrecisionSampler(data, UndirectedGraph.complete(4), Hyperparameters())

    def test_singular_gram_block(self):
        x = np.random.default_rng(15).standard_normal((10, 3))
        x[:, 2] = 0.0
        with pytest.raises(NotPositiveDefinite):
            PrecisionSampler(
                Dataset.from_matrix(x), UndirectedGraph.complete(3), Hyperparameters()
            )

    def test_not_decomposable(self):
        data = random_dataset(20, 4, seed=15)
        cycle = UndirectedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        with pytest.raises(NotDecomposable):
            PrecisionSampler(data, cycle, Hyperparameters())

    def test_mc_mean_matches_closed_form_complete(self):
        # complete graph: the mean must be (n + nu + p - 1)/(1 + g) inv(Gram)
        data = random_dataset(30, 2, seed=16)
        hyper = Hyperparameters(nu=3.0, g=0.5)
        g = UndirectedGraph.complete(2)
        expected = posterior_mean_precision(data, g, hyper)
        manual = (
            (data.n + hyper.nu + 2 - 1)
            / (1 + hyper.g)
            * np.linalg.inv(data.gram)
        )
        assert np.allclose(expected, manual, rtol=1e-12)
        rng = make_rng(99)
        sampler = PrecisionSampler(data, g, hyper)
        draws = np.array([sampler.draw(rng) for _ in range(4000)])
        mc = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
        assert np.all(np.abs(mc - expected) < 4 * se)

    def test_mc_mean_matches_closed_form_path(self):
        # path graph p=3 exercises the separator subtraction in both the
        # sampler assembly and the closed-form mean
        data = random_dataset(40, 3, seed=17)
        hyper = Hyperparameters(nu=3.0, g=0.2)
        g = UndirectedGraph.from_edges(3, [(0, 1), (1, 2)])
        expected = posterior_mean_precision(data, g, hyper)
        rng = make_rng(101)
        sampler = PrecisionSampler(data, g, hyper)
        draws = np.array([sampler.draw(rng) for _ in range(4000)])
        mc = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
        mask = adjacency(g) | np.eye(3, dtype=bool)
        assert np.all(np.abs(mc - expected)[mask] < 4 * se[mask])
        assert np.all(mc[~mask] == 0.0) and np.all(expected[~mask] == 0.0)

    def test_posterior_mean_support(self):
        data = random_dataset(30, 5, seed=18)
        g = UndirectedGraph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        mean = posterior_mean_precision(data, g, Hyperparameters(g=0.3))
        off = ~adjacency(g) & ~np.eye(5, dtype=bool)
        assert np.all(mean[off] == 0.0)
        assert np.all(np.diag(mean) > 0.0)


stein_cases = st.fixed_dictionaries({
    "g": chordal_graphs,
    "data_seed": st.integers(min_value=0, max_value=2**32 - 1),
    "nu": st.floats(min_value=2.5, max_value=10.0),
    "scale": st.floats(min_value=0.01, max_value=5.0),
})


def stein_case(g, data_seed, nu, scale):
    data = random_dataset(2 * g.p + 5, g.p, seed=data_seed)
    hyper = Hyperparameters(nu=nu, g=scale)
    return data, hyper, bayes_estimator_l1_stein(data, g, hyper)


class TestSteinEstimator:
    """``bayes_estimator_l1_stein`` is inv(E[Sigma | G, X]), where
    E[Sigma | G, X] is the G-completion of (1 + g) Gram / (n + nu - 2)."""

    @given(stein_cases)
    def test_inverse_matches_posterior_mean_covariance_on_cliques(self, case):
        data, hyper, est = stein_case(**case)
        sigma = np.linalg.inv(est)
        for c in perfect_sequence(case["g"]).cliques:
            ix = np.ix_(sorted(c), sorted(c))
            expected = (1.0 + hyper.g) * data.gram[ix] / (data.n + hyper.nu - 2.0)
            np.testing.assert_allclose(sigma[ix], expected, rtol=1e-10)

    @given(stein_cases)
    def test_exact_zeros_off_the_graph_and_exact_symmetry(self, case):
        _, _, est = stein_case(**case)
        off = ~adjacency(case["g"]) & ~np.eye(case["g"].p, dtype=bool)
        assert np.all(est[off] == 0.0)
        assert np.array_equal(est, est.T)

    def test_matches_monte_carlo_oracle(self):
        # the former estimator's mean of inv(draw), entrywise within 5
        # Monte Carlo standard errors of inv(estimate)
        for p, graph_seed, steps in [(5, 1, 10), (8, 2, 25), (10, 4, 40)]:
            g = random_chordal_graph(p, graph_seed, steps)
            data = random_dataset(2 * p + 5, p, seed=graph_seed)
            hyper = Hyperparameters(nu=3.5, g=0.3)
            mean, se = posterior_mean_covariance_mc(
                data, g, hyper, make_rng(graph_seed, 7), draws=3000
            )
            sigma = np.linalg.inv(bayes_estimator_l1_stein(data, g, hyper))
            assert np.all(np.abs(mean - sigma) < 5 * se)

    @pytest.mark.parametrize(
        "estimator", [posterior_mean_precision, bayes_estimator_l1_stein]
    )
    def test_support_errors(self, estimator):
        data = random_dataset(3, 5, seed=19)
        with pytest.raises(CliqueTooLarge):
            estimator(data, UndirectedGraph.complete(5), Hyperparameters())
        cycle = UndirectedGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (0, 3)])
        with pytest.raises(NotDecomposable):
            estimator(data, cycle, Hyperparameters())
        with pytest.raises(DimensionMismatch):
            estimator(data, UndirectedGraph.empty(4), Hyperparameters())


class TestSamplerMatchesPerDrawReference:
    """The per-vertex sampler and the clique-by-clique per-draw construction
    (``oracles.sample_precision_reference``) draw the same law.  On the
    support, entrywise means agree within a two-sample z bound and variance
    ratios lie near 1; log det passes a two-sample KS test; off the support
    every draw is exactly 0.  The reference is slow, so it gets fewer draws;
    all seeds are fixed."""

    DRAWS, REFERENCE_DRAWS = 4000, 1000

    def check(self, g, n, data_seed, rng_seed, nu, scale):
        data = random_dataset(n, g.p, seed=data_seed)
        hyper = Hyperparameters(nu=nu, g=scale)
        seq = perfect_sequence(g)
        sampler = PrecisionSampler(data, g, hyper)
        mine, ref = make_rng(rng_seed, 1), make_rng(rng_seed, 2)
        a = np.array([sampler.draw(mine) for _ in range(self.DRAWS)])
        b = np.array([
            sample_precision_reference(
                data.gram, n, nu, scale, seq.cliques, seq.separators, ref
            )
            for _ in range(self.REFERENCE_DRAWS)
        ])
        support = adjacency(g) | np.eye(g.p, dtype=bool)
        assert np.all(a[:, ~support] == 0.0)
        var_a = a.var(axis=0, ddof=1)[support]
        var_b = b.var(axis=0, ddof=1)[support]
        diff = (a.mean(axis=0) - b.mean(axis=0))[support]
        z = diff / np.sqrt(var_a / len(a) + var_b / len(b))
        assert np.abs(z).max() < 4.5
        ratio = var_a / var_b
        assert 0.7 < ratio.min() and ratio.max() < 1.4
        logdet_a, logdet_b = np.linalg.slogdet(a)[1], np.linalg.slogdet(b)[1]
        assert ks_2samp(logdet_a, logdet_b).pvalue > 1e-3

    def test_random_chordal_graphs(self):
        for p, graph_seed, steps, nu, scale in [
            (5, 0, 10, 2.5, 0.01),
            (10, 3, 30, 3.0, 0.4),
            (12, 5, 40, 7.25, 3.0),
        ]:
            g = random_chordal_graph(p, graph_seed, steps)
            n = max(len(c) for c in perfect_sequence(g).cliques) + 3
            self.check(g, n, data_seed=graph_seed, rng_seed=graph_seed + 1,
                       nu=nu, scale=scale)

    def test_disconnected_graph(self):
        # two components and an isolated vertex: empty separators
        g = UndirectedGraph.from_edges(
            8, [(0, 1), (1, 2), (0, 2), (2, 3), (4, 5), (5, 6)]
        )
        assert sum(1 for s in perfect_sequence(g).separators if not s) == 2
        self.check(g, 12, data_seed=3, rng_seed=4, nu=3.0, scale=0.4)

    def test_large_cliques(self):
        # a 5-clique and a 4-clique sharing a 2-vertex separator
        k5 = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        k4 = [(i, j) for i in (3, 4, 5, 6) for j in (3, 4, 5, 6) if i < j]
        g = UndirectedGraph.from_edges(8, k5 + k4 + [(6, 7)])
        seq = perfect_sequence(g)
        assert max(len(c) for c in seq.cliques) == 5
        assert max(len(s) for s in seq.separators) == 2
        self.check(g, 9, data_seed=5, rng_seed=6, nu=3.0, scale=0.4)

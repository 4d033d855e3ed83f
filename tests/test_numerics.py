import math

import numpy as np
import pytest
from scipy.linalg import cho_solve
from scipy.special import multigammaln
from scipy.stats import chi2

from gwish.errors import DimensionMismatch, IndexOutOfRange, NotPositiveDefinite
from gwish.graph import UndirectedGraph
from gwish.model import Dataset, Hyperparameters
from gwish.numerics import (
    cholesky_factor,
    log_multigamma,
    make_rng,
    sample_mvn,
    spd_inverse,
    submatrix,
    symmetrize,
)

from oracles import PrecisionSampler, cholesky_logdet


class TestCholesky:
    def test_logdet_matches_slogdet(self):
        rng = np.random.default_rng(0)
        for q in (1, 3, 7):
            a = rng.standard_normal((q, q))
            m = a @ a.T + q * np.eye(q)
            lower, logdet = cholesky_logdet(m)
            assert np.allclose(lower @ lower.T, m)
            sign, expected = np.linalg.slogdet(m)
            assert sign == 1.0
            assert logdet == pytest.approx(expected, rel=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky_logdet(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            cholesky_logdet(np.ones((2, 3)))

    def test_factor_and_inverse_match_scipy(self):
        rng = np.random.default_rng(1)
        for q in (1, 2, 5, 9, 40):
            a = rng.standard_normal((q, q))
            m = a @ a.T + q * np.eye(q)
            lower = cholesky_factor(m)
            assert lower.tobytes() == cholesky_logdet(m)[0].tobytes()
            expected = cho_solve((lower, True), np.eye(q))
            inv = spd_inverse(m)
            assert np.abs(inv - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_inverse_is_symmetric_keeps_input_and_takes_views(self):
        rng = np.random.default_rng(2)
        for q in (1, 2, 5, 9, 40):
            a = rng.standard_normal((q, q))
            m = a @ a.T + q * np.eye(q)
            kept = m.copy()
            inv = spd_inverse(m)
            assert np.array_equal(inv, inv.T)
            assert np.array_equal(m, kept)
            strided = np.zeros((2 * q, 2 * q))
            strided[::2, ::2] = m
            assert np.array_equal(spd_inverse(strided[::2, ::2]), inv)

    def test_inverse_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            spd_inverse(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_sampler_factors_invert_parent_blocks(self):
        # F F' = inv(D_pa) for every vertex with earlier neighbours pa(v)
        rng = np.random.default_rng(3)
        g = UndirectedGraph.from_edges(
            7, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)]
        )
        data = Dataset.from_matrix(rng.standard_normal((30, 7)))
        hyper = Hyperparameters(g=0.3)
        sampler = PrecisionSampler(data, g, hyper)
        d = (1.0 + hyper.g) * data.gram
        assert sampler._rows and max(len(row[1]) for row in sampler._rows) == 2
        for _, pa, _, factor, _ in sampler._rows:
            prod = factor @ factor.T @ d[np.ix_(pa, pa)]
            assert np.allclose(prod, np.eye(len(pa)), rtol=0, atol=1e-12)

    def test_factor_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestSubmatrix:
    def test_sorted_extraction(self):
        m = np.arange(16.0).reshape(4, 4)
        out = submatrix(m, [3, 1])
        assert out.shape == (2, 2)
        assert out[0, 0] == m[1, 1] and out[1, 1] == m[3, 3]

    def test_empty_subset(self):
        assert submatrix(np.eye(3), []).shape == (0, 0)

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            submatrix(np.eye(3), [0, 3])
        with pytest.raises(IndexOutOfRange):
            submatrix(np.eye(3), [-1])


class TestLogMultigamma:
    def test_empty_dimension_is_zero(self):
        assert log_multigamma(2.5, 0) == 0.0

    def test_q1_is_plain_gammaln(self):
        for a in (0.7, 1.5, 3.0, 12.5):
            assert log_multigamma(a, 1) == math.lgamma(a)

    @pytest.mark.parametrize("q", [1, 2, 5, 17, 50])
    def test_matches_scipy(self, q):
        for a in (q / 2 + 0.25, q / 2 + 0.5, q + 0.5, q * 1.0, q * 3.7, 3 * q + 0.5):
            assert log_multigamma(a, q) == pytest.approx(
                multigammaln(a, q), rel=1e-12
            )

    def test_explicit_recursion(self):
        # Gamma_q(a) = pi^{(q-1)/2} Gamma(a) Gamma_{q-1}(a - 1/2)
        a, q = 4.3, 6
        lhs = log_multigamma(a, q)
        rhs = (q - 1) / 2 * math.log(math.pi) + math.lgamma(a) + log_multigamma(
            a - 0.5, q - 1
        )
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_rejects_pole(self):
        with pytest.raises(ValueError):
            log_multigamma(0.5, 2)


def complete_graph_sampler(df, scale, g=1.0):
    """A PrecisionSampler whose target is W_q(df, scale), the complete-graph
    case: n = max(q, 2) rows whose (1 + g)-scaled Gram matrix is ``scale``,
    and nu = df - n."""
    q = scale.shape[0]
    n = max(q, 2)
    x = np.zeros((n, q))
    x[:q] = np.linalg.cholesky(scale / (1.0 + g)).T
    data = Dataset.from_matrix(x)
    hyper = Hyperparameters(nu=df - n, g=g)
    return PrecisionSampler(data, UndirectedGraph.complete(q), hyper), data


class TestWishartSampler:
    """The package's Wishart convention, checked on the posterior precision
    sampler with a complete graph, where W_G is the plain W_q."""

    def test_scalar_case_matches_scaled_chi_square(self):
        # q=1, scale s: density prop. to b^{(df-2)/2} exp(-b s / 2), i.e.
        # b ~ Gamma(df/2, s/2) = chi2(df) / s.  Check mean and a tail quantile.
        df, s = 5.0, 2.5
        sampler, _ = complete_graph_sampler(df, np.array([[s]]))
        rng = make_rng(123)
        draws = np.array([sampler.draw(rng)[0, 0] for _ in range(20000)])
        assert draws.mean() == pytest.approx(df / s, rel=0.05)
        q90 = chi2(df).ppf(0.9) / s
        assert np.mean(draws < q90) == pytest.approx(0.9, abs=0.02)

    def test_mean_matches_convention(self):
        # E[B] = (df + q - 1) * inv(scale) under the density used here.
        df, q = 6.0, 3
        a = np.array([[2.0, 0.3, 0.0], [0.3, 1.5, -0.2], [0.0, -0.2, 1.0]])
        sampler, data = complete_graph_sampler(df, a)
        a = 2.0 * data.gram  # the scale as the sampler sees it, g = 1
        rng = make_rng(7)
        n_draws = 40000
        acc = np.zeros((q, q))
        for _ in range(n_draws):
            acc += sampler.draw(rng)
        mean = acc / n_draws
        expected = (df + q - 1) * np.linalg.inv(a)
        # 3-sigma envelope per entry, estimated from the diagonal variance
        scale_inv = np.linalg.inv(a)
        sd = np.sqrt(
            (df + q - 1)
            * (scale_inv**2 + np.outer(np.diag(scale_inv), np.diag(scale_inv)))
            / n_draws
        )
        assert np.all(np.abs(mean - expected) < 3.5 * sd)

    def test_draws_are_positive_definite(self):
        sampler, _ = complete_graph_sampler(5.0, np.array([[1.0, 0.4], [0.4, 2.0]]))
        rng = make_rng(5)
        for _ in range(50):
            b = sampler.draw(rng)
            assert np.all(np.linalg.eigvalsh(b) > 0)
            assert np.allclose(b, b.T)


class TestMvn:
    def test_covariance_recovery(self):
        rng = make_rng(21)
        sigma = np.array([[2.0, -0.8], [-0.8, 1.0]])
        x = sample_mvn(50000, sigma, rng)
        emp = x.T @ x / x.shape[0]
        assert np.allclose(emp, sigma, atol=0.05)

    def test_zero_rows(self):
        x = sample_mvn(0, np.eye(3), make_rng(0))
        assert x.shape == (0, 3)

    def test_rejects_non_square_sigma(self):
        with pytest.raises(DimensionMismatch, match=r"got shape \(2, 3\)"):
            sample_mvn(4, np.ones((2, 3)), make_rng(0))


class TestRng:
    def test_same_seed_same_stream_is_identical(self):
        a = make_rng(99, 4).standard_normal(8)
        b = make_rng(99, 4).standard_normal(8)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = make_rng(99, 0).standard_normal(8)
        b = make_rng(99, 1).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_seeds_differ(self):
        a = make_rng(1).standard_normal(8)
        b = make_rng(2).standard_normal(8)
        assert not np.array_equal(a, b)


def test_symmetrize():
    m = np.array([[1.0, 2.0], [0.0, 3.0]])
    s = symmetrize(m)
    assert np.array_equal(s, s.T)
    assert s[0, 1] == 1.0

import math

import numpy as np
import pytest
from scipy.linalg import cho_solve
from scipy.special import multigammaln
from scipy.stats import chi2

from gwish.errors import DimensionMismatch, IndexOutOfRange, NotPositiveDefinite
from gwish.numerics import (
    cholesky_factor,
    cholesky_logdet,
    cholesky_solve,
    log_multigamma,
    make_rng,
    sample_mvn,
    sample_wishart_root,
    submatrix,
    symmetrize,
    wishart_root,
)


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

    def test_factor_and_solve_match_scipy_bitwise(self):
        rng = np.random.default_rng(1)
        for q in (1, 2, 5, 9):
            a = rng.standard_normal((q, q))
            m = a @ a.T + q * np.eye(q)
            lower = cholesky_factor(m)
            assert lower.tobytes() == cholesky_logdet(m)[0].tobytes()
            eye = np.eye(q)
            inv = cholesky_solve(lower, eye)
            assert inv.tobytes() == cho_solve((lower, True), np.eye(q)).tobytes()
            assert np.array_equal(eye, np.eye(q))  # right-hand side kept
            b = rng.standard_normal((3, q)).T  # a non-contiguous view
            assert cholesky_solve(lower, b).tobytes() == cho_solve((lower, True), b).tobytes()

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
        assert log_multigamma(1.5, 1) == pytest.approx(math.lgamma(1.5))

    @pytest.mark.parametrize("q", [1, 2, 5, 17, 50])
    def test_matches_scipy(self, q):
        for a in (q / 2 + 0.25, q * 1.0, q * 3.7):
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


class TestWishartSampler:
    def test_scalar_case_matches_scaled_chi_square(self):
        # q=1, scale s: density prop. to b^{(df-2)/2} exp(-b s / 2), i.e.
        # b ~ Gamma(df/2, s/2) = chi2(df) / s.  Check mean and a tail quantile.
        df, s = 5.0, 2.5
        rng = make_rng(123)
        root = wishart_root(np.array([[s]]))
        draws = np.array([sample_wishart_root(df, root, rng)[0, 0] for _ in range(20000)])
        assert draws.mean() == pytest.approx(df / s, rel=0.05)
        q90 = chi2(df).ppf(0.9) / s
        assert np.mean(draws < q90) == pytest.approx(0.9, abs=0.02)

    def test_mean_matches_convention(self):
        # E[B] = (df + q - 1) * inv(scale) under the density used here.
        df, q = 4.0, 3
        rng = make_rng(7)
        a = np.array([[2.0, 0.3, 0.0], [0.3, 1.5, -0.2], [0.0, -0.2, 1.0]])
        n_draws = 40000
        acc = np.zeros((q, q))
        root = wishart_root(a)
        for _ in range(n_draws):
            acc += sample_wishart_root(df, root, rng)
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
        rng = make_rng(5)
        a = np.array([[1.0, 0.4], [0.4, 2.0]])
        root = wishart_root(a)
        for _ in range(50):
            b = sample_wishart_root(3.0, root, rng)
            assert np.all(np.linalg.eigvalsh(b) > 0)
            assert np.allclose(b, b.T)

    def test_rejects_small_df(self):
        with pytest.raises(ValueError):
            sample_wishart_root(2.0, np.eye(2), make_rng(0))

    def test_root_then_draw_is_the_one_shot_draw(self):
        a = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 1.0]])
        root = wishart_root(a)
        assert np.allclose(root @ root.T, np.linalg.inv(a))
        # a root built once draws exactly as one rebuilt for every draw
        one, two = make_rng(4), make_rng(4)
        for _ in range(5):
            x = sample_wishart_root(3.5, wishart_root(a), one)
            y = sample_wishart_root(3.5, root, two)
            assert x.tobytes() == y.tobytes()
        assert one.random() == two.random()

    def test_bartlett_stream_order(self):
        # row i takes its chi square, then its i normals
        df, q = 4.0, 3
        rng = make_rng(6)
        t = np.zeros((q, q))
        for i in range(q):
            t[i, i] = np.sqrt(rng.chisquare(df + q - 1 - i))
            for j in range(i):
                t[i, j] = rng.standard_normal()
        draw = sample_wishart_root(df, np.eye(q), make_rng(6))
        assert draw.tobytes() == symmetrize(t @ t.T).tobytes()


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

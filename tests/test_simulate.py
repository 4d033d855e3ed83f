import math

import numpy as np
import pytest

from gwish.errors import NotPositiveDefinite
from gwish.graph import UndirectedGraph, is_decomposable
from gwish.numerics import make_rng
from gwish.simulate import (
    ConditionsReport,
    TrueModelSpec,
    build_truth,
    case_graph,
    conditions_report,
    partial_correlation,
    posterior_ratio_experiment,
    sample_dataset,
)

from oracles import case_graph_reference


def band_edges(p, width):
    return frozenset(
        (i, j) for i in range(p) for j in range(i + 1, min(i + width + 1, p))
    )


class TestBuildTruth:
    def test_ar1_matrix_and_graph(self):
        truth = build_truth(TrueModelSpec("ar1", 4))
        expected = np.eye(4)
        for i in range(3):
            expected[i, i + 1] = expected[i + 1, i] = 0.5
        assert np.array_equal(truth.omega, expected)
        assert truth.graph.edges == band_edges(4, 1)

    def test_ar2_bands(self):
        truth = build_truth(TrueModelSpec("ar2", 5))
        assert truth.omega[0, 1] == 0.5 and truth.omega[0, 2] == 0.25
        assert truth.omega[0, 3] == 0.0
        assert truth.graph.edges == band_edges(5, 2)

    def test_ar4_bands(self):
        truth = build_truth(TrueModelSpec("ar4", 7))
        row = truth.omega[0]
        assert list(row[:6]) == [1.0, 0.4, 0.2, 0.2, 0.1, 0.0]
        assert truth.graph.edges == band_edges(7, 4)

    def test_star(self):
        truth = build_truth(TrueModelSpec("star", 10))
        hub = frozenset((0, j) for j in range(1, 10))
        assert truth.graph.edges == hub
        assert truth.omega[0, 3] == 0.2 and truth.omega[2, 3] == 0.0

    def test_circle_is_a_cycle(self):
        truth = build_truth(TrueModelSpec("circle", 6))
        assert truth.omega[0, 5] == 0.4
        assert truth.graph.edges == band_edges(6, 1) | {(0, 5)}
        assert not is_decomposable(truth.graph)

    def test_sim1_covariance_model(self):
        truth = build_truth(TrueModelSpec("sim1-ar1-cov", 6))
        idx = np.arange(6)
        assert np.array_equal(truth.sigma, 0.5 ** np.abs(idx[:, None] - idx[None, :]))
        # the inverse of this covariance is tridiagonal, so the support
        # graph must come out as the path
        assert truth.graph.edges == band_edges(6, 1)

    @pytest.mark.parametrize(
        "kind,p", [("ar1", 8), ("ar2", 8), ("ar4", 8), ("star", 12), ("circle", 8),
                   ("sim1-ar1-cov", 8)]
    )
    def test_omega_sigma_are_inverses(self, kind, p):
        truth = build_truth(TrueModelSpec(kind, p))
        assert np.allclose(truth.omega @ truth.sigma, np.eye(p), atol=1e-10)
        assert np.array_equal(truth.omega, truth.omega.T)
        assert np.array_equal(truth.sigma, truth.sigma.T)
        assert np.all(np.linalg.eigvalsh(truth.omega) > 0)

    def test_star_positive_definiteness_boundary(self):
        # lambda_min = 1 - 0.2 sqrt(p-1): fine at p=25, degenerate from p=26
        assert build_truth(TrueModelSpec("star", 25)) is not None
        for p in (26, 30):
            with pytest.raises(NotPositiveDefinite):
                build_truth(TrueModelSpec("star", p))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TrueModelSpec("banded", 5)
        with pytest.raises(ValueError):
            TrueModelSpec("ar4", 4)
        with pytest.raises(ValueError):
            TrueModelSpec("ar2", 2)
        with pytest.raises(ValueError):
            TrueModelSpec("circle", 2)


class TestSampling:
    def test_shapes(self):
        truth = build_truth(TrueModelSpec("ar1", 5))
        data = sample_dataset(truth, 17, make_rng(0))
        assert data.x.shape == (17, 5)
        assert data.n == 17 and data.p == 5

    def test_deterministic(self):
        truth = build_truth(TrueModelSpec("ar1", 5))
        a = sample_dataset(truth, 10, make_rng(3, 1))
        b = sample_dataset(truth, 10, make_rng(3, 1))
        assert np.array_equal(a.x, b.x)

    def test_empirical_covariance_converges(self):
        truth = build_truth(TrueModelSpec("ar1", 4))
        n = 40000
        data = sample_dataset(truth, n, make_rng(9))
        emp = data.gram / n
        # Var(emp_ij) = (sigma_ij^2 + sigma_ii sigma_jj) / n; stay within 5 sd
        sd = np.sqrt(
            (truth.sigma**2 + np.outer(np.diag(truth.sigma), np.diag(truth.sigma))) / n
        )
        assert np.all(np.abs(emp - truth.sigma) < 5 * sd)


class TestPartialCorrelation:
    def test_markov_chain_zeroes(self):
        truth = build_truth(TrueModelSpec("sim1-ar1-cov", 5))
        # chain graph: 0 and 2 are independent given 1
        assert partial_correlation(truth.sigma, 0, 2, (1,)) == pytest.approx(0.0, abs=1e-12)
        assert partial_correlation(truth.sigma, 0, 2) == pytest.approx(0.25)

    def test_full_conditioning_reads_off_precision(self):
        truth = build_truth(TrueModelSpec("ar1", 4))
        om = truth.omega
        rho = partial_correlation(truth.sigma, 0, 1, (2, 3))
        assert rho == pytest.approx(-om[0, 1] / math.sqrt(om[0, 0] * om[1, 1]), abs=1e-12)
        assert partial_correlation(truth.sigma, 0, 2, (1, 3)) == pytest.approx(0.0, abs=1e-12)

    def test_validation(self):
        sigma = np.eye(3)
        with pytest.raises(ValueError):
            partial_correlation(sigma, 1, 1)
        with pytest.raises(ValueError):
            partial_correlation(sigma, 0, 1, (1,))


class TestConditionsReport:
    def test_exhaustive_scan(self):
        truth = build_truth(TrueModelSpec("sim1-ar1-cov", 6))
        rep = conditions_report(truth, max_conditioning=2)
        assert isinstance(rep, ConditionsReport)
        assert rep.exhaustive
        assert rep.n_edges == 5
        # 5 edges x (1 + 4 + 6) conditioning sets over the other 4 vertices
        assert rep.conditioning_sets_scanned == 55
        eigs = np.linalg.eigvalsh(truth.omega)
        assert rep.lambda_min == pytest.approx(eigs[0])
        assert rep.lambda_max == pytest.approx(eigs[-1])
        assert 0.0 < rep.min_edge_partial_corr_sq <= rep.max_abs_partial_corr**2
        assert rep.max_abs_partial_corr <= 1.0

    def test_sampled_scan_requires_rng(self):
        truth = build_truth(TrueModelSpec("ar1", 12))
        with pytest.raises(ValueError):
            conditions_report(truth, max_conditioning=3, sample_limit=50)
        rep = conditions_report(
            truth, max_conditioning=3, sample_limit=50, rng=make_rng(1)
        )
        assert not rep.exhaustive
        assert rep.conditioning_sets_scanned == 50 * truth.graph.size


@pytest.fixture(scope="module")
def path_truth():
    return build_truth(TrueModelSpec("ar1", 8)).graph


class TestCaseGraphs:
    def test_case1_supergraph_double_size(self, path_truth):
        g = case_graph(1, path_truth, make_rng(4))
        assert g.size == 2 * path_truth.size
        assert path_truth.edges <= g.edges
        assert is_decomposable(g)

    def test_case2_subgraph_half_size(self, path_truth):
        g = case_graph(2, path_truth, make_rng(4))
        assert g.size == path_truth.size // 2
        assert g.edges <= path_truth.edges
        assert is_decomposable(g)

    def test_case3_and_4_fresh_graphs(self, path_truth):
        g3 = case_graph(3, path_truth, make_rng(4))
        g4 = case_graph(4, path_truth, make_rng(4))
        assert g3.size == 2 * path_truth.size
        assert g4.size == path_truth.size // 2
        assert is_decomposable(g3) and is_decomposable(g4)

    def test_bad_case_number(self, path_truth):
        with pytest.raises(ValueError):
            case_graph(5, path_truth, make_rng(0))

    @pytest.mark.parametrize("case", [1, 2, 3, 4])
    @pytest.mark.parametrize("p", [3, 5, 10, 30, 100])
    def test_matches_per_move_reference(self, case, p):
        # the graph and the generator state after it, against one
        # rebuilt candidate list per move
        truth = build_truth(TrueModelSpec("sim1-ar1-cov", p)).graph
        for seed in range(6):
            rng, ref_rng = make_rng(seed), make_rng(seed)
            if case in (1, 3) and 2 * truth.size > truth.max_edges:
                with pytest.raises(ValueError):
                    case_graph(case, truth, rng)
                continue
            assert case_graph(case, truth, rng) == case_graph_reference(
                case, truth, ref_rng
            )
            assert rng.random() == ref_rng.random()

    def test_deterministic(self, path_truth):
        assert case_graph(1, path_truth, make_rng(2)) == case_graph(
            1, path_truth, make_rng(2)
        )


class TestRatioExperiment:
    def test_rows_and_reproducibility(self):
        rows = posterior_ratio_experiment([8, 10], n=40, case=4, seed=1, n_seeds=2)
        assert len(rows) == 4
        for row in rows:
            assert row["case"] == 4 and row["n"] == 40
            assert row["size_case"] == row["size_truth"] // 2
            assert math.isfinite(row["log_posterior_ratio"])
        again = posterior_ratio_experiment([8, 10], n=40, case=4, seed=1, n_seeds=2)
        assert [r["log_posterior_ratio"] for r in rows] == [
            r["log_posterior_ratio"] for r in again
        ]

    def test_replicates_differ(self):
        rows = posterior_ratio_experiment([8], n=40, case=1, seed=3, n_seeds=2)
        assert rows[0]["log_posterior_ratio"] != rows[1]["log_posterior_ratio"]

    def test_g_follows_preset(self):
        rows = posterior_ratio_experiment([8], n=40, case=2, seed=0)
        assert rows[0]["g"] == pytest.approx(10.0 * 8 ** (-2.51))

"""End-to-end acceptance gate.

One test per shipping criterion; each registers a PASS/FAIL line that the
terminal summary echoes.  The star selection check documents a genuine
blocker: the star precision with hub weight 0.2 stops being positive
definite at p = 26, so its p = 30 variant cannot produce data at all.  The
test states the analysis and fails honestly rather than substituting an
attainable setting; a p = 25 demonstration (the largest valid star) runs
inside it to show the machinery itself is sound.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import wishart as scipy_wishart

from gwish.graph import (
    UndirectedGraph,
    enumerate_decomposable_graphs,
    enumerate_graphs,
    is_decomposable,
)
from gwish.mcmc import (
    ChainConfig,
    exact_posterior,
    median_probability_graph,
    run_chain,
    tv_distance,
    visit_frequencies,
)
from gwish.metrics import matrix_norm, relative_errors, selection_report
from gwish.model import (
    Dataset,
    GraphScorer,
    Hyperparameters,
    log_pairwise_bayes_factor,
    log_posterior_ratio,
    posterior_mean_precision,
)
from gwish.numerics import make_rng
from gwish.simulate import (
    TrueModelSpec,
    build_truth,
    posterior_ratio_experiment,
    sample_dataset,
)
from gwish.errors import NotPositiveDefinite

from oracles import (
    PrecisionSampler,
    chordal_by_cycle_scan,
    gaussian_loglik_batch,
    gwishart_prior_batch,
    log_norm_const,
    log_norm_const_complete,
    perfect_sequence,
    relabelled_perfect_sequence,
)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def test_criterion_1_normalizing_constant_identity(criteria):
    """Clique/separator factorisation equals the complete-graph formula and
    is invariant to the perfect sequence, rtol 1e-8, p <= 5 x 20 scales."""
    t0 = time.time()
    rng = np.random.default_rng(17)
    nu = 3.5
    worst = 0.0
    for p in range(1, 6):
        graphs = list(enumerate_decomposable_graphs(p))
        for _ in range(20):
            x = rng.standard_normal((p + 3, p))
            a = x.T @ x + 0.5 * np.eye(p)
            direct = log_norm_const_complete(nu, a)
            factored = log_norm_const(UndirectedGraph.complete(p), nu, a)
            worst = max(worst, _rel(factored, direct))
            for g in graphs:
                base = log_norm_const(g, nu, a)
                for _ in range(2):
                    seq = relabelled_perfect_sequence(g, rng.permutation(p).tolist())
                    worst = max(worst, _rel(log_norm_const(g, nu, a, seq), base))
    ok = worst < 1e-8
    criteria.record(
        "1",
        "normalizing-constant identity",
        ok,
        f"max rel dev {worst:.2e}, {time.time() - t0:.0f}s",
    )
    assert ok


def test_criterion_2_marginal_likelihood_mc_oracle(criteria):
    """exp(log marginal) vs direct Monte Carlo prior integration, 1e6
    draws, within 3 MC standard errors, for p in {1, 2, 3}, n <= 6."""
    t0 = time.time()
    rng0 = np.random.default_rng(123)
    hyper = Hyperparameters(nu=3.0, g=0.5)
    cases = [
        (1, 4, UndirectedGraph.empty(1)),
        (2, 5, UndirectedGraph.empty(2)),
        (2, 5, UndirectedGraph.complete(2)),
        (3, 6, UndirectedGraph.from_edges(3, [(0, 1), (1, 2)])),
        (3, 6, UndirectedGraph.complete(3)),
    ]
    size = 1_000_000
    worst_z = 0.0
    for p, n, g in cases:
        x = rng0.standard_normal((n, p))
        data = Dataset.from_matrix(x)
        lm = GraphScorer(data, hyper).log_marginal(g)
        seq = perfect_sequence(g)
        cliques = [tuple(sorted(c)) for c in seq.cliques]
        seps = [tuple(sorted(s)) for s in seq.separators]
        draws = gwishart_prior_batch(
            cliques, seps, p, hyper.nu, hyper.g * data.gram, make_rng(7), size
        )
        ll = gaussian_loglik_batch(x, draws)
        shift = ll.max()
        vals = np.exp(ll - shift)
        mean = vals.mean()
        se = vals.std(ddof=1) / math.sqrt(size)
        z = abs(math.exp(lm - shift) - mean) / se
        worst_z = max(worst_z, z)
        # third-party sampler cross-check on one complete-graph case
        if p == 2 and g.size == 1:
            a = hyper.g * data.gram
            w = scipy_wishart(df=hyper.nu + p - 1, scale=np.linalg.inv(a))
            draws2 = w.rvs(size=200_000, random_state=np.random.default_rng(5))
            ll2 = gaussian_loglik_batch(x, draws2)
            vals2 = np.exp(ll2 - shift)
            z2 = abs(math.exp(lm - shift) - vals2.mean()) / (
                vals2.std(ddof=1) / math.sqrt(len(vals2))
            )
            worst_z = max(worst_z, z2)
    ok = worst_z < 3.0
    criteria.record(
        "2",
        "marginal-likelihood MC oracle",
        ok,
        f"max |z| {worst_z:.2f}, {time.time() - t0:.0f}s",
    )
    assert ok


def test_criterion_3_exact_posterior_oracle(criteria):
    """p=4 AR(1) n=200: exact-kernel chain visit frequencies within total
    variation 0.05 of the enumerated posterior after 2e5 iterations."""
    t0 = time.time()
    truth = build_truth(TrueModelSpec("ar1", 4))
    data = sample_dataset(truth, 200, make_rng(42))
    hyper = Hyperparameters(nu=3.0, g=0.2)
    result = run_chain(
        ChainConfig(
            iterations=200_000,
            burn_in=5_000,
            seed=0,
            kernel="exact",
            track_graphs=True,
        ),
        data,
        hyper,
    )
    tv = tv_distance(visit_frequencies(result), exact_posterior(data, hyper))
    ok = tv <= 0.05
    criteria.record(
        "3",
        "exact-posterior oracle (p=4 chain)",
        ok,
        f"tv {tv:.4f}, {time.time() - t0:.0f}s",
    )
    assert ok


def test_criterion_4_ratio_experiment_signs_and_trend(criteria):
    """Cases 1-4 at n=150, p in {50, 100, 150}, 5 replicates: every log
    posterior ratio against the truth is negative and the per-case median
    decreases in p."""
    t0 = time.time()
    p_list = [50, 100, 150]
    all_negative = True
    all_decreasing = True
    detail = []
    for case in (1, 2, 3, 4):
        rows = posterior_ratio_experiment(
            p_list, n=150, case=case, seed=0, hyper_preset="ratio", n_seeds=5
        )
        medians = []
        for p in p_list:
            vals = [r["log_posterior_ratio"] for r in rows if r["p"] == p]
            all_negative &= all(v < 0.0 for v in vals)
            medians.append(float(np.median(vals)))
        all_decreasing &= medians[0] > medians[1] > medians[2]
        detail.append(f"case{case} medians " + "/".join(f"{m:.0f}" for m in medians))
    ok = all_negative and all_decreasing
    criteria.record(
        "4",
        "posterior-ratio experiment sign and trend",
        ok,
        "; ".join(detail) + f", {time.time() - t0:.0f}s",
    )
    assert all_negative, "found a non-negative log posterior ratio"
    assert all_decreasing, "a per-case median failed to decrease in p"


def _selection_run(truth, n, hyper, seed, stream):
    data = sample_dataset(truth, n, make_rng(seed, 0))
    result = run_chain(
        ChainConfig(
            iterations=3000,
            burn_in=3000,
            seed=seed,
            stream=stream,
            kernel="uniform",
            init="threshold",
        ),
        data,
        hyper,
    )
    return selection_report(median_probability_graph(result), truth.graph)


def test_criterion_5a_selection_ar1(criteria):
    """AR(1) p=30 n=100: median-probability graph MCC >= 0.9 over 5 seeds."""
    t0 = time.time()
    truth = build_truth(TrueModelSpec("ar1", 30))
    hyper = Hyperparameters.preset("selection", 30)
    mccs = [_selection_run(truth, 100, hyper, seed, 1).mcc for seed in range(5)]
    avg = float(np.mean(mccs))
    ok = avg >= 0.9
    criteria.record(
        "5a",
        "selection quality, AR(1) p=30",
        ok,
        f"avg MCC {avg:.3f}, {time.time() - t0:.0f}s",
    )
    assert ok


def test_criterion_5b_selection_star(criteria):
    """Star p=30 MCC >= 0.9: unattainable as specified.

    The star precision has unit diagonal and hub weight 0.2, so its extreme
    eigenvalues are 1 +/- 0.2 sqrt(p-1); the smallest hits zero at p = 26
    and is negative for p = 30 (1 - 0.2 sqrt(29) ~= -0.077).  No data can
    be generated from it, and inventing a rescaled model would change the
    generating process this check is defined against.  A p = 25 star (the
    largest positive definite one) is run below to show the selection
    pipeline itself handles star graphs.
    """
    lam_min_30 = 1.0 - 0.2 * math.sqrt(29.0)
    with pytest.raises(NotPositiveDefinite):
        build_truth(TrueModelSpec("star", 30))

    truth25 = build_truth(TrueModelSpec("star", 25))
    hyper = Hyperparameters.preset("selection", 25)
    demo = [_selection_run(truth25, 100, hyper, seed, 3).mcc for seed in range(2)]
    demo_avg = float(np.mean(demo))

    criteria.record(
        "5b",
        "selection quality, star p=30",
        False,
        f"unattainable: lambda_min = 1 - 0.2 sqrt(29) = {lam_min_30:.3f} < 0, "
        f"no positive definite truth exists; star p=25 demo avg MCC {demo_avg:.3f}",
    )
    pytest.fail(
        "star p=30 selection check cannot run: the specified precision "
        f"(unit diagonal, hub weight 0.2) has lambda_min = {lam_min_30:.3f} < 0 "
        "for every p >= 26, so no dataset can be drawn from it. The largest "
        f"valid star (p=25) yields average MCC {demo_avg:.3f} over 2 seeds, "
        "demonstrating the pipeline is sound; the failure is in the target "
        "model's definition, not the implementation."
    )


def test_criterion_6_estimation_error(criteria):
    """AR(1) p=30 n=100: MCMC-averaged precision, relative spectral error
    <= 0.5 over 5 seeds.  g = 0.1 carries the selection rule's effective
    shrinkage at the reference dimension the threshold was scaled from."""
    t0 = time.time()
    truth = build_truth(TrueModelSpec("ar1", 30))
    hyper = Hyperparameters(nu=3.0, g=0.1, c_tau=0.5)
    errs = []
    for seed in range(5):
        data = sample_dataset(truth, 100, make_rng(seed, 0))
        result = run_chain(
            ChainConfig(
                iterations=3000,
                burn_in=3000,
                seed=seed,
                stream=2,
                kernel="uniform",
                init="threshold",
                sample_precision=True,
            ),
            data,
            hyper,
        )
        errs.append(relative_errors(result.precision_mean, truth.omega)["spectral"])
    avg = float(np.mean(errs))
    ok = avg <= 0.5
    criteria.record(
        "6",
        "estimation error, AR(1) p=30",
        ok,
        f"avg spectral rel err {avg:.3f}, {time.time() - t0:.0f}s",
    )
    assert ok


def test_criterion_7_posterior_mean_identity(criteria):
    """Closed-form posterior mean vs 1e4 Monte Carlo posterior draws on
    p=5 AR(1) data, within 3 MC standard errors entrywise.  The sampler
    draws vertex by vertex along a perfect numbering; the closed form sums
    clique inverses minus separator inverses, so the two are independent."""
    t0 = time.time()
    truth = build_truth(TrueModelSpec("ar1", 5))
    data = sample_dataset(truth, 50, make_rng(21, 0))
    hyper = Hyperparameters(nu=3.0, g=0.2)
    g = truth.graph
    expected = posterior_mean_precision(data, g, hyper)
    rng = make_rng(21, 2)
    sampler = PrecisionSampler(data, g, hyper)
    draws = np.array([sampler.draw(rng) for _ in range(10_000)])
    mc = draws.mean(axis=0)
    se = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
    active = se > 0
    max_z = float(np.abs((mc[active] - expected[active]) / se[active]).max())
    structural_ok = bool(np.all(mc[~active] == 0.0) and np.all(expected[~active] == 0.0))
    ok = max_z < 3.0 and structural_ok
    criteria.record(
        "7",
        "posterior-mean identity (per-vertex sampler)",
        ok,
        f"max |z| {max_z:.2f}, {time.time() - t0:.0f}s",
    )
    assert structural_ok, "off-support entries must be exactly zero"
    assert ok


def test_criterion_8_bayes_factor_trends(criteria):
    """Log Bayes factor and log posterior ratio of (truth + one false edge)
    vs truth strictly decrease along n in {100, 400, 1600} on AR(1) p=10,
    with g = max(n, p)^(-3)."""
    t0 = time.time()
    truth = build_truth(TrueModelSpec("ar1", 10))
    g1 = truth.graph.toggled(0, 2)
    assert is_decomposable(g1)
    ok = True
    worst = math.inf
    for seed in (0, 1, 2):
        bfs, ratios = [], []
        for i, n in enumerate((100, 400, 1600)):
            hyper = Hyperparameters(nu=3.0, g=float(max(n, 10)) ** (-3.0), c_tau=0.5)
            data = sample_dataset(truth, n, make_rng(seed, 10 + i))
            bfs.append(log_pairwise_bayes_factor(data, g1, truth.graph, hyper))
            ratios.append(log_posterior_ratio(data, g1, truth.graph, hyper))
        ok &= bfs[0] > bfs[1] > bfs[2]
        ok &= ratios[0] > ratios[1] > ratios[2]
        ok &= all(b < 0 for b in bfs)
        worst = min(worst, bfs[0] - bfs[1], bfs[1] - bfs[2])
    criteria.record(
        "8",
        "false-edge Bayes factor decreasing in n",
        bool(ok),
        f"min decrement {worst:.2f} nats, {time.time() - t0:.0f}s",
    )
    assert ok


def test_criterion_9_invariant_suites(criteria):
    """Brute-force chordality agreement (p <= 5 exhaustive, p = 6 sampled),
    metric norm properties, and bit-identical rerun determinism."""
    t0 = time.time()

    chordal_ok = True
    for p in range(2, 6):
        for g in enumerate_graphs(p):
            if is_decomposable(g) != chordal_by_cycle_scan(p, set(g.edges)):
                chordal_ok = False
    rng = np.random.default_rng(5)
    pairs6 = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    for _ in range(200):
        mask = rng.random(15) < rng.uniform(0.2, 0.8)
        g = UndirectedGraph(6, frozenset(e for e, k in zip(pairs6, mask) if k))
        if is_decomposable(g) != chordal_by_cycle_scan(6, set(g.edges)):
            chordal_ok = False

    norm_ok = True
    for _ in range(200):
        q = int(rng.integers(1, 6))
        m = rng.standard_normal((q, q)) * rng.uniform(0.1, 10.0)
        other = rng.standard_normal((q, q))
        c = float(rng.uniform(0.1, 5.0))
        for which in ("l1", "spectral", "frobenius", "max"):
            n_m = matrix_norm(m, which)
            if abs(matrix_norm(c * m, which) - c * n_m) > 1e-9 * max(1.0, c * n_m):
                norm_ok = False
            if matrix_norm(m + other, which) > n_m + matrix_norm(other, which) + 1e-9:
                norm_ok = False

    mcc_ok = True
    for _ in range(200):
        mask_a = rng.random(15) < 0.5
        mask_b = rng.random(15) < 0.5
        ga = UndirectedGraph(6, frozenset(e for e, k in zip(pairs6, mask_a) if k))
        gb = UndirectedGraph(6, frozenset(e for e, k in zip(pairs6, mask_b) if k))
        if not -1.0 <= selection_report(ga, gb).mcc <= 1.0:
            mcc_ok = False

    truth = build_truth(TrueModelSpec("ar1", 6))
    data = sample_dataset(truth, 80, make_rng(11))
    config = ChainConfig(
        iterations=500, burn_in=200, seed=13, stream=4, sample_precision=True
    )
    hyper = Hyperparameters(nu=3.0, g=0.2)
    a = run_chain(config, data, hyper)
    b = run_chain(config, data, hyper)
    determinism_ok = (
        np.array_equal(a.log_posterior_trace, b.log_posterior_trace)
        and np.array_equal(a.inclusion, b.inclusion)
        and np.array_equal(a.precision_mean, b.precision_mean)
        and a.best_graph == b.best_graph
    )
    d1 = sample_dataset(truth, 30, make_rng(3, 7)).x
    d2 = sample_dataset(truth, 30, make_rng(3, 7)).x
    determinism_ok &= bool(np.array_equal(d1, d2))

    ok = chordal_ok and norm_ok and mcc_ok and determinism_ok
    criteria.record(
        "9",
        "invariant suites (chordality, metrics, determinism)",
        ok,
        f"chordality {chordal_ok}, norms {norm_ok}, mcc {mcc_ok}, "
        f"determinism {determinism_ok}, {time.time() - t0:.0f}s",
    )
    assert ok

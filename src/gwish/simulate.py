"""Synthetic truths, data generation and the posterior-ratio experiment."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefinite
from .graph import (
    UndirectedGraph,
    random_decomposable_additions,
    random_decomposable_move,
)
from .model import Dataset, GroundTruth, Hyperparameters, log_posterior_ratio
from .numerics import make_rng, sample_mvn, spd_inverse, submatrix

KINDS = ("sim1-ar1-cov", "ar1", "ar2", "ar4", "star", "circle")

# support threshold for reading a graph off a numerically inverted matrix
_SUPPORT_TOL = 1e-8


@dataclass(frozen=True)
class TrueModelSpec:
    """A named generating model at dimension p.

    Kinds: ``sim1-ar1-cov`` sets the covariance to 0.5^|i-j| and takes its
    inverse as the precision; the rest specify the precision directly with
    unit diagonal: ``ar1`` (0.5 one off the diagonal), ``ar2`` (0.5, 0.25),
    ``ar4`` (0.4, 0.2, 0.2, 0.1), ``star`` (first vertex joined to all
    others at 0.2) and ``circle`` (ar1 plus a 0.4 corner entry).
    """

    kind: str
    p: int

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        minimum = {"ar2": 3, "ar4": 5, "circle": 3}.get(self.kind, 2)
        if self.p < minimum:
            raise ValueError(f"kind {self.kind!r} needs p >= {minimum}, got {self.p}")


def _banded(p: int, bands: list[float]) -> np.ndarray:
    omega = np.eye(p)
    for off, val in enumerate(bands, start=1):
        for i in range(p - off):
            omega[i, i + off] = omega[i + off, i] = val
    return omega


def _support_graph(omega: np.ndarray) -> UndirectedGraph:
    p = omega.shape[0]
    cutoff = _SUPPORT_TOL * max(1.0, float(np.abs(omega).max()))
    edges = [
        (i, j) for i in range(p) for j in range(i + 1, p)
        if abs(omega[i, j]) > cutoff
    ]
    return UndirectedGraph.from_edges(p, edges)


def build_truth(spec: TrueModelSpec) -> GroundTruth:
    """Materialise the precision, covariance and support graph of a spec.

    Raises NotPositiveDefinite when the requested combination does not give
    a valid precision matrix (the star model, for instance, loses positive
    definiteness once 0.2^2 (p-1) reaches 1, i.e. for p >= 26).
    """
    p = spec.p
    if spec.kind == "sim1-ar1-cov":
        idx = np.arange(p)
        sigma = 0.5 ** np.abs(idx[:, None] - idx[None, :])
        omega = spd_inverse(sigma)
        return GroundTruth(omega=omega, sigma=sigma, graph=_support_graph(omega))
    if spec.kind == "ar1":
        omega = _banded(p, [0.5])
    elif spec.kind == "ar2":
        omega = _banded(p, [0.5, 0.25])
    elif spec.kind == "ar4":
        omega = _banded(p, [0.4, 0.2, 0.2, 0.1])
    elif spec.kind == "star":
        omega = np.eye(p)
        omega[0, 1:] = omega[1:, 0] = 0.2
    elif spec.kind == "circle":
        omega = _banded(p, [0.5])
        omega[0, p - 1] = omega[p - 1, 0] = 0.4
    else:  # pragma: no cover - guarded by TrueModelSpec
        raise AssertionError(spec.kind)
    try:
        sigma = spd_inverse(omega)
    except NotPositiveDefinite:
        raise NotPositiveDefinite(
            f"{spec.kind} precision at p={p} is not positive definite"
        ) from None
    return GroundTruth(omega=omega, sigma=sigma, graph=_support_graph(omega))


def sample_dataset(
    truth: GroundTruth, n: int, rng: np.random.Generator
) -> Dataset:
    """n rows from N(0, truth.sigma), carrying the truth along."""
    x = sample_mvn(n, truth.sigma, rng)
    return Dataset.from_matrix(x, truth=truth)


def partial_correlation(
    sigma: np.ndarray, i: int, j: int, given: tuple[int, ...] = ()
) -> float:
    """Correlation of variables i and j after conditioning on ``given``."""
    if i == j:
        raise ValueError("need two distinct variables")
    if i in given or j in given:
        raise ValueError("conditioning set must exclude i and j")
    sigma = np.asarray(sigma, dtype=float)
    pair = [i, j]
    if not given:
        cond = sigma[np.ix_(pair, pair)]
    else:
        s = sorted(given)
        block_ps = sigma[np.ix_(pair, s)]
        inv_ss = spd_inverse(submatrix(sigma, s))
        cond = sigma[np.ix_(pair, pair)] - block_ps @ inv_ss @ block_ps.T
    return float(cond[0, 1] / math.sqrt(cond[0, 0] * cond[1, 1]))


@dataclass(frozen=True)
class ConditionsReport:
    """Diagnostics for how identifiable a truth is from data.

    ``min_edge_partial_corr_sq`` is the smallest squared partial correlation
    of any true edge over the scanned conditioning sets (a beta-min style
    quantity); ``max_abs_partial_corr`` the largest magnitude seen anywhere.
    """

    p: int
    n_edges: int
    lambda_min: float
    lambda_max: float
    min_edge_partial_corr_sq: float
    max_abs_partial_corr: float
    conditioning_sets_scanned: int
    exhaustive: bool


def conditions_report(
    truth: GroundTruth,
    max_conditioning: int = 3,
    sample_limit: int = 2000,
    rng: np.random.Generator | None = None,
) -> ConditionsReport:
    """Scan partial correlations of true edges over small conditioning sets.

    All subsets of size up to ``max_conditioning`` are scanned per edge when
    their count stays within ``sample_limit``; otherwise that many subsets
    are sampled (rng required in that case).
    """
    p = truth.sigma.shape[0]
    eigs = np.linalg.eigvalsh(truth.omega)
    rest = list(range(p))
    min_sq = math.inf
    max_abs = 0.0
    scanned = 0
    total = sum(
        math.comb(p - 2, k) for k in range(0, min(max_conditioning, p - 2) + 1)
    )
    exhaustive = total <= sample_limit
    for i, j in truth.graph.sorted_edges:
        others = [v for v in rest if v != i and v != j]
        if exhaustive:
            subsets = itertools.chain.from_iterable(
                itertools.combinations(others, k)
                for k in range(0, min(max_conditioning, len(others)) + 1)
            )
        else:
            if rng is None:
                raise ValueError("rng is required when subsets are sampled")
            def _draws():
                for _ in range(sample_limit):
                    k = int(rng.integers(0, max_conditioning + 1))
                    yield tuple(
                        rng.choice(len(others), size=min(k, len(others)), replace=False)
                    )
            subsets = (tuple(others[t] for t in s) for s in _draws())
        for s in subsets:
            rho = partial_correlation(truth.sigma, i, j, tuple(s))
            scanned += 1
            min_sq = min(min_sq, rho * rho)
            max_abs = max(max_abs, abs(rho))
    return ConditionsReport(
        p=p,
        n_edges=truth.graph.size,
        lambda_min=float(eigs[0]),
        lambda_max=float(eigs[-1]),
        min_edge_partial_corr_sq=float(min_sq),
        max_abs_partial_corr=float(max_abs),
        conditioning_sets_scanned=scanned,
        exhaustive=exhaustive,
    )


def case_graph(
    case: int, truth_graph: UndirectedGraph, rng: np.random.Generator
) -> UndirectedGraph:
    """A non-true comparison graph for the posterior-ratio experiment.

    Case 1: decomposable supergraph of the truth with twice its edges.
    Case 2: decomposable subgraph with floor(|G0|/2) edges.  Cases 3 and 4
    match those sizes but grow from the empty graph, so containment is not
    enforced.  All moves are uniformly chosen decomposability-preserving
    single-edge changes driven by ``rng``.  Cases 1, 3 and 4 make their
    target - size additions in one ``random_decomposable_additions`` call;
    case 2 deletes one edge per ``random_decomposable_move`` call.  Raises
    ValueError, before any draw, when the target size exceeds the p(p-1)/2
    pairs there are.
    """
    k0 = truth_graph.size
    if case == 1:
        g, target, add = truth_graph, 2 * k0, True
    elif case == 2:
        g, target, add = truth_graph, k0 // 2, False
    elif case == 3:
        g, target, add = UndirectedGraph.empty(truth_graph.p), 2 * k0, True
    elif case == 4:
        g, target, add = UndirectedGraph.empty(truth_graph.p), k0 // 2, True
    else:
        raise ValueError(f"case must be 1..4, got {case}")
    if target > g.max_edges:
        raise ValueError(
            f"case {case} needs {target} edges but p={g.p} allows {g.max_edges}"
        )
    if add:
        return random_decomposable_additions(g, target - g.size, rng)
    while g.size != target:
        g = random_decomposable_move(g, False, rng)
    return g


def posterior_ratio_experiment(
    p_list: list[int],
    n: int,
    case: int,
    seed: int = 0,
    hyper_preset: str = "ratio",
    n_seeds: int = 1,
) -> list[dict]:
    """Log posterior ratios of case graphs against the sim1 truth.

    For each p the truth is the sim1-ar1-cov model; one dataset of n rows is
    drawn per (p, replicate), a case graph is built, and the log posterior
    ratio of the case graph over the true graph is recorded.  Streams are
    derived from the p index and replicate, so p values are reproducible
    independently of each other.  Raises ValueError for p < 2 (via
    ``TrueModelSpec``, before the preset is resolved), for ``n_seeds`` < 1,
    and for a case graph larger than p allows.
    """
    if n_seeds < 1:
        raise ValueError(f"need at least one replicate, got {n_seeds}")
    rows: list[dict] = []
    for ip, p in enumerate(p_list):
        truth = build_truth(TrueModelSpec("sim1-ar1-cov", p))
        hyper = Hyperparameters.preset(hyper_preset, p)
        for rep in range(n_seeds):
            rng = make_rng(seed, stream=ip * 1000 + rep)
            data = sample_dataset(truth, n, rng)
            g_case = case_graph(case, truth.graph, rng)
            ratio = log_posterior_ratio(data, g_case, truth.graph, hyper)
            rows.append(
                {
                    "case": case,
                    "p": p,
                    "n": n,
                    "seed": seed,
                    "replicate": rep,
                    "g": hyper.g,
                    "size_case": g_case.size,
                    "size_truth": truth.graph.size,
                    "log_posterior_ratio": float(ratio),
                }
            )
    return rows

"""Independent reference implementations used to check the library.

Everything here is deliberately written from first principles (brute force
where feasible) rather than by calling the code under test.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def chordless_cycle_exists(p: int, edges: set[tuple[int, int]]) -> bool:
    """Brute force: scan all vertex subsets of size >= 4 and all cyclic
    orders, looking for a cycle whose subset spans no chord."""

    def has(i, j):
        return (min(i, j), max(i, j)) in edges

    for k in range(4, p + 1):
        for subset in itertools.combinations(range(p), k):
            # fix subset[0] first and quotient out direction to dedupe orders
            rest = subset[1:]
            for perm in itertools.permutations(rest):
                if perm[0] > perm[-1]:
                    continue
                cycle = (subset[0],) + perm
                if not all(
                    has(cycle[t], cycle[(t + 1) % k]) for t in range(k)
                ):
                    continue
                chord = False
                for a in range(k):
                    for b in range(a + 1, k):
                        if (b - a) in (1, k - 1):
                            continue
                        if has(cycle[a], cycle[b]):
                            chord = True
                            break
                    if chord:
                        break
                if not chord:
                    return True
    return False


def chordal_by_cycle_scan(p: int, edges: set[tuple[int, int]]) -> bool:
    return not chordless_cycle_exists(p, edges)


def reachable(p: int, edges: set[tuple[int, int]], u: int, v: int) -> bool:
    """Plain breadth-first search from u over an edge set."""
    seen, queue = {u}, [u]
    for a in queue:
        for b in range(p):
            if b not in seen and (min(a, b), max(a, b)) in edges:
                seen.add(b)
                queue.append(b)
    return v in seen


def wishart_batch(
    df: float, scale: np.ndarray, rng: np.random.Generator, size: int
) -> np.ndarray:
    """size draws from the density det(B)^((df-2)/2) exp(-tr(B scale)/2),
    via a vectorised Bartlett construction."""
    q = scale.shape[0]
    df_std = df + q - 1
    lower = np.linalg.cholesky(scale)
    f = np.linalg.inv(lower).T  # F F' = inv(scale)
    t = np.zeros((size, q, q))
    for i in range(q):
        t[:, i, i] = np.sqrt(rng.chisquare(df_std - i, size=size))
        for j in range(i):
            t[:, i, j] = rng.standard_normal(size)
    ft = np.einsum("ab,nbc->nac", f, t)
    return np.einsum("nab,ncb->nac", ft, ft)


def gwishart_prior_batch(
    cliques: list[tuple[int, ...]],
    separators: list[tuple[int, ...]],
    p: int,
    df: float,
    a: np.ndarray,
    rng: np.random.Generator,
    size: int,
) -> np.ndarray:
    """Batched draws with support on a decomposable graph, built clique by
    clique: the leading clique block of the covariance comes from inverting
    complete-graph draws, later cliques are filled in conditional on their
    separator block, and the precision is assembled by the clique-minus-
    separator completion."""
    sigma = np.zeros((size, p, p))
    first = list(cliques[0])
    k = wishart_batch(df, a[np.ix_(first, first)], rng, size)
    sigma[np.ix_(range(size), first, first)] = np.linalg.inv(k)
    for l in range(1, len(cliques)):
        cl = cliques[l]
        sep = separators[l - 1]
        r = [v for v in cl if v not in sep]
        s = list(sep)
        if not s:
            k = wishart_batch(df, a[np.ix_(r, r)], rng, size)
            sigma[np.ix_(range(size), r, r)] = np.linalg.inv(k)
            continue
        b_rr = a[np.ix_(r, r)]
        b_rs = a[np.ix_(r, s)]
        b_ss = a[np.ix_(s, s)]
        b_ss_inv = np.linalg.inv(b_ss)
        b_res = b_rr - b_rs @ b_ss_inv @ b_rs.T
        k_rr = wishart_batch(df + len(s), b_res, rng, size)
        gamma = np.linalg.inv(k_rr)
        lo_g = np.linalg.cholesky(gamma)
        col = np.linalg.cholesky(b_ss_inv)
        z = rng.standard_normal((size, len(r), len(s)))
        u = b_rs @ b_ss_inv + lo_g @ z @ col.T
        sig_ss = sigma[np.ix_(range(size), s, s)]
        sig_rs = u @ sig_ss
        sigma[np.ix_(range(size), r, s)] = sig_rs
        sigma[np.ix_(range(size), s, r)] = np.swapaxes(sig_rs, 1, 2)
        sigma[np.ix_(range(size), r, r)] = gamma + sig_rs @ np.swapaxes(u, 1, 2)
    omega = np.zeros((size, p, p))
    for cl in cliques:
        idx = list(cl)
        omega[np.ix_(range(size), idx, idx)] += np.linalg.inv(
            sigma[np.ix_(range(size), idx, idx)]
        )
    for sep in separators:
        if not sep:
            continue
        idx = list(sep)
        omega[np.ix_(range(size), idx, idx)] -= np.linalg.inv(
            sigma[np.ix_(range(size), idx, idx)]
        )
    return omega


def gaussian_loglik_batch(x: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """log prod_i N(x_i; 0, inv(Omega)) for a batch of precisions."""
    n, p = x.shape
    gram = x.T @ x
    sign, logdet = np.linalg.slogdet(omegas)
    assert np.all(sign > 0)
    tr = np.einsum("nab,ba->n", omegas, gram)
    return -n * p / 2.0 * math.log(2 * math.pi) + n / 2.0 * logdet - 0.5 * tr


def mc_mean_and_se(log_values: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of exp(log_values), computed stably."""
    shift = log_values.max()
    w = np.exp(log_values - shift)
    mean = float(w.mean())
    se = float(w.std(ddof=1) / math.sqrt(len(w)))
    return mean * math.exp(shift), se * math.exp(shift)


def log_mc_mean_and_rel_se(log_values: np.ndarray) -> tuple[float, float]:
    """log of the MC mean of exp(log_values) and its relative standard error."""
    shift = log_values.max()
    w = np.exp(log_values - shift)
    mean = w.mean()
    rel_se = float(w.std(ddof=1) / math.sqrt(len(w)) / mean)
    return float(np.log(mean) + shift), rel_se

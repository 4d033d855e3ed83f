"""Edge-selection quality and matrix error summaries."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .graph import UndirectedGraph

NORMS = ("l1", "spectral", "frobenius", "max")


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int


@dataclass(frozen=True)
class SelectionReport:
    """Precision, sensitivity, specificity and MCC of an estimated edge set.

    ``degenerate`` flags any 0/0 ratio, which is reported as 0.
    """

    counts: ConfusionCounts
    precision: float
    sensitivity: float
    specificity: float
    mcc: float
    degenerate: bool


def confusion(estimate: UndirectedGraph, truth: UndirectedGraph) -> ConfusionCounts:
    """Edge confusion counts of an estimated graph against the truth."""
    if estimate.p != truth.p:
        raise DimensionMismatch(
            f"graphs disagree on p: {estimate.p} vs {truth.p}"
        )
    m = truth.max_edges
    tp = len(estimate.edges & truth.edges)
    fp = len(estimate.edges - truth.edges)
    fn = len(truth.edges - estimate.edges)
    tn = m - tp - fp - fn
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)


def _ratio(num: float, den: float) -> tuple[float, bool]:
    if den == 0:
        return 0.0, True
    return num / den, False


def selection_report(
    estimate: UndirectedGraph, truth: UndirectedGraph
) -> SelectionReport:
    """Selection metrics; MCC uses the standard four-margin denominator."""
    c = confusion(estimate, truth)
    degenerate = False
    precision, d = _ratio(c.tp, c.tp + c.fp)
    degenerate |= d
    sensitivity, d = _ratio(c.tp, c.tp + c.fn)
    degenerate |= d
    specificity, d = _ratio(c.tn, c.tn + c.fp)
    degenerate |= d
    den = (
        float(c.tp + c.fp) * (c.tp + c.fn) * (c.tn + c.fp) * (c.tn + c.fn)
    )
    if den == 0:
        mcc, degenerate = 0.0, True
    else:
        mcc = (c.tp * c.tn - c.fp * c.fn) / math.sqrt(den)
    return SelectionReport(
        counts=c,
        precision=precision,
        sensitivity=sensitivity,
        specificity=specificity,
        mcc=mcc,
        degenerate=degenerate,
    )


def matrix_norm(m: np.ndarray, which: str) -> float:
    """One of the l1 (max column sum), spectral, frobenius or max norms."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got shape {m.shape}")
    if which == "l1":
        return float(np.abs(m).sum(axis=0).max())
    if which == "spectral":
        return float(np.linalg.norm(m, 2))
    if which == "frobenius":
        return float(np.linalg.norm(m, "fro"))
    if which == "max":
        return float(np.abs(m).max())
    raise ValueError(f"unknown norm {which!r}; expected one of {NORMS}")


def relative_errors(estimate: np.ndarray, truth: np.ndarray) -> dict[str, float]:
    """norm(estimate - truth) / norm(truth) for each of the four norms.

    The truth must be nonzero.  Keys follow NORMS order.
    """
    estimate = np.asarray(estimate, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if estimate.shape != truth.shape:
        raise DimensionMismatch(
            f"shape mismatch {estimate.shape} vs {truth.shape}"
        )
    if not np.any(truth):
        raise ValueError("reference matrix is identically zero")
    diff = estimate - truth
    return {w: matrix_norm(diff, w) / matrix_norm(truth, w) for w in NORMS}

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwish.errors import DimensionMismatch
from gwish.graph import UndirectedGraph
from gwish.metrics import (
    NORMS,
    ConfusionCounts,
    confusion,
    matrix_norm,
    relative_errors,
    selection_report,
)


def graph_from_mask(p, mask):
    pairs = [(i, j) for i in range(p) for j in range(i + 1, p)]
    return UndirectedGraph(p, frozenset(e for e, keep in zip(pairs, mask) if keep))


edge_masks = st.integers(min_value=5, max_value=8).flatmap(
    lambda p: st.tuples(
        st.just(p),
        st.lists(st.booleans(), min_size=p * (p - 1) // 2, max_size=p * (p - 1) // 2),
        st.lists(st.booleans(), min_size=p * (p - 1) // 2, max_size=p * (p - 1) // 2),
    )
)


class TestConfusion:
    def test_worked_example(self):
        # TP=3 FP=1 TN=40 FN=1 on p=10: MCC = 119 / sqrt(4*4*41*41) = 119/164
        truth = UndirectedGraph.from_edges(10, [(0, 1), (1, 2), (2, 3), (3, 4)])
        estimate = UndirectedGraph.from_edges(10, [(0, 1), (1, 2), (2, 3), (5, 6)])
        c = confusion(estimate, truth)
        assert c == ConfusionCounts(tp=3, fp=1, tn=40, fn=1)
        rep = selection_report(estimate, truth)
        assert rep.mcc == pytest.approx(119.0 / 164.0, abs=1e-15)
        assert rep.precision == pytest.approx(0.75)
        assert rep.sensitivity == pytest.approx(0.75)
        assert rep.specificity == pytest.approx(40.0 / 41.0)
        assert not rep.degenerate

    def test_counts_sum_to_max_edges(self):
        truth = UndirectedGraph.from_edges(6, [(0, 1), (2, 3)])
        estimate = UndirectedGraph.from_edges(6, [(0, 1), (4, 5)])
        c = confusion(estimate, truth)
        assert c.tp + c.fp + c.tn + c.fn == 15

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            confusion(UndirectedGraph.empty(3), UndirectedGraph.empty(4))

    def test_perfect_recovery(self):
        g = UndirectedGraph.from_edges(5, [(0, 1), (3, 4)])
        rep = selection_report(g, g)
        assert rep.mcc == 1.0
        assert rep.precision == rep.sensitivity == rep.specificity == 1.0

    def test_empty_against_empty_is_degenerate(self):
        g = UndirectedGraph.empty(4)
        rep = selection_report(g, g)
        assert rep.degenerate
        assert rep.mcc == 0.0
        assert rep.precision == 0.0 and rep.sensitivity == 0.0
        assert rep.specificity == 1.0

    def test_total_confusion_is_minus_one(self):
        truth = UndirectedGraph.from_edges(2, [(0, 1)])
        rep = selection_report(UndirectedGraph.empty(2), truth)
        # tp = tn = 0 with fn = 1: every margin with a zero factor
        assert rep.degenerate
        # complement on p=3: estimate exactly the non-edges
        truth = UndirectedGraph.from_edges(3, [(0, 1)])
        est = UndirectedGraph.from_edges(3, [(0, 2), (1, 2)])
        assert selection_report(est, truth).mcc == -1.0

    @settings(max_examples=150, deadline=None)
    @given(edge_masks)
    def test_metric_ranges(self, drawn):
        p, mask_a, mask_b = drawn
        est, truth = graph_from_mask(p, mask_a), graph_from_mask(p, mask_b)
        rep = selection_report(est, truth)
        assert -1.0 <= rep.mcc <= 1.0
        assert 0.0 <= rep.precision <= 1.0
        assert 0.0 <= rep.sensitivity <= 1.0
        assert 0.0 <= rep.specificity <= 1.0

    @settings(max_examples=150, deadline=None)
    @given(edge_masks)
    def test_mcc_one_iff_exact_match(self, drawn):
        p, mask_a, mask_b = drawn
        est, truth = graph_from_mask(p, mask_a), graph_from_mask(p, mask_b)
        rep = selection_report(est, truth)
        c = rep.counts
        if rep.mcc == 1.0:
            assert c.fp == 0 and c.fn == 0 and c.tp > 0 and c.tn > 0
        if c.fp == 0 and c.fn == 0 and c.tp > 0 and c.tn > 0:
            assert rep.mcc == 1.0

    @settings(max_examples=100, deadline=None)
    @given(edge_masks)
    def test_symmetry_under_swap(self, drawn):
        # swapping estimate and truth transposes the confusion matrix, which
        # leaves MCC unchanged
        p, mask_a, mask_b = drawn
        a, b = graph_from_mask(p, mask_a), graph_from_mask(p, mask_b)
        assert selection_report(a, b).mcc == pytest.approx(
            selection_report(b, a).mcc, abs=1e-12
        )


square_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda q: st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        min_size=q * q,
        max_size=q * q,
    ).map(lambda vals: np.array(vals).reshape(q, q))
)


class TestNorms:
    def test_known_values(self):
        m = np.array([[1.0, -2.0], [3.0, 4.0]])
        assert matrix_norm(m, "l1") == 6.0  # max column sum |−2| + 4
        assert matrix_norm(m, "max") == 4.0
        assert matrix_norm(m, "frobenius") == pytest.approx(np.sqrt(30.0))
        assert matrix_norm(np.diag([3.0, -7.0]), "spectral") == pytest.approx(7.0)

    def test_unknown_norm(self):
        with pytest.raises(ValueError):
            matrix_norm(np.eye(2), "nuclear")
        with pytest.raises(DimensionMismatch):
            matrix_norm(np.ones(3), "l1")

    @settings(max_examples=100, deadline=None)
    @given(square_matrices, st.sampled_from(NORMS))
    def test_homogeneity_and_triangle(self, m, which):
        norm = matrix_norm(m, which)
        assert norm >= 0.0
        assert matrix_norm(2.5 * m, which) == pytest.approx(2.5 * norm, rel=1e-9)
        other = np.ones_like(m)
        lhs = matrix_norm(m + other, which)
        rhs = norm + matrix_norm(other, which)
        assert lhs <= rhs * (1 + 1e-12) + 1e-9

    def test_spectral_dominated_by_frobenius(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = rng.standard_normal((4, 4))
            assert matrix_norm(m, "spectral") <= matrix_norm(m, "frobenius") + 1e-12


class TestRelativeErrors:
    def test_zero_for_exact_estimate(self):
        truth = np.array([[2.0, 1.0], [1.0, 3.0]])
        errs = relative_errors(truth, truth)
        assert set(errs) == set(NORMS)
        assert all(v == 0.0 for v in errs.values())

    def test_simple_ratio(self):
        truth = np.eye(3)
        errs = relative_errors(1.5 * truth, truth)
        for v in errs.values():
            assert v == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(DimensionMismatch):
            relative_errors(np.eye(2), np.eye(3))
        with pytest.raises(ValueError):
            relative_errors(np.eye(2), np.zeros((2, 2)))

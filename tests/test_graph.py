import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gwish.graph
from gwish.errors import IndexOutOfRange, InvalidMove, NotDecomposable, NoValidMove
from gwish.graph import (
    GrowingGraph,
    UndirectedGraph,
    _mcs_visit,
    _move_table,
    enumerate_decomposable_graphs,
    enumerate_graphs,
    is_decomposable,
    move_is_decomposable,
    random_decomposable_move,
    read_edge_list,
    write_edge_list,
)
from gwish.model import Dataset, GraphScorer, Hyperparameters
from gwish.numerics import make_rng

from conftest import chordal_graphs
from oracles import (
    adjacency,
    check_perfect_sequence,
    chordal_by_cycle_scan,
    decomposable_neighbors_reference,
    log_posterior_delta,
    mcs_visit_reference,
    perfect_sequence,
    random_decomposable_move_reference,
    reachable,
    relabel,
    relabelled_perfect_sequence,
)


def move_pairs(g):
    """The (u, v) of each move in the table of ``g``, in table order."""
    return [(u, v) for u, v, _ in _move_table(g)]


def check_move_table(g):
    """The table lists the per-pair reference's moves in its order, each
    with S = N(u) & N(v)."""
    table = _move_table(g)
    assert [(u, v) for u, v, _ in table] == decomposable_neighbors_reference(g)
    nbrs = g.neighbor_masks
    for u, v, sep in table:
        assert sep == nbrs[u] & nbrs[v]


def all_graphs(p):
    return list(enumerate_graphs(p))


def members(mask, p):
    """The vertices of a vertex mask, ascending."""
    return [x for x in range(p) if mask >> x & 1]


def mcs_visit(g):
    """``_mcs_visit`` with each earlier-neighbour mask as an ascending list."""
    order, earlier = _mcs_visit(g)
    return order, [members(m, g.p) for m in earlier]


def mcs_visit_relabelled(g, rank):
    """``_mcs_visit`` of ``relabel(g, rank)`` mapped back to the labels of
    ``g``, each earlier-neighbour list re-sorted: the search on ``g`` with
    ties toward the lowest ``rank`` value."""
    inv = [0] * g.p
    for v, r in enumerate(rank):
        inv[r] = v
    order, earlier = mcs_visit(relabel(g, rank))
    return [inv[z] for z in order], [sorted(inv[x] for x in e) for e in earlier]


@st.composite
def any_graphs(draw, max_p=12):
    """A graph on up to ``max_p`` vertices with every pair drawn in or out,
    so most are not chordal."""
    p = draw(st.integers(min_value=1, max_value=max_p))
    pairs = list(itertools.combinations(range(p), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return UndirectedGraph(p, frozenset(e for e, k in zip(pairs, keep) if k))


class TestBasics:
    def test_empty_graph_cliques_are_singletons(self):
        seq = perfect_sequence(UndirectedGraph.empty(3))
        assert seq.cliques == (frozenset({0}), frozenset({1}), frozenset({2}))
        assert seq.separators == (frozenset(), frozenset())

    def test_path_graph_cliques_and_separator(self):
        g = UndirectedGraph.from_edges(3, [(0, 1), (1, 2)])
        seq = perfect_sequence(g)
        assert seq.cliques == (frozenset({0, 1}), frozenset({1, 2}))
        assert seq.separators == (frozenset({1}),)

    def test_four_cycle_is_not_decomposable(self):
        c4 = UndirectedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert not is_decomposable(c4)
        with pytest.raises(NotDecomposable):
            perfect_sequence(c4)

    def test_single_vertex(self):
        g = UndirectedGraph.empty(1)
        assert is_decomposable(g)
        assert perfect_sequence(g).cliques == (frozenset({0}),)

    def test_edge_normalisation_and_validation(self):
        g = UndirectedGraph.from_edges(4, [(3, 1)])
        assert g.has_edge(1, 3) and g.has_edge(3, 1)
        with pytest.raises(InvalidMove):
            UndirectedGraph.from_edges(3, [(1, 1)])
        with pytest.raises(Exception):
            UndirectedGraph.from_edges(3, [(0, 5)])

    def test_toggled_round_trip(self):
        g = UndirectedGraph.empty(3).toggled(0, 2)
        assert g.edges == {(0, 2)}
        assert g.toggled(2, 0) == UndirectedGraph.empty(3)
        assert g.toggled(1, 0) == UndirectedGraph.from_edges(3, [(0, 2), (0, 1)])
        with pytest.raises(IndexOutOfRange):
            g.toggled(0, 3)
        with pytest.raises(IndexOutOfRange):
            g.toggled(-1, 1)

    @settings(max_examples=100, deadline=None)
    @given(any_graphs(), st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)),
                                  max_size=8))
    def test_toggled_derives_the_reads_of_a_fresh_graph(self, g, moves):
        # a child built by toggled from a parent whose reads are cached must
        # read the masks and sorted edges its edge set builds afresh
        g.neighbor_masks, g.sorted_edges
        for i, j in moves:
            i, j = i % g.p, j % g.p
            if i == j:
                continue
            g = g.toggled(i, j)
            fresh = UndirectedGraph(g.p, g.edges)
            assert g.neighbor_masks == fresh.neighbor_masks
            assert g.sorted_edges == fresh.sorted_edges


class TestChordalityOracle:
    """is_decomposable against a brute-force chordless-cycle scan."""

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_all_graphs_small_p(self, p):
        for g in all_graphs(p):
            expected = chordal_by_cycle_scan(p, set(g.edges))
            assert is_decomposable(g) == expected, sorted(g.edges)

    def test_sampled_graphs_p6(self):
        rng = np.random.default_rng(42)
        pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        for _ in range(300):
            mask = rng.random(15) < rng.uniform(0.2, 0.8)
            g = UndirectedGraph(
                6, frozenset(e for e, keep in zip(pairs, mask) if keep)
            )
            assert is_decomposable(g) == chordal_by_cycle_scan(6, set(g.edges))

    def test_relabel_invariance(self):
        rng = np.random.default_rng(7)
        pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        for _ in range(100):
            mask = rng.random(15) < 0.4
            g = UndirectedGraph(
                6, frozenset(e for e, keep in zip(pairs, mask) if keep)
            )
            perm = rng.permutation(6).tolist()
            assert is_decomposable(g) == is_decomposable(relabel(g, perm))


class TestPerfectSequence:
    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_invariants_all_graphs(self, p):
        for g in all_graphs(p):
            if not is_decomposable(g):
                continue
            seq = perfect_sequence(g)
            check_perfect_sequence(g, seq)
            sizes = sum(len(c) for c in seq.cliques) - sum(
                len(s) for s in seq.separators
            )
            assert sizes == p

    def test_invariants_sampled_p6(self):
        rng = np.random.default_rng(3)
        pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        found = 0
        while found < 150:
            mask = rng.random(15) < 0.4
            g = UndirectedGraph(
                6, frozenset(e for e, keep in zip(pairs, mask) if keep)
            )
            if not is_decomposable(g):
                continue
            found += 1
            seq = perfect_sequence(g)
            check_perfect_sequence(g, seq)

    def test_deterministic(self):
        g = UndirectedGraph.from_edges(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
        assert perfect_sequence(g) == perfect_sequence(g)

    def test_alternative_tie_breaks_stay_valid(self):
        rng = np.random.default_rng(11)
        for g in all_graphs(4):
            if not is_decomposable(g):
                continue
            for _ in range(3):
                perm = rng.permutation(4).tolist()
                check_perfect_sequence(g, relabelled_perfect_sequence(g, perm))


class TestMcsVisit:
    """The bucket-mask search against the dense argmax search it replaced."""

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_matches_reference_on_every_small_graph(self, p):
        rng = np.random.default_rng(p)
        for g in all_graphs(p):
            assert mcs_visit(g) == mcs_visit_reference(g)
            for _ in range(3):
                rank = rng.permutation(p).tolist()
                assert mcs_visit_relabelled(g, rank) == mcs_visit_reference(g, rank)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(chordal_graphs, any_graphs()), st.data())
    def test_matches_reference_on_random_graphs(self, g, data):
        rank = data.draw(st.permutations(range(g.p)))
        assert mcs_visit(g) == mcs_visit_reference(g)
        assert mcs_visit_relabelled(g, rank) == mcs_visit_reference(g, rank)


class TestMoves:
    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_move_check_agrees_with_apply_then_test(self, p):
        for g in all_graphs(p):
            if not is_decomposable(g):
                continue
            for i in range(p):
                for j in range(i + 1, p):
                    expected = is_decomposable(g.toggled(i, j))
                    assert move_is_decomposable(g, (i, j)) == expected

    def test_invalid_moves_raise(self):
        g = UndirectedGraph.from_edges(3, [(0, 1)])
        with pytest.raises(InvalidMove):
            move_is_decomposable(g, (1, 1))
        with pytest.raises(InvalidMove):
            g.toggled(2, 2)

    def test_triangle_neighbors_are_three_deletions(self):
        k3 = UndirectedGraph.complete(3)
        assert move_pairs(k3) == list(k3.sorted_edges)

    def test_neighbors_of_empty_graph_are_all_additions(self):
        nbrs = move_pairs(UndirectedGraph.empty(4))
        assert nbrs == [(i, j) for i in range(4) for j in range(i + 1, 4)]

    def test_neighbors_deterministic_lexicographic(self):
        g = UndirectedGraph.from_edges(4, [(0, 1), (1, 2)])
        nbrs = move_pairs(g)
        assert nbrs == sorted(nbrs)
        # every listed move must verify, every omitted one must fail
        listed = set(nbrs)
        for i in range(4):
            for j in range(i + 1, 4):
                assert ((i, j) in listed) == move_is_decomposable(g, (i, j))

    def test_random_move_keeps_decomposability(self):
        rng = make_rng(0, 0)
        g = UndirectedGraph.from_edges(6, [(i, i + 1) for i in range(5)])
        for _ in range(20):
            g2 = random_decomposable_move(g, True, rng)
            assert g2.size == g.size + 1
            assert is_decomposable(g2)
            g3 = random_decomposable_move(g, False, rng)
            assert g3.size == g.size - 1
            assert is_decomposable(g3)

    def test_add_with_many_common_neighbours(self):
        # 0 and 1 share 128 common neighbours, which wraps an int8 count to
        # -128; the pair must still be found and the addition is valid.
        p = 130
        g = UndirectedGraph.complete(p).toggled(0, 1)
        assert is_decomposable(g)
        g2 = random_decomposable_move(g, True, make_rng(0, 0))
        assert g2 == UndirectedGraph.complete(p)

    def test_delete_on_empty_graph_adds(self):
        g = random_decomposable_move(UndirectedGraph.empty(4), False, make_rng(0, 0))
        assert g.size == 1

    def test_add_on_complete_graph_deletes(self):
        k4 = UndirectedGraph.complete(4)
        g = random_decomposable_move(k4, True, make_rng(0, 0))
        assert g.size == k4.size - 1 and g.edges < k4.edges
        assert is_decomposable(g)

    @pytest.mark.parametrize("add", [True, False])
    def test_no_pair_at_p1_raises(self, add):
        with pytest.raises(NoValidMove):
            random_decomposable_move(UndirectedGraph.empty(1), add, make_rng(0, 0))


class ShuffleRecorder:
    """Stands in for the generator: records the candidate list, keeps order."""

    def shuffle(self, seq):
        self.seen = list(seq)


class TestLocalMoveRules:
    """The local add/delete rules against apply-then-test, on random chordal graphs."""

    @settings(max_examples=150, deadline=None)
    @given(chordal_graphs)
    def test_every_move_agrees_with_apply_then_test(self, g):
        assert is_decomposable(g)
        for i in range(g.p):
            for j in range(i + 1, g.p):
                expected = is_decomposable(g.toggled(i, j))
                assert move_is_decomposable(g, (i, j)) == expected

    @settings(max_examples=150, deadline=None)
    @given(chordal_graphs)
    def test_add_candidates_match_per_pair_bfs(self, g):
        nbrs = g.neighbor_masks
        expected = [
            (i, j)
            for i in range(g.p)
            for j in range(i + 1, g.p)
            if (i, j) not in g.edges
            and (nbrs[i] & nbrs[j] or not reachable(g.p, set(g.edges), i, j))
        ]
        recorder = ShuffleRecorder()
        random_decomposable_move(g, True, recorder)
        if g.size == g.max_edges:
            # no pair to add: the move is a deletion, drawn from the edges
            assert recorder.seen == sorted(g.edges)
        else:
            # additions are drawn as flat indices u * p + v
            assert [divmod(int(k), g.p) for k in recorder.seen] == expected

    @settings(max_examples=150, deadline=None)
    @given(chordal_graphs, st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_addition_matches_per_move_reference(self, g, seed):
        rng, ref_rng = make_rng(seed), make_rng(seed)
        assert random_decomposable_move(g, True, rng) == (
            random_decomposable_move_reference(g, True, ref_rng)
        )
        assert rng.random() == ref_rng.random()


    @settings(max_examples=150, deadline=None)
    @given(chordal_graphs)
    def test_neighbors_match_per_pair_reference(self, g):
        check_move_table(g)

    def test_neighbors_match_per_pair_reference_up_to_p6(self):
        for p in range(1, 7):
            for g in enumerate_decomposable_graphs(p):
                check_move_table(g)

    def test_move_table_runs_no_chordality_pass(self, monkeypatch):
        # the table trusts its graph to be decomposable; only a move test
        # per visited pair runs, never a maximum cardinality search
        calls = []
        visit = gwish.graph._mcs_visit

        def counted(g):
            calls.append(g)
            return visit(g)

        monkeypatch.setattr(gwish.graph, "_mcs_visit", counted)
        g = UndirectedGraph.from_edges(
            8, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (5, 6)]
        )
        assert _move_table(g)
        assert calls == []


class TestNoPerPairSearch:
    """Pairs that the add-candidate filter decides run no separator BFS."""

    def test_empty_graph_and_path_neighbourhoods(self, separator_searches):
        p = 8
        empty = UndirectedGraph.empty(p)
        path = UndirectedGraph.from_edges(p, [(i, i + 1) for i in range(p - 1)])
        # every pair of the empty graph lies in different components; a path
        # is a tree, so each pair two steps apart is separated by its middle
        # vertex, and pairs further apart have no common neighbour
        assert move_pairs(empty) == list(itertools.combinations(range(p), 2))
        assert move_pairs(path) == sorted(
            [(i, i + 1) for i in range(p - 1)] + [(i, i + 2) for i in range(p - 2)]
        )
        assert separator_searches == []

    def test_move_test_decides_from_components(self, separator_searches):
        # a path 0-1-2-3 beside a triangle 4-5-6 with a tail 6-7
        g = UndirectedGraph.from_edges(
            8, [(0, 1), (1, 2), (2, 3), (4, 5), (4, 6), (5, 6), (6, 7)]
        )
        assert not move_is_decomposable(g, (0, 3))  # joined, no common neighbour
        assert move_is_decomposable(g, (3, 4))  # in two components
        assert move_is_decomposable(g, (0, 2))  # common neighbour 1 in a tree
        assert separator_searches == []
        # common neighbour 6 in the component with the triangle
        assert move_is_decomposable(g, (4, 7))
        assert separator_searches == [(4, 7)]

    def test_cycle_in_component_needs_the_search(self, separator_searches):
        # a triangle with a tail: (0, 3) has common neighbour 2 in a component
        # with a cycle, so only the BFS avoiding {2} can accept it
        g = UndirectedGraph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        assert (0, 3) in move_pairs(g)
        assert separator_searches


def grown_state(grown):
    """Everything a ``GrowingGraph`` holds, as plain values; the component
    labelling as the partition it makes, with each block's cycle flag.  The
    ``candidates`` call comes first, since it builds the dense state."""
    candidates = grown.candidates().tolist()
    blocks = {}
    for x, label in enumerate(grown.labels):
        blocks.setdefault(label, set()).add(x)
    return {
        "edges": grown.edges,
        "neighbor_masks": grown.neighbor_masks,
        "adjacency": grown.adj.tolist(),
        "shared": grown.shared.tolist(),
        "components": {frozenset(b): grown._cyclic[k] for k, b in blocks.items()},
        "candidates": candidates,
    }


class TestGrowingGraph:
    """The state kept across additions is the state built for the result."""

    @settings(max_examples=150, deadline=None)
    @given(chordal_graphs, st.booleans(), st.integers(0, 30),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_grown_equals_built_fresh(self, g, from_empty, count, seed):
        grown = GrowingGraph(UndirectedGraph.empty(g.p) if from_empty else g)
        rng = make_rng(seed)
        for _ in range(count):
            try:
                grown.draw(rng)
            except NoValidMove:
                assert grown.size == g.max_edges
                break
        fresh = GrowingGraph(UndirectedGraph(g.p, frozenset(grown.edges)))
        assert grown_state(grown) == grown_state(fresh)

    @settings(max_examples=150, deadline=None)
    @given(chordal_graphs, st.integers(min_value=0, max_value=2**32 - 1))
    def test_dense_state_kept_through_additions_equals_built_after(self, g, seed):
        # one greedy walk over the pairs in random order, as the threshold
        # walk makes, on a state whose dense part exists before the run and
        # on one that builds it after
        early, late = GrowingGraph(g), GrowingGraph(g)
        early.candidates()
        pairs = list(itertools.combinations(range(g.p), 2))
        for k in make_rng(seed).permutation(len(pairs)).tolist():
            u, v = pairs[k]
            if (u, v) not in early.edges and early.can_add(u, v):
                early.add(u, v)
                late.add(u, v)
        assert late.adj is None and late.shared is None
        assert grown_state(early) == grown_state(late)

    @settings(max_examples=150, deadline=None)
    @given(chordal_graphs)
    def test_built_state_matches_definitions(self, g):
        state = grown_state(GrowingGraph(g))
        nbrs = g.neighbor_masks
        pairs = list(itertools.combinations(range(g.p), 2))
        assert state["adjacency"] == adjacency(g).tolist()
        assert state["shared"] == [
            [i != j and bool(nbrs[i] & nbrs[j]) for j in range(g.p)]
            for i in range(g.p)
        ]
        components = state["components"]
        assert all(
            any({i, j} <= b for b in components) == reachable(g.p, set(g.edges), i, j)
            for i, j in pairs
        )
        for block, cyclic in components.items():
            inside = sum(1 for i, j in g.edges if i in block)
            assert cyclic == (inside >= len(block))
        assert state["candidates"] == [
            i * g.p + j for i, j in pairs
            if (i, j) not in g.edges
            and (nbrs[i] & nbrs[j] or not reachable(g.p, set(g.edges), i, j))
        ]

    def test_growing_a_forest_runs_no_search(self, separator_searches):
        # in a forest every absent pair lies in two trees (valid), in one
        # tree with a common neighbour (valid) or in one tree without one
        # (invalid), so the filter decides all of them
        p = 10
        rng = make_rng(3)
        order = rng.permutation(p).tolist()
        grown = GrowingGraph(UndirectedGraph.empty(p))
        verdicts = []
        for k in range(1, p):
            g = UndirectedGraph(p, frozenset(grown.edges))
            for i, j in itertools.combinations(range(p), 2):
                if (i, j) not in grown.edges:
                    verdicts.append((g, (i, j), grown.can_add(i, j)))
            # attach the next vertex to an earlier one: a random tree
            u, v = sorted((order[k], order[int(rng.integers(k))]))
            grown.add(u, v)
        assert grown.size == p - 1
        assert separator_searches == []
        for g, pair, ok in verdicts:
            assert ok == is_decomposable(g.toggled(*pair))


class TestMoveDelta:
    """Clique-local move scores against full clique/separator scores."""

    X = np.random.default_rng(5).standard_normal((16, 12))

    @settings(max_examples=150, deadline=None)
    @given(chordal_graphs)
    def test_delta_matches_full_marginal_difference(self, g):
        scorer = GraphScorer(Dataset.from_matrix(self.X[:, : g.p]), Hyperparameters(g=0.3))
        base = scorer.log_marginal_core(g)
        for u, v, sep in _move_table(g):
            full = scorer.log_marginal_core(g.toggled(u, v)) - base
            delta = scorer._move_delta(u, v, sep, not g.has_edge(u, v))
            assert abs(delta - full) <= 1e-9

    @settings(max_examples=150, deadline=None)
    @given(chordal_graphs, st.integers(0, 2), st.integers(0, 2))
    def test_posterior_delta_matches_scores_or_leaves_support(self, g, dr, dn):
        # the cap and the sample size sit at or just above g's own, so some
        # moves cross one of them; data needs at least 2 rows
        n = max(2, max(len(c) for c in perfect_sequence(g).cliques) + dn)
        hyper = Hyperparameters(g=0.3, r_max=g.size + dr)
        scorer = GraphScorer(Dataset.from_matrix(self.X[:n, : g.p]), hyper)
        base = scorer.score(g).log_posterior
        for u, v, sep in _move_table(g):
            g2 = g.toggled(u, v)
            got = log_posterior_delta(scorer, g, (u, v))
            # the table's separator gives the same delta, to the bit
            assert scorer._delta(u, v, sep, g.size, not g.has_edge(u, v)) == got
            if g2.size > hyper.r_max or max(map(len, perfect_sequence(g2).cliques)) > n:
                assert got == -math.inf
            else:
                assert abs(got - (scorer.score(g2).log_posterior - base)) <= 1e-9


class TestEdgeListIO:
    def test_round_trip(self, tmp_path):
        g = UndirectedGraph.from_edges(5, [(0, 4), (1, 2)])
        path = str(tmp_path / "g.edges")
        write_edge_list(g, path)
        with open(path) as fh:
            first = fh.readline().strip()
        assert first == "p=5"
        assert read_edge_list(path) == g

    def test_one_based_convention(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("p=3\n# a comment\n1 3\n\n")
        g = read_edge_list(str(path))
        assert g.edges == frozenset({(0, 2)})

    def test_header_conflict(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("p=3\n1 2\n")
        with pytest.raises(ValueError):
            read_edge_list(str(path), p=4)
        assert read_edge_list(str(path), p=3).size == 1

    def test_missing_p(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("1 2\n")
        with pytest.raises(ValueError):
            read_edge_list(str(path))
        assert read_edge_list(str(path), p=2).size == 1

    def test_malformed_header_names_the_line(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("p=five\n1 2\n")
        with pytest.raises(ValueError, match="malformed header line 'p=five'"):
            read_edge_list(str(path))

    @pytest.mark.parametrize("second", ["p=4", "p=3"])
    def test_second_header_is_an_error(self, tmp_path, second):
        path = tmp_path / "g.edges"
        path.write_text(f"p=3\n1 2\n{second}\n")
        with pytest.raises(ValueError, match=f"second header line '{second}'"):
            read_edge_list(str(path))

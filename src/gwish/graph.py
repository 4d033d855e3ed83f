"""Undirected graphs, chordality testing and perfect clique sequences.

Decomposability is detected with maximum cardinality search (MCS): a graph
is chordal iff, visiting vertices in MCS order, every vertex's already
visited neighbourhood is complete (Tarjan & Yannakakis 1984).  Maximal
cliques and a perfect sequence with the running intersection property are
read off the same visit order following Blair & Peyton (1993).  MCS reads
the neighbour sets only and picks each next vertex from a heap of integer
keys, so no dense adjacency is built for it.

A single-edge move is named by its edge alone: it deletes (u, v) when the
graph has that edge and adds it otherwise (``UndirectedGraph.toggled``).
Moves on a decomposable graph are tested locally, without re-running MCS
(Giudici & Green 1999): with S = N(u) & N(v), adding (u, v) keeps the graph
decomposable iff S separates u from v, and deleting it does iff S is
complete.  Component labels with a cycle flag per component decide most
additions without that separator search: a graph computes them once, and a
run of additions grows one mutable ``GrowingGraph`` that keeps them up to
date.

``random_decomposable_move`` draws one such move of a requested kind, and
makes the other kind when the graph has no pair of the requested one (an
empty graph cannot lose an edge, a complete one cannot gain one); it raises
NoValidMove only at p = 1, where there is no pair to move.  Random
additions, one or a run of them (``random_decomposable_additions``), are
``GrowingGraph.draw`` calls on one ``GrowingGraph``.
"""

from __future__ import annotations

import functools
import heapq
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import IndexOutOfRange, InvalidMove, NotDecomposable, NoValidMove

Edge = tuple[int, int]


def _normalize_edge(i: int, j: int) -> Edge:
    if i == j:
        raise InvalidMove(f"self loop ({i},{i}) is not a valid edge")
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class UndirectedGraph:
    """Simple undirected graph on vertices 0..p-1 with an immutable edge set.

    Edges are stored as (i, j) pairs with i < j.  Instances hash and compare
    by (p, edges), so they can key caches and sets.
    """

    p: int
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError(f"need at least one vertex, got p={self.p}")
        for i, j in self.edges:
            if not (0 <= i < j < self.p):
                raise IndexOutOfRange(f"edge ({i},{j}) invalid for p={self.p}")

    @classmethod
    def from_edges(cls, p: int, edges: Iterable[Sequence[int]]) -> "UndirectedGraph":
        """Build a graph from any iterable of vertex pairs (order-insensitive)."""
        return cls(p, frozenset(_normalize_edge(i, j) for i, j in edges))

    @classmethod
    def empty(cls, p: int) -> "UndirectedGraph":
        return cls(p, frozenset())

    @classmethod
    def complete(cls, p: int) -> "UndirectedGraph":
        return cls(p, frozenset((i, j) for i in range(p) for j in range(i + 1, p)))

    @classmethod
    def _trusted(cls, p: int, edges: frozenset[Edge]) -> "UndirectedGraph":
        """A graph from edges known to be valid (i < j, both in 0..p-1),
        built without ``__post_init__`` re-checking each of them."""
        g = object.__new__(cls)
        object.__setattr__(g, "p", p)
        object.__setattr__(g, "edges", edges)
        return g

    @property
    def size(self) -> int:
        """Number of edges."""
        return len(self.edges)

    @property
    def max_edges(self) -> int:
        return self.p * (self.p - 1) // 2

    @functools.cached_property
    def sorted_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges))

    @functools.cached_property
    def neighbor_sets(self) -> tuple[frozenset[int], ...]:
        nbrs: list[set[int]] = [set() for _ in range(self.p)]
        for i, j in self.edges:
            nbrs[i].add(j)
            nbrs[j].add(i)
        return tuple(frozenset(s) for s in nbrs)

    @functools.cached_property
    def _components(self) -> tuple[list[int], list[bool]]:
        """A component label per vertex and a cycle flag per label.

        A component's label is its lowest vertex, and its flag is read at
        that label only: a connected component has a cycle iff it has at
        least as many edges as vertices.
        """
        nbrs = self.neighbor_sets
        labels = [-1] * self.p
        cyclic = [False] * self.p
        for s in range(self.p):
            if labels[s] < 0:
                labels[s] = s
                comp = [s]
                for w in comp:
                    for x in nbrs[w]:
                        if labels[x] < 0:
                            labels[x] = s
                            comp.append(x)
                cyclic[s] = sum(len(nbrs[w]) for w in comp) >= 2 * len(comp)
        return labels, cyclic

    def has_edge(self, i: int, j: int) -> bool:
        return _normalize_edge(i, j) in self.edges

    def toggled(self, i: int, j: int) -> "UndirectedGraph":
        """The single-edge move on (i, j): delete the edge if present, else add it."""
        u, v = _normalize_edge(i, j)
        if not (0 <= u and v < self.p):
            raise IndexOutOfRange(f"edge ({u},{v}) invalid for p={self.p}")
        return UndirectedGraph._trusted(self.p, self.edges ^ {(u, v)})

    def connected(self, u: int, v: int, blocked: Iterable[int] = ()) -> bool:
        """Breadth-first reachability between u and v avoiding ``blocked``.

        The ``blocked`` vertices are treated as removed from the graph; u and
        v must not be among them.  Blocking S = N(u) & N(v) turns this into
        the separator test for adding the edge (u, v) to a decomposable graph
        (Giudici & Green 1999); see ``_addition_is_decomposable``.  Only
        ``neighbor_sets`` is read, so the rule also runs it on a
        ``GrowingGraph``.
        """
        if u == v:
            return True
        nbrs = self.neighbor_sets
        seen = {u, *blocked}
        queue = deque([u])
        while queue:
            w = queue.popleft()
            for x in nbrs[w]:
                if x == v:
                    return True
                if x not in seen:
                    seen.add(x)
                    queue.append(x)
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UndirectedGraph(p={self.p}, edges={sorted(self.edges)})"


@dataclass(frozen=True)
class PerfectSequence:
    """Cliques P_1..P_h and separators S_2..S_h of a decomposable graph.

    separators[l] pairs with cliques[l+1]; the leading clique has none.  The
    running intersection property holds: each separator is contained in some
    earlier clique.
    """

    cliques: tuple[frozenset[int], ...]
    separators: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if len(self.separators) != len(self.cliques) - 1:
            raise ValueError("need exactly one separator per clique after the first")


def _mcs_visit(g: UndirectedGraph) -> tuple[list[int], list[list[int]]]:
    """Maximum cardinality search visit order plus earlier-neighbour lists,
    each list in ascending vertex order.

    The next vertex has the most visited neighbours (its weight), ties
    toward the lowest vertex index, so the visit order is deterministic for
    a given graph; relabelling the graph gives other tie-breaks.  Only
    ``neighbor_sets`` is read.  A heap holds one integer key
    vertex - weight * p per weight a vertex reaches, so the smallest key is
    the next vertex and the key mod p is that vertex; a vertex's older keys
    sort after its newest and are skipped once it is visited.
    """
    p = g.p
    nbrs = g.neighbor_sets
    weight = [0] * p
    visited = [False] * p
    heap = list(range(p))  # every vertex at weight 0: already a heap
    order: list[int] = []
    earlier: list[list[int]] = []
    while len(order) < p:
        z = heapq.heappop(heap) % p
        if visited[z]:
            continue
        visited[z] = True
        order.append(z)
        earlier.append(sorted([x for x in nbrs[z] if visited[x]]))
        for x in nbrs[z]:
            if not visited[x]:
                weight[x] += 1
                heapq.heappush(heap, x - weight[x] * p)
    return order, earlier


def _all_complete(g: UndirectedGraph, sets: Iterable[Sequence[int]]) -> bool:
    nbrs = g.neighbor_sets
    return all(nbrs[a].issuperset(s[k + 1:]) for s in sets for k, a in enumerate(s))


def is_decomposable(g: UndirectedGraph) -> bool:
    """True iff the graph is chordal (every cycle of length >= 4 has a chord)."""
    if g.p <= 2 or len(g.edges) <= 2:
        return True
    _, earlier = _mcs_visit(g)
    return _all_complete(g, earlier)


def perfect_numbering(g: UndirectedGraph) -> tuple[list[int], list[list[int]]]:
    """MCS visit order with each vertex's earlier neighbours, which form a
    clique: a perfect numbering of a decomposable graph.

    Raises NotDecomposable when the graph is not chordal.
    """
    order, earlier = _mcs_visit(g)
    if not _all_complete(g, earlier):
        raise NotDecomposable("graph is not chordal")
    return order, earlier


def perfect_sequence(g: UndirectedGraph) -> PerfectSequence:
    """Maximal cliques in perfect order, with their separators.

    Raises NotDecomposable when the graph is not chordal.  The order is the
    one induced by MCS with lowest-index tie-breaking, so it is
    deterministic given the graph.  Another perfect sequence of g is that of
    a relabelled copy of g, mapped back through the labels.
    """
    order, earlier = perfect_numbering(g)

    # The i-th visited vertex closes a maximal clique iff the next vertex has
    # no more earlier neighbours than it has (Blair & Peyton 1993).
    keep = [
        frozenset(earlier[i]) | {order[i]}
        for i in range(g.p)
        if i == g.p - 1 or len(earlier[i + 1]) <= len(earlier[i])
    ]

    seps: list[frozenset[int]] = []
    seen: set[int] = set()
    for l, cl in enumerate(keep):
        if l > 0:
            seps.append(cl & seen)
        seen |= cl
    return PerfectSequence(tuple(keep), tuple(seps))


def _addition_is_decomposable(
    g: "UndirectedGraph | GrowingGraph",
    u: int,
    v: int,
    joined: bool,
    acyclic: bool,
) -> bool:
    """Would adding the absent edge (u, v) keep the decomposable ``g``
    decomposable?  It does iff S = N(u) & N(v) separates u from v.

    This is the add-candidate filter plus the separator BFS.  The caller
    knows the components, which decide most pairs without a search:
    ``joined`` is false for u and v in different components (no path, so
    valid), and ``acyclic`` marks a shared component that is a tree (its
    one u-v path runs through the common neighbour, so valid when S is
    non-empty).  A joined pair without a common neighbour is invalid: a
    shortest path plus the edge is a chordless cycle.  Only a joined pair
    with a common neighbour in a component with a cycle runs one BFS
    avoiding S.
    """
    if not joined:
        return True
    nbrs = g.neighbor_sets
    sep = nbrs[u] & nbrs[v]
    if not sep:
        return False
    return acyclic or not UndirectedGraph.connected(g, u, v, blocked=sep)


class GrowingGraph:
    """A decomposable graph grown by single-edge additions, for greedy
    passes and random growth that test many additions in a row.

    It keeps mutable neighbour sets and the edge set, and one component
    labelling with a flag per component that records whether it has a
    cycle, copied from the graph it is built from.  So the add-candidate
    filter of ``_addition_is_decomposable`` runs no search for pairs in
    different components or in one tree, and rejects joined pairs without
    a common neighbour outright.  ``candidates`` also needs a dense
    adjacency and a matrix marking the pairs with a common neighbour; they
    are built on its first call, so a walk that only tests and adds pairs
    never pays for them.  Additions only ever join components and create
    common neighbours, so ``add`` updates the labels, and the dense state
    once it is built, in O(p) without a rebuild: the new edge (u, v) gives
    v a common neighbour with every neighbour of u and vice versa, and
    relabels v's component as u's.  It
    offers the reads that the rule, ``UndirectedGraph.connected`` and
    ``GraphScorer.log_posterior_delta`` make: ``p``, ``size``,
    ``neighbor_sets`` and ``has_edge``.
    """

    def __init__(self, g: UndirectedGraph):
        self.p = g.p
        self.neighbor_sets: list[set[int]] = [set(s) for s in g.neighbor_sets]
        self.edges: set[Edge] = set(g.edges)
        labels, cyclic = g._components
        self.labels = list(labels)
        self._cyclic = list(cyclic)
        # the dense state, built by the first ``candidates`` call
        self.adj: np.ndarray | None = None
        self.shared: np.ndarray | None = None
        self._upper: np.ndarray | None = None

    @property
    def size(self) -> int:
        return len(self.edges)

    def has_edge(self, i: int, j: int) -> bool:
        return ((i, j) if i < j else (j, i)) in self.edges

    def can_add(self, u: int, v: int) -> bool:
        """Would adding the absent pair (u, v) keep the graph decomposable?"""
        lu = self.labels[u]
        return _addition_is_decomposable(
            self, u, v, lu == self.labels[v], not self._cyclic[lu]
        )

    def add(self, u: int, v: int) -> None:
        """Add the edge (u, v) with u < v, which ``can_add`` has accepted."""
        self.neighbor_sets[u].add(v)
        self.neighbor_sets[v].add(u)
        self.edges.add((u, v))
        if self.adj is not None:
            for a, b in ((u, v), (v, u)):
                # b gains a common neighbour with every neighbour of a
                self.shared[b] |= self.adj[a]
                self.shared[:, b] |= self.adj[a]
            self.adj[u, v] = self.adj[v, u] = True
        lu, lv = self.labels[u], self.labels[v]
        self._cyclic[lu] = lu == lv or self._cyclic[lu] or self._cyclic[lv]
        if lu != lv:
            self.labels = [lu if x == lv else x for x in self.labels]

    def candidates(self) -> np.ndarray:
        """Flat indices u * p + v of the absent pairs u < v that are in
        different components or have a common neighbour, ascending (the
        row-major order of the pairs)."""
        if self.adj is None:
            self.adj = np.zeros((self.p, self.p), dtype=bool)
            for u, v in self.edges:
                self.adj[u, v] = self.adj[v, u] = True
            # float32 goes through BLAS and counts exactly below 2**24
            # vertices; a narrow integer type would wrap
            a = self.adj.astype(np.float32)
            self.shared = (a @ a) > 0
            np.fill_diagonal(self.shared, False)  # a vertex is no pair with itself
            self._upper = ~np.tri(self.p, dtype=bool)
        labels = np.array(self.labels)
        joinable = self.shared | (labels[:, None] != labels[None, :])
        return np.flatnonzero(joinable & ~self.adj & self._upper)

    def draw(self, rng: np.random.Generator) -> None:
        """Add one uniformly chosen decomposability-preserving pair.

        ``rng.shuffle`` permutes the ``candidates`` array, and the first
        index in the shuffled order whose pair passes ``can_add`` is added.
        Shuffling a 1-d integer array draws the same permutation, and
        leaves the generator in the same state, as shuffling a list of the
        same length, so each draw makes the same addition and the same
        later draws as shuffling the row-major list of candidate (u, v)
        tuples.  This is the one use of ``rng`` per addition.  Raises
        NoValidMove when no absent pair can be added.
        """
        flat = self.candidates()
        rng.shuffle(flat)
        for k in flat:
            u, v = divmod(int(k), self.p)
            if self.can_add(u, v):
                self.add(u, v)
                return
        raise NoValidMove(f"no decomposability-preserving addition at p={self.p}")


def move_is_decomposable(g: UndirectedGraph, edge: Edge) -> bool:
    """Would the move on ``edge`` leave the graph decomposable?

    The move deletes ``edge`` if ``g`` has it and adds it otherwise; ``g``
    itself must be decomposable.  Both answers are local in
    S = N(u) & N(v) (Giudici & Green 1999):

    - adding (u, v) is valid iff v is unreachable from u once S is removed,
      which covers u and v in different components (S empty, no path) and
      connected without a common neighbour (S empty, a path; the shortest
      path plus the new edge is a chordless cycle);
    - deleting (u, v) is valid iff S is complete, i.e. the edge lies in
      exactly one maximal clique.

    An addition reads the graph's component labels and cycle flags, built
    once per graph, so ``_addition_is_decomposable`` runs the separator BFS
    only for a pair with a common neighbour in a component with a cycle.
    """
    u, v = _normalize_edge(*edge)
    if (u, v) in g.edges:
        sep = g.neighbor_sets[u] & g.neighbor_sets[v]
        return _all_complete(g, [tuple(sep)])
    labels, cyclic = g._components
    lu = labels[u]
    return _addition_is_decomposable(g, u, v, lu == labels[v], not cyclic[lu])


def decomposable_neighbors(g: UndirectedGraph) -> list[Edge]:
    """The edges whose single-edge move keeps the graph decomposable.

    Returned in lexicographic order; an edge of ``g`` names a deletion, any
    other pair an addition.  The additions are the candidates of a
    ``GrowingGraph`` built once for ``g`` that pass its ``can_add``: pairs
    in different components, and pairs with a common neighbour in a tree,
    are added with no search, and only the rest run the separator BFS.
    Raises NotDecomposable if ``g`` is not decomposable.
    """
    if not is_decomposable(g):
        raise NotDecomposable("neighbourhood is defined for decomposable graphs only")
    grown = GrowingGraph(g)
    moves = [e for e in g.sorted_edges if move_is_decomposable(g, e)]
    for k in grown.candidates().tolist():
        u, v = divmod(k, g.p)
        if grown.can_add(u, v):
            moves.append((u, v))
    moves.sort()
    return moves


def random_decomposable_additions(
    g: UndirectedGraph, count: int, rng: np.random.Generator
) -> UndirectedGraph:
    """Grow ``g`` by ``count`` successive ``GrowingGraph.draw`` additions,
    each uniformly chosen among the decomposability-preserving ones.

    One ``GrowingGraph`` is built and kept across the additions.  Raises
    NoValidMove when the graph is complete before ``count`` additions are
    made.
    """
    grown = GrowingGraph(g)
    for _ in range(count):
        grown.draw(rng)
    return UndirectedGraph(g.p, frozenset(grown.edges))


def random_decomposable_move(
    g: UndirectedGraph, add: bool, rng: np.random.Generator
) -> UndirectedGraph:
    """Apply one uniformly chosen decomposability-preserving addition (``add``
    true) or deletion.

    When ``g`` has no pair of the requested kind (no edge to delete, or no
    absent pair to add), the move is of the other kind.  An addition is one
    ``GrowingGraph.draw``.  A deletion shuffles the edges in sorted order
    and applies the first that passes ``move_is_decomposable``.  A
    decomposable graph always has a valid move of a kind it has pairs for,
    so NoValidMove is raised only when ``g`` has no vertex pair at all
    (p = 1).
    """
    if g.size == (g.max_edges if add else 0):
        add = not add
    if add:
        return random_decomposable_additions(g, 1, rng)
    cand = list(g.sorted_edges)
    rng.shuffle(cand)
    for e in cand:
        if move_is_decomposable(g, e):
            return g.toggled(*e)
    raise NoValidMove(f"no decomposability-preserving move exists at p={g.p}")


def enumerate_graphs(p: int) -> Iterator[UndirectedGraph]:
    """All 2^(p(p-1)/2) labelled graphs on p vertices (small p only)."""
    pairs = [(i, j) for i in range(p) for j in range(i + 1, p)]
    m = len(pairs)
    for mask in range(1 << m):
        yield UndirectedGraph(
            p, frozenset(pairs[b] for b in range(m) if mask >> b & 1)
        )


def enumerate_decomposable_graphs(p: int) -> Iterator[UndirectedGraph]:
    for g in enumerate_graphs(p):
        if is_decomposable(g):
            yield g


def write_edge_list(g: UndirectedGraph, path: str) -> None:
    """Write a 1-based whitespace edge list with a leading ``p=<int>`` line."""
    with open(path, "w") as fh:
        fh.write(f"p={g.p}\n")
        for i, j in g.sorted_edges:
            fh.write(f"{i + 1} {j + 1}\n")


def read_edge_list(path: str, p: int | None = None) -> UndirectedGraph:
    """Read a 1-based edge list; vertex count from a ``p=`` header or ``p``.

    Blank lines and ``#`` comments are ignored.  A header and an explicit
    ``p`` must agree when both are given.  Raises ValueError, naming the
    line as written, for a header that is not ``p=<integer>``, for a second
    header and for a line that is not two distinct vertices in 1..p.
    """
    header_p: int | None = None
    pairs: list[tuple[str, int, int]] = []
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("p="):
                if header_p is not None:
                    raise ValueError(f"second header line {line!r}")
                try:
                    header_p = int(line[2:])
                except ValueError:
                    raise ValueError(f"malformed header line {line!r}") from None
                continue
            try:
                i, j = (int(v) for v in line.split())
            except ValueError:
                raise ValueError(f"malformed edge line {line!r}") from None
            pairs.append((line, i, j))
    if header_p is not None and p is not None and header_p != p:
        raise ValueError(f"header p={header_p} conflicts with supplied p={p}")
    final_p = header_p if header_p is not None else p
    if final_p is None:
        raise ValueError("vertex count missing: no p= header and no p argument")
    for line, i, j in pairs:
        if i == j or not (1 <= i <= final_p and 1 <= j <= final_p):
            raise ValueError(
                f"edge line {line!r} is not two distinct vertices in 1..{final_p}"
            )
    return UndirectedGraph.from_edges(final_p, [(i - 1, j - 1) for _, i, j in pairs])

"""Undirected graphs, chordality testing and perfect clique sequences.

Decomposability is detected with maximum cardinality search (MCS): a graph
is chordal iff, visiting vertices in MCS order, every vertex's already
visited neighbourhood is complete (Tarjan & Yannakakis 1984).  Maximal
cliques in perfect order and their separators, which have the running
intersection property, are read off the same visit order following Blair &
Peyton (1993) by ``_clique_masks``, the one clique routine that full
scores, the estimators and the exact posterior read.

Vertex sets are Python-int bitmasks: bit j of ``neighbor_masks[i]`` is set
iff ij is an edge, and a set of vertices is the OR of their bits.  A common
neighbourhood is one AND, a separator search is a frontier BFS over the
masks, MCS reads each vertex's earlier neighbours as one AND with the
visited mask and keeps the unvisited vertices in one mask per weight, and
cliques and separators are masks too; no dense adjacency is built for any
of them.

A single-edge move is named by its edge alone: it deletes (u, v) when the
graph has that edge and adds it otherwise (``UndirectedGraph.toggled``).
Moves on a decomposable graph are
tested locally, without re-running MCS (Giudici & Green 1999): with
S = N(u) & N(v), adding (u, v) keeps the graph decomposable iff S
separates u from v, and deleting it does iff S is complete.  Component
labels with a cycle flag per component decide most additions without that
separator search; a run of additions grows one mutable ``GrowingGraph``
that keeps them up to date.  ``_move_table`` lists a graph's decomposable
neighbourhood with each move's S, which the exact MCMC kernel and the
shotgun search score.

``random_decomposable_move`` draws one such move of a requested kind, or of
the other kind when the graph has no pair of the requested one; random
additions are ``GrowingGraph.draw`` calls.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .errors import IndexOutOfRange, InvalidMove, NotDecomposable, NoValidMove

if TYPE_CHECKING:
    import numpy as np

Edge = tuple[int, int]


def _normalize_edge(i: int, j: int) -> Edge:
    if i == j:
        raise InvalidMove(f"self loop ({i},{i}) is not a valid edge")
    return (i, j) if i < j else (j, i)


def _bits(mask: int) -> list[int]:
    """The vertices of a vertex mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass(frozen=True)
class UndirectedGraph:
    """Simple undirected graph on vertices 0..p-1 with an immutable edge set.

    Edges are stored as (i, j) pairs with i < j.  Instances hash and compare
    by (p, edges), so they can key caches and sets.  The neighbour masks
    and component labels are computed once per graph, on first use.
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
    def neighbor_masks(self) -> tuple[int, ...]:
        """Bit j of entry i is set iff ij is an edge."""
        nbrs = [0] * self.p
        for i, j in self.edges:
            nbrs[i] |= 1 << j
            nbrs[j] |= 1 << i
        return tuple(nbrs)

    @functools.cached_property
    def _components(self) -> tuple[list[int], list[bool]]:
        """A component label per vertex and a cycle flag per label.

        A component's label is its lowest vertex, and its flag is read at
        that label only: a connected component has a cycle iff it has at
        least as many edges as vertices.
        """
        nbrs = self.neighbor_masks
        labels = [-1] * self.p
        cyclic = [False] * self.p
        for s in range(self.p):
            if labels[s] >= 0:
                continue
            comp = frontier = 1 << s
            size = degrees = 0
            while frontier:
                reach = 0
                while frontier:
                    low = frontier & -frontier
                    frontier ^= low
                    w = low.bit_length() - 1
                    labels[w] = s
                    reach |= nbrs[w]
                    degrees += nbrs[w].bit_count()
                    size += 1
                frontier = reach & ~comp
                comp |= frontier
            cyclic[s] = degrees >= 2 * size
        return labels, cyclic

    def has_edge(self, i: int, j: int) -> bool:
        return _normalize_edge(i, j) in self.edges

    def toggled(self, i: int, j: int) -> "UndirectedGraph":
        """The single-edge move on (i, j): delete the edge if present, else add it."""
        u, v = _normalize_edge(i, j)
        if not (0 <= u and v < self.p):
            raise IndexOutOfRange(f"edge ({u},{v}) invalid for p={self.p}")
        return UndirectedGraph._trusted(self.p, self.edges ^ {(u, v)})

    def connected(self, u: int, v: int, blocked: int = 0) -> bool:
        """Breadth-first reachability between u and v avoiding ``blocked``.

        ``blocked`` is a vertex mask whose vertices are treated as removed
        from the graph; u and v must not be among them.  Blocking
        S = N(u) & N(v) turns this into the separator test for adding the
        edge (u, v) to a decomposable graph (Giudici & Green 1999); see
        ``_addition_is_decomposable``.  Each round ORs the neighbour masks
        of the frontier.  Only ``neighbor_masks`` is read, so the rule also
        runs it on a ``GrowingGraph``.
        """
        if u == v:
            return True
        nbrs = self.neighbor_masks
        target = 1 << v
        seen = blocked | 1 << u
        frontier = 1 << u
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= nbrs[low.bit_length() - 1]
                frontier ^= low
            if reach & target:
                return True
            frontier = reach & ~seen
            seen |= frontier
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UndirectedGraph(p={self.p}, edges={sorted(self.edges)})"


def _mcs_visit(g: UndirectedGraph) -> tuple[list[int], list[int]]:
    """Maximum cardinality search visit order plus the mask of each visited
    vertex's earlier neighbours.

    The next vertex has the most visited neighbours (its weight), ties
    toward the lowest vertex index, so the visit order is deterministic for
    a given graph; relabelling the graph gives other tie-breaks.  Only
    ``neighbor_masks`` is read.  ``buckets[w]`` is the mask of the
    unvisited vertices of weight w, so the next vertex is the lowest bit of
    the highest non-empty bucket, and a visit moves its unvisited
    neighbours up one bucket with one AND per weight, highest first.
    """
    p = g.p
    nbrs = g.neighbor_masks
    buckets = [0] * (p + 1)
    buckets[0] = (1 << p) - 1
    top = 0  # the highest weight an unvisited vertex may have
    visited = 0
    order: list[int] = []
    earlier: list[int] = []
    for _ in range(p):
        while not buckets[top]:
            top -= 1
        low = buckets[top] & -buckets[top]
        buckets[top] ^= low
        z = low.bit_length() - 1
        earlier.append(nbrs[z] & visited)
        visited |= low
        order.append(z)
        fresh = nbrs[z] & ~visited
        w = top
        while fresh:
            moved = buckets[w] & fresh
            if moved:
                buckets[w] ^= moved
                buckets[w + 1] |= moved
                fresh ^= moved
            w -= 1
        if buckets[top + 1]:
            top += 1
    return order, earlier


def _all_complete(g: UndirectedGraph, masks: Iterable[int]) -> bool:
    """Is each vertex mask a clique: is every vertex of it adjacent to all
    its higher vertices?"""
    nbrs = g.neighbor_masks
    for s in masks:
        while s:
            low = s & -s
            s ^= low
            if s & ~nbrs[low.bit_length() - 1]:
                return False
    return True


def is_decomposable(g: UndirectedGraph) -> bool:
    """True iff the graph is chordal (every cycle of length >= 4 has a chord)."""
    if g.p <= 2 or len(g.edges) <= 2:
        return True
    _, earlier = _mcs_visit(g)
    return _all_complete(g, earlier)


def _clique_masks(g: UndirectedGraph) -> tuple[list[int], list[int]]:
    """Maximal cliques in perfect order, with their separators, as vertex
    masks: separators[l] pairs with cliques[l + 1], and the leading clique
    has none.  Each separator is its clique's intersection with the
    earlier cliques and lies inside one of them (running intersection).

    Raises NotDecomposable when the graph is not chordal.  The order is the
    one induced by MCS with lowest-index tie-breaking, so it is
    deterministic given the graph.
    """
    order, earlier = _mcs_visit(g)
    if not _all_complete(g, earlier):
        raise NotDecomposable("graph is not chordal")
    sizes = [m.bit_count() for m in earlier]

    # The i-th visited vertex closes a maximal clique iff the next vertex has
    # no more earlier neighbours than it has (Blair & Peyton 1993).
    cliques = [
        earlier[i] | 1 << order[i]
        for i in range(g.p)
        if i == g.p - 1 or sizes[i + 1] <= sizes[i]
    ]

    seps: list[int] = []
    seen = cliques[0]
    for cl in cliques[1:]:
        seps.append(cl & seen)
        seen |= cl
    return cliques, seps


def _addition_is_decomposable(
    g: "UndirectedGraph | GrowingGraph",
    u: int,
    v: int,
    labels: list[int],
    cyclic: list[bool],
) -> bool:
    """Would adding the absent edge (u, v) keep the decomposable ``g``
    decomposable?  It does iff S = N(u) & N(v) separates u from v.

    This is the add-candidate filter plus the separator BFS.  The caller
    passes the component labels of ``g`` and the cycle flags, read at a
    label, which decide most pairs without a search: u and v in different
    components are valid (no path), and so are two vertices of a tree with
    a common neighbour (their one path runs through it).  A pair in one
    component without a common neighbour is invalid: a shortest path plus
    the edge is a chordless cycle.  Only a pair with a common neighbour in
    a component with a cycle runs one BFS avoiding S.
    """
    lu = labels[u]
    if lu != labels[v]:
        return True
    nbrs = g.neighbor_masks
    sep = nbrs[u] & nbrs[v]
    if not sep:
        return False
    return not cyclic[lu] or not UndirectedGraph.connected(g, u, v, blocked=sep)


class GrowingGraph:
    """A decomposable graph grown by single-edge additions, for greedy
    passes and random growth that test many additions in a row.

    It keeps mutable neighbour masks, the edge set, and the component labels
    and cycle flags of the graph it is built from: the reads that
    ``_addition_is_decomposable`` and ``UndirectedGraph.connected`` make.
    Only ``draw`` calls ``candidates``, which also needs a dense adjacency
    and a matrix marking the pairs with a common neighbour, built on its
    first call, so a walk that only tests and adds pairs never pays for
    them.  Additions only join components and create common neighbours, so
    ``add`` updates the labels, and the dense state once built, in O(p): the
    new edge (u, v) gives v a common neighbour with every neighbour of u and
    vice versa, and relabels v's component as u's.
    """

    def __init__(self, g: UndirectedGraph):
        self.p = g.p
        self.neighbor_masks: list[int] = list(g.neighbor_masks)
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

    def can_add(self, u: int, v: int) -> bool:
        """Would adding the absent pair (u, v) keep the graph decomposable?"""
        return _addition_is_decomposable(self, u, v, self.labels, self._cyclic)

    def add(self, u: int, v: int) -> None:
        """Add the edge (u, v) with u < v, which ``can_add`` has accepted."""
        self.neighbor_masks[u] |= 1 << v
        self.neighbor_masks[v] |= 1 << u
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
        import numpy as np

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
    """Would the move on ``edge`` leave the decomposable ``g`` decomposable?

    The move deletes ``edge`` if ``g`` has it and adds it otherwise.  Both
    answers are local in S = N(u) & N(v) (Giudici & Green 1999): adding
    (u, v) is valid iff S separates u from v (``_addition_is_decomposable``,
    which reads the graph's component labels and cycle flags, built once per
    graph), and deleting it iff S is complete, i.e. the edge lies in exactly
    one maximal clique.
    """
    u, v = _normalize_edge(*edge)
    nbrs = g.neighbor_masks
    if nbrs[u] >> v & 1:
        return _all_complete(g, (nbrs[u] & nbrs[v],))
    return _addition_is_decomposable(g, u, v, *g._components)


def _move_table(g: UndirectedGraph) -> list[tuple[int, int, int]]:
    """The moves that keep the decomposable ``g`` decomposable, as (u, v, S)
    with u < v and S = N(u) & N(v), in lexicographic order.  Only the v > u
    that are neighbours of u, two steps away or in another component are
    tested (adding any other pair closes a chordless cycle), by the rules of
    ``move_is_decomposable``; no chordality pass runs."""
    nbrs = g.neighbor_masks
    labels, cyclic = g._components
    comps = dict.fromkeys(labels, 0)
    for w, label in enumerate(labels):
        comps[label] |= 1 << w
    everyone = (1 << g.p) - 1
    table = []
    for u in range(g.p):
        near = nbrs[u]
        reach = near | everyone ^ comps[labels[u]]
        for w in _bits(near):
            reach |= nbrs[w]
        for v in _bits(reach >> u + 1 << u + 1):
            sep = near & nbrs[v]
            if (_all_complete(g, (sep,)) if near >> v & 1
                    else _addition_is_decomposable(g, u, v, labels, cyclic)):
                table.append((u, v, sep))
    return table


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

"""Undirected graphs, chordality testing and perfect clique sequences.

Decomposability is detected with maximum cardinality search (MCS): a graph
is chordal iff, visiting vertices in MCS order, every vertex's already
visited neighbourhood is complete (Tarjan & Yannakakis 1984).  Maximal
cliques and a perfect sequence with the running intersection property are
read off the same visit order following Blair & Peyton (1993).

A single-edge move is named by its edge alone: it deletes (u, v) when the
graph has that edge and adds it otherwise (``UndirectedGraph.toggled``).
Moves on a decomposable graph are tested locally, without re-running MCS
(Giudici & Green 1999): with S = N(u) & N(v), adding (u, v) keeps the graph
decomposable iff S separates u from v, and deleting it does iff S is
complete.
"""

from __future__ import annotations

import functools
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
    def adjacency(self) -> np.ndarray:
        """Dense boolean adjacency matrix (no self loops)."""
        a = np.zeros((self.p, self.p), dtype=bool)
        for i, j in self.edges:
            a[i, j] = a[j, i] = True
        a.setflags(write=False)
        return a

    @functools.cached_property
    def neighbor_sets(self) -> tuple[frozenset[int], ...]:
        nbrs: list[set[int]] = [set() for _ in range(self.p)]
        for i, j in self.edges:
            nbrs[i].add(j)
            nbrs[j].add(i)
        return tuple(frozenset(s) for s in nbrs)

    def has_edge(self, i: int, j: int) -> bool:
        return _normalize_edge(i, j) in self.edges

    def with_edge(self, i: int, j: int) -> "UndirectedGraph":
        e = _normalize_edge(i, j)
        if e[0] >= self.p or e[1] >= self.p:
            raise IndexOutOfRange(f"edge {e} invalid for p={self.p}")
        if e in self.edges:
            raise InvalidMove(f"edge {e} already present")
        return UndirectedGraph(self.p, self.edges | {e})

    def without_edge(self, i: int, j: int) -> "UndirectedGraph":
        e = _normalize_edge(i, j)
        if e not in self.edges:
            raise InvalidMove(f"edge {e} not present")
        return UndirectedGraph(self.p, self.edges - {e})

    def toggled(self, i: int, j: int) -> "UndirectedGraph":
        """The single-edge move on (i, j): delete the edge if present, else add it."""
        if self.has_edge(i, j):
            return self.without_edge(i, j)
        return self.with_edge(i, j)

    def relabel(self, perm: Sequence[int]) -> "UndirectedGraph":
        """Return the graph with vertex i renamed to perm[i]."""
        if sorted(perm) != list(range(self.p)):
            raise ValueError("perm must be a permutation of 0..p-1")
        return UndirectedGraph.from_edges(
            self.p, ((perm[i], perm[j]) for i, j in self.edges)
        )

    def connected(self, u: int, v: int, blocked: Iterable[int] = ()) -> bool:
        """Breadth-first reachability between u and v avoiding ``blocked``.

        The ``blocked`` vertices are treated as removed from the graph; u and
        v must not be among them.  Blocking S = N(u) & N(v) turns this into
        the separator test for adding the edge (u, v) to a decomposable graph
        (Giudici & Green 1999); see ``move_is_decomposable``.
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


def _mcs_visit(
    g: UndirectedGraph, priority: Sequence[int] | None = None
) -> tuple[list[int], list[list[int]]]:
    """Maximum cardinality search visit order plus earlier-neighbour lists.

    Ties in the cardinality weight break toward the lowest vertex index, or
    toward the lowest ``priority`` value when one is supplied, which makes
    the visit order deterministic for a given graph.
    """
    p = g.p
    adj = g.adjacency
    weights = np.zeros(p, dtype=np.int64)
    visited = np.zeros(p, dtype=bool)
    if priority is None:
        rank = np.arange(p, dtype=np.int64)
    else:
        if sorted(priority) != list(range(p)):
            raise ValueError("priority must be a permutation of 0..p-1")
        rank = np.asarray(priority, dtype=np.int64)

    order: list[int] = []
    earlier: list[list[int]] = []
    for _ in range(p):
        # lexicographic argmax on (weight, -rank) over unvisited vertices
        key = weights * p - rank
        key[visited] = np.iinfo(np.int64).min
        z = int(np.argmax(key))
        mask = adj[z] & visited
        earlier.append(np.nonzero(mask)[0].tolist())
        visited[z] = True
        order.append(z)
        weights[adj[z]] += 1
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


def perfect_numbering(
    g: UndirectedGraph, priority: Sequence[int] | None = None
) -> tuple[list[int], list[list[int]]]:
    """MCS visit order with each vertex's earlier neighbours, which form a
    clique: a perfect numbering of a decomposable graph.

    Raises NotDecomposable when the graph is not chordal.  ``priority`` is
    the MCS tie-break permutation, lowest vertex index by default.
    """
    order, earlier = _mcs_visit(g, priority)
    if not _all_complete(g, earlier):
        raise NotDecomposable("graph is not chordal")
    return order, earlier


def perfect_sequence(
    g: UndirectedGraph, priority: Sequence[int] | None = None
) -> PerfectSequence:
    """Maximal cliques in perfect order, with their separators.

    Raises NotDecomposable when the graph is not chordal.  The default
    ordering is the one induced by MCS with lowest-index tie-breaking, so it
    is deterministic given the graph; ``priority`` substitutes a different
    tie-break permutation, yielding another valid perfect sequence.
    """
    order, earlier = perfect_numbering(g, priority)

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


def check_perfect_sequence(g: UndirectedGraph, seq: PerfectSequence) -> None:
    """Validate the defining properties of a perfect sequence; raises on failure.

    Checks: cliques are maximal complete sets covering every vertex, the
    union of within-clique pairs reconstructs the edge set, each separator
    equals its clique's intersection with the history and is contained in
    some earlier clique (running intersection), and separators are complete.
    """
    cliques = seq.cliques
    if not _all_complete(g, [sorted(c) for c in cliques]):
        raise AssertionError("a clique is not complete")
    covered: set[int] = set()
    edges: set[Edge] = set()
    for c in cliques:
        covered |= c
        cs = sorted(c)
        edges |= {(cs[a], cs[b]) for a in range(len(cs)) for b in range(a + 1, len(cs))}
    if covered != set(range(g.p)):
        raise AssertionError("cliques do not cover all vertices")
    if edges != set(g.edges):
        raise AssertionError("cliques do not reconstruct the edge set")
    for l, c in enumerate(cliques):
        for other in cliques:
            if other != c and c <= other:
                raise AssertionError("a clique is not maximal")
        if l == 0:
            continue
        hist = frozenset().union(*cliques[:l])
        s = seq.separators[l - 1]
        if s != c & hist:
            raise AssertionError("separator != clique intersected with history")
        if not any(s <= cliques[m] for m in range(l)):
            raise AssertionError("running intersection property violated")


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
    """
    u, v = _normalize_edge(*edge)
    sep = g.neighbor_sets[u] & g.neighbor_sets[v]
    if (u, v) in g.edges:
        return _all_complete(g, [tuple(sep)])
    return not g.connected(u, v, blocked=sep)


def decomposable_neighbors(g: UndirectedGraph) -> list[Edge]:
    """The edges whose single-edge move keeps the graph decomposable.

    Returned in lexicographic order; an edge of ``g`` names a deletion, any
    other pair an addition.  Raises NotDecomposable if ``g`` is not.
    """
    if not is_decomposable(g):
        raise NotDecomposable("neighbourhood is defined for decomposable graphs only")
    return [
        (i, j)
        for i in range(g.p)
        for j in range(i + 1, g.p)
        if move_is_decomposable(g, (i, j))
    ]


def random_decomposable_move(
    g: UndirectedGraph, kind: str, rng: np.random.Generator
) -> UndirectedGraph:
    """Apply one uniformly chosen decomposability-preserving ``kind`` move,
    ``add`` or ``delete``.

    Candidates are shuffled and the first one that passes the local test of
    ``move_is_decomposable`` is applied.  An addition can only qualify for
    vertex pairs with a common neighbour or in different components
    (connected pairs without one close a chordless cycle), so the add
    candidates are that set, read in row-major pair order from one component
    labelling and one two-step adjacency product.  Raises NoValidMove when no
    move of the requested kind exists.
    """
    if kind == "add":
        nbrs = g.neighbor_sets
        comp = [-1] * g.p
        for root in range(g.p):
            if comp[root] < 0:
                comp[root] = root
                stack = [root]
                while stack:
                    for x in nbrs[stack.pop()]:
                        if comp[x] < 0:
                            comp[x] = root
                            stack.append(x)
        labels = np.asarray(comp)
        adj = g.adjacency
        # Common-neighbour counts in float32 go through BLAS and stay exact
        # below 2**24 vertices; a narrow integer type would wrap.
        a = adj.astype(np.float32)
        mask = ~adj & (((a @ a) > 0) | (labels[:, None] != labels[None, :]))
        rows, cols = np.nonzero(np.triu(mask, 1))
        cand = list(zip(rows.tolist(), cols.tolist()))
        rng.shuffle(cand)
        for e in cand:
            if move_is_decomposable(g, e):
                return g.with_edge(*e)
        raise NoValidMove("no decomposability-preserving addition exists")
    if kind == "delete":
        cand = list(g.sorted_edges)
        rng.shuffle(cand)
        for e in cand:
            if move_is_decomposable(g, e):
                return g.without_edge(*e)
        raise NoValidMove("no decomposability-preserving deletion exists")
    raise InvalidMove(f"unknown move kind {kind!r}")


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
    ``p`` must agree when both are given.
    """
    header_p: int | None = None
    edges: list[Edge] = []
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("p="):
                header_p = int(line[2:])
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"malformed edge line {line!r}")
            i, j = int(parts[0]) - 1, int(parts[1]) - 1
            edges.append((i, j))
    if header_p is not None and p is not None and header_p != p:
        raise ValueError(f"header p={header_p} conflicts with supplied p={p}")
    final_p = header_p if header_p is not None else p
    if final_p is None:
        raise ValueError("vertex count missing: no p= header and no p argument")
    return UndirectedGraph.from_edges(final_p, edges)

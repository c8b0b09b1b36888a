"""Simple undirected graphs plus degeneracy and subgraph machinery."""

from __future__ import annotations

from collections.abc import Iterable
from itertools import chain
from operator import ne

from .errors import InputError


def _int_pairs(edges: list) -> bool:
    """Every edge has two endpoints and each is exactly an int (not a bool)."""
    try:
        return set(map(len, edges)) <= {2} and set(map(type, chain.from_iterable(edges))) <= {int}
    except TypeError:  # an edge with no length, or one that cannot be iterated
        return False


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    Adjacency is kept once, as per-vertex sorted tuples (``_adj``), so that
    iteration order is deterministic everywhere downstream; set arithmetic
    intersects a set the caller holds with a tuple. The accessors below
    take only an exact int in range; the package's hot loops read ``_adj``
    directly for vertices they have already checked.
    """

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if type(n) is not int or n < 0:
            raise InputError(f"vertex count must be non-negative, got {n!r}")
        self.n = n
        edges = edges if type(edges) is list else list(edges)
        if not _int_pairs(edges):  # one bulk test; only a failure walks the edges
            bad = next(e for e in edges if not _int_pairs([e]))
            raise InputError(f"edge {bad!r} is not a pair of int vertex ids")
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            adj[u].append(v)
            adj[v].append(u)
        for a in adj:
            a.sort()
        # One check for a repeated edge; only then collapse the repeats.
        if any(map(ne, map(len, adj), map(len, map(set, adj)))):
            adj = [sorted(set(a)) for a in adj]
        self._adj: tuple[tuple[int, ...], ...] = tuple(map(tuple, adj))

    def _check(self, v: int) -> None:
        if type(v) is not int or not 0 <= v < self.n:  # a bool or 1.0 is no vertex id
            raise InputError(f"vertex {v!r} is not an int in [0, {self.n})")

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Sorted neighbours of v."""
        self._check(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        self._check(v)
        return len(self._adj[v])

    def adjacent(self, u: int, v: int) -> bool:
        self._check(u)
        self._check(v)
        return v in self._adj[u]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        out = []
        for u in range(self.n):
            for v in self._adj[u]:
                if u < v:
                    out.append((u, v))
        return out

    def edge_count(self) -> int:
        return sum(len(a) for a in self._adj) // 2

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, list[int]]:
    """Subgraph induced by the given vertices.

    Returns the relabelled graph together with a list mapping each new
    vertex id back to its original id (new ids follow ascending original
    ids).
    """
    vertices = list(vertices)
    for v in vertices:  # first: an id that is no int may not hash or sort
        g._check(v)
    keep = sorted(set(vertices))
    index = {old: new for new, old in enumerate(keep)}
    edges = []
    for old in keep:
        for w in g.neighbors(old):
            if w > old and w in index:
                edges.append((index[old], index[w]))
    return Graph(len(keep), edges), keep


def is_d_degenerate(g: Graph, d: int) -> bool:
    """True iff every subgraph of g has a vertex of degree at most d."""
    if type(d) is not int or d < 0:
        raise InputError(f"degeneracy bound must be non-negative, got {d}")
    return degeneracy(g) <= d


def degeneracy(g: Graph) -> int:
    """Smallest d such that g is d-degenerate (0 for the empty graph).

    One upward walk over degree buckets in O(n + m), smallest-last as in
    Matula-Beck: a vertex is peeled from the bucket of its current degree
    and drops each neighbour of higher degree into the bucket below; the
    neighbour's old entry is skipped as stale when the walk reaches it.
    No degree falls below the level being walked, so the walk never turns
    back.
    """
    adj = g._adj
    deg = list(map(len, adj))
    buckets: list[list[int]] = [[] for _ in range(max(deg, default=0) + 1)]
    for v, dv in enumerate(deg):
        buckets[dv].append(v)
    best = 0
    for level, bucket in enumerate(buckets):
        for v in bucket:  # grows while it is walked
            if deg[v] == level:  # else a copy left behind when v's degree fell
                best = level
                for w in adj[v]:
                    if deg[w] > level:
                        deg[w] -= 1
                        buckets[deg[w]].append(w)
    return best

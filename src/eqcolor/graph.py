"""Simple undirected graphs plus degeneracy and subgraph machinery."""

from __future__ import annotations

from collections.abc import Iterable
from itertools import accumulate

from .errors import InputError


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    Adjacency is kept once, as per-vertex sorted tuples (``_adj``), so that
    iteration order is deterministic everywhere downstream; set arithmetic
    intersects a set the caller holds with a tuple. The accessors below
    range-check their vertex; the package's hot loops read ``_adj``
    directly for vertices they have already checked.
    """

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise InputError(f"vertex count must be non-negative, got {n}")
        self.n = n
        sets: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            sets[u].add(v)
            sets[v].add(u)
        self._adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(s)) for s in sets)

    def _check(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise InputError(f"vertex {v} out of range for n={self.n}")

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
    keep = sorted(set(vertices))
    for v in keep:
        g._check(v)
    index = {old: new for new, old in enumerate(keep)}
    edges = []
    for old in keep:
        for w in g.neighbors(old):
            if w > old and w in index:
                edges.append((index[old], index[w]))
    return Graph(len(keep), edges), keep


def is_d_degenerate(g: Graph, d: int) -> bool:
    """True iff every subgraph of g has a vertex of degree at most d."""
    if d < 0:
        raise InputError(f"degeneracy bound must be non-negative, got {d}")
    return degeneracy(g) <= d


def degeneracy(g: Graph) -> int:
    """Smallest d such that g is d-degenerate (0 for the empty graph).

    Batagelj-Zaversnik peeling in O(n + m): vertices sit in one array
    sorted by current degree with each degree bucket's start recorded, so
    a neighbour's degree drops by an O(1) swap to the front of its bucket.
    """
    adj = g._adj
    deg = [len(a) for a in adj]
    buckets: list[list[int]] = [[] for _ in range(max(deg, default=0) + 1)]
    for v, dv in enumerate(deg):
        buckets[dv].append(v)
    order = [v for bucket in buckets for v in bucket]
    start = list(accumulate((len(b) for b in buckets), initial=0))
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    best = 0
    for v in order:  # swaps only touch positions after v
        dv = deg[v]
        best = max(best, dv)
        for w in adj[v]:
            dw = deg[w]
            if dw > dv:
                first = start[dw]
                u = order[first]
                order[first], order[pos[w]] = w, u
                pos[u], pos[w] = pos[w], first
                start[dw] = first + 1
                deg[w] = dw - 1
    return best


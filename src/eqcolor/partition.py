"""Layered vertex partitions with position-dependent back-degree bounds.

A partition into layers S_1, ..., S_eta+1 is valid for parameters (k, d)
when S_1 holds between 1 and k vertices, every later layer holds exactly
k, and each layer j >= 2 can be ordered x_1, ..., x_k so that x_i has at
most d*i - 1 neighbours in earlier layers.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, combinations, compress, count, filterfalse, islice

from .errors import InputError
from .graph import Graph


@dataclass(frozen=True, init=False)
class KdPartition:
    """Ordered layers; the stored order inside a layer is the certificate.

    Immutable: k, d and the layers are checked once, here, and `layers`
    reads back a fresh list of lists. A passing verify_kd_partition stamps
    the partition with the graph; equitable_coloring skips the check for
    that same Graph object. The stamp's second slot is the colouring plan,
    each vertex's later neighbours, which the first colouring fills in.
    """

    k: int
    d: int
    _layers: tuple[tuple[int, ...], ...]
    _verified: tuple[Graph, list[tuple[int, ...]] | None] | None = field(compare=False)

    def __init__(self, k: int, d: int, layers: Iterable[Sequence[int]]) -> None:
        if type(k) is not int or k < 1:
            raise InputError(f"k must be positive, got {k!r}")
        if type(d) is not int or d < 1:
            raise InputError(f"d must be positive, got {d!r}")
        rows = []
        for layer in layers:
            if not isinstance(layer, (list, tuple)):
                raise InputError(f"layer {layer!r} is not a list or tuple")
            rows.append(tuple(layer))
        vars(self).update(k=k, d=d, _layers=tuple(rows), _verified=None)  # past the frozen setattr

    @property
    def layers(self) -> list[list[int]]:
        return list(map(list, self._layers))

    def __repr__(self) -> str:
        return f"KdPartition(k={self.k}, d={self.d}, layers={self.layers})"


@dataclass
class PartitionViolation:
    kind: str  # "structure" or "back-degree"
    message: str
    layer: int | None = None  # 1-based layer index (S_j numbering)
    position: int | None = None  # 1-based position inside the layer
    vertex: int | None = None
    observed: int | None = None
    allowed: int | None = None


@dataclass
class PartitionVerdict:
    valid: bool
    violation: PartitionViolation | None = None


def _blocks(items: Sequence, size: int) -> Iterator[Sequence]:
    """Consecutive slices of items, aligned to the end as the layers are: the
    first holds the remainder, 1..size items, as S_1 does; none if empty."""
    start = 0
    for end in range(len(items) % size or size, len(items) + 1, size):
        yield items[start:end]
        start = end


def _structure(message: str, layer: int | None = None) -> PartitionVerdict:
    return PartitionVerdict(False, PartitionViolation("structure", message, layer=layer))


def verify_kd_partition(g: Graph, p: KdPartition) -> PartitionVerdict:
    """Check layer sizes, coverage, and every stored ordering's bounds.

    All failures are reported as verdicts, never raised; the first
    violation found (structure first, then back-degree in layer order) is
    attached to the verdict. A pass stamps p (see KdPartition).
    """
    k, d, layers = p.k, p.d, p._layers
    n = g.n
    expected_layers = -(-n // k)
    if len(layers) != expected_layers:
        return _structure(f"expected {expected_layers} layers for n={n}, k={k}, got {len(layers)}")
    seen: set[int] = set()
    for j, layer in enumerate(layers, start=1):
        if j == 1:
            if not 1 <= len(layer) <= k:
                return _structure(
                    f"layer 1 has size {len(layer)}, expected between 1 and {k}", layer=1
                )
        elif len(layer) != k:
            return _structure(f"layer {j} has size {len(layer)}, expected {k}", layer=j)
        for v in layer:
            if type(v) is not int or not 0 <= v < n:
                return _structure(f"layer {j} contains invalid vertex {v!r}", layer=j)
            if v in seen:
                return _structure(f"vertex {v} appears more than once (layer {j})", layer=j)
            seen.add(v)
    if len(seen) != n:
        missing = next(v for v in range(n) if v not in seen)
        return _structure(f"vertex {missing} is not covered by any layer")

    adj = g._adj
    earlier = set(layers[0]) if layers else set()
    for j, layer in enumerate(layers[1:], start=2):
        for i, v in enumerate(layer, start=1):
            back = len(earlier.intersection(adj[v]))
            allowed = d * i - 1
            if back > allowed:
                return PartitionVerdict(
                    False,
                    PartitionViolation(
                        "back-degree",
                        f"vertex {v} at layer {j} position {i} has {back} "
                        f"back-neighbours, allowed {allowed}",
                        layer=j,
                        position=i,
                        vertex=v,
                        observed=back,
                        allowed=allowed,
                    ),
                )
        earlier.update(layer)
    object.__setattr__(p, "_verified", (g, None))
    return PartitionVerdict(True)


def _certified(ext: list[tuple[int, int]], d: int) -> list[int] | None:
    """Items of (external degree, item) pairs in certifying order, or None.

    The degrees fit a layer iff the i-th smallest is at most d*i - 1, so
    ascending order is the canonical witness.
    """
    ext.sort()
    for i, (e, _) in enumerate(ext, start=1):
        if e > d * i - 1:
            return None
    return [v for _, v in ext]


class SearchStatus(Enum):
    FOUND = "found"
    PROVED_ABSENT = "proved-absent"
    BUDGET_EXHAUSTED = "budget-exhausted"


@dataclass
class SearchResult:
    status: SearchStatus
    partition: KdPartition | None
    expanded: int


def _ordered_if_feasible(
    g: Graph, subset: frozenset[int], degu: list[int], d: int
) -> list[int] | None:
    """Certifying order for subset as the last layer of degu's vertices, or None."""
    return _certified([(degu[v] - len(subset.intersection(g._adj[v])), v) for v in subset], d)


def _ones(flags: bytearray, start: int = 0) -> Iterator[int]:
    """Indices of the nonzero bytes of flags from start up, read as asked for."""
    start = flags.find(1, start)  # a memchr over the zeros before the first
    return compress(count(start), memoryview(flags)[start:]) if start >= 0 else iter(())


def _completions(
    member: bytearray, k: int, base: tuple[int, ...], closed: set[int], start: int = 0
) -> Iterator[list[int]]:
    """Sorted base plus each set of members outside closed, from start up,
    that fills it to k: lexicographic, reading member as far as used."""
    others = filterfalse(closed.__contains__, _ones(member, start))
    if len(base) == k - 1:
        yield from map(sorted, map(base.__add__, zip(others)))
    else:
        for x in others:
            yield from _completions(member, k, base + (x,), closed, x + 1)


class _Remaining:
    """One search's remaining vertices, kept across its levels: byte flags
    left, member (remaining degree <= d*k + k - 2) and anchor (<= d + k - 2),
    remaining degrees degu, and key, the XOR of a hash word per vertex out."""

    def __init__(self, g: Graph, k: int, d: int) -> None:
        # A layer's vertex keeps at most d*k - 1 neighbours outside it and k - 1
        # inside; its anchor drops at most d - 1 and keeps at most k - 1.
        self.adj, self.top, self.low = g._adj, d * k + k - 2, d + k - 2
        self.degu = list(map(len, g._adj))
        self.left = bytearray(b"\x01") * g.n
        self.member = bytearray(map(self.top.__ge__, self.degu))
        self.anchor = bytearray(map(self.low.__ge__, self.degu))
        self.key = 0

    def peel(self, layer: Sequence[int], step: int) -> None:
        """Take layer out (step -1) or put it back (step 1): O(its degrees)."""
        left, degu, member, anchor = self.left, self.degu, self.member, self.anchor
        top, low = self.top, self.low
        for v in layer:
            self.key ^= hash((v, -1))  # a fixed pseudo-random word per vertex
            left[v] = member[v] = anchor[v] = 0
        for w in chain.from_iterable(map(self.adj.__getitem__, layer)):
            if left[w]:
                e = degu[w] = degu[w] + step
                member[w], anchor[w] = e <= top, e <= low
        for v in layer if step > 0 else ():
            left[v], member[v], anchor[v] = 1, degu[v] <= top, degu[v] <= low


def _last_layer_candidates(
    g: Graph, rem: _Remaining, k: int, d: int
) -> Iterator[list[int] | None]:
    """Certifying order, or None, of each candidate last layer of rem.

    Candidates come in the order of combinations(sorted(remaining), k) and
    include every feasible layer: its position-1 vertex v (the anchor) has
    at most d - 1 neighbours outside it, so it is v's closed neighbourhood
    minus at most d - 1 dropped neighbours, plus other members. Each base
    streams its layers in order, reading members only as far as used, and
    opens when the merge pops it. Anchors open in id order while their
    least layer, the k - 1 smallest members P plus max(v, the k-th), can
    beat the top; while the top starts with P, so does any layer below it,
    and an anchor that needs a neighbour outside P waits until it leaves P.
    A level thus costs the anchors it opens and the layers it pops, and
    keeps only their streams. rem must hold this level's set when it runs.
    """
    adj, left, member, degu = g._adj, rem.left, rem.member, rem.degu
    heap, first, near, waiting, last = [], None, None, [], None

    anchors = _ones(rem.anchor)
    v = next(anchors, None)
    while True:
        while v is not None:
            if heap:  # then k members exist
                first = first or list(islice(_ones(member), k))
                if first[:-1] + [max(v, first[-1])] > heap[0][0]:
                    break
            if heap and degu[v] >= d and heap[0][0][:-1] == first[:-1] and v not in (
                near := near or set(first[:-1]).union(*map(adj.__getitem__, first[:-1]))
            ):
                waiting.append(v)
            else:
                nbrs = [u for u in adj[v] if left[u]]
                closed = {v, *nbrs}
                for size in range(max(0, len(nbrs) + 1 - k), min(d - 1, len(nbrs)) + 1):
                    for dropped in combinations(nbrs, size):
                        base = tuple(sorted(closed.difference(dropped)))
                        if all(map(member.__getitem__, base)):
                            if len(base) == k:  # base is its stream's one layer
                                head, stream = list(base), iter(())
                            else:  # the stream opens when popped, past its head
                                head = next(_completions(member, k, base, closed), None)
                                stream = islice(_completions(member, k, base, closed), 1, None)
                            if head:
                                heapq.heappush(heap, (head, id(stream), stream))
            v = next(anchors, None)
        if waiting and (not heap or heap[0][0][:-1] != first[:-1]):  # so v is None
            anchors, waiting = iter(waiting), []
            v = next(anchors)
            continue
        if not heap:
            return
        cand, tie, stream = heap[0]  # tie: id(stream), unique while stream is held
        if (head := next(stream, None)) is None:
            heapq.heappop(heap)
        else:
            heapq.heapreplace(heap, (head, tie, stream))
        if cand != last:
            last = cand
            yield _ordered_if_feasible(g, frozenset(cand), degu, d)


def search_kd_partition(
    g: Graph, k: int, d: int, budget: int | None = None
) -> SearchResult:
    """Exact backtracking search for a (k, d) layer partition.

    Layers are peeled from the back, trying each step's feasible last
    layers in lexicographic order of sorted vertex ids, so a found
    partition is the lexicographically first peel sequence.  Candidates
    are built around anchors: a vertex of degree at most d + k - 2 plus
    all but at most d - 1 of its remaining neighbours.  One _Remaining
    serves every level; a peel updates only the layer's neighbours and a
    pop undoes it, so a level costs the anchors and candidates it opens
    and the stack keeps only each level's layer and open streams.  Sets
    proved dead are not searched twice in a call: they are keyed by an XOR
    hash (Zobrist) and a stored copy confirms a hit.  Backtracking uses an
    explicit stack, not recursion.

    `expanded` counts distinct candidate subsets tested, and the budget
    bounds it.  PROVED_ABSENT is returned only when the whole space was
    covered, BUDGET_EXHAUSTED when the count ran out first.
    """
    if type(k) is not int or k < 1 or type(d) is not int or d < 1:
        raise InputError("k and d must be positive")
    if budget is not None and type(budget) is not int:
        raise InputError(f"budget must be None or an integer, got {budget!r}")
    if g.n < 1:
        raise InputError("graph must have at least one vertex")
    if g.n <= k:
        return SearchResult(SearchStatus.FOUND, KdPartition(k, d, [list(range(g.n))]), 0)
    rem, expanded, dead, peeled = _Remaining(g, k, d), 0, {}, []
    stack = [_last_layer_candidates(g, rem, k, d)]
    while stack:
        for layer in stack[-1]:
            if budget is not None and expanded >= budget:
                return SearchResult(SearchStatus.BUDGET_EXHAUSTED, None, expanded)
            expanded += 1
            if layer is None:
                continue
            if g.n - k * len(peeled) <= 2 * k:  # the rest, at most k, was never pushed or dead
                rest = sorted(set(compress(range(g.n), rem.left)).difference(layer))
                layers = [rest, layer, *peeled[::-1]]
                return SearchResult(SearchStatus.FOUND, KdPartition(k, d, layers), expanded)
            rem.peel(layer, -1)
            if dead.get(rem.key) == rem.left:
                rem.peel(layer, 1)
                continue
            peeled.append(layer)
            stack.append(_last_layer_candidates(g, rem, k, d))
            break
        else:
            dead[rem.key] = bytes(rem.left)
            stack.pop()
            if peeled:
                rem.peel(peeled.pop(), 1)
    return SearchResult(SearchStatus.PROVED_ABSENT, None, expanded)


def greedy_kd_partition(g: Graph, k: int, d: int) -> KdPartition | None:
    """One-pass heuristic: peel the k lowest-degree vertices per step.

    Each step takes the k remaining vertices smallest by (remaining degree,
    id), so ties go to the smaller id and no set order shows in the layers.
    Degrees are counted once and lowered as each layer is peeled, once per
    removed neighbour (smallest-last bookkeeping, as in Matula-Beck): O(m)
    updates in all. Each step then scans the remaining set once, so the
    peel takes O(n^2/k + m) time and O(n + m) memory. The layers are the
    same as those of a peel that re-counts every remaining degree at every
    step.

    Returns None as soon as a step's candidates admit no ordering; a
    returned partition always verifies.
    """
    if type(k) is not int or k < 1 or type(d) is not int or d < 1:
        raise InputError("k and d must be positive")
    if g.n < 1:
        raise InputError("graph must have at least one vertex")
    adj = g._adj
    degu = list(map(len, adj))  # degree among the remaining vertices
    universe = set(range(g.n))
    peeled_rev: list[list[int]] = []
    while len(universe) > k:
        # (degree, id) pairs: both walks of the unchanged set go in one order.
        lowest = heapq.nsmallest(k, zip(map(degu.__getitem__, universe), universe))
        sset = frozenset([v for _, v in lowest])
        layer = _ordered_if_feasible(g, sset, degu, d)
        if layer is None:
            return None
        peeled_rev.append(layer)
        universe -= sset
        for v in sset:
            for w in adj[v]:
                if w in universe:
                    degu[w] -= 1
    layers = [sorted(universe)] + peeled_rev[::-1]
    return KdPartition(k, d, layers)


def enumerate_last_layers(g: Graph, k: int, d: int) -> Iterator[list[int]]:
    """Yield every ordered k-subset usable as the final layer, each once.

    Only subsets built around an anchor are tested, as in
    search_kd_partition; layers come in lexicographic order of sorted ids.
    """
    if type(k) is not int or k < 1 or type(d) is not int or d < 1:
        raise InputError("k and d must be positive")
    if g.n < k:
        raise InputError(f"graph has {g.n} vertices, need at least k={k}")
    for layer in _last_layer_candidates(g, _Remaining(g, k, d), k, d):
        if layer is not None:
            yield layer

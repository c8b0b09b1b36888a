"""Independent reference implementations used to pin expected values.

Everything here recomputes a property by brute force, in a different way
than the package does, so tests can compare the two. Practical only for
small graphs.
"""

from __future__ import annotations

import itertools
import math

from eqcolor import (
    Coloring,
    ColoringVerdict,
    ColoringViolation,
    Graph,
    InputError,
    KdPartition,
    ListAssignment,
    verify_kd_partition,
)
from eqcolor.graph import induced_subgraph


def adjacency_by_sets(n: int, edges) -> tuple[tuple[int, ...], ...]:
    """Per-vertex sorted neighbour tuples, collapsed through one set per vertex."""
    sets: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        sets[u].add(v)
        sets[v].add(u)
    return tuple(tuple(sorted(s)) for s in sets)


def adjacency_masks(g: Graph) -> list[int]:
    masks = [0] * g.n
    for u, v in g.edges():
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def degenerate_by_subsets(g: Graph, d: int) -> bool:
    """d-degeneracy via the subgraph definition, checking all vertex subsets."""
    masks = adjacency_masks(g)
    for subset in range(1, 1 << g.n):
        rest = subset
        has_small = False
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if (masks[v] & subset).bit_count() <= d:
                has_small = True
                break
        if not has_small:
            return False
    return True


def degenerate_by_peeling(g: Graph, d: int) -> bool:
    """d-degeneracy by peeling vertices of degree at most d until none is left.

    The answer does not depend on which eligible vertex is peeled first.
    """
    deg = [g.degree(v) for v in range(g.n)]
    removed = [False] * g.n
    stack = [v for v in range(g.n) if deg[v] <= d]
    count = 0
    while stack:
        v = stack.pop()  # each vertex is pushed once: its degree only falls
        removed[v] = True
        count += 1
        for w in g.neighbors(v):
            if not removed[w]:
                deg[w] -= 1
                if deg[w] == d:
                    stack.append(w)
    return count == g.n


def degeneracy_by_subsets(g: Graph) -> int:
    """Largest over subsets of the minimum degree inside the subset."""
    masks = adjacency_masks(g)
    worst = 0
    for subset in range(1, 1 << g.n):
        rest = subset
        smallest = g.n
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            smallest = min(smallest, (masks[v] & subset).bit_count())
        worst = max(worst, smallest)
    return worst


def partition_exists_by_permutations(g: Graph, k: int, d: int) -> bool:
    """Feasibility oracle trying every vertex permutation cut into layers."""
    n = g.n
    if n == 0:
        return False
    eta = math.ceil(n / k) - 1
    r1 = n - eta * k
    for perm in itertools.permutations(range(n)):
        layers = [list(perm[:r1])]
        for start in range(r1, n, k):
            layers.append(list(perm[start : start + k]))
        candidate = KdPartition(k=k, d=d, layers=layers)
        if verify_kd_partition(g, candidate).valid:
            return True
    return False


def all_feasible_last_layers(g: Graph, k: int, d: int) -> set[frozenset[int]]:
    """Every size-k vertex set orderable as a final layer, by direct check."""
    out: set[frozenset[int]] = set()
    for combo in itertools.combinations(range(g.n), k):
        chosen = set(combo)
        ext = sorted(
            sum(1 for u in g.neighbors(v) if u not in chosen) for v in combo
        )
        if all(e <= d * (i + 1) - 1 for i, e in enumerate(ext)):
            out.add(frozenset(combo))
    return out


def first_peel_sequence(g: Graph, k: int, d: int) -> list[list[int]] | None:
    """Layers of the lexicographically first peel sequence, or None.

    Peels a last layer off the remaining vertices by trying their k-subsets
    in itertools.combinations order.  A subset is usable when, sorted by
    (external degree, id), its i-th vertex has at most d*i - 1 remaining
    neighbours outside it; that sort is the layer's stored order.  The
    first layer is whatever is left once at most k vertices remain, sorted.
    Remaining-vertex bitmasks known to fail are cached to keep it quick.
    """
    masks = adjacency_masks(g)
    failed: set[int] = set()

    def peel(remaining: int) -> list[list[int]] | None:
        ids = [v for v in range(g.n) if remaining >> v & 1]
        if len(ids) <= k:
            return [ids]
        if remaining in failed:
            return None
        for combo in itertools.combinations(ids, k):
            outside = remaining & ~sum(1 << v for v in combo)
            order = sorted(((masks[v] & outside).bit_count(), v) for v in combo)
            if all(e <= d * i - 1 for i, (e, _) in enumerate(order, start=1)):
                below = peel(outside)
                if below is not None:
                    return below + [[v for _, v in order]]
        failed.add(remaining)
        return None

    return peel((1 << g.n) - 1)


def greedy_peel(g: Graph, k: int, d: int) -> list[list[int]] | None:
    """Layers of the greedy peel, or None, recomputed on bitmasks.

    Each step takes the k remaining vertices smallest by (remaining degree,
    id) as the next last layer and stores them sorted by (external degree,
    id); the greedy gives up when the i-th of them has more than d*i - 1
    remaining neighbours outside the layer.  The first layer is whatever is
    left once at most k vertices remain, sorted.
    """
    masks = adjacency_masks(g)
    remaining = (1 << g.n) - 1
    peeled: list[list[int]] = []
    while remaining.bit_count() > k:
        ids = [v for v in range(g.n) if remaining >> v & 1]
        chosen = sorted(ids, key=lambda v: ((masks[v] & remaining).bit_count(), v))[:k]
        remaining &= ~sum(1 << v for v in chosen)
        order = sorted(((masks[v] & remaining).bit_count(), v) for v in chosen)
        if any(e > d * i - 1 for i, (e, _) in enumerate(order, start=1)):
            return None
        peeled.append([v for _, v in order])
    return [[v for v in range(g.n) if remaining >> v & 1]] + peeled[::-1]


def first_back_degree_violation(
    g: Graph, layers: list[list[int]], d: int
) -> tuple[int, int, int, int, int] | None:
    """(layer, position, vertex, observed, allowed) of the first vertex, in
    layer then position order, with more than d*i - 1 neighbours in earlier
    layers, or None.  Layers are numbered from 1 and positions from 1."""
    masks = adjacency_masks(g)
    earlier = 0
    for j, layer in enumerate(layers, start=1):
        if j >= 2:
            for i, v in enumerate(layer, start=1):
                back = (masks[v] & earlier).bit_count()
                if back > d * i - 1:
                    return j, i, v, back, d * i - 1
        for v in layer:
            earlier |= 1 << v
    return None


def colour_classes(coloring: Coloring) -> dict[int, list[int]]:
    """Colour to its member vertices, ascending."""
    classes: dict[int, list[int]] = {}
    for v in sorted(coloring.colors):
        classes.setdefault(coloring.colors[v], []).append(v)
    return classes


def verify_coloring_by_subsets(g, lists, t, coloring: Coloring, d: int) -> ColoringVerdict:
    """Same clauses as the package verifier, degeneracy done by subsets."""
    colors = coloring.colors
    for v in range(g.n):
        if v not in colors:
            return ColoringVerdict(False, None)
    if any(v not in range(g.n) for v in colors):
        return ColoringVerdict(False, None)
    for v in range(g.n):
        if v not in lists or colors[v] not in lists[v]:
            return ColoringVerdict(False, None)
    cap = math.ceil(g.n / t)
    classes = colour_classes(coloring)
    for members in classes.values():
        if len(members) > cap:
            return ColoringVerdict(False, None)
    for members in classes.values():
        index = {v: i for i, v in enumerate(members)}
        sub = Graph(
            len(members),
            [
                (index[u], index[v])
                for u, v in g.edges()
                if u in index and v in index
            ],
        )
        if not degenerate_by_subsets(sub, d - 1):
            return ColoringVerdict(False, None)
    return ColoringVerdict(True)


def verify_coloring_by_classes(g, lists, t, coloring: Coloring, d: int) -> ColoringVerdict:
    """Per-class reference for the package verifier, violations included.

    The same clauses in the same order (domain, list, size, degeneracy),
    with every colour class rebuilt as an induced subgraph and peeled on
    its own, the smallest failing colour first.
    """
    colors = coloring.colors
    for v in range(g.n):
        if v not in colors:
            return ColoringVerdict(
                False, ColoringViolation("domain", f"vertex {v} is uncoloured", vertex=v)
            )
    if len(colors) != g.n:
        foreign = next(v for v in colors if v not in range(g.n))
        return ColoringVerdict(
            False,
            ColoringViolation("domain", f"vertex {foreign!r} is not in the graph", vertex=foreign),
        )
    for v in range(g.n):
        if v not in lists or colors[v] not in lists[v]:
            return ColoringVerdict(
                False,
                ColoringViolation(
                    "list",
                    f"vertex {v} wears colour {colors[v]} outside its list",
                    vertex=v,
                    color=colors[v],
                ),
            )
    cap = math.ceil(g.n / t)
    classes = colour_classes(coloring)
    for colour in sorted(classes):
        members = classes[colour]
        if len(members) > cap:
            return ColoringVerdict(
                False,
                ColoringViolation(
                    "size",
                    f"colour {colour} has {len(members)} vertices, cap is {cap}",
                    color=colour,
                ),
            )
    for colour in sorted(classes):
        sub, _ = induced_subgraph(g, classes[colour])
        if not degenerate_by_peeling(sub, d - 1):
            return ColoringVerdict(
                False,
                ColoringViolation(
                    "degeneracy",
                    f"colour class {colour} is not ({d - 1})-degenerate",
                    color=colour,
                ),
            )
    return ColoringVerdict(True)


def brute_force_equitable_coloring(
    g: Graph, lists: ListAssignment, t: int, d: int
) -> Coloring | None:
    """Exhaustive oracle for small graphs (intended for n <= 10).

    Tries colours vertex by vertex in list order, pruning on the class
    size cap and on class degeneracy (hereditary, so pruning is sound).
    Returns the first valid colouring in lexicographic assignment order,
    or None when no assignment from the lists works.
    """
    if t < 1 or d < 1:
        raise InputError("t and d must be positive")
    n = g.n
    if n == 0:
        return Coloring({})
    for v in range(n):
        if v not in lists:
            raise InputError(f"list assignment misses vertex {v}")
    cap = math.ceil(n / t)
    colors: dict[int, int] = {}
    members: dict[int, list[int]] = {}

    def dfs(v: int) -> bool:
        if v == n:
            return True
        for c in lists[v]:
            group = members.get(c, [])
            if len(group) >= cap:
                continue
            sub, _ = induced_subgraph(g, group + [v])
            if not degenerate_by_peeling(sub, d - 1):
                continue
            colors[v] = c
            members.setdefault(c, []).append(v)
            if dfs(v + 1):
                return True
            members[c].pop()
            del colors[v]
        return False

    if dfs(0):
        return Coloring(dict(colors))
    return None

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
    KdPartition,
    induced_subgraph,
    is_d_degenerate,
    verify_kd_partition,
)


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
    classes: dict[int, list[int]] = {}
    for v in range(g.n):
        classes.setdefault(colors[v], []).append(v)
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
    classes: dict[int, list[int]] = {}
    for v in range(g.n):
        classes.setdefault(colors[v], []).append(v)
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
        if not is_d_degenerate(sub, d - 1):
            return ColoringVerdict(
                False,
                ColoringViolation(
                    "degeneracy",
                    f"colour class {colour} is not ({d - 1})-degenerate",
                    color=colour,
                ),
            )
    return ColoringVerdict(True)

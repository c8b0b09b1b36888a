"""Witness graphs and standard families used across tests and the CLI.

Each generator returns a NamedGraph: the graph itself, a label map, and,
when the construction defines them, a bundled layer partition and colour
lists; a bundled partition is re-verified at build time. NamedGraph is
also the graph document that fileio parses and writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .coloring import ListAssignment
from .errors import InputError, InvariantError
from .graph import Graph
from .partition import KdPartition, verify_kd_partition


@dataclass
class NamedGraph:
    """A graph with optional vertex labels, layer partition and colour lists."""

    graph: Graph
    names: dict[str, int] | None = None
    partition: KdPartition | None = None
    lists: ListAssignment | None = None

    def id_of(self, label: str) -> int:
        if self.names is None or label not in self.names:
            raise InputError(f"unknown vertex label {label!r}")
        return self.names[label]


def _checked(ng: NamedGraph) -> NamedGraph:
    if ng.partition is not None:
        verdict = verify_kd_partition(ng.graph, ng.partition)
        if not verdict.valid:
            assert verdict.violation is not None
            raise InvariantError(
                f"bundled partition does not verify: {verdict.violation.message}"
            )
    return ng


# Neighbours of v_j in the previous clique, keyed by j. The even table
# applies to even-indexed cliques, the odd one to odd indices >= 3.
_INTER_EVEN = {1: (), 2: (1,), 3: (2, 3), 4: (1, 2, 3), 5: (1, 4, 5, 6), 6: (2, 3, 4, 5, 6)}
_INTER_ODD = {1: (2, 3, 4, 5, 6), 2: (1, 4, 5, 6), 3: (1, 2, 3), 4: (2, 3), 5: (1,), 6: ()}


def gen_gq(q: int) -> NamedGraph:
    """Chain of 2q+1 six-cliques with graded connections between them.

    Copy i of K_6 forms layer i of the bundled partition; the layer
    ordering lists each copy by ascending count of neighbours in the
    previous copy, which certifies the partition with k=6, d=1.
    """
    if q < 1:
        raise InputError(f"q must be a positive integer, got {q}")
    copies = 2 * q + 1
    names: dict[str, int] = {}

    def vid(i: int, j: int) -> int:
        return (i - 1) * 6 + j - 1

    for i in range(1, copies + 1):
        for j in range(1, 7):
            names[f"v_{j}^{i}"] = vid(i, j)
    edges: list[tuple[int, int]] = []
    for i in range(1, copies + 1):
        for a in range(1, 7):
            for b in range(a + 1, 7):
                edges.append((vid(i, a), vid(i, b)))
    for i in range(2, copies + 1):
        table = _INTER_EVEN if i % 2 == 0 else _INTER_ODD
        for j in range(1, 7):
            for m in table[j]:
                edges.append((vid(i, j), vid(i - 1, m)))
    layers: list[list[int]] = []
    for i in range(1, copies + 1):
        if i == 1 or i % 2 == 0:
            order = range(1, 7)
        else:
            order = range(6, 0, -1)
        layers.append([vid(i, j) for j in order])
    graph = Graph(6 * copies, edges)
    partition = KdPartition(k=6, d=1, layers=layers)
    return _checked(NamedGraph(graph, names, partition=partition))


def gen_example2() -> NamedGraph:
    """The 20-vertex showcase graph with its partition and colour lists.

    Two five-cliques with pendant paths: v_1^i..v_5^i form a clique, each
    w_j^i hangs off v_j^i, consecutive w's are chained, and each v_a^i
    also sees w_{a+1}^i. Clique 2 additionally sends v_j^2 to every v_a^1
    with a >= j. Layers pair each w with its v, clique 1 first; k=2, d=3.
    """
    names: dict[str, int] = {}
    for j in range(1, 6):
        names[f"v_{j}^1"] = j - 1
        names[f"w_{j}^1"] = 4 + j
        names[f"v_{j}^2"] = 9 + j
        names[f"w_{j}^2"] = 14 + j
    edges: list[tuple[int, int]] = []
    for i in (1, 2):
        v = [names[f"v_{j}^{i}"] for j in range(1, 6)]
        w = [names[f"w_{j}^{i}"] for j in range(1, 6)]
        for a in range(5):
            for b in range(a + 1, 5):
                edges.append((v[a], v[b]))
        for j in range(5):
            edges.append((w[j], v[j]))
        for a in range(4):
            edges.append((w[a], w[a + 1]))
            edges.append((v[a], w[a + 1]))
    for j in range(1, 6):
        for a in range(j, 6):
            edges.append((names[f"v_{j}^2"], names[f"v_{a}^1"]))
    layers = []
    for i in (1, 2):
        for j in range(1, 6):
            layers.append([names[f"w_{j}^{i}"], names[f"v_{j}^{i}"]])
    lists: dict[int, list[int]] = {}
    for j in range(1, 6):
        lists[names[f"v_{j}^1"]] = [1, 2, 3]
        lists[names[f"v_{j}^2"]] = [1, 2, 3]
        lists[names[f"w_{j}^1"]] = [2, 3, 4]
        lists[names[f"w_{j}^2"]] = [1, 2, 4]
    graph = Graph(20, edges)
    partition = KdPartition(k=2, d=3, layers=layers)
    assignment = ListAssignment(3, lists)
    return _checked(NamedGraph(graph, names, partition=partition, lists=assignment))


def gen_basic(
    kind: str, n: int | None = None, p: float | None = None, seed: int | None = None
) -> NamedGraph:
    """Paths, cycles, cliques, and seeded uniform random graphs."""
    if kind not in {"path", "cycle", "complete", "random"}:
        raise InputError(f"unknown graph kind {kind!r}")
    if n is None or n < 1:
        raise InputError(f"{kind} needs a positive vertex count, got {n}")
    edges: list[tuple[int, int]] = []
    if kind == "path":
        edges = [(v, v + 1) for v in range(n - 1)]
    elif kind == "cycle":
        if n < 3:
            raise InputError(f"cycle needs at least 3 vertices, got {n}")
        edges = [(v, (v + 1) % n) for v in range(n)]
    elif kind == "complete":
        edges = [(a, b) for a in range(n) for b in range(a + 1, n)]
    else:
        if p is None or not 0.0 <= p <= 1.0:
            raise InputError(f"random needs an edge probability in [0, 1], got {p}")
        rng = Random(seed)
        edges = [
            (a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p
        ]
    names = {str(v): v for v in range(n)}
    return NamedGraph(Graph(n, edges), names)


def gen_planted_partition(n: int, k: int, d: int, seed: int | None = None) -> NamedGraph:
    """Random graph built around a layer partition it provably satisfies.

    Vertices are shuffled into layers; each vertex at position i of a
    layer receives at most d*i - 1 random neighbours in earlier layers,
    which is exactly the budget the partition condition allows, plus
    within-layer edges at coin-flip rate. The bundled partition is
    re-verified before returning.
    """
    if n < 1 or k < 1 or d < 1:
        raise InputError("n, k, d must all be positive")
    rng = Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    eta = -(-n // k) - 1
    r1 = n - eta * k
    layers = [perm[:r1]]
    for start in range(r1, n, k):
        layers.append(perm[start : start + k])
    edges: set[tuple[int, int]] = set()
    earlier: list[int] = []
    for idx, layer in enumerate(layers):
        for a in range(len(layer)):
            for b in range(a + 1, len(layer)):
                if rng.random() < 0.5:
                    u, v = layer[a], layer[b]
                    edges.add((min(u, v), max(u, v)))
        if idx > 0:
            for i, v in enumerate(layer, start=1):
                cap = min(d * i - 1, len(earlier))
                for u in rng.sample(earlier, rng.randint(0, cap)):
                    edges.add((min(u, v), max(u, v)))
        earlier.extend(layer)
    names = {str(v): v for v in range(n)}
    partition = KdPartition(k=k, d=d, layers=layers)
    return _checked(NamedGraph(Graph(n, sorted(edges)), names, partition=partition))

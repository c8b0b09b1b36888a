"""Equitable list colouring with bounded-degeneracy colour classes.

Given a graph, a verified (k, d) layer partition, and t-uniform colour
lists with t >= k, the pipeline produces a colouring from the lists in
which every colour class induces a (d-1)-degenerate subgraph and no class
exceeds ceil(n/t) vertices.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from random import Random

from .errors import InputError, InvariantError
from .graph import Graph, induced_subgraph, is_d_degenerate
from .partition import KdPartition, verify_kd_partition


@dataclass(frozen=True)
class Counters:
    """Block-size bookkeeping shared by the whole pipeline.

    Identities (all exercised by the test suite):
        n = beta * t + r2            with 1 <= r2 <= t
        t = gamma * k + r            with 0 <= r < k
        beta * r = rho * k + x       with 0 <= x < k
        n = r2 + x + rho * k + beta * gamma * k
    """

    n: int
    t: int
    k: int
    eta: int
    r1: int
    beta: int
    r2: int
    gamma: int
    r: int
    rho: int
    x: int


def compute_counters(n: int, t: int, k: int) -> Counters:
    """Derive every block size the pipeline needs from (n, t, k)."""
    if n < 1:
        raise InputError(f"n must be positive, got {n}")
    if k < 1:
        raise InputError(f"k must be positive, got {k}")
    if t < k:
        raise InputError(f"t must be at least k, got t={t}, k={k}")
    eta = math.ceil(n / k) - 1
    r1 = n - eta * k
    beta = math.ceil(n / t) - 1
    r2 = t if n % t == 0 else n % t
    gamma, r = divmod(t, k)
    rho, x = divmod(beta * r, k)
    return Counters(n=n, t=t, k=k, eta=eta, r1=r1, beta=beta, r2=r2, gamma=gamma, r=r, rho=rho, x=x)


class ListAssignment:
    """t-uniform colour lists, kept sorted ascending per vertex."""

    __slots__ = ("t", "_lists")

    def __init__(self, t: int, lists: Mapping[int, Iterable[int]]) -> None:
        if t < 1:
            raise InputError(f"t must be positive, got {t}")
        clean: dict[int, tuple[int, ...]] = {}
        for v in sorted(lists):
            colours = list(lists[v])
            if len(set(colours)) != len(colours):
                raise InputError(f"list of vertex {v} repeats a colour")
            if len(colours) != t:
                raise InputError(f"list of vertex {v} has {len(colours)} colours, expected {t}")
            for c in colours:
                if not isinstance(c, int) or isinstance(c, bool) or c < 1:
                    raise InputError(f"list of vertex {v} holds invalid colour {c!r}")
            clean[v] = tuple(sorted(colours))
        self.t = t
        self._lists = clean

    def __getitem__(self, v: int) -> tuple[int, ...]:
        try:
            return self._lists[v]
        except KeyError:
            raise InputError(f"no colour list for vertex {v}") from None

    def __contains__(self, v: int) -> bool:
        return v in self._lists

    def __len__(self) -> int:
        return len(self._lists)

    def vertices(self) -> list[int]:
        return list(self._lists)

    def items(self) -> list[tuple[int, tuple[int, ...]]]:
        return list(self._lists.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ListAssignment):
            return NotImplemented
        return self.t == other.t and self._lists == other._lists

    def __repr__(self) -> str:
        return f"ListAssignment(t={self.t}, vertices={len(self._lists)})"

    @classmethod
    def uniform_random(cls, n: int, t: int, palette: int, rng: Random) -> "ListAssignment":
        """Random t-subsets of {1..palette}, one per vertex, valid by construction."""
        if t < 1:
            raise InputError(f"t must be positive, got {t}")
        if palette < t:
            raise InputError(f"palette size {palette} is below t={t}")
        # The same draws as from range(1, palette + 1): sample reads only the
        # population's length and items, and a list passes its type check faster.
        pool = list(range(1, palette + 1))
        out = cls.__new__(cls)
        out.t = t
        out._lists = {v: tuple(sorted(rng.sample(pool, t))) for v in range(n)}
        return out


@dataclass
class Coloring:
    colors: dict[int, int]

    def color_classes(self) -> dict[int, list[int]]:
        """Colour to sorted member vertices."""
        out: dict[int, list[int]] = {}
        for v in sorted(self.colors):
            out.setdefault(self.colors[v], []).append(v)
        return out


@dataclass
class ColoringViolation:
    clause: str  # "domain", "list", "size", or "degeneracy"
    message: str
    vertex: int | None = None
    color: int | None = None


@dataclass
class ColoringVerdict:
    valid: bool
    violation: ColoringViolation | None = None


@dataclass
class RunTrace:
    """Optional intermediate artifacts collected during a colouring run."""

    counters: Counters | None = None
    order: list[int] = field(default_factory=list)
    s_col_initial: list[int] = field(default_factory=list)
    s_col_reordered: list[int] = field(default_factory=list)
    rest_order: list[int] = field(default_factory=list)
    lists_after_modify: dict[int, tuple[int, ...]] = field(default_factory=dict)


class AlgorithmState:
    """Mutable working state for one colouring run.

    Tracks the shrinking colour lists, the partial colouring, and for
    every vertex a count of same-coloured neighbours per colour; the
    counts drive list pruning inside colour_vertex.
    """

    def __init__(
        self,
        graph: Graph,
        lists: ListAssignment,
        k: int,
        d: int,
        *,
        rng: Random | None = None,
        debug: bool = False,
    ) -> None:
        if k < 1 or d < 1:
            raise InputError("k and d must be positive")
        given = lists._lists
        working: dict[int, set[int]] = {}
        for v in range(graph.n):
            if v not in given:
                raise InputError(f"list assignment misses vertex {v}")
            working[v] = set(given[v])
        self.graph = graph
        self.k = k
        self.d = d
        self.t = lists.t
        self.lists = working
        self.colors: dict[int, int] = {}
        self.counts: list[dict[int, int]] = [{} for _ in range(graph.n)]
        self.rng = rng
        self.debug = debug


def build_order(p: KdPartition) -> list[int]:
    """Flat processing order: each layer reversed, layers first to last."""
    out: list[int] = []
    for layer in p.layers:
        out.extend(reversed(layer))
    return out


def colour_vertex(state: AlgorithmState, v: int) -> int:
    """Colour v from its current list and prune neighbouring lists.

    Picks the smallest available colour (or a seeded-uniform one when the
    state carries an rng). After assigning c, any uncoloured neighbour
    that now has exactly d neighbours coloured c loses c from its list;
    the count crosses d exactly once per vertex and colour, so each
    removal fires exactly once.
    """
    if v in state.colors:
        raise InputError(f"vertex {v} is already coloured")
    lv = state.lists[v]
    if not lv:
        raise InvariantError(
            f"empty colour list at vertex {v}",
            context={
                "vertex": v,
                "assigned": len(state.colors),
                "n": state.graph.n,
                "t": state.t,
                "k": state.k,
                "d": state.d,
            },
        )
    c = min(lv) if state.rng is None else state.rng.choice(sorted(lv))
    d = state.d
    if state.debug and state.counts[v].get(c, 0) >= d:
        # Every vertex joins its class with at most d-1 earlier same-coloured
        # neighbours, so colouring order is a smallest-last certificate that
        # each class is (d-1)-degenerate.
        raise InvariantError(
            f"colour class {c} lost ({d - 1})-degeneracy at vertex {v}",
            context={"vertex": v, "color": c, "same_coloured_neighbours": state.counts[v][c]},
        )
    state.colors[v] = c
    colors = state.colors
    for w in state.graph._adj[v]:
        cnt = state.counts[w]
        new = cnt.get(c, 0) + 1
        cnt[c] = new
        if new == d and w not in colors:
            state.lists[w].discard(c)
    return c


def colour_list(
    state: AlgorithmState,
    vertices: list[int],
    p: int,
    min_size: Callable[[int], int] | None = None,
) -> None:
    """Colour vertices in consecutive blocks of p with distinct colours.

    Inside a block each vertex's list permanently loses the colours the
    block has already used, which forces pairwise distinct colours. The
    optional min_size callback is a debug hook: given the 1-based position
    inside a block it returns the smallest list size the theory
    guarantees at that point.
    """
    if not vertices:
        return
    if p < 1 or len(vertices) % p:
        raise InputError(f"length {len(vertices)} is not a positive multiple of {p}")
    for start in range(0, len(vertices), p):
        used: set[int] = set()
        for i, v in enumerate(vertices[start : start + p], start=1):
            lv = state.lists[v]
            lv -= used
            if state.debug and min_size is not None:
                floor = min_size(i)
                if len(lv) < floor:
                    raise InvariantError(
                        f"list of vertex {v} shrank to {len(lv)}, floor is {floor}",
                        context={"vertex": v, "position": i, "size": len(lv), "floor": floor},
                    )
            used.add(colour_vertex(state, v))


def reorder(s_col: list[int], colors: Mapping[int, int], k: int, x: int) -> list[int]:
    """Permute an already coloured list so every k-window is rainbow.

    The input starts with x vertices of pairwise distinct colours followed
    by blocks of k, each block rainbow on its own. The x-prefix is kept;
    each block is then drained greedily, always appending the earliest
    pooled vertex whose colour avoids the previous k - 1 output colours.
    A pool holding j colours faces at most j - 1 clashes from outside its
    own block, so the greedy step never gets stuck.
    """
    if k < 1:
        raise InputError(f"k must be positive, got {k}")
    if x < 0 or x > len(s_col) or (k > 1 and x >= k and s_col):
        raise InputError(f"prefix length x={x} invalid for k={k}")
    if (len(s_col) - x) % k:
        raise InputError(f"length {len(s_col)} minus prefix {x} is not a multiple of {k}")
    out = list(s_col[:x])
    pos = x
    while pos < len(s_col):
        pool = list(s_col[pos : pos + k])
        pos += k
        for _ in range(k):
            recent = out[-(k - 1) :] if k > 1 else []
            forbidden = {colors[w] for w in recent}
            for idx, v in enumerate(pool):
                if colors[v] not in forbidden:
                    break
            else:
                raise InvariantError(
                    "no pooled vertex fits the next slot",
                    context={"pool": list(pool), "forbidden": sorted(forbidden)},
                )
            out.append(pool.pop(idx))
    for i in range(len(out) - k + 1):
        window = out[i : i + k]
        if len({colors[v] for v in window}) != k:
            raise InvariantError(
                "repeated colour inside a window after reorder",
                context={"start": i, "window": window},
            )
    return out


def modify_colour_lists(
    state: AlgorithmState, s_col: list[int], rest: list[int], r: int, gamma_k: int
) -> None:
    """Strip each r-group's colours from the matching gamma_k rest group.

    s_col holds beta groups of r coloured vertices, rest holds beta groups
    of gamma_k uncoloured ones; group i of rest loses group i's colours.
    """
    if r < 0:
        raise InputError(f"r must be non-negative, got {r}")
    if gamma_k < 1:
        raise InputError(f"gamma_k must be positive, got {gamma_k}")
    if len(rest) % gamma_k:
        raise InputError(f"rest length {len(rest)} is not a multiple of {gamma_k}")
    beta = len(rest) // gamma_k
    if len(s_col) != beta * r:
        raise InputError(
            f"coloured list length {len(s_col)} does not match beta*r = {beta * r}"
        )
    if r == 0:
        return
    for i in range(beta):
        block_colors = {state.colors[v] for v in s_col[i * r : (i + 1) * r]}
        for v in rest[i * gamma_k : (i + 1) * gamma_k]:
            state.lists[v] -= block_colors


def _check_decomposition(
    state: AlgorithmState, c: Counters, r_block: list[int], s_col: list[int], rest: list[int]
) -> None:
    """Debug check: the implied size-t groups are rainbow."""
    gk = c.gamma * c.k
    groups = [rest[i * gk : (i + 1) * gk] + s_col[i * c.r : (i + 1) * c.r] for i in range(c.beta)]
    groups.append(r_block)
    for group in groups:
        cols = [state.colors[v] for v in group]
        if len(set(cols)) != len(cols):
            raise InvariantError(
                "repeated colour inside a size-t group",
                context={"group": group, "colors": cols},
            )


def equitable_coloring(
    g: Graph,
    p: KdPartition,
    lists: ListAssignment,
    *,
    tie_break: str = "smallest",
    seed: int | None = None,
    debug: bool = False,
    trace: RunTrace | None = None,
) -> Coloring:
    """Colour g from its lists along the layer partition p.

    The vertices are processed layer by layer with each layer reversed.
    The first r2 vertices form one rainbow block; the next x plus rho
    blocks of k are coloured, reordered so every k-window is rainbow, and
    their colours are then stripped from the matching groups of the
    remaining vertices, which are finally coloured in blocks of gamma*k.

    tie_break is "smallest" (default, deterministic) or "seeded"
    (uniform choice driven by seed). With debug=True the theoretical
    list-size floors, per-class degeneracy, and the final group
    decomposition are asserted at every step. A RunTrace passed as trace
    is filled with intermediate artifacts.

    Raises InputError when the partition does not verify, the lists do
    not cover the graph, or t < k; raises InvariantError if an internal
    invariant fails (which signals invalid input rather than bad luck).
    """
    if g.n < 1:
        raise InputError("graph must have at least one vertex")
    verdict = verify_kd_partition(g, p)
    if not verdict.valid:
        assert verdict.violation is not None
        raise InputError(f"partition does not verify: {verdict.violation.message}")
    t = lists.t
    if t < p.k:
        raise InputError(f"uniform list size t={t} must be at least k={p.k}")
    if tie_break == "smallest":
        rng = None
    elif tie_break == "seeded":
        rng = Random(0 if seed is None else seed)
    else:
        raise InputError(f"unknown tie_break {tie_break!r}")

    c = compute_counters(g.n, t, p.k)
    order = build_order(p)
    state = AlgorithmState(g, lists, p.k, p.d, rng=rng, debug=debug)
    if trace is not None:
        trace.counters = c
        trace.order = list(order)

    k = p.k
    pos = c.r2
    colour_list(state, order[:pos], c.r2, min_size=lambda i: t - (i - 1))
    x_block = order[pos : pos + c.x]
    pos += c.x
    colour_list(state, x_block, c.x or 1, min_size=lambda i: t - k + 1)
    s_col = list(x_block)
    for _ in range(c.rho):
        block = order[pos : pos + k]
        pos += k
        colour_list(state, block, k, min_size=lambda i: t - k + 1)
        s_col.extend(block)
    if trace is not None:
        trace.s_col_initial = list(s_col)

    s_col = reorder(s_col, state.colors, k, c.x)
    rest = order[pos:]
    gk = c.gamma * k
    modify_colour_lists(state, s_col, rest, c.r, gk)
    if trace is not None:
        trace.s_col_reordered = list(s_col)
        trace.rest_order = list(rest)
        trace.lists_after_modify = {v: tuple(sorted(state.lists[v])) for v in rest}

    colour_list(
        state, rest, gk, min_size=lambda i: t - c.r - k - ((i - 1) // k) * k + 1
    )
    if debug:
        _check_decomposition(state, c, order[: c.r2], s_col, rest)
    return Coloring(dict(state.colors))


def verify_equitable_list_coloring(
    g: Graph, lists: ListAssignment, t: int, coloring: Coloring, d: int
) -> ColoringVerdict:
    """Check list membership, class sizes, and class degeneracy.

    Clause order: every vertex coloured (domain), colours drawn from the
    original lists, class sizes at most ceil(n/t), every class induces a
    (d-1)-degenerate subgraph. The last clause is one O(n+m) peel of the
    monochromatic edges, which form the disjoint union of the class
    subgraphs: vertices with at most d-1 unpeeled same-coloured
    neighbours are peeled, and the smallest colour left unpeeled is the
    first failing class.
    """
    if t < 1 or d < 1:
        raise InputError("t and d must be positive")
    colors = coloring.colors
    n = g.n
    for v in range(n):
        if v not in colors:
            return ColoringVerdict(
                False, ColoringViolation("domain", f"vertex {v} is uncoloured", vertex=v)
            )
    if len(colors) != n:
        foreign = next(v for v in colors if v not in range(n))
        return ColoringVerdict(
            False,
            ColoringViolation("domain", f"vertex {foreign!r} is not in the graph", vertex=foreign),
        )
    col = [colors[v] for v in range(n)]
    given = lists._lists
    for v, c in enumerate(col):
        if c not in given.get(v, ()):
            return ColoringVerdict(
                False,
                ColoringViolation(
                    "list", f"vertex {v} wears colour {c} outside its list", vertex=v, color=c
                ),
            )
    cap = math.ceil(n / t)
    sizes = Counter(col)
    oversized = [c for c, size in sizes.items() if size > cap]
    if oversized:
        colour = min(oversized)
        return ColoringVerdict(
            False,
            ColoringViolation(
                "size", f"colour {colour} has {sizes[colour]} vertices, cap is {cap}", color=colour
            ),
        )
    adj = g._adj
    limit = d - 1
    same = [[col[w] for w in a].count(c) for a, c in zip(adj, col)]
    peeled = [s <= limit for s in same]
    stack = [v for v in range(n) if peeled[v]]
    for v in stack:  # grows while it is walked
        c = col[v]
        for w in adj[v]:
            if not peeled[w] and col[w] == c:
                same[w] -= 1
                if same[w] == limit:
                    peeled[w] = True
                    stack.append(w)
    if len(stack) < n:
        colour = min(col[v] for v in range(n) if not peeled[v])
        return ColoringVerdict(
            False,
            ColoringViolation(
                "degeneracy", f"colour class {colour} is not ({d - 1})-degenerate", color=colour
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
            if not is_d_degenerate(sub, d - 1):
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

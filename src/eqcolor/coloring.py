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
from itertools import chain, repeat
from operator import countOf
from random import Random

from .errors import InputError, InvariantError
from .graph import Graph
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
        raise InputError(f"uniform list size t={t} must be at least k={k}")
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
        """Random t-subsets of {1..palette}, one per vertex, valid by construction.

        The lists are the draws of rng.sample(range(1, palette + 1), t) in
        vertex order, and rng ends in the same state.
        """
        if t < 1:
            raise InputError(f"t must be positive, got {t}")
        if palette < t:
            raise InputError(f"palette size {palette} is below t={t}")
        lists: dict[int, tuple[int, ...]] = {}
        setsize = 21 + (4 ** math.ceil(math.log(t * 3, 4)) if t > 5 else 0)
        if (
            palette <= setsize
            and type(rng).sample is Random.sample
            and type(rng)._randbelow is Random._randbelow
        ):
            # CPython's random.sample(range(1, palette + 1), t) takes its pool
            # branch here; this is that branch with _randbelow inlined, so the
            # draws and the rng's state afterwards are the same.
            getrandbits = rng.getrandbits
            base = list(range(1, palette + 1))
            steps = [(m, m.bit_length()) for m in range(palette, palette - t, -1)]
            for v in range(n):
                pool = base[:]
                drawn = []
                for m, bits in steps:
                    j = getrandbits(bits)
                    while j >= m:
                        j = getrandbits(bits)
                    drawn.append(pool[j])
                    pool[j] = pool[m - 1]
                drawn.sort()
                lists[v] = tuple(drawn)
        else:
            population = range(1, palette + 1)
            for v in range(n):
                lists[v] = tuple(sorted(rng.sample(population, t)))
        out = cls.__new__(cls)
        out.t = t
        out._lists = lists
        return out


@dataclass
class Coloring:
    colors: dict[int, int]


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
    counts drive list pruning inside colour_list. A count is kept only
    while it can prune: counts[w][c] grows only while w is uncoloured and
    c is still in w's list. Lists only shrink, so a colour that has left
    a list never returns and its later hits cannot matter, and a coloured
    vertex's counts are never read again. k and d come from a partition
    that verify_kd_partition passed, so both are positive.
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
        n = graph.n
        given = lists._lists
        try:  # map runs in vertex order: a KeyError names the smallest missing vertex
            working = dict(zip(range(n), map(set, map(given.__getitem__, range(n)))))
        except KeyError as missing:
            raise InputError(f"list assignment misses vertex {missing.args[0]}") from None
        self.graph = graph
        self.k = k
        self.d = d
        self.t = lists.t
        self.lists: dict[int, set[int]] = working
        self.colors: dict[int, int] = {}
        self.counts: list[dict[int, int]] = [{} for _ in range(n)]
        self.rng = rng
        self.debug = debug


def colour_list(
    state: AlgorithmState,
    vertices: list[int],
    p: int,
    min_size: Callable[[int], int] | None = None,
) -> None:
    """Colour vertices in consecutive blocks of p with distinct colours.

    It trusts equitable_coloring's layout (uncoloured vertices, a multiple
    of p of them) and re-checks neither. Inside a block each vertex's list
    permanently loses the colours the block has already used, which forces
    pairwise distinct colours. The optional min_size callback is a debug
    hook: given the 1-based position inside a block it returns the
    smallest list size the theory guarantees at that point.

    Each vertex v takes the smallest colour c left in its list (or a
    seeded-uniform one when the state carries an rng), and each
    uncoloured neighbour w still holding c counts a hit and loses c once
    d neighbours wear it. Other hits are not counted: they could never
    prune, and the debug degeneracy check reads counts[v][c] only for a c
    that v's list held all along, every hit on which was counted.
    """
    if not vertices:
        return
    lists, colors, counts, adj = state.lists, state.colors, state.counts, state.graph._adj
    d, rng, debug = state.d, state.rng, state.debug
    floors = debug and min_size is not None
    for start in range(0, len(vertices), p):
        used: set[int] = set()
        for i, v in enumerate(vertices[start : start + p], start=1):
            lv = lists[v]
            lv -= used
            if floors:
                floor = min_size(i)
                if len(lv) < floor:
                    raise InvariantError(
                        f"list of vertex {v} shrank to {len(lv)}, floor is {floor}",
                        context={"vertex": v, "position": i, "size": len(lv), "floor": floor},
                    )
            if not lv:
                raise InvariantError(
                    f"empty colour list at vertex {v}",
                    context={"vertex": v, "assigned": len(colors), "n": state.graph.n,
                             "t": state.t, "k": state.k, "d": d},
                )
            c = min(lv) if rng is None else rng.choice(sorted(lv))
            if debug and counts[v].get(c, 0) >= d:
                # Every vertex joins its class with at most d-1 earlier same-coloured
                # neighbours, so colouring order is a smallest-last certificate that
                # each class is (d-1)-degenerate.
                raise InvariantError(
                    f"colour class {c} lost ({d - 1})-degeneracy at vertex {v}",
                    context={"vertex": v, "color": c, "same_coloured_neighbours": counts[v][c]},
                )
            colors[v] = c
            used.add(c)
            for w in adj[v]:
                if w not in colors:
                    lw = lists[w]
                    if c in lw:
                        cw = counts[w]
                        cw[c] = hits = cw.get(c, 0) + 1
                        if hits == d:
                            lw.remove(c)


def reorder(s_col: list[int], colors: Mapping[int, int], k: int) -> list[int]:
    """Permute an already coloured list so every k-window is rainbow.

    The input starts with x = len(s_col) % k vertices of pairwise distinct
    colours followed by blocks of k, each block rainbow on its own. The
    x-prefix is kept; each block is then drained greedily, always appending
    the earliest pooled vertex whose colour avoids the previous k - 1
    output colours. A pool holding j colours faces at most j - 1 clashes
    from outside its own block, so the greedy step never gets stuck.
    """
    if k < 1:
        raise InputError(f"k must be positive, got {k}")
    x = len(s_col) % k
    out = list(s_col[:x])
    outc = [colors[v] for v in out]  # the colours of out, slot by slot
    pos = x
    while pos < len(s_col):
        pool = list(s_col[pos : pos + k])
        pos += k
        for _ in range(k):
            forbidden = set(outc[-(k - 1) :] if k > 1 else ())
            for idx, v in enumerate(pool):
                if colors[v] not in forbidden:
                    break
            else:
                raise InvariantError(
                    "no pooled vertex fits the next slot",
                    context={"pool": list(pool), "forbidden": sorted(forbidden)},
                )
            out.append(pool.pop(idx))
            outc.append(colors[v])
    # One pass: the first colour seen again fewer than k places back ends
    # the first non-rainbow window. Output shorter than k has no window.
    last: dict[int, int] = {}
    for i, c in enumerate(outc if len(outc) >= k else ()):
        if i - last.get(c, -k) < k:
            start = max(0, i - k + 1)
            raise InvariantError(
                "repeated colour inside a window after reorder",
                context={"start": start, "window": out[start : start + k]},
            )
        last[c] = i
    return out


def modify_colour_lists(
    state: AlgorithmState, s_col: list[int], rest: list[int], r: int, gamma_k: int
) -> None:
    """Strip each r-group's colours from the matching gamma_k rest group.

    s_col holds beta groups of r coloured vertices, rest holds beta groups
    of gamma_k uncoloured ones; group i of rest loses group i's colours.
    The shapes are equitable_coloring's layout and are not re-checked.
    """
    if r == 0:
        return
    for i in range(len(rest) // gamma_k):
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

    With seed=None (default) each vertex takes the smallest colour left in
    its list; an int seed makes each choice uniform over the list, drawn
    from Random(seed). With debug=True the theoretical list-size floors,
    per-class degeneracy, and the final group decomposition are asserted
    at every step. A RunTrace passed as trace is filled with intermediate
    artifacts.

    The partition is verified unless a passing verify_kd_partition has
    stamped it with this very g and its current k, d and layers.
    Raises InputError when the partition does not verify, the lists do
    not cover the graph, or t < k; raises InvariantError if an internal
    invariant fails (which signals invalid input rather than bad luck).
    """
    if g.n < 1:
        raise InputError("graph must have at least one vertex")
    stamp = p._verified
    if stamp is None or stamp[0] is not g or stamp[1:] != (p.k, p.d, p.layers):
        verdict = verify_kd_partition(g, p)
        if not verdict.valid:
            assert verdict.violation is not None
            raise InputError(f"partition does not verify: {verdict.violation.message}")
    t = lists.t
    c = compute_counters(g.n, t, p.k)
    order = list(chain.from_iterable(map(reversed, p.layers)))  # each layer reversed
    rng = None if seed is None else Random(seed)
    state = AlgorithmState(g, lists, p.k, p.d, rng=rng, debug=debug)
    if trace is not None:
        trace.counters = c
        trace.order = list(order)

    k = p.k
    x_end = c.r2 + c.x
    s_end = x_end + c.rho * k
    colour_list(state, order[: c.r2], c.r2, min_size=lambda i: t - (i - 1))
    colour_list(state, order[c.r2 : x_end], c.x, min_size=lambda i: t - k + 1)
    colour_list(state, order[x_end:s_end], k, min_size=lambda i: t - k + 1)
    s_col = order[c.r2 : s_end]
    if trace is not None:
        trace.s_col_initial = list(s_col)

    s_col = reorder(s_col, state.colors, k)  # its prefix is the x block
    rest = order[s_end:]
    gk = c.gamma * k
    modify_colour_lists(state, s_col, rest, c.r, gk)
    if trace is not None:
        trace.s_col_reordered = list(s_col)
        trace.rest_order = list(rest)
        trace.lists_after_modify = {v: tuple(sorted(state.lists[v])) for v in rest}

    colour_list(state, rest, gk, min_size=lambda i: t - c.r - k - ((i - 1) // k) * k + 1)
    if debug:
        _check_decomposition(state, c, order[: c.r2], s_col, rest)
    return Coloring(state.colors)


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
    # same[v] = countOf(map(col.__getitem__, adj[v]), col[v]), all in C.
    same = list(map(countOf, map(map, repeat(col.__getitem__), adj), col))
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

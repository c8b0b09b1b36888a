"""Equitable list colouring with bounded-degeneracy colour classes.

Given a graph, a verified (k, d) layer partition, and t-uniform colour
lists with t >= k, the pipeline produces a colouring from the lists in
which every colour class induces a (d-1)-degenerate subgraph and no class
exceeds ceil(n/t) vertices.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import chain, compress, filterfalse, repeat
from operator import contains, countOf
from random import Random

from .errors import InputError, InvariantError
from .graph import Graph
from .partition import KdPartition, _blocks, verify_kd_partition


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
    if type(n) is not int or n < 1:
        raise InputError("graph must have at least one vertex")
    if type(k) is not int or k < 1:
        raise InputError(f"k must be positive, got {k!r}")
    if type(t) is not int or t < k:
        raise InputError(f"uniform list size t={t!r} must be at least k={k}")
    r1 = n % k or k  # the first block holds the remainder, 1..k, as in _blocks
    eta = (n - r1) // k
    r2 = n % t or t
    beta = (n - r2) // t
    gamma, r = divmod(t, k)
    rho, x = divmod(beta * r, k)
    return Counters(n=n, t=t, k=k, eta=eta, r1=r1, beta=beta, r2=r2, gamma=gamma, r=r, rho=rho, x=x)


def _sample_setsize(k: int) -> int:
    """CPython's ``Random.sample`` size rule for a sample of k: it draws from
    a copied pool when the population has at most this many members, and
    into a set of chosen indices otherwise."""
    return 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)


class ListAssignment:
    """t-uniform colour lists, kept sorted ascending per vertex."""

    __slots__ = ("t", "_lists")

    def __init__(self, t: int, lists: Mapping[int, Iterable[int]]) -> None:
        if type(t) is not int or t < 1:
            raise InputError(f"t must be positive, got {t!r}")
        if not set(map(type, lists)) <= {int}:
            key = next(v for v in lists if type(v) is not int)
            raise InputError(f"list key {key!r} is not a vertex id")
        clean: dict[int, tuple[int, ...]] = {}
        for v in sorted(lists):
            colours = lists[v]
            if not isinstance(colours, (list, tuple)):
                raise InputError(f"list of vertex {v} is not a list or tuple")
            if len(set(colours)) != len(colours):
                raise InputError(f"list of vertex {v} repeats a colour")
            if len(colours) != t:
                raise InputError(f"list of vertex {v} has {len(colours)} colours, expected {t}")
            for c in colours:
                if type(c) is not int or c < 1:
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
        if type(n) is not int or n < 0:
            raise InputError(f"vertex count must be non-negative, got {n!r}")
        if type(t) is not int or t < 1:
            raise InputError(f"t must be positive, got {t!r}")
        if type(palette) is not int or palette < t:
            raise InputError(f"palette size {palette!r} is below t={t}")
        lists: dict[int, tuple[int, ...]] = {}
        if (
            palette <= _sample_setsize(t)
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

    Holds the partial colouring and, per vertex, one dict from each colour
    still allowed to its room: how many more coloured neighbours may wear
    that colour. Room starts at d and a colour leaves the dict when its
    room reaches 0, which is the (d-1)-degeneracy rule of the paper; the
    block exclusion and modify_colour_lists remove colours outright.
    Lists only shrink, so a colour that has left never returns, and a
    coloured vertex's dict is never read again. A dict is built from a
    sorted list and only loses keys, so its first key is its smallest
    colour. later[v] holds the neighbours v's colour prunes:
    equitable_coloring passes its partition's plan, those coloured after v.
    k and d come from a partition that verify_kd_partition passed, so
    both are positive.
    """

    def __init__(
        self,
        graph: Graph,
        lists: ListAssignment,
        k: int,
        d: int,
        *,
        rng: Random | None = None,
        later: Sequence[tuple[int, ...]],
    ) -> None:
        n = graph.n
        given = lists._lists
        try:  # map runs in vertex order: a KeyError names the smallest missing vertex
            working = list(map(dict.fromkeys, map(given.__getitem__, range(n)), repeat(d)))
        except KeyError as missing:
            raise InputError(f"list assignment misses vertex {missing.args[0]}") from None
        self.graph = graph
        self.k = k
        self.d = d
        self.t = lists.t
        self.lists: list[dict[int, int]] = working
        self.colors: dict[int, int] = {}
        self.rng = rng
        self.later = later


def _later_neighbours(g: Graph, layers: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Each vertex's neighbours after it in the processing order (the layers
    in order, each reversed), in id order: those a walk of the layers from
    last to first, each from first to last, has seen before reaching it."""
    adj = g._adj
    later: list[tuple[int, ...]] = [()] * g.n
    seen: set[int] = set()
    for layer in reversed(layers):
        for v in layer:
            later[v] = tuple(filter(seen.__contains__, adj[v]))
            seen.add(v)
    return later


def colour_list(state: AlgorithmState, vertices: list[int], floors: list[int]) -> None:
    """Colour _blocks(vertices, len(floors)): the first holds the remainder.

    It trusts equitable_coloring's layout (uncoloured vertices, floors not
    empty) and re-checks neither. Inside a block each vertex's list
    permanently loses the colours the block has already used, which forces
    pairwise distinct colours. A list shorter than floors[i], the paper's
    bound at position i + 1 of a block, raises InvariantError; every floor
    is at least 1.

    Each vertex v takes the smallest colour c left in its list, the
    dict's first key (or a seeded-uniform one when the state carries an
    rng), and each neighbour w in state.later[v] (uncoloured, so not
    tested) still holding c loses one unit of c's room, and c itself
    once that room is used up, so v joins its class with at most d - 1
    earlier same-coloured neighbours. Hits on colours that have left a
    list are not counted: they could never prune.
    """
    lists, colors, later, rng = state.lists, state.colors, state.later, state.rng
    for block in _blocks(vertices, len(floors)):
        used: list[int] = []
        for v in block:
            lv = lists[v]
            for u in used:
                if u in lv:
                    del lv[u]
            floor = floors[len(used)]  # used holds one colour per earlier vertex of the block
            if len(lv) < floor:
                raise InvariantError(
                    f"list of vertex {v} shrank to {len(lv)}, floor is {floor}",
                    context={"vertex": v, "assigned": len(colors), "n": state.graph.n,
                             "t": state.t, "k": state.k, "d": state.d,
                             "position": len(used) + 1, "size": len(lv), "floor": floor},
                )
            c = next(iter(lv)) if rng is None else rng.choice(list(lv))
            colors[v] = c
            used.append(c)
            for w in later[v]:
                lw = lists[w]
                if c in lw:
                    room = lw[c]
                    if room == 1:
                        del lw[c]
                    else:
                        lw[c] = room - 1


def reorder(s_col: list[int], colors: Mapping[int, int], k: int) -> list[int]:
    """Permute an already coloured list so every k-window is rainbow.

    The input is the blocks of _blocks(s_col, k), each rainbow on its own:
    k vertices each but the first, which holds the remainder. Each block in
    turn is drained greedily, always appending the earliest pooled vertex
    whose colour avoids the previous k - 1 output colours. A pool holding
    j colours faces at most j - 1 clashes from outside its own block, so
    the greedy step never gets stuck, and the first block keeps its order.
    This per-slot test is the one window check: a repeated colour anywhere
    raises InvariantError.
    """
    if k < 1:
        raise InputError(f"k must be positive, got {k}")
    out: list[int] = []
    outc: list[int] = []  # the colours of out, slot by slot
    for block in _blocks(s_col, k):
        pool = list(block)
        for _ in block:
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
    lists, colors = state.lists, state.colors
    for i in range(len(rest) // gamma_k):
        block_colors = {colors[v] for v in s_col[i * r : (i + 1) * r]}
        for v in rest[i * gamma_k : (i + 1) * gamma_k]:
            lv = lists[v]
            for c in block_colors:
                if c in lv:
                    del lv[c]


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
    The first r2 vertices form one rainbow block; the next beta*r, in
    blocks of k with the remainder x first (as the layers are cut), are
    coloured, reordered so every k-window is rainbow, and
    their colours are then stripped from the matching groups of the
    remaining vertices, which are finally coloured in blocks of gamma*k.

    With seed=None (default) each vertex takes the smallest colour left in
    its list; an int seed makes each choice uniform over the list, drawn
    from Random(seed). Every run checks each list against the paper's
    floor for its place in its block: t - (i - 1) at position i of the
    first block, t - k + 1 in the x and rho blocks, and
    t - r - k - floor((i - 1)/k)*k + 1 in the gamma*k blocks. debug=True
    adds only the final check that every implied size-t group is rainbow.
    A RunTrace passed as trace is filled with intermediate artifacts.

    The partition is verified unless a passing verify_kd_partition has
    stamped it with this very g (a KdPartition cannot change); the first
    colouring adds the plan (each vertex's later neighbours) to the
    stamp, and later list draws reuse it.
    Raises InputError when the partition does not verify, the lists do
    not cover the graph, or t < k; raises InvariantError if an internal
    invariant fails (which signals invalid input rather than bad luck).
    """
    stamp = p._verified
    if stamp is None or stamp[0] is not g:
        verdict = verify_kd_partition(g, p)
        if not verdict.valid:
            assert verdict.violation is not None
            raise InputError(f"partition does not verify: {verdict.violation.message}")
        stamp = p._verified
    if stamp[1] is None:
        stamp = (g, _later_neighbours(g, p._layers))
        object.__setattr__(p, "_verified", stamp)
    t = lists.t
    c = compute_counters(g.n, t, p.k)
    order = list(chain.from_iterable(map(reversed, p._layers)))  # each layer reversed
    rng = None if seed is None else Random(seed)
    state = AlgorithmState(g, lists, p.k, p.d, rng=rng, later=stamp[1])
    if trace is not None:
        trace.counters = c
        trace.order = list(order)

    k = p.k
    s_end = c.r2 + c.beta * c.r
    colour_list(state, order[: c.r2], list(range(t, t - c.r2, -1)))
    s_col = order[c.r2 : s_end]
    colour_list(state, s_col, [t - k + 1] * k)
    if trace is not None:
        trace.s_col_initial = list(s_col)

    s_col = reorder(s_col, state.colors, k)
    rest = order[s_end:]
    gk = c.gamma * k
    modify_colour_lists(state, s_col, rest, c.r, gk)
    if trace is not None:
        trace.s_col_reordered = list(s_col)
        trace.rest_order = list(rest)
        trace.lists_after_modify = {v: tuple(sorted(state.lists[v])) for v in rest}

    colour_list(state, rest, [t - c.r - k + 1 - (i // k) * k for i in range(gk)])
    if debug:
        _check_decomposition(state, c, order[: c.r2], s_col, rest)
    return Coloring(state.colors)


def verify_equitable_list_coloring(
    g: Graph, lists: ListAssignment, t: int, coloring: Coloring, d: int
) -> ColoringVerdict:
    """Check list membership, class sizes, and class degeneracy.

    Clause order: every vertex coloured (domain), colours drawn from the
    original lists, class sizes at most ceil(n/t), every class induces a
    (d-1)-degenerate subgraph. The domain and list clauses are C-level
    passes that name the first offending vertex. The last clause is one
    O(n+m) peel of the monochromatic edges, which form the disjoint union
    of the class subgraphs: vertices with at most d-1 unpeeled
    same-coloured neighbours are peeled, and the smallest colour left
    unpeeled is the first failing class. The peel visits only vertices
    with a same-coloured neighbour; the others move no count.
    """
    if type(t) is not int or t < 1 or type(d) is not int or d < 1:
        raise InputError("t and d must be positive")
    colors = coloring.colors
    n = g.n
    missing = next(filterfalse(colors.__contains__, range(n)), None)
    if missing is not None:
        return ColoringVerdict(
            False, ColoringViolation("domain", f"vertex {missing} is uncoloured", vertex=missing)
        )
    if len(colors) != n or not set(map(type, colors)) <= {int}:
        foreign = next(v for v in colors if type(v) is not int or v not in range(n))
        return ColoringVerdict(
            False,
            ColoringViolation("domain", f"vertex {foreign!r} is not in the graph", vertex=foreign),
        )
    col = list(map(colors.__getitem__, range(n)))
    given = lists._lists
    exact = set(map(type, col)) <= {int}  # else a True or 1.0 would pass as 1
    if not (exact and all(map(contains, map(given.get, range(n), repeat(())), col))):
        v = next(v for v, c in enumerate(col) if c not in given.get(v, ()) or type(c) is not int)
        c = col[v]
        return ColoringVerdict(
            False,
            ColoringViolation(
                "list", f"vertex {v} wears colour {c} outside its list", vertex=v, color=c
            ),
        )
    cap = -(-n // t)
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
    tied = list(compress(range(n), same))  # the vertices with a same-coloured neighbour
    peeled = [s <= limit for s in same]
    stack = [v for v in tied if peeled[v]]
    for v in stack:  # grows while it is walked
        c = col[v]
        for w in adj[v]:
            if not peeled[w] and col[w] == c:
                same[w] -= 1
                if same[w] == limit:
                    peeled[w] = True
                    stack.append(w)
    if len(stack) < len(tied):
        colour = min(col[v] for v in tied if not peeled[v])
        return ColoringVerdict(
            False,
            ColoringViolation(
                "degeneracy", f"colour class {colour} is not ({d - 1})-degenerate", color=colour
            ),
        )
    return ColoringVerdict(True)

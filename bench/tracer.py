"""Span recording around eqcolor's public functions, installed from outside.

A Tracer replaces each traced function in every ``eqcolor`` module
namespace that binds it (``cli`` imports ``equitable_coloring`` by name,
the package root re-exports almost everything) with a wrapper that records
a span ``[name, start_ns, end_ns, parent]`` in memory.  ``uninstall``
puts the originals back, so an untraced pass runs the package untouched.

Per-vertex functions (``colour_vertex``, ``Graph.neighbors`` and the like)
stay unwrapped: a wrapper there would cost more than the work it times.
"""

from __future__ import annotations

import statistics
import sys
from collections import defaultdict

# (module, attribute, span name) for plainly wrapped functions.
PLAIN = [
    ("eqcolor.coloring", "verify_equitable_list_coloring", "coloring.verify_equitable_list_coloring"),
    ("eqcolor.coloring", "modify_colour_lists", "coloring.modify_colour_lists"),
    ("eqcolor.partition", "verify_kd_partition", "partition.verify_kd_partition"),
    ("eqcolor.partition", "search_kd_partition", "partition.search_kd_partition"),
    ("eqcolor.partition", "greedy_kd_partition", "partition.greedy_kd_partition"),
    ("eqcolor.graph", "induced_subgraph", "graph.induced_subgraph"),
    ("eqcolor.graph", "is_d_degenerate", "graph.is_d_degenerate"),
    ("eqcolor.graph", "degeneracy", "graph.degeneracy"),
    ("eqcolor.grids", "partition3d", "grids.partition3d"),
    ("eqcolor.grids", "make_grid", "grids.make_grid"),
    ("eqcolor.generators", "gen_planted_partition", "generators.gen_planted_partition"),
    ("eqcolor.generators", "gen_gq", "generators.gen_gq"),
]
PARSERS = ["parse_graph_document", "parse_partition", "parse_lists", "parse_coloring"]

# The colour_list calls of one equitable_coloring run, told apart by
# their order around reorder: the first call colours the r2 rainbow block,
# later calls before reorder the x and rho blocks, calls after it the
# gamma*k blocks.
FIRST, X_RHO, GAMMA_K = "coloring.phase.first_block", "coloring.phase.x_rho_blocks", "coloring.phase.gamma_k_blocks"

# Spans whose summed self time per workload run is a per-layer metric.
SELF_TIMED = [
    "coloring.uniform_random",
    "coloring.equitable_coloring",
    "coloring.equitable_coloring_debug",
    "coloring.verify_equitable_list_coloring",
    FIRST,
    X_RHO,
    "coloring.reorder",
    "coloring.modify_colour_lists",
    GAMMA_K,
    "partition.verify_kd_partition",
    "partition.search_kd_partition",
    "partition.greedy_kd_partition",
    "partition.enumerate_last_layers",
    "graph.Graph",
    "graph.induced_subgraph",
    "graph.is_d_degenerate",
    "graph.degeneracy",
    "grids.partition3d",
    "grids.make_grid",
] + [f"fileio.{p}" for p in PARSERS] + ["fileio.dump"]
SETUP_TIMED = ["generators.gen_planted_partition", "generators.gen_gq"]
# Search instances of the partition-search workload; each has its own
# expansion counter, an exact count that repeats from run to run.
SEARCH_INSTANCES = ["gq1_k5", "gq1_k6", "gq1_k7", "gq2_k6", "gq2_k7"]
CLI_COMMANDS = ["gen", "partition_grid3d", "color", "verify_coloring", "partition_verify", "degeneracy"]


class Tracer:
    """Wrappers plus the spans they record, one span list per traced pass."""

    def __init__(self, now_ns) -> None:
        self._now = now_ns  # span timestamps, in integer nanoseconds
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._phase: list[list] = []  # per open equitable_coloring: [colour_list calls, reordered]
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self._now(), 0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = self._now()
        self._stack.pop()

    def take(self) -> tuple[list[list], dict[str, int]]:
        """Hand over the spans and counters recorded so far and start afresh."""
        out = (self.spans, dict(self.counters))
        self.spans, self.counters = [], defaultdict(int)
        return out

    # -- wrappers ------------------------------------------------------
    def _timed(self, fn, name):
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    def _coloring(self, fn):
        def wrapper(*args, **kwargs):
            debug = kwargs.get("debug", False)
            idx = self.open("coloring.equitable_coloring_debug" if debug else "coloring.equitable_coloring")
            self._phase.append([0, False])
            try:
                return fn(*args, **kwargs)
            finally:
                self._phase.pop()
                self.close(idx)

        return wrapper

    def _colour_list(self, fn):
        def wrapper(*args, **kwargs):
            if not self._phase:
                name = "coloring.colour_list"
            else:
                state = self._phase[-1]
                name = GAMMA_K if state[1] else (FIRST if state[0] == 0 else X_RHO)
                state[0] += 1
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    def _reorder(self, fn):
        def wrapper(*args, **kwargs):
            if self._phase:
                self._phase[-1][1] = True
            idx = self.open("coloring.reorder")
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    def _parser(self, fn, name):
        def wrapper(text, *args, **kwargs):
            self.counters["fileio.bytes_read"] += len(text.encode())
            idx = self.open(name)
            try:
                return fn(text, *args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    def _dump(self, fn):
        def wrapper(*args, **kwargs):
            idx = self.open("fileio.dump")
            try:
                text = fn(*args, **kwargs)
            finally:
                self.close(idx)
            self.counters["fileio.bytes_written"] += len(text.encode())
            return text

        return wrapper

    def _cli_main(self, fn):
        def wrapper(argv):
            command = "_".join(argv[:2]) if argv[0] == "partition" else argv[0]
            idx = self.open("cli." + command.replace("-", "_"))
            try:
                return fn(argv)
            finally:
                self.close(idx)

        return wrapper

    def _generator(self, fn, name):
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                yield from fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    # -- installation --------------------------------------------------
    def _replace(self, original, replacement) -> None:
        """Rebind every eqcolor module attribute that is ``original``."""
        for modname, module in list(sys.modules.items()):
            if modname != "eqcolor" and not modname.startswith("eqcolor."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def _set_class_attr(self, cls, attr: str, value) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, value)

    def install(self) -> None:
        mods = sys.modules
        for modname, attr, name in PLAIN:
            fn = getattr(mods[modname], attr)
            self._replace(fn, self._timed(fn, name))
        coloring = mods["eqcolor.coloring"]
        self._replace(coloring.equitable_coloring, self._coloring(coloring.equitable_coloring))
        self._replace(coloring.colour_list, self._colour_list(coloring.colour_list))
        self._replace(coloring.reorder, self._reorder(coloring.reorder))
        partition = mods["eqcolor.partition"]
        self._replace(
            partition.enumerate_last_layers,
            self._generator(partition.enumerate_last_layers, "partition.enumerate_last_layers"),
        )
        if "eqcolor.fileio" in mods:  # loaded with the command line only
            fileio = mods["eqcolor.fileio"]
            for attr in PARSERS:
                fn = getattr(fileio, attr)
                self._replace(fn, self._parser(fn, "fileio." + attr))
            self._replace(fileio.dump, self._dump(fileio.dump))
        if "eqcolor.cli" in mods:
            self._replace(mods["eqcolor.cli"].main, self._cli_main(mods["eqcolor.cli"].main))
        graph_cls = mods["eqcolor.graph"].Graph
        self._set_class_attr(graph_cls, "__init__", self._timed(graph_cls.__init__, "graph.Graph"))
        lists_cls = coloring.ListAssignment
        draw = lists_cls.__dict__["uniform_random"].__func__
        self._set_class_attr(
            lists_cls, "uniform_random", classmethod(self._timed(draw, "coloring.uniform_random"))
        )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> tuple[dict[str, int], dict[str, int], dict[str, int]]:
    """Summed self time, inclusive time (ns) and call count per span name.

    A span's self time is its duration minus the durations of its direct
    children, which are the only spans it overlaps besides its ancestors.
    """
    child = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    own: dict[str, int] = defaultdict(int)
    total: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    for i, (name, start, end, _) in enumerate(spans):
        own[name] += end - start - child[i]
        total[name] += end - start
        calls[name] += 1
    return own, total, calls


def durations_per_root(spans: list[list], name: str) -> list[int]:
    """Inclusive time of ``name`` spans summed under each root span, in order."""
    root_of: list[int] = []
    for i, (_, _, _, parent) in enumerate(spans):
        root_of.append(i if parent < 0 else root_of[parent])
    per_root: dict[int, int] = {}
    for i, (span, start, end, _) in enumerate(spans):
        if span == name:
            per_root[root_of[i]] = per_root.get(root_of[i], 0) + end - start
    return [per_root[r] for r in sorted(per_root)]


def layer_metrics(
    passes: list[tuple[list[list], dict[str, int]]],
    setup: list[tuple[list[list], dict[str, int]]],
    counts: dict[str, int],
    doubling_pair: bool,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, averaged over the traced workload runs.

    A layer the workload never calls reads 0.  ``doubling_pair`` marks a
    workload whose runs hold exactly two root items, the second on an input
    four times the size of the first; only there are the ``ratio_4x``
    metrics defined.
    """
    n = len(passes)
    own: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, float] = defaultdict(float)
    counters: dict[str, float] = defaultdict(float)
    for spans, pass_counters in passes:
        o, t, c = self_times(spans)
        for name in o:
            own[name] += o[name] / n / 1e9
            total[name] += t[name] / n / 1e9
            calls[name] += c[name] / n
        for name, value in pass_counters.items():
            counters[name] += value / n
    out: dict[str, tuple[float, str]] = {}
    for name in SELF_TIMED:
        out[name + ".self_s"] = (own[name], "s")
    out["partition.verify_kd_partition.calls"] = (calls["partition.verify_kd_partition"], "count")
    out["fileio.bytes_read"] = (counters["fileio.bytes_read"], "B")
    out["fileio.bytes_written"] = (counters["fileio.bytes_written"], "B")
    for command in CLI_COMMANDS:
        out[f"cli.{command}.s"] = (total["cli." + command], "s")
    out["cli.self_s"] = (sum(own["cli." + c] for c in CLI_COMMANDS), "s")
    for inst in SEARCH_INSTANCES:
        out[f"partition.search.expanded.{inst}"] = (counts.get(inst, 0), "count")
    expanded = sum(counters[inst] for inst in SEARCH_INSTANCES)  # per run, repeats included
    search_s = own["partition.search_kd_partition"]
    out["partition.search.expanded_per_s"] = (expanded / search_s if search_s else 0.0, "1/s")
    for metric, span in (
        ("grids.partition3d.ratio_4x", "grids.partition3d"),
        ("coloring.equitable_coloring.ratio_4x", "coloring.equitable_coloring"),
    ):
        ratios = []
        if doubling_pair:
            for spans, _ in passes:
                small, big = durations_per_root(spans, span)
                ratios.append(big / small)
        out[metric] = (statistics.median(ratios) if ratios else 0.0, "ratio")
    setup_own: dict[str, float] = defaultdict(float)
    for spans, _ in setup:
        o, _, _ = self_times(spans)
        for name in SETUP_TIMED:
            setup_own[name] += o.get(name, 0) / len(setup) / 1e9
    for name in SETUP_TIMED:
        out[name + ".self_s"] = (setup_own[name], "s")
    return out

"""The four benchmark workloads.

Each workload builds its inputs from a seed (``make_inputs``), then runs one
workload run (``run_pass``): a fixed list of items, each checked as it
completes.  An item is one colouring plus its verification, one CLI
pipeline, or one verdict (search, greedy, last-layer enumeration,
degeneracy).  With ``ref=True`` the inputs are the small fixed-seed
reference set whose outputs are hashed into the committed digest.

Workloads call the package only through the module objects handed to them,
so the tracer's wrappers, when installed, see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path
from random import Random

GRID_TS = (3, 4, 5)
PLANTED = ((3, 2, 4), (4, 3, 5), (6, 1, 7))  # (k, d, t)


def _update(digest, *values) -> None:
    digest.update(repr(values).encode())


def peel_degeneracy(g) -> int:
    """Degeneracy by bucket peeling; the benchmark's own check of ``degeneracy``."""
    n = g.n
    adj = [g.neighbors(v) for v in range(n)]
    deg = [len(a) for a in adj]
    buckets = [set() for _ in range(max(deg, default=0) + 1)]
    for v in range(n):
        buckets[deg[v]].add(v)
    removed = [False] * n
    best = low = 0
    for _ in range(n):
        while not buckets[low]:
            low += 1
        v = buckets[low].pop()
        best = max(best, low)
        removed[v] = True
        for w in adj[v]:
            if not removed[w]:
                buckets[deg[w]].discard(w)
                deg[w] -= 1
                buckets[deg[w]].add(w)
                low = min(low, deg[w])
    return best


class Workload:
    name = ""
    modules: tuple[str, ...] = ()  # submodules the package root does not import
    doubling_pair = False  # two root items per run, the second on 4x the input
    min_runs = 2  # workload runs per invocation, however long they take

    def check(self, eqc, inputs, rec) -> None:
        """Checks made once after the timed runs, outside the timed region."""


class GridSweep(Workload):
    """Every criterion-5 triple: 3-D grids of 8 to 300 vertices."""

    name = "grid-sweep"
    draws = 1  # list draws per grid and t

    @staticmethod
    def triples() -> list[tuple[int, int, int]]:
        out = []
        for c in range(2, 7):
            for b in range(c, 13):
                for a in range(b, 151):
                    if a * b * c > 300:
                        break
                    if a * b * c >= 8:
                        out.append((a, b, c))
        return out

    def make_inputs(self, eqc, seed: int, ref: bool):
        return {"triples": self.triples(), "rng": Random(seed)}

    def run_pass(self, eqc, inputs, rec, digest) -> None:
        rng = inputs["rng"]
        for dims in inputs["triples"]:
            p = eqc.partition3d(dims)
            g, _ = eqc.make_grid(dims)
            grid_ok = eqc.verify_kd_partition(g, p).valid
            if digest is not None:
                _update(digest, dims, p.layers)
            for t in GRID_TS:
                for _ in range(self.draws):
                    rec.item("coloring", self._colour, eqc, g, p, t, rng, grid_ok, digest)

    @staticmethod
    def _colour(eqc, g, p, t, rng, grid_ok, digest) -> bool:
        lists = eqc.ListAssignment.uniform_random(g.n, t, 2 * t, rng)
        coloring = eqc.equitable_coloring(g, p, lists)
        if digest is not None:
            _update(digest, lists.items(), sorted(coloring.colors.items()))
        return grid_ok and eqc.verify_equitable_list_coloring(g, lists, t, coloring, 2).valid


class WideGridCli(Workload):
    """The CLI pipeline on a 16k-vertex grid, then on one four times larger."""

    name = "wide-grid-cli"
    modules = ("eqcolor.cli",)
    doubling_pair = True

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir

    def make_inputs(self, eqc, seed: int, ref: bool):
        self.workdir.mkdir(parents=True, exist_ok=True)
        dims = ["10,10,10", "10,20,20"] if ref else ["10,40,40", "10,80,80"]
        return {"dims": dims, "rng": Random(seed)}

    def run_pass(self, eqc, inputs, rec, digest) -> None:
        for dims in inputs["dims"]:
            seed = inputs["rng"].randrange(2**31)
            rec.item("cli_pipeline", self._pipeline, eqc, dims, seed, digest)

    def _pipeline(self, eqc, dims: str, seed: int, digest) -> bool:
        f = {k: str(self.workdir / f"{k}.json") for k in ("graph", "part", "lists", "col", "out")}
        steps = [
            ["gen", "grid", "--dims", dims, "--out", f["graph"]],
            ["partition", "grid3d", "--dims", dims, "--out", f["part"]],
            ["color", "--graph", f["graph"], "--partition", f["part"], "--uniform-lists", "4",
             "--seed", str(seed), "--lists-out", f["lists"], "--out", f["col"]],
            ["verify-coloring", "--graph", f["graph"], "--lists", f["lists"],
             "--coloring", f["col"], "-d", "2", "--out", f["out"]],
            ["partition", "verify", "--graph", f["graph"], "--partition", f["part"], "--out", f["out"]],
            ["degeneracy", "--graph", f["graph"], "--out", f["out"]],
        ]
        expected = {3: {"valid": True}, 4: {"valid": True}, 5: 3}  # a 3-D grid is 3-degenerate
        ok = True
        for i, argv in enumerate(steps):
            with contextlib.redirect_stdout(io.StringIO()) as stray:
                code = eqc.cli.main(argv)
            if code != 0:
                raise RuntimeError(f"{' '.join(argv[:2])} exited {code}: {stray.getvalue().strip()}")
            if i in expected:
                ok = ok and json.loads(Path(f["out"]).read_text()) == expected[i]
            if digest is not None:
                written = {0: "graph", 1: "part", 2: "col"}.get(i, "out")
                digest.update(Path(f[written]).read_bytes())
                if i == 2:
                    digest.update(Path(f["lists"]).read_bytes())
        return ok


class PlantedMix(Workload):
    """Planted-partition graphs with non-trivial gamma/rho/x blocks."""

    name = "planted-mix"
    draws = 4  # list draws per instance and workload run

    def make_inputs(self, eqc, seed: int, ref: bool):
        rng = Random(seed)
        # The debug re-check is quadratic: at n = 2,000 it takes about four
        # times as long as at 1,000, so that colouring is the slowest item
        # of a run by far and sets item_p99_ms on its own.
        n, debug_sizes = (1_000, (200, 200)) if ref else (10_000, (1_000, 2_000))
        big = [(eqc.gen_planted_partition(n, k, d, seed=rng.randrange(2**31)), t) for k, d, t in PLANTED]
        debug = [
            (eqc.gen_planted_partition(size, k, d, seed=rng.randrange(2**31)), t)
            for size, (k, d, t) in zip(debug_sizes, PLANTED)
        ]
        return {"big": big, "debug": debug, "rng": rng, "degeneracy": {}}

    def run_pass(self, eqc, inputs, rec, digest) -> None:
        rng = inputs["rng"]
        for i, (bundle, t) in enumerate(inputs["big"]):
            if digest is not None:
                _update(digest, bundle.graph.edges(), bundle.partition.layers)
            for _ in range(self.draws):
                rec.item("coloring", self._colour, eqc, bundle, t, rng, False, digest)
            rec.item("degeneracy", self._degeneracy, eqc, bundle, inputs["degeneracy"].setdefault(i, set()), digest)
        for bundle, t in inputs["debug"]:
            rec.item("coloring_debug", self._colour, eqc, bundle, t, rng, True, digest)

    @staticmethod
    def _colour(eqc, bundle, t, rng, debug, digest) -> bool:
        g, p = bundle.graph, bundle.partition
        lists = eqc.ListAssignment.uniform_random(g.n, t, 2 * t, rng)
        coloring = eqc.equitable_coloring(g, p, lists, debug=debug)
        if digest is not None:
            _update(digest, lists.items(), sorted(coloring.colors.items()))
        return eqc.verify_equitable_list_coloring(g, lists, t, coloring, p.d).valid

    @staticmethod
    def _degeneracy(eqc, bundle, seen: set, digest) -> bool:
        value = eqc.degeneracy(bundle.graph)
        seen.add(value)
        if digest is not None:
            _update(digest, value)
        return True

    def check(self, eqc, inputs, rec) -> None:
        """Compare every reported degeneracy with the benchmark's own peeling."""
        for i, (bundle, _) in enumerate(inputs["big"]):
            want = peel_degeneracy(bundle.graph)
            rec.verdict(inputs["degeneracy"].get(i) == {want}, f"degeneracy of planted instance {i}")


class PartitionSearch(Workload):
    """Exact partition search on the clique chains, plus greedy and enumeration."""

    name = "partition-search"
    # One workload run takes over 20 s, nearly all of it in the gq(2) searches.
    min_runs = 1
    # The gq(1) searches and the last-layer enumeration take 0-0.3 s each.
    # Seven rounds of them, three before, two between and two after the long
    # gq(2) searches, sample them across the whole run.  Each round runs
    # gq(1)/k=6 twice: ranked by time, 14 items (k=5 and the enumeration)
    # lie below its 14 and 10 above, so the median item is a k=6 search
    # and not an edge between two kinds of item.
    rounds = (3, 2, 2)
    small = ("gq1_k5", "gq1_k6", "gq1_k6", "gq1_k7")
    # (instance, chain q, k, known verdict); d = 1 throughout.
    searches = [
        ("gq1_k5", 1, 5, "proved-absent"),
        ("gq1_k6", 1, 6, "found"),
        ("gq1_k7", 1, 7, "found"),
        ("gq2_k6", 2, 6, "found"),
        ("gq2_k7", 2, 7, "proved-absent"),
    ]

    def make_inputs(self, eqc, seed: int, ref: bool):
        # The planted layers have d = 1, so they also satisfy the greedy
        # call's d = 3 and the heuristic peels the whole graph.
        planted = eqc.gen_planted_partition(300 if ref else 2_000, 3, 1, seed=Random(seed).randrange(2**31))
        chains = {1: eqc.gen_gq(1), 2: eqc.gen_gq(2)}
        # The q=2 searches take seconds and do not depend on the seed.
        searches = [s for s in self.searches if not (ref and s[1] == 2)]
        return {"chains": chains, "planted": planted, "searches": searches}

    def run_pass(self, eqc, inputs, rec, digest) -> None:
        by_name = {s[0]: s for s in inputs["searches"]}
        small = [by_name[inst] for inst in self.small]
        big = [s for s in inputs["searches"] if s[1] == 2]
        for i, rounds in enumerate(self.rounds):
            for _ in range(rounds):
                for inst, q, k, verdict in small:
                    rec.item("search", self._search, eqc, inputs["chains"][q].graph, k, verdict, inst, rec, digest)
                rec.item("enumerate", self._enumerate, eqc, inputs["chains"][2], digest)
            for inst, q, k, verdict in big[i : i + 1]:
                rec.item("search", self._search, eqc, inputs["chains"][q].graph, k, verdict, inst, rec, digest)
        rec.item("greedy", self._greedy, eqc, inputs["planted"].graph, digest)

    @staticmethod
    def _search(eqc, g, k, verdict, inst, rec, digest) -> bool:
        result = eqc.search_kd_partition(g, k, 1)
        rec.count(inst, result.expanded)
        # Found partitions are checked, not hashed: a faster search may
        # legitimately find a different one.
        if digest is not None:
            _update(digest, inst, result.status.value)
        if result.status.value != verdict:
            return False
        return result.partition is None or eqc.verify_kd_partition(g, result.partition).valid

    @staticmethod
    def _greedy(eqc, g, digest) -> bool:
        p = eqc.greedy_kd_partition(g, 3, 3)
        if digest is not None:
            _update(digest, None if p is None else p.layers)
        return p is None or eqc.verify_kd_partition(g, p).valid

    @staticmethod
    def _enumerate(eqc, chain, digest) -> bool:
        layers = {frozenset(layer) for layer in eqc.enumerate_last_layers(chain.graph, 7, 1)}
        if digest is not None:
            _update(digest, sorted(sorted(layer) for layer in layers))
        last = frozenset(chain.id_of(f"v_{j}^5") for j in range(1, 7))
        return layers == {last | {chain.id_of("v_1^4")}, last | {chain.id_of("v_2^4")}}

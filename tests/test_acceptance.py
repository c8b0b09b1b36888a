"""End-to-end acceptance checks, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one
"ACCEPTANCE <n> (<name>): PASS/FAIL" line per criterion together with
wall time against its budget. The heavyweight sweeps (criteria 4, 5)
dominate the runtime; the whole file finishes in a few minutes.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

from eqcolor import (
    Coloring,
    Graph,
    ListAssignment,
    RunTrace,
    SearchStatus,
    compute_counters,
    enumerate_last_layers,
    equitable_coloring,
    gen_example2,
    gen_gq,
    gen_planted_partition,
    make_grid,
    partition3d,
    search_kd_partition,
    verify_equitable_list_coloring,
    verify_kd_partition,
)
from oracles import brute_force_equitable_coloring, colour_classes, verify_coloring_by_subsets


class criterion:
    """Times a block, prints one PASS/FAIL line, enforces the budget."""

    def __init__(self, number: int, name: str, budget_s: float) -> None:
        self.number = number
        self.name = name
        self.budget = budget_s

    def __enter__(self) -> "criterion":
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = time.perf_counter() - self.start
        ok = exc_type is None and elapsed <= self.budget
        print(
            f"\nACCEPTANCE {self.number} ({self.name}): {'PASS' if ok else 'FAIL'} "
            f"[{elapsed:.2f}s, budget {self.budget:g}s]"
        )
        if exc_type is None and elapsed > self.budget:
            raise AssertionError(
                f"criterion {self.number} exceeded its budget: "
                f"{elapsed:.2f}s > {self.budget:g}s"
            )
        return False


def _ids(bundle, labels: str) -> list[int]:
    return [bundle.id_of(s) for s in labels.split()]


REFERENCE_COLOURING = {
    "v": {1: [1, 1, 1, 2, 2], 2: [3, 2, 1, 1, 1]},
    "w": {1: [2, 2, 2, 3, 3], 2: [1, 4, 4, 2, 4]},
}


def test_criterion_1_showcase_golden_run():
    with criterion(1, "showcase golden run", 1.0):
        bundle = gen_example2()
        trace = RunTrace()
        coloring = equitable_coloring(
            bundle.graph, bundle.partition, bundle.lists, trace=trace
        )
        first8 = [coloring.colors[v] for v in trace.order[:8]]
        assert first8 == [1, 2, 1, 2, 1, 2, 2, 3]
        assert trace.s_col_reordered == _ids(
            bundle, "v_2^1 w_2^1 v_3^1 w_3^1 w_4^1 v_4^1"
        )
        rest = _ids(
            bundle,
            "v_5^1 w_5^1 v_1^2 w_1^2 v_2^2 w_2^2 v_3^2 w_3^2 v_4^2 w_4^2 v_5^2 w_5^2",
        )
        assert trace.rest_order == rest
        assert [trace.lists_after_modify[v] for v in rest] == [
            (2, 3), (2, 3, 4), (3,), (1, 4), (2, 3), (2, 4),
            (1, 3), (1, 4), (1, 2), (1, 2, 4), (1, 3), (1, 4),
        ]
        assert [coloring.colors[v] for v in rest] == [
            2, 3, 3, 1, 2, 4, 1, 4, 1, 2, 1, 4,
        ]
        for kind, per_copy in REFERENCE_COLOURING.items():
            for copy, colours in per_copy.items():
                for j, c in enumerate(colours, start=1):
                    assert coloring.colors[bundle.id_of(f"{kind}_{j}^{copy}")] == c


def test_criterion_2_reference_colouring_is_valid():
    with criterion(2, "reference colouring validity", 1.0):
        bundle = gen_example2()
        colors = {}
        for kind, per_copy in REFERENCE_COLOURING.items():
            for copy, colours in per_copy.items():
                for j, c in enumerate(colours, start=1):
                    colors[bundle.id_of(f"{kind}_{j}^{copy}")] = c
        verdict = verify_equitable_list_coloring(
            bundle.graph, bundle.lists, 3, Coloring(colors), 3
        )
        assert verdict.valid, verdict.violation
        sizes = [len(m) for m in colour_classes(Coloring(colors)).values()]
        assert max(sizes) <= 7


def test_criterion_3_counters_and_identities():
    with criterion(3, "counter identities", 1.0):
        c = compute_counters(20, 3, 2)
        assert (c.beta, c.r2, c.gamma, c.r, c.rho, c.x) == (6, 2, 1, 1, 3, 0)
        rng = random.Random(20260821)
        for _ in range(10_000):
            n = rng.randint(1, 10**6)
            k = rng.randint(1, 12)
            t = rng.randint(k, k + 12)
            c = compute_counters(n, t, k)
            assert c.n == c.r2 + c.x + c.rho * c.k + c.beta * c.gamma * c.k
            assert c.n == c.beta * c.t + c.r2 and 1 <= c.r2 <= c.t
            assert c.t == c.gamma * c.k + c.r and 0 <= c.r < c.k
            assert c.beta * c.r == c.rho * c.k + c.x and 0 <= c.x < c.k


def test_criterion_4_clique_chain_partition_facts():
    with criterion(4, "clique chain partition facts", 600.0):
        bundle = gen_gq(1)
        assert verify_kd_partition(bundle.graph, bundle.partition).valid

        res = search_kd_partition(bundle.graph, 5, 1)
        assert res.status is SearchStatus.PROVED_ABSENT

        # Wider layers on the q=2 chain: every feasible first peel must
        # swallow the entire last clique plus one graded vertex of the
        # previous copy, and the exhaustive search proves no partition.
        big = gen_gq(2)
        last_clique = {big.id_of(f"v_{j}^5") for j in range(1, 7)}
        peels = [frozenset(s) for s in enumerate_last_layers(big.graph, 7, 1)]
        assert len(peels) == 2
        extras = set()
        for peel in peels:
            assert last_clique < peel
            extras |= peel - last_clique
        assert extras == {big.id_of("v_1^4"), big.id_of("v_2^4")}
        print(
            "  evidence: every feasible 7-wide first peel of the q=2 chain "
            "contains the whole last clique plus one of v_1^4, v_2^4"
        )
        assert search_kd_partition(big.graph, 7, 1).status is SearchStatus.PROVED_ABSENT


def test_criterion_5_grid_sweep():
    with criterion(5, "grid partition and colouring sweep", 300.0):
        triples = []
        for c in range(2, 7):
            for b in range(c, 13):
                if b * b * c > 300:
                    break
                for a in range(b, 151):
                    if a * b * c > 300:
                        break
                    if a * b * c >= 8:
                        triples.append((a, b, c))
        assert len(triples) == 401
        rng = random.Random(5)
        for dims in triples:
            p = partition3d(dims)
            g, _ = make_grid(dims)
            verdict = verify_kd_partition(g, p)
            assert verdict.valid, (dims, verdict.violation)
            for t in (3, 4, 5):
                for _ in range(50):
                    lists = ListAssignment.uniform_random(g.n, t, 2 * t, rng)
                    coloring = equitable_coloring(g, p, lists)
                    cv = verify_equitable_list_coloring(g, lists, t, coloring, 2)
                    assert cv.valid, (dims, t, cv.violation)


def test_criterion_6_planted_fuzz():
    with criterion(6, "planted instance fuzz", 120.0):
        rng = random.Random(606)
        for trial in range(500):
            n = rng.randint(1, 40)
            k = rng.randint(1, min(4, n))
            d = rng.randint(1, 3)
            t = rng.randint(k, k + 3)
            bundle = gen_planted_partition(n, k, d, seed=rng.randrange(2**30))
            lists = ListAssignment.uniform_random(n, t, 2 * t, rng)
            # debug=True turns any internal slack violation into a failure
            coloring = equitable_coloring(
                bundle.graph, bundle.partition, lists, debug=True
            )
            verdict = verify_equitable_list_coloring(
                bundle.graph, lists, t, coloring, d
            )
            assert verdict.valid, (trial, verdict.violation)


def test_criterion_7_oracle_agreement():
    with criterion(7, "small-instance oracle agreement", 120.0):
        rng = random.Random(707)
        successes = 0
        while successes < 200:
            n = rng.randint(1, 8)
            k = rng.randint(1, min(3, n))
            d = rng.randint(1, 3)
            t = rng.randint(k, k + 2)
            bundle = gen_planted_partition(n, k, d, seed=rng.randrange(2**30))
            lists = ListAssignment.uniform_random(n, t, 2 * t, rng)
            coloring = equitable_coloring(bundle.graph, bundle.partition, lists)
            assert verify_equitable_list_coloring(
                bundle.graph, lists, t, coloring, d
            ).valid
            slow = brute_force_equitable_coloring(bundle.graph, lists, t, d)
            assert slow is not None
            assert verify_equitable_list_coloring(
                bundle.graph, lists, t, slow, d
            ).valid
            successes += 1

        for trial in range(1000):
            n = rng.randint(1, 8)
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.5
            ]
            g = Graph(n, edges)
            t = rng.randint(1, 3)
            d = rng.randint(1, 3)
            lists = ListAssignment.uniform_random(n, t, t + 2, rng)
            colors = {v: rng.choice(lists[v]) for v in range(n)}
            if n > 1 and rng.random() < 0.15:
                del colors[rng.randrange(n)]
            fast = verify_equitable_list_coloring(g, lists, t, Coloring(colors), d)
            slow = verify_coloring_by_subsets(g, lists, t, Coloring(colors), d)
            assert fast.valid == slow.valid, (trial, fast.violation, slow.violation)


def test_criterion_8_grid_scaling():
    with criterion(8, "near-linear grid scaling", 120.0):
        sizes = [(333, 3, 3), (667, 3, 3), (1333, 3, 3), (2667, 3, 3)]
        rng = random.Random(88)
        instances = []
        for dims in sizes:
            g, _ = make_grid(dims)
            instances.append((g, partition3d(dims), ListAssignment.uniform_random(g.n, 4, 8, rng)))
        # Every round times all four sizes back to back, so a drift in host
        # speed between rounds hits each size alike instead of skewing a ratio.
        for _ in range(2):  # warmup
            for g, p, lists in instances:
                equitable_coloring(g, p, lists)
        trials: list[list[float]] = [[] for _ in sizes]
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(5):
                for times, (g, p, lists) in zip(trials, instances):
                    start = time.perf_counter()
                    equitable_coloring(g, p, lists)
                    times.append(time.perf_counter() - start)
        finally:
            if gc_was_enabled:
                gc.enable()
        medians = [statistics.median(times) for times in trials]
        for small, big in zip(medians, medians[1:]):
            ratio = big / small
            print(f"  doubling ratio: {ratio:.2f}")
            assert 1.5 <= ratio <= 3.0, medians

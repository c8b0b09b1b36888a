from __future__ import annotations

import dataclasses
import gc
import hashlib
import itertools
import json
import random
import sys
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqcolor import (
    Graph,
    InputError,
    KdPartition,
    ListAssignment,
    SearchStatus,
    enumerate_last_layers,
    equitable_coloring,
    gen_example2,
    gen_gq,
    gen_planted_partition,
    greedy_kd_partition,
    make_grid,
    search_kd_partition,
    verify_kd_partition,
)
from eqcolor.partition import _blocks, _certified
from oracles import (
    all_feasible_last_layers,
    first_back_degree_violation,
    first_peel_sequence,
    greedy_peel,
    partition_exists_by_permutations,
)


class _V(IntEnum):
    A = 0
    B = 1
    C = 2
    D = 3


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def random_graph(n, p, rng):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(n, edges)


class TestKdPartition:
    def test_shape(self):
        p = KdPartition(2, 1, [[0], [1, 2], [3, 4]])
        assert len(p.layers) - 1 == 2
        assert sum(map(len, p.layers)) == 5

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(InputError):
            KdPartition(0, 1, [[0]])
        with pytest.raises(InputError):
            KdPartition(1, 0, [[0]])

    def test_a_layer_that_is_not_a_list_or_tuple_is_an_input_error(self):
        with pytest.raises(InputError, match="^layer 5 is not a list or tuple$"):
            KdPartition(2, 1, [[0, 1], 5])
        assert KdPartition(2, 1, [(0, 1), [2]]).layers == [[0, 1], [2]]

    def test_layers_are_copied(self):
        raw = [[0], [1, 2]]
        p = KdPartition(2, 1, raw)
        raw[1].append(99)
        assert p.layers[1] == [1, 2]

    @pytest.mark.parametrize("raw", [[[0], [1, 2]], ((0,), (1, 2)), [(0,), [1, 2]]])
    def test_layers_read_back_as_a_fresh_list_of_lists(self, raw):
        # repr(p.layers) is what the bench digests hash, so its form is pinned.
        p = KdPartition(2, 1, raw)
        assert p.layers is not p.layers
        assert p.layers == [[0], [1, 2]]
        assert repr(p.layers) == "[[0], [1, 2]]"
        assert all(type(layer) is list for layer in p.layers)
        p.layers[1].append(99)
        assert p.layers == [[0], [1, 2]]
        before = p == KdPartition(2, 1, [[0], [1, 2]]), hash(p), repr(p)
        g = Graph(3, [(1, 2)])
        assert verify_kd_partition(g, p).valid
        equitable_coloring(g, p, ListAssignment(2, {v: [1, 2] for v in range(3)}))
        assert p._verified[0] is g and p._verified[1] is not None
        assert (p == KdPartition(2, 1, [[0], [1, 2]]), hash(p), repr(p)) == before
        assert repr(p) == "KdPartition(k=2, d=1, layers=[[0], [1, 2]])"


def test_blocks_cut_like_the_layers():
    # The first block holds the remainder, 1..size items, and every later
    # block holds size, as S_1 and the later layers of a partition do.
    for n in range(21):
        items = list(range(n))
        for size in range(1, 7):
            blocks = list(_blocks(items, size))
            assert [v for block in blocks for v in block] == items
            assert len(blocks) == -(-n // size)  # none for an empty input
            assert not blocks or 1 <= len(blocks[0]) <= size
            assert all(len(block) == size for block in blocks[1:])


class TestVerify:
    def test_bundled_example_partition_is_valid(self):
        bundle = gen_example2()
        verdict = verify_kd_partition(bundle.graph, bundle.partition)
        assert verdict.valid
        assert verdict.violation is None
        assert len(bundle.partition.layers) - 1 == 9

    def test_bundled_clique_chain_partition_is_valid(self):
        for q in (1, 2):
            bundle = gen_gq(q)
            assert verify_kd_partition(bundle.graph, bundle.partition).valid

    def test_layer_count_mismatch(self):
        g = path(5)
        verdict = verify_kd_partition(g, KdPartition(2, 1, [[0], [1, 2]]))
        assert not verdict.valid
        assert verdict.violation.kind == "structure"

    def test_first_layer_size_bounds(self):
        g = Graph(7)
        bad = KdPartition(3, 1, [[], [0, 1, 2], [3, 4, 5]])
        verdict = verify_kd_partition(g, bad)
        assert not verdict.valid
        assert verdict.violation.layer == 1

    def test_later_layer_must_have_exactly_k(self):
        g = Graph(4)
        bad = KdPartition(3, 1, [[0, 1], [2, 3]])
        verdict = verify_kd_partition(g, bad)
        assert not verdict.valid
        assert verdict.violation.kind == "structure"
        assert verdict.violation.layer == 2

    def test_out_of_range_vertex(self):
        g = Graph(2)
        verdict = verify_kd_partition(g, KdPartition(1, 1, [[0], [7]]))
        assert not verdict.valid
        assert "invalid vertex" in verdict.violation.message

    def test_bool_is_not_a_vertex(self):
        verdict = verify_kd_partition(Graph(2, [(0, 1)]), KdPartition(1, 2, [[0], [True]]))
        assert not verdict.valid
        assert verdict.violation.kind == "structure"
        assert verdict.violation.message == "layer 2 contains invalid vertex True"
        # Nor is an int subclass: the colouring built on it would fail its own verifier.
        g = Graph(4, [(0, 1), (2, 3)])
        verdict = verify_kd_partition(g, KdPartition(2, 1, [[_V.A, _V.B], [_V.C, _V.D]]))
        assert not verdict.valid
        assert verdict.violation.kind == "structure"
        assert verdict.violation.message == "layer 1 contains invalid vertex <_V.A: 0>"

    def test_duplicate_vertex(self):
        g = Graph(3)
        verdict = verify_kd_partition(g, KdPartition(1, 1, [[0], [1], [1]]))
        assert not verdict.valid
        assert "more than once" in verdict.violation.message

    def test_missing_vertex(self):
        g = Graph(3)
        p = KdPartition(1, 1, [[0], [1], [0]])
        # duplicate fires before coverage, so build a genuinely short cover
        verdict = verify_kd_partition(g, p)
        assert not verdict.valid

    def test_uncovered_vertex(self):
        verdict = verify_kd_partition(path(5), KdPartition(3, 1, [[0], [1, 2, 3]]))
        assert not verdict.valid
        assert verdict.violation.kind == "structure"
        assert verdict.violation.message == "vertex 4 is not covered by any layer"

    def test_back_degree_violation_fields(self):
        g = path(3)
        verdict = verify_kd_partition(g, KdPartition(2, 1, [[1], [0, 2]]))
        assert not verdict.valid
        v = verdict.violation
        assert v.kind == "back-degree"
        assert v.layer == 2
        assert v.position == 1
        assert v.vertex == 0
        assert v.observed == 1
        assert v.allowed == 0

    def test_back_degree_ignores_same_layer_edges(self):
        # 0-1 edge inside layer 2 must not count against either vertex
        g = Graph(3, [(0, 1)])
        verdict = verify_kd_partition(g, KdPartition(2, 1, [[2], [0, 1]]))
        assert verdict.valid

    def test_back_degree_verdict_matches_a_bitmask_recount(self):
        # Valid planted layers, then shuffled inside layers, swapped across
        # layers or replaced by a random permutation: the structure stays
        # valid, so every verdict comes from the back-degree counts.
        rng = random.Random(9203)
        failures = set()
        for seed in range(400):
            n = rng.randint(1, 16)
            k = rng.randint(1, min(4, n))
            d = rng.randint(1, 3)
            bundle = gen_planted_partition(n, k, d, seed=seed)
            layers = [list(layer) for layer in bundle.partition.layers]
            damage = rng.randrange(4)
            if damage == 1:
                for layer in layers:
                    rng.shuffle(layer)
            elif damage == 2 and len(layers) > 1:
                a, b = rng.sample(range(len(layers)), 2)
                i, j = rng.randrange(len(layers[a])), rng.randrange(len(layers[b]))
                layers[a][i], layers[b][j] = layers[b][j], layers[a][i]
            elif damage == 3:
                perm = rng.sample(range(n), n)
                sizes = [len(layer) for layer in layers]
                layers = [perm[sum(sizes[:j]) : sum(sizes[: j + 1])] for j in range(len(sizes))]
            verdict = verify_kd_partition(bundle.graph, KdPartition(k, d, layers))
            expected = first_back_degree_violation(bundle.graph, layers, d)
            assert verdict.valid == (expected is None)
            if expected is None:
                assert verdict.violation is None
            else:
                v = verdict.violation
                assert v.kind == "back-degree"
                assert (v.layer, v.position, v.vertex, v.observed, v.allowed) == expected
                failures.add((v.layer > 2, v.position > 1))
        assert len(failures) == 4

    def test_empty_graph(self):
        verdict = verify_kd_partition(Graph(0), KdPartition(2, 1, []))
        assert verdict.valid

    @pytest.mark.parametrize("name", ["k", "d", "layers"])
    def test_parameter_zeroed_after_construction(self, name):
        p = KdPartition(3, 1, [[0, 1, 2]])
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, name, [] if name == "layers" else 0)
        assert (p.k, p.d, p.layers) == (3, 1, [[0, 1, 2]])
        assert verify_kd_partition(Graph(3), p).valid


def fits(degs: list[int], d: int) -> list[int] | None:
    """The layer-fit test on bare external degrees, each its own item."""
    return _certified([(e, e) for e in degs], d)


class TestLayerOrderingExists:
    def test_returns_ascending_witness(self):
        assert fits([1, 0, 3], 2) == [0, 1, 3]

    def test_none_when_smallest_too_large(self):
        assert fits([1, 1], 1) is None

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=3),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_permutation_check(self, k, d, data):
        degs = data.draw(
            st.lists(st.integers(min_value=0, max_value=3 * k), min_size=k, max_size=k)
        )
        witness = fits(degs, d)
        by_perm = any(
            all(e <= d * i - 1 for i, e in enumerate(perm, start=1))
            for perm in itertools.permutations(degs)
        )
        assert (witness is not None) == by_perm
        if witness is not None:
            assert witness == sorted(degs)
            assert all(e <= d * i - 1 for i, e in enumerate(witness, start=1))


class TestSearch:
    def test_rejects_bad_parameters(self):
        g = path(3)
        with pytest.raises(InputError):
            search_kd_partition(g, 0, 1)
        with pytest.raises(InputError):
            search_kd_partition(g, 1, 0)
        with pytest.raises(InputError, match="^graph must have at least one vertex$"):
            search_kd_partition(Graph(0), 1, 1)

    def test_single_vertex_layers_need_edgeless_graph(self):
        # with k = 1, d = 1 every vertex beyond the first may keep no
        # back-neighbours at all, so any edge kills feasibility
        assert search_kd_partition(path(2), 1, 1).status is SearchStatus.PROVED_ABSENT
        assert search_kd_partition(path(4), 1, 1).status is SearchStatus.PROVED_ABSENT
        res = search_kd_partition(Graph(4), 1, 1)
        assert res.status is SearchStatus.FOUND
        assert verify_kd_partition(Graph(4), res.partition).valid

    def test_paths_admit_singleton_layers_at_d2(self):
        for n in (2, 3, 6):
            res = search_kd_partition(path(n), 1, 2)
            assert res.status is SearchStatus.FOUND
            assert verify_kd_partition(path(n), res.partition).valid

    def test_triangle(self):
        assert search_kd_partition(complete(3), 2, 1).status is SearchStatus.PROVED_ABSENT
        res = search_kd_partition(complete(3), 2, 2)
        assert res.status is SearchStatus.FOUND
        assert verify_kd_partition(complete(3), res.partition).valid

    def test_budget_exhaustion(self):
        bundle = gen_gq(2)
        res = search_kd_partition(bundle.graph, 7, 1, budget=5)
        assert res.status is SearchStatus.BUDGET_EXHAUSTED
        assert res.partition is None
        assert res.expanded == 5
        # A negative budget is spent before the first candidate.
        res = search_kd_partition(bundle.graph, 7, 1, budget=-1)
        assert res.status is SearchStatus.BUDGET_EXHAUSTED and res.expanded == 0

    def test_budget_is_none_or_an_exact_int(self):
        for budget in (1.5, "5"):
            with pytest.raises(InputError, match="budget must be None or an integer"):
                search_kd_partition(gen_gq(1).graph, 5, 1, budget=budget)

    def test_found_partitions_always_verify(self):
        rng = random.Random(2201)
        for _ in range(150):
            n = rng.randint(1, 7)
            g = random_graph(n, rng.random(), rng)
            k = rng.randint(1, min(3, n))
            d = rng.randint(1, 3)
            res = search_kd_partition(g, k, d)
            assert res.status is not SearchStatus.BUDGET_EXHAUSTED
            if res.status is SearchStatus.FOUND:
                assert verify_kd_partition(g, res.partition).valid
                assert res.partition.k == k and res.partition.d == d

    def test_matches_permutation_oracle(self):
        rng = random.Random(97)
        hits = 0
        for _ in range(120):
            n = rng.randint(1, 6)
            g = random_graph(n, rng.random(), rng)
            k = rng.randint(1, min(3, n))
            d = rng.randint(1, 2)
            res = search_kd_partition(g, k, d)
            expected = partition_exists_by_permutations(g, k, d)
            assert (res.status is SearchStatus.FOUND) == expected
            hits += expected
        # the corpus must exercise both outcomes to mean anything
        assert 0 < hits < 120

    def test_returns_lexicographically_first_peel_sequence(self):
        rng = random.Random(6007)
        found = 0
        for _ in range(300):
            n = rng.randint(1, 9)
            g = random_graph(n, rng.random(), rng)
            k = rng.randint(1, n)
            d = rng.randint(1, 3)
            res = search_kd_partition(g, k, d)
            expected = first_peel_sequence(g, k, d)
            if expected is None:
                assert res.status is SearchStatus.PROVED_ABSENT
            else:
                assert res.status is SearchStatus.FOUND
                assert res.partition.layers == expected
                found += 1
        assert 0 < found < 300

    def test_results_match_recorded_digest(self):
        # Pins status, expanded count and layers, not just validity: the
        # clique chains, every small 3-D grid, random graphs, budgets cut
        # mid-search, and the enumerator's layers on the same graphs.
        def record(res):
            layers = None if res.partition is None else res.partition.layers
            return [res.status.value, res.expanded, layers]

        digest = hashlib.sha256()
        expanded = []
        for q, k in [(1, 5), (1, 6), (1, 7), (2, 6), (2, 7)]:
            res = search_kd_partition(gen_gq(q).graph, k, 1)
            expanded.append(res.expanded)
            digest.update(json.dumps(record(res)).encode())
            layers = sorted(enumerate_last_layers(gen_gq(q).graph, k, 1))
            digest.update(json.dumps(layers).encode())
        assert expanded == [0, 2, 8, 4, 177]
        for dims in itertools.product(range(2, 5), repeat=3):
            g = make_grid(dims)[0]
            digest.update(json.dumps([dims, record(search_kd_partition(g, 3, 2))]).encode())
        for budget in (1, 5, 50):
            res = search_kd_partition(gen_gq(2).graph, 7, 1, budget=budget)
            digest.update(json.dumps([budget, record(res)]).encode())
        rng = random.Random(2626)
        for _ in range(300):
            n = rng.randint(1, 10)
            g = random_graph(n, rng.random(), rng)
            k, d = rng.randint(1, min(4, n)), rng.randint(1, 3)
            digest.update(json.dumps([g.edges(), k, d, record(search_kd_partition(g, k, d))]).encode())
            digest.update(json.dumps(sorted(enumerate_last_layers(g, k, d))).encode())
        assert digest.hexdigest() == (
            "798a206ddec09f5f94634b4ba3eeb63a0ab1ae61b3ce9e0f8e98102db99e8807"
        )

    def test_leaves_no_cyclic_garbage(self):
        # A reference cycle per level would outlive the call and feed the
        # collector, which every later allocation in the process pays for.
        graphs = [(gen_gq(2).graph, 7, 1), (make_grid((4, 5, 6))[0], 3, 2)]
        gc.collect()
        gc.disable()
        try:
            for g, k, d in graphs:
                search_kd_partition(g, k, d)
                list(enumerate_last_layers(g, k, d))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_depth_is_not_bounded_by_recursion_limit(self):
        # 3,000 levels, each with every remaining vertex an anchor: a level
        # that scanned all its anchors would make this quadratic.
        g = Graph(3_000)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(100)
        try:
            res = search_kd_partition(g, 1, 1)
        finally:
            sys.setrecursionlimit(limit)
        assert res.status is SearchStatus.FOUND
        assert verify_kd_partition(g, res.partition).valid


class TestGreedy:
    def test_verifies_whenever_it_returns(self):
        rng = random.Random(5150)
        returned = 0
        for _ in range(200):
            n = rng.randint(1, 12)
            g = random_graph(n, rng.random() * 0.6, rng)
            k = rng.randint(1, min(4, n))
            d = rng.randint(1, 3)
            p = greedy_kd_partition(g, k, d)
            if p is not None:
                returned += 1
                assert verify_kd_partition(g, p).valid
        assert returned > 0

    def test_layers_match_the_bitmask_greedy(self):
        rng = random.Random(8311)
        returned = 0
        for _ in range(300):
            n = rng.randint(1, 30)
            g = random_graph(n, rng.random() * 0.3, rng)
            k = rng.randint(1, min(4, n))
            d = rng.randint(1, 3)
            p = greedy_kd_partition(g, k, d)
            expected = greedy_peel(g, k, d)
            assert (None if p is None else p.layers) == expected
            returned += expected is not None
        assert 0 < returned < 300
        returned = 0
        for seed in range(12):
            k, d = 1 + seed % 4, 1 + seed % 3
            bundle = gen_planted_partition(30 + seed, k, d, seed=seed)
            p = greedy_kd_partition(bundle.graph, k, d)
            expected = greedy_peel(bundle.graph, k, d)
            assert (None if p is None else p.layers) == expected
            returned += expected is not None
        assert 0 < returned < 12
        # Hundreds of steps, where a degree kept up to date as layers are
        # peeled could drift from the oracle's recount.
        returned = 0
        for n, (pk, pd), (k, d) in [
            (200, (3, 1), (3, 3)), (250, (2, 1), (2, 2)), (300, (3, 2), (3, 3)),
            (350, (4, 3), (4, 5)), (400, (3, 2), (3, 4)),
        ]:
            g = gen_planted_partition(n, pk, pd, seed=n).graph
            p = greedy_kd_partition(g, k, d)
            expected = greedy_peel(g, k, d)
            assert (None if p is None else p.layers) == expected
            returned += expected is not None
        assert 0 < returned < 5

    def test_layers_match_recorded_digest(self):
        # Pins the layers, or None, not just validity, on graphs too big for
        # the bitmask oracle. Each planted (k, d) graph is peeled with a
        # looser d: (3, 1) with (3, 3) is the benchmark's case and peels to
        # the end, as (3, 2) with (3, 4) and (2, 1) with (2, 2) do; the
        # others give up only after a third or more of their steps.
        cases = [
            ((3, 1), (3, 3)), ((3, 2), (3, 4)), ((2, 1), (2, 2)),
            ((3, 1), (3, 2)), ((3, 2), (3, 3)), ((4, 2), (4, 4)), ((4, 3), (4, 5)),
        ]
        digest = hashlib.sha256()
        for n, seed in [(300, 1), (300, 2), (1_000, 3), (2_000, 4)]:
            for (pk, pd), (k, d) in cases:
                p = greedy_kd_partition(gen_planted_partition(n, pk, pd, seed=seed).graph, k, d)
                record = [n, seed, pk, pd, k, d, None if p is None else p.layers]
                digest.update(json.dumps(record).encode())
        assert digest.hexdigest() == (
            "e05677e3a0832da2b762b175fd865cb6b9173fc466639d1f3062e63595a69c66"
        )

    def test_succeeds_on_planted_instances(self):
        for seed in range(20):
            bundle = gen_planted_partition(17, 3, 2, seed=seed)
            p = greedy_kd_partition(bundle.graph, 3, 2)
            if p is not None:
                assert verify_kd_partition(bundle.graph, p).valid


class TestEnumerateLastLayers:
    def test_path_endpoint_pairs(self):
        layers = list(enumerate_last_layers(path(4), 2, 1))
        assert {frozenset(s) for s in layers} == {
            frozenset({0, 1}),
            frozenset({2, 3}),
        }

    def test_orderings_are_certificates(self):
        g = path(6)
        universe = frozenset(range(6))
        for layer in enumerate_last_layers(g, 2, 1):
            rest = universe - set(layer)
            for i, v in enumerate(layer, start=1):
                assert len(set(g.neighbors(v)) & rest) <= i - 1

    def test_complete_against_subset_oracle(self):
        rng = random.Random(31415)
        for _ in range(80):
            n = rng.randint(2, 7)
            g = random_graph(n, rng.random(), rng)
            k = rng.randint(1, n)
            d = rng.randint(1, 3)
            got = {frozenset(s) for s in enumerate_last_layers(g, k, d)}
            assert got == all_feasible_last_layers(g, k, d)

    def test_yields_no_duplicates(self):
        g = Graph(5)
        layers = [frozenset(s) for s in enumerate_last_layers(g, 2, 1)]
        assert len(layers) == len(set(layers)) == 10

    def test_requires_enough_vertices(self):
        with pytest.raises(InputError):
            list(enumerate_last_layers(Graph(2), 3, 1))


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (lambda: greedy_kd_partition(path(3), 0, 1), "k and d must be positive"),
        (lambda: greedy_kd_partition(Graph(0), 1, 1), "graph must have at least one vertex"),
        (lambda: list(enumerate_last_layers(path(3), 0, 1)), "k and d must be positive"),
    ],
    ids=["greedy-k0", "greedy-empty", "enumerate-k0"],
)
def test_greedy_and_enumeration_reject_bad_input(call, message):
    with pytest.raises(InputError) as exc:
        call()
    assert str(exc.value) == message

from __future__ import annotations

import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqcolor import (
    Graph,
    InputError,
    KdPartition,
    SearchStatus,
    enumerate_last_layers,
    gen_example2,
    gen_gq,
    gen_planted_partition,
    greedy_kd_partition,
    search_kd_partition,
    verify_kd_partition,
)
from eqcolor.partition import _certified
from oracles import (
    all_feasible_last_layers,
    first_back_degree_violation,
    first_peel_sequence,
    greedy_peel,
    partition_exists_by_permutations,
)


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
        assert p.eta == 2
        assert sum(map(len, p.layers)) == 5

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(InputError):
            KdPartition(0, 1, [[0]])
        with pytest.raises(InputError):
            KdPartition(1, 0, [[0]])

    def test_layers_are_copied(self):
        raw = [[0], [1, 2]]
        p = KdPartition(2, 1, raw)
        raw[1].append(99)
        assert p.layers[1] == [1, 2]


class TestVerify:
    def test_bundled_example_partition_is_valid(self):
        bundle = gen_example2()
        verdict = verify_kd_partition(bundle.graph, bundle.partition)
        assert verdict.valid
        assert verdict.violation is None
        assert bundle.partition.eta == 9

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

    @pytest.mark.parametrize("name", ["k", "d"])
    def test_parameter_zeroed_after_construction(self, name):
        p = KdPartition(3, 1, [[0, 1, 2]])
        setattr(p, name, 0)
        verdict = verify_kd_partition(Graph(3), p)
        assert not verdict.valid
        assert verdict.violation.kind == "structure"
        assert p._verified is None


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
        with pytest.raises(InputError):
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
        assert res.expanded >= 5

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

    def test_depth_is_not_bounded_by_recursion_limit(self):
        g = Graph(300)
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

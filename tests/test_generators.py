from __future__ import annotations

import hashlib
import json
import random

import pytest

from eqcolor import (
    InputError,
    SearchStatus,
    gen_basic,
    gen_example2,
    gen_gq,
    gen_planted_partition,
    search_kd_partition,
    verify_kd_partition,
)


class TestCliqueChain:
    def test_smallest_instance_counts(self):
        bundle = gen_gq(1)
        g = bundle.graph
        assert g.n == 18
        assert g.edge_count() == 75
        assert max(g.degree(v) for v in range(g.n)) == 12
        assert min(g.degree(v) for v in range(g.n)) == 5
        assert g.degree(bundle.id_of("v_6^2")) == 12

    def test_growth_with_q(self):
        for q in (1, 2, 3):
            g = gen_gq(q).graph
            assert g.n == 6 * (2 * q + 1)

    def test_every_copy_is_a_clique(self):
        bundle = gen_gq(2)
        g = bundle.graph
        for i in range(1, 6):
            members = [bundle.id_of(f"v_{j}^{i}") for j in range(1, 7)]
            for a in range(6):
                for b in range(a + 1, 6):
                    assert g.adjacent(members[a], members[b])

    def test_bundled_partition_verifies(self):
        for q in (1, 2):
            bundle = gen_gq(q)
            assert bundle.partition.k == 6
            assert bundle.partition.d == 1
            assert verify_kd_partition(bundle.graph, bundle.partition).valid

    def test_no_five_wide_partition_exists(self):
        res = search_kd_partition(gen_gq(1).graph, 5, 1)
        assert res.status is SearchStatus.PROVED_ABSENT

    def test_rejects_nonpositive_q(self):
        with pytest.raises(InputError):
            gen_gq(0)


class TestShowcaseGraph:
    def test_counts(self):
        bundle = gen_example2()
        assert bundle.graph.n == 20
        assert bundle.graph.edge_count() == 61

    def test_structure_samples(self):
        bundle = gen_example2()
        g = bundle.graph

        def adj(a, b):
            return g.adjacent(bundle.id_of(a), bundle.id_of(b))

        assert adj("v_1^1", "v_5^1")  # clique edge
        assert adj("w_2^1", "v_2^1")  # pendant attachment
        assert adj("w_2^1", "w_3^1")  # chain edge
        assert adj("v_2^1", "w_3^1")  # diagonal
        assert adj("v_1^2", "v_5^1")  # cross edge, a >= j
        assert not adj("v_3^2", "v_1^1")  # cross edges need a >= j
        assert not adj("w_1^1", "w_1^2")  # the two halves share no w edges

    def test_cross_degrees(self):
        bundle = gen_example2()
        g = bundle.graph
        first_clique = {bundle.id_of(f"v_{a}^1") for a in range(1, 6)}
        for j in range(1, 6):
            v = bundle.id_of(f"v_{j}^2")
            assert len(set(g.neighbors(v)) & first_clique) == 6 - j

    def test_lists_shape(self):
        bundle = gen_example2()
        assert bundle.lists.t == 3
        assert bundle.lists[bundle.id_of("v_3^1")] == (1, 2, 3)
        assert bundle.lists[bundle.id_of("w_3^1")] == (2, 3, 4)
        assert bundle.lists[bundle.id_of("w_3^2")] == (1, 2, 4)

    def test_partition_pairs_each_pendant_with_its_anchor(self):
        bundle = gen_example2()
        p = bundle.partition
        assert p.k == 2 and p.d == 3
        assert verify_kd_partition(bundle.graph, p).valid
        label = {v: name for name, v in bundle.names.items()}
        for layer in p.layers:
            w, v = layer
            assert label[w].startswith("w")
            assert label[v].startswith("v")
            assert bundle.graph.adjacent(w, v)

    def test_label_lookups(self):
        bundle = gen_example2()
        assert sorted(bundle.names.values()) == list(range(bundle.graph.n))  # one name per vertex
        label = {v: name for name, v in bundle.names.items()}
        assert label[bundle.id_of("w_4^2")] == "w_4^2"
        with pytest.raises(InputError):
            bundle.id_of("v_9^9")


class TestBasicGraphs:
    def test_path(self):
        g = gen_basic("path", 5).graph
        assert g.n == 5 and g.edge_count() == 4

    def test_cycle(self):
        g = gen_basic("cycle", 6).graph
        assert g.edge_count() == 6
        assert all(g.degree(v) == 2 for v in range(6))
        with pytest.raises(InputError):
            gen_basic("cycle", 2)

    def test_complete(self):
        g = gen_basic("complete", 5).graph
        assert g.edge_count() == 10

    def test_random_is_seed_deterministic(self):
        a = gen_basic("random", 12, p=0.4, seed=3).graph
        b = gen_basic("random", 12, p=0.4, seed=3).graph
        c = gen_basic("random", 12, p=0.4, seed=4).graph
        assert a == b
        assert a != c

    def test_random_rejects_a_p_that_is_not_a_probability(self):
        # Only an exact int or float is a probability: no string, bool or None.
        for p in ("0.5", True, None, 1.5):
            with pytest.raises(InputError, match="edge probability"):
                gen_basic("random", 3, p=p)

    def test_names_are_vertex_ids(self):
        bundle = gen_basic("path", 3)
        assert bundle.id_of("2") == 2

    def test_rejects_unknown_kind(self):
        with pytest.raises(InputError):
            gen_basic("wheel", 4)
        with pytest.raises(InputError):
            gen_basic("path", 0)


class TestPlantedPartition:
    def test_bundle_always_verifies(self):
        rng = random.Random(1234)
        for _ in range(60):
            n = rng.randint(1, 40)
            k = rng.randint(1, 4)
            d = rng.randint(1, 3)
            bundle = gen_planted_partition(n, k, d, seed=rng.randrange(2**30))
            assert bundle.partition.k == k
            assert verify_kd_partition(bundle.graph, bundle.partition).valid

    def test_deterministic_per_seed(self):
        a = gen_planted_partition(25, 3, 2, seed=9)
        b = gen_planted_partition(25, 3, 2, seed=9)
        assert a.graph == b.graph
        assert a.partition.layers == b.partition.layers

    def test_graphs_match_recorded_digest(self):
        # Pins every edge and layer a seed gives, not just validity. The
        # small sweep reaches n <= k (one layer), cap 0 (d = 1) and both of
        # sample's branches; the two large graphs draw from thousands of
        # earlier vertices, where repeated indices are redrawn.
        sweep = [
            (n, k, d, n * 100 + k * 10 + d)
            for n in range(1, 61)
            for k in range(1, 7)
            for d in range(1, 5)
        ]
        sweep += [(2_000, 4, 3, 7), (10_000, 4, 3, 11)]
        digest = hashlib.sha256()
        for n, k, d, seed in sweep:
            bundle = gen_planted_partition(n, k, d, seed=seed)
            record = [n, k, d, seed, bundle.graph.edges(), bundle.partition.layers]
            digest.update(json.dumps(record).encode())
        assert digest.hexdigest() == (
            "a5c28c42a041b4a81899824b0c5646614f9a27384dcedf354efa49bb9a96030b"
        )

    def test_produces_edges_at_scale(self):
        bundle = gen_planted_partition(40, 4, 3, seed=0)
        assert bundle.graph.edge_count() > 40

    def test_rejects_bad_parameters(self):
        with pytest.raises(InputError):
            gen_planted_partition(0, 1, 1)
        with pytest.raises(InputError):
            gen_planted_partition(5, 0, 1)

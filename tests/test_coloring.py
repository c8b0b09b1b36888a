from __future__ import annotations

import collections
import dataclasses
import hashlib
import itertools
import math
import random
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqcolor import (
    Coloring,
    Graph,
    InputError,
    InvariantError,
    KdPartition,
    ListAssignment,
    RunTrace,
    compute_counters,
    equitable_coloring,
    gen_example2,
    gen_planted_partition,
    is_d_degenerate,
    make_grid,
    partition3d,
    verify_equitable_list_coloring,
    verify_kd_partition,
)
from eqcolor.coloring import (
    AlgorithmState,
    _later_neighbours,
    colour_list,
    modify_colour_lists,
    reorder,
)
from eqcolor.graph import induced_subgraph
from oracles import (
    brute_force_equitable_coloring,
    colour_classes,
    verify_coloring_by_classes,
    verify_coloring_by_subsets,
)


class _Colour(IntEnum):
    RED = 1


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


class TestCounters:
    def test_showcase_values(self):
        c = compute_counters(20, 3, 2)
        assert (c.eta, c.r1) == (9, 2)
        assert (c.beta, c.r2) == (6, 2)
        assert (c.gamma, c.r) == (1, 1)
        assert (c.rho, c.x) == (3, 0)

    def test_divisible_case_keeps_r2_full(self):
        c = compute_counters(12, 4, 2)
        assert c.beta == 2
        assert c.r2 == 4

    @given(st.integers(min_value=1, max_value=2**70), st.data())
    @settings(max_examples=300, deadline=None)
    def test_identities(self, n, data):
        k = data.draw(st.integers(min_value=1, max_value=12))
        t = data.draw(st.integers(min_value=k, max_value=k + 12))
        c = compute_counters(n, t, k)
        assert c.n == c.beta * c.t + c.r2
        assert 1 <= c.r2 <= c.t
        assert c.t == c.gamma * c.k + c.r
        assert 0 <= c.r < c.k
        assert c.beta * c.r == c.rho * c.k + c.x
        assert 0 <= c.x < c.k
        assert c.n == c.r2 + c.x + c.rho * c.k + c.beta * c.gamma * c.k
        assert c.eta == -(-n // k) - 1
        assert c.r1 == n - c.eta * c.k
        assert 1 <= c.r1 <= c.k

    def test_counters_are_exact_past_float_precision(self):
        # Float ceil(n / k) rounds 2**60 + 1 down by one and gave r1 = 3 > k.
        c = compute_counters(2**60 + 1, 3, 2)
        assert (c.r1, c.eta) == (1, 2**59)
        assert (c.r2, c.beta) == (2, (2**60 - 1) // 3)
        assert c.n == c.beta * c.t + c.r2

    def test_rejects_bad_inputs(self):
        with pytest.raises(InputError):
            compute_counters(0, 2, 1)
        with pytest.raises(InputError):
            compute_counters(5, 2, 0)
        with pytest.raises(InputError, match=r"^uniform list size t=1 must be at least k=2$"):
            compute_counters(5, 1, 2)


class TestListAssignment:
    def test_normalises_to_sorted_tuples(self):
        la = ListAssignment(3, {0: [3, 1, 2], 1: (2, 4, 1)})
        assert la[0] == (1, 2, 3)
        assert la[1] == (1, 2, 4)
        assert len(la) == 2
        assert la.vertices() == [0, 1]
        assert 0 in la and 7 not in la

    def test_rejects_malformed_lists(self):
        with pytest.raises(InputError):
            ListAssignment(2, {0: [1, 1]})
        with pytest.raises(InputError):
            ListAssignment(2, {0: [1, 2, 3]})
        with pytest.raises(InputError):
            ListAssignment(2, {0: [0, 1]})
        with pytest.raises(InputError):
            ListAssignment(2, {0: [True, 2]})
        with pytest.raises(InputError, match="holds invalid colour"):
            ListAssignment(2, {0: [_Colour.RED, 2]})
        with pytest.raises(InputError):
            ListAssignment(0, {})

    @pytest.mark.parametrize("value", [5, None, {1: 0, 2: 0}, {1, 2}, "12", range(1, 3)])
    def test_a_list_that_is_not_a_list_or_tuple_is_an_input_error(self, value):
        with pytest.raises(InputError) as caught:
            ListAssignment(2, {0: [1, 2], 1: value})
        assert str(caught.value) == "list of vertex 1 is not a list or tuple"

    @pytest.mark.parametrize("key", [True, 1.0, "1"])
    def test_only_exact_ints_are_vertex_keys(self, key):
        with pytest.raises(InputError) as caught:
            ListAssignment(2, {0: [1, 2], key: [1, 2]})
        assert str(caught.value) == f"list key {key!r} is not a vertex id"

    def test_missing_vertex_lookup(self):
        la = ListAssignment(1, {0: [1]})
        with pytest.raises(InputError):
            la[3]

    def test_equality(self):
        a = ListAssignment(2, {0: [2, 1]})
        b = ListAssignment(2, {0: [1, 2]})
        assert a == b
        assert a != ListAssignment(2, {0: [1, 3]})

    def test_uniform_random(self):
        rng = random.Random(7)
        la = ListAssignment.uniform_random(30, 3, 6, rng)
        assert len(la) == 30
        for v in range(30):
            lv = la[v]
            assert len(lv) == 3
            assert all(1 <= c <= 6 for c in lv)
            assert list(lv) == sorted(set(lv))
        again = ListAssignment.uniform_random(30, 3, 6, random.Random(7))
        assert la == again

    def test_uniform_random_pins_the_draws(self):
        # One rng.sample(range(1, palette + 1), t) per vertex, in vertex
        # order, exactly as the validating constructor would receive them,
        # and the rng ends in the same state. sample keeps a pool up to a
        # palette of 21 for t <= 5 and of 85 for t in 6..12; beyond that it
        # takes its other branch. A Random subclass that overrides random()
        # draws through another _randbelow, and one may override sample:
        # both must still match their own sample.
        class FloatOnly(random.Random):
            def random(self):
                return super().random()

        class OwnSample(random.Random):
            def sample(self, population, k):
                return list(population[-k:])

        cases = [(1, 1, 2), (30, 3, 6), (57, 4, 8), (300, 5, 10), (40, 3, 40)]
        cases += [(60, 3, 21), (60, 3, 22), (60, 6, 85), (60, 6, 86)]
        cases += [(60, 8, 16), (60, 8, 85), (60, 8, 86)]
        for rng_type in (random.Random, FloatOnly, OwnSample):
            for seed in range(6):
                for n, t, palette in cases:
                    rng = rng_type(seed)
                    drawn = ListAssignment.uniform_random(n, t, palette, rng)
                    ref = rng_type(seed)
                    expected = ListAssignment(
                        t, {v: ref.sample(range(1, palette + 1), t) for v in range(n)}
                    )
                    assert drawn == expected
                    assert drawn.items() == expected.items()
                    assert rng.getstate() == ref.getstate()

    def test_uniform_random_huge_palette(self):
        rng = random.Random(3)
        palette = 99_999_999_999_999
        drawn = ListAssignment.uniform_random(8, 3, palette, rng)
        ref = random.Random(3)
        assert drawn.items() == [
            (v, tuple(sorted(ref.sample(range(1, palette + 1), 3)))) for v in range(8)
        ]

    def test_uniform_random_needs_room(self):
        with pytest.raises(InputError):
            ListAssignment.uniform_random(3, 4, 3, random.Random(0))
        with pytest.raises(InputError):
            ListAssignment.uniform_random(3, 0, 3, random.Random(0))


class TestColourVertex:
    def make_state(self, g, lists, k=1, d=1, **kw):
        return AlgorithmState(
            g, ListAssignment(len(next(iter(lists.values()))), lists), k, d, later=g._adj, **kw
        )

    def test_picks_smallest_colour(self):
        state = self.make_state(Graph(1), {0: [4, 2, 9]})
        colour_list(state, [0], [1])
        assert state.colors == {0: 2}

    def test_neighbour_list_pruned_at_threshold(self):
        g = path(3)
        state = self.make_state(g, {0: [1, 2], 1: [1, 2], 2: [1, 2]}, d=2)
        colour_list(state, [0], [1])  # colour 1
        assert set(state.lists[1]) == {1, 2}  # one neighbour coloured 1, d=2 not reached
        del state.lists[2][2]
        colour_list(state, [2], [1])  # also colour 1
        assert set(state.lists[1]) == {2}  # second hit crosses d

    def test_room_of_d_takes_d_hits(self):
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        state = self.make_state(star, {v: [1, 2] for v in range(4)}, d=3)
        for leaf in (1, 2):
            colour_list(state, [leaf], [1])  # colour 1
        assert set(state.lists[0]) == {1, 2}  # two hits leave room for one more
        assert state.lists[0][1] == 1
        colour_list(state, [3], [1])
        assert set(state.lists[0]) == {2}  # the third hit uses the room up

    def test_already_coloured_neighbour_keeps_its_colour(self):
        g = Graph(2, [(0, 1)])
        state = self.make_state(g, {0: [1], 1: [1]}, d=1)
        colour_list(state, [0], [1])
        # vertex 1 is uncoloured, crossing d=1 empties its singleton list
        with pytest.raises(InvariantError) as exc:
            colour_list(state, [1], [1])
        assert exc.value.context["vertex"] == 1
        assert exc.value.context["n"] == 2

    def test_list_below_its_floor_raises_without_debug(self):
        state = self.make_state(Graph(2), {0: [1, 2], 1: [1, 2]})
        with pytest.raises(InvariantError) as exc:
            colour_list(state, [0, 1], [2, 2])  # vertex 1 loses colour 1 to vertex 0
        context = exc.value.context
        assert (context["vertex"], context["position"]) == (1, 2)
        assert (context["size"], context["floor"]) == (1, 2)
        assert 1 not in state.colors

    def test_first_block_holds_the_remainder(self):
        # Three vertices in blocks of two: [0] alone, then [1, 2], as S_1 and
        # the later layers are cut. Blocks from the start would pair 0 and 1.
        state = self.make_state(Graph(3), {v: [1, 2] for v in range(3)})
        colour_list(state, [0, 1, 2], [1, 1])
        assert state.colors == {0: 1, 1: 1, 2: 2}

    def test_seeded_choice_stays_inside_list(self):
        for seed in range(10):
            state = self.make_state(
                Graph(1), {0: [3, 5, 8]}, rng=random.Random(seed)
            )
            colour_list(state, [0], [1])
            assert state.colors[0] in (3, 5, 8)


class TestReorder:
    def test_keeps_prefix_and_multiset(self):
        colors = {0: 1, 1: 2, 2: 1, 3: 2, 4: 3, 5: 2}
        out = reorder([0, 1, 2, 3, 4, 5], colors, 2)
        assert sorted(out) == [0, 1, 2, 3, 4, 5]
        for i in range(len(out) - 1):
            assert colors[out[i]] != colors[out[i + 1]]

    def test_prefix_is_untouched(self):
        colors = {9: 7, 0: 1, 1: 2, 2: 2, 3: 1}
        out = reorder([9, 0, 1, 2, 3], colors, 2)
        assert out[0] == 9

    def test_every_window_is_rainbow_fuzz(self):
        rng = random.Random(404)
        for _ in range(200):
            k = rng.randint(1, 5)
            x = rng.randint(0, k - 1)
            blocks = rng.randint(0, 4)
            palette = list(range(1, k + 3))
            colors = {}
            s_col = []
            nxt = 0
            for c in rng.sample(palette, x):
                colors[nxt] = c
                s_col.append(nxt)
                nxt += 1
            for _ in range(blocks):
                for c in rng.sample(palette, k):
                    colors[nxt] = c
                    s_col.append(nxt)
                    nxt += 1
            out = reorder(s_col, colors, k)
            assert sorted(out) == sorted(s_col)
            assert out[:x] == s_col[:x]
            for i in range(len(out) - k + 1):
                window = [colors[v] for v in out[i : i + k]]
                assert len(set(window)) == k

    def test_monochrome_block_cannot_be_fixed(self):
        with pytest.raises(InvariantError):
            reorder([0, 1], {0: 1, 1: 1}, 2)

    def test_repeated_prefix_colour_fails_the_window_check(self):
        # The prefix [0, 1] is the first block; its second slot finds no fit.
        colors = {0: 1, 1: 1, 2: 2, 3: 3, 4: 4}
        with pytest.raises(InvariantError) as exc:
            reorder([0, 1, 2, 3, 4], colors, 3)
        assert str(exc.value) == "no pooled vertex fits the next slot"
        assert exc.value.context == {"pool": [1], "forbidden": [1]}

    def test_repeated_prefix_shorter_than_k_fails(self):
        # No k-window fits in two slots, but the second slot still repeats
        # the first one's colour within k - 1 places.
        with pytest.raises(InvariantError, match="^no pooled vertex fits the next slot$"):
            reorder([0, 1], {0: 1, 1: 1}, 3)
        assert reorder((0, 1), {0: 1, 1: 2}, 3) == [0, 1]

    def test_window_check_fires_exactly_on_a_repeated_prefix(self):
        # A rainbow block drains without a clash and a rainbow prefix keeps
        # its order, so the per-slot check fails exactly when the prefix, of
        # any length, repeats a colour, and it fails inside the prefix.
        rng = random.Random(4711)
        failed = 0
        for _ in range(400):
            k = rng.randint(1, 5)
            x = rng.randint(0, k - 1)
            blocks = rng.randint(0, 3)
            palette = list(range(1, k + 3))
            s_col = list(range(x + blocks * k))
            colors = {v: rng.choice(palette[:3]) for v in range(x)}
            for b in range(blocks):
                colors.update(zip(s_col[x + b * k : x + (b + 1) * k], rng.sample(palette, k)))
            repeated = len({colors[v] for v in s_col[:x]}) < x
            if repeated:
                with pytest.raises(InvariantError) as exc:
                    reorder(s_col, colors, k)
                failed += 1
                assert str(exc.value) == "no pooled vertex fits the next slot"
                pool = exc.value.context["pool"]
                assert pool and set(pool) < set(s_col[:x])
                assert {colors[v] for v in pool} <= set(exc.value.context["forbidden"])
            else:
                out = reorder(s_col, colors, k)
                assert out[:x] == s_col[:x]
                for i in range(len(out) - k + 1):
                    assert len({colors[v] for v in out[i : i + k]}) == k
        assert failed > 0

    def test_parameter_validation(self):
        with pytest.raises(InputError):
            reorder([0], {0: 1}, 0)


class TestModifyColourLists:
    def setup_state(self):
        g = Graph(8)
        lists = {v: [1, 2, 3, 4] for v in range(8)}
        return AlgorithmState(g, ListAssignment(4, lists), 2, 1, later=g._adj)

    def test_each_group_loses_its_block_colours(self):
        state = self.setup_state()
        state.colors = {0: 1, 1: 3}
        modify_colour_lists(state, [0, 1], [2, 3, 4, 5, 6, 7], 1, 3)
        assert set(state.lists[2]) == {2, 3, 4}
        assert set(state.lists[3]) == {2, 3, 4}
        assert set(state.lists[4]) == {2, 3, 4}
        assert set(state.lists[5]) == {1, 2, 4}
        assert set(state.lists[6]) == {1, 2, 4}
        assert set(state.lists[7]) == {1, 2, 4}

    def test_r_zero_is_a_no_op(self):
        state = self.setup_state()
        before = [dict(lv) for lv in state.lists]
        modify_colour_lists(state, [], [0, 1, 2, 3, 4, 5, 6, 7], 0, 4)
        assert state.lists == before


class TestShowcaseRun:
    """The 20-vertex bundled example, checked step by step."""

    @pytest.fixture()
    def run(self):
        bundle = gen_example2()
        trace = RunTrace()
        coloring = equitable_coloring(
            bundle.graph, bundle.partition, bundle.lists, debug=True, trace=trace
        )
        return bundle, trace, coloring

    def ids(self, bundle, labels):
        return [bundle.id_of(s) for s in labels.split()]

    def test_counters(self, run):
        bundle, trace, _ = run
        c = trace.counters
        assert (c.n, c.t, c.k) == (20, 3, 2)
        assert (c.beta, c.r2, c.gamma, c.r, c.rho, c.x) == (6, 2, 1, 1, 3, 0)

    def test_processing_order_interleaves_layers(self, run):
        bundle, trace, _ = run
        head = self.ids(bundle, "v_1^1 w_1^1 v_2^1 w_2^1 v_3^1 w_3^1 v_4^1 w_4^1")
        assert trace.order[:8] == head

    def test_first_two_stages_colours(self, run):
        bundle, trace, coloring = run
        expected = [1, 2, 1, 2, 1, 2, 2, 3]
        assert [coloring.colors[v] for v in trace.order[:8]] == expected

    def test_reordered_segment(self, run):
        bundle, trace, coloring = run
        assert trace.s_col_initial == self.ids(
            bundle, "v_2^1 w_2^1 v_3^1 w_3^1 v_4^1 w_4^1"
        )
        assert trace.s_col_reordered == self.ids(
            bundle, "v_2^1 w_2^1 v_3^1 w_3^1 w_4^1 v_4^1"
        )
        assert [coloring.colors[v] for v in trace.s_col_reordered] == [1, 2, 1, 2, 3, 2]

    def test_lists_after_modification(self, run):
        bundle, trace, _ = run
        order = self.ids(
            bundle,
            "v_5^1 w_5^1 v_1^2 w_1^2 v_2^2 w_2^2 v_3^2 w_3^2 v_4^2 w_4^2 v_5^2 w_5^2",
        )
        assert trace.rest_order == order
        expected = [
            (2, 3),
            (2, 3, 4),
            (3,),
            (1, 4),
            (2, 3),
            (2, 4),
            (1, 3),
            (1, 4),
            (1, 2),
            (1, 2, 4),
            (1, 3),
            (1, 4),
        ]
        assert [trace.lists_after_modify[v] for v in order] == expected

    def test_final_stage_colours(self, run):
        bundle, trace, coloring = run
        assert [coloring.colors[v] for v in trace.rest_order] == [
            2, 3, 3, 1, 2, 4, 1, 4, 1, 2, 1, 4,
        ]

    def test_complete_colouring_table(self, run):
        bundle, _, coloring = run
        rows = {
            "w": {1: [2, 2, 2, 3, 3], 2: [1, 4, 4, 2, 4]},
            "v": {1: [1, 1, 1, 2, 2], 2: [3, 2, 1, 1, 1]},
        }
        for kind, per_copy in rows.items():
            for copy, colours in per_copy.items():
                for j, c in enumerate(colours, start=1):
                    v = bundle.id_of(f"{kind}_{j}^{copy}")
                    assert coloring.colors[v] == c, f"{kind}_{j}^{copy}"

    def test_result_verifies(self, run):
        bundle, _, coloring = run
        verdict = verify_equitable_list_coloring(
            bundle.graph, bundle.lists, 3, coloring, 3
        )
        assert verdict.valid

    def test_class_sizes_respect_cap(self, run):
        _, _, coloring = run
        sizes = sorted(map(len, colour_classes(coloring).values()))
        assert max(sizes) <= math.ceil(20 / 3)


class TestPipelineBehaviour:
    def test_deterministic_by_default(self):
        bundle = gen_example2()
        a = equitable_coloring(bundle.graph, bundle.partition, bundle.lists)
        b = equitable_coloring(bundle.graph, bundle.partition, bundle.lists)
        assert a.colors == b.colors

    def test_seeded_runs_repeat_with_same_seed(self):
        bundle = gen_example2()
        a = equitable_coloring(
            bundle.graph, bundle.partition, bundle.lists, seed=11
        )
        b = equitable_coloring(
            bundle.graph, bundle.partition, bundle.lists, seed=11
        )
        assert a.colors == b.colors

    def test_seeded_runs_stay_valid(self):
        bundle = gen_example2()
        for seed in range(12):
            coloring = equitable_coloring(
                bundle.graph,
                bundle.partition,
                bundle.lists,
                seed=seed,
                debug=True,
            )
            verdict = verify_equitable_list_coloring(
                bundle.graph, bundle.lists, 3, coloring, 3
            )
            assert verdict.valid, f"seed {seed}: {verdict.violation}"

    def test_rejects_bad_configuration(self):
        bundle = gen_example2()
        with pytest.raises(InputError):
            equitable_coloring(
                bundle.graph,
                KdPartition(2, 3, [[0], [1, 2]]),
                bundle.lists,
            )
        skinny = ListAssignment(1, {v: [1] for v in range(20)})
        with pytest.raises(InputError):
            equitable_coloring(bundle.graph, bundle.partition, skinny)

    def test_rejects_the_empty_graph(self):
        with pytest.raises(InputError) as exc:
            equitable_coloring(Graph(0), KdPartition(1, 1, []), ListAssignment(1, {}))
        assert str(exc.value) == "graph must have at least one vertex"

    def test_planted_instances_with_random_lists(self):
        rng = random.Random(808)
        for _ in range(40):
            n = rng.randint(6, 32)
            k = rng.randint(1, 4)
            d = rng.randint(1, 3)
            bundle = gen_planted_partition(n, k, d, seed=rng.randrange(2**30))
            t = rng.randint(k, k + 3)
            lists = ListAssignment.uniform_random(n, t, 2 * t, rng)
            coloring = equitable_coloring(
                bundle.graph, bundle.partition, lists, debug=True
            )
            verdict = verify_equitable_list_coloring(
                bundle.graph, lists, t, coloring, d
            )
            assert verdict.valid, verdict.violation

    def test_no_vertex_joins_d_earlier_neighbours_of_its_colour(self):
        # Coloring.colors is filled in colouring order, so this order is a
        # smallest-last certificate that every class is (d-1)-degenerate.
        rng = random.Random(1616)
        instances = []
        for _ in range(30):
            n, k, d = rng.randint(10, 60), rng.randint(1, 4), rng.randint(1, 3)
            bundle = gen_planted_partition(n, k, d, seed=rng.randrange(2**30))
            instances.append((bundle.graph, bundle.partition))
        for dims in [(2, 3, 4), (3, 3, 3), (2, 5, 6), (4, 4, 5)]:
            instances.append((make_grid(dims)[0], partition3d(dims)))
        for g, p in instances:
            for seed in (None, rng.randrange(2**30)):
                t = rng.randint(p.k, p.k + 3)
                lists = ListAssignment.uniform_random(g.n, t, 2 * t, rng)
                colors = equitable_coloring(g, p, lists, seed=seed).colors
                earlier = set()
                for v, c in colors.items():
                    same = [w for w in g.neighbors(v) if w in earlier and colors[w] == c]
                    assert len(same) <= p.d - 1, (v, c, same)
                    earlier.add(v)
                assert len(earlier) == g.n

    def test_debug_catches_a_repeated_colour_in_a_size_t_group(self, monkeypatch):
        monkeypatch.setattr("eqcolor.coloring.modify_colour_lists", lambda *args: None)
        for seed in range(5):
            bundle = gen_planted_partition(60, 3, 2, seed=seed)
            lists = ListAssignment.uniform_random(60, 4, 8, random.Random(seed))
            equitable_coloring(bundle.graph, bundle.partition, lists)  # the floors still hold
            with pytest.raises(InvariantError, match="^repeated colour inside a size-t group$"):
                equitable_coloring(bundle.graph, bundle.partition, lists, debug=True)

    def test_missing_lists_name_the_smallest_vertex(self):
        bundle = gen_planted_partition(10, 2, 2, seed=1)
        lists = ListAssignment(2, {v: [1, 2] for v in range(10) if v not in (3, 7)})
        message = "list assignment misses vertex 3"
        with pytest.raises(InputError, match=f"^{message}$"):
            AlgorithmState(bundle.graph, lists, 2, 2, later=bundle.graph._adj)
        with pytest.raises(InputError, match=f"^{message}$"):
            equitable_coloring(bundle.graph, bundle.partition, lists)

    def test_degree_bound_zeroed_after_construction(self):
        p = KdPartition(3, 1, [[0, 1, 2]])
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.d = 0
        lists = ListAssignment(3, {v: [1, 2, 3] for v in range(3)})
        assert equitable_coloring(Graph(3), p, lists).colors == {2: 1, 1: 2, 0: 3}

    def test_single_vertex_graph(self):
        g = Graph(1)
        p = KdPartition(1, 1, [[0]])
        coloring = equitable_coloring(g, p, ListAssignment(1, {0: [5]}))
        assert coloring.colors == {0: 5}


class TestVerifyOnce:
    """equitable_coloring re-verifies only a partition not stamped for g."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        import eqcolor.coloring

        made = []
        original = eqcolor.coloring.verify_kd_partition

        def counting(g, p):
            made.append(p)
            return original(g, p)

        monkeypatch.setattr(eqcolor.coloring, "verify_kd_partition", counting)
        return made

    def path_case(self):
        # Layer 2 ordered [3, 2] is valid for d = 1; [2, 3] is not.
        lists = ListAssignment(2, {v: [1, 2] for v in range(4)})
        return path(4), KdPartition(2, 1, [[0, 1], [3, 2]]), lists

    def test_verified_partition_is_not_checked_again(self, calls):
        bundle = gen_example2()
        p = KdPartition(bundle.partition.k, bundle.partition.d, bundle.partition.layers)
        assert verify_kd_partition(bundle.graph, p).valid
        first = equitable_coloring(bundle.graph, p, bundle.lists)
        for _ in range(2):
            assert equitable_coloring(bundle.graph, p, bundle.lists) == first
        assert calls == []

    def test_unverified_partition_is_checked_once(self, calls):
        g, p, lists = self.path_case()
        for _ in range(3):
            equitable_coloring(g, p, lists)
        assert len(calls) == 1

    def test_layers_changed_after_verification(self, calls):
        # p.layers is a copy: swapping its layer-2 order (invalid for d = 1)
        # changes neither p nor its colouring, and nothing is verified again.
        g, p, lists = self.path_case()
        assert verify_kd_partition(g, p).valid
        first = equitable_coloring(g, p, lists)
        layers = p.layers
        layers[1][0], layers[1][1] = layers[1][1], layers[1][0]
        assert p.layers == [[0, 1], [3, 2]]
        assert equitable_coloring(g, p, lists) == first
        assert calls == []

    def test_degree_bound_changed_after_verification(self, calls):
        g, _, lists = self.path_case()
        p = KdPartition(2, 2, [[0, 1], [2, 3]])
        assert verify_kd_partition(g, p).valid
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.d = 1  # [2, 3] would not fit d = 1
        assert p.d == 2
        equitable_coloring(g, p, lists)
        assert calls == []

    def test_equal_but_distinct_graph_is_checked(self, calls):
        g, p, lists = self.path_case()
        assert verify_kd_partition(g, p).valid
        twin = path(4)
        assert twin == g
        equitable_coloring(twin, p, lists)
        equitable_coloring(twin, p, lists)
        assert len(calls) == 1  # the pass on twin re-stamps p

    def test_failing_verdict_stamps_nothing(self, calls):
        g, _, lists = self.path_case()
        p = KdPartition(2, 1, [[0, 1], [2, 3]])
        assert not verify_kd_partition(g, p).valid
        assert p._verified is None
        for _ in range(2):
            with pytest.raises(InputError):
                equitable_coloring(g, p, lists)
        assert len(calls) == 2

    def test_another_graph_rebuilds_the_plan(self, calls):
        g, p, lists = self.path_case()
        # p also verifies on other, a path without the edge 1-2. With the
        # path's plan kept, colouring vertex 1 would prune vertex 2's list
        # and vertices 2 and 3 would swap colours.
        other = Graph(4, [(0, 1), (2, 3)])
        assert equitable_coloring(g, p, lists).colors == {0: 2, 1: 1, 2: 2, 3: 1}
        fresh = equitable_coloring(other, KdPartition(2, 1, [[0, 1], [3, 2]]), lists)
        assert fresh.colors == {0: 2, 1: 1, 2: 1, 3: 2}
        assert equitable_coloring(other, p, lists) == fresh
        assert p._verified[0] is other
        assert p._verified[1] == _later_neighbours(other, p.layers)
        assert len(calls) == 3  # p on g, the fresh partition, and p on other

    def test_stamp_is_invisible(self):
        g, p, _ = self.path_case()
        before = repr(p), hash(p)
        assert verify_kd_partition(g, p).valid
        assert p._verified is not None
        assert p == KdPartition(p.k, p.d, p.layers)
        assert (repr(p), hash(p)) == before


class TestPlan:
    """The cached plan holds each vertex's neighbours after it in the processing order."""

    @staticmethod
    def cases():
        rng = random.Random(1919)
        for _ in range(20):
            n, k, d = rng.randint(5, 80), rng.randint(1, 4), rng.randint(1, 3)
            bundle = gen_planted_partition(n, k, d, seed=rng.randrange(2**30))
            yield bundle.graph, bundle.partition
        for dims in [(2, 3, 4), (3, 3, 3), (4, 3, 5)]:
            yield make_grid(dims)[0], partition3d(dims)

    def test_later_neighbours_follow_the_processing_order(self):
        for g, p in self.cases():
            order = list(itertools.chain.from_iterable(map(reversed, p.layers)))
            index = {v: i for i, v in enumerate(order)}
            expected = [tuple(w for w in g.neighbors(v) if index[w] > index[v]) for v in range(g.n)]
            assert _later_neighbours(g, p.layers) == expected
            equitable_coloring(g, p, ListAssignment.uniform_random(g.n, p.k, 2 * p.k, random.Random(1)))
            assert p._verified[1] == expected  # the colouring cached the same plan

    def test_full_adjacency_gives_the_same_colourings(self, monkeypatch):
        # Pruning a coloured neighbour's list changes nothing that is read again.
        import eqcolor.coloring

        built = []

        def full_adjacency(g, layers):
            built.append(g)
            return g._adj

        monkeypatch.setattr(eqcolor.coloring, "_later_neighbours", full_adjacency)
        test_colourings_match_the_pinned_digest()
        assert len(built) == 34  # one plan per pinned graph, reused by its 12 runs


class TestVerifier:
    def make_valid(self):
        g = path(3)
        lists = ListAssignment(2, {0: [1, 2], 1: [1, 2], 2: [1, 2]})
        return g, lists, Coloring({0: 1, 1: 2, 2: 1})

    def test_accepts_valid_colouring(self):
        g, lists, coloring = self.make_valid()
        assert verify_equitable_list_coloring(g, lists, 2, coloring, 1).valid

    def test_uncoloured_vertex(self):
        g, lists, _ = self.make_valid()
        verdict = verify_equitable_list_coloring(g, lists, 2, Coloring({0: 1, 2: 1}), 1)
        assert not verdict.valid
        assert verdict.violation.clause == "domain"
        assert verdict.violation.vertex == 1

    def test_colour_outside_list(self):
        g, lists, _ = self.make_valid()
        verdict = verify_equitable_list_coloring(
            g, lists, 2, Coloring({0: 1, 1: 9, 2: 1}), 1
        )
        assert not verdict.valid
        assert verdict.violation.clause == "list"
        assert verdict.violation.vertex == 1
        assert verdict.violation.color == 9

    def test_oversized_class(self):
        g = Graph(4)
        lists = ListAssignment(2, {v: [1, 2] for v in range(4)})
        verdict = verify_equitable_list_coloring(
            g, lists, 2, Coloring({0: 1, 1: 1, 2: 1, 3: 2}), 1
        )
        assert not verdict.valid
        assert verdict.violation.clause == "size"
        assert verdict.violation.color == 1

    def test_class_degeneracy(self):
        g = Graph(2, [(0, 1)])
        lists = ListAssignment(1, {0: [1], 1: [1]})
        verdict = verify_equitable_list_coloring(
            g, lists, 1, Coloring({0: 1, 1: 1}), 1
        )
        assert not verdict.valid
        assert verdict.violation.clause == "degeneracy"

    def test_foreign_vertex_is_a_domain_violation(self):
        g = Graph(2)
        lists = ListAssignment(2, {0: [1, 2], 1: [1, 2]})
        verdict = verify_equitable_list_coloring(
            g, lists, 2, Coloring({0: 1, 1: 2, 99: 7}), 1
        )
        assert not verdict.valid
        assert verdict.violation.clause == "domain"
        assert verdict.violation.vertex == 99

    @pytest.mark.parametrize("key", [True, 1.0])
    def test_non_int_key_is_a_domain_violation(self, key):
        # key == 1, so vertex 1 looks coloured and the count matches n.
        g = Graph(2, [(0, 1)])
        lists = ListAssignment(2, {0: [1, 2], 1: [1, 2]})
        verdict = verify_equitable_list_coloring(g, lists, 2, Coloring({0: 1, key: 2}), 1)
        assert not verdict.valid
        assert verdict.violation.clause == "domain"
        assert verdict.violation.message == f"vertex {key!r} is not in the graph"
        assert type(verdict.violation.vertex) is type(key)

    @pytest.mark.parametrize("colour", [True, 1.0])
    def test_non_int_colour_is_a_list_violation(self, colour):
        # colour == 1, which is in vertex 0's list.
        g = Graph(2, [(0, 1)])
        lists = ListAssignment(2, {0: [1, 2], 1: [1, 2]})
        verdict = verify_equitable_list_coloring(g, lists, 2, Coloring({0: colour, 1: 2}), 1)
        assert not verdict.valid
        assert verdict.violation.clause == "list"
        assert verdict.violation.vertex == 0
        assert type(verdict.violation.color) is type(colour)

    def test_first_uncoloured_vertex_is_named(self):
        g = path(5)
        lists = ListAssignment(2, {v: [1, 2] for v in range(5)})
        verdict = verify_equitable_list_coloring(g, lists, 2, Coloring({0: 1, 2: 1, 4: 1}), 1)
        assert (verdict.violation.clause, verdict.violation.vertex) == ("domain", 1)

    @pytest.mark.parametrize(
        "colors, vertex, colour",
        [
            ({0: 1, 1: 9, 2: 8, 3: 1, 4: 7}, 1, 9),
            ({0: 1, 1: 2, 2: True, 3: 9, 4: 1.0}, 2, True),
            ({0: 1, 1: 2, 2: 1, 3: 9, 4: True}, 3, 9),
            ({0: 5, 1: 2, 2: 1, 3: 2, 4: 6}, 0, 5),
        ],
    )
    def test_first_colour_outside_its_list_is_named(self, colors, vertex, colour):
        g = path(5)
        lists = ListAssignment(2, {v: [1, 2] for v in range(5)})
        verdict = verify_equitable_list_coloring(g, lists, 2, Coloring(colors), 1)
        violation = verdict.violation
        assert (violation.clause, violation.vertex, violation.color) == ("list", vertex, colour)
        assert type(violation.color) is type(colour)

    def test_smallest_failing_class_is_reported_among_loners(self):
        # Two triangles fail d = 2: vertices 0-2 wear 5, vertices 4-6 wear 3.
        # Vertices 3 and 7-9 have no neighbour of their own colour.
        edges = [(0, 1), (1, 2), (0, 2), (4, 5), (5, 6), (4, 6)]
        edges += [(2, 3), (3, 4), (6, 7), (7, 8), (8, 9), (9, 0)]
        g = Graph(10, edges)
        colors = {0: 5, 1: 5, 2: 5, 3: 1, 4: 3, 5: 3, 6: 3, 7: 2, 8: 4, 9: 2}
        lists = ListAssignment(3, {v: [c, 6, 7] for v, c in colors.items()})
        verdict = verify_equitable_list_coloring(g, lists, 3, Coloring(colors), 2)
        assert (verdict.violation.clause, verdict.violation.color) == ("degeneracy", 3)
        assert verdict == verify_coloring_by_classes(g, lists, 3, Coloring(colors), 2)

    def test_domain_reported_before_list(self):
        g, lists, _ = self.make_valid()
        verdict = verify_equitable_list_coloring(g, lists, 2, Coloring({0: 9}), 1)
        assert verdict.violation.clause == "domain"

    def test_parameter_validation(self):
        g, lists, coloring = self.make_valid()
        with pytest.raises(InputError):
            verify_equitable_list_coloring(g, lists, 0, coloring, 1)
        with pytest.raises(InputError):
            verify_equitable_list_coloring(g, lists, 2, coloring, 0)

    def test_matches_subset_oracle_on_random_colourings(self):
        rng = random.Random(6006)
        agreements = 0
        for _ in range(120):
            n = rng.randint(1, 8)
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.5
            ]
            g = Graph(n, edges)
            t = rng.randint(1, 3)
            d = rng.randint(1, 2)
            lists = ListAssignment.uniform_random(n, t, t + 2, rng)
            colors = {v: rng.choice(lists[v]) for v in range(n)}
            if rng.random() < 0.2 and n > 1:
                del colors[rng.randrange(n)]
            fast = verify_equitable_list_coloring(g, lists, t, Coloring(colors), d)
            slow = verify_coloring_by_subsets(g, lists, t, Coloring(colors), d)
            assert fast.valid == slow.valid
            agreements += fast.valid
        assert 0 < agreements < 120

    @staticmethod
    def planted_case(rng):
        """A random colouring with planted faults: the lists are built around it."""
        n = rng.randint(1, 12)
        d = rng.randint(1, 3)
        t = rng.randint(1, max(1, n // (d + 1)))
        palette = t + 3
        edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3}
        colors = {v: rng.randint(1, palette) for v in range(n)}
        # Make a few classes non-degenerate on purpose: a (d+1)-clique in
        # one colour has minimum degree d > d-1.
        for _ in range(rng.choice((0, 1, 2, 3))):
            if n > d:
                clique = rng.sample(range(n), d + 1)
                colour = rng.randint(1, palette)
                edges.update((min(u, v), max(u, v)) for u, v in itertools.combinations(clique, 2))
                colors.update(dict.fromkeys(clique, colour))
        if rng.random() < 0.15:  # oversized class
            colors.update(dict.fromkeys(rng.sample(range(n), n // 2 + 1), rng.randint(1, palette)))
        lists = {}
        for v in range(n):
            others = [c for c in range(1, palette + 1) if c != colors[v]]
            lists[v] = [colors[v], *rng.sample(others, t - 1)]
        if rng.random() < 0.1:  # colour outside the list
            colors[rng.randrange(n)] = palette + 1
        if rng.random() < 0.1:
            colors[n + rng.randrange(3)] = 1  # foreign vertex
        if rng.random() < 0.1:
            del colors[rng.randrange(n)]
        return Graph(n, sorted(edges)), ListAssignment(t, lists), t, Coloring(colors), d

    def test_matches_per_class_reference_on_planted_faults(self):
        rng = random.Random(4004)
        clauses = collections.Counter()
        for _ in range(600):
            g, lists, t, coloring, d = self.planted_case(rng)
            fast = verify_equitable_list_coloring(g, lists, t, coloring, d)
            assert fast == verify_coloring_by_classes(g, lists, t, coloring, d)
            assert fast.valid == verify_coloring_by_subsets(g, lists, t, coloring, d).valid
            clauses[None if fast.valid else fast.violation.clause] += 1
            if not fast.valid and fast.violation.clause == "degeneracy":
                members = colour_classes(coloring)
                failing = [
                    c for c, vs in members.items()
                    if not is_d_degenerate(induced_subgraph(g, vs)[0], d - 1)
                ]
                # With two or more failing classes the smallest is reported.
                clauses["several"] += len(failing) > 1
        assert set(clauses) == {None, "domain", "list", "size", "degeneracy", "several"}, clauses


class TestBruteForce:
    def test_edge_with_one_shared_colour(self):
        g = Graph(2, [(0, 1)])
        lists = ListAssignment(1, {0: [1], 1: [1]})
        assert brute_force_equitable_coloring(g, lists, 1, 1) is None
        found = brute_force_equitable_coloring(g, lists, 1, 2)
        assert found is not None
        assert found.colors == {0: 1, 1: 1}
        assert verify_equitable_list_coloring(g, lists, 1, found, 2).valid

    def test_three_vertex_path(self):
        g = path(3)
        lists = ListAssignment(2, {v: [1, 2] for v in range(3)})
        found = brute_force_equitable_coloring(g, lists, 2, 1)
        assert found is not None
        assert verify_equitable_list_coloring(g, lists, 2, found, 1).valid

    def test_agrees_with_exhaustive_product(self):
        rng = random.Random(515)
        for _ in range(60):
            n = rng.randint(1, 4)
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.6
            ]
            g = Graph(n, edges)
            t = rng.randint(1, 2)
            d = rng.randint(1, 2)
            lists = ListAssignment.uniform_random(n, t, t + 1, rng)
            found = brute_force_equitable_coloring(g, lists, t, d)
            exists = any(
                verify_equitable_list_coloring(
                    g, lists, t, Coloring(dict(zip(range(n), combo))), d
                ).valid
                for combo in itertools.product(*(lists[v] for v in range(n)))
            )
            assert (found is not None) == exists
            if found is not None:
                assert verify_equitable_list_coloring(g, lists, t, found, d).valid

    def test_empty_graph(self):
        found = brute_force_equitable_coloring(Graph(0), ListAssignment(1, {}), 1, 1)
        assert found is not None and found.colors == {}


# SHA-256 of _pinned_runs(), recorded on the reference implementation.
# Any change to a default or seeded colouring, or to a RunTrace field,
# changes it.
PINNED = "4144dda467c341c95e67d86a5316e5b80b3639b1d45d5542409e777e0d5cc1f5"


def _pinned_runs():
    """Colourings and traces of 408 seeded runs, one repr per run.

    34 graphs (30 planted, 4 grids), three t >= k each, both tie-breaks,
    debug off and on.
    """
    rng = random.Random(2610)
    graphs = []
    for _ in range(30):
        n, k, d = rng.randint(8, 60), rng.randint(1, 4), rng.randint(1, 3)
        bundle = gen_planted_partition(n, k, d, seed=rng.randrange(2**30))
        graphs.append((bundle.graph, bundle.partition))
    for dims in [(2, 2, 2), (2, 3, 4), (3, 3, 3), (4, 3, 5)]:
        graphs.append((make_grid(dims)[0], partition3d(dims)))
    for g, p in graphs:
        for t in (p.k, p.k + 1, p.k + 3):
            lists = ListAssignment.uniform_random(g.n, t, 2 * t, rng)
            seed = rng.randrange(2**30)
            for tie_break in ("smallest", "seeded"):
                for debug in (False, True):
                    trace = RunTrace()
                    coloring = equitable_coloring(
                        g, p, lists, seed=seed if tie_break == "seeded" else None,
                        debug=debug, trace=trace,
                    )
                    fields = dataclasses.astuple(trace)  # ends with the lists_after_modify dict
                    yield repr((sorted(coloring.colors.items()), fields[:-1], sorted(fields[-1].items())))


def test_colourings_match_the_pinned_digest():
    """Every colouring and RunTrace field is the one the reference code produced."""
    digest = hashlib.sha256()
    for line in _pinned_runs():
        digest.update(line.encode())
        digest.update(b"\n")
    assert digest.hexdigest() == PINNED

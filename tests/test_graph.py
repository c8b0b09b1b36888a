from __future__ import annotations

from random import Random

import pytest

from eqcolor import (
    Graph,
    InputError,
    degeneracy,
    is_d_degenerate,
)
from eqcolor.graph import induced_subgraph
from oracles import degeneracy_by_subsets, degenerate_by_peeling, degenerate_by_subsets


def path(n: int) -> Graph:
    return Graph(n, [(v, v + 1) for v in range(n - 1)])


def cycle(n: int) -> Graph:
    return Graph(n, [(v, (v + 1) % n) for v in range(n)])


def complete(n: int) -> Graph:
    return Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


class TestGraph:
    def test_basic_shape(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.n == 3
        assert g.edge_count() == 2
        assert g.neighbors(1) == (0, 2)
        assert g.degree(1) == 2
        assert g.degree(0) == 1
        assert g.adjacent(0, 1)
        assert not g.adjacent(0, 2)

    def test_neighbors_of_path_middle(self):
        g = path(3)
        assert set(g.neighbors(1)) == {0, 2}

    def test_neighbors_in_complete_graph(self):
        g = complete(6)
        for v in range(6):
            assert set(g.neighbors(v)) == set(range(6)) - {v}

    def test_parallel_edges_collapse(self):
        g = Graph(2, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count() == 1

    def test_self_loop_rejected(self):
        with pytest.raises(InputError):
            Graph(2, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            Graph(2, [(0, 2)])
        with pytest.raises(InputError):
            Graph(2, [(-1, 0)])
        with pytest.raises(InputError):
            g = Graph(2, [])
            g.neighbors(5)

    def test_symmetry(self):
        rng = Random(5)
        for _ in range(50):
            n = rng.randint(1, 12)
            edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.4]
            g = Graph(n, edges)
            for u in range(n):
                for v in g.neighbors(u):
                    assert g.adjacent(v, u)
            assert sum(g.degree(v) for v in range(n)) == 2 * g.edge_count()

    def test_equality(self):
        assert Graph(3, [(0, 1)]) == Graph(3, [(1, 0)])
        assert Graph(3, [(0, 1)]) != Graph(3, [(0, 2)])
        assert Graph(2, []) != Graph(3, [])


class TestInducedSubgraph:
    def test_empty_selection(self):
        sub, mapping = induced_subgraph(complete(4), [])
        assert sub.n == 0
        assert mapping == []

    def test_triangle_from_k4(self):
        sub, mapping = induced_subgraph(complete(4), [0, 2, 3])
        assert sub == complete(3)
        assert mapping == [0, 2, 3]

    def test_mapping_translates_back(self):
        g = Graph(5, [(0, 3), (3, 4), (1, 2)])
        sub, mapping = induced_subgraph(g, [0, 3, 4])
        assert sub.edge_count() == 2
        back = {(mapping[u], mapping[v]) for u, v in sub.edges()}
        assert back == {(0, 3), (3, 4)}

    def test_duplicate_vertices_collapse(self):
        sub, mapping = induced_subgraph(complete(3), [0, 0, 2])
        assert sub.n == 2
        assert mapping == [0, 2]


class TestDegeneracy:
    def test_edgeless_is_zero_degenerate(self):
        assert is_d_degenerate(Graph(4, []), 0)

    def test_trees_are_one_degenerate(self):
        star = Graph(5, [(0, v) for v in range(1, 5)])
        assert is_d_degenerate(star, 1)
        assert is_d_degenerate(path(7), 1)

    def test_cycle_needs_two(self):
        assert not is_d_degenerate(cycle(5), 1)
        assert is_d_degenerate(cycle(5), 2)

    def test_negative_d_rejected(self):
        with pytest.raises(InputError):
            is_d_degenerate(path(2), -1)

    def test_degeneracy_values(self):
        assert degeneracy(path(4)) == 1
        assert degeneracy(Graph(0, [])) == 0
        assert degeneracy(Graph(3, [])) == 0
        assert degeneracy(complete(6)) == 5
        assert degeneracy(cycle(9)) == 2

    def test_monotone_in_d(self):
        rng = Random(31)
        for _ in range(40):
            n = rng.randint(1, 10)
            edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.5]
            g = Graph(n, edges)
            for d in range(n + 1):
                assert is_d_degenerate(g, d) == degenerate_by_subsets(g, d)

    def test_against_subset_oracle(self):
        rng = Random(77)
        for _ in range(300):
            n = rng.randint(1, 10)
            p = rng.choice([0.15, 0.35, 0.6, 0.9])
            edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
            g = Graph(n, edges)
            assert degeneracy(g) == degeneracy_by_subsets(g)

    def test_is_the_least_passing_peel_bound(self):
        # Larger graphs than the subset oracle can take: the value is the
        # smallest d for which peeling at degree <= d empties the graph.
        rng = Random(2718)
        for _ in range(40):
            n = rng.randint(1, 200)
            p = rng.choice((0.01, 0.05, 0.2, 0.6))
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
            dg = degeneracy(g)
            assert degenerate_by_peeling(g, dg)
            assert dg == 0 or not degenerate_by_peeling(g, dg - 1)

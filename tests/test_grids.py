from __future__ import annotations

import hashlib
import itertools
import json
import math
import random

import pytest

from eqcolor import (
    GridSpec,
    InputError,
    make_grid,
    partition3d,
    verify_kd_partition,
)


class TestGridSpec:
    def test_sorts_dimensions_descending(self):
        spec = GridSpec.from_dims((2, 3, 5))
        assert spec.dims == (5, 3, 2)
        assert spec.original_dims == (2, 3, 5)
        assert spec.axes == (2, 1, 0)

    def test_equal_dimensions_keep_input_order(self):
        spec = GridSpec.from_dims((3, 3, 2))
        assert spec.dims == (3, 3, 2)
        assert spec.axes == (0, 1, 2)

    def test_id_coord_roundtrip(self):
        spec = GridSpec.from_dims((3, 4, 2))
        seen = set()
        for vid in range(spec.n):
            coord = spec.coord_of(vid)
            assert spec.id_of(coord) == vid
            seen.add(coord)
        assert len(seen) == 24

    def test_ids_are_row_major_in_sorted_order(self):
        spec = GridSpec.from_dims((2, 3))
        # sorted dims (3, 2): last axis varies fastest
        assert spec.id_of((1, 1)) == 0
        assert spec.id_of((1, 2)) == 1
        assert spec.id_of((2, 1)) == 2

    def test_labels_use_original_axis_order(self):
        spec = GridSpec.from_dims((2, 5))
        vid = spec.id_of((4, 2))  # sorted coord: first axis is the size-5 one
        assert spec.label_of(vid) == "(2,4)"

    def test_rejects_bad_dimensions(self):
        for dims in ((), (1, 3), (0,), (2, True), (2.0, 3)):
            with pytest.raises(InputError):
                GridSpec.from_dims(dims)

    def test_rejects_bad_coordinates(self):
        spec = GridSpec.from_dims((3, 3))
        with pytest.raises(InputError):
            spec.id_of((1, 1, 1))
        with pytest.raises(InputError):
            spec.id_of((0, 2))
        with pytest.raises(InputError):
            spec.coord_of(9)


class TestMakeGrid:
    def test_two_by_two_is_a_four_cycle(self):
        g, _ = make_grid((2, 2))
        assert g.n == 4
        assert g.edge_count() == 4
        assert all(g.degree(v) == 2 for v in range(4))

    def test_showcase_grid_counts(self):
        g, spec = make_grid((5, 3, 2))
        assert g.n == 30
        assert g.edge_count() == 59
        assert g.degree(spec.id_of((1, 1, 1))) == 3

    def test_edge_count_formula(self):
        rng = random.Random(9)
        for _ in range(25):
            dims = tuple(rng.randint(2, 6) for _ in range(rng.randint(1, 4)))
            g, _ = make_grid(dims)
            expected = sum(
                (s - 1) * math.prod(dims) // s for s in dims
            )
            assert g.edge_count() == expected

    def test_neighbours_differ_in_exactly_one_axis(self):
        g, spec = make_grid((3, 3, 2))
        for u, v in g.edges():
            cu, cv = spec.coord_of(u), spec.coord_of(v)
            diffs = [abs(a - b) for a, b in zip(cu, cv)]
            assert sorted(diffs) == [0, 0, 1]

    def test_edges_match_coordinate_reference(self):
        sweep = [
            (a, b, c)
            for c in range(2, 7)
            for b in range(c, 13)
            for a in range(b, 151)
            if 8 <= a * b * c <= 300
        ]
        assert len(sweep) == 401
        others = [(2,), (7,), (2, 2), (3, 5), (9, 2), (2, 3, 2, 2), (4, 2, 3, 3), (3, 3, 3, 3)]
        for dims in sweep + others:
            # Ids count coordinates row-major over the dims sorted in
            # descending order, equal dims keeping their input order.
            shape = sorted(dims, reverse=True)
            coords = list(itertools.product(*(range(s) for s in shape)))
            index = {coord: vid for vid, coord in enumerate(coords)}
            expected = sorted(
                (index[coord], index[coord[:axis] + (c + 1,) + coord[axis + 1 :]])
                for coord in coords
                for axis, c in enumerate(coord)
                if c + 1 < shape[axis]
            )
            g, _ = make_grid(dims)
            assert g.n == len(coords)
            assert g.edges() == expected, dims

    def test_max_degree_bound(self):
        g, _ = make_grid((4, 4, 4))
        assert max(g.degree(v) for v in range(g.n)) == 6


class TestPartition3d:
    def test_smallest_cube(self):
        p = partition3d((2, 2, 2))
        assert p.k == 3 and p.d == 2
        assert len(p.layers) == 3
        assert len(p.layers[0]) == 2
        g, _ = make_grid((2, 2, 2))
        assert verify_kd_partition(g, p).valid

    def test_small_dimension_sweep(self):
        for dims in itertools.combinations_with_replacement(range(2, 7), 3):
            p = partition3d(dims)
            g, _ = make_grid(dims)
            verdict = verify_kd_partition(g, p)
            assert verdict.valid, f"{dims}: {verdict.violation}"

    def test_positional_degree_bounds(self):
        # stronger than the d*i - 1 caps the verifier enforces
        for dims in ((4, 4, 4), (5, 3, 2), (2, 2, 9), (6, 5, 4)):
            p = partition3d(dims)
            g, _ = make_grid(dims)
            earlier: set[int] = set()
            for j, layer in enumerate(p.layers):
                if j > 0:
                    for i, v in enumerate(layer):
                        back = len(g.neighbor_set(v) & earlier)
                        assert back <= (1, 3, 4)[i], (dims, j, i)
                earlier.update(layer)

    def test_layers_match_recorded_digest(self):
        # Pins every layer and its stored order (the certificate the
        # verifier reads), not just validity: any changed layer shows.
        sweep = [
            (a, b, c)
            for c in range(2, 7)
            for b in range(c, 13)
            for a in range(b, 151)
            if 8 <= a * b * c <= 300
        ]
        assert len(sweep) == 401
        digest = hashlib.sha256()
        for dims in sweep + list(itertools.combinations_with_replacement(range(2, 7), 3)):
            layers = partition3d(dims).layers
            digest.update(json.dumps([list(dims), layers]).encode())
        assert digest.hexdigest() == (
            "66e10a7f51deb88b4c0a816c72ebf8964e004ba71ab91662150a583a0cb8bf92"
        )

    def test_dimension_order_does_not_matter(self):
        assert partition3d((2, 3, 5)) == partition3d((5, 3, 2))

    def test_rejects_other_dimensionalities(self):
        with pytest.raises(InputError):
            partition3d((2, 2))
        with pytest.raises(InputError):
            partition3d((2, 2, 2, 2))

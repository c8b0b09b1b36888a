"""Multidimensional grid graphs and the direct 3-layer partition for them.

Grid vertices are numbered lexicographically by coordinate after sorting
the dimensions in descending order; a slowest-varying first coordinate
keeps the layer structure used by the partitioner aligned with ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product, starmap

from .errors import InputError, InvariantError
from .graph import Graph
from .partition import KdPartition


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a grid: sorted dims, axis permutation, id layout."""

    dims: tuple[int, ...]
    original_dims: tuple[int, ...]
    axes: tuple[int, ...]
    strides: tuple[int, ...]

    @classmethod
    def from_dims(cls, dims: tuple[int, ...] | list[int]) -> "GridSpec":
        original = tuple(dims)
        if not original:
            raise InputError("grid needs at least one dimension")
        for s in original:
            if type(s) is not int or s < 2:
                raise InputError(f"every grid dimension must be an integer >= 2, got {s!r}")
        # Stable descending sort so equal dims keep their input order.
        axes = tuple(sorted(range(len(original)), key=lambda i: -original[i]))
        sorted_dims = tuple(original[a] for a in axes)
        strides = [1] * len(sorted_dims)
        for i in range(len(sorted_dims) - 2, -1, -1):
            strides[i] = strides[i + 1] * sorted_dims[i + 1]
        return cls(dims=sorted_dims, original_dims=original, axes=axes, strides=tuple(strides))

    @property
    def n(self) -> int:
        return math.prod(self.dims)

    def id_of(self, coord: tuple[int, ...]) -> int:
        """Vertex id of a 1-based coordinate in sorted-axis order."""
        if len(coord) != len(self.dims):
            raise InputError(f"coordinate {coord} has wrong arity")
        vid = 0
        for c, size, stride in zip(coord, self.dims, self.strides):
            if not 1 <= c <= size:
                raise InputError(f"coordinate {coord} leaves the grid")
            vid += (c - 1) * stride
        return vid

    def coord_of(self, vid: int) -> tuple[int, ...]:
        """1-based coordinate in sorted-axis order."""
        if not 0 <= vid < self.n:
            raise InputError(f"vertex {vid} outside grid of {self.n} vertices")
        coord = []
        for stride in self.strides:
            c, vid = divmod(vid, stride)
            coord.append(c + 1)
        return tuple(coord)

    def labels(self) -> list[str]:
        """Every vertex's coordinate in the original axis order, by id."""
        fields = [""] * len(self.axes)
        for pos, axis in enumerate(self.axes):
            fields[axis] = "{%d}" % pos
        template = "(" + ",".join(fields) + ")"
        return list(starmap(template.format, product(*(range(1, s + 1) for s in self.dims))))


def make_grid(dims: tuple[int, ...] | list[int]) -> tuple[Graph, GridSpec]:
    """Grid graph with edges between coordinates differing by 1 in one axis."""
    spec = GridSpec.from_dims(dims)
    n = spec.n
    edges: list[tuple[int, int]] = []
    for size, stride in zip(spec.dims, spec.strides):
        # Within each block of size * stride ids, the first (size - 1) *
        # stride vertices have a successor one step along this axis.
        span = (size - 1) * stride
        for base in range(0, n, size * stride):
            edges.extend(zip(range(base, base + span), range(base + stride, base + stride + span)))
    return Graph(n, edges), spec


def partition3d(dims: tuple[int, ...] | list[int]) -> KdPartition:
    """Direct (3, 2)-partition of a 3-dimensional grid, no search involved.

    Layers are peeled back to front. Each round removes the corner y1 of
    the remaining grid plus two companions picked by the corner's
    remaining degree; companions are the corner's in-layer neighbours when
    the degree forces them, and otherwise the smallest present vertices.
    Ids follow coordinate order, so the corner is the smallest present id:
    every neighbour one step lower on an axis is gone, which bounds its
    degree by 3, and a forward-only cursor over a present bitmap finds it
    in amortised constant time. Each triple is stored in ascending order
    of external degree into what is left: the corner always has at most
    1, the second vertex then has at most 3 and the third at most 4,
    which certifies the layer for k=3, d=2. (Storing the removal order
    itself is not enough: when the corner's only in-layer neighbour is
    the one in the next row, that neighbour can keep 4 external
    neighbours, one row below included.)
    """
    spec = GridSpec.from_dims(dims)
    if len(spec.dims) != 3:
        raise InputError("partition3d requires exactly three dimensions")
    _, rows, cols = spec.dims
    axes = tuple(zip(spec.strides, spec.dims))
    present = bytearray(b"\x01") * spec.n
    cursor = 0

    def degree(v: int) -> int:
        deg = 0
        for stride, size in axes:
            c = v // stride % size
            if c and present[v - stride]:
                deg += 1
            if c < size - 1 and present[v + stride]:
                deg += 1
        return deg

    def take_smallest() -> int:
        nonlocal cursor
        cursor = present.index(1, cursor)
        present[cursor] = 0
        return cursor

    layers_rev: list[list[int]] = []
    for _ in range(math.ceil(spec.n / 3) - 1):
        y1 = take_smallest()
        deg = degree(y1)
        if deg > 3:
            raise InvariantError(
                f"corner {spec.coord_of(y1)} has degree {deg}, expected at most 3",
                context={"coord": list(spec.coord_of(y1)), "degree": deg},
            )
        # In-layer neighbours one step along the last and the middle axis.
        right = y1 + 1 if y1 % cols < cols - 1 and present[y1 + 1] else None
        down = y1 + cols if y1 // cols % rows < rows - 1 and present[y1 + cols] else None
        if deg <= 1:
            y2, y3 = take_smallest(), take_smallest()
        elif deg == 2:
            y2 = right if right is not None else down
            if y2 is None:
                raise InvariantError(
                    f"degree-2 corner {spec.coord_of(y1)} has no in-layer neighbour",
                    context={"coord": list(spec.coord_of(y1))},
                )
            present[y2] = 0
            y3 = take_smallest()
        elif right is None or down is None:
            raise InvariantError(
                f"degree-3 corner {spec.coord_of(y1)} misses an in-layer neighbour",
                context={"coord": list(spec.coord_of(y1)), "degree": deg},
            )
        else:
            y2, y3 = right, down
            present[y2] = present[y3] = 0
        triple = sorted((degree(v), v) for v in (y1, y2, y3))
        layers_rev.append([v for _, v in triple])

    leftover = [v for v in range(cursor, spec.n) if present[v]]
    if not 1 <= len(leftover) <= 3:
        raise InvariantError(
            f"leftover first layer has {len(leftover)} vertices",
            context={"size": len(leftover)},
        )
    return KdPartition(k=3, d=2, layers=[leftover, *reversed(layers_rev)])

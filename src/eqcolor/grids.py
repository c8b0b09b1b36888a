"""Multidimensional grid graphs and the direct 3-layer partition for them.

Grid vertices are numbered lexicographically by coordinate after sorting
the dimensions in descending order; a slowest-varying first coordinate
keeps the layer structure used by the partitioner aligned with ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product, starmap

from .errors import InputError
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
        if type(coord) not in (tuple, list):
            raise InputError(f"coordinate {coord!r} is not a tuple or list")
        if len(coord) != len(self.dims):
            raise InputError(f"coordinate {coord} has wrong arity")
        vid = 0
        for c, size, stride in zip(coord, self.dims, self.strides):
            if type(c) is not int or not 1 <= c <= size:
                raise InputError(f"coordinate {coord} leaves the grid")
            vid += (c - 1) * stride
        return vid

    def coord_of(self, vid: int) -> tuple[int, ...]:
        """1-based coordinate in sorted-axis order."""
        if type(vid) is not int or not 0 <= vid < self.n:
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

    Layers are peeled back to front by the anchor rule the partition
    search uses: a layer's first vertex keeps all but d - 1 = 1 of its
    remaining neighbours inside the layer. Each round anchors on y1, the
    smallest present id; a forward-only cursor over a present bitmap
    finds it in amortised constant time. Ids follow coordinate order, so
    every lower neighbour of y1 is gone and only y1 + 1, the next row's
    y1 + cols and the next plane's y1 + rows*cols can remain. y1 + 1, if
    present, is the next smallest id and joins the layer anyway, so the
    next row's vertex is forced in only when it and the next plane's
    both remain; otherwise the smallest present ids fill the layer.
    Each triple is stored in ascending order of external degree into
    what is left: the first vertex then has at most 1, the second at
    most 3 and the third at most 4, which certifies the layer for k=3,
    d=2. (Storing the removal order itself is not enough: when the
    anchor's only in-layer neighbour is the one in the next row, that
    neighbour can keep 4 external neighbours, one row below included.)
    """
    spec = GridSpec.from_dims(dims)
    if len(spec.dims) != 3:
        raise InputError("partition3d requires exactly three dimensions")
    n = spec.n
    _, rows, cols = spec.dims
    plane = rows * cols
    axes = tuple(zip(spec.strides, spec.dims))
    present = bytearray(b"\x01") * n
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
    for _ in range(math.ceil(n / 3) - 1):
        y1 = take_smallest()
        below, ahead = y1 + cols, y1 + plane
        if ahead < n and present[ahead] and y1 // cols % rows < rows - 1 and present[below]:
            present[below] = 0
            y2, y3 = below, take_smallest()
        else:
            y2, y3 = take_smallest(), take_smallest()
        triple = sorted((degree(v), v) for v in (y1, y2, y3))
        layers_rev.append([v for _, v in triple])

    leftover = [v for v in range(cursor, n) if present[v]]
    return KdPartition(k=3, d=2, layers=[leftover, *reversed(layers_rev)])

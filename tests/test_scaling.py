"""Doubling gates for the document stages (parse, build and write), the
grid builders, the planted-graph generator, the greedy partition, the
partition verifier, list generation, degeneracy, the colouring verifier and
the colouring plan's build.

Each stage runs on two 3-D grids, 10x10x10 and 10x20x20, so n grows by 4x
and the edge and list rows with it; the generator builds a planted graph
of the same n, and the greedy peels a planted graph of that n, built
beforehand. The measure is the stage's ``tracemalloc`` peak, which is
the same on every run for a fixed input, so the gate needs no timing. A linear stage reads a ratio near 4; a
quadratic one would read about 16.
"""

from __future__ import annotations

import tracemalloc
from random import Random

import pytest

from eqcolor import (
    Graph,
    KdPartition,
    ListAssignment,
    NamedGraph,
    degeneracy,
    equitable_coloring,
    gen_planted_partition,
    greedy_kd_partition,
    make_grid,
    partition3d,
    verify_equitable_list_coloring,
    verify_kd_partition,
)
from eqcolor.coloring import _later_neighbours
from eqcolor.fileio import (
    coloring_to_obj,
    dump,
    graph_to_obj,
    lists_to_obj,
    parse_coloring,
    parse_graph_document,
    parse_lists,
    parse_partition,
    partition_to_obj,
)

SIZES = [(10, 10, 10), (10, 20, 20)]
MAX_RATIO = 5.0


def _inputs(dims):
    g, spec = make_grid(dims)
    p = partition3d(dims)
    lists = ListAssignment.uniform_random(g.n, 4, 8, Random(6))
    coloring = equitable_coloring(g, p, lists)
    names = dict(zip(spec.labels(), range(g.n)))  # as `gen grid` writes them
    return {
        "dims": dims,
        "graph": g,
        "partition": p,
        "unstamped_partition": KdPartition(p.k, p.d, p.layers),
        "edges": g.edges(),
        "lists": lists,
        "coloring": coloring,
        "graph_text": dump(graph_to_obj(NamedGraph(g))),
        "named_graph_text": dump(graph_to_obj(NamedGraph(g, names))),
        "lists_text": dump(lists_to_obj(lists)),
        "partition_text": dump(partition_to_obj(p)),
        "coloring_text": dump(coloring_to_obj(coloring)),
        # (3, 1) layers, so the greedy's (3, 3) peels the whole graph.
        "planted": gen_planted_partition(g.n, 3, 1, seed=1).graph,
    }


STAGES = {
    "dump-graph": lambda x: dump(graph_to_obj(NamedGraph(x["graph"]))),
    "dump-lists": lambda x: dump(lists_to_obj(x["lists"])),
    "parse_graph_document": lambda x: parse_graph_document(x["graph_text"]),
    "parse_graph_document-names": lambda x: parse_graph_document(x["named_graph_text"]),
    "parse_lists": lambda x: parse_lists(x["lists_text"]),
    "parse_partition": lambda x: parse_partition(x["partition_text"]),
    "parse_coloring": lambda x: parse_coloring(x["coloring_text"]),
    "Graph": lambda x: Graph(x["graph"].n, x["edges"]),
    "make_grid": lambda x: make_grid(x["dims"]),
    "partition3d": lambda x: partition3d(x["dims"]),
    "gen_planted_partition": lambda x: gen_planted_partition(x["graph"].n, 4, 3, seed=1),
    "greedy_kd_partition": lambda x: greedy_kd_partition(x["planted"], 3, 3),
    "degeneracy": lambda x: degeneracy(x["graph"]),
    "verify_kd_partition": lambda x: verify_kd_partition(x["graph"], x["unstamped_partition"]),
    "uniform_random": lambda x: ListAssignment.uniform_random(x["graph"].n, 4, 8, Random(6)),
    "verify_equitable_list_coloring": lambda x: verify_equitable_list_coloring(
        x["graph"], x["lists"], 4, x["coloring"], 2
    ),
    "plan": lambda x: _later_neighbours(x["graph"], x["partition"]._layers),  # not a copy
}


@pytest.fixture(scope="module")
def instances():
    return [_inputs(dims) for dims in SIZES]


def _peak(stage, x) -> int:
    """Bytes at the ``tracemalloc`` peak of one call of ``stage`` on ``x``."""
    # CPython hands out small tuples (sizes 1-19, up to 2,000 each) from free
    # lists that tracemalloc never sees; holding that many empties them, so
    # every tuple the stage makes is traced at both sizes alike.
    spare = [(i,) * size for size in range(1, 20) for i in range(2_000)]  # noqa: F841
    tracemalloc.start()
    try:
        stage(x)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", STAGES)
def test_document_stage_memory_grows_linearly(name, instances):
    small, big = (_peak(STAGES[name], x) for x in instances)
    ratio = big / small
    assert 2.0 <= ratio <= MAX_RATIO, (name, small, big)

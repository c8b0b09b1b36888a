"""Equitable list colouring with degenerate colour classes.

The package splits into graph primitives (graph), layer partitions and
search (partition), the colouring pipeline and its verifier (coloring),
grid graphs with their direct partitioner (grids), generators for
witness graphs and fuzz corpora (generators), and document formats plus
the command line (fileio, cli).
"""

from .coloring import (
    Coloring,
    ColoringVerdict,
    ColoringViolation,
    Counters,
    ListAssignment,
    RunTrace,
    compute_counters,
    equitable_coloring,
    verify_equitable_list_coloring,
)
from .errors import EqcolorError, InputError, InvariantError, ParseError
from .generators import (
    NamedGraph,
    gen_basic,
    gen_example2,
    gen_gq,
    gen_planted_partition,
)
from .graph import Graph, degeneracy, is_d_degenerate
from .grids import GridSpec, make_grid, partition3d
from .partition import (
    KdPartition,
    PartitionVerdict,
    PartitionViolation,
    SearchResult,
    SearchStatus,
    enumerate_last_layers,
    greedy_kd_partition,
    search_kd_partition,
    verify_kd_partition,
)

__all__ = [
    "Coloring",
    "ColoringVerdict",
    "ColoringViolation",
    "Counters",
    "EqcolorError",
    "Graph",
    "GridSpec",
    "InputError",
    "InvariantError",
    "KdPartition",
    "ListAssignment",
    "NamedGraph",
    "ParseError",
    "PartitionVerdict",
    "PartitionViolation",
    "RunTrace",
    "SearchResult",
    "SearchStatus",
    "compute_counters",
    "degeneracy",
    "enumerate_last_layers",
    "equitable_coloring",
    "gen_basic",
    "gen_example2",
    "gen_gq",
    "gen_planted_partition",
    "greedy_kd_partition",
    "is_d_degenerate",
    "make_grid",
    "partition3d",
    "search_kd_partition",
    "verify_equitable_list_coloring",
    "verify_kd_partition",
]

__version__ = "0.1.0"

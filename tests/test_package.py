"""The package's public surface, rules its source keeps, and the bench tracer's
hold on its internals."""

from __future__ import annotations

import ast
import importlib.util
import inspect
import sys
import time
from pathlib import Path
from random import Random

import pytest

import eqcolor
import eqcolor.cli  # noqa: F401  (the tracer also wraps the command line)
from eqcolor import (
    Coloring,
    Graph,
    InputError,
    KdPartition,
    ListAssignment,
    compute_counters,
    enumerate_last_layers,
    gen_basic,
    gen_gq,
    gen_planted_partition,
    greedy_kd_partition,
    is_d_degenerate,
    make_grid,
    partition3d,
    search_kd_partition,
    verify_equitable_list_coloring,
)

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"

PUBLIC = [
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


def test_root_exports_only_the_pipeline():
    assert eqcolor.__all__ == PUBLIC
    assert all(hasattr(eqcolor, name) for name in PUBLIC)


def unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads as a name nor lists in ``__all__``."""
    tree = ast.parse(path.read_text(), str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [
        f"{path.relative_to(ROOT)}:{node.lineno} {alias.asname or alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
        if (alias.asname or alias.name.split(".")[0]) not in used
    ]


def test_every_import_is_used():
    sources = sorted([*(ROOT / "src" / "eqcolor").glob("*.py"), *(ROOT / "tests").glob("*.py")])
    assert len(sources) > 10
    assert [hit for path in sources for hit in unused_imports(path)] == []


def private_definitions(path: Path) -> list[tuple[str, str]]:
    """(name, place) of each module-level def, class or assignment named ``_x``."""
    tree = ast.parse(path.read_text(), str(path))
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        place = f"{path.relative_to(ROOT)}:{node.lineno}"
        out += [(name, place) for name in names if name.startswith("_") and not name.startswith("__")]
    return out


def loaded_names(path: Path) -> set[str]:
    """Names a module reads: loaded names, attribute names and imported names."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_private_helper_is_used():
    sources = sorted((ROOT / "src" / "eqcolor").glob("*.py"))
    defined = [hit for path in sources for hit in private_definitions(path)]
    assert len(defined) > 30
    used = set().union(*map(loaded_names, sources))
    assert [f"{place} {name}" for name, place in defined if name not in used] == []


def int_type_checks(path: Path) -> list[str]:
    """Lines that call ``isinstance`` against ``int`` or ``bool``, tuple forms included."""
    tree = ast.parse(path.read_text(), str(path))
    return sorted({
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
        for kind in node.args[1:]
        for name in (kind.elts if isinstance(kind, ast.Tuple) else [kind])
        if getattr(name, "id", None) in ("int", "bool")
    })


def test_ids_are_exact_ints():
    # Vertex ids and colours are checked as ``type(x) is int`` everywhere: an
    # isinstance test lets bools or int subclasses such as IntEnum members through.
    sources = sorted((ROOT / "src" / "eqcolor").glob("*.py"))
    assert len(sources) > 5
    assert [hit for path in sources for hit in int_type_checks(path)] == []


# Every size parameter refuses a bool or a float: kept, such a value would be
# stored as a size or reach range() and the counters' arithmetic.
_SIZE_CALLS = {
    "Graph-n": lambda x: Graph(x, []),
    "KdPartition-k": lambda x: KdPartition(x, 1, [[0]]),
    "KdPartition-d": lambda x: KdPartition(1, x, [[0]]),
    "compute_counters-n": lambda x: compute_counters(x, 2, 1),
    "compute_counters-t": lambda x: compute_counters(10, x, 1),
    "compute_counters-k": lambda x: compute_counters(10, 3, x),
    "ListAssignment-t": lambda x: ListAssignment(x, {0: list(range(1, int(x) + 1))}),
    "uniform_random-n": lambda x: ListAssignment.uniform_random(x, 2, 4, Random(0)),
    "uniform_random-t": lambda x: ListAssignment.uniform_random(3, x, 4, Random(0)),
    "uniform_random-palette": lambda x: ListAssignment.uniform_random(3, 1, x, Random(0)),
    "search_kd_partition-k": lambda x: search_kd_partition(Graph(3), x, 1),
    "search_kd_partition-d": lambda x: search_kd_partition(Graph(3), 1, x),
    "search_kd_partition-budget": lambda x: search_kd_partition(Graph(3), 1, 1, x),
    "greedy_kd_partition-k": lambda x: greedy_kd_partition(Graph(3), x, 1),
    "greedy_kd_partition-d": lambda x: greedy_kd_partition(Graph(3), 1, x),
    "enumerate_last_layers-k": lambda x: list(enumerate_last_layers(Graph(3), x, 1)),
    "enumerate_last_layers-d": lambda x: list(enumerate_last_layers(Graph(3), 1, x)),
    "verify_equitable_list_coloring-t": lambda x: verify_equitable_list_coloring(
        Graph(1), ListAssignment(1, {0: [1]}), x, Coloring({0: 1}), 1
    ),
    "verify_equitable_list_coloring-d": lambda x: verify_equitable_list_coloring(
        Graph(1), ListAssignment(1, {0: [1]}), 1, Coloring({0: 1}), x
    ),
    "gen_gq-q": gen_gq,
    "gen_basic-n": lambda x: gen_basic("path", x),
    "gen_planted_partition-n": lambda x: gen_planted_partition(x, 1, 1),
    "gen_planted_partition-k": lambda x: gen_planted_partition(2, x, 1),
    "gen_planted_partition-d": lambda x: gen_planted_partition(2, 1, x),
    "is_d_degenerate-d": lambda x: is_d_degenerate(Graph(2), x),
}


@pytest.mark.parametrize("value", [True, 2.0])
@pytest.mark.parametrize("call", _SIZE_CALLS.values(), ids=list(_SIZE_CALLS))
def test_size_parameters_are_exact_ints(call, value):
    with pytest.raises(InputError):
        call(value)


_SIZE_NAMES = {"n", "k", "d", "t", "q", "palette", "budget"}
# Public callables whose size-named parameters need no entry, with the reason.
_SIZE_EXEMPT = {"Counters": "a record that only compute_counters builds"}


def test_every_size_parameter_has_a_size_call():
    public = {name: getattr(eqcolor, name) for name in eqcolor.__all__ if name not in _SIZE_EXEMPT}
    public["uniform_random"] = ListAssignment.uniform_random
    sized = [
        f"{name}-{param}"
        for name, call in public.items()
        for param in inspect.signature(call).parameters
        if param in _SIZE_NAMES
    ]
    assert len(sized) > 20
    assert [key for key in sized if key not in _SIZE_CALLS] == []


def test_uniform_random_refuses_a_negative_vertex_count():
    with pytest.raises(InputError, match=r"^vertex count must be non-negative, got -3$"):
        ListAssignment.uniform_random(-3, 2, 4, Random(0))
    assert len(ListAssignment.uniform_random(0, 2, 4, Random(0))) == 0


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def eqcolor_bindings():
    """Every eqcolor module attribute, plus the two class attributes the tracer swaps."""
    out = {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "eqcolor" or name.startswith("eqcolor.")
        for attr, value in vars(module).items()
    }
    out["Graph", "__init__"] = eqcolor.Graph.__dict__["__init__"]
    out["ListAssignment", "uniform_random"] = ListAssignment.__dict__["uniform_random"]
    return out


def test_bench_tracer_installs_and_restores():
    tracing = load_tracer()
    g, _ = make_grid((2, 3, 4))
    p = partition3d((2, 3, 4))
    lists = {t: ListAssignment.uniform_random(g.n, t, 6, Random(1)) for t in (3, 4)}
    before = eqcolor_bindings()
    tracer = tracing.Tracer(time.perf_counter_ns)
    tracer.install()
    try:
        during = eqcolor_bindings()
        for modname, attr, _ in tracing.PLAIN:
            assert during[modname, attr] is not before[modname, attr], attr
        for attr in ("equitable_coloring", "colour_list", "reorder"):
            assert during["eqcolor.coloring", attr] is not before["eqcolor.coloring", attr], attr
        # The phases are told apart by the colour_list calls around reorder:
        # one call colours S_col, its x block included, however x and rho fall.
        names = []
        for t, shape in ((3, (0, 0)), (4, (1, 2))):
            trace = eqcolor.RunTrace()
            eqcolor.equitable_coloring(g, p, lists[t], trace=trace)
            assert (trace.counters.rho, trace.counters.x) == shape
            spans, _ = tracer.take()
            names.append([span[0] for span in spans if span[0].startswith("coloring.")])
    finally:
        tracer.uninstall()
    phases = [
        "coloring.equitable_coloring",
        tracing.FIRST,
        tracing.X_RHO,
        "coloring.reorder",
        "coloring.modify_colour_lists",
        tracing.GAMMA_K,
    ]
    assert names == [phases, phases]
    after = eqcolor_bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []

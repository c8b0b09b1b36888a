from __future__ import annotations

import json
import math
from enum import IntEnum

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqcolor import (
    Coloring,
    Graph,
    InputError,
    KdPartition,
    ListAssignment,
    NamedGraph,
    ParseError,
    gen_example2,
)
from eqcolor.cli import main
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


class TestJsonGraphDocuments:
    def test_minimal_roundtrip(self):
        g = Graph(4, [(0, 1), (2, 3), (1, 2)])
        text = dump(graph_to_obj(NamedGraph(g)))
        doc = parse_graph_document(text)
        assert doc.graph == g
        assert doc.names is None
        assert doc.partition is None

    def test_full_document_roundtrip(self):
        bundle = gen_example2()
        doc = parse_graph_document(dump(graph_to_obj(bundle)))
        assert doc.graph == bundle.graph
        assert doc.names == bundle.names
        assert doc.partition == bundle.partition
        assert doc.lists == bundle.lists

    def test_generated_labels_resolve_after_parsing(self, capsys):
        assert main(["gen", "example2"]) == 0
        doc = parse_graph_document(capsys.readouterr().out)
        bundle = gen_example2()
        assert doc == bundle
        for label, vid in bundle.names.items():
            assert doc.id_of(label) == vid
        with pytest.raises(InputError):
            doc.id_of("v_9^9")

    def test_missing_keys(self):
        with pytest.raises(ParseError):
            parse_graph_document('{"n": 3}')
        with pytest.raises(ParseError):
            parse_graph_document('{"edges": []}')

    def test_malformed_edges(self):
        with pytest.raises(ParseError):
            parse_graph_document('{"n": 2, "edges": [[0]]}')
        with pytest.raises(ParseError):
            parse_graph_document('{"n": 2, "edges": [[0, 1, 2]]}')
        with pytest.raises(ParseError):
            parse_graph_document('{"n": 2, "edges": 7}')

    def test_graph_level_errors_become_parse_errors(self):
        with pytest.raises(ParseError):
            parse_graph_document('{"n": 2, "edges": [[0, 5]]}')
        with pytest.raises(ParseError):
            parse_graph_document('{"n": 2, "edges": [[1, 1]]}')

    def test_booleans_are_not_integers(self):
        with pytest.raises(ParseError):
            parse_graph_document('{"n": true, "edges": []}')
        with pytest.raises(ParseError):
            parse_graph_document('{"n": 2, "edges": [[0, false]]}')

    def test_names_validation(self):
        with pytest.raises(ParseError):
            parse_graph_document('{"n": 1, "edges": [], "names": [1]}')
        with pytest.raises(ParseError):
            parse_graph_document('{"n": 1, "edges": [], "names": {"a": 5}}')

    def test_invalid_json_reports_kind(self):
        with pytest.raises(ParseError) as exc:
            parse_graph_document("{not json")
        assert exc.value.context.get("kind") == "graph document"

    def test_top_level_must_be_object(self):
        with pytest.raises(ParseError):
            parse_graph_document("[1, 2]")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_graph_document("   \n ")


class TestDimacs:
    def test_basic_parse(self):
        text = "c a triangle plus one isolated vertex\np edge 4 3\ne 1 2\ne 2 3\ne 1 3\n"
        doc = parse_graph_document(text)
        assert doc.graph.n == 4
        assert doc.graph.edge_count() == 3
        assert doc.graph.adjacent(0, 1)
        assert doc.names is None
        with pytest.raises(InputError):
            doc.id_of("1")

    def test_duplicate_edges_collapse_despite_header(self):
        text = "p edge 2 3\ne 1 2\ne 2 1\ne 1 2\n"
        assert parse_graph_document(text).graph.edge_count() == 1

    def test_edge_before_problem_line(self):
        with pytest.raises(ParseError):
            parse_graph_document("e 1 2\np edge 2 1\n")

    def test_repeated_problem_line(self):
        with pytest.raises(ParseError):
            parse_graph_document("p edge 2 0\np edge 2 0\n")

    def test_out_of_range_endpoint_reports_line(self):
        with pytest.raises(ParseError) as exc:
            parse_graph_document("p edge 2 1\nc filler\ne 1 5\n")
        assert exc.value.context.get("line") == 3

    def test_malformed_lines(self):
        with pytest.raises(ParseError):
            parse_graph_document("p edge two 1\ne 1 2\n")
        with pytest.raises(ParseError):
            parse_graph_document("p edge 2 1\ne 1\n")
        with pytest.raises(ParseError):
            parse_graph_document("p edge 2 1\nq 1 2\n")
        with pytest.raises(ParseError):
            parse_graph_document("c only comments\n")

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            ("p edge 3\n", "line 1: expected 'p edge N M'"),
            ("p edge 3 1\ne 1 x\n", "line 2: non-numeric edge"),
        ],
        ids=["short-problem-line", "non-numeric-edge"],
    )
    def test_malformed_line_messages(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_graph_document(text)
        assert str(exc.value) == message

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError):
            parse_graph_document("p edge 2 1\ne 1 1\n")


class TestPartitionDocuments:
    def test_standalone_roundtrip(self):
        p = KdPartition(2, 1, [[4], [0, 1], [2, 3]])
        assert parse_partition(dump(partition_to_obj(p))) == p

    def test_embedded_in_graph_document(self):
        bundle = gen_example2()
        text = dump(graph_to_obj(NamedGraph(bundle.graph, partition=bundle.partition)))
        assert parse_partition(text) == bundle.partition
        assert parse_graph_document(text).partition == bundle.partition

    def test_embedded_vertices_checked_against_graph(self):
        obj = {"n": 2, "edges": [], "partition": {"k": 1, "d": 1, "layers": [[0], [9]]}}
        with pytest.raises(ParseError) as exc:
            parse_graph_document(dump(obj))
        assert exc.value.context.get("layer") == 2

    def test_missing_keys(self):
        with pytest.raises(ParseError):
            parse_partition('{"k": 1, "d": 1}')
        with pytest.raises(ParseError):
            parse_partition('{"k": 1, "layers": []}')

    def test_layer_shape_errors(self):
        with pytest.raises(ParseError):
            parse_partition('{"k": 1, "d": 1, "layers": [7]}')
        with pytest.raises(ParseError):
            parse_partition('{"k": 1, "d": 1, "layers": [[1.5]]}')

    def test_constructor_errors_become_parse_errors(self):
        with pytest.raises(ParseError):
            parse_partition('{"k": 0, "d": 1, "layers": []}')


class TestListsDocuments:
    def test_standalone_roundtrip(self):
        la = ListAssignment(2, {0: [2, 1], 1: [3, 4]})
        assert parse_lists(dump(lists_to_obj(la))) == la

    def test_embedded_in_graph_document(self):
        bundle = gen_example2()
        text = dump(graph_to_obj(NamedGraph(bundle.graph, lists=bundle.lists)))
        assert parse_lists(text) == bundle.lists
        assert parse_graph_document(text).lists == bundle.lists

    def test_missing_keys(self):
        with pytest.raises(ParseError):
            parse_lists('{"t": 2}')
        with pytest.raises(ParseError):
            parse_lists('{"lists": {}}')

    def test_bad_vertex_keys_and_colours(self):
        with pytest.raises(ParseError):
            parse_lists('{"t": 1, "lists": {"zero": [1]}}')
        with pytest.raises(ParseError):
            parse_lists('{"t": 1, "lists": {"0": [true]}}')
        with pytest.raises(ParseError):
            parse_lists('{"t": 1, "lists": {"0": 5}}')

    def test_repeated_vertex_key(self):
        with pytest.raises(ParseError) as info:
            parse_lists('{"t": 1, "lists": {"3": [1], "03": [2]}}')
        assert info.value.context == {"vertex": 3}

    def test_uniformity_enforced(self):
        with pytest.raises(ParseError):
            parse_lists('{"t": 2, "lists": {"0": [1]}}')


class TestColoringDocuments:
    def test_roundtrip(self):
        c = Coloring({0: 3, 5: 1, 2: 2})
        parsed = parse_coloring(dump(coloring_to_obj(c)))
        assert parsed.colors == c.colors

    def test_missing_key(self):
        with pytest.raises(ParseError):
            parse_coloring('{"colours": {}}')

    def test_bad_entries(self):
        with pytest.raises(ParseError):
            parse_coloring('{"colors": {"x": 1}}')
        with pytest.raises(ParseError):
            parse_coloring('{"colors": {"0": "red"}}')

    def test_repeated_vertex_key(self):
        with pytest.raises(ParseError) as info:
            parse_coloring('{"colors": {"3": 1, "03": 2}}')
        assert info.value.context == {"vertex": 3}


def test_dump_is_parseable_json_with_trailing_newline():
    text = dump({"n": 1, "edges": []})
    assert text.endswith("\n")
    assert json.loads(text) == {"n": 1, "edges": []}


def test_serialized_edges_are_sorted():
    g = Graph(4, [(3, 2), (1, 0), (2, 0)])
    obj = graph_to_obj(NamedGraph(g))
    assert obj["edges"] == [(0, 1), (0, 2), (2, 3)]


# Messages of the per-item edge parser, recorded before edges were
# validated in bulk; a damaged list must still name its first bad item.
_DAMAGED_EDGES = {
    "type-before-non-pair": ([[0, 1], [0, "x"], [1]], "edge endpoint must be an integer, got 'x'"),
    "non-pair-before-type": ([[0, 1], [1], [0, "x"]], "edge [1] is not a pair"),
    "bool": ([[0, 1], [True, 2]], "edge endpoint must be an integer, got True"),
    "bool-second": ([[0, 1], [2, False]], "edge endpoint must be an integer, got False"),
    "float": ([[0, 1], [1.0, 2]], "edge endpoint must be an integer, got 1.0"),
    "nested-list": ([[0, 1], [[1], 2]], "edge endpoint must be an integer, got [1]"),
    "null": ([[0, None]], "edge endpoint must be an integer, got None"),
    "three-items": ([[0, 1], [1, 2, 3]], "edge [1, 2, 3] is not a pair"),
    "object-item": ([[0, 1], {"0": 1}], "edge {'0': 1} is not a pair"),
    "scalar-item": ([[0, 1], 5], "edge 5 is not a pair"),
    "out-of-range": ([[0, 1], [1, 4]], "graph document rejected: edge (1, 4) out of range for n=4"),
    "negative": ([[0, 1], [-1, 2]], "graph document rejected: edge (-1, 2) out of range for n=4"),
    "self-loop": ([[0, 1], [2, 2]], "graph document rejected: self-loop at vertex 2"),
    "range-before-type": ([[0, 9], [0, "x"]], "edge endpoint must be an integer, got 'x'"),
    "loop-before-range": ([[1, 1], [0, 9]], "graph document rejected: self-loop at vertex 1"),
}


@pytest.mark.parametrize("edges, message", _DAMAGED_EDGES.values(), ids=list(_DAMAGED_EDGES))
def test_damaged_edges_keep_their_message(edges, message, tmp_path, capsys):
    text = json.dumps({"n": 4, "edges": edges})
    with pytest.raises(ParseError) as info:
        parse_graph_document(text)
    assert str(info.value) == message
    path = tmp_path / "g.json"
    path.write_text(text)
    assert main(["degeneracy", "--graph", str(path)]) == 3
    assert json.loads(capsys.readouterr().out) == {
        "code": "parse-error", "message": message, "context": {},
    }


# Messages and contexts of the per-item parsers of the other int blocks,
# recorded before they were validated in bulk: the first bad item in
# document order is still the one named. Names, layers and lists travel
# embedded in a graph document of n = 4; lists have t = 2.
_DAMAGED_NAMES = {
    "bool": ({"a": 0, "b": True}, "name 'b' must be an integer, got True", {}),
    "float": ({"a": 1.0}, "name 'a' must be an integer, got 1.0", {}),
    "str": ({"a": "1"}, "name 'a' must be an integer, got '1'", {}),
    "null": ({"a": None}, "name 'a' must be an integer, got None", {}),
    "nested-list": ({"a": [1]}, "name 'a' must be an integer, got [1]", {}),
    "negative": ({"a": 0, "b": -1}, "name 'b' points at missing vertex -1", {}),
    "out-of-range": ({"a": 3, "b": 4}, "name 'b' points at missing vertex 4", {}),
    "range-before-type": ({"a": 9, "b": "x"}, "name 'a' points at missing vertex 9", {}),
    "type-before-range": ({"a": "x", "b": 9}, "name 'a' must be an integer, got 'x'", {}),
    "not-an-object": ([0, 1], "'names' must be an object", {}),
}
_DAMAGED_LAYERS = {
    "bool": ([[0, True]], "vertex in layer 1 must be an integer, got True", {}),
    "float": ([[0], [1.0]], "vertex in layer 2 must be an integer, got 1.0", {}),
    "str": ([[0], ["1"]], "vertex in layer 2 must be an integer, got '1'", {}),
    "null": ([[None]], "vertex in layer 1 must be an integer, got None", {}),
    "nested-list": ([[0, [1]]], "vertex in layer 1 must be an integer, got [1]", {}),
    "negative": ([[0], [1, -1]], "layer 2 references missing vertex -1", {"layer": 2, "vertex": -1}),
    "out-of-range": ([[0], [4]], "layer 2 references missing vertex 4", {"layer": 2, "vertex": 4}),
    "non-list-layer": ([[0], 5], "layer 2 is not a list", {"layer": 2}),
    "range-before-type": ([[9], ["x"]], "layer 1 references missing vertex 9", {"layer": 1, "vertex": 9}),
    "type-before-range": ([["x"], [9]], "vertex in layer 1 must be an integer, got 'x'", {}),
    "type-before-non-list": ([[0, "x"], 3], "vertex in layer 1 must be an integer, got 'x'", {}),
    "not-a-list": ({"0": [0]}, "'layers' must be a list", {}),
}
_DAMAGED_LISTS = {
    "bool": ({"0": [1, True]}, "colour of vertex 0 must be an integer, got True", {}),
    "float": ({"0": [1, 2.0]}, "colour of vertex 0 must be an integer, got 2.0", {}),
    "str": ({"0": [1, "2"]}, "colour of vertex 0 must be an integer, got '2'", {}),
    "null": ({"0": [None, 1]}, "colour of vertex 0 must be an integer, got None", {}),
    "nested-list": ({"0": [1, [2]]}, "colour of vertex 0 must be an integer, got [2]", {}),
    "negative-colour": (
        {"0": [-1, 2]}, "lists document rejected: list of vertex 0 holds invalid colour -1", {},
    ),
    "repeat": ({"3": [1, 2], "03": [1, 2]}, "list key '03' repeats vertex 3", {"vertex": 3}),
    "space-repeat": ({"3": [1, 2], " 3": [1, 2]}, "list key ' 3' repeats vertex 3", {"vertex": 3}),
    "non-numeric-key": ({"0": [1, 2], "zero": [1, 2]}, "list key 'zero' is not a vertex id", {}),
    "non-list-value": ({"0": [1, 2], "1": 5}, "list of vertex 1 is not a list", {"vertex": 1}),
    "range-before-type": (
        {"0": [0, 1], "1": [1, "x"]}, "colour of vertex 1 must be an integer, got 'x'", {},
    ),
    "repeat-before-type": (
        {"3": [1, 2], "03": [1, 2], "4": ["x", 1]}, "list key '03' repeats vertex 3", {"vertex": 3},
    ),
    "type-before-repeat": (
        {"4": ["x", 1], "3": [1, 2], "03": [1, 2]}, "colour of vertex 4 must be an integer, got 'x'", {},
    ),
    "wrong-length": ({"0": [1]}, "lists document rejected: list of vertex 0 has 1 colours, expected 2", {}),
    "not-an-object": ([[1, 2]], "'lists' must be an object keyed by vertex", {}),
}
_DAMAGED_COLORS = {
    "bool": ({"0": 1, "1": True}, "colour of vertex 1 must be an integer, got True", {}),
    "float": ({"0": 1.0}, "colour of vertex 0 must be an integer, got 1.0", {}),
    "str": ({"0": "red"}, "colour of vertex 0 must be an integer, got 'red'", {}),
    "null": ({"0": None}, "colour of vertex 0 must be an integer, got None", {}),
    "nested-list": ({"0": [1]}, "colour of vertex 0 must be an integer, got [1]", {}),
    "repeat": ({"3": 1, "03": 2}, "colour key '03' repeats vertex 3", {"vertex": 3}),
    "space-repeat": ({"3": 1, " 3": 2}, "colour key ' 3' repeats vertex 3", {"vertex": 3}),
    "non-numeric-key": ({"0": 1, "x": 1}, "colour key 'x' is not a vertex id", {}),
    "negative-key-before-type": ({"-1": 1, "0": "x"}, "colour of vertex 0 must be an integer, got 'x'", {}),
    "repeat-before-type": ({"3": 1, "03": 2, "4": "x"}, "colour key '03' repeats vertex 3", {"vertex": 3}),
    "type-before-repeat": ({"4": "x", "3": 1, "03": 2}, "colour of vertex 4 must be an integer, got 'x'", {}),
    "not-an-object": ([1], "'colors' must be an object keyed by vertex", {}),
}
_DAMAGED_BLOCKS = [
    pytest.param(kind, *case, id=f"{kind}-{name}")
    for kind, table in (
        ("names", _DAMAGED_NAMES),
        ("layers", _DAMAGED_LAYERS),
        ("lists", _DAMAGED_LISTS),
        ("colors", _DAMAGED_COLORS),
    )
    for name, case in table.items()
]


@pytest.mark.parametrize("kind, value, message, context", _DAMAGED_BLOCKS)
def test_damaged_blocks_keep_their_message(kind, value, message, context, tmp_path, capsys):
    graph = {"n": 4, "edges": []}
    embedded = {
        "names": {"names": value},
        "layers": {"partition": {"k": 1, "d": 1, "layers": value}},
        "lists": {"lists": {"t": 2, "lists": value}},
        "colors": {},
    }[kind]
    graph_path = tmp_path / "g.json"
    graph_path.write_text(json.dumps({**graph, **embedded}))
    if kind == "colors":
        text = json.dumps({"colors": value})
        parse, argv = parse_coloring, ["verify-coloring", "--graph", str(graph_path), "-d", "1"]
        (tmp_path / "l.json").write_text(json.dumps({"t": 1, "lists": {str(v): [1] for v in range(4)}}))
        (tmp_path / "c.json").write_text(text)
        argv += ["--lists", str(tmp_path / "l.json"), "--coloring", str(tmp_path / "c.json")]
    else:
        text = graph_path.read_text()
        parse, argv = parse_graph_document, ["degeneracy", "--graph", str(graph_path)]
    parsers = [parse, parse_lists] if kind == "lists" else [parse]
    for parser in parsers:
        with pytest.raises(ParseError) as info:
            parser(text)
        assert (str(info.value), info.value.context) == (message, context)
    assert main(argv) == 3
    assert json.loads(capsys.readouterr().out) == {
        "code": "parse-error", "message": message, "context": context,
    }


def test_standalone_layers_are_not_range_checked():
    text = '{"k": 1, "d": 1, "layers": [[0], [-1, 9], []]}'
    assert parse_partition(text).layers == [[0], [-1, 9], []]


def test_valid_int_blocks_parse_to_their_values():
    text = json.dumps({
        "n": 5,
        "edges": [[0, 1]],
        "names": {"a": 4, "b": 0, "c": 0},
        "partition": {"k": 2, "d": 1, "layers": [[4], [], [0, 3, 1, 2]]},
        "lists": {"t": 2, "lists": {"4": [3, 1], "-1": [2, 5], " 07": [1, 2]}},
    })
    doc = parse_graph_document(text)
    assert doc.names == {"a": 4, "b": 0, "c": 0}
    assert doc.partition.layers == [[4], [], [0, 3, 1, 2]]
    assert doc.lists.items() == [(-1, (2, 5)), (4, (1, 3)), (7, (1, 2))]
    assert parse_lists(text) == doc.lists
    colors = parse_coloring('{"colors": {"2": 1, "-3": 7, " 10": 2}}').colors
    assert list(colors.items()) == [(2, 1), (-3, 7), (10, 2)]


class _Colour(IntEnum):
    RED = 1


_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
_KEYS = st.text() | st.integers() | st.floats() | st.booleans() | st.none()
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(_KEYS, inner, max_size=4)
    ),
    max_leaves=20,
)
# Containers of int rows, mostly pure (lists of exact ints) so that the
# row writer runs, some with a tuple row, which it takes too, and some
# with a bool, an IntEnum, a float or a deeper row mixed in, which must
# take the general path.
_ROW = st.lists(st.integers(), max_size=4)
_ODD_ROW = (
    _ROW.map(tuple)
    | st.lists(st.integers() | st.sampled_from([True, False, _Colour.RED, 1.5]), min_size=1, max_size=4)
    | st.lists(_ROW | st.integers(), min_size=1, max_size=3)
)
_ROWS = st.lists(_ROW, min_size=2, max_size=6) | st.lists(_ROW | _ODD_ROW, min_size=2, max_size=6)
_ROW_VALUES = (
    _ROWS
    | _ROWS.map(tuple)
    | st.dictionaries(st.text(), _ROW, min_size=1, max_size=5)
    | st.dictionaries(st.integers() | st.text(), _ROW | _ODD_ROW, min_size=1, max_size=5)
    | st.lists(_ROWS, min_size=1, max_size=3)
    | st.dictionaries(st.text(), _ROWS, min_size=1, max_size=3)
)


@settings(max_examples=200, deadline=None)
@given(_VALUES)
@example("caf\u00e9 \u2028 \x00\x1f \ud800 \"\\ \U0001f600")
@example([math.nan, math.inf, -math.inf, -0.0, 1e300, True, None, [], {}, ()])
@example({1: [], 2.5: {}, math.nan: 0, True: (), None: [[[]]], "": [1, "a"]})
@example({_Colour.RED: _Colour.RED, "nested": {"a": [{"b": ()}], "c": [[1, 2], [3]]}})
def test_dump_matches_json_dumps_indent_2(value):
    assert dump(value) == json.dumps(value, indent=2) + "\n"


@settings(max_examples=200, deadline=None)
@given(_ROW_VALUES)
@example([[0, 1], [], [2, 3, 4], [-5], [10**30, 0]])
@example({"lists": {"0": [1, 2], "1": [], "xé\"": [3]}, "t": 2})
@example({1: [1, 2], 2: [3]})
@example({"a": [1], 2: [2]})
@example([[0, True], [1, 2]])
@example([[_Colour.RED, 1], [2, 3]])
@example([[1.0, 2], [3]])
@example([(0, 1), [2, 3]])
@example(([0, 1], [2]))
@example([[[0, 1], [2]], [[3]], []])
@example([[0, [1, 2]], [3]])
@example([[], []])
def test_dump_matches_json_dumps_indent_2_on_int_rows(value):
    assert dump(value) == json.dumps(value, indent=2) + "\n"


def test_dump_rejects_what_json_rejects():
    with pytest.raises(TypeError):
        dump({(1, 2): 3})
    with pytest.raises(TypeError):
        dump([object()])

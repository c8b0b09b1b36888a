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
    KdPartition,
    ListAssignment,
    ParseError,
    gen_example2,
)
from eqcolor.cli import main
from eqcolor.fileio import (
    GraphDocument,
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
        text = dump(graph_to_obj(GraphDocument(g)))
        doc = parse_graph_document(text)
        assert doc.graph == g
        assert doc.names is None
        assert doc.partition is None

    def test_full_document_roundtrip(self):
        bundle = gen_example2()
        original = GraphDocument(
            bundle.graph,
            names=bundle.names,
            partition=bundle.partition,
            lists=bundle.lists,
        )
        doc = parse_graph_document(dump(graph_to_obj(original)))
        assert doc.graph == bundle.graph
        assert doc.names == bundle.names
        assert doc.partition == bundle.partition
        assert doc.lists == bundle.lists

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

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError):
            parse_graph_document("p edge 2 1\ne 1 1\n")


class TestPartitionDocuments:
    def test_standalone_roundtrip(self):
        p = KdPartition(2, 1, [[4], [0, 1], [2, 3]])
        assert parse_partition(dump(partition_to_obj(p))) == p

    def test_embedded_in_graph_document(self):
        bundle = gen_example2()
        text = dump(graph_to_obj(GraphDocument(bundle.graph, partition=bundle.partition)))
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
        text = dump(graph_to_obj(GraphDocument(bundle.graph, lists=bundle.lists)))
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
    obj = graph_to_obj(GraphDocument(g))
    assert obj["edges"] == [[0, 1], [0, 2], [2, 3]]


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


@settings(max_examples=200, deadline=None)
@given(_VALUES)
@example("caf\u00e9 \u2028 \x00\x1f \ud800 \"\\ \U0001f600")
@example([math.nan, math.inf, -math.inf, -0.0, 1e300, True, None, [], {}, ()])
@example({1: [], 2.5: {}, math.nan: 0, True: (), None: [[[]]], "": [1, "a"]})
@example({_Colour.RED: _Colour.RED, "nested": {"a": [{"b": ()}], "c": [[1, 2], [3]]}})
def test_dump_matches_json_dumps_indent_2(value):
    assert dump(value) == json.dumps(value, indent=2) + "\n"


def test_dump_rejects_what_json_rejects():
    with pytest.raises(TypeError):
        dump({(1, 2): 3})
    with pytest.raises(TypeError):
        dump([object()])

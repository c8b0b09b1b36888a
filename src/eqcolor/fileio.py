"""Parsing and serialization for the graph, partition, lists, and
colouring documents the command line exchanges.

The canonical graph form is a JSON object {"n": ..., "edges": [[u, v],
...]} with 0-based vertices, optionally carrying "names", "partition",
and "lists" blocks so a generated document travels as one unit. A
DIMACS-style line format ("p edge N M" header, "e u v" lines, 1-based)
is accepted as input and converts losslessly to the canonical form.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterator
from itertools import chain
from json.encoder import encode_basestring_ascii as _escape
from typing import Any

from .coloring import Coloring, ListAssignment
from .errors import EqcolorError, ParseError
from .generators import NamedGraph
from .graph import Graph
from .partition import KdPartition


def _as_int(value: Any, what: str) -> int:
    """``value`` if exactly an int; the readers' walks call it only to word a failed item."""
    if type(value) is not int:
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def _int_rows(rows: Any) -> bool:
    """Every row is a list or tuple of exact ints."""
    return set(map(type, rows)) <= {list, tuple} and set(map(type, chain.from_iterable(rows))) <= {int}


def _built(what: str, make: Callable[..., Any], *args: Any) -> Any:
    """``make(*args)``, with any package error it raises re-raised as a ParseError."""
    try:
        return make(*args)
    except EqcolorError as exc:
        raise ParseError(f"{what} rejected: {exc}") from exc


def _load_json(text: str, what: str) -> dict[str, Any]:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also integers past the digit limit
        raise ParseError(f"invalid JSON in {what}: {exc}", context={"kind": what}) from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{what} must be a JSON object, got {type(doc).__name__}")
    return doc


def _graph_from_obj(doc: dict[str, Any]) -> Graph:
    if "n" not in doc or "edges" not in doc:
        raise ParseError("graph document needs 'n' and 'edges'")
    n = _as_int(doc["n"], "vertex count 'n'")
    edges_obj = doc["edges"]
    if not isinstance(edges_obj, list):
        raise ParseError("'edges' must be a list of pairs")
    try:  # Graph tests the endpoints' types in bulk
        return Graph(n, edges_obj)
    except EqcolorError as exc:
        error = exc
    for item in edges_obj:  # a malformed edge outranks what Graph reported
        if not isinstance(item, list) or len(item) != 2:
            raise ParseError(f"edge {item!r} is not a pair")
        for end in item:
            _as_int(end, "edge endpoint")
    raise ParseError(f"graph document rejected: {error}") from error


def _parse_dimacs(text: str) -> Graph:
    n = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ParseError(f"line {lineno}: repeated problem line")
            if len(parts) != 4 or parts[1] != "edge":
                raise ParseError(f"line {lineno}: expected 'p edge N M'")
            try:
                # M must be numeric but is advisory: duplicate edge lines collapse.
                n, _ = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"line {lineno}: non-numeric problem line") from None
        elif parts[0] == "e":
            if n is None:
                raise ParseError(f"line {lineno}: edge before problem line")
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: expected 'e u v'")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(f"line {lineno}: non-numeric edge") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(
                    f"line {lineno}: endpoint outside 1..{n}",
                    context={"line": lineno},
                )
            edges.append((u - 1, v - 1))
        else:
            raise ParseError(f"line {lineno}: unrecognized line {line!r}")
    if n is None:
        raise ParseError("no problem line found")
    return _built("edge list", Graph, n, edges)


def parse_graph_document(text: str) -> NamedGraph:
    """Parse canonical JSON or DIMACS-style text into a NamedGraph.

    Blocks the document does not carry are None; DIMACS carries only the graph.
    """
    if not text.strip():
        raise ParseError("empty graph document")
    if not text.lstrip().startswith("{"):
        return NamedGraph(_parse_dimacs(text))
    doc = _load_json(text, "graph document")
    graph = _graph_from_obj(doc)
    names = None
    if "names" in doc:
        names_obj = doc["names"]
        if not isinstance(names_obj, dict):
            raise ParseError("'names' must be an object")
        n = graph.n
        for label, v in names_obj.items():
            if type(v) is not int or not 0 <= v < n:
                _as_int(v, f"name {label!r}")
                raise ParseError(f"name {label!r} points at missing vertex {v}")
        names = names_obj
    partition = None
    if "partition" in doc:
        partition = _partition_from_obj(doc["partition"], graph.n)
    lists = None
    if "lists" in doc:
        lists = _lists_from_obj(doc["lists"])
    return NamedGraph(graph, names, partition, lists)


def _partition_from_obj(obj: Any, n: int | None = None) -> KdPartition:
    if not isinstance(obj, dict):
        raise ParseError("partition must be a JSON object")
    for key in ("k", "d", "layers"):
        if key not in obj:
            raise ParseError(f"partition document needs '{key}'")
    k = _as_int(obj["k"], "'k'")
    d = _as_int(obj["d"], "'d'")
    layers_obj = obj["layers"]
    if not isinstance(layers_obj, list):
        raise ParseError("'layers' must be a list")
    for idx, layer in enumerate(layers_obj, start=1):
        if not isinstance(layer, list):
            raise ParseError(f"layer {idx} is not a list", context={"layer": idx})
        for v in layer:
            if type(v) is not int or n is not None and not 0 <= v < n:
                _as_int(v, f"vertex in layer {idx}")
                raise ParseError(
                    f"layer {idx} references missing vertex {v}",
                    context={"layer": idx, "vertex": v},
                )
    return _built("partition document", KdPartition, k, d, layers_obj)


def parse_partition(text: str) -> KdPartition:
    doc = _load_json(text, "partition document")
    if "partition" in doc and "layers" not in doc:
        return _partition_from_obj(doc["partition"])
    return _partition_from_obj(doc)


def _lists_from_obj(obj: Any) -> ListAssignment:
    if not isinstance(obj, dict):
        raise ParseError("lists document must be a JSON object")
    if "t" not in obj or "lists" not in obj:
        raise ParseError("lists document needs 't' and 'lists'")
    t = _as_int(obj["t"], "'t'")
    lists_obj = obj["lists"]
    if not isinstance(lists_obj, dict):
        raise ParseError("'lists' must be an object keyed by vertex")
    lists: dict[int, list[Any]] = {}
    for key, value in lists_obj.items():
        try:
            v = int(key)
        except (TypeError, ValueError):
            raise ParseError(f"list key {key!r} is not a vertex id") from None
        if v in lists:
            raise ParseError(f"list key {key!r} repeats vertex {v}", context={"vertex": v})
        if not isinstance(value, list):
            raise ParseError(f"list of vertex {v} is not a list", context={"vertex": v})
        for c in value:
            if type(c) is not int:
                _as_int(c, f"colour of vertex {v}")
        lists[v] = value
    return _built("lists document", ListAssignment, t, lists)


def parse_lists(text: str) -> ListAssignment:
    """Parse a lists document, standalone or embedded in a graph document."""
    doc = _load_json(text, "lists document")
    inner = doc.get("lists")
    if "t" not in doc and isinstance(inner, dict) and "t" in inner and "lists" in inner:
        return _lists_from_obj(inner)
    return _lists_from_obj(doc)


def parse_coloring(text: str) -> Coloring:
    doc = _load_json(text, "colouring document")
    if "colors" not in doc:
        raise ParseError("colouring document needs 'colors'")
    colors_obj = doc["colors"]
    if not isinstance(colors_obj, dict):
        raise ParseError("'colors' must be an object keyed by vertex")
    colors: dict[int, int] = {}
    for key, value in colors_obj.items():
        try:
            v = int(key)
        except (TypeError, ValueError):
            raise ParseError(f"colour key {key!r} is not a vertex id") from None
        if v in colors:
            raise ParseError(f"colour key {key!r} repeats vertex {v}", context={"vertex": v})
        if type(value) is not int:
            _as_int(value, f"colour of vertex {v}")
        colors[v] = value
    return Coloring(colors)


def graph_to_obj(doc: NamedGraph) -> dict[str, Any]:
    obj: dict[str, Any] = {"n": doc.graph.n, "edges": doc.graph.edges()}
    if doc.names is not None:
        obj["names"] = dict(sorted(doc.names.items(), key=lambda kv: kv[1]))
    if doc.partition is not None:
        obj["partition"] = partition_to_obj(doc.partition)
    if doc.lists is not None:
        obj["lists"] = lists_to_obj(doc.lists)
    return obj


def partition_to_obj(p: KdPartition) -> dict[str, Any]:
    return {"k": p.k, "d": p.d, "layers": p._layers}


def lists_to_obj(lists: ListAssignment) -> dict[str, Any]:
    return {"t": lists.t, "lists": {str(v): colours for v, colours in lists.items()}}


def coloring_to_obj(c: Coloring) -> dict[str, Any]:
    return {"colors": {str(v): c.colors[v] for v in sorted(c.colors)}}


def _rows(values: Any, inner: str) -> Iterator[str] | None:
    """Each of ``values`` as ``_encode`` writes it at ``inner``, by one ``%d``
    template per row length; None unless every value is a list or tuple of exact ints."""
    if not _int_rows(values):
        return None
    cell = "," + inner + "  %d"
    templates = {m: f"[{(cell * m)[1:]}{inner}]" if m else "[]" for m in set(map(len, values))}
    return map(str.__mod__, map(templates.__getitem__, map(len, values)), map(tuple, values))


def _encode(value: Any, indent: str) -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it at ``indent``.

    Rows of ints go through ``_rows``; other exact ints and strs are written
    inline, which saves a call per vertex id.  Everything that is neither a
    non-empty list or tuple nor a non-empty dict keyed by exact strs goes to
    ``json.dumps`` with its newlines indented: JSON text has no raw newline
    inside a string, so that is the same text at any depth.
    """
    if isinstance(value, (list, tuple)) and value:
        inner = indent + "  "
        return "[" + inner + ("," + inner).join(_rows(value, inner) or [
            int.__repr__(v) if type(v) is int else _escape(v) if type(v) is str else _encode(v, inner)
            for v in value
        ]) + indent + "]"
    if isinstance(value, dict) and value and set(map(type, value)) <= {str}:
        inner = indent + "  "
        rows = _rows(value.values(), inner)
        members = map("%s: %s".__mod__, zip(map(_escape, value), rows)) if rows else [
            _escape(k) + ": "
            + (int.__repr__(v) if type(v) is int else _escape(v) if type(v) is str else _encode(v, inner))
            for k, v in value.items()
        ]
        return "{" + inner + ("," + inner).join(members) + indent + "}"
    return json.dumps(value, indent=2).replace("\n", indent)


def dump(obj: Any) -> str:
    r"""``json.dumps(obj, indent=2) + "\n"``, byte for byte.

    The stdlib falls back to its pure-Python encoder whenever ``indent`` is
    set; this writer keeps that layout but escapes strings with the same C
    routine and joins each container in one call.
    """
    return _encode(obj, "\n") + "\n"

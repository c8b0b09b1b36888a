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
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def _exact_ints(values: Any, n: int | None = None) -> bool:
    """Every value is exactly an int (not a bool) and, given n, in 0..n-1. A block
    that fails takes its per-item loop, which raises at the first bad item with
    that item's message; on json.loads output that loop always finds one."""
    ints = set(map(type, values)) <= {int}
    return ints and (n is None or min(values, default=0) >= 0 and max(values, default=-1) < n)


def _int_rows(rows: Any, n: int | None = None) -> bool:
    """Every row is a list of exact ints, in 0..n-1 given n."""
    flat = chain.from_iterable(rows)
    return set(map(type, rows)) <= {list} and _exact_ints(flat if n is None else list(flat), n)


def _by_vertex(obj: dict[str, Any]) -> dict[int, Any] | None:
    """``obj`` keyed by ``int(key)``; None if a key is not an id or two name one vertex."""
    try:
        out = dict(zip(map(int, obj), obj.values()))
    except ValueError:
        return None
    return out if len(out) == len(obj) else None


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
    if not (_int_rows(edges_obj) and set(map(len, edges_obj)) <= {2}):
        for item in edges_obj:
            if not isinstance(item, list) or len(item) != 2:
                raise ParseError(f"edge {item!r} is not a pair")
            for end in item:
                _as_int(end, "edge endpoint")
    return _built("graph document", Graph, n, edges_obj)


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
        if not _exact_ints(names_obj.values(), graph.n):
            for label, vid in names_obj.items():
                v = _as_int(vid, f"name {label!r}")
                if not 0 <= v < graph.n:
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
    if not _int_rows(layers_obj, n):
        for idx, layer in enumerate(layers_obj, start=1):
            if not isinstance(layer, list):
                raise ParseError(f"layer {idx} is not a list", context={"layer": idx})
            for item in layer:
                v = _as_int(item, f"vertex in layer {idx}")
                if n is not None and not 0 <= v < n:
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
    lists = _by_vertex(lists_obj) if _int_rows(lists_obj.values()) else None
    if lists is None:
        lists = {}
        for key, value in lists_obj.items():
            try:
                v = int(key)
            except (TypeError, ValueError):
                raise ParseError(f"list key {key!r} is not a vertex id") from None
            if v in lists:
                raise ParseError(f"list key {key!r} repeats vertex {v}", context={"vertex": v})
            if not isinstance(value, list):
                raise ParseError(f"list of vertex {v} is not a list", context={"vertex": v})
            lists[v] = [_as_int(c, f"colour of vertex {v}") for c in value]
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
    colors = _by_vertex(colors_obj) if _exact_ints(colors_obj.values()) else None
    if colors is None:
        colors = {}
        for key, value in colors_obj.items():
            try:
                v = int(key)
            except (TypeError, ValueError):
                raise ParseError(f"colour key {key!r} is not a vertex id") from None
            if v in colors:
                raise ParseError(f"colour key {key!r} repeats vertex {v}", context={"vertex": v})
            colors[v] = _as_int(value, f"colour of vertex {v}")
    return Coloring(colors)


def graph_to_obj(doc: NamedGraph) -> dict[str, Any]:
    obj: dict[str, Any] = {"n": doc.graph.n, "edges": [[u, v] for u, v in doc.graph.edges()]}
    if doc.names is not None:
        obj["names"] = dict(sorted(doc.names.items(), key=lambda kv: kv[1]))
    if doc.partition is not None:
        obj["partition"] = partition_to_obj(doc.partition)
    if doc.lists is not None:
        obj["lists"] = lists_to_obj(doc.lists)
    return obj


def partition_to_obj(p: KdPartition) -> dict[str, Any]:
    return {"k": p.k, "d": p.d, "layers": [list(layer) for layer in p.layers]}


def lists_to_obj(lists: ListAssignment) -> dict[str, Any]:
    return {"t": lists.t, "lists": {str(v): list(colours) for v, colours in lists.items()}}


def coloring_to_obj(c: Coloring) -> dict[str, Any]:
    return {"colors": {str(v): c.colors[v] for v in sorted(c.colors)}}


def _key(key: Any) -> str:
    if isinstance(key, str):
        return _escape(key)
    if isinstance(key, (int, float)) or key is None:
        return _escape(json.dumps(key))  # 1 -> "1", True -> "true", nan -> "NaN"
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _rows(values: Any, inner: str) -> Iterator[str] | None:
    """Each of ``values`` as ``_encode`` writes it at ``inner``, by one ``%d``
    template per row length; None unless every value is a list of exact ints."""
    if not _int_rows(values):
        return None
    cell = "," + inner + "  %d"
    templates = {m: f"[{(cell * m)[1:]}{inner}]" if m else "[]" for m in set(map(len, values))}
    return map(str.__mod__, map(templates.__getitem__, map(len, values)), map(tuple, values))


def _encode(value: Any, indent: str) -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it at ``indent``.

    Rows of ints go through ``_rows``; other exact ints and strs are written
    inline, which saves a call per vertex id; everything that is not a
    non-empty container goes to ``json.dumps``.
    """
    if isinstance(value, (list, tuple)) and value:
        inner = indent + "  "
        return "[" + inner + ("," + inner).join(_rows(value, inner) or [
            int.__repr__(v) if type(v) is int else _escape(v) if type(v) is str else _encode(v, inner)
            for v in value
        ]) + indent + "]"
    if isinstance(value, dict) and value:
        inner = indent + "  "
        rows = _rows(value.values(), inner) if set(map(type, value)) <= {str} else None
        members = map("%s: %s".__mod__, zip(map(_escape, value), rows)) if rows else [
            (_escape(k) if type(k) is str else _key(k)) + ": "
            + (int.__repr__(v) if type(v) is int else _escape(v) if type(v) is str else _encode(v, inner))
            for k, v in value.items()
        ]
        return "{" + inner + ("," + inner).join(members) + indent + "}"
    return json.dumps(value)


def dump(obj: Any) -> str:
    r"""``json.dumps(obj, indent=2) + "\n"``, byte for byte.

    The stdlib falls back to its pure-Python encoder whenever ``indent`` is
    set; this writer keeps that layout but escapes strings with the same C
    routine and joins each container in one call.
    """
    return _encode(obj, "\n") + "\n"

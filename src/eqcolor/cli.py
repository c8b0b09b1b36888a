"""Command-line interface.

Subcommands generate graphs, build and verify layer partitions, run the
equitable list colouring, verify colourings, and compute degeneracy.
Documents travel as JSON on files or stdin/stdout ("-"), with at most one
document read from stdin and at most one written to stdout per call (a
missing --out means stdout). Each command returns its exit code and the
documents it made; main writes them only after the command has
returned, files first and stdout last, so a command that fails writes
nothing but its error. Every file target is opened for append before any
document is written, so one that cannot be opened leaves existing files as
they were, and a write that still fails removes the files the call created.
Errors leave as {"code", "message", "context"} objects on stdout with the
exit status their type names: 2 (bad input, or an exhausted budget or
memory) or 3 (parse failure). Exit 1 means a verifier said no or a
search proved absence.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import sys
from random import Random
from typing import Any

from . import fileio
from .coloring import (
    ListAssignment,
    equitable_coloring,
    verify_equitable_list_coloring,
)
from .errors import EqcolorError, InputError, ParseError
from .generators import NamedGraph, gen_basic, gen_example2, gen_gq, gen_planted_partition
from .graph import degeneracy
from .grids import make_grid, partition3d
from .partition import SearchStatus, search_kd_partition, verify_kd_partition


def _read(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc


def _write(path: str, text: str, mode: str = "w") -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _given(path: str | None, embedded, parse, missing: str):
    """The document at path when its flag is given, else the embedded one."""
    if path:
        return parse(_read(path))
    if embedded is None:
        raise InputError(missing)
    return embedded


# A command's exit code and the (path, document object) pairs to write.
Outcome = tuple[int, list[tuple[str, Any]]]


def _verdict(out: str, verdict, fields: tuple[str, ...]) -> Outcome:
    """The {"valid": ...} document; exit 0 if it holds, else 1."""
    if verdict.valid:
        return 0, [(out, {"valid": True})]
    violation = {field: getattr(verdict.violation, field) for field in fields}
    return 1, [(out, {"valid": False, "violation": violation})]


_NO_PARTITION = "no partition given and none embedded in the graph document"


def _dims(value: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in value.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"dims must be comma-separated integers, got {value!r}")


def _cmd_gen(args: argparse.Namespace) -> Outcome:
    kind = args.kind
    if kind == "grid":
        if args.dims is None:
            raise InputError("gen grid requires --dims")
        graph, spec = make_grid(args.dims)
        doc = NamedGraph(graph, dict(zip(spec.labels(), range(graph.n))))
    elif kind == "gq":
        doc = gen_gq(args.q)
    elif kind == "example2":
        doc = gen_example2()
    elif kind == "planted":
        if args.n is None or args.k is None or args.d is None:
            raise InputError("gen planted requires -n, -k, and -d")
        doc = gen_planted_partition(args.n, args.k, args.d, seed=args.seed)
    else:
        if args.n is None:
            raise InputError(f"gen {kind} requires -n")
        doc = gen_basic(kind, n=args.n, p=args.p, seed=args.seed)
    outputs = [(args.out, fileio.graph_to_obj(doc))]
    if args.partition_out:
        if doc.partition is None:
            raise InputError("this generator bundles no partition")
        outputs.append((args.partition_out, fileio.partition_to_obj(doc.partition)))
    if args.lists_out:
        if doc.lists is None:
            raise InputError("this generator bundles no lists")
        outputs.append((args.lists_out, fileio.lists_to_obj(doc.lists)))
    return 0, outputs


def _cmd_partition_verify(args: argparse.Namespace) -> Outcome:
    doc = fileio.parse_graph_document(_read(args.graph))
    partition = _given(args.partition, doc.partition, fileio.parse_partition, _NO_PARTITION)
    verdict = verify_kd_partition(doc.graph, partition)
    return _verdict(args.out, verdict, ("kind", "message", "layer", "position", "vertex"))


def _cmd_partition_grid3d(args: argparse.Namespace) -> Outcome:
    return 0, [(args.out, fileio.partition_to_obj(partition3d(args.dims)))]


def _cmd_partition_search(args: argparse.Namespace) -> Outcome:
    doc = fileio.parse_graph_document(_read(args.graph))
    result = search_kd_partition(doc.graph, args.k, args.d, budget=args.budget)
    if result.status is SearchStatus.FOUND:
        assert result.partition is not None
        return 0, [(args.out, fileio.partition_to_obj(result.partition))]
    if result.status is SearchStatus.PROVED_ABSENT:
        return 1, [(args.out, {"result": "absent", "expanded": result.expanded})]
    return 2, [(args.out, {"result": "budget-exhausted", "expanded": result.expanded})]


def _cmd_color(args: argparse.Namespace) -> Outcome:
    doc = fileio.parse_graph_document(_read(args.graph))
    partition = _given(args.partition, doc.partition, fileio.parse_partition, _NO_PARTITION)
    rng = Random(args.seed)
    if args.uniform_lists is not None:
        t = args.uniform_lists
        palette = args.palette if args.palette is not None else 2 * t
        lists = ListAssignment.uniform_random(doc.graph.n, t, palette, rng)
    else:
        lists = _given(args.lists, doc.lists, fileio.parse_lists,
                       "no lists given: pass --lists or --uniform-lists")
    seed = rng.randrange(2**32) if args.tie_break == "seeded" else None
    coloring = equitable_coloring(doc.graph, partition, lists, seed=seed, debug=args.debug_asserts)
    outputs = [(args.lists_out, fileio.lists_to_obj(lists))] if args.lists_out else []
    return 0, outputs + [(args.out, fileio.coloring_to_obj(coloring))]


def _cmd_verify_coloring(args: argparse.Namespace) -> Outcome:
    doc = fileio.parse_graph_document(_read(args.graph))
    lists = _given(args.lists, doc.lists, fileio.parse_lists,
                   "no lists given and none embedded in the graph document")
    coloring = fileio.parse_coloring(_read(args.coloring))
    if args.t is not None and args.t != lists.t:
        raise InputError(f"-t {args.t} contradicts the lists' uniform size {lists.t}")
    verdict = verify_equitable_list_coloring(doc.graph, lists, lists.t, coloring, args.d)
    return _verdict(args.out, verdict, ("clause", "message", "vertex", "color"))


def _cmd_degeneracy(args: argparse.Namespace) -> Outcome:
    doc = fileio.parse_graph_document(_read(args.graph))
    return 0, [(args.out, degeneracy(doc.graph))]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqcolor",
        description="Equitable list colouring with degenerate colour classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a graph document")
    gen.add_argument(
        "kind",
        choices=["grid", "gq", "example2", "path", "cycle", "complete", "random", "planted"],
    )
    gen.add_argument("--dims", type=_dims, help="grid dimensions, e.g. 5,3,2")
    gen.add_argument("-q", type=int, default=1, help="clique-chain parameter")
    gen.add_argument("-n", type=int, help="vertex count")
    gen.add_argument("-k", type=int, help="layer size for planted")
    gen.add_argument("-d", type=int, help="degree parameter for planted")
    gen.add_argument("-p", type=float, help="edge probability for random")
    gen.add_argument("--seed", type=int, help="random seed")
    gen.add_argument("--out", default="-", help="output path (default stdout)")
    gen.add_argument("--partition-out", default=None, help="also write the bundled partition")
    gen.add_argument("--lists-out", default=None, help="also write the bundled lists")
    gen.set_defaults(func=_cmd_gen)

    part = sub.add_parser("partition", help="build, search, or verify layer partitions")
    psub = part.add_subparsers(dest="subcommand", required=True)

    pverify = psub.add_parser("verify", help="verify a partition against a graph")
    pverify.add_argument("--graph", required=True)
    pverify.add_argument("--partition", default=None)
    pverify.add_argument("--out", default="-")
    pverify.set_defaults(func=_cmd_partition_verify)

    pgrid = psub.add_parser("grid3d", help="direct (3,2)-partition of a 3-dimensional grid")
    pgrid.add_argument("--dims", type=_dims, required=True)
    pgrid.add_argument("--out", default="-")
    pgrid.set_defaults(func=_cmd_partition_grid3d)

    psearch = psub.add_parser("search", help="exhaustive backtracking search for a partition")
    psearch.add_argument("--graph", required=True)
    psearch.add_argument("-k", type=int, required=True)
    psearch.add_argument("-d", type=int, required=True)
    psearch.add_argument("--budget", type=int, default=None, help="max expanded subsets")
    psearch.add_argument("--out", default="-")
    psearch.set_defaults(func=_cmd_partition_search)

    color = sub.add_parser("color", help="equitable list colouring along a partition")
    color.add_argument("--graph", required=True)
    color.add_argument("--partition", default=None)
    color.add_argument("--lists", default=None)
    color.add_argument("--uniform-lists", type=int, default=None, metavar="T",
                       help="generate random T-uniform lists instead of reading them")
    color.add_argument("--palette", type=int, default=None,
                       help="palette size for --uniform-lists (default 2T)")
    color.add_argument("--tie-break", choices=["smallest", "seeded"], default="smallest")
    color.add_argument("--seed", type=int, default=None)
    color.add_argument("--debug-asserts", action="store_true",
                       help="also check the size-t groups (list floors are checked on every run)")
    color.add_argument("--lists-out", default=None, help="write the lists that were used")
    color.add_argument("--out", default="-")
    color.set_defaults(func=_cmd_color)

    vc = sub.add_parser("verify-coloring", help="verify an equitable list colouring")
    vc.add_argument("--graph", required=True)
    vc.add_argument("--lists", default=None)
    vc.add_argument("--coloring", required=True)
    vc.add_argument("-d", type=int, required=True)
    vc.add_argument("-t", type=int, default=None)
    vc.add_argument("--out", default="-")
    vc.set_defaults(func=_cmd_verify_coloring)

    deg = sub.add_parser("degeneracy", help="degeneracy of a graph")
    deg.add_argument("--graph", required=True)
    deg.add_argument("--out", default="-")
    deg.set_defaults(func=_cmd_degeneracy)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # Documents are trees that refcounting frees, so one command leaves no
    # cyclic garbage that grows with them; without the pause the collector
    # walks millions of live parsed containers per command.
    collecting = gc.isenabled()
    gc.disable()
    try:
        for names, stream in (
            (("graph", "partition", "lists", "coloring"), "come from stdin"),
            (("out", "partition_out", "lists_out"), "go to stdout (a missing --out means stdout)"),
        ):
            flags = [f"--{n.replace('_', '-')}" for n in names if getattr(args, n, None) == "-"]
            if len(flags) > 1:
                raise InputError(f"only one document can {stream}, got {' and '.join(flags)}")
        code, outputs = args.func(args)
        # Files in the command's order, then stdout: a failed file write leaves stdout to the error.
        outputs.sort(key=lambda output: output[0] == "-")
        created = [path for path, _ in outputs if path != "-" and not os.path.lexists(path)]
        try:
            # Opening for append neither truncates nor writes, so every target that
            # cannot be opened fails here, before any document is written.
            for path, _ in outputs:
                _write(path, "", "a")
            for path, obj in outputs:
                _write(path, fileio.dump(obj))
        except (InputError, MemoryError):  # main reports these as its one document
            for path in created:
                with contextlib.suppress(OSError):
                    os.remove(path)
            raise
        return code
    except (EqcolorError, MemoryError) as exc:
        err = exc if isinstance(exc, EqcolorError) else InputError("out of memory for this input")
        sys.stdout.write(fileio.dump({"code": err.code, "message": str(err), "context": err.context}))
        return err.exit_status
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())

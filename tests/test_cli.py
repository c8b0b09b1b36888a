from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eqcolor
from eqcolor import InvariantError, NamedGraph, equitable_coloring, gen_example2, verify_kd_partition
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


@pytest.fixture()
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        return code, out

    return _run


@pytest.fixture()
def example_doc(tmp_path, run):
    path = tmp_path / "example.json"
    code, _ = run("gen", "example2", "--out", str(path))
    assert code == 0
    return str(path)


class TestGen:
    def test_example_bundle_files(self, tmp_path, run):
        gpath = tmp_path / "g.json"
        ppath = tmp_path / "p.json"
        lpath = tmp_path / "l.json"
        code, _ = run(
            "gen", "example2",
            "--out", str(gpath),
            "--partition-out", str(ppath),
            "--lists-out", str(lpath),
        )
        assert code == 0
        bundle = gen_example2()
        doc = parse_graph_document(gpath.read_text())
        assert doc.graph == bundle.graph
        assert parse_partition(ppath.read_text()) == bundle.partition
        assert parse_lists(lpath.read_text()) == bundle.lists

    def test_grid_with_coordinate_names(self, run):
        code, out = run("gen", "grid", "--dims", "2,3")
        assert code == 0
        doc = parse_graph_document(out)
        assert doc.graph.n == 6
        assert doc.graph.edge_count() == 7
        assert doc.names is not None and "(1,1)" in doc.names

    def test_grid_requires_dims(self, run):
        code, out = run("gen", "grid")
        assert code == 2
        assert json.loads(out)["code"] == "input-error"

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (["planted", "-n", "5"], "gen planted requires -n, -k, and -d"),
            (["path"], "gen path requires -n"),
        ],
    )
    def test_missing_size_flags(self, run, argv, message):
        code, out = run("gen", *argv)
        assert code == 2
        assert json.loads(out) == {"code": "input-error", "message": message, "context": {}}

    def test_non_integer_dims_is_a_usage_error(self, capsys):
        assert main(["gen", "grid", "--dims", "5,a"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "dims must be comma-separated integers, got '5,a'" in captured.err

    def test_path_to_stdout(self, run):
        code, out = run("gen", "path", "-n", "4")
        assert code == 0
        assert parse_graph_document(out).graph.edge_count() == 3

    def test_planted_partition_verifies(self, tmp_path, run):
        gpath = tmp_path / "g.json"
        ppath = tmp_path / "p.json"
        code, _ = run(
            "gen", "planted", "-n", "15", "-k", "3", "-d", "2",
            "--seed", "5", "--out", str(gpath), "--partition-out", str(ppath),
        )
        assert code == 0
        doc = parse_graph_document(gpath.read_text())
        partition = parse_partition(ppath.read_text())
        assert verify_kd_partition(doc.graph, partition).valid

    def test_clique_chain_has_no_lists(self, tmp_path, run):
        code, out = run(
            "gen", "gq", "-q", "1",
            "--out", str(tmp_path / "g.json"),
            "--lists-out", str(tmp_path / "l.json"),
        )
        assert code == 2
        assert "lists" in json.loads(out)["message"]

    @pytest.mark.parametrize(
        "extra",
        [
            ["--partition-out", "-"],
            ["--lists-out", "-"],
            ["--out", "-", "--partition-out", "-"],
            ["--out", "OUT", "--partition-out", "-", "--lists-out", "-"],
        ],
    )
    def test_two_stdout_documents_rejected(self, tmp_path, run, extra):
        argv = [str(tmp_path / "g.json") if a == "OUT" else a for a in extra]
        code, out = run("gen", "example2", *argv)
        assert code == 2
        err = json.loads(out)  # one error document and nothing before it
        assert err["code"] == "input-error"
        assert "stdout" in err["message"]
        assert list(tmp_path.iterdir()) == []  # rejected before anything is written

    def test_one_stdout_document_beside_files(self, tmp_path, run):
        gpath = tmp_path / "g.json"
        code, out = run("gen", "example2", "--out", str(gpath), "--partition-out", "-")
        assert code == 0
        assert parse_partition(out) == gen_example2().partition
        assert parse_graph_document(gpath.read_text()).graph == gen_example2().graph

    def test_random_graph_is_seeded(self, run):
        _, a = run("gen", "random", "-n", "9", "-p", "0.5", "--seed", "2")
        _, b = run("gen", "random", "-n", "9", "-p", "0.5", "--seed", "2")
        assert a == b


class TestPartitionVerify:
    def test_embedded_partition_valid(self, run, example_doc):
        code, out = run("partition", "verify", "--graph", example_doc)
        assert code == 0
        assert json.loads(out) == {"valid": True}

    def test_explicit_partition_file(self, tmp_path, run, example_doc):
        ppath = tmp_path / "p.json"
        run("gen", "example2", "--out", str(tmp_path / "junk.json"),
            "--partition-out", str(ppath))
        code, out = run(
            "partition", "verify", "--graph", example_doc, "--partition", str(ppath)
        )
        assert code == 0

    def test_invalid_partition_exits_one(self, tmp_path, run):
        gpath = tmp_path / "g.json"
        run("gen", "path", "-n", "3", "--out", str(gpath))
        ppath = tmp_path / "bad.json"
        ppath.write_text('{"k": 2, "d": 1, "layers": [[1], [0, 2]]}')
        code, out = run(
            "partition", "verify", "--graph", str(gpath), "--partition", str(ppath)
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["valid"] is False
        assert payload["violation"]["kind"] == "back-degree"

    def test_uncovered_vertex_exits_one(self, tmp_path, run):
        gpath = tmp_path / "g.json"
        run("gen", "path", "-n", "5", "--out", str(gpath))
        ppath = tmp_path / "short.json"
        ppath.write_text('{"k": 3, "d": 1, "layers": [[0], [1, 2, 3]]}')
        code, out = run(
            "partition", "verify", "--graph", str(gpath), "--partition", str(ppath)
        )
        assert code == 1
        assert json.loads(out) == {"valid": False, "violation": {
            "kind": "structure", "message": "vertex 4 is not covered by any layer",
            "layer": None, "position": None, "vertex": None,
        }}

    def test_missing_partition(self, tmp_path, run):
        gpath = tmp_path / "g.json"
        run("gen", "path", "-n", "3", "--out", str(gpath))
        code, out = run("partition", "verify", "--graph", str(gpath))
        assert code == 2
        assert json.loads(out)["code"] == "input-error"

    def test_two_stdin_documents_rejected(self, run, example_doc, monkeypatch):
        stdin = io.StringIO(Path(example_doc).read_text())
        monkeypatch.setattr(sys, "stdin", stdin)
        code, out = run("partition", "verify", "--graph", "-", "--partition", "-")
        assert code == 2
        payload = json.loads(out)
        assert payload["code"] == "input-error"
        assert "--graph and --partition" in payload["message"]
        assert stdin.tell() == 0  # rejected before any document is read


class TestPartitionGrid3d:
    def test_output_verifies_against_grid(self, tmp_path, run):
        gpath = tmp_path / "g.json"
        ppath = tmp_path / "p.json"
        run("gen", "grid", "--dims", "3,3,2", "--out", str(gpath))
        code, _ = run("partition", "grid3d", "--dims", "3,3,2", "--out", str(ppath))
        assert code == 0
        code, out = run(
            "partition", "verify", "--graph", str(gpath), "--partition", str(ppath)
        )
        assert code == 0
        assert json.loads(out) == {"valid": True}

    def test_wrong_dimensionality(self, run):
        code, out = run("partition", "grid3d", "--dims", "3,3")
        assert code == 2
        assert json.loads(out)["code"] == "input-error"


class TestPartitionSearch:
    def test_found_writes_partition(self, tmp_path, run):
        gpath = tmp_path / "g.json"
        run("gen", "path", "-n", "5", "--out", str(gpath))
        code, out = run("partition", "search", "--graph", str(gpath), "-k", "1", "-d", "2")
        assert code == 0
        p = parse_partition(out)
        assert p.k == 1 and p.d == 2

    def test_absence_exits_one(self, tmp_path, run):
        gpath = tmp_path / "g.json"
        run("gen", "path", "-n", "2", "--out", str(gpath))
        code, out = run("partition", "search", "--graph", str(gpath), "-k", "1", "-d", "1")
        assert code == 1
        assert json.loads(out)["result"] == "absent"

    def test_budget_exhaustion_exits_two(self, tmp_path, run):
        gpath = tmp_path / "g.json"
        run("gen", "gq", "-q", "2", "--out", str(gpath))
        code, out = run(
            "partition", "search", "--graph", str(gpath),
            "-k", "7", "-d", "1", "--budget", "5",
        )
        assert code == 2
        payload = json.loads(out)
        assert payload["result"] == "budget-exhausted"
        assert payload["expanded"] >= 5


class TestColor:
    def test_bundled_example(self, run, example_doc):
        code, out = run("color", "--graph", example_doc)
        assert code == 0
        coloring = parse_coloring(out)
        assert len(coloring.colors) == 20

    def test_matches_verifier_pipeline(self, tmp_path, run, example_doc):
        cpath = tmp_path / "c.json"
        code, _ = run("color", "--graph", example_doc, "--out", str(cpath),
                      "--debug-asserts")
        assert code == 0
        code, out = run(
            "verify-coloring", "--graph", example_doc,
            "--coloring", str(cpath), "-d", "3",
        )
        assert code == 0
        assert json.loads(out) == {"valid": True}

    def test_uniform_lists_roundtrip(self, tmp_path, run):
        gpath = tmp_path / "g.json"
        ppath = tmp_path / "p.json"
        cpath = tmp_path / "c.json"
        lpath = tmp_path / "l.json"
        run("gen", "grid", "--dims", "4,3,2", "--out", str(gpath))
        run("partition", "grid3d", "--dims", "4,3,2", "--out", str(ppath))
        code, _ = run(
            "color", "--graph", str(gpath), "--partition", str(ppath),
            "--uniform-lists", "3", "--seed", "11",
            "--lists-out", str(lpath), "--out", str(cpath),
        )
        assert code == 0
        assert parse_lists(lpath.read_text()).t == 3
        code, out = run(
            "verify-coloring", "--graph", str(gpath), "--lists", str(lpath),
            "--coloring", str(cpath), "-d", "2",
        )
        assert code == 0

    def test_huge_palette(self, tmp_path, run):
        gpath = tmp_path / "g.json"
        ppath = tmp_path / "p.json"
        cpath = tmp_path / "c.json"
        lpath = tmp_path / "l.json"
        run("gen", "grid", "--dims", "2,2,2", "--out", str(gpath))
        run("partition", "grid3d", "--dims", "2,2,2", "--out", str(ppath))
        code, _ = run(
            "color", "--graph", str(gpath), "--partition", str(ppath),
            "--uniform-lists", "3", "--palette", "99999999999999",
            "--lists-out", str(lpath), "--out", str(cpath),
        )
        assert code == 0
        code, out = run(
            "verify-coloring", "--graph", str(gpath), "--lists", str(lpath),
            "--coloring", str(cpath), "-d", "2",
        )
        assert code == 0
        assert json.loads(out) == {"valid": True}

    def test_lists_and_colouring_both_to_stdout_rejected(self, tmp_path, run, example_doc):
        code, out = run("color", "--graph", example_doc, "--uniform-lists", "3",
                        "--lists-out", "-")
        assert code == 2
        assert json.loads(out)["code"] == "input-error"
        cpath = tmp_path / "c.json"
        code, out = run("color", "--graph", example_doc, "--uniform-lists", "3",
                        "--lists-out", "-", "--out", str(cpath))
        assert code == 0
        assert parse_lists(out).t == 3
        assert len(parse_coloring(cpath.read_text()).colors) == 20

    def test_non_positive_uniform_list_size(self, run, example_doc):
        for t in ("0", "-1"):
            code, out = run("color", "--graph", example_doc, "--uniform-lists", t,
                            "--palette", "5")
            assert code == 2
            assert json.loads(out)["code"] == "input-error"

    def test_seeded_tie_break_is_reproducible(self, run, example_doc):
        _, a = run("color", "--graph", example_doc, "--tie-break", "seeded", "--seed", "7")
        _, b = run("color", "--graph", example_doc, "--tie-break", "seeded", "--seed", "7")
        assert a == b

    def test_missing_lists(self, tmp_path, run):
        gpath = tmp_path / "g.json"
        ppath = tmp_path / "p.json"
        run("gen", "path", "-n", "4", "--out", str(gpath))
        run("partition", "search", "--graph", str(gpath), "-k", "1", "-d", "2",
            "--out", str(ppath))
        code, out = run("color", "--graph", str(gpath), "--partition", str(ppath))
        assert code == 2
        assert json.loads(out)["code"] == "input-error"


class TestVerifyColoring:
    def test_invalid_colouring_exits_one(self, tmp_path, run, example_doc):
        cpath = tmp_path / "c.json"
        run("color", "--graph", example_doc, "--out", str(cpath))
        broken = json.loads(cpath.read_text())
        broken["colors"]["0"] = 9
        cpath.write_text(json.dumps(broken))
        code, out = run(
            "verify-coloring", "--graph", example_doc,
            "--coloring", str(cpath), "-d", "3",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["valid"] is False
        assert payload["violation"]["clause"] == "list"

    def test_repeated_vertex_key_exits_three(self, tmp_path, run, example_doc):
        cpath = tmp_path / "c.json"
        cpath.write_text('{"colors": {"0": 1, "00": 2}}')
        code, out = run(
            "verify-coloring", "--graph", example_doc,
            "--coloring", str(cpath), "-d", "3",
        )
        assert code == 3
        assert json.loads(out)["code"] == "parse-error"

    def test_two_stdin_documents_rejected(self, tmp_path, run, example_doc, monkeypatch):
        cpath = tmp_path / "c.json"
        run("color", "--graph", example_doc, "--out", str(cpath))
        monkeypatch.setattr(sys, "stdin", io.StringIO(cpath.read_text()))
        code, out = run(
            "verify-coloring", "--graph", example_doc,
            "--lists", "-", "--coloring", "-", "-d", "3",
        )
        assert code == 2
        payload = json.loads(out)
        assert payload["code"] == "input-error"
        assert "--lists and --coloring" in payload["message"]

    def test_coloring_from_stdin(self, tmp_path, run, example_doc, monkeypatch):
        cpath = tmp_path / "c.json"
        run("color", "--graph", example_doc, "--out", str(cpath))
        monkeypatch.setattr(sys, "stdin", io.StringIO(cpath.read_text()))
        code, out = run(
            "verify-coloring", "--graph", example_doc, "--coloring", "-", "-d", "3",
        )
        assert code == 0
        assert json.loads(out) == {"valid": True}

    def test_t_mismatch_rejected(self, tmp_path, run, example_doc):
        cpath = tmp_path / "c.json"
        run("color", "--graph", example_doc, "--out", str(cpath))
        code, out = run(
            "verify-coloring", "--graph", example_doc,
            "--coloring", str(cpath), "-d", "3", "-t", "5",
        )
        assert code == 2
        assert "contradicts" in json.loads(out)["message"]


class TestDegeneracyCommand:
    def test_path(self, tmp_path, run):
        gpath = tmp_path / "g.json"
        run("gen", "path", "-n", "6", "--out", str(gpath))
        code, out = run("degeneracy", "--graph", str(gpath))
        assert code == 0
        assert json.loads(out) == 1

    def test_reads_dimacs(self, tmp_path, run):
        gpath = tmp_path / "g.col"
        gpath.write_text("c tiny clique\np edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
        code, out = run("degeneracy", "--graph", str(gpath))
        assert code == 0
        assert json.loads(out) == 2

    def test_reads_stdin(self, run, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("p edge 2 1\ne 1 2\n"))
        code, out = run("degeneracy", "--graph", "-")
        assert code == 0
        assert json.loads(out) == 1


class TestErrorChannel:
    def test_parse_failure_exits_three(self, tmp_path, run):
        gpath = tmp_path / "g.json"
        gpath.write_text("{broken")
        code, out = run("degeneracy", "--graph", str(gpath))
        assert code == 3
        payload = json.loads(out)
        assert payload["code"] == "parse-error"
        assert payload["context"] == {"kind": "graph document"}

    @pytest.mark.parametrize(
        "data",
        [
            b"\xff\xfe{}",
            b'{"a":' * 100_000,
            b'{"n": ' + b"9" * 5000 + b', "edges": []}',
        ],
        ids=["not-utf8", "deep-nesting", "digit-limit"],
    )
    def test_hostile_bytes_exit_three(self, tmp_path, run, data):
        gpath = tmp_path / "g.json"
        gpath.write_bytes(data)
        code, out = run("degeneracy", "--graph", str(gpath))
        assert code == 3
        assert json.loads(out)["code"] == "parse-error"

    def test_missing_file_exits_two(self, run):
        code, out = run("degeneracy", "--graph", "/nowhere/missing.json")
        assert code == 2
        assert json.loads(out)["code"] == "input-error"

    def test_out_of_memory_exits_two(self, tmp_path):
        resource = pytest.importorskip("resource")
        gpath = tmp_path / "g.json"
        gpath.write_text('{"n": 100000000000, "edges": []}')
        limit = 400 * 2**20

        def cap_memory():  # runs in the child only
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        src = str(Path(eqcolor.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-m", "eqcolor.cli", "degeneracy", "--graph", str(gpath)],
            capture_output=True, text=True, env=env, preexec_fn=cap_memory, timeout=120,
        )
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["code"] == "input-error"

    def test_invariant_error_document(self, run, example_doc, monkeypatch):
        def broken(*args, **kwargs):
            raise InvariantError("boom", context={"vertex": 1})

        monkeypatch.setattr("eqcolor.cli.equitable_coloring", broken)
        code, out = run("color", "--graph", example_doc)
        assert code == 2
        assert json.loads(out) == {"code": "invariant-error", "message": "boom", "context": {"vertex": 1}}

    @pytest.mark.parametrize(
        ("block", "message"),
        [
            ({"partition": []}, "partition must be a JSON object"),
            ({"lists": 5}, "lists document must be a JSON object"),
        ],
        ids=["partition", "lists"],
    )
    def test_embedded_block_that_is_not_an_object_exits_three(self, tmp_path, run, block, message):
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps({"n": 2, "edges": [[0, 1]], **block}))
        code, out = run("degeneracy", "--graph", str(gpath))
        assert code == 3
        assert json.loads(out) == {"code": "parse-error", "message": message, "context": {}}

    def test_unknown_command_exits_nonzero(self, run, capsys):
        code = main(["frobnicate"])
        capsys.readouterr()
        assert code != 0


class TestNothingWrittenOnFailure:
    """A command that fails leaves exactly one document, its error, and no files."""

    @staticmethod
    def only_error(out, message):
        # json.loads rejects a second document after the first
        assert json.loads(out) == {"code": "input-error", "message": message, "context": {}}

    @pytest.mark.parametrize(
        ("flag", "message"),
        [
            ("--partition-out", "this generator bundles no partition"),
            ("--lists-out", "this generator bundles no lists"),
        ],
        ids=["partition", "lists"],
    )
    @pytest.mark.parametrize("graph_out", [False, True], ids=["graph-to-stdout", "graph-to-file"])
    def test_generator_without_the_bundle(self, tmp_path, run, flag, message, graph_out):
        argv = ["gen", "path", "-n", "2", flag, str(tmp_path / "p.json")]
        if graph_out:
            argv += ["--out", str(tmp_path / "g.json")]
        code, out = run(*argv)
        assert code == 2
        self.only_error(out, message)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        ("partition", "t", "message"),
        [
            ('{"k": 2, "d": 1, "layers": [[1], [0, 2]]}', "2",
             "partition does not verify: vertex 0 at layer 2 position 1 has 1 "
             "back-neighbours, allowed 0"),
            ('{"k": 2, "d": 2, "layers": [[1], [0, 2]]}', "1",
             "uniform list size t=1 must be at least k=2"),
        ],
        ids=["invalid-partition", "t-below-k"],
    )
    def test_colouring_that_fails(self, tmp_path, run, partition, t, message):
        gpath = tmp_path / "g.json"
        ppath = tmp_path / "p.json"
        run("gen", "path", "-n", "3", "--out", str(gpath))
        ppath.write_text(partition)
        code, out = run(
            "color", "--graph", str(gpath), "--partition", str(ppath), "--uniform-lists", t,
            "--lists-out", "-", "--out", str(tmp_path / "c.json"),
        )
        assert code == 2
        self.only_error(out, message)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.json", "p.json"]

    def test_unwritable_file_leaves_stdout_to_the_error(self, tmp_path, run):
        target = tmp_path / "missing" / "p.json"
        code, out = run("gen", "gq", "--partition-out", str(target))
        assert code == 2
        err = json.loads(out)
        assert err["code"] == "input-error"
        assert err["message"].startswith(f"cannot write {target}: ")
        assert not target.parent.exists()

    def test_failed_later_write_removes_the_files_the_call_created(self, tmp_path, run):
        target = tmp_path / "missing" / "p.json"
        code, out = run("gen", "example2", "--out", str(tmp_path / "g.json"),
                        "--partition-out", str(target))
        assert code == 2
        assert json.loads(out)["message"].startswith(f"cannot write {target}: ")
        assert list(tmp_path.iterdir()) == []

    def test_failed_later_write_keeps_files_that_were_there_before(self, tmp_path, run):
        gpath = tmp_path / "g.json"
        gpath.write_text("old")
        target = tmp_path / "missing" / "p.json"
        code, out = run("gen", "example2", "--out", str(gpath), "--partition-out", str(target))
        assert code == 2
        assert json.loads(out)["message"].startswith(f"cannot write {target}: ")
        assert list(tmp_path.iterdir()) == [gpath]
        assert parse_graph_document(gpath.read_text()).graph == gen_example2().graph


def _pipeline(tmp_path, dims):
    f = {k: str(tmp_path / f"{k}.json") for k in ("graph", "part", "lists", "col", "out")}
    return f, [
        ["gen", "grid", "--dims", dims, "--out", f["graph"]],
        ["partition", "grid3d", "--dims", dims, "--out", f["part"]],
        ["color", "--graph", f["graph"], "--partition", f["part"], "--uniform-lists", "4",
         "--seed", "7", "--lists-out", f["lists"], "--out", f["col"]],
        ["verify-coloring", "--graph", f["graph"], "--lists", f["lists"],
         "--coloring", f["col"], "-d", "2", "--out", f["out"]],
        ["partition", "verify", "--graph", f["graph"], "--partition", f["part"], "--out", f["out"]],
        ["degeneracy", "--graph", f["graph"], "--out", f["out"]],
    ]


def test_pipeline_documents_are_json_dumps_indent_2(tmp_path, run):
    def same_as_stdlib(text):
        assert text == json.dumps(json.loads(text), indent=2) + "\n"

    f, steps = _pipeline(tmp_path, "10,10,10")
    for argv in steps:
        assert run(*argv) == (0, "")
        if argv[-1] == f["out"]:
            same_as_stdlib(Path(f["out"]).read_text())
    for name in ("graph", "part", "lists", "col"):
        same_as_stdlib(Path(f[name]).read_text())
    assert json.loads(Path(f["graph"]).read_text())["names"]["(10,10,10)"] == 999
    Path(f["graph"]).write_text('{"n": 2, "edges": [[0, "\u00e9"]]}')
    code, out = run("degeneracy", "--graph", f["graph"])
    assert code == 3
    same_as_stdlib(out)


class TestCollectorPause:
    @pytest.fixture()
    def commands(self, tmp_path, run):
        gpath = tmp_path / "g.json"
        run("gen", "path", "-n", "2", "--out", str(gpath))
        (tmp_path / "broken.json").write_text("{")
        return {
            0: ["degeneracy", "--graph", str(gpath)],
            1: ["partition", "search", "--graph", str(gpath), "-k", "1", "-d", "1"],
            2: ["gen", "grid"],
            3: ["degeneracy", "--graph", str(tmp_path / "broken.json")],
        }

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("exit_code", [0, 1, 2, 3])
    def test_collector_state_is_restored(self, commands, run, enabled, exit_code):
        before = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert run(*commands[exit_code])[0] == exit_code
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if before else gc.disable)()

    def test_collector_state_survives_an_unexpected_exception(self, commands, monkeypatch):
        def boom(graph):
            assert not gc.isenabled()
            raise RuntimeError("boom")

        monkeypatch.setattr("eqcolor.cli.degeneracy", boom)
        assert gc.isenabled()
        with pytest.raises(RuntimeError):
            main(commands[0])
        assert gc.isenabled()

    def test_no_cyclic_garbage_grows_with_the_documents(self, tmp_path):
        def garbage_per_command(dims):
            _, steps = _pipeline(tmp_path, dims)
            counts = []
            gc.collect()
            for argv in steps:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(argv) == 0
                counts.append(gc.collect())
            return counts

        garbage_per_command("3,3,3")  # warm-up: first-call caches
        small = garbage_per_command("3,3,3")
        assert garbage_per_command("10,20,20") == small


_EXAMPLE = gen_example2()
_VALID = {
    "graph": dump(graph_to_obj(NamedGraph(_EXAMPLE.graph))).encode(),
    "partition": dump(partition_to_obj(_EXAMPLE.partition)).encode(),
    "lists": dump(lists_to_obj(_EXAMPLE.lists)).encode(),
    "coloring": dump(
        coloring_to_obj(equitable_coloring(_EXAMPLE.graph, _EXAMPLE.partition, _EXAMPLE.lists))
    ).encode(),
}
# Small JSON values: a document with a huge "n" allocates before any
# check, which is an open size-rule question, not a parse path.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 25) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def _document(draw, kind):
    """Raw bytes, random JSON, or a valid document with bytes or a value swapped."""
    valid = _VALID[kind]
    how = draw(st.sampled_from(["bytes", "json", "spliced"] + ["patched", "valid"] * 3))
    if how == "bytes":
        return draw(st.binary(max_size=80))
    if how == "json":
        return json.dumps(draw(_JSON)).encode()
    if how == "spliced":
        cut = draw(st.integers(0, len(valid)))
        end = draw(st.integers(cut, min(len(valid), cut + 12)))
        return valid[:cut] + draw(st.binary(max_size=6)) + valid[end:]
    if how == "patched":
        root = json.loads(valid)
        node = root
        while True:  # walk down to a random container, then replace one member
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            if not keys:
                break
            key = draw(st.sampled_from(keys))
            child = node[key]
            if isinstance(child, (dict, list)) and child and draw(st.booleans()):
                node = child
                continue
            node[key] = draw(st.integers(-3, 25) | _JSON)
            break
        return json.dumps(root).encode()
    return valid


class TestFuzz:
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([
            ["degeneracy", "--graph", "@graph"],
            ["partition", "verify", "--graph", "@graph", "--partition", "@partition"],
            ["color", "--graph", "@graph", "--partition", "@partition", "--lists", "@lists"],
            ["verify-coloring", "--graph", "@graph", "--lists", "@lists",
             "--coloring", "@coloring", "-d", "3"],
        ]),
        st.fixed_dictionaries({kind: _document(kind) for kind in _VALID}),
    )
    def test_any_bytes_give_one_document_and_a_contract_exit(self, argv, docs):
        with tempfile.TemporaryDirectory() as tmp:
            paths = {}
            for kind, data in docs.items():
                paths["@" + kind] = os.path.join(tmp, kind)
                with open(paths["@" + kind], "wb") as fh:
                    fh.write(data)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([paths.get(arg, arg) for arg in argv])
        assert code in (0, 1, 2, 3)
        json.loads(out.getvalue())  # exactly one document: extra data fails
        assert err.getvalue() == ""

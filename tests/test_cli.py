from __future__ import annotations

import io
import json
import sys
from pathlib import Path

import pytest

from eqcolor import gen_example2, verify_kd_partition
from eqcolor.cli import main
from eqcolor.fileio import (
    parse_coloring,
    parse_graph_document,
    parse_lists,
    parse_partition,
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

    def test_missing_file_exits_two(self, run):
        code, out = run("degeneracy", "--graph", "/nowhere/missing.json")
        assert code == 2
        assert json.loads(out)["code"] == "input-error"

    def test_unknown_command_exits_nonzero(self, run, capsys):
        code = main(["frobnicate"])
        capsys.readouterr()
        assert code != 0

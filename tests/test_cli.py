"""Command-line interface: workflows over the bundled demo, exit codes."""

import argparse
import gc
import io
import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ontomed
from ontomed import cli, errors
from ontomed.cli import main
from ontomed.quadstore import Dataset
from ontomed.releases import apply_release, load_release
from ontomed.sources import wrapper_schemas
from ontomed.terms import (
    G_HAS_FEATURE,
    GLOBAL_GRAPH,
    M_MAPPING,
    MAPPINGS_GRAPH,
    RDF_TYPE,
    S_ATTRIBUTE,
    S_DATA_SOURCE,
    S_HAS_ATTRIBUTE,
    S_HAS_WRAPPER,
    S_WRAPPER,
    SOURCE_GRAPH,
    mapping_graph_iri,
    source_iri,
    wrapper_iri,
)
from ontomed.workspace import LOCK_FILE, Workspace

DEMO = Path(__file__).resolve().parent.parent / "demo"
W1_TEXT = (DEMO / "releases" / "w1.json").read_text(encoding="utf-8")
W1_DOC = json.loads(W1_TEXT)
# Nested far beyond the recursion limit, which json.loads meets as a RecursionError.
DEEP_JSON = "[" * 200_000 + "]" * 200_000


@pytest.fixture
def ws(tmp_path):
    root = tmp_path / "ws"
    assert main(["init", str(root), "--global-graph", str(DEMO / "global.quads")]) == 0
    shutil.copytree(DEMO / "data", root / "data")
    return root


@pytest.fixture
def loaded_ws(ws):
    for name in ("w1", "w2", "w3"):
        assert main(["-w", str(ws), "release", str(DEMO / "releases" / f"{name}.json")]) == 0
    return ws


class TestWorkflow:
    def test_init_reports_quads(self, tmp_path, capsys):
        root = tmp_path / "fresh"
        assert main(["init", str(root), "--global-graph", str(DEMO / "global.quads")]) == 0
        out = capsys.readouterr().out
        assert "initialized workspace" in out
        assert (root / "ontology.quads").exists()

    def test_reinit_refused(self, ws, capsys):
        assert main(["init", str(ws), "--global-graph", str(DEMO / "global.quads")]) == 4

    def test_release_prints_growth(self, ws, capsys):
        code = main(["-w", str(ws), "release", str(DEMO / "releases" / "w1.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "registered wrapper W1" in out
        assert "total" in out

    def test_validate_clean(self, loaded_ws, capsys):
        assert main(["-w", str(loaded_ws), "validate"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_stats_counts(self, loaded_ws, capsys):
        assert main(["-w", str(loaded_ws), "stats"]) == 0
        out = capsys.readouterr().out
        assert "global: 22" in out and "total:" in out

    def test_query_executes_union(self, loaded_ws, capsys):
        code = main(["-w", str(loaded_ws), "query", str(DEMO / "query.rq")])
        out = capsys.readouterr().out
        assert code == 0
        assert "1 walk(s)" in out
        for row in ("1,0.75", "1,0.90", "2,0.1"):
            assert row in out

    def test_query_reads_csv_with_byte_order_mark(self, loaded_ws, capsys):
        # Spreadsheet tools save UTF-8 CSV with a leading byte-order mark.
        path = loaded_ws / "data" / "w1.csv"
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        code = main(["-w", str(loaded_ws), "query", str(DEMO / "query.rq")])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        assert out.splitlines()[-3:] == ["1,0.75", "1,0.90", "2,0.1"]

    def test_query_after_evolution(self, loaded_ws, capsys):
        assert main(["-w", str(loaded_ws), "release",
                     str(DEMO / "releases" / "w4.json")]) == 0
        code = main(["-w", str(loaded_ws), "query", str(DEMO / "query.rq")])
        out = capsys.readouterr().out
        assert code == 0
        assert "2 walk(s)" in out
        assert "1,0.80" in out and "2,0.2" in out

    def test_query_verbose_trace(self, loaded_ws, capsys):
        assert main(["-w", str(loaded_ws), "query", "--verbose", "--explain",
                     str(DEMO / "query.rq")]) == 0
        out = capsys.readouterr().out
        assert "phase 1" in out and "phase 2" in out and "phase 3" in out

    def test_query_explain_skips_execution(self, loaded_ws, capsys):
        assert main(["-w", str(loaded_ws), "query", "--explain",
                     str(DEMO / "query.rq")]) == 0
        out = capsys.readouterr().out
        assert "0.75" not in out

    def test_workspace_env_variable(self, loaded_ws, capsys, monkeypatch):
        monkeypatch.setenv("ONTOMED_WORKSPACE", str(loaded_ws))
        assert main(["stats"]) == 0

    def test_release_on_saved_workspace_builds_no_index(self, loaded_ws, capsys, monkeypatch):
        # Load, apply and save: point lookups and the ordered quads suffice.
        def refuse(ds):
            raise AssertionError("a release built the quad store's indexes")
        monkeypatch.setattr(Dataset, "_indexes", refuse)
        assert main(["-w", str(loaded_ws), "release", str(DEMO / "releases" / "w4.json")]) == 0
        monkeypatch.undo()
        assert main(["-w", str(loaded_ws), "query", str(DEMO / "query.rq")]) == 0
        assert "2 walk(s)" in capsys.readouterr().out

    def test_validate_reports_wrapper_without_attributes(self, tmp_path, capsys):
        # A source graph wrapper with no S:hasAttribute fails every query
        # once the catalog compiles it, so validate must refuse it first.
        quads = tmp_path / "global.quads"
        quads.write_text((DEMO / "global.quads").read_text(encoding="utf-8") + "".join(
            f"<{SOURCE_GRAPH}> <{s}> <{p}> <{o}>\n" for s, p, o in (
                (wrapper_iri("W9"), RDF_TYPE, S_WRAPPER),
                (source_iri("D9"), RDF_TYPE, S_DATA_SOURCE),
                (source_iri("D9"), S_HAS_WRAPPER, wrapper_iri("W9")))),
            encoding="utf-8")
        root = tmp_path / "ws"
        assert main(["init", str(root), "--global-graph", str(quads)]) == 0
        shutil.copytree(DEMO / "data", root / "data")
        for name in ("w1", "w2", "w3", "w4"):
            assert main(["-w", str(root), "release", str(DEMO / "releases" / f"{name}.json")]) == 0
        capsys.readouterr()
        assert main(["-w", str(root), "query", str(DEMO / "query.rq")]) == 2
        assert one_line_error(capsys) == "error: wrapper W9: no attributes"
        assert main(["-w", str(root), "validate"]) == 2
        assert capsys.readouterr().out == f"RULEV3 <{wrapper_iri('W9')}> Wrapper has no hasAttribute link\n"

    def test_validate_reports_wrapper_without_owner(self, tmp_path, capsys):
        # A typed wrapper that no source owns is left out of the catalog, so
        # every query would answer as if it did not exist.
        attr = source_iri("D9") + "/a"
        quads = tmp_path / "global.quads"
        quads.write_text((DEMO / "global.quads").read_text(encoding="utf-8") + "".join(
            f"<{SOURCE_GRAPH}> <{s}> <{p}> <{o}>\n" for s, p, o in (
                (wrapper_iri("W9"), RDF_TYPE, S_WRAPPER),
                (wrapper_iri("W9"), S_HAS_ATTRIBUTE, attr),
                (attr, RDF_TYPE, S_ATTRIBUTE))),
            encoding="utf-8")
        root = tmp_path / "ws"
        assert main(["init", str(root), "--global-graph", str(quads)]) == 0
        for name in ("w1", "w2", "w3"):
            assert main(["-w", str(root), "release", str(DEMO / "releases" / f"{name}.json")]) == 0
        capsys.readouterr()
        assert main(["-w", str(root), "validate"]) == 2
        assert capsys.readouterr().out == f"RULEV3 <{wrapper_iri('W9')}> Wrapper has no hasWrapper link\n"

    def test_validate_reports_source_name_with_slash(self, loaded_ws, capsys):
        # Renaming source D1 to D/1 in the saved quads keeps its attributes
        # prefixed by its IRI, so V6 holds, yet the catalog refuses the name
        # at the first query, so validate must refuse it first.
        path = loaded_ws / "ontology.quads"
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("DataSource/D1", "DataSource/D/1"), encoding="utf-8")
        capsys.readouterr()
        assert main(["-w", str(loaded_ws), "query", str(DEMO / "query.rq")]) == 2
        assert one_line_error(capsys) == "error: wrapper W1: source name 'D/1' contains '/'"
        assert main(["-w", str(loaded_ws), "validate"]) == 2
        assert capsys.readouterr().out == (
            f"RULEV7 <{source_iri('D/1')}> source name 'D/1' contains '/'\n")

    def test_validate_names_a_wrapper_with_two_owners(self, loaded_ws, capsys):
        # The catalog reads W1's least owner, D1, so the query still answers;
        # V6 flags W1's attributes against D2, and V3 names W1 itself.
        path = loaded_ws / "ontology.quads"
        with path.open("a", encoding="utf-8") as f:
            f.write(f"<{SOURCE_GRAPH}> <{source_iri('D2')}> <{S_HAS_WRAPPER}> <{wrapper_iri('W1')}>\n")
        capsys.readouterr()
        assert main(["-w", str(loaded_ws), "query", str(DEMO / "query.rq")]) == 0
        capsys.readouterr()
        assert main(["-w", str(loaded_ws), "validate"]) == 2
        assert capsys.readouterr().out.splitlines() == [
            f"RULEV3 <{wrapper_iri('W1')}> Wrapper has 2 hasWrapper links",
            *(f"RULEV6 <{source_iri('D1')}/{attr}> attribute not prefixed by its source "
              f"<{source_iri('D2')}>" for attr in ("VoDmonitorId", "lagRatio"))]

    # The W1 link dropped, or a second one to a graph with no quads, which
    # sorts before W1's own: either way the catalog reads no LAV graph for
    # W1, and the query loses W1's walk without an error.
    @pytest.mark.parametrize("count, detail", [(0, "no M:mapping link"), (2, "2 M:mapping links")])
    def test_validate_reports_wrapper_without_one_mapping_link(self, loaded_ws, capsys,
                                                               count, detail):
        assert main(["-w", str(loaded_ws), "release", str(DEMO / "releases" / "w4.json")]) == 0
        path = loaded_ws / "ontology.quads"
        link = f"<{MAPPINGS_GRAPH}> <{wrapper_iri('W1')}> <{M_MAPPING}> <{mapping_graph_iri('W%s')}>\n"
        text = path.read_text(encoding="utf-8")
        assert link % 1 in text
        path.write_text(text.replace(link % 1, "") if count == 0 else text + link % 0,
                        encoding="utf-8")
        capsys.readouterr()
        assert main(["-w", str(loaded_ws), "query", str(DEMO / "query.rq")]) == 0
        assert "1 walk(s)" in capsys.readouterr().out
        assert main(["-w", str(loaded_ws), "validate"]) == 2
        assert capsys.readouterr().out == f"RULEV8 <{wrapper_iri('W1')}> Wrapper has {detail}\n"

    # W1, or its source D1, moved out of S:Wrapper/ or S:DataSource/ in
    # every quad that holds its IRI: the catalog leaves W1 out, so the query
    # fails on W1's binding or finds no wrapper for W1's concept.
    @pytest.mark.parametrize("kind, namespace, name, code, error", [
        ("Wrapper", wrapper_iri(""), "W1", 4,
         "error: bound wrapper W1 is not registered in the ontology"),
        ("DataSource", source_iri(""), "D1", 3,
         "error: no wrapper answers concept <http://www.supersede.eu/ontology/InfoMonitor>"
         " with its requested features"),
    ], ids=["wrapper", "source"])
    def test_validate_reports_iri_outside_its_namespace(self, loaded_ws, capsys,
                                                        kind, namespace, name, code, error):
        assert main(["-w", str(loaded_ws), "release", str(DEMO / "releases" / "w4.json")]) == 0
        iri, moved = namespace + name, namespace.replace(f"/{kind}/", f"/{kind}s/") + name
        path = loaded_ws / "ontology.quads"
        text = path.read_text(encoding="utf-8")
        assert iri in text
        path.write_text(text.replace(iri, moved), encoding="utf-8")
        capsys.readouterr()
        assert main(["-w", str(loaded_ws), "query", str(DEMO / "query.rq")]) == code
        assert one_line_error(capsys) == error
        assert main(["-w", str(loaded_ws), "validate"]) == 2
        assert capsys.readouterr().out == f"RULEV9 <{moved}> {kind} IRI is not under <{namespace}>\n"


class TestExitCodes:
    def test_duplicate_release_is_validation_error(self, loaded_ws, capsys):
        code = main(["-w", str(loaded_ws), "release", str(DEMO / "releases" / "w1.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_query_syntax(self, loaded_ws, tmp_path, capsys):
        bad = tmp_path / "bad.rq"
        bad.write_text("SELECT ?x FROM G: WHERE { VALUES (?x) { (sup:lagRatio) } "
                       "FILTER (?x > 3) }", encoding="utf-8")
        assert main(["-w", str(loaded_ws), "query", str(bad)]) == 3
        assert "FILTER" in capsys.readouterr().err

    def test_unrewritable_query(self, ws, capsys):
        # No wrappers registered yet, so no concept can be answered.
        assert main(["-w", str(ws), "query", str(DEMO / "query.rq")]) == 3

    def test_query_blocked_by_shared_source(self, ws, tmp_path, capsys):
        # W3.MonitorId and W1.VoDmonitorId both map sup:monitorId, so only
        # the distinct-source rule keeps W3 out of W1's walk.
        doc = json.loads((DEMO / "releases" / "w3.json").read_text(encoding="utf-8"))
        doc["wrapper"]["source"] = "D1"
        (tmp_path / "w3.json").write_text(json.dumps(doc), encoding="utf-8")
        for path in (DEMO / "releases" / "w1.json", tmp_path / "w3.json"):
            assert main(["-w", str(ws), "release", str(path)]) == 0
        assert main(["-w", str(ws), "validate"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "ok: 0 violations"
        assert main(["-w", str(ws), "query", str(DEMO / "query.rq")]) == 3
        assert one_line_error(capsys) == (
            "error: no walk joins <http://www.supersede.eu/ontology/InfoMonitor>: each walk "
            "built so far that shares an identifier with wrapper W1 already holds its source "
            "D1, and a walk's sources must be distinct")

    def test_missing_workspace(self, tmp_path, capsys):
        assert main(["-w", str(tmp_path / "nowhere"), "stats"]) == 4

    def test_missing_query_file(self, loaded_ws, capsys):
        assert main(["-w", str(loaded_ws), "query", str(loaded_ws / "absent.rq")]) == 4

    def test_init_with_missing_quad_file_leaves_no_directory(self, tmp_path, capsys):
        root = tmp_path / "new"
        assert main(["init", str(root), "--global-graph", str(tmp_path / "absent.quads")]) == 4
        assert one_line_error(capsys).startswith("error: cannot read quad file")
        assert not root.exists()

    @pytest.mark.parametrize("argv, message", [
        (["bench", "walks", "--concepts", "x"], "argument --concepts: not an integer: 'x'"),
        (["query"], "the following arguments are required: query_file"),
        (["stats", "--no-such-option"], "unrecognized arguments: --no-such-option"),
    ])
    def test_malformed_command_line(self, argv, message, capsys):
        assert main(argv) == 2
        assert one_line_error(capsys) == f"error: {message}"

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "walks", "--help"])
        assert exit_info.value.code == 0
        assert "--concepts" in capsys.readouterr().out

    @pytest.mark.parametrize("cls", [
        cls for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.OntomedError)
    ], ids=lambda cls: cls.__name__)
    def test_exit_code_per_error_class(self, monkeypatch, capsys, cls):
        expected = {
            "OntomedError": 2, "UnknownPrefix": 2, "InvalidWalk": 2,
            "InvalidRelease": 2, "SubgraphNotInGlobal": 2, "DuplicateWrapper": 2,
            "DanglingFeatureMap": 2,
            "OmqSyntaxError": 3, "UnknownIri": 3, "DisconnectedPattern": 3,
            "NoIdentifier": 3, "NoWrapperForConcept": 3,
            "NoJoinPath": 3, "MissingIdAttribute": 3, "NoWalks": 3,
            "InvalidIri": 4, "WorkspaceError": 4, "MissingColumn": 4, "MalformedRow": 4,
            "UnboundWrapper": 4,
        }

        def fail(args):
            raise cls("boom")

        monkeypatch.setattr("ontomed.cli._cmd_stats", fail)
        assert main(["stats"]) == expected[cls.__name__]
        assert one_line_error(capsys) == "error: boom"


def one_line_error(capsys) -> str:
    """The single ``error:`` line a failing command prints, with no traceback."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    return lines[0]


class TestParsersBuilt:
    """A run builds the top-level parser and the parsers of the command it
    runs, never those of the other commands."""

    @pytest.mark.parametrize("argv, built", [
        (["init", "{tmp}/new", "--global-graph", str(DEMO / "global.quads")], 2),
        (["-w", "{ws}", "release", str(DEMO / "releases" / "w4.json")], 2),
        (["-w", "{ws}", "validate"], 2),
        (["-w", "{ws}", "query", "--explain", str(DEMO / "query.rq")], 2),
        (["-w", "{ws}", "stats"], 2),
        (["bench", "walks", "--concepts", "2", "--wrappers", "2"], 3),
        (["-w", "{ws}", "bench", "growth", "--releases", str(DEMO / "releases")], 3),
        (["bogus"], 1),
    ], ids=["init", "release", "validate", "query", "stats", "bench-walks", "bench-growth",
            "bogus"])
    def test_parsers_per_command(self, loaded_ws, tmp_path, monkeypatch, capsys, argv, built):
        argv = [arg.format(ws=loaded_ws, tmp=tmp_path) for arg in argv]
        assert _parsers_built(monkeypatch, lambda: main(argv)) == built

    def test_parsers_for_top_level_help(self, monkeypatch, capsys):
        def run():
            with pytest.raises(SystemExit) as exit_info:
                main(["--help"])
            assert exit_info.value.code == 0
        assert _parsers_built(monkeypatch, run) == 1
        assert "--workspace" in capsys.readouterr().out

    def test_command_parser_built_once(self, monkeypatch):
        def run():
            parser = cli._build_parser()
            for _ in range(2):
                assert parser.parse_args(["bench", "walks"]).concepts == 5
        assert _parsers_built(monkeypatch, run) == 3


def _parsers_built(monkeypatch, run) -> int:
    """How many ``ArgumentParser`` objects ``run()`` initializes."""
    calls = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(self)
        init(self, *args, **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        run()
    return len(calls)


class TestMalformedInputs:
    def test_non_utf8_wrapper_csv(self, loaded_ws, capsys):
        (loaded_ws / "data" / "w1.csv").write_bytes(b"VoDmonitorId,lagRatio\n12,\xff\xfe\n")
        assert main(["-w", str(loaded_ws), "query", str(DEMO / "query.rq")]) == 4
        assert "w1.csv" in one_line_error(capsys)

    def test_non_utf8_query_on_standard_input(self, loaded_ws, tmp_path, monkeypatch, capsys):
        # Under the C and POSIX locales Python decodes standard input with
        # surrogateescape, which would turn the bad byte into a query error.
        query = tmp_path / "query.rq"
        query.write_bytes(b"SELECT \xff")
        assert main(["-w", str(loaded_ws), "query", str(query)]) == 4
        from_file = one_line_error(capsys)
        stdin = io.TextIOWrapper(io.BytesIO(b"SELECT \xff"), encoding="utf-8",
                                 errors="surrogateescape")
        monkeypatch.setattr(sys, "stdin", stdin)
        assert main(["-w", str(loaded_ws), "query", "-"]) == 4
        assert one_line_error(capsys) == from_file.replace(str(query), "-")
        assert from_file == f"error: {query}: not UTF-8 text: invalid start byte"

    def test_query_on_closed_standard_input(self, loaded_ws, monkeypatch, capsys):
        # Python sets sys.stdin to None when the process starts with it closed.
        monkeypatch.setattr(sys, "stdin", None)
        assert main(["-w", str(loaded_ws), "query", "-"]) == 4
        assert capsys.readouterr() == ("", "error: standard input is closed\n")

    def test_oversized_wrapper_csv_field(self, loaded_ws, capsys):
        # The csv module refuses a field over 131,072 characters.
        path = loaded_ws / "data" / "w1.csv"
        path.write_text("VoDmonitorId,lagRatio\n12,0.75\n18," + "9" * 131_073 + "\n",
                        encoding="utf-8")
        assert main(["-w", str(loaded_ws), "query", str(DEMO / "query.rq")]) == 4
        line = one_line_error(capsys)
        assert line.startswith(f"error: {path}:3: ") and "field limit" in line

    # The last names a wrapper the ontology has not registered: the query
    # rewrites, but prints nothing before the error. A lone surrogate is a
    # path the OS cannot encode.
    @pytest.mark.parametrize("text", [
        "{not json", "[1, 2]", '{"W1": 5}', '{"W1": "data/\\u0000w1.csv"}', '{"W9": "data/w1.csv"}',
        pytest.param('{"W1": "data/x\\ud800.csv"}', id="data-file-surrogate"),
        pytest.param(DEEP_JSON, id="deep-nesting")])
    def test_malformed_bindings_file(self, loaded_ws, capsys, text):
        (loaded_ws / "bindings.json").write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert main(["-w", str(loaded_ws), "query", str(DEMO / "query.rq")]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err

    @pytest.mark.parametrize("text", [
        "{not json",
        "[1, 2]",
        pytest.param(W1_TEXT.replace('"sup:Monitor"', '"nocolon"', 1), id="term-without-colon"),
        pytest.param(W1_TEXT.replace('"lagRatio": "sup:lagRatio"', '"lagRatio": "<>"'),
                     id="empty-feature-iri"),
        pytest.param(W1_TEXT.replace('"sup:Monitor"', '"zzz:foo"', 1), id="unknown-prefix"),
        pytest.param(W1_TEXT.replace('"name": "W1"', '"name": "W 1"'), id="wrapper-name-with-space"),
        pytest.param(W1_TEXT.replace('"sup:Monitor"', '5', 1), id="non-string-subgraph-term"),
        pytest.param(W1_TEXT.replace('"lagRatio": "sup:lagRatio"', '"lagRatio": null'),
                     id="null-feature"),
        pytest.param(json.dumps({**W1_DOC, "feature_map": [["lagRatio", "sup:lagRatio"]]}),
                     id="feature-map-list"),
        pytest.param(json.dumps({**W1_DOC, "wrapper": {**W1_DOC["wrapper"],
                                                       "id_attributes": "VoDmonitorId"}}),
                     id="id-attributes-string"),
        pytest.param(json.dumps({**W1_DOC, "wrapper": {**W1_DOC["wrapper"], "name": ["W1"]}}),
                     id="wrapper-name-list"),
        pytest.param(json.dumps({**W1_DOC, "wrapper": {**W1_DOC["wrapper"], "source": ["D1"]}}),
                     id="source-list"),
        pytest.param(json.dumps({**W1_DOC, "wrapper": {**W1_DOC["wrapper"],
                                                       "data_file": "data/\0w1.csv"}}),
                     id="data-file-nul"),
        # A JSON escape can hold a lone surrogate, which UTF-8 cannot encode:
        # saved, the name would fail the quad file's write, and the data
        # file every later query.
        pytest.param(W1_TEXT.replace('"name": "W1"', '"name": "W4\\ud800"'),
                     id="wrapper-name-surrogate"),
        pytest.param(json.dumps({**W1_DOC, "wrapper": {**W1_DOC["wrapper"],
                                                       "data_file": "data/x\ud800.csv"}}),
                     id="data-file-surrogate"),
        pytest.param(DEEP_JSON, id="deep-nesting"),
    ])
    def test_malformed_release_descriptor(self, ws, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text, encoding="utf-8")
        before = {name: (ws / name).read_bytes() for name in ("ontology.quads", "bindings.json")}
        assert main(["-w", str(ws), "release", str(bad)]) == 2
        assert "bad.json: malformed release descriptor" in one_line_error(capsys)
        assert {name: (ws / name).read_bytes() for name in before} == before

    @pytest.mark.parametrize("argv", [
        ["query", str(DEMO / "query.rq")], ["validate"], ["stats"],
        ["release", str(DEMO / "releases" / "w4.json")],
        ["bench", "growth", "--releases", str(DEMO / "releases")]],
        ids=["query", "validate", "stats", "release", "growth"])
    def test_deep_bindings_file_refused_by_every_command(self, loaded_ws, capsys, argv):
        path = loaded_ws / "bindings.json"
        path.write_text(DEEP_JSON, encoding="utf-8")
        before = {name: (loaded_ws / name).read_bytes()
                  for name in ("ontology.quads", "bindings.json")}
        assert main(["-w", str(loaded_ws), *argv]) == 4
        assert one_line_error(capsys).startswith(f"error: {path}: malformed bindings file: ")
        assert {name: (loaded_ws / name).read_bytes() for name in before} == before

    def test_non_string_data_file_refused(self, ws, tmp_path, capsys):
        doc = json.loads((DEMO / "releases" / "w1.json").read_text(encoding="utf-8"))
        doc["wrapper"]["data_file"] = 5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        before = {name: (ws / name).read_bytes() for name in ("ontology.quads", "bindings.json")}
        assert main(["-w", str(ws), "release", str(bad)]) == 2
        assert "data_file" in one_line_error(capsys)
        assert {name: (ws / name).read_bytes() for name in before} == before

    @pytest.mark.parametrize("kind", ["wrapper", "source", "attribute"])
    def test_name_with_whitespace_refused(self, ws, tmp_path, capsys, kind):
        # Saved, such a name would split its quad record on the next load.
        doc = json.loads((DEMO / "releases" / "w1.json").read_text(encoding="utf-8"))
        if kind == "wrapper":
            doc["wrapper"]["name"] = "W 1"
        elif kind == "source":
            doc["wrapper"]["source"] = "D\t1"
        else:
            doc["wrapper"]["non_id_attributes"] = ["lag Ratio"]
            doc["feature_map"]["lag Ratio"] = doc["feature_map"].pop("lagRatio")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        before = {name: (ws / name).read_bytes() for name in ("ontology.quads", "bindings.json")}
        assert main(["-w", str(ws), "release", str(bad)]) == 2
        assert "whitespace" in one_line_error(capsys)
        assert {name: (ws / name).read_bytes() for name in before} == before

    @pytest.mark.parametrize("kind", ["wrapper", "source", "attribute"])
    def test_name_with_bracket_refused(self, ws, tmp_path, capsys, kind):
        # Saved, such a name would end its IRI's record token early, and the
        # next load refuses the workspace.
        doc = json.loads((DEMO / "releases" / "w1.json").read_text(encoding="utf-8"))
        if kind == "wrapper":
            doc["wrapper"]["name"] = "W>1"
        elif kind == "source":
            doc["wrapper"]["source"] = "D<1"
        else:
            doc["wrapper"]["non_id_attributes"] = ["lag>Ratio"]
            doc["feature_map"]["lag>Ratio"] = doc["feature_map"].pop("lagRatio")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        before = {name: (ws / name).read_bytes() for name in ("ontology.quads", "bindings.json")}
        assert main(["-w", str(ws), "release", str(bad)]) == 2
        assert "contains whitespace, '<' or '>'" in one_line_error(capsys)
        assert {name: (ws / name).read_bytes() for name in before} == before
        assert main(["-w", str(ws), "validate"]) == 0

    def test_feature_of_untyped_concept(self, loaded_ws, capsys):
        # Without its rdf:type quad, sc:SoftwareApplication is no concept, so
        # no walk projects its feature; the query fails instead of crashing.
        path = loaded_ws / "ontology.quads"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        typed = [line for line in lines if "<http://schema.org/SoftwareApplication> <http://"
                 "www.w3.org/1999/02/22-rdf-syntax-ns#type>" in line]
        assert len(typed) == 1
        lines.remove(typed[0])
        path.write_text("".join(lines), encoding="utf-8")
        assert main(["-w", str(loaded_ws), "query", str(DEMO / "query.rq")]) == 3
        assert "binds no attribute to <http://www.supersede.eu/ontology/applicationId>" in (
            one_line_error(capsys))

    def test_non_utf8_query_file(self, loaded_ws, tmp_path, capsys):
        bad = tmp_path / "bad.rq"
        bad.write_bytes(b"\xff\xfeSELECT ?x FROM G: WHERE { }\n")
        assert main(["-w", str(loaded_ws), "query", str(bad)]) == 4
        assert "bad.rq" in one_line_error(capsys)

    def test_empty_iri_in_quad_file(self, tmp_path, capsys):
        quads = tmp_path / "global.quads"
        quads.write_text("<http://x/g> <http://x/s> <http://x/p> <http://x/o>\n"
                         "<> <http://x/s> <http://x/p> <http://x/o>\n", encoding="utf-8")
        assert main(["init", str(tmp_path / "ws"), "--global-graph", str(quads)]) == 4
        assert f"{quads}:2: empty IRI" in one_line_error(capsys)

    def test_bracket_inside_iri_in_quad_file(self, tmp_path, capsys):
        # Loaded, the token would be the term "<http://…/lagRatio", which no
        # query or release descriptor can name.
        iri = "<http://www.supersede.eu/ontology/lagRatio>"
        lines = (DEMO / "global.quads").read_text(encoding="utf-8").splitlines(keepends=True)
        first = next(n for n, line in enumerate(lines, 1) if iri in line)
        quads = tmp_path / "global.quads"
        quads.write_text("".join(lines).replace(iri, "<" + iri), encoding="utf-8")
        root = tmp_path / "ws"
        assert main(["init", str(root), "--global-graph", str(quads)]) == 4
        line = one_line_error(capsys)
        assert line == f"error: {quads}:{first}: '<' or '>' inside IRI <{iri}"
        assert not (root / "ontology.quads").exists()

    @pytest.mark.parametrize("declaration", [
        "@prefix x: <http://a/> junk", "@prefixes x: <http://a/>", "@prefix x: <http://a/<b>"],
        ids=["trailing-text", "keyword", "bracket"])
    def test_malformed_prefix_declaration_in_quad_file(self, tmp_path, capsys, declaration):
        # Loaded, the namespace would hold the text after it or a bracket,
        # and be saved back into a declaration no load reads the same way.
        quads = tmp_path / "global.quads"
        quads.write_text(declaration + "\n" + (DEMO / "global.quads").read_text(encoding="utf-8"),
                         encoding="utf-8")
        root = tmp_path / "ws"
        assert main(["init", str(root), "--global-graph", str(quads)]) == 4
        assert one_line_error(capsys) == f"error: {quads}:1: malformed prefix declaration"
        assert not (root / "ontology.quads").exists()

    def test_empty_wrapper_csv(self, loaded_ws, capsys):
        path = loaded_ws / "data" / "w1.csv"
        path.write_bytes(b"")
        assert main(["-w", str(loaded_ws), "query", str(DEMO / "query.rq")]) == 4
        assert one_line_error(capsys) == f"error: {path}: empty file, header expected"

    def test_attribute_column_named_twice(self, loaded_ws, capsys):
        # Which of the two columns holds lagRatio is unknown, so neither is
        # read; a column outside the schema may still repeat.
        path = loaded_ws / "data" / "w1.csv"
        path.write_text("VoDmonitorId,lagRatio,lagRatio,note,note\n12,0.75,0.5,a,b\n",
                        encoding="utf-8")
        assert main(["-w", str(loaded_ws), "query", str(DEMO / "query.rq")]) == 4
        assert one_line_error(capsys) == (
            f"error: {path}: header names attribute column lagRatio more than once")
        path.write_text("VoDmonitorId,lagRatio,note,note\n12,0.75,a,b\n", encoding="utf-8")
        assert main(["-w", str(loaded_ws), "query", str(DEMO / "query.rq")]) == 0
        assert capsys.readouterr().out.splitlines()[-2:] == ["applicationId,lagRatio", "1,0.75"]

    def test_non_utf8_quad_file(self, ws, capsys):
        with open(ws / "ontology.quads", "ab") as f:
            f.write(b"\xff\xfe\n")
        assert main(["-w", str(ws), "stats"]) == 4
        assert "ontology.quads" in one_line_error(capsys)


BOM = b"\xef\xbb\xbf"
DEMO_ROWS = ["1,0.75", "1,0.90", "2,0.1"]


class TestByteOrderMark:
    """Some editors save UTF-8 text with a leading byte-order mark. Each text
    input the command line reads accepts one and reads as without it."""

    def test_query_file(self, loaded_ws, tmp_path, capsys):
        query = tmp_path / "query.rq"
        query.write_bytes(BOM + (DEMO / "query.rq").read_bytes())
        assert main(["-w", str(loaded_ws), "query", str(query)]) == 0
        assert capsys.readouterr().out.splitlines()[-3:] == DEMO_ROWS

    def test_query_on_standard_input(self, loaded_ws, monkeypatch, capsys):
        stdin = io.TextIOWrapper(io.BytesIO(BOM + (DEMO / "query.rq").read_bytes()),
                                 encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        assert main(["-w", str(loaded_ws), "query", "-"]) == 0
        assert capsys.readouterr().out.splitlines()[-3:] == DEMO_ROWS

    def test_release_descriptor(self, loaded_ws, tmp_path, capsys):
        descriptor = tmp_path / "w4.json"
        descriptor.write_bytes(BOM + (DEMO / "releases" / "w4.json").read_bytes())
        assert main(["-w", str(loaded_ws), "release", str(descriptor)]) == 0
        assert "registered wrapper W4" in capsys.readouterr().out

    def test_init_quad_file(self, ws, tmp_path, capsys):
        quads = tmp_path / "global.quads"
        quads.write_bytes(BOM + (DEMO / "global.quads").read_bytes())
        assert main(["init", str(tmp_path / "bom"), "--global-graph", str(quads)]) == 0
        assert ((tmp_path / "bom" / "ontology.quads").read_bytes()
                == (ws / "ontology.quads").read_bytes())

    def test_bindings_file(self, loaded_ws, capsys):
        path = loaded_ws / "bindings.json"
        path.write_bytes(BOM + path.read_bytes())
        assert main(["-w", str(loaded_ws), "query", str(DEMO / "query.rq")]) == 0
        assert capsys.readouterr().out.splitlines()[-3:] == DEMO_ROWS


def readme_block(heading: str, language: str = "sh") -> list[str]:
    """The first ``language`` block after ``heading`` in the README, cut as
    the CI quickstart job cuts it."""
    lines = (DEMO.parent / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index(heading)
    start = next(i for i in range(start, len(lines))
                 if lines[i].startswith("```" + language)) + 1
    end = next(i for i in range(start, len(lines)) if lines[i].startswith("```"))
    return lines[start:end]


class TestReadme:
    def test_command_line_block_runs_offline(self, tmp_path):
        # The "Benchmarks" block runs after the "Command line" block, in the
        # same directory, as the CI quickstart job runs them.
        shutil.copytree(DEMO, tmp_path / "demo")
        outputs = {}
        for line in readme_block("## Command line") + readme_block("### Benchmarks"):
            argv = shlex.split(line, comments=True)
            if argv[0] == "ontomed":
                argv = [sys.executable, "-m", "ontomed.cli", *argv[1:]]
            run = subprocess.run(argv, cwd=tmp_path, env=_src_env(), capture_output=True,
                                 text=True, timeout=60)
            assert run.returncode == 0, (line, run.stderr)
            outputs[line.split("#")[0].strip()] = run.stdout
        out = outputs["ontomed -w ws query demo/query.rq"].splitlines()
        assert out[0] == "1 walk(s)"
        assert out[1] == "Π{W3.TargetApp,W1.lagRatio}( W1 ⋈[W1.VoDmonitorId=W3.MonitorId] W3 )"
        assert out[2:] == ["applicationId,lagRatio", "1,0.75", "1,0.90", "2,0.1"]
        growth = outputs["ontomed -w growth bench growth --releases demo/releases"].splitlines()
        assert growth[0] == "release,added,bound,cumulative,global_quads"
        assert [line.split(",")[0] for line in growth[1:]] == ["w1", "w2", "w3", "w4"]

    def test_library_block_runs_offline(self, tmp_path):
        shutil.copytree(DEMO, tmp_path / "demo")
        run = subprocess.run([sys.executable, "-c", "\n".join(readme_block("## Library", "python"))],
                             cwd=tmp_path, env=_src_env(), capture_output=True, text=True,
                             timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines() == ["applicationId,lagRatio", *DEMO_ROWS]


class TestCrashSafeSave:
    def test_failed_bindings_write_leaves_loadable_workspace(self, loaded_ws, capsys,
                                                             monkeypatch):
        # The release replaces ontology.quads, then fails to replace
        # bindings.json, as a crash between the two writes would.
        quads_before = (loaded_ws / "ontology.quads").read_bytes()
        bindings_before = (loaded_ws / "bindings.json").read_bytes()
        replace = os.replace

        def crash_on_bindings(src, dst):
            if os.path.basename(dst) == "bindings.json":
                raise OSError("simulated crash")
            replace(src, dst)
        monkeypatch.setattr(os, "replace", crash_on_bindings)
        assert main(["-w", str(loaded_ws), "release", str(DEMO / "releases" / "w4.json")]) == 4
        assert "simulated crash" in one_line_error(capsys)
        monkeypatch.undo()

        assert (loaded_ws / "ontology.quads").read_bytes() != quads_before
        assert (loaded_ws / "bindings.json").read_bytes() == bindings_before
        assert not list(loaded_ws.glob("*.tmp"))
        assert main(["-w", str(loaded_ws), "stats"]) == 0
        assert main(["-w", str(loaded_ws), "validate"]) == 0
        assert main(["-w", str(loaded_ws), "query", "--explain", str(DEMO / "query.rq")]) == 0
        out, err = capsys.readouterr()
        assert err == "" and "2 walk(s)" in out and "W4" in out


class TestBindingsWrite:
    """A save replaces ``bindings.json`` only when its text changes."""

    def test_release_without_data_file_leaves_bindings_file(self, loaded_ws, tmp_path):
        doc = json.loads((DEMO / "releases" / "w4.json").read_text(encoding="utf-8"))
        del doc["wrapper"]["data_file"]
        descriptor = tmp_path / "w4.json"
        descriptor.write_text(json.dumps(doc), encoding="utf-8")
        quads = (loaded_ws / "ontology.quads").read_bytes()
        path = loaded_ws / "bindings.json"
        os.utime(path, ns=(10**9, 10**9))
        before = path.read_bytes(), path.stat()
        assert main(["-w", str(loaded_ws), "release", str(descriptor)]) == 0
        after = path.read_bytes(), path.stat()
        assert after[0] == before[0]
        assert (after[1].st_ino, after[1].st_mtime_ns) == (before[1].st_ino, 10**9)
        assert (loaded_ws / "ontology.quads").read_bytes() != quads

    def test_save_after_save_compares_with_the_saved_text(self, loaded_ws):
        path = loaded_ws / "bindings.json"
        before = path.read_bytes()
        ws = Workspace.load(loaded_ws)
        ws.bind("W9", "data/w9.csv")
        ws.save()
        del ws.data_files["W9"]
        ws.save()
        assert path.read_bytes() == before

    def test_init_writes_bindings_file(self, ws):
        assert (ws / "bindings.json").read_text(encoding="utf-8") == "{}\n"

    @pytest.mark.parametrize("argv", [
        ["release", str(DEMO / "releases" / "w4.json")],
        ["bench", "growth", "--releases", str(DEMO / "releases")],
    ], ids=["release", "growth"])
    def test_new_binding_writes_bindings_file(self, ws, capsys, argv):
        path = ws / "bindings.json"
        os.utime(path, ns=(10**9, 10**9))
        assert main(["-w", str(ws), *argv]) == 0
        assert "W4" in json.loads(path.read_text(encoding="utf-8"))
        assert path.stat().st_mtime_ns != 10**9


def _src_env() -> dict[str, str]:
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(ontomed.__file__).resolve().parent.parent)
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


# A command in a fresh interpreter that says when it is about to run.
_MAIN_RUN = """
import sys
from ontomed.cli import main
print("started", flush=True)
sys.exit(main(sys.argv[1:]))
"""


class TestWorkspaceLock:
    def test_release_waits_for_a_held_lock(self, ws):
        # The test is a concurrent writer: it loads the workspace under the
        # lock, starts a release of W2, and saves W1 only after that release
        # had time to finish. Had the release not waited, this save would
        # drop W2.
        with Workspace.locked(ws) as held:
            proc = subprocess.Popen(
                [sys.executable, "-c", _MAIN_RUN, "-w", str(ws), "release",
                 str(DEMO / "releases" / "w2.json")],
                env=_src_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            try:
                assert proc.stdout.readline() == "started\n"
                with pytest.raises(subprocess.TimeoutExpired):
                    proc.wait(timeout=1.0)
                release = load_release(DEMO / "releases" / "w1.json", held.dataset)
                held.dataset, _ = apply_release(held.dataset, release)
                held.bind(release.wrapper.name, release.data_file)
                held.save()
            except BaseException:
                proc.kill()
                proc.communicate()
                raise
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        assert "registered wrapper W2" in out
        reloaded = Workspace.load(ws)
        assert {"W1", "W2"} <= set(wrapper_schemas(reloaded.dataset))
        assert set(reloaded.data_files) == {"W1", "W2"}

    @pytest.mark.parametrize("argv", [
        ["release", str(DEMO / "releases" / "w1.json")],
        ["bench", "growth", "--releases", str(DEMO / "releases")],
    ], ids=["release", "growth"])
    def test_lock_file_that_cannot_be_created(self, ws, capsys, argv):
        (ws / LOCK_FILE).mkdir()
        quads = (ws / "ontology.quads").read_bytes()
        assert main(["-w", str(ws), *argv]) == 4
        assert "cannot create lock file" in one_line_error(capsys)
        assert (ws / "ontology.quads").read_bytes() == quads


def demo_answer(root: Path, capsys, edit=None, csv_header=None, flags=("--explain",)) -> str:
    """The demo query's output on a fresh workspace holding all four demo
    releases, each descriptor passed through ``edit(doc)`` first."""
    assert main(["init", str(root), "--global-graph", str(DEMO / "global.quads")]) == 0
    shutil.copytree(DEMO / "data", root / "data")
    if csv_header is not None:
        rows = (root / "data" / "w1.csv").read_text(encoding="utf-8").splitlines()[1:]
        (root / "data" / "w1.csv").write_text("\n".join([csv_header, *rows]) + "\n",
                                              encoding="utf-8")
    for name in ("w1", "w2", "w3", "w4"):
        doc = json.loads((DEMO / "releases" / f"{name}.json").read_text(encoding="utf-8"))
        if edit is not None:
            edit(doc)
        path = root / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["-w", str(root), "release", str(path)]) == 0
    capsys.readouterr()
    code = main(["-w", str(root), "query", *flags, str(DEMO / "query.rq")])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    return out


def rename_attr(doc):
    w = doc["wrapper"]
    if w["name"] == "W1":
        w["non_id_attributes"] = ["lag/Ratio"]
        doc["feature_map"]["lag/Ratio"] = doc["feature_map"].pop("lagRatio")


def rename_wrapper(doc):
    if doc["wrapper"]["name"] == "W1":
        doc["wrapper"]["name"] = "W/1"


class TestNamesWithSlash:
    """Wrapper and attribute names holding "/" answer the demo query like the
    unedited demo; a source name holding "/" is refused."""

    def test_attribute(self, tmp_path, capsys):
        plain = demo_answer(tmp_path / "plain", capsys)
        assert plain.startswith("2 walk(s)")
        edited = demo_answer(tmp_path / "ws", capsys, rename_attr)
        assert edited == plain.replace("W1.lagRatio", "W1.lag/Ratio")

    def test_wrapper(self, tmp_path, capsys):
        plain = demo_answer(tmp_path / "plain", capsys)
        assert demo_answer(tmp_path / "ws", capsys, rename_wrapper) == plain.replace("W1", "W/1")

    def test_source_refused(self, ws, tmp_path, capsys):
        # An attribute IRI is the source IRI, "/" and the attribute name, so
        # WB's VoDmonitorId (source s/x) would share an IRI with WA's
        # x/VoDmonitorId (source s), and WA would lose its ID attribute.
        wrapper = {key: value for key, value in W1_DOC["wrapper"].items() if key != "data_file"}
        wa = {**W1_DOC, "wrapper": {**wrapper, "name": "WA", "source": "s",
                                    "id_attributes": ["x/VoDmonitorId"]},
              "feature_map": {"x/VoDmonitorId": "sup:monitorId", "lagRatio": "sup:lagRatio"}}
        wb = {**W1_DOC, "wrapper": {**wrapper, "name": "WB", "source": "s/x", "id_attributes": [],
                                    "non_id_attributes": ["VoDmonitorId", "lagRatio"]},
              "feature_map": {"VoDmonitorId": "sup:lagRatio", "lagRatio": "sup:lagRatio"}}
        for name, doc in (("wa", wa), ("wb", wb)):
            (tmp_path / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
        assert main(["-w", str(ws), "release", str(tmp_path / "wa.json")]) == 0
        capsys.readouterr()
        before = {name: (ws / name).read_bytes() for name in ("ontology.quads", "bindings.json")}
        assert main(["-w", str(ws), "release", str(tmp_path / "wb.json")]) == 2
        assert "source name 's/x' contains '/'" in one_line_error(capsys)
        assert {name: (ws / name).read_bytes() for name in before} == before
        assert main(["-w", str(ws), "validate"]) == 0
        assert wrapper_schemas(Dataset.load(ws / "ontology.quads"))["WA"].id_attrs == (
            "x/VoDmonitorId",)

    def test_attribute_executes(self, tmp_path, capsys):
        plain = demo_answer(tmp_path / "plain", capsys, flags=())
        assert "1,0.75" in plain
        edited = demo_answer(tmp_path / "ws", capsys, rename_attr,
                             csv_header="VoDmonitorId,lag/Ratio", flags=())
        assert edited == plain.replace("W1.lagRatio", "W1.lag/Ratio")


class TestBench:
    def test_walk_bench_header_and_counts(self, capsys):
        assert main(["bench", "walks", "--concepts", "2", "--wrappers", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "wrappers,walks,seconds"
        counts = [int(line.split(",")[1]) for line in lines[1:]]
        assert counts == [1, 4, 9]

    @pytest.mark.parametrize("args", [["--concepts", "0"], ["--wrappers", "-1"]])
    def test_walk_bench_refuses_non_positive(self, capsys, args):
        assert main(["bench", "walks", *args]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"error: argument {args[0]}: must be at least 1, not {args[1]}"]

    def test_growth_bench_over_demo(self, ws, capsys):
        assert main(["-w", str(ws), "bench", "growth",
                     "--releases", str(DEMO / "releases")]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "release,added,bound,cumulative,global_quads"
        assert len(lines) == 5
        # The global graph never grows while releases accumulate.
        assert len({line.split(",")[4] for line in lines[1:]}) == 1

    def test_growth_bench_refuses_a_file(self, ws, capsys):
        assert main(["-w", str(ws), "bench", "growth",
                     "--releases", str(DEMO / "releases" / "w1.json")]) == 4
        assert one_line_error(capsys) == (f"error: {DEMO / 'releases' / 'w1.json'}: "
                                          "not a directory of release descriptors")

    def test_growth_bench_failure_prints_no_header(self, loaded_ws, capsys):
        # W1 is registered already, so the bench fails before any release
        # applies, and a reader of stdout sees nothing.
        capsys.readouterr()
        assert main(["-w", str(loaded_ws), "bench", "growth",
                     "--releases", str(DEMO / "releases")]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["error: wrapper W1 already registered"]

    def test_growth_bench_refuses_a_deep_descriptor(self, ws, tmp_path, capsys):
        releases = tmp_path / "releases"
        releases.mkdir()
        (releases / "deep.json").write_text(DEEP_JSON, encoding="utf-8")
        before = {name: (ws / name).read_bytes() for name in ("ontology.quads", "bindings.json")}
        assert main(["-w", str(ws), "bench", "growth", "--releases", str(releases)]) == 2
        assert "deep.json: malformed release descriptor: " in one_line_error(capsys)
        assert {name: (ws / name).read_bytes() for name in before} == before

    def test_growth_bench_binds_data_files(self, ws, tmp_path, capsys):
        # The bench registers the same wrappers as one release per
        # descriptor, data bindings included, so the query answers alike.
        released = tmp_path / "released"
        assert main(["init", str(released), "--global-graph", str(DEMO / "global.quads")]) == 0
        shutil.copytree(DEMO / "data", released / "data")
        for name in ("w1", "w2", "w3", "w4"):
            assert main(["-w", str(released), "release",
                         str(DEMO / "releases" / f"{name}.json")]) == 0
        assert main(["-w", str(ws), "bench", "growth",
                     "--releases", str(DEMO / "releases")]) == 0
        assert ((ws / "bindings.json").read_text(encoding="utf-8")
                == (released / "bindings.json").read_text(encoding="utf-8"))
        capsys.readouterr()
        answers = []
        for root in (released, ws):
            assert main(["-w", str(root), "query", str(DEMO / "query.rq")]) == 0
            answers.append(capsys.readouterr().out)
        assert "2 walk(s)" in answers[0]
        assert answers[0] == answers[1]


class TestCollectorPause:
    """`main` runs a command with the cyclic collector paused, then restores
    the caller's setting however the command ends."""

    def test_commands_run_with_the_collector_paused(self, loaded_ws, monkeypatch, capsys):
        seen = []

        def recording(real):
            def record(*args):
                seen.append((real.__name__, gc.isenabled()))
                return real(*args)
            return record

        monkeypatch.setattr(cli, "eval_ucq", recording(cli.eval_ucq))
        monkeypatch.setattr(cli, "validate_ontology", recording(cli.validate_ontology))
        gc.enable()
        try:
            assert main(["-w", str(loaded_ws), "query", str(DEMO / "query.rq")]) == 0
            assert main(["-w", str(loaded_ws), "validate"]) == 0
            assert gc.isenabled()
        finally:
            gc.enable()
        assert seen == [("eval_ucq", False), ("validate_ontology", False)]

    @pytest.mark.parametrize("argv, code", [
        (lambda ws: ["-w", str(ws), "stats"], 0),
        # No wrapper is registered, so the query cannot be rewritten.
        (lambda ws: ["-w", str(ws), "query", str(DEMO / "query.rq")], 3),
        (lambda ws: ["-w", str(ws / "nowhere"), "stats"], 4),
        (lambda ws: ["-w", str(ws), "stats", "--no-such-option"], 2),
    ], ids=["ok", "query-error", "missing-workspace", "argparse-exit"])
    def test_collector_enabled_again_after_main(self, ws, capsys, argv, code):
        gc.enable()
        try:
            try:
                assert main(argv(ws)) == code
            except SystemExit as exc:
                assert exc.code == code
            assert gc.isenabled()
        finally:
            gc.enable()

    def test_collector_disabled_by_the_caller_stays_disabled(self, ws, capsys):
        gc.disable()
        try:
            assert main(["-w", str(ws), "stats"]) == 0
            assert not gc.isenabled()
        finally:
            gc.enable()


# The demo workflow in a fresh interpreter, in a fresh directory: init, all
# four releases, then the query with its trace.
_DEMO_RUN = """
import shutil, sys
from pathlib import Path
from ontomed.cli import main
demo = Path(sys.argv[1])
assert main(["init", "ws", "--global-graph", str(demo / "global.quads")]) == 0
shutil.copytree(demo / "data", "ws/data")
for name in ("w1", "w2", "w3", "w4"):
    assert main(["-w", "ws", "release", str(demo / "releases" / f"{name}.json")]) == 0
assert main(["-w", "ws", "query", "--verbose", str(demo / "query.rq")]) == 0
"""


class TestHashIndependence:
    def test_output_same_under_two_hash_seeds(self, tmp_path):
        # Terms are strings, and strings hash by a seeded hash, so set order
        # differs between processes; no output may follow it.
        runs = []
        for seed in ("1", "2"):
            cwd = tmp_path / seed
            cwd.mkdir()
            env = {**_src_env(), "PYTHONHASHSEED": seed}
            done = subprocess.run([sys.executable, "-c", _DEMO_RUN, str(DEMO)], cwd=cwd, env=env,
                                  capture_output=True, text=True, timeout=60)
            assert done.returncode == 0, done.stderr
            runs.append((done.stdout, (cwd / "ws" / "ontology.quads").read_bytes()))
        assert "2 walk(s)" in runs[0][0]
        assert runs[0] == runs[1]


# A validate run in a fresh interpreter over a global graph of eight
# hasFeature edges between untyped nodes, each edge two V1 violations.
_VALIDATE_RUN = """
import sys
from ontomed.cli import main
assert main(["init", "ws", "--global-graph", sys.argv[1]]) == 0
assert main(["-w", "ws", "validate"]) == 2
"""


class TestValidateOrder:
    def test_violations_same_under_two_hash_seeds(self, tmp_path):
        edges = tmp_path / "edges.quads"
        edges.write_text("".join(
            f"<{GLOBAL_GRAPH}> <http://x/c{i}> <{G_HAS_FEATURE}> <http://x/f{i}>\n"
            for i in range(8)),
            encoding="utf-8")
        outputs = []
        for seed in ("1", "2"):
            cwd = tmp_path / seed
            cwd.mkdir()
            env = {**_src_env(), "PYTHONHASHSEED": seed}
            done = subprocess.run([sys.executable, "-c", _VALIDATE_RUN, str(edges)], cwd=cwd,
                                  env=env, capture_output=True, text=True, timeout=60)
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert outputs[0].count("RULEV1 ") == 16
        assert outputs[0] == outputs[1]

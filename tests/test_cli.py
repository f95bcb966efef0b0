"""Command-line interface: workflows over the bundled demo, exit codes."""

import gc
import json
import os
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
    RDF_TYPE,
    S_ATTRIBUTE,
    S_DATA_SOURCE,
    S_HAS_ATTRIBUTE,
    S_HAS_WRAPPER,
    S_WRAPPER,
    SOURCE_GRAPH,
    source_iri,
    wrapper_iri,
)
from ontomed.workspace import LOCK_FILE, Workspace

DEMO = Path(__file__).resolve().parent.parent / "demo"
W1_TEXT = (DEMO / "releases" / "w1.json").read_text(encoding="utf-8")
W1_DOC = json.loads(W1_TEXT)


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

    def test_missing_workspace(self, tmp_path, capsys):
        assert main(["-w", str(tmp_path / "nowhere"), "stats"]) == 4

    def test_missing_query_file(self, loaded_ws, capsys):
        assert main(["-w", str(loaded_ws), "query", str(loaded_ws / "absent.rq")]) == 4

    @pytest.mark.parametrize("cls", [
        cls for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.OntomedError)
    ], ids=lambda cls: cls.__name__)
    def test_exit_code_per_error_class(self, monkeypatch, capsys, cls):
        expected = {
            "OntomedError": 2, "UnknownPrefix": 2, "InvalidWalk": 2, "NotCovering": 2,
            "InvalidRelease": 2, "SubgraphNotInGlobal": 2, "DuplicateWrapper": 2,
            "DanglingFeatureMap": 2,
            "OmqSyntaxError": 3, "UnknownIri": 3, "DisconnectedPattern": 3,
            "CyclicPattern": 3, "NoIdentifier": 3, "NoWrapperForConcept": 3,
            "NoJoinPath": 3, "MissingIdAttribute": 3, "NoWalks": 3, "MissingMapping": 3,
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


class TestMalformedInputs:
    def test_non_utf8_wrapper_csv(self, loaded_ws, capsys):
        (loaded_ws / "data" / "w1.csv").write_bytes(b"VoDmonitorId,lagRatio\n12,\xff\xfe\n")
        assert main(["-w", str(loaded_ws), "query", str(DEMO / "query.rq")]) == 4
        assert "w1.csv" in one_line_error(capsys)

    def test_oversized_wrapper_csv_field(self, loaded_ws, capsys):
        # The csv module refuses a field over 131,072 characters.
        path = loaded_ws / "data" / "w1.csv"
        path.write_text("VoDmonitorId,lagRatio\n12,0.75\n18," + "9" * 131_073 + "\n",
                        encoding="utf-8")
        assert main(["-w", str(loaded_ws), "query", str(DEMO / "query.rq")]) == 4
        line = one_line_error(capsys)
        assert line.startswith(f"error: {path}:3: ") and "field limit" in line

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]", '{"W1": 5}',
                                      '{"W1": "data/\\u0000w1.csv"}'])
    def test_malformed_bindings_file(self, loaded_ws, capsys, text):
        (loaded_ws / "bindings.json").write_text(text, encoding="utf-8")
        assert main(["-w", str(loaded_ws), "query", str(DEMO / "query.rq")]) == 4
        one_line_error(capsys)

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
    ])
    def test_malformed_release_descriptor(self, ws, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text, encoding="utf-8")
        before = {name: (ws / name).read_bytes() for name in ("ontology.quads", "bindings.json")}
        assert main(["-w", str(ws), "release", str(bad)]) == 2
        assert "bad.json: malformed release descriptor" in one_line_error(capsys)
        assert {name: (ws / name).read_bytes() for name in before} == before

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

    def test_non_utf8_quad_file(self, ws, capsys):
        with open(ws / "ontology.quads", "ab") as f:
            f.write(b"\xff\xfe\n")
        assert main(["-w", str(ws), "stats"]) == 4
        assert "ontology.quads" in one_line_error(capsys)


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


def rename_source(doc):
    if doc["wrapper"]["source"] == "D1":
        doc["wrapper"]["source"] = "D/1"


class TestNamesWithSlash:
    """Names holding "/" answer the demo query like the unedited demo."""

    def test_attribute(self, tmp_path, capsys):
        plain = demo_answer(tmp_path / "plain", capsys)
        assert plain.startswith("2 walk(s)")
        edited = demo_answer(tmp_path / "ws", capsys, rename_attr)
        assert edited == plain.replace("W1.lagRatio", "W1.lag/Ratio")

    def test_wrapper(self, tmp_path, capsys):
        plain = demo_answer(tmp_path / "plain", capsys)
        assert demo_answer(tmp_path / "ws", capsys, rename_wrapper) == plain.replace("W1", "W/1")

    def test_source(self, tmp_path, capsys):
        plain = demo_answer(tmp_path / "plain", capsys)
        assert demo_answer(tmp_path / "ws", capsys, rename_source) == plain

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
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "walks", *args])
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "must be at least 1" in err

    def test_growth_bench_over_demo(self, ws, capsys):
        assert main(["-w", str(ws), "bench", "growth",
                     "--releases", str(DEMO / "releases")]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "release,added,bound,cumulative,global_quads"
        assert len(lines) == 5
        # The global graph never grows while releases accumulate.
        assert len({line.split(",")[4] for line in lines[1:]}) == 1

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

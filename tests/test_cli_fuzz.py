"""Bounded command-line fuzz over the demo: mutated queries, release
descriptors, workspace files, quad files given to ``init``, bound CSV files
and ``bench`` arguments.

Whatever the input, a command exits 0, 2, 3 or 4; a failing command prints
exactly one stderr line, starting with ``error:``; a failed ``release`` or
``bench growth`` leaves the workspace files byte for byte as they were, and
a failed ``init`` leaves no workspace directory. A command line of
command, option and bogus words parses as it would if every command's parser
were built up front. The examples are derandomized, so a run is repeatable.
"""

import contextlib
import io
import json
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontomed import cli
from ontomed.cli import main
from ontomed.errors import OntomedError

DEMO = Path(__file__).resolve().parent.parent / "demo"
QUERY_TOKENS = re.findall(r"\s+|\S+", (DEMO / "query.rq").read_text(encoding="utf-8"))
DESCRIPTORS = {path.name: path.read_bytes() for path in sorted((DEMO / "releases").glob("*.json"))}
WORKSPACE_FILES = ("ontology.quads", "bindings.json")
GLOBAL_QUADS = (DEMO / "global.quads").read_bytes()
DATA_FILES = ("w1.csv", "w2.csv", "w3.csv")

# Tokens a mutated query may gain besides its own: keywords, punctuation,
# terms of the demo ontology and terms it does not hold.
EXTRA_TOKENS = ["SELECT", "FROM", "WHERE", "VALUES", "FILTER", "{", "}", "(", ")", ".", ",",
                "?x", "?z", "<http://x/y>", "<>", "sup:nope", "nope:x", "sup:Monitor",
                "sup:monitorId", "G:hasFeature", "rdf:type", '"lit"', "42", "#", "\\", "é"]
# Byte strings a mutated descriptor or workspace file may gain.
EXTRA_BYTES = [b'"', b"{", b"}", b"[", b"]", b",", b":", b"null", b"1", b"[]", b"{}", b'""',
               b" ", b"\n", b"x", b"/", b"sup:", b"<", b">", b"\xff", b"\\u0000"]
# Byte strings a mutated quad file or CSV file may gain: record and field
# syntax, line ends, a byte-order mark, a NUL and a byte that is not UTF-8.
TEXT_BYTES = [b"<", b">", b"<>", b" ", b"\t", b"\n", b"\r\n", b"\r", b"#", b"@prefix ", b":",
              b",", b'"', b"\xef\xbb\xbf", b"\x00", b"\xff", b"\xc3\xa9", b"x"]
# Values a mutated descriptor may hold in place of one of its own.
JSON_VALUES = [None, 0, 1.5, True, "", "x", "x y", "W1", "D1", "sup:nope", "sup:lagRatio",
               "data/w2.csv", "data/nope.csv", [], {}, ["x"], ["sup:Monitor", "G:hasFeature"]]

# Values a ``bench walks`` count may take. The valid ones are at most 3,
# since the sweep builds W^C walks: the defaults, 5 concepts and 10
# wrappers, build 100,000.
BENCH_COUNTS = ["1", "2", "3", "03", "\u0663", "0", "-1", "", "x", "1.5", "2 3"]
# Tokens a ``bench`` command line may gain; none abbreviates ``--help``.
BENCH_TOKENS = ["--concepts", "--wrappers", "--releases", "--nope", "-w", "walks", "growth",
                "bench", *BENCH_COUNTS]

# Words a command line may be made of: every command and option word, the
# workspace option in its other spellings, the end of options, the help
# options, and words no parser knows.
ARGV_TOKENS = ["init", "release", "validate", "query", "stats", "bench", "walks", "growth",
               "--global-graph", "--explain", "--verbose", "--concepts", "--wrappers",
               "--releases", "-w", "--workspace", "--workspace=x", "-wx", "--work",
               "--", "-h", "--help", "x", "2", "-", "--nope", "-q"]
# The command words a drawn command line may start with.
COMMAND_WORDS = [["init"], ["release"], ["validate"], ["query"], ["stats"], ["bench"],
                 ["bench", "walks"], ["bench", "growth"]]


def _run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _check_outcome(code: int, err: str) -> None:
    assert code in (0, 2, 3, 4)
    if code != 0:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err


@st.composite
def mutated_query(draw) -> bytes:
    tokens = list(QUERY_TOKENS)
    words = [i for i, token in enumerate(tokens) if not token.isspace()]
    pool = [tokens[i] for i in words] + EXTRA_TOKENS
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.sampled_from(words))
        op = draw(st.sampled_from(["delete", "duplicate", "replace", "swap"]))
        if op == "delete":
            tokens[i] = ""
        elif op == "duplicate":
            tokens[i] += " " + tokens[i]
        elif op == "replace":
            tokens[i] = draw(st.sampled_from(pool))
        else:
            j = draw(st.sampled_from(words))
            tokens[i], tokens[j] = tokens[j], tokens[i]
    text = "".join(tokens).encode("utf-8")
    if draw(st.integers(0, 19)) == 0:
        text += b"\xff"
    return text


@st.composite
def mutated_bytes(draw, raw: bytes, extra: list[bytes] = EXTRA_BYTES) -> bytes:
    data = bytearray(raw)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["delete", "insert", "replace", "truncate"]))
        chunk = draw(st.sampled_from(extra) | st.binary(min_size=1, max_size=2))
        if op == "delete":
            del data[i:i + draw(st.integers(1, 8))]
        elif op == "insert":
            data[i:i] = chunk
        elif op == "replace":
            data[i:i + len(chunk)] = chunk
        else:
            del data[i:]
    return bytes(data)


@st.composite
def mutated_descriptor(draw, raw: bytes) -> bytes:
    """The descriptor's bytes mutated, or one of its values replaced or
    dropped, at any depth."""
    if draw(st.booleans()):
        return draw(mutated_bytes(raw))
    doc = json.loads(raw)
    parent, key = None, None
    node = doc
    while isinstance(node, (dict, list)) and node and (parent is None or draw(st.booleans())):
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        parent, node = node, node[key]
    if draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(st.sampled_from(JSON_VALUES))
    return json.dumps(doc).encode("utf-8")


@pytest.fixture(scope="module")
def demo_ws(tmp_path_factory):
    """A demo workspace with W1 to W3 registered and its data copied."""
    root = tmp_path_factory.mktemp("fuzz") / "ws"
    assert main(["init", str(root), "--global-graph", str(DEMO / "global.quads")]) == 0
    shutil.copytree(DEMO / "data", root / "data")
    for name in ("w1", "w2", "w3"):
        assert _run(["-w", str(root), "release", str(DEMO / "releases" / f"{name}.json")])[0] == 0
    return root


def _snapshot(root: Path) -> dict[str, bytes]:
    return {name: (root / name).read_bytes() for name in WORKSPACE_FILES}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(text=mutated_query())
def test_mutated_query(demo_ws, text):
    before = _snapshot(demo_ws)
    with tempfile.TemporaryDirectory() as scratch:
        query = Path(scratch) / "query.rq"
        query.write_bytes(text)
        _check_outcome(*_run(["-w", str(demo_ws), "query", str(query)]))
    assert _snapshot(demo_ws) == before


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_release(demo_ws, data):
    # Either a descriptor is mutated, or a workspace file is and the
    # descriptor of the unregistered W4 is applied to it.
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch) / "ws"
        shutil.copytree(demo_ws, root)
        descriptor = Path(scratch) / "release.json"
        if data.draw(st.booleans()):
            name = data.draw(st.sampled_from(sorted(DESCRIPTORS)))
            descriptor.write_bytes(data.draw(mutated_descriptor(DESCRIPTORS[name])))
        else:
            descriptor.write_bytes(DESCRIPTORS["w4.json"])
            target = root / data.draw(st.sampled_from(WORKSPACE_FILES))
            target.write_bytes(data.draw(mutated_bytes(target.read_bytes())))
        before = _snapshot(root)
        code, err = _run(["-w", str(root), "release", str(descriptor)])
        _check_outcome(code, err)
        if code != 0:
            assert _snapshot(root) == before
        else:
            # An accepted release leaves a workspace every command can read.
            _check_outcome(*_run(["-w", str(root), "query", str(DEMO / "query.rq")]))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(text=mutated_bytes(GLOBAL_QUADS, TEXT_BYTES))
def test_mutated_init_quad_file(text):
    with tempfile.TemporaryDirectory() as scratch:
        quads, root = Path(scratch) / "global.quads", Path(scratch) / "ws"
        quads.write_bytes(text)
        code, err = _run(["init", str(root), "--global-graph", str(quads)])
        _check_outcome(code, err)
        if code != 0:
            assert not root.exists()
            return
        # An initialized workspace is one every command can read. ``validate``
        # prints its violations, if any, on standard output.
        code, err = _run(["-w", str(root), "validate"])
        assert code in (0, 2) and err == ""
        for argv in (["release", str(DEMO / "releases" / "w1.json")],
                     ["query", str(DEMO / "query.rq")]):
            _check_outcome(*_run(["-w", str(root), *argv]))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_bound_csv(demo_ws, data):
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch) / "ws"
        shutil.copytree(demo_ws, root)
        target = root / "data" / data.draw(st.sampled_from(DATA_FILES))
        target.write_bytes(data.draw(mutated_bytes(target.read_bytes(), TEXT_BYTES)))
        before = _snapshot(root)
        _check_outcome(*_run(["-w", str(root), "query", str(DEMO / "query.rq")]))
        assert _snapshot(root) == before


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_bench_args(data):
    # Both counts are always given, so neither default applies with the
    # other; a growth bench runs on a fresh workspace with the demo data.
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        root = scratch / "ws"
        if data.draw(st.booleans()):
            argv = ["bench", "walks", "--concepts", data.draw(st.sampled_from(BENCH_COUNTS)),
                    "--wrappers", data.draw(st.sampled_from(BENCH_COUNTS))]
        else:
            (scratch / "empty").mkdir()
            (scratch / "malformed").mkdir()
            (scratch / "malformed" / "w1.json").write_bytes(DESCRIPTORS["w1.json"][:-2])
            (scratch / "file.json").write_bytes(DESCRIPTORS["w1.json"])
            releases = data.draw(st.sampled_from(
                [scratch / "missing", scratch / "file.json", scratch / "empty",
                 DEMO / "releases", scratch / "malformed"]))
            assert _run(["init", str(root), "--global-graph", str(DEMO / "global.quads")])[0] == 0
            shutil.copytree(DEMO / "data", root / "data")
            argv = ["-w", str(root), "bench", "growth", "--releases", str(releases)]
        for _ in range(data.draw(st.integers(0, 2))):
            token = data.draw(st.sampled_from(BENCH_TOKENS))
            argv.insert(data.draw(st.integers(0, len(argv))), token)
        before = _snapshot(root) if root.exists() else None
        code, err = _run(argv)
        _check_outcome(code, err)
        if code != 0 and before is not None:
            assert _snapshot(root) == before


class _EagerCommand(cli._Parser):
    """``cli._Command`` built when it is made, as argparse builds its own
    sub-parsers."""

    def __init__(self, add_arguments, **kwargs):
        super().__init__(**kwargs)
        add_arguments(self)


@pytest.fixture(scope="module")
def eager_parser():
    """The command-line parser with every command's parser built up front,
    by the same functions."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_Command", _EagerCommand)
        return cli._build_parser()


def _parse_outcome(parser, argv: list[str]) -> tuple:
    """The parsed namespace, the error message, or the exit code with what
    the parser printed."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            return "parsed", vars(parser.parse_args(argv))
    except OntomedError as exc:
        return "error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue()


@st.composite
def command_line(draw) -> list[str]:
    """1 to 6 words of ``ARGV_TOKENS``. Three in four start with command
    words, after a workspace option or not, so that most reach a command's
    parser."""
    words = draw(st.lists(st.sampled_from(ARGV_TOKENS), min_size=1, max_size=6))
    if draw(st.integers(0, 3)):
        lead = draw(st.sampled_from([[], ["-w", "x"], ["-wx"]]))
        words = [*lead, *draw(st.sampled_from(COMMAND_WORDS)), *words][:6]
    return words


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(argv=command_line())
def test_command_line_parses_as_with_every_parser_built(eager_parser, argv):
    assert _parse_outcome(cli._build_parser(), argv) == _parse_outcome(eager_parser, argv)

"""Bounded command-line fuzz over the demo: mutated queries, release
descriptors and workspace files.

Whatever the input, a command exits 0, 2, 3 or 4; a failing ``query`` or
``release`` prints exactly one stderr line, starting with ``error:``; and a
failed ``release`` leaves the workspace files byte for byte as they were.
The examples are derandomized, so a run is repeatable.
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

from ontomed.cli import main

DEMO = Path(__file__).resolve().parent.parent / "demo"
QUERY_TOKENS = re.findall(r"\s+|\S+", (DEMO / "query.rq").read_text(encoding="utf-8"))
DESCRIPTORS = {path.name: path.read_bytes() for path in sorted((DEMO / "releases").glob("*.json"))}
WORKSPACE_FILES = ("ontology.quads", "bindings.json")

# Tokens a mutated query may gain besides its own: keywords, punctuation,
# terms of the demo ontology and terms it does not hold.
EXTRA_TOKENS = ["SELECT", "FROM", "WHERE", "VALUES", "FILTER", "{", "}", "(", ")", ".", ",",
                "?x", "?z", "<http://x/y>", "<>", "sup:nope", "nope:x", "sup:Monitor",
                "sup:monitorId", "G:hasFeature", "rdf:type", '"lit"', "42", "#", "\\", "é"]
# Byte strings a mutated descriptor or workspace file may gain.
EXTRA_BYTES = [b'"', b"{", b"}", b"[", b"]", b",", b":", b"null", b"1", b"[]", b"{}", b'""',
               b" ", b"\n", b"x", b"/", b"sup:", b"<", b">", b"\xff", b"\\u0000"]
# Values a mutated descriptor may hold in place of one of its own.
JSON_VALUES = [None, 0, 1.5, True, "", "x", "x y", "W1", "D1", "sup:nope", "sup:lagRatio",
               "data/w2.csv", "data/nope.csv", [], {}, ["x"], ["sup:Monitor", "G:hasFeature"]]


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
def mutated_bytes(draw, raw: bytes) -> bytes:
    data = bytearray(raw)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["delete", "insert", "replace", "truncate"]))
        chunk = draw(st.sampled_from(EXTRA_BYTES) | st.binary(min_size=1, max_size=2))
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

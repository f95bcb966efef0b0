"""Quad store: construction, pattern matching, closure, persistence."""

import copy
import hashlib
import os
import pickle
import random
import re
from dataclasses import dataclass
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontomed.bench import build_chain_instance
from ontomed.errors import InvalidIri, UnknownPrefix
from ontomed.quadstore import Dataset, Quad
from ontomed.terms import Iri, PrefixTable

from generators import make_instance, make_wide_instance
from oracles import reference_load


def q4(g, s, p, o):
    return Quad(Iri(g), Iri(s), Iri(p), Iri(o))


EX = "http://example.org/"


class TestPrefixTable:
    def test_expand_prefixed_name(self):
        t = PrefixTable()
        assert t.expand("sc:identifier") == Iri("http://schema.org/identifier")

    def test_expand_absolute_and_bracketed(self):
        t = PrefixTable()
        assert t.expand("http://example.org/x") == Iri("http://example.org/x")
        assert t.expand("<http://example.org/x>") == Iri("http://example.org/x")

    def test_unknown_prefix(self):
        with pytest.raises(UnknownPrefix):
            PrefixTable().expand("nope:thing")

    def test_not_an_iri(self):
        with pytest.raises(InvalidIri):
            PrefixTable().expand("plainword")

    def test_compact_longest_match(self):
        t = PrefixTable()
        t.register("ex", EX)
        t.register("exsub", EX + "sub/")
        assert t.compact(Iri(EX + "sub/x")) == "exsub:x"
        assert t.compact(Iri("mailto:nobody")) == "<mailto:nobody>"
        # A longer namespace under a name a quad file cannot read back is
        # skipped; of two names for one namespace the least wins, whatever
        # the order they were registered in.
        for name in ("", "a:b", "#h", "@at", "1x", "é"):
            t.register(name, EX + "sub/x")
        assert t.compact(Iri(EX + "sub/xy")) == "exsub:xy"
        for names in (("exb", "exa"), ("exa", "exb")):
            table = t.copy()
            for name in names:
                table.register(name, EX + "sub/x")
            assert table.compact(Iri(EX + "sub/xy")) == "exa:y"

    def test_empty_iri_rejected(self):
        with pytest.raises(InvalidIri):
            Iri("")


@dataclass(frozen=True, order=True)
class DataclassIri:
    """The dataclass ``Iri`` once was: the reference for its semantics."""

    value: str


class TestIri:
    VALUES = (EX + "a", EX + "b", EX + "a/b", EX + "B", "urn:x")

    def test_compares_and_hashes_like_the_dataclass(self):
        for a, b in product(self.VALUES, repeat=2):
            new, old = (Iri(a), Iri(b)), (DataclassIri(a), DataclassIri(b))
            for op in ("__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__"):
                assert getattr(new[0], op)(new[1]) == getattr(old[0], op)(old[1]), (a, b, op)
            assert (hash(new[0]) == hash(new[1])) == (a == b)
        assert sorted(map(Iri, self.VALUES)) == [Iri(v) for v in sorted(self.VALUES)]
        assert len({Iri(EX + "a"), Iri(EX + "a")}) == 1

    def test_comparison_with_non_iri(self):
        # An Iri is a str: it equals, hashes and orders like its text, and
        # like any str it differs from other types.
        for v in self.VALUES:
            assert Iri(v) == v and hash(Iri(v)) == hash(v)
        assert Iri(EX + "a") < EX + "b"
        iri = Iri(EX + "a")
        for other in (DataclassIri(EX + "a"), None):
            assert iri != other and not iri == other

    def test_repr_and_str(self):
        for v in self.VALUES:
            assert repr(Iri(v)) == repr(DataclassIri(v)).replace("DataclassIri", "Iri")
            assert str(Iri(v)) == v

    def test_immutable_and_copyable(self):
        iri = Iri(EX + "a")
        for name in ("value", "other"):
            with pytest.raises(AttributeError):
                setattr(iri, name, EX + "b")
        assert str(iri) == EX + "a"
        for clone in (copy.copy(iri), copy.deepcopy(iri), pickle.loads(pickle.dumps(iri))):
            assert type(clone) is Iri and clone == iri and repr(clone) == repr(iri)


# Nine of the sixteen quads over two values per position.
_COMBOS = random.Random(4).sample(list(product("12", repeat=4)), 9)
_SHAPES = list(product((False, True), repeat=4))


def _shape_id(bound):
    return "".join(pos if on else "_" for pos, on in zip("gspo", bound))


def _combo_quad(g, s, p, o):
    return q4(EX + "g" + g, EX + "s" + s, EX + "p" + p, EX + "o" + o)


def _patterns(bound):
    """Every pattern of one shape: each bound position takes both values and
    one no quad holds."""
    for values in product(*(("1", "2", "X") if on else (None,) for on in bound)):
        yield tuple(None if v is None else Iri(EX + pos + v) for pos, v in zip("gspo", values))


def _filtered(ds, terms):
    return {q for q in frozenset(ds) if all(
        t is None or t == have
        for t, have in zip(terms, (q.graph, q.subject, q.predicate, q.object)))}


class TestDataset:
    def test_add_to_copy_leaves_source_unchanged(self):
        ds = Dataset()
        for combo in _COMBOS:
            ds._add(_combo_quad(*combo))
        before = {terms: ds.match(*terms) for bound in _SHAPES for terms in _patterns(bound)}
        clone = ds.copy()
        for combo in product("12", repeat=4):
            assert clone._add(_combo_quad(*combo)) == (combo not in _COMBOS)
        assert len(ds) == 9 and len(clone) == 16
        for terms, matched in before.items():
            assert ds.match(*terms) == matched
            assert clone.match(*terms) == _filtered(clone, terms)

    def test_insert_duplicate_reports_existing(self):
        ds = Dataset()
        item = q4(EX + "g", EX + "s", EX + "p", EX + "o")
        assert ds._add(item)
        assert not ds._add(item) and len(ds) == 1

    def test_quad_builder_resolves_prefixes(self):
        ds = Dataset()
        built = Quad(*map(ds.prefixes.expand, ("G:", "sc:A", "rdf:type", "G:Concept")))
        assert built.subject == Iri("http://schema.org/A")

    @pytest.mark.parametrize("bound", _SHAPES, ids=_shape_id)
    def test_match_all_positions(self, bound):
        ds = Dataset()
        for combo in _COMBOS:
            ds._add(_combo_quad(*combo))
        for terms in _patterns(bound):
            assert ds.match(*terms) == _filtered(ds, terms)

    def test_graph_triples_scoped_to_graph(self):
        ds = Dataset()
        ds._add(q4(EX + "g1", EX + "s", EX + "p", EX + "o"))
        ds._add(q4(EX + "g2", EX + "s", EX + "p", EX + "o2"))
        assert ds.graph_triples(Iri(EX + "g1")) == {(Iri(EX + "s"), Iri(EX + "p"), Iri(EX + "o"))}

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(
        st.tuples(st.just("add"), st.tuples(*[st.sampled_from("12")] * 4)),
        st.tuples(st.just("copy"), st.none()),
        st.tuples(st.just("match"), st.tuples(*[st.sampled_from((None, "1", "2", "X"))] * 4)),
    ), max_size=30))
    def test_interleaved_add_copy_match_agree_with_filter(self, ops):
        # The indexes are built by the first match that needs one (graph
        # bound, not all four positions bound), so the ops run both before
        # and after they exist, in the dataset and in its copies.
        ds, order, snapshots = Dataset(), [], []
        for op, arg in ops:
            if op == "add":
                q = _combo_quad(*arg)
                assert ds._add(q) == (q not in order)
                if q not in order:
                    order.append(q)
            elif op == "copy":
                snapshots.append((ds, list(order)))
                ds = ds.copy()
            else:
                terms = tuple(None if v is None else Iri(EX + pos + v) for pos, v in zip("gspo", arg))
                for d in [ds] + [old for old, _ in snapshots]:
                    # links, like match, builds the indexes when they are
                    # missing, so it runs first.
                    if terms[0] is not None and terms[2] is not None:
                        for inverse, key, value in ((False, 1, 3), (True, 3, 1)):
                            grouped: dict = {}
                            for q in _filtered(d, (terms[0], None, terms[2], None)):
                                grouped.setdefault(q[key], []).append(q[value])
                            links = d.links(terms[0], terms[2], inverse)
                            assert ({k: sorted(v) for k, v in links.items()}
                                    == {k: sorted(v) for k, v in grouped.items()})
                    assert d.match(*terms) == _filtered(d, terms)
                    if terms[0] is not None:
                        in_graph = [q for q in d if q.graph == terms[0]]
                        assert d.graph_triples(terms[0]) == {q[1:] for q in in_graph}
                        assert d.terms_of_graph(terms[0]) == {t for q in in_graph for t in q[1:]}
        assert list(ds) == order
        for old, quads in snapshots:
            assert list(old) == quads

    def test_derived_cache_invalidated_on_insert(self):
        ds = Dataset()
        ds._add(q4(EX + "g", EX + "s", EX + "p", EX + "o"))
        assert ds.derived("size", lambda: len(ds)) == 1
        assert ds.derived("size", lambda: -1) == 1
        ds._add(q4(EX + "g", EX + "s", EX + "p", EX + "o2"))
        assert ds.derived("size", lambda: len(ds)) == 2


_iri_text = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789/#",
    min_size=1, max_size=12,
).map(lambda s: EX + s)


@st.composite
def datasets(draw):
    ds = Dataset()
    quads = draw(st.lists(st.tuples(_iri_text, _iri_text, _iri_text, _iri_text), max_size=25))
    for g, s, p, o in quads:
        ds._add(q4(g, s, p, o))
    return ds


class TestPersistence:
    @settings(max_examples=40, deadline=None)
    @given(datasets())
    def test_save_load_round_trip(self, tmp_path_factory, ds):
        path = tmp_path_factory.mktemp("quads") / "d.quads"
        ds.save(path)
        assert frozenset(Dataset.load(path)) == frozenset(ds)

    def test_load_rejects_malformed_record(self, tmp_path):
        path = tmp_path / "bad.quads"
        path.write_text("<a> <b> <c>\n", encoding="utf-8")
        with pytest.raises(InvalidIri):
            Dataset.load(path)

    def test_load_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "ok.quads"
        path.write_text("# comment\n\n<g> <s> <p> <o>\n", encoding="utf-8")
        assert len(Dataset.load(path)) == 1

    def test_prefixes_survive_round_trip(self, tmp_path):
        ds = Dataset()
        ds.prefixes.register("ex", EX)
        path = tmp_path / "d.quads"
        ds.save(path)
        assert Dataset.load(path).prefixes.namespaces()["ex"] == EX

    def test_load_builds_one_iri_per_distinct_token(self, tmp_path):
        ds = Dataset()
        for g, s, p, o in product("12", repeat=4):
            ds._add(q4(EX + g, EX + s, EX + p, EX + o))
        path = tmp_path / "d.quads"
        ds.save(path)
        terms = [t for q in Dataset.load(path) for t in q]
        assert len(terms) == 64
        assert len({id(t) for t in terms}) == len({str(t) for t in terms}) == 2

    def test_save_writes_term_order(self, tmp_path):
        # As line text "<http://x/a-> " sorts before "<http://x/a> ", since
        # "-" < ">"; as terms http://x/a comes first.
        values = ("http://x/a", "http://x/a-", "http://x/a/b")
        ds = Dataset()
        for g, s, p, o in product(values, repeat=4):
            ds._add(q4(g, s, p, o))
        path = tmp_path / "d.quads"
        ds.save(path)
        text = path.read_text(encoding="utf-8")
        records = [line for line in text.splitlines() if not line.startswith("@prefix")]
        expected = [f"<{g}> <{s}> <{p}> <{o}>" for g, s, p, o in sorted(ds)]
        assert records == expected and sorted(records) != expected
        again = tmp_path / "again.quads"
        Dataset.load(path).save(again)
        assert again.read_bytes() == path.read_bytes()

    def test_save_ignores_insertion_order(self, tmp_path):
        ds = build_chain_instance(3, 2)
        canonical = tmp_path / "canonical.quads"
        ds.save(canonical)
        expected = canonical.read_bytes()
        # The same records shuffled, one tab-separated, one indented, with a
        # comment, a duplicate line and CRLF endings.
        lines = expected.decode("utf-8").splitlines()
        random.Random(5).shuffle(lines)
        first, second = [i for i, line in enumerate(lines) if not line.startswith("@")][:2]
        lines[first] = lines[first].replace(" ", "\t", 1)
        lines[second] = "  " + lines[second]
        lines[3:3] = ["# a comment", lines[first]]
        messy = tmp_path / "messy.quads"
        messy.write_bytes("".join(line + "\r\n" for line in lines).encode("utf-8"))
        saved = tmp_path / "saved.quads"
        Dataset.load(messy).save(saved)
        assert saved.read_bytes() == expected
        for order in (sorted(ds), sorted(ds, reverse=True)):
            built = Dataset(ds.prefixes)
            for q in order:
                built._add(q)
            built.save(saved)
            assert saved.read_bytes() == expected

    def test_saved_bytes_pinned(self, tmp_path):
        # A 1,479-quad store, saved in the order of its terms' text, each term
        # compacted against the header's prefixes: a change to that order, to
        # the compaction rule or to the record format changes the digest.
        path = tmp_path / "chain.quads"
        build_chain_instance(20, 4).save(path)
        assert hashlib.sha1(path.read_bytes()).hexdigest() == "0ccf6195dacc71e8c977e7814bbb039a8dfb2fad"

    def test_failed_save_leaves_file_unchanged(self, tmp_path, monkeypatch):
        path = tmp_path / "d.quads"
        path.write_text("<g> <s> <p> <o>\n", encoding="utf-8")
        ds = Dataset()
        ds._add(q4(EX + "g", EX + "s", EX + "p", EX + "o"))

        def refuse(src, dst):
            raise OSError("disk full")
        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError):
            ds.save(path)
        assert path.read_text(encoding="utf-8") == "<g> <s> <p> <o>\n"
        assert [p.name for p in tmp_path.iterdir()] == ["d.quads"]


# Prefix names the writer uses ("G" and "rdf" override defaults), then names
# it must skip: a token holding them would split at the wrong ":" or begin a
# comment or a declaration.
_NAMES = ("a", "b", "ab", "n1", "x.y", "n-1", "Z_", "G", "rdf", "", ":", "a:b", "#", "#h", "@", "@at")


@st.composite
def _stores_with_prefixes(draw):
    """A generated store whose table also maps random names to prefixes of
    its terms: nested namespaces, a term equal to its namespace, the empty
    namespace, and up to three names for one namespace."""
    kind = draw(st.sampled_from(("instance", "wide", "chain")))
    if kind == "chain":
        ds = build_chain_instance(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    else:
        make = make_instance if kind == "instance" else make_wide_instance
        ds, _ = make(random.Random(draw(st.integers(0, 10_000))))
    terms = sorted({term for quad in ds for term in quad})
    for _ in range(draw(st.integers(0, 6))):
        term = draw(st.sampled_from(terms))
        cut = draw(st.integers(0, len(term)))
        for namespace in (term[:cut], term[:draw(st.integers(cut, len(term)))]):
            for name in draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=3)):
                ds.prefixes.register(name, namespace)
    return ds


class TestCompactRoundTrip:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_stores_with_prefixes())
    def test_load_of_save_is_the_store(self, tmp_path_factory, ds):
        path = tmp_path_factory.mktemp("quads") / "d.quads"
        ds.save(path)
        loaded = Dataset.load(path)
        assert frozenset(loaded) == frozenset(ds)
        assert loaded.prefixes.namespaces() == ds.prefixes.namespaces()
        again = path.with_name("again.quads")
        loaded.save(again)
        assert again.read_bytes() == path.read_bytes()


# Prefixed tokens: a default prefix, prefixes the file may or may not
# declare (in any line), the empty name, an empty local part and a local
# part holding ":".
_GOOD = ("<http://x/a>", "<http://x/b>", "<http://x/a/b>", "<urn:c>", "<http://x/\u00e9>",
         "G:a", "ex:a", "ex:", "p:a:b", ":a")
_BAD = ("http://x/a>", "<http://x/a", "<>", "<>", "<", "x", "nope:a", "G:a<b", "ex:a>b", "G:a>")
_GAPS = (" ", "\t", "   ", " \t ", "\xa0")
_INDENTS = ("", "", " ", "\t", "\xa0")
# Each of these ends a line for str.splitlines; "\u2028" and "\x1c" are
# whitespace to str.split as well.
_ENDS = ("\n", "\n", "\r\n", "\u2028", "\x1c")


@st.composite
def _record(draw, count=4, bad=False):
    tokens = draw(st.lists(st.sampled_from(_GOOD), min_size=count, max_size=count))
    if bad:
        tokens[draw(st.integers(0, count - 1))] = draw(st.sampled_from(_BAD))
    text = tokens[0]
    for token in tokens[1:]:
        text += draw(st.sampled_from(_GAPS)) + token
    return draw(st.sampled_from(_INDENTS)) + text + draw(st.sampled_from(("", " ", "\t")))


_prefix = st.builds(
    "{}@prefix{}{}:{}<{}>".format,
    st.sampled_from(_INDENTS), st.sampled_from(_GAPS), st.sampled_from(("ex", "G", "p", "")),
    st.sampled_from(_GAPS), st.sampled_from(("http://x/", "http://y/", "urn:z:")))
_good_line = st.one_of(
    _record(), _record(), _prefix,
    st.sampled_from(("", "  ", "\t", "# c", "  # <a> <b> <c> <d>", "#<a> <b>")))
_bad_line = st.one_of(
    _record(count=3), _record(count=5), _record(bad=True), _record(bad=True),
    st.sampled_from(("@prefix ex <http://x/>", "@prefix ex:", " @prefix", "@prefixes: a b",
                     "@prefix x: <http://a/> junk")))


@st.composite
def _quad_files(draw):
    lines = draw(st.lists(_good_line, max_size=25))
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_bad_line))
    return "".join(line + draw(st.sampled_from(_ENDS)) for line in lines)


class TestBulkLoad:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_quad_files())
    def test_load_agrees_with_line_by_line_reference(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("quads") / "f.quads"
        path.write_bytes(text.encode("utf-8"))
        try:
            expected = reference_load(path)
        except InvalidIri as exc:
            with pytest.raises(InvalidIri) as got:
                Dataset.load(path)
            assert str(got.value) == str(exc)
            return
        ds = Dataset.load(path)
        assert frozenset(ds) == frozenset(expected)
        assert list(ds) == list(expected)
        assert ds.prefixes.namespaces() == expected.prefixes.namespaces()
        terms = [term for quad in ds for term in quad]
        assert all(type(term) is Iri for term in terms)
        assert len({id(term) for term in terms}) == len(set(terms))

    @staticmethod
    def _large_file(tmp_path, bad: dict[int, str]):
        """A 2,000-line quad file with the lines numbered in ``bad`` replaced."""
        lines = ["@prefix ex: <http://x/>"] + [
            f"<http://x/g{i % 7}> <http://x/s{i}> <http://x/p{i % 5}> <http://x/o{i % 3}>"
            for i in range(1, 2000)]
        for lineno, line in bad.items():
            lines[lineno - 1] = line
        path = tmp_path / "large.quads"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    @pytest.mark.parametrize("line, message", [
        ("<http://x/g> <http://x/s> <http://x/p>", "malformed quad record"),
        ("<http://x/g> <http://x/s> http://x/p> <http://x/o>", "malformed quad record"),
        ("<http://x/g> <> <http://x/p> <http://x/o>", "empty IRI"),
        ("@prefix ex <http://x/>", "malformed prefix declaration"),
        ("ex:g ex:s nope:p ex:o", "undeclared prefix 'nope' in nope:p"),
        ("ex:g ex:s ex:p o", "malformed quad record"),
        ("ex:g ex:s ex:p ex:a<b", "'<' or '>' inside IRI ex:a<b"),
    ], ids=["token-count", "bracket", "empty-iri", "prefix", "undeclared", "no-colon",
            "bracket-in-local"])
    def test_bad_line_in_large_file_reports_its_number(self, tmp_path, line, message):
        path = self._large_file(tmp_path, {1013: line})
        with pytest.raises(InvalidIri, match=f"^{re.escape(str(path))}:1013: {message}$"):
            Dataset.load(path)

    def test_first_bad_line_in_file_order_wins(self, tmp_path):
        path = self._large_file(tmp_path, {900: "<http://x/g> <http://x/s> <http://x/p>",
                                           1100: "@prefix ex <http://x/>"})
        with pytest.raises(InvalidIri, match=f"^{re.escape(str(path))}:900: malformed quad record$"):
            Dataset.load(path)

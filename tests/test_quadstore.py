"""Quad store: construction, pattern matching, closure, persistence."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontomed.errors import InvalidIri, UnknownPrefix
from ontomed.quadstore import Dataset, Quad, insert_quad, match_pattern, quad
from ontomed.terms import (
    GLOBAL_GRAPH,
    RDFS_SUBCLASS_OF,
    Iri,
    PrefixTable,
)


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

    def test_empty_iri_rejected(self):
        with pytest.raises(InvalidIri):
            Iri("")


class TestDataset:
    def test_insert_returns_new_snapshot(self):
        ds = Dataset()
        updated, new = insert_quad(ds, q4(EX + "g", EX + "s", EX + "p", EX + "o"))
        assert new and len(updated) == 1 and len(ds) == 0

    def test_insert_duplicate_reports_existing(self):
        ds = Dataset()
        item = q4(EX + "g", EX + "s", EX + "p", EX + "o")
        ds, _ = insert_quad(ds, item)
        ds, new = insert_quad(ds, item)
        assert not new and len(ds) == 1

    def test_quad_builder_resolves_prefixes(self):
        ds = Dataset()
        built = quad(ds, "G:", "sc:A", "rdf:type", "G:Concept")
        assert built.subject == Iri("http://schema.org/A")

    @pytest.mark.parametrize(
        "bound", list(product((False, True), repeat=4)),
        ids=lambda bound: "".join(pos if on else "_" for pos, on in zip("gspo", bound)))
    def test_match_all_positions(self, bound):
        # Nine of the sixteen quads over two values per position; each bound
        # position is tried with both values and with one no quad holds.
        combos = random.Random(4).sample(list(product("12", repeat=4)), 9)
        ds = Dataset()
        for g, s, p, o in combos:
            ds, _ = insert_quad(ds, q4(EX + "g" + g, EX + "s" + s, EX + "p" + p, EX + "o" + o))
        for values in product(*(("1", "2", "X") if on else (None,) for on in bound)):
            terms = [None if v is None else Iri(EX + pos + v) for pos, v in zip("gspo", values)]
            expected = {q for q in ds.quads() if all(
                t is None or t == have
                for t, have in zip(terms, (q.graph, q.subject, q.predicate, q.object)))}
            assert match_pattern(ds, *terms) == expected

    def test_graph_triples_scoped_to_graph(self):
        ds = Dataset()
        ds, _ = insert_quad(ds, q4(EX + "g1", EX + "s", EX + "p", EX + "o"))
        ds, _ = insert_quad(ds, q4(EX + "g2", EX + "s", EX + "p", EX + "o2"))
        assert ds.graph_triples(Iri(EX + "g1")) == {(Iri(EX + "s"), Iri(EX + "p"), Iri(EX + "o"))}

    def test_subclass_closure_reflexive_transitive(self):
        ds = Dataset()
        for sub, sup in (("a", "b"), ("b", "c")):
            ds, _ = insert_quad(ds, Quad(GLOBAL_GRAPH, Iri(EX + sub), RDFS_SUBCLASS_OF, Iri(EX + sup)))
        assert ds.is_subclass_of(Iri(EX + "a"), Iri(EX + "c"))
        assert ds.is_subclass_of(Iri(EX + "a"), Iri(EX + "a"))
        assert not ds.is_subclass_of(Iri(EX + "c"), Iri(EX + "a"))

    def test_subclass_cache_invalidated_on_insert(self):
        ds = Dataset()
        ds, _ = insert_quad(ds, Quad(GLOBAL_GRAPH, Iri(EX + "a"), RDFS_SUBCLASS_OF, Iri(EX + "b")))
        assert not ds.is_subclass_of(Iri(EX + "b"), Iri(EX + "c"))
        ds, _ = insert_quad(ds, Quad(GLOBAL_GRAPH, Iri(EX + "b"), RDFS_SUBCLASS_OF, Iri(EX + "c")))
        assert ds.is_subclass_of(Iri(EX + "a"), Iri(EX + "c"))


_iri_text = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789/#",
    min_size=1, max_size=12,
).map(lambda s: EX + s)


@st.composite
def datasets(draw):
    ds = Dataset()
    quads = draw(st.lists(st.tuples(_iri_text, _iri_text, _iri_text, _iri_text), max_size=25))
    for g, s, p, o in quads:
        ds, _ = insert_quad(ds, q4(g, s, p, o))
    return ds


class TestPersistence:
    @settings(max_examples=40, deadline=None)
    @given(datasets())
    def test_save_load_round_trip(self, tmp_path_factory, ds):
        path = tmp_path_factory.mktemp("quads") / "d.quads"
        ds.save(path)
        assert Dataset.load(path).quads() == ds.quads()

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

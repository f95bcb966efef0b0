"""Vocabulary validation: each rule fires on its own violation generator."""

import random

import pytest

from ontomed.errors import InvalidWalk, OntomedError
from ontomed.quadstore import Dataset, Quad
from ontomed.releases import apply_release
from ontomed.rewriter import rewrite
from ontomed.sources import wrapper_schemas
from ontomed.terms import (
    G_HAS_FEATURE,
    GLOBAL_GRAPH,
    M_MAPPING,
    MAPPINGS_GRAPH,
    OWL_SAME_AS,
    RDF_TYPE,
    S_DATA_SOURCE,
    S_HAS_ATTRIBUTE,
    S_HAS_WRAPPER,
    S_WRAPPER,
    SOURCE_GRAPH,
    Iri,
    mapping_graph_iri,
    source_iri,
    wrapper_iri,
)
from ontomed.vocab import Violation, validate_ontology

from conftest import iri
from generators import make_instance, make_wide_instance

EX = "http://example.org/"


def test_clean_demo_dataset_validates(post_evolution_ds):
    assert validate_ontology(post_evolution_ds).ok


def test_v1_has_feature_endpoints(global_ds):
    ds = global_ds.copy()
    ds._add(Quad(GLOBAL_GRAPH, Iri(EX + "notAConcept"), G_HAS_FEATURE, iri("sup:lagRatio")))
    assert "V1" in validate_ontology(ds).rules()


def test_v1_has_feature_object_not_a_feature(global_ds):
    ds = global_ds.copy()
    ds._add(Quad(GLOBAL_GRAPH, iri("sup:Monitor"), G_HAS_FEATURE, Iri(EX + "untyped")))
    assert validate_ontology(ds).violations == [
        Violation("V1", Iri(EX + "untyped"), "hasFeature object is not a Feature")]


def test_v2_feature_owned_twice(global_ds):
    ds = global_ds.copy()
    ds._add(Quad(GLOBAL_GRAPH, iri("sup:Monitor"), G_HAS_FEATURE, iri("sup:lagRatio")))
    assert "V2" in validate_ontology(ds).rules()


def test_v3_dangling_source_links(pre_evolution_ds):
    ds = pre_evolution_ds.copy()
    ds._add(Quad(SOURCE_GRAPH, Iri(EX + "ghost"), S_HAS_WRAPPER, Iri(EX + "alsoGhost")))
    assert "V3" in validate_ontology(ds).rules()


def test_v3_attribute_link_to_untyped_node(pre_evolution_ds, releases):
    ds = pre_evolution_ds.copy()
    w1 = releases["W1"].wrapper
    ds._add(Quad(SOURCE_GRAPH, w1.iri, S_HAS_ATTRIBUTE, Iri(EX + "untyped")))
    assert "V3" in validate_ontology(ds).rules()


def test_v3_attribute_link_from_untyped_node(pre_evolution_ds, releases):
    ds = pre_evolution_ds.copy()
    attr = releases["W1"].wrapper.attr_iri("lagRatio")
    ds._add(Quad(SOURCE_GRAPH, Iri(EX + "untyped"), S_HAS_ATTRIBUTE, attr))
    assert validate_ontology(ds).violations == [
        Violation("V3", Iri(EX + "untyped"), "hasAttribute subject is not a Wrapper")]


def test_v4_attribute_mapped_to_two_features(pre_evolution_ds, releases):
    ds = pre_evolution_ds.copy()
    attr = releases["W1"].wrapper.attr_iri("lagRatio")
    ds._add(Quad(MAPPINGS_GRAPH, attr, OWL_SAME_AS, iri("sup:description")))
    assert "V4" in validate_ontology(ds).rules()


def test_v4_same_as_target_not_a_feature(pre_evolution_ds, releases):
    ds = pre_evolution_ds.copy()
    attr = releases["W1"].wrapper.attr_iri("VoDmonitorId")
    ds._add(Quad(MAPPINGS_GRAPH, attr, OWL_SAME_AS, iri("sup:Monitor")))
    assert "V4" in validate_ontology(ds).rules()


def test_v5_named_graph_triple_outside_global(pre_evolution_ds):
    ds = pre_evolution_ds.copy()
    ds._add(Quad(mapping_graph_iri("W1"), Iri(EX + "a"), Iri(EX + "b"), Iri(EX + "c")))
    report = validate_ontology(ds)
    assert "V5" in report.rules()


def test_v6_attribute_not_prefixed_by_source(pre_evolution_ds, releases):
    ds = pre_evolution_ds.copy()
    w1 = releases["W1"].wrapper
    rogue = Iri(EX + "rogueAttr")
    from ontomed.terms import S_ATTRIBUTE

    ds._add(Quad(SOURCE_GRAPH, rogue, RDF_TYPE, S_ATTRIBUTE))
    ds._add(Quad(SOURCE_GRAPH, w1.iri, S_HAS_ATTRIBUTE, rogue))
    assert "V6" in validate_ontology(ds).rules()


def test_v7_source_name_with_slash(global_ds):
    ds = global_ds.copy()
    ds._add(Quad(SOURCE_GRAPH, source_iri("D/1"), RDF_TYPE, S_DATA_SOURCE))
    assert validate_ontology(ds).violations == [
        Violation("V7", source_iri("D/1"), "source name 'D/1' contains '/'")]


def test_v8_wrapper_without_or_with_two_mapping_links(pre_evolution_ds, releases):
    w1 = releases["W1"].wrapper.iri
    link = Quad(MAPPINGS_GRAPH, w1, M_MAPPING, mapping_graph_iri("W1"))
    unmapped = Dataset(pre_evolution_ds.prefixes)
    for q in pre_evolution_ds:
        if q != link:
            unmapped._add(q)
    assert validate_ontology(unmapped).violations == [
        Violation("V8", w1, "Wrapper has no M:mapping link")]
    # A second link to a graph that holds no quads.
    twice = pre_evolution_ds.copy()
    twice._add(Quad(MAPPINGS_GRAPH, w1, M_MAPPING, mapping_graph_iri("W0")))
    assert validate_ontology(twice).violations == [
        Violation("V8", w1, "Wrapper has 2 M:mapping links")]


def test_v9_wrapper_or_source_outside_its_namespace(pre_evolution_ds, releases):
    w1 = releases["W1"].wrapper
    for old, kind, namespace in ((w1.iri, "Wrapper", wrapper_iri("")),
                                 (source_iri(w1.source), "DataSource", source_iri(""))):
        # Every term that holds the IRI moves with it, so the source's
        # attributes stay prefixed by its IRI.
        new = Iri(EX + old[len(namespace):])
        moved = Dataset(pre_evolution_ds.prefixes)
        for q in pre_evolution_ds:
            moved._add(Quad(*(Iri(t.replace(old, new)) for t in q)))
        assert validate_ontology(moved).violations == [
            Violation("V9", new, f"{kind} IRI is not under <{namespace}>")]


def test_v10_bound_name_not_a_wrapper(pre_evolution_ds):
    assert validate_ontology(pre_evolution_ds, ["W1", "W9"]).violations == [
        Violation("V10", wrapper_iri("W9"), "bound to a data file but not a Wrapper")]


def test_report_render_lists_rule_and_subject(global_ds):
    ds = global_ds.copy()
    ds._add(Quad(GLOBAL_GRAPH, iri("sup:Monitor"), G_HAS_FEATURE, iri("sup:lagRatio")))
    text = validate_ontology(ds).render()
    assert "V2" in text and "lagRatio" in text


def test_release_sequences_stay_valid(global_ds, releases):
    ds = global_ds
    for name in ("W2", "W1", "W4", "W3"):
        ds, _ = apply_release(ds, releases[name])
        assert validate_ontology(ds).ok


@pytest.mark.parametrize("make", [make_instance, make_wide_instance], ids=lambda make: make.__name__)
def test_one_quad_drops_validate_or_compile(make):
    # Every store left by dropping one source-graph or mappings-graph quad:
    # validate reports, the catalog skips what it cannot read instead of
    # failing the query, and a clean report means it read every wrapper.
    for seed in range(20):
        ds, query = make(random.Random(seed))
        quads = list(ds)
        for drop in quads:
            if drop.graph not in (SOURCE_GRAPH, MAPPINGS_GRAPH):
                continue
            dropped = Dataset(ds.prefixes)
            for q in quads:
                if q != drop:
                    dropped._add(q)
            report = validate_ontology(dropped)
            try:
                rewrite(query, dropped)
            except InvalidWalk as exc:
                raise AssertionError(f"seed {seed}, without {drop}: {exc}") from exc
            except OntomedError:
                pass
            if report.ok:
                typed = dropped.links(SOURCE_GRAPH, RDF_TYPE, inverse=True).get(S_WRAPPER, ())
                assert {wrapper_iri(name) for name in wrapper_schemas(dropped)} == set(typed), \
                    f"seed {seed}, without {drop}"

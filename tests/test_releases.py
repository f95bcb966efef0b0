"""Release application: growth accounting, reuse, monotonicity, descriptors."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontomed.errors import DanglingFeatureMap, DuplicateWrapper, SubgraphNotInGlobal
from ontomed.quadstore import Quad
from ontomed.releases import Release, apply_release, load_release
from ontomed.sources import WrapperSchema
from ontomed.terms import (
    GLOBAL_GRAPH,
    MAPPINGS_GRAPH,
    OWL_SAME_AS,
    SOURCE_GRAPH,
    Iri,
    mapping_graph_iri,
)
from ontomed.vocab import validate_ontology

from conftest import MONITOR_SUBGRAPH, iri, make_releases
from generators import save_release


class TestApplyRelease:
    def test_first_release_counts(self, global_ds, releases):
        _, stats = apply_release(global_ds, releases["W1"])
        # 1 source + 2 wrapper + 2 attrs typed + 2 attrs linked + 1 mapping
        # + 3 named-graph triples + 2 sameAs links
        assert (stats.source, stats.wrapper, stats.attribute_type, stats.attribute_link,
                stats.mapping, stats.mapping_graph, stats.same_as) == (1, 2, 2, 2, 1, 3, 2)
        assert stats.total == 13

    def test_fresh_source_count_formula(self, global_ds, releases):
        # 1 source-type + 2 wrapper + 2k attribute + 1 mapping + |subgraph|
        # named-graph + |F| sameAs quads.
        for name in ("W1", "W2", "W3"):
            r = releases[name]
            _, stats = apply_release(global_ds, r)
            k = len(r.wrapper.attrs)
            assert stats.total == 4 + 2 * k + len(r.subgraph) + len(r.feature_map)

    def test_monotonic_no_deletion(self, global_ds, releases):
        ds = global_ds
        previous = frozenset(ds)
        for name in ("W1", "W2", "W3", "W4"):
            ds, _ = apply_release(ds, releases[name])
            assert previous <= frozenset(ds)
            previous = frozenset(ds)

    def test_growth_bound(self, global_ds, releases):
        # A release on an existing source stays within 3 + 2|attrs| +
        # |subgraph| + |F|; a brand-new source adds one more quad (its
        # registration).
        ds = global_ds
        registered: set[str] = set()
        for r in releases.values():
            ds, stats = apply_release(ds, r)
            bound = 3 + 2 * len(r.wrapper.attrs) + len(r.subgraph) + len(r.feature_map)
            if r.wrapper.source not in registered:
                bound += 1
                registered.add(r.wrapper.source)
            assert stats.total <= bound

    def test_global_graph_untouched(self, global_ds, releases):
        before = global_ds.graph_triples(GLOBAL_GRAPH)
        ds = global_ds
        for r in releases.values():
            ds, _ = apply_release(ds, r)
        assert ds.graph_triples(GLOBAL_GRAPH) == before

    def test_attribute_reused_within_source(self, pre_evolution_ds, releases):
        ds, stats = apply_release(pre_evolution_ds, releases["W4"])
        # VoDmonitorId existed from the earlier wrapper of the same source,
        # bufferingRatio is new.
        assert stats.attribute_type == 1
        assert stats.attribute_link == 2
        attr = releases["W4"].wrapper.attr_iri("VoDmonitorId")
        typed = ds.match(SOURCE_GRAPH, subject=attr)
        assert len([q for q in typed if str(q.predicate).endswith("type")]) == 1

    def test_same_as_links_present_once(self, pre_evolution_ds, releases):
        ds, stats = apply_release(pre_evolution_ds, releases["W4"])
        w4 = releases["W4"].wrapper
        for attr, feature in releases["W4"].feature_map.items():
            assert ds.match(MAPPINGS_GRAPH, subject=w4.attr_iri(attr),
                            predicate=OWL_SAME_AS, object=feature)
        # The identifier link is shared with the earlier wrapper version, so
        # only the new attribute's link is added.
        assert stats.same_as == 1

    def test_named_graph_holds_subgraph_copy(self, pre_evolution_ds, releases):
        ds, _ = apply_release(pre_evolution_ds, releases["W4"])
        assert ds.graph_triples(mapping_graph_iri("W4")) == releases["W4"].subgraph

    def test_duplicate_wrapper_rejected(self, pre_evolution_ds, releases):
        with pytest.raises(DuplicateWrapper):
            apply_release(pre_evolution_ds, releases["W1"])

    def test_subgraph_outside_global_rejected(self, global_ds, releases):
        # Of several missing triples, the error names the least, whatever
        # order the subgraph's set holds them in.
        rogue = frozenset((iri("sup:Monitor"), iri("sup:generatesQoS"), iri(f"sup:{name}"))
                          for name in ("UserFeedback", "Z", "A", "M", "b"))
        r = releases["W1"]
        bad = Release(r.wrapper, r.subgraph | rogue, r.feature_map)
        least = "release subgraph triple <{}> <{}> <{}> not in".format(*min(rogue))
        with pytest.raises(SubgraphNotInGlobal, match=f"^{re.escape(least)}"):
            apply_release(global_ds, bad)

    def test_dangling_feature_map_rejected(self, releases):
        r = releases["W1"]
        with pytest.raises(DanglingFeatureMap):
            Release(r.wrapper, MONITOR_SUBGRAPH,
                    {"VoDmonitorId": iri("sup:monitorId"), "lagRatio": iri("sup:description")})

    @settings(max_examples=25, deadline=None)
    @given(order=st.permutations(["W1", "W2", "W3", "W4"]))
    def test_any_order_validates(self, order):
        from conftest import make_global_dataset

        ds = make_global_dataset()
        releases = make_releases()
        for name in order:
            ds, _ = apply_release(ds, releases[name])
        assert validate_ontology(ds).ok


class TestDescriptors:
    def test_round_trip(self, tmp_path, global_ds, releases):
        path = tmp_path / "w1.json"
        save_release(releases["W1"], path, global_ds)
        loaded = load_release(path, global_ds)
        assert loaded.wrapper == releases["W1"].wrapper
        assert loaded.subgraph == releases["W1"].subgraph
        assert loaded.feature_map == releases["W1"].feature_map

    def test_data_file_preserved(self, tmp_path, global_ds, releases):
        from dataclasses import replace

        path = tmp_path / "w1.json"
        save_release(replace(releases["W1"], data_file="data/w1.csv"), path, global_ds)
        assert load_release(path, global_ds).data_file == "data/w1.csv"

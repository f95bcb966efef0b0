"""Rewriter phases against the worked streaming-platform outputs, plus
randomized equivalence with a brute-force oracle."""

import hashlib
import random

import pytest

from ontomed.bench import build_chain_instance, chain_query
from ontomed.errors import MissingIdAttribute, NoJoinPath, NoWrapperForConcept
from ontomed.queries import parse_omq, well_formed_rewrite
from ontomed.releases import Release, apply_release
from ontomed.rewriter import (
    RewriteTrace,
    _bind_features,
    inter_concept_generation,
    intra_concept_generation,
    query_expansion,
    rewrite,
)
from ontomed.sources import (
    Ucq,
    Walk,
    WrapperSchema,
    coverage,
    minimality,
    wrapper_schemas,
)
from ontomed.terms import G_HAS_FEATURE

from conftest import MONITOR_QUERY, MONITOR_SUBGRAPH, iri
from generators import make_instance
from oracles import brute_force_binding, brute_force_walk_keys, validate_walk


@pytest.fixture
def wf_query(pre_evolution_ds):
    return well_formed_rewrite(pre_evolution_ds, parse_omq(MONITOR_QUERY, pre_evolution_ds))


class TestQueryExpansion:
    def test_concept_order(self, pre_evolution_ds, wf_query):
        x = query_expansion(wf_query, pre_evolution_ds)
        assert x.concepts == (
            iri("sc:SoftwareApplication"), iri("sup:Monitor"), iri("sup:InfoMonitor"))

    def test_monitor_identifier_added(self, pre_evolution_ds, wf_query):
        x = query_expansion(wf_query, pre_evolution_ds)
        assert (iri("sup:Monitor"), G_HAS_FEATURE, iri("sup:monitorId")) in x.query.phi
        assert iri("sup:monitorId") not in wf_query.pi

    def test_fixpoint_when_ids_already_present(self, pre_evolution_ds):
        text = """
        SELECT ?x FROM G: WHERE {
          VALUES (?x) { (sup:monitorId) }
          sup:Monitor G:hasFeature sup:monitorId
        }
        """
        q = parse_omq(text, pre_evolution_ds)
        x = query_expansion(q, pre_evolution_ds)
        assert x.query.phi == q.phi


class TestIntraConcept:
    def test_worked_partial_walks(self, pre_evolution_ds, wf_query):
        x = query_expansion(wf_query, pre_evolution_ds)
        p = intra_concept_generation(x, pre_evolution_ds)
        assert p.per_concept[iri("sc:SoftwareApplication")] == [
            Walk.single("W3", ["TargetApp"])]
        assert p.per_concept[iri("sup:Monitor")] == [
            Walk.single("W1", ["VoDmonitorId"]), Walk.single("W3", ["MonitorId"])]
        assert p.per_concept[iri("sup:InfoMonitor")] == [
            Walk.single("W1", ["lagRatio"])]

    def test_wrapper_missing_a_feature_is_pruned(self, pre_evolution_ds, wf_query, releases):
        # A fifth wrapper maps the Monitor subgraph but drops the metric from
        # its correspondence, so it cannot stand in for the metric's concept.
        w5 = Release(
            WrapperSchema("W5", "D5", ("monId",), ("noise",)),
            MONITOR_SUBGRAPH,
            {"monId": iri("sup:monitorId")},
        )
        ds, _ = apply_release(pre_evolution_ds, w5)
        x = query_expansion(wf_query, ds)
        p = intra_concept_generation(x, ds)
        info_walks = p.per_concept[iri("sup:InfoMonitor")]
        assert all("W5" not in w.names for w in info_walks)
        monitor_walks = p.per_concept[iri("sup:Monitor")]
        assert any("W5" in w.names for w in monitor_walks)

    def test_unanswerable_concept(self, global_ds, releases):
        ds, _ = apply_release(global_ds, releases["W3"])
        q = well_formed_rewrite(ds, parse_omq(MONITOR_QUERY, ds))
        x = query_expansion(q, ds)
        with pytest.raises(NoWrapperForConcept):
            intra_concept_generation(x, ds)


class TestInterConcept:
    def test_worked_walks(self, pre_evolution_ds, wf_query):
        x = query_expansion(wf_query, pre_evolution_ds)
        p = intra_concept_generation(x, pre_evolution_ds)
        walks = inter_concept_generation(p, x, pre_evolution_ds)
        join = frozenset({((("W1", "VoDmonitorId"), ("W3", "MonitorId")))})
        assert sorted((w.steps, frozenset(w.joins)) for w in walks) == sorted([
            (((("W1", ("VoDmonitorId", "lagRatio")), ("W3", ("TargetApp",)))), join),
            (((("W1", ("lagRatio",)), ("W3", ("MonitorId", "TargetApp")))), join),
        ])

    def test_same_source_pair_discarded(self, post_evolution_ds, wf_query):
        x = query_expansion(wf_query, post_evolution_ds)
        p = intra_concept_generation(x, post_evolution_ds)
        walks = inter_concept_generation(p, x, post_evolution_ds)
        for w in walks:
            names = set(w.names)
            assert not {"W1", "W4"} <= names

    def test_builds_only_connectable_candidates(self, monkeypatch):
        # On a chain of 4 concepts with 3 wrappers each, every (left, right)
        # pair has exactly one provider that can connect it: 3·3 + 9·3 + 27·3
        # candidates. Building one per provider of the edge would make 585.
        built = []
        add_wrapper = Walk.add_wrapper

        def counted(walk, name):
            built.append(name)
            return add_wrapper(walk, name)

        ds = build_chain_instance(4, 3)
        monkeypatch.setattr(Walk, "add_wrapper", counted)
        ucq = rewrite(chain_query(4), ds)
        assert len(built) == 117
        assert len(ucq.walks) == 81
        digest = hashlib.sha1(ucq.render().encode("utf-8")).hexdigest()
        assert digest == "49bee4bc5e536e7bf9632b8800d22c293b9d0516"

    def test_no_join_path(self, global_ds):
        # Wrappers cover both concepts but none materializes the edge
        # between them, so the join cannot be discovered.
        ds = global_ds
        ds, _ = apply_release(ds, Release(
            WrapperSchema("WA", "DA", ("monId",), ()),
            frozenset({(iri("sup:Monitor"), G_HAS_FEATURE, iri("sup:monitorId"))}),
            {"monId": iri("sup:monitorId")},
        ))
        ds, _ = apply_release(ds, Release(
            WrapperSchema("WB", "DB", (), ("lag",)),
            frozenset({(iri("sup:InfoMonitor"), G_HAS_FEATURE, iri("sup:lagRatio"))}),
            {"lag": iri("sup:lagRatio")},
        ))
        text = """
        SELECT ?x FROM G: WHERE {
          VALUES (?x) { (sup:lagRatio) }
          sup:Monitor sup:generatesQoS sup:InfoMonitor .
          sup:InfoMonitor G:hasFeature sup:lagRatio
        }
        """
        with pytest.raises(NoJoinPath):
            rewrite(text, ds)


    def test_missing_id_attribute_carries_the_plans_message(self, global_ds, post_evolution_ds):
        # WB provides the Monitor -> InfoMonitor edge but no attribute for
        # the Monitor identifier, so no pair can join across that edge.
        ds = global_ds
        for release in (
            Release(WrapperSchema("WA", "DA", ("monId",), ()),
                    frozenset({(iri("sup:Monitor"), G_HAS_FEATURE, iri("sup:monitorId"))}),
                    {"monId": iri("sup:monitorId")}),
            Release(WrapperSchema("WB", "DB", (), ("lag",)),
                    frozenset({(iri("sup:InfoMonitor"), G_HAS_FEATURE, iri("sup:lagRatio")),
                               (iri("sup:Monitor"), iri("sup:generatesQoS"), iri("sup:InfoMonitor"))}),
                    {"lag": iri("sup:lagRatio")}),
        ):
            ds, _ = apply_release(ds, release)
        text = """
        SELECT ?x FROM G: WHERE {
          VALUES (?x) { (sup:lagRatio) }
          sup:Monitor sup:generatesQoS sup:InfoMonitor .
          sup:InfoMonitor G:hasFeature sup:lagRatio
        }
        """
        with pytest.raises(MissingIdAttribute) as exc:
            rewrite(text, ds)
        assert str(exc.value) == (f"wrapper WB provides the edge but no attribute for "
                                  f"<{iri('sup:monitorId')}>")

        # After W4 the only InfoMonitor walk left shares source D1 with the
        # Monitor walk's W1: every provider has the attribute, the sources clash.
        ds = post_evolution_ds
        x = query_expansion(well_formed_rewrite(ds, parse_omq(MONITOR_QUERY, ds)), ds)
        p = intra_concept_generation(x, ds)
        p.per_concept[iri("sup:Monitor")] = [Walk.single("W1", ["VoDmonitorId"])]
        p.per_concept[iri("sup:InfoMonitor")] = [Walk.single("W4", ["bufferingRatio"])]
        with pytest.raises(MissingIdAttribute) as exc:
            inter_concept_generation(p, x, ds)
        assert str(exc.value) == (f"no identifier attribute joins the walks across "
                                  f"<{iri('sup:Monitor')}> and <{iri('sup:InfoMonitor')}>")


class TestRewrite:
    def test_single_union_before_evolution(self, pre_evolution_ds):
        ucq = rewrite(MONITOR_QUERY, pre_evolution_ds)
        assert len(ucq.walks) == 1
        assert ucq.walks[0].key() == (
            frozenset({"W1", "W3"}),
            frozenset({(("W1", "VoDmonitorId"), ("W3", "MonitorId"))}),
        )
        assert ucq.bindings[0] == {
            iri("sup:applicationId"): ("W3", "TargetApp"),
            iri("sup:lagRatio"): ("W1", "lagRatio"),
        }

    def test_two_unions_after_evolution(self, post_evolution_ds):
        ucq = rewrite(MONITOR_QUERY, post_evolution_ds)
        assert len(ucq.walks) == 2
        keys = {w.key() for w in ucq.walks}
        assert keys == {
            (frozenset({"W1", "W3"}), frozenset({(("W1", "VoDmonitorId"), ("W3", "MonitorId"))})),
            (frozenset({"W3", "W4"}), frozenset({(("W3", "MonitorId"), ("W4", "VoDmonitorId"))})),
        }
        by_key = {w.key(): b for w, b in zip(ucq.walks, ucq.bindings)}
        second = by_key[(frozenset({"W3", "W4"}),
                         frozenset({(("W3", "MonitorId"), ("W4", "VoDmonitorId"))}))]
        assert second[iri("sup:lagRatio")] == ("W4", "bufferingRatio")

    def test_single_concept_single_wrapper(self, pre_evolution_ds):
        text = """
        SELECT ?x FROM G: WHERE {
          VALUES (?x) { (sup:description) }
          sup:UserFeedback G:hasFeature sup:description
        }
        """
        ucq = rewrite(text, pre_evolution_ds)
        assert len(ucq.walks) == 1
        assert ucq.walks[0].key() == (frozenset({"W2"}), frozenset())

    def test_all_emitted_walks_cover_minimally(self, post_evolution_ds, wf_query):
        ucq = rewrite(MONITOR_QUERY, post_evolution_ds)
        wf = well_formed_rewrite(post_evolution_ds, parse_omq(MONITOR_QUERY, post_evolution_ds))
        for w in ucq.walks:
            assert coverage(w, wf, post_evolution_ds)
            assert minimality(w, wf, post_evolution_ds)

    def test_deterministic(self, post_evolution_ds):
        first = rewrite(MONITOR_QUERY, post_evolution_ds)
        second = rewrite(MONITOR_QUERY, post_evolution_ds)
        assert first.walks == second.walks
        assert first.bindings == second.bindings

    def test_output_order_follows_select(self, pre_evolution_ds):
        ucq = rewrite(MONITOR_QUERY, pre_evolution_ds)
        assert ucq.output_features == (iri("sup:applicationId"), iri("sup:lagRatio"))

    def test_binding_memo_follows_each_steps_projection(self, pre_evolution_ds):
        # The same wrapper projects different attributes in the two walks, so
        # a memo shared across walks must key on the whole step.
        features = (iri("sup:applicationId"), iri("sup:lagRatio"))
        join = ((("W1", "VoDmonitorId"), ("W3", "MonitorId")),)
        walks = [
            Walk(steps=(("W1", ("VoDmonitorId", "lagRatio")), ("W3", ("MonitorId", "TargetApp"))),
                 names=("W1", "W3"), joins=join),
            Walk(steps=(("W1", ("VoDmonitorId", "lagRatio")), ("W3", ("MonitorId",))),
                 names=("W1", "W3"), joins=join),
        ]
        catalog, memo = wrapper_schemas(pre_evolution_ds), {}
        for w in walks:
            assert (_bind_features(catalog, w, features, memo)
                    == brute_force_binding(pre_evolution_ds, w, features))

    def test_trace_phases_recorded(self, pre_evolution_ds):
        trace = RewriteTrace()
        rewrite(MONITOR_QUERY, pre_evolution_ds, trace)
        assert len(trace.concepts) == 3
        assert len(trace.phase3_walks) == 2
        text = trace.render(pre_evolution_ds)
        assert "phase 1" in text and "phase 3" in text


class TestOracleEquivalence:
    def test_random_instances_match_brute_force(self):
        rng = random.Random(20240817)
        agreements = 0
        for _ in range(60):
            ds, query = make_instance(rng)
            wf = well_formed_rewrite(ds, parse_omq(query, ds))
            expected = brute_force_walk_keys(ds, wf.phi)
            try:
                ucq = rewrite(query, ds)
            except (NoWrapperForConcept, NoJoinPath, MissingIdAttribute):
                ucq = Ucq(walks=[], output_features=wf.pi, bindings=[])
            assert {w.key() for w in ucq.walks} == expected
            for w, binding in zip(ucq.walks, ucq.bindings):
                validate_walk(w, wrapper_schemas(ds))
                assert binding == brute_force_binding(ds, w, ucq.output_features)
            agreements += 1
        assert agreements == 60


class TestPinnedOutput:
    def test_whole_output_pinned(self, pre_evolution_ds, post_evolution_ds):
        # One SHA-1 over the UCQ, the --verbose trace and the bindings, or
        # else the error class and message, on 300 seeded instances and the
        # demo before and after W4. About a third of the instances raise.
        rng = random.Random(1801)
        cases = [make_instance(rng) for _ in range(300)]
        cases += [(pre_evolution_ds, MONITOR_QUERY), (post_evolution_ds, MONITOR_QUERY)]
        digest = hashlib.sha1()
        for ds, query in cases:
            trace = RewriteTrace()
            try:
                ucq = rewrite(query, ds, trace)
            except (NoWrapperForConcept, NoJoinPath, MissingIdAttribute) as exc:
                values = [type(exc).__name__, str(exc)]
            else:
                values = [ucq.render(), trace.render(ds), repr(ucq.bindings)]
            for value in values:
                digest.update(value.encode("utf-8") + b"\0")
        assert digest.hexdigest() == "3f6f4dafbc3e5145cc9092f9d7b48514a2482797"

"""Rewriter phases against the worked streaming-platform outputs, plus
randomized equivalence with a brute-force oracle."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontomed import rewriter
from ontomed.bench import build_chain_instance, chain_query
from ontomed.errors import MissingIdAttribute, NoJoinPath, NoWrapperForConcept
from ontomed.executor import WrapperBinding, eval_ucq
from ontomed.quadstore import Dataset
from ontomed.queries import parse_omq, well_formed_rewrite
from ontomed.releases import Release, apply_release
from ontomed.rewriter import (
    PartialWalkSet,
    RewriteTrace,
    _bind_features,
    inter_concept_generation,
    intra_concept_generation,
    query_expansion,
    rewrite,
)
from ontomed.sources import (
    LavMasks,
    Ucq,
    Walk,
    WrapperSchema,
    coverage,
    minimality,
    wrapper_schemas,
)
from ontomed.terms import G_HAS_FEATURE

from conftest import MONITOR_QUERY, MONITOR_SUBGRAPH, iri, write_csv
from generators import (
    chain_with_wrappers,
    make_cyclic_instance,
    make_instance,
    make_tree_instance,
    make_wide_instance,
    named_instance,
)
from oracles import (
    brute_force_binding,
    brute_force_walk_keys,
    reference_bind_features,
    reference_inter_concept_generation,
    reference_render_body,
    validate_walk,
    walk_key,
)


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
        # Monitor walk's W1: every provider has the attribute, the sources
        # clash, and the error names that rule.
        ds = post_evolution_ds
        x = query_expansion(well_formed_rewrite(ds, parse_omq(MONITOR_QUERY, ds)), ds)
        p = intra_concept_generation(x, ds)
        p.per_concept[iri("sup:Monitor")] = [Walk.single("W1", ["VoDmonitorId"])]
        p.per_concept[iri("sup:InfoMonitor")] = [Walk.single("W4", ["bufferingRatio"])]
        with pytest.raises(NoJoinPath) as exc:
            inter_concept_generation(p, x, ds)
        assert str(exc.value) == (f"no walk joins <{iri('sup:InfoMonitor')}>: each walk built so "
                                  f"far that shares an identifier with wrapper W4 already holds "
                                  f"its source D1, and a walk's sources must be distinct")


class TestPhase3Reference:
    """Phase 3 decides the joins a pair adds once per tuple of left holders
    and right walk; the pair-by-pair reference decides them for every
    pair."""

    @staticmethod
    def runs(ds, query):
        """Phase 3 of the engine, then of the reference: per run the walks,
        or the error class and message. None when phase 2 already fails."""
        x = query_expansion(well_formed_rewrite(ds, parse_omq(query, ds)), ds)
        try:
            p = intra_concept_generation(x, ds)
        except NoWrapperForConcept:
            return None
        runs = []
        for phase3 in (inter_concept_generation, reference_inter_concept_generation):
            try:
                runs.append(phase3(p, x, ds))
            except (NoJoinPath, MissingIdAttribute) as exc:
                runs.append((type(exc), str(exc)))
        return runs

    @pytest.mark.parametrize("generator", [make_instance, make_wide_instance])
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_pair_by_pair_reference(self, generator, seed):
        runs = self.runs(*generator(random.Random(seed)))
        if runs is not None:
            engine, reference = runs
            assert engine == reference


class TestTailReference:
    """Binding reads a table per step and the render a table per join, both
    shared by a union's walks; the references bind and render each walk on
    its own."""

    @pytest.mark.parametrize("generator", [make_instance, make_wide_instance])
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_per_walk_references(self, generator, seed):
        ds, query = generator(random.Random(seed))
        try:
            ucq = rewrite(query, ds)
        except (NoWrapperForConcept, NoJoinPath, MissingIdAttribute):
            return
        catalog, features = wrapper_schemas(ds), ucq.output_features
        # repr(ucq.bindings) is pinned, so the dict order counts too.
        expected = [list(reference_bind_features(catalog, w, features).items()) for w in ucq.walks]
        assert [list(b.items()) for b in ucq.bindings] == expected
        assert expected == [list(brute_force_binding(ds, w, features).items()) for w in ucq.walks]
        assert ucq.render().split("\n") == [
            "Π{" + ",".join(".".join(b[f]) for f in features) + "}" + reference_render_body(w)
            for w, b in zip(ucq.walks, ucq.bindings)]


class TestOneConceptPerWrapper:
    """When no wrapper answers two concepts, phase 3 keeps its candidates
    and ``rewrite`` its kept walks without deduping or merging them."""

    @staticmethod
    def partial(ds, query) -> PartialWalkSet:
        x = query_expansion(well_formed_rewrite(ds, parse_omq(query, ds)), ds)
        return intra_concept_generation(x, ds)

    def test_fact(self, pre_evolution_ds):
        # On the demo W1 answers both Monitor and InfoMonitor.
        assert not self.partial(pre_evolution_ds, MONITOR_QUERY).one_concept_per_wrapper()
        assert self.partial(build_chain_instance(3, 2), chain_query(3)).one_concept_per_wrapper()

    # More than half of make_instance's instances that pass phase 2 meet the fact.
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_skipping_the_hashes_is_exact(self, seed):
        # The same union, bindings and phase-3 walks with the fact taken as
        # false, so that both stages dedupe and merge as if it failed.
        ds, query = make_instance(random.Random(seed))
        runs = []
        for fact in (PartialWalkSet.one_concept_per_wrapper, lambda self: False):
            trace = RewriteTrace()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(PartialWalkSet, "one_concept_per_wrapper", fact)
                try:
                    ucq = rewrite(query, ds, trace)
                except (NoWrapperForConcept, NoJoinPath, MissingIdAttribute) as exc:
                    runs.append((type(exc), str(exc)))
                    continue
            runs.append((ucq.walks, repr(ucq.bindings), ucq.render(), trace.phase3_walks))
        assert runs[0] == runs[1]


class TestRewrite:
    def test_single_union_before_evolution(self, pre_evolution_ds):
        ucq = rewrite(MONITOR_QUERY, pre_evolution_ds)
        assert len(ucq.walks) == 1
        assert walk_key(ucq.walks[0]) == (
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
        keys = {walk_key(w) for w in ucq.walks}
        assert keys == {
            (frozenset({"W1", "W3"}), frozenset({(("W1", "VoDmonitorId"), ("W3", "MonitorId"))})),
            (frozenset({"W3", "W4"}), frozenset({(("W3", "MonitorId"), ("W4", "VoDmonitorId"))})),
        }
        by_key = {walk_key(w): b for w, b in zip(ucq.walks, ucq.bindings)}
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
        assert walk_key(ucq.walks[0]) == (frozenset({"W2"}), frozenset())

    def test_all_emitted_walks_cover_minimally(self, post_evolution_ds, wf_query):
        ucq = rewrite(MONITOR_QUERY, post_evolution_ds)
        wf = well_formed_rewrite(post_evolution_ds, parse_omq(MONITOR_QUERY, post_evolution_ds))
        masks = LavMasks(wf.phi, wrapper_schemas(post_evolution_ds))
        for w in ucq.walks:
            assert coverage(w, masks)
            assert minimality(w, masks)

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
        # a table shared across walks must key on the whole step: the second
        # walk's W3 step does not project TargetApp, and so binds nothing to
        # the application's identifier.
        features = (iri("sup:applicationId"), iri("sup:lagRatio"))
        join = ((("W1", "VoDmonitorId"), ("W3", "MonitorId")),)
        walks = [
            Walk(steps=(("W1", ("VoDmonitorId", "lagRatio")), ("W3", ("MonitorId", "TargetApp"))),
                 names=("W1", "W3"), joins=join),
            Walk(steps=(("W1", ("VoDmonitorId", "lagRatio")), ("W3", ("MonitorId",))),
                 names=("W1", "W3"), joins=join),
        ]
        catalog = wrapper_schemas(pre_evolution_ds)
        assert (_bind_features(catalog, walks[:1], features)
                == [brute_force_binding(pre_evolution_ds, walks[0], features)])
        assert iri("sup:applicationId") not in brute_force_binding(pre_evolution_ds, walks[1], features)
        with pytest.raises(NoWrapperForConcept) as exc:
            _bind_features(catalog, walks, features)
        assert str(exc.value) == (f"walk {walks[1].render_body()} binds no attribute to "
                                  f"<{iri('sup:applicationId')}>")

    @staticmethod
    def check_filter_classes(ds, query, monkeypatch):
        """Rewrite with a trace while counting coverage calls, and check the
        kept walks and the "dropped" notes against a per-walk filter of the
        phase-3 walks. Returns (dropped walks, mask tuples, phase-3 walks)."""
        calls = []
        monkeypatch.setattr(rewriter, "coverage", lambda w, m: calls.append(w) or coverage(w, m))
        trace = RewriteTrace()
        try:
            ucq = rewrite(query, ds, trace)
        except (NoWrapperForConcept, NoJoinPath, MissingIdAttribute):
            return 0, 0, 0
        wf = well_formed_rewrite(ds, parse_omq(query, ds))
        masks = LavMasks(wf.phi, wrapper_schemas(ds))
        kept, dropped, by_key = [], [], {}
        for w in trace.phase3_walks:
            if coverage(w, masks) and minimality(w, masks):
                kept.append(w)
            else:
                dropped.append(f"dropped non-minimal or non-covering walk {w.render()}")
        for w in kept:
            k = w.names, w.joins
            by_key[k] = by_key[k].merge(w) if k in by_key else w
        assert ucq.walks == sorted(by_key.values())
        assert [n for n in trace.notes if n.startswith("dropped ")] == dropped
        classes = {tuple(masks[n] for n in w.names) for w in trace.phase3_walks}
        assert len(calls) == len(classes)
        return len(dropped), len(classes), len(trace.phase3_walks)

    def test_filter_decides_once_per_mask_tuple(self, monkeypatch):
        # w0 and w1 span C1-C2 with equal masks, as do w2 and w3 on C2, so
        # a walk joining w0 to w2 is non-minimal and shares its masks with
        # the walk joining w1 to w3.
        ds, query = chain_with_wrappers(
            [True, True, True],
            [(1, 2, "s0", None), (1, 2, "s1", None), (2, 2, "s2", None), (2, 2, "s3", None),
             (2, 3, "s4", None), (3, 3, "s5", None)],
            [("m1", 1), ("m3", 3)])
        dropped, classes, walks = self.check_filter_classes(ds, query, monkeypatch)
        assert dropped > 0 and classes < walks

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_filter_classes_on_wide_instances(self, seed):
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.check_filter_classes(*make_wide_instance(random.Random(seed)), monkeypatch)

    def test_derived_lookups_do_not_grow_with_walks(self, monkeypatch):
        # The tables the stages after phase 3 read are built once per query,
        # so a rewrite of 81 walks makes as many snapshot lookups as one of 1.
        keys = []
        derived = Dataset.derived

        def counted(self, key, builder):
            keys.append(key)
            return derived(self, key, builder)

        monkeypatch.setattr(Dataset, "derived", counted)
        counts = []
        for wrappers in (1, 3):
            ds = build_chain_instance(4, wrappers)
            keys.clear()
            ucq = rewrite(chain_query(4), ds)
            counts.append((len(ucq.walks), len(keys)))
        assert [walks for walks, _ in counts] == [1, 81]
        assert counts[0][1] == counts[1][1]

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
            assert {walk_key(w) for w in ucq.walks} == expected
            for w, binding in zip(ucq.walks, ucq.bindings):
                validate_walk(w, wrapper_schemas(ds))
                assert binding == brute_force_binding(ds, w, ucq.output_features)
            agreements += 1
        assert agreements == 60


    def test_random_trees_match_brute_force(self):
        # Three or more wrappers of a tree's walk can map one identifier, and
        # the walk equates all of their attributes. So the keys are exact,
        # and no two conjuncts of a union share a wrapper set.
        for seed in range(300):
            ds, query = make_tree_instance(random.Random(seed))
            wf = well_formed_rewrite(ds, parse_omq(query, ds))
            try:
                walks = rewrite(query, ds).walks
            except (NoWrapperForConcept, NoJoinPath, MissingIdAttribute):
                walks = []
            assert {walk_key(w) for w in walks} == brute_force_walk_keys(ds, wf.phi, 7), seed
            assert len({w.names for w in walks}) == len(walks), seed
            for w in walks:
                validate_walk(w, wrapper_schemas(ds))

    def test_random_cyclic_patterns_are_sound(self):
        # The trees of test_random_trees_match_brute_force plus 1 or 2
        # closing edges. Every walk is valid and among the oracle's, and no
        # two conjuncts share a wrapper set. Exact equality does not hold:
        # phase 3 takes one wrapper per concept, so it misses covers that
        # need more wrappers than the pattern has concepts. Seed 98 misses a
        # 5-wrapper walk over the 4 concepts. 9 unions are nonempty.
        nonempty, missed = 0, []
        for seed in range(300):
            ds, query = make_cyclic_instance(random.Random(seed))
            wf = well_formed_rewrite(ds, parse_omq(query, ds))
            try:
                walks = rewrite(query, ds).walks
            except (NoWrapperForConcept, NoJoinPath, MissingIdAttribute):
                walks = []
            expected = brute_force_walk_keys(ds, wf.phi, 7)
            keys = {walk_key(w) for w in walks}
            assert keys <= expected, seed
            assert len({w.names for w in walks}) == len(walks), seed
            for w in walks:
                validate_walk(w, wrapper_schemas(ds))
            nonempty += bool(walks)
            if keys != expected:
                missed.append(seed)
        assert (nonempty, missed) == (9, [98])

    @pytest.mark.parametrize("closing, body", [
        (("A", "ac", "C"),
         "( wab ⋈[wab.idA=wac.idA] wac ⋈[wab.idB=wbc.idB,wac.idC=wbc.idC] wbc )"),
        (("C", "ca", "A"),
         "( wab ⋈[wab.idB=wbc.idB] wbc ⋈[wab.idA=wca.idA,wbc.idC=wca.idC] wca )"),
    ], ids=["undirected-cycle", "directed-cycle"])
    def test_triangle_joins_every_identifier(self, tmp_path, closing, body):
        # A ab B . B bc C and a closing edge between A and C, either way
        # round: its wrapper and wbc both map C's identifier, so the walk
        # joins them on it too, and the data have no answer: C would be c1
        # and c2 at once. Edge directions do not matter to the rewriting.
        wc = "w" + closing[1]
        ds, query = named_instance(
            {"A": ("idA", "mA"), "B": ("idB",), "C": ("idC", "mC")},
            [("wab", [("A", "ab", "B"), ("A", "has", "idA"), ("A", "has", "mA"),
                      ("B", "has", "idB")]),
             ("wbc", [("B", "bc", "C"), ("B", "has", "idB"), ("C", "has", "idC")]),
             (wc, [closing, ("A", "has", "idA"), ("C", "has", "idC"), ("C", "has", "mC")])],
            [("A", "ab", "B"), ("B", "bc", "C"), closing, ("A", "has", "mA"),
             ("C", "has", "mC")],
            ["mA", "mC"])
        wf = well_formed_rewrite(ds, parse_omq(query, ds))
        ucq = rewrite(query, ds)
        assert {walk_key(w) for w in ucq.walks} == brute_force_walk_keys(ds, wf.phi) == {(
            frozenset({"wab", wc, "wbc"}),
            frozenset(tuple(sorted(join)) for join in [
                (("wab", "idA"), (wc, "idA")), (("wab", "idB"), ("wbc", "idB")),
                (("wbc", "idC"), (wc, "idC"))]))}
        assert [w.render_body() for w in ucq.walks] == [body]
        catalog = wrapper_schemas(ds)
        bindings = {}
        for name, rows in (("wab", [("a1", "b1", "x")]), ("wbc", [("b1", "c1")]),
                           (wc, [("a1", "c2", "y")])):
            write_csv(tmp_path / f"{name}.csv", catalog[name].attrs, rows)
            bindings[name] = WrapperBinding(catalog[name], tmp_path / f"{name}.csv")
        assert eval_ucq(ucq, bindings).rows == []

    @pytest.mark.parametrize("concepts, wrappers, pattern, projected", [
        # A -> B <- C: C shares no edge with A, so phase 1 orders B before
        # it: A, B, C.
        pytest.param({"A": ("idA", "mA"), "B": ("idB",), "C": ("idC",)},
                     [("wa", [("A", "has", "idA"), ("A", "has", "mA")]),
                      ("wb", [("B", "has", "idB"), ("A", "ab", "B"), ("A", "has", "idA")]),
                      ("wc", [("C", "has", "idC"), ("C", "cb", "B"), ("B", "has", "idB")])],
                     [("A", "ab", "B"), ("C", "cb", "B"), ("A", "has", "mA")], ["mA"],
                     id="v-shape"),
        # A has no feature, so any wrapper that maps A's edge answers it.
        pytest.param({"A": (), "B": ("idB", "mB")},
                     [("wa", [("A", "ab", "B"), ("B", "has", "idB")]),
                      ("wb", [("A", "ab", "B"), ("B", "has", "idB"), ("B", "has", "mB")]),
                      ("wb2", [("B", "has", "idB"), ("B", "has", "mB")])],
                     [("A", "ab", "B"), ("B", "has", "mB")], ["mB"],
                     id="featureless-concept"),
    ])
    def test_shapes_match_brute_force(self, concepts, wrappers, pattern, projected):
        ds, query = named_instance(concepts, wrappers, pattern, projected)
        wf = well_formed_rewrite(ds, parse_omq(query, ds))
        ucq = rewrite(query, ds)
        assert {walk_key(w) for w in ucq.walks} == brute_force_walk_keys(ds, wf.phi)
        for w, binding in zip(ucq.walks, ucq.bindings):
            validate_walk(w, wrapper_schemas(ds))
            assert binding == brute_force_binding(ds, w, ucq.output_features)

    def test_concepts_linked_only_through_a_non_concept(self):
        # A p X . X q B: no pattern edge joins B to A directly, and no
        # covering walk exists either.
        ds, query = named_instance(
            {"A": ("idA", "mA"), "B": ("idB", "mB")},
            [("wa", [("A", "has", "idA"), ("A", "has", "mA"), ("A", "p", "X")]),
             ("wb", [("B", "has", "idB"), ("B", "has", "mB"), ("X", "q", "B")])],
            [("A", "p", "X"), ("X", "q", "B"), ("A", "has", "mA"), ("B", "has", "mB")],
            ["mA", "mB"])
        wf = well_formed_rewrite(ds, parse_omq(query, ds))
        assert brute_force_walk_keys(ds, wf.phi) == set()
        with pytest.raises(NoJoinPath) as err:
            rewrite(query, ds)
        assert str(err.value) == ("no pattern edge connects <http://example.org/rand/B> "
                                  "to the processed prefix")


class TestPinnedOutput:
    def test_whole_output_pinned(self, pre_evolution_ds, post_evolution_ds):
        # Two SHA-1s on 300 seeded instances and the demo before and after
        # W4, of which about a third raise. The outputs digest covers the
        # UCQ and the bindings, or else the error class and message. The
        # trace digest covers the --verbose trace of each instance that
        # does not raise. Case 193 is blocked by the distinct-source rule
        # alone, and its error names that rule.
        rng = random.Random(1801)
        cases = [make_instance(rng) for _ in range(300)]
        cases += [(pre_evolution_ds, MONITOR_QUERY), (post_evolution_ds, MONITOR_QUERY)]
        outputs, traces = hashlib.sha1(), hashlib.sha1()
        for ds, query in cases:
            trace = RewriteTrace()
            try:
                ucq = rewrite(query, ds, trace)
            except (NoWrapperForConcept, NoJoinPath, MissingIdAttribute) as exc:
                values = [type(exc).__name__, str(exc)]
            else:
                values = [ucq.render(), repr(ucq.bindings)]
                traces.update(trace.render(ds).encode("utf-8") + b"\0")
            for value in values:
                outputs.update(value.encode("utf-8") + b"\0")
        assert outputs.hexdigest() == "ec975ec40881a38559dbbe6b5be16c1589c4e57d"
        assert traces.hexdigest() == "87f99b0ed559c8de0cf6891f3ec47064731f0cc0"

"""End-to-end acceptance gate.

Each test checks one acceptance criterion against the streaming-platform
demo, the synthetic benchmarks, or randomized instances, and prints a single
pass line (run with -s to see them).
"""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontomed.bench import run_growth_bench, run_walk_bench, synthetic_release_stream
from ontomed.errors import (
    CyclicPattern,
    MissingIdAttribute,
    NoIdentifier,
    NoJoinPath,
    NoWrapperForConcept,
)
from ontomed.executor import eval_ucq
from ontomed.queries import parse_omq, render_omq, well_formed_rewrite
from ontomed.quadstore import Dataset, Quad
from ontomed.releases import apply_release
from ontomed.rewriter import RewriteTrace, rewrite
from ontomed.sources import Ucq, Walk
from ontomed.terms import (
    G_HAS_FEATURE,
    GLOBAL_GRAPH,
    MAPPINGS_GRAPH,
    OWL_SAME_AS,
    RDF_TYPE,
    S_ATTRIBUTE,
    SOURCE_GRAPH,
    Iri,
)
from ontomed.vocab import validate_ontology

from conftest import (
    CONCEPT_PROJECTION_QUERY,
    MONITOR_QUERY,
    iri,
    make_global_dataset,
    make_releases,
)
from generators import make_instance
from oracles import brute_force_binding, brute_force_walk_keys

JOIN_13 = frozenset({(("W1", "VoDmonitorId"), ("W3", "MonitorId"))})
JOIN_34 = frozenset({(("W3", "MonitorId"), ("W4", "VoDmonitorId"))})


def test_criterion_1_single_walk_and_execution(pre_evolution_ds, demo_bindings):
    start = time.perf_counter()
    ucq = rewrite(MONITOR_QUERY, pre_evolution_ds)
    result = eval_ucq(ucq, demo_bindings)
    elapsed = time.perf_counter() - start
    assert len(ucq.walks) == 1
    assert ucq.walks[0].key() == (frozenset({"W1", "W3"}), JOIN_13)
    assert sorted(result.rows) == [("1", "0.75"), ("1", "0.90"), ("2", "0.1")]
    assert elapsed < 1.0
    print("criterion 1: pass — one conjunct (W1 join W3), three result rows, "
          f"{elapsed:.3f}s")


def test_criterion_2_release_extends_union_without_query_change(
        pre_evolution_ds, releases, demo_bindings):
    before = rewrite(MONITOR_QUERY, pre_evolution_ds)
    assert len(before.walks) == 1
    ds, stats = apply_release(pre_evolution_ds, releases["W4"])
    after = rewrite(MONITOR_QUERY, ds)
    assert {w.key() for w in after.walks} == {
        (frozenset({"W1", "W3"}), JOIN_13),
        (frozenset({"W3", "W4"}), JOIN_34),
    }
    # The shared identifier attribute is reused: typed once, one genuinely
    # new sameAs link, while both of the new wrapper's links are present.
    attr = releases["W4"].wrapper.attr_iri("VoDmonitorId")
    typed = [q for q in ds.match(SOURCE_GRAPH, subject=attr, predicate=RDF_TYPE)
             if q.object == S_ATTRIBUTE]
    assert len(typed) == 1
    assert stats.same_as == 1
    for a, f in releases["W4"].feature_map.items():
        assert ds.match(MAPPINGS_GRAPH, subject=releases["W4"].wrapper.attr_iri(a),
                        predicate=OWL_SAME_AS, object=f)
    rows = eval_ucq(after, demo_bindings).rows
    assert set(rows) >= {("1", "0.75"), ("2", "0.1")}
    print("criterion 2: pass — same query text now compiles to a two-conjunct "
          "union after the release; shared attribute reused")


def test_criterion_3_trace_matches_worked_phases(pre_evolution_ds):
    trace = RewriteTrace()
    rewrite(MONITOR_QUERY, pre_evolution_ds, trace)
    assert trace.concepts == [
        iri("sc:SoftwareApplication"), iri("sup:Monitor"), iri("sup:InfoMonitor")]
    assert trace.added_ids == [iri("sup:monitorId")]
    assert trace.partial_walks[iri("sc:SoftwareApplication")] == [
        Walk.single("W3", ["TargetApp"])]
    assert trace.partial_walks[iri("sup:Monitor")] == [
        Walk.single("W1", ["VoDmonitorId"]), Walk.single("W3", ["MonitorId"])]
    assert trace.partial_walks[iri("sup:InfoMonitor")] == [
        Walk.single("W1", ["lagRatio"])]
    assert sorted((w.steps, frozenset(w.joins)) for w in trace.phase3_walks) == sorted([
        ((("W1", ("VoDmonitorId", "lagRatio")), ("W3", ("TargetApp",))), JOIN_13),
        ((("W1", ("lagRatio",)), ("W3", ("MonitorId", "TargetApp"))), JOIN_13),
    ])
    print("criterion 3: pass — explain trace reproduces the worked "
          "per-phase outputs")


def test_criterion_4_projection_repair_and_failure_modes(pre_evolution_ds):
    q = parse_omq(CONCEPT_PROJECTION_QUERY, pre_evolution_ds)
    wf = well_formed_rewrite(pre_evolution_ds, q)
    assert wf.pi == (
        iri("sup:applicationId"), iri("sup:monitorId"), iri("sup:feedbackGatheringId"))
    assert wf.phi == q.phi | {
        (iri("sc:SoftwareApplication"), G_HAS_FEATURE, iri("sup:applicationId")),
        (iri("sup:Monitor"), G_HAS_FEATURE, iri("sup:monitorId")),
        (iri("sup:FeedbackGathering"), G_HAS_FEATURE, iri("sup:feedbackGatheringId")),
    }
    # A cyclic pattern and a concept without identifier raise distinct errors.
    cyclic_ds = pre_evolution_ds.copy()
    cyclic_ds._add(Quad(GLOBAL_GRAPH, iri("sup:Monitor"), iri("sup:feeds"),
                        iri("sc:SoftwareApplication")))
    cyclic = """
    SELECT ?x FROM G: WHERE {
      VALUES (?x) { (sup:applicationId) }
      sc:SoftwareApplication G:hasFeature sup:applicationId .
      sc:SoftwareApplication sup:hasMonitor sup:Monitor .
      sup:Monitor sup:feeds sc:SoftwareApplication
    }
    """
    with pytest.raises(CyclicPattern):
        rewrite(cyclic, cyclic_ds)
    no_id = """
    SELECT ?x FROM G: WHERE {
      VALUES (?x) { (sup:InfoMonitor) }
      sup:Monitor sup:generatesQoS sup:InfoMonitor
    }
    """
    with pytest.raises(NoIdentifier):
        rewrite(no_id, pre_evolution_ds)
    print("criterion 4: pass — concept projections repaired to identifier "
          "features; cycles and missing identifiers rejected distinctly")


def test_criterion_5_worst_case_walk_counts():
    start = time.perf_counter()
    records = run_walk_bench(5, 10)
    elapsed = time.perf_counter() - start
    for rec in records:
        assert rec.walk_count == rec.wrappers ** 5
    assert elapsed < 300
    # Rewriting time tracks the exponential walk count.
    assert records[-1].elapsed > records[2].elapsed > records[0].elapsed
    print("criterion 5: pass — five-concept chain yields W^5 walks for "
          f"W=1..10 (up to {records[-1].walk_count}), sweep in {elapsed:.1f}s")


def test_criterion_6_bounded_linear_growth():
    ds, releases = synthetic_release_stream()
    global_before = len(ds.match(GLOBAL_GRAPH))
    _, records = run_growth_bench(ds, releases)
    for rec in records:
        assert rec.added <= rec.bound
    assert records[-1].cumulative == sum(r.added for r in records)
    assert records[-1].cumulative <= sum(r.bound for r in records)
    assert all(r.global_quads == global_before for r in records)
    print("criterion 6: pass — 15-release stream grows within the per-release "
          "bound, cumulatively linear, global graph untouched")


def test_criterion_7_randomized_oracle_equivalence():
    rng = random.Random(7_2024)
    checked = 0
    for _ in range(200):
        ds, query = make_instance(rng)
        wf = well_formed_rewrite(ds, parse_omq(query, ds))
        expected = brute_force_walk_keys(ds, wf.phi)
        try:
            ucq = rewrite(query, ds)
        except (NoWrapperForConcept, NoJoinPath, MissingIdAttribute):
            ucq = Ucq(walks=[], output_features=wf.pi, bindings=[])
        assert {w.key() for w in ucq.walks} == expected
        for w, binding in zip(ucq.walks, ucq.bindings):
            assert binding == brute_force_binding(ds, w, ucq.output_features)
        checked += 1
    assert checked == 200
    print("criterion 7: pass — rewriter agrees with brute-force enumeration "
          "on 200/200 randomized instances")


def test_criterion_8_validation_soundness():
    rng = random.Random(8_2024)
    for _ in range(50):
        ds = make_global_dataset()
        releases = make_releases()
        order = rng.sample(list(releases), k=rng.randint(1, 4))
        for name in order:
            ds, _ = apply_release(ds, releases[name])
        assert validate_ontology(ds).ok

    base = make_global_dataset()
    releases = make_releases()
    loaded = base
    for name in ("W1", "W2", "W3"):
        loaded, _ = apply_release(loaded, releases[name])
    w1 = releases["W1"].wrapper
    ex = Iri("http://example.org/")
    from ontomed.terms import M_MAPPING, S_HAS_ATTRIBUTE, S_HAS_WRAPPER
    from ontomed.terms import mapping_graph_iri

    injections = {
        "V1": (loaded, Quad(GLOBAL_GRAPH, ex, G_HAS_FEATURE, iri("sup:lagRatio"))),
        "V2": (loaded, Quad(GLOBAL_GRAPH, iri("sup:Monitor"), G_HAS_FEATURE,
                            iri("sup:lagRatio"))),
        "V3": (loaded, Quad(SOURCE_GRAPH, ex, S_HAS_WRAPPER, ex)),
        "V4": (loaded, Quad(MAPPINGS_GRAPH, w1.attr_iri("lagRatio"), OWL_SAME_AS,
                            iri("sup:description"))),
        "V5": (loaded, Quad(mapping_graph_iri("W1"), ex, ex, ex)),
        "V6": (loaded, Quad(SOURCE_GRAPH, w1.iri, S_HAS_ATTRIBUTE,
                            Iri("http://example.org/rogue"))),
    }
    for rule, (ds, quad) in injections.items():
        bad = ds.copy()
        bad._add(quad)
        if rule == "V6":
            bad._add(Quad(SOURCE_GRAPH, Iri("http://example.org/rogue"),
                          RDF_TYPE, S_ATTRIBUTE))
        assert rule in validate_ontology(bad).rules(), rule
    print("criterion 8: pass — 50 randomized release sequences validate clean; "
          "every rule V1–V6 detects its injected violation")


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_criterion_9_round_trips(tmp_path_factory, seed):
    rng = random.Random(seed)
    ds, query = make_instance(rng)
    path = tmp_path_factory.mktemp("rt") / "snapshot.quads"
    ds.save(path)
    assert Dataset.load(path).quads() == ds.quads()
    parsed = parse_omq(query, ds)
    again = parse_omq(render_omq(parsed, ds), ds)
    assert (again.pi, again.phi) == (parsed.pi, parsed.phi)


def test_criterion_9_report():
    print("criterion 9: pass — dataset save/load and query parse/render/parse "
          "are identities on randomized inputs")

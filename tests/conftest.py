"""Shared fixtures: a streaming-platform demo ontology with four wrappers."""

from __future__ import annotations

import pytest

from ontomed.executor import WrapperBinding
from ontomed.quadstore import Dataset, Quad
from ontomed.releases import Release, apply_release
from ontomed.sources import WrapperSchema
from ontomed.terms import (
    G_CONCEPT,
    G_FEATURE,
    G_HAS_FEATURE,
    GLOBAL_GRAPH,
    RDF_TYPE,
    RDFS_SUBCLASS_OF,
    SC_IDENTIFIER,
    Iri,
)

SUP = "http://www.supersede.eu/ontology/"
SC = "http://schema.org/"


def iri(qname: str) -> Iri:
    ns, local = qname.split(":")
    return Iri({"sup": SUP, "sc": SC}[ns] + local)


CONCEPTS = [
    "sc:SoftwareApplication", "sup:Monitor", "sup:FeedbackGathering",
    "sup:InfoMonitor", "sup:UserFeedback",
]
FEATURES = {
    "sup:applicationId": True,
    "sup:monitorId": True,
    "sup:feedbackGatheringId": True,
    "sup:lagRatio": False,
    "sup:description": False,
}
HAS_FEATURE = [
    ("sc:SoftwareApplication", "sup:applicationId"),
    ("sup:Monitor", "sup:monitorId"),
    ("sup:FeedbackGathering", "sup:feedbackGatheringId"),
    ("sup:InfoMonitor", "sup:lagRatio"),
    ("sup:UserFeedback", "sup:description"),
]
EDGES = [
    ("sc:SoftwareApplication", "sup:hasMonitor", "sup:Monitor"),
    ("sc:SoftwareApplication", "sup:hasFGTool", "sup:FeedbackGathering"),
    ("sup:Monitor", "sup:generatesQoS", "sup:InfoMonitor"),
    ("sup:FeedbackGathering", "sup:generatesFeedback", "sup:UserFeedback"),
]


def make_global_dataset() -> Dataset:
    ds = Dataset()
    ds.prefixes.register("sup", SUP)

    def g(s, p, o):
        ds._add(Quad(GLOBAL_GRAPH, s, p, o))

    for c in CONCEPTS:
        g(iri(c), RDF_TYPE, G_CONCEPT)
    for f, is_id in FEATURES.items():
        g(iri(f), RDF_TYPE, G_FEATURE)
        if is_id:
            g(iri(f), RDFS_SUBCLASS_OF, SC_IDENTIFIER)
    for c, f in HAS_FEATURE:
        g(iri(c), G_HAS_FEATURE, iri(f))
    for s, p, o in EDGES:
        g(iri(s), iri(p), iri(o))
    return ds


MONITOR_SUBGRAPH = frozenset({
    (iri("sup:Monitor"), iri("sup:generatesQoS"), iri("sup:InfoMonitor")),
    (iri("sup:Monitor"), G_HAS_FEATURE, iri("sup:monitorId")),
    (iri("sup:InfoMonitor"), G_HAS_FEATURE, iri("sup:lagRatio")),
})


def make_releases() -> dict[str, Release]:
    return {
        "W1": Release(
            WrapperSchema("W1", "D1", ("VoDmonitorId",), ("lagRatio",)),
            MONITOR_SUBGRAPH,
            {"VoDmonitorId": iri("sup:monitorId"), "lagRatio": iri("sup:lagRatio")},
        ),
        "W2": Release(
            WrapperSchema("W2", "D2", ("FGId",), ("tweet",)),
            frozenset({
                (iri("sup:FeedbackGathering"), iri("sup:generatesFeedback"), iri("sup:UserFeedback")),
                (iri("sup:FeedbackGathering"), G_HAS_FEATURE, iri("sup:feedbackGatheringId")),
                (iri("sup:UserFeedback"), G_HAS_FEATURE, iri("sup:description")),
            }),
            {"FGId": iri("sup:feedbackGatheringId"), "tweet": iri("sup:description")},
        ),
        "W3": Release(
            WrapperSchema("W3", "D3", ("TargetApp", "MonitorId", "FeedbackId"), ()),
            frozenset({
                (iri("sc:SoftwareApplication"), iri("sup:hasMonitor"), iri("sup:Monitor")),
                (iri("sc:SoftwareApplication"), iri("sup:hasFGTool"), iri("sup:FeedbackGathering")),
                (iri("sc:SoftwareApplication"), G_HAS_FEATURE, iri("sup:applicationId")),
                (iri("sup:Monitor"), G_HAS_FEATURE, iri("sup:monitorId")),
                (iri("sup:FeedbackGathering"), G_HAS_FEATURE, iri("sup:feedbackGatheringId")),
            }),
            {
                "TargetApp": iri("sup:applicationId"),
                "MonitorId": iri("sup:monitorId"),
                "FeedbackId": iri("sup:feedbackGatheringId"),
            },
        ),
        "W4": Release(
            WrapperSchema("W4", "D1", ("VoDmonitorId",), ("bufferingRatio",)),
            MONITOR_SUBGRAPH,
            {"VoDmonitorId": iri("sup:monitorId"), "bufferingRatio": iri("sup:lagRatio")},
        ),
    }


MONITOR_QUERY = """
SELECT ?x ?y
FROM G:
WHERE {
  VALUES (?x ?y) { (sup:applicationId sup:lagRatio) }
  sc:SoftwareApplication G:hasFeature sup:applicationId .
  sc:SoftwareApplication sup:hasMonitor sup:Monitor .
  sup:Monitor sup:generatesQoS sup:InfoMonitor .
  sup:InfoMonitor G:hasFeature sup:lagRatio
}
"""

CONCEPT_PROJECTION_QUERY = """
SELECT ?x ?y ?z
FROM G:
WHERE {
  VALUES (?x ?y ?z) { (sc:SoftwareApplication sup:Monitor sup:FeedbackGathering) }
  sc:SoftwareApplication sup:hasMonitor sup:Monitor .
  sc:SoftwareApplication sup:hasFGTool sup:FeedbackGathering
}
"""

W1_ROWS = [("12", "0.75"), ("12", "0.90"), ("18", "0.1")]
W3_ROWS = [("1", "12", "77"), ("2", "18", "45")]
W2_ROWS = [("77", "laggy again"), ("45", "nice app")]


@pytest.fixture
def global_ds() -> Dataset:
    return make_global_dataset()


@pytest.fixture
def releases() -> dict[str, Release]:
    return make_releases()


@pytest.fixture
def pre_evolution_ds(global_ds, releases) -> Dataset:
    ds = global_ds
    for name in ("W1", "W2", "W3"):
        ds, _ = apply_release(ds, releases[name])
    return ds


@pytest.fixture
def post_evolution_ds(pre_evolution_ds, releases) -> Dataset:
    ds, _ = apply_release(pre_evolution_ds, releases["W4"])
    return ds


def write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(r) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture
def demo_bindings(tmp_path, releases) -> dict[str, WrapperBinding]:
    write_csv(tmp_path / "w1.csv", ["VoDmonitorId", "lagRatio"], W1_ROWS)
    write_csv(tmp_path / "w2.csv", ["FGId", "tweet"], W2_ROWS)
    write_csv(tmp_path / "w3.csv", ["TargetApp", "MonitorId", "FeedbackId"], W3_ROWS)
    write_csv(tmp_path / "w4.csv", ["VoDmonitorId", "bufferingRatio"], W1_ROWS)
    return {
        name: WrapperBinding(releases[name].wrapper, tmp_path / f"{name.lower()}.csv")
        for name in ("W1", "W2", "W3", "W4")
    }

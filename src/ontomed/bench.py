"""Benchmarks: worst-case rewriting complexity and ontology growth.

The walk benchmark synthesizes a chain of concepts where every concept is
served by W wrappers from pairwise-disjoint sources, the topology that forces
the rewriter to emit one walk per wrapper combination (W^C in total). The
growth benchmark replays a stream of releases and accounts added quads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .quadstore import Dataset, Quad
from .releases import Release, apply_release
from .rewriter import rewrite
from .sources import WrapperSchema
from .terms import (
    G_CONCEPT,
    G_FEATURE,
    G_HAS_FEATURE,
    GLOBAL_GRAPH,
    RDF_TYPE,
    RDFS_SUBCLASS_OF,
    S_DATA_SOURCE,
    SC_IDENTIFIER,
    SOURCE_GRAPH,
    Iri,
    source_iri,
)

BENCH_NS = "http://example.org/bench/"


def _concept(i: int) -> Iri:
    return Iri(f"{BENCH_NS}C{i}")


def _feature(name: str) -> Iri:
    return Iri(f"{BENCH_NS}{name}")


def _edge(i: int) -> Iri:
    return Iri(f"{BENCH_NS}edge{i}")


def build_chain_global(concepts: int) -> Dataset:
    """Global graph for the chain topology: C1 -> C2 -> ... -> Cn, each
    concept carrying one identifier and one metric feature."""
    ds = Dataset()
    ds.prefixes.register("bench", BENCH_NS)

    def g(s: Iri, p: Iri, o: Iri) -> None:
        ds._add(Quad(GLOBAL_GRAPH, s, p, o))

    for i in range(1, concepts + 1):
        c = _concept(i)
        ident = _feature(f"id{i}")
        metric = _feature(f"metric{i}")
        g(c, RDF_TYPE, G_CONCEPT)
        g(ident, RDF_TYPE, G_FEATURE)
        g(ident, RDFS_SUBCLASS_OF, SC_IDENTIFIER)
        g(metric, RDF_TYPE, G_FEATURE)
        g(c, G_HAS_FEATURE, ident)
        g(c, G_HAS_FEATURE, metric)
        if i > 1:
            g(_concept(i - 1), _edge(i), c)
    return ds


def chain_release(i: int, j: int) -> Release:
    """Release of the j-th wrapper serving concept Ci, on its own source.

    Wrappers for i > 1 also carry the previous concept's identifier so the
    chain edge can be joined on it.
    """
    c = _concept(i)
    attrs_id = [f"id{i}"]
    subgraph = {
        (c, G_HAS_FEATURE, _feature(f"id{i}")),
        (c, G_HAS_FEATURE, _feature(f"metric{i}")),
    }
    feature_map = {
        f"id{i}": _feature(f"id{i}"),
        f"metric{i}": _feature(f"metric{i}"),
    }
    if i > 1:
        attrs_id.append(f"id{i - 1}")
        subgraph.add((_concept(i - 1), _edge(i), c))
        subgraph.add((_concept(i - 1), G_HAS_FEATURE, _feature(f"id{i - 1}")))
        feature_map[f"id{i - 1}"] = _feature(f"id{i - 1}")
    wrapper = WrapperSchema(
        name=f"w_{i}_{j}",
        source=f"src_{i}_{j}",
        id_attrs=tuple(sorted(attrs_id)),
        non_id_attrs=(f"metric{i}",),
    )
    return Release(wrapper=wrapper, subgraph=frozenset(subgraph), feature_map=feature_map)


def build_chain_instance(concepts: int, wrappers: int) -> Dataset:
    ds = build_chain_global(concepts)
    for i in range(1, concepts + 1):
        for j in range(1, wrappers + 1):
            ds, _ = apply_release(ds, chain_release(i, j))
    return ds


def chain_query(concepts: int) -> str:
    variables = [f"?v{i}" for i in range(1, concepts + 1)]
    values = " ".join(f"bench:metric{i}" for i in range(1, concepts + 1))
    triples = [f"bench:C{i} <{G_HAS_FEATURE}> bench:metric{i}" for i in range(1, concepts + 1)]
    triples += [f"bench:C{i - 1} bench:edge{i} bench:C{i}" for i in range(2, concepts + 1)]
    return (
        "SELECT " + " ".join(variables) + "\n"
        f"FROM <{GLOBAL_GRAPH}>\n"
        "WHERE {\n"
        "  VALUES (" + " ".join(variables) + ") { (" + values + ") }\n"
        + " .\n".join("  " + t for t in triples) + "\n"
        "}\n"
    )


@dataclass
class WalkBenchRecord:
    wrappers: int
    walk_count: int
    elapsed: float


def run_walk_bench(concepts: int, max_wrappers: int) -> list[WalkBenchRecord]:
    """Sweep W from 1 to max_wrappers over the chain topology."""
    records = []
    query = chain_query(concepts)
    for w in range(1, max_wrappers + 1):
        ds = build_chain_instance(concepts, w)
        start = time.perf_counter()
        ucq = rewrite(query, ds)
        elapsed = time.perf_counter() - start
        records.append(WalkBenchRecord(wrappers=w, walk_count=len(ucq.walks), elapsed=elapsed))
    return records


# --- growth -----------------------------------------------------------------

@dataclass
class GrowthRecord:
    label: str
    added: int
    bound: int
    cumulative: int
    global_quads: int


def release_bound(r: Release, ds: Dataset) -> int:
    """Worst-case quads one release can add to ``ds``: one more when it
    registers a new source."""
    new_source = not ds.match(SOURCE_GRAPH, subject=source_iri(r.wrapper.source),
                              predicate=RDF_TYPE, object=S_DATA_SOURCE)
    return 3 + 2 * len(r.wrapper.attrs) + len(r.subgraph) + len(r.feature_map) + new_source


def run_growth_bench(ds: Dataset, releases: list[tuple[str, Release]]) -> tuple[Dataset, list[GrowthRecord]]:
    """Apply releases in order, recording per-release and cumulative growth."""
    records = []
    cumulative = 0
    for label, r in releases:
        bound = release_bound(r, ds)
        ds, stats = apply_release(ds, r)
        cumulative += stats.total
        records.append(GrowthRecord(
            label=label,
            added=stats.total,
            bound=bound,
            cumulative=cumulative,
            global_quads=len(ds.match(GLOBAL_GRAPH)),
        ))
    return ds, records


def synthetic_release_stream() -> tuple[Dataset, list[tuple[str, Release]]]:
    """One major release followed by fourteen minor ones over a single source.

    Minor releases mix attribute additions, renames (a fresh attribute mapped
    to the feature the old one served), and deletions (the attribute simply
    absent from the new wrapper version).
    """
    ds = Dataset()
    ds.prefixes.register("bench", BENCH_NS)
    svc = Iri(BENCH_NS + "Service")
    sid = _feature("serviceId")

    def g(s: Iri, p: Iri, o: Iri) -> None:
        ds._add(Quad(GLOBAL_GRAPH, s, p, o))

    g(svc, RDF_TYPE, G_CONCEPT)
    g(sid, RDF_TYPE, G_FEATURE)
    g(sid, RDFS_SUBCLASS_OF, SC_IDENTIFIER)
    g(svc, G_HAS_FEATURE, sid)
    feature_names = [f"f{k}" for k in range(1, 8)]
    for name in feature_names:
        f = _feature(name)
        g(f, RDF_TYPE, G_FEATURE)
        g(svc, G_HAS_FEATURE, f)

    source = "stream"

    def make(version: int, non_id: list[str], fmap: dict[str, str]) -> Release:
        subgraph = {(svc, G_HAS_FEATURE, sid)}
        feature_map = {"sid": sid}
        for attr, feat in fmap.items():
            subgraph.add((svc, G_HAS_FEATURE, _feature(feat)))
            feature_map[attr] = _feature(feat)
        wrapper = WrapperSchema(
            name=f"v{version}",
            source=source,
            id_attrs=("sid",),
            non_id_attrs=tuple(sorted(non_id)),
        )
        return Release(wrapper=wrapper, subgraph=frozenset(subgraph), feature_map=feature_map)

    releases: list[tuple[str, Release]] = []
    # Major release: the initial schema.
    attrs = {"a1": "f1", "a2": "f2", "a3": "f3"}
    releases.append(("major v1", make(1, list(attrs), dict(attrs))))
    plan = [
        ("add", ("a4", "f4")), ("add", ("a5", "f5")), ("rename", ("a1", "b1")),
        ("delete", "a2"), ("add", ("a6", "f6")), ("rename", ("a3", "b3")),
        ("delete", "a5"), ("add", ("a2", "f2")), ("rename", ("a4", "b4")),
        ("add", ("a7", "f7")), ("delete", "a6"), ("rename", ("b1", "c1")),
        ("add", ("a5", "f5")), ("delete", "a7"),
    ]
    for k, (kind, arg) in enumerate(plan, start=2):
        if kind == "add":
            attr, feat = arg
            attrs[attr] = feat
        elif kind == "rename":
            old, new = arg
            attrs[new] = attrs.pop(old)
        else:
            attrs.pop(arg)
        releases.append((f"minor v{k} ({kind})", make(k, list(attrs), dict(attrs))))
    return ds, releases

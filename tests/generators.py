"""Test inputs: randomized small integration instances for oracle-equivalence
checks, a synthetic release stream, and writers for queries and release
descriptors.

Instances are chains of concepts where every wrapper maps a contiguous range
of complete concepts (all their features, one identifier each, plus the edges
inside the range). This keeps the per-concept pruning of the rewriter in
agreement with plain triple-containment coverage.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from ontomed.bench import BENCH_NS
from ontomed.quadstore import Dataset, Quad
from ontomed.queries import OmqQuery
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

NS = "http://example.org/rand/"


def _iri(name: str) -> Iri:
    return Iri(NS + name)


def make_instance(rng: random.Random):
    """Build a random chain instance; returns (dataset, query text)."""
    concepts = rng.randint(1, 3)
    has_metric = [rng.random() < 0.8 for _ in range(concepts)]

    ds = Dataset()
    ds.prefixes.register("r", NS)

    def g(s, p, o):
        ds._add(Quad(GLOBAL_GRAPH, s, p, o))

    for i in range(1, concepts + 1):
        c = _iri(f"C{i}")
        g(c, RDF_TYPE, G_CONCEPT)
        ident = _iri(f"id{i}")
        g(ident, RDF_TYPE, G_FEATURE)
        g(ident, RDFS_SUBCLASS_OF, SC_IDENTIFIER)
        g(c, G_HAS_FEATURE, ident)
        if has_metric[i - 1]:
            metric = _iri(f"m{i}")
            g(metric, RDF_TYPE, G_FEATURE)
            g(c, G_HAS_FEATURE, metric)
        if i > 1:
            g(_iri(f"C{i - 1}"), _iri(f"e{i}"), c)

    n_wrappers = rng.randint(1, 5)
    n_sources = max(1, n_wrappers - rng.randint(0, 1))
    for k in range(n_wrappers):
        a = rng.randint(1, concepts)
        b = rng.randint(a, concepts)
        subgraph = set()
        id_attrs = []
        non_id_attrs = []
        feature_map = {}
        for i in range(a, b + 1):
            c = _iri(f"C{i}")
            subgraph.add((c, G_HAS_FEATURE, _iri(f"id{i}")))
            id_attrs.append(f"id{i}")
            feature_map[f"id{i}"] = _iri(f"id{i}")
            if has_metric[i - 1]:
                subgraph.add((c, G_HAS_FEATURE, _iri(f"m{i}")))
                non_id_attrs.append(f"m{i}")
                feature_map[f"m{i}"] = _iri(f"m{i}")
            if i > a:
                subgraph.add((_iri(f"C{i - 1}"), _iri(f"e{i}"), c))
        wrapper = WrapperSchema(
            name=f"w{k}",
            source=f"s{rng.randrange(n_sources)}",
            id_attrs=tuple(id_attrs),
            non_id_attrs=tuple(non_id_attrs),
        )
        ds, _ = apply_release(ds, Release(wrapper, frozenset(subgraph), feature_map))

    projected = [
        (f"m{i}", i) for i in range(1, concepts + 1)
        if has_metric[i - 1] and rng.random() < 0.7
    ]
    if not projected:
        projected = [("id1", 1)]
    variables = [f"?v{i}" for i in range(len(projected))]
    triples = [f"r:C{i - 1} r:e{i} r:C{i}" for i in range(2, concepts + 1)]
    triples += [f"r:C{i} <{G_HAS_FEATURE}> r:{p}" for p, i in projected]
    query = (
        "SELECT " + " ".join(variables) + "\nFROM G:\nWHERE {\n"
        "  VALUES (" + " ".join(variables) + ") { ("
        + " ".join(f"r:{p}" for p, _ in projected) + ") }\n"
        + " .\n".join("  " + t for t in triples) + "\n}"
    )
    return ds, query


def make_wide_instance(rng: random.Random):
    """A wider random chain instance than ``make_instance``: 4 concepts, 3 to
    8 wrappers over fewer sources, each edge most often mapped by a wrapper
    spanning its 2 concepts, and the other wrappers spanning 1 or 2. A
    spanning wrapper may lack the attribute of one of its features, and so
    map an edge without answering one of its concepts. Returns (dataset,
    query text)."""
    concepts = 4
    has_metric = [rng.random() < 0.8 for _ in range(concepts)]
    # Only a spanning wrapper maps an edge.
    ranges = [(i, i + 1) for i in range(1, concepts) if rng.random() < 0.85]
    for _ in range(rng.randint(max(1, 3 - len(ranges)), 8 - len(ranges))):
        a = rng.randint(1, concepts)
        ranges.append((a, min(concepts, a + (rng.random() < 0.5))))
    rng.shuffle(ranges)
    n_sources = rng.randint(len(ranges) // 2 + 1, len(ranges) - 1)
    wrappers = [(a, b, f"s{rng.randrange(n_sources)}",
                 rng.choice((f"id{a}", f"id{b}", f"m{a}", f"m{b}"))
                 if b > a and rng.random() < 0.3 else None)
                for a, b in ranges]
    projected = [(f"m{i}", i) for i in range(1, concepts + 1)
                 if has_metric[i - 1] and rng.random() < 0.7] or [("id1", 1)]
    return chain_with_wrappers(has_metric, wrappers, projected)


def chain_with_wrappers(has_metric: list[bool], wrappers, projected):
    """A chain C1 -> ... -> Cn, n = len(has_metric), each concept with an
    identifier and, where ``has_metric`` says so, a metric feature, and a
    query over the whole chain that projects ``projected`` ((feature name,
    concept number) pairs). ``wrappers`` holds (first concept, last concept,
    source, the one feature it has no attribute for or None) per wrapper,
    named w0, w1, ...; each maps its concepts' features and the edges
    between them. Returns (dataset, query text)."""
    concepts = len(has_metric)
    ds = Dataset()
    ds.prefixes.register("r", NS)
    for i in range(1, concepts + 1):
        c, ident = _iri(f"C{i}"), _iri(f"id{i}")
        quads = [(c, RDF_TYPE, G_CONCEPT), (ident, RDF_TYPE, G_FEATURE),
                 (ident, RDFS_SUBCLASS_OF, SC_IDENTIFIER), (c, G_HAS_FEATURE, ident)]
        if has_metric[i - 1]:
            quads += [(_iri(f"m{i}"), RDF_TYPE, G_FEATURE), (c, G_HAS_FEATURE, _iri(f"m{i}"))]
        if i > 1:
            quads.append((_iri(f"C{i - 1}"), _iri(f"e{i}"), c))
        for s, p, o in quads:
            ds._add(Quad(GLOBAL_GRAPH, s, p, o))

    for k, (a, b, source, unmapped) in enumerate(wrappers):
        subgraph, id_attrs, non_id_attrs, feature_map = set(), [], [], {}
        for i in range(a, b + 1):
            c = _iri(f"C{i}")
            subgraph.add((c, G_HAS_FEATURE, _iri(f"id{i}")))
            if f"id{i}" != unmapped:
                id_attrs.append(f"id{i}")
                feature_map[f"id{i}"] = _iri(f"id{i}")
            if has_metric[i - 1]:
                subgraph.add((c, G_HAS_FEATURE, _iri(f"m{i}")))
                if f"m{i}" != unmapped:
                    non_id_attrs.append(f"m{i}")
                    feature_map[f"m{i}"] = _iri(f"m{i}")
            if i > a:
                subgraph.add((_iri(f"C{i - 1}"), _iri(f"e{i}"), c))
        wrapper = WrapperSchema(f"w{k}", source, tuple(id_attrs), tuple(non_id_attrs))
        ds, _ = apply_release(ds, Release(wrapper, frozenset(subgraph), feature_map))

    variables = [f"?v{i}" for i in range(len(projected))]
    triples = [f"r:C{i - 1} r:e{i} r:C{i}" for i in range(2, concepts + 1)]
    triples += [f"r:C{i} <{G_HAS_FEATURE}> r:{p}" for p, i in projected]
    query = ("SELECT " + " ".join(variables) + "\nFROM G:\nWHERE {\n"
             "  VALUES (" + " ".join(variables) + ") { ("
             + " ".join(f"r:{p}" for p, _ in projected) + ") }\n"
             + " .\n".join("  " + t for t in triples) + "\n}")
    return ds, query


def render_omq(q: OmqQuery, ds: Dataset) -> str:
    """Serialize a query back into the accepted template shape."""
    compact = ds.prefixes.compact
    variables = [f"?v{i}" for i in range(1, len(q.pi) + 1)]
    lines = [
        "SELECT " + " ".join(variables),
        f"FROM <{GLOBAL_GRAPH}>",
        "WHERE {",
        "  VALUES (" + " ".join(variables) + ") { ("
        + " ".join(compact(e) for e in q.pi) + ") }",
    ]
    triples = sorted(q.phi)
    for i, (s, p, o) in enumerate(triples):
        dot = " ." if i < len(triples) - 1 else ""
        lines.append(f"  {compact(s)} {compact(p)} {compact(o)}{dot}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def save_release(r: Release, path: str | Path, ds: Dataset) -> None:
    """Write a release descriptor that ``load_release`` reads back."""
    compact = ds.prefixes.compact
    doc = {
        "wrapper": {
            "name": r.wrapper.name,
            "source": r.wrapper.source,
            "id_attributes": list(r.wrapper.id_attrs),
            "non_id_attributes": list(r.wrapper.non_id_attrs),
            **({"data_file": r.data_file} if r.data_file else {}),
        },
        "subgraph": sorted([compact(s), compact(p), compact(o)] for s, p, o in r.subgraph),
        "feature_map": {a: compact(f) for a, f in sorted(r.feature_map.items())},
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def synthetic_release_stream() -> tuple[Dataset, list[tuple[str, Release]]]:
    """One major release followed by fourteen minor ones over a single source.

    Minor releases mix attribute additions, renames (a fresh attribute mapped
    to the feature the old one served), and deletions (the attribute simply
    absent from the new wrapper version).
    """
    ds = Dataset()
    ds.prefixes.register("bench", BENCH_NS)
    svc = Iri(BENCH_NS + "Service")
    sid = Iri(BENCH_NS + "serviceId")

    def feature(name: str) -> Iri:
        return Iri(BENCH_NS + name)

    def g(s: Iri, p: Iri, o: Iri) -> None:
        ds._add(Quad(GLOBAL_GRAPH, s, p, o))

    g(svc, RDF_TYPE, G_CONCEPT)
    g(sid, RDF_TYPE, G_FEATURE)
    g(sid, RDFS_SUBCLASS_OF, SC_IDENTIFIER)
    g(svc, G_HAS_FEATURE, sid)
    feature_names = [f"f{k}" for k in range(1, 8)]
    for name in feature_names:
        f = feature(name)
        g(f, RDF_TYPE, G_FEATURE)
        g(svc, G_HAS_FEATURE, f)

    source = "stream"

    def make(version: int, non_id: list[str], fmap: dict[str, str]) -> Release:
        subgraph = {(svc, G_HAS_FEATURE, sid)}
        feature_map = {"sid": sid}
        for attr, feat in fmap.items():
            subgraph.add((svc, G_HAS_FEATURE, feature(feat)))
            feature_map[attr] = feature(feat)
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

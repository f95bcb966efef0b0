"""Randomized small integration instances for oracle-equivalence checks.

Instances are chains of concepts where every wrapper maps a contiguous range
of complete concepts (all their features, one identifier each, plus the edges
inside the range). This keeps the per-concept pruning of the rewriter in
agreement with plain triple-containment coverage.
"""

from __future__ import annotations

import random

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

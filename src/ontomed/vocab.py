"""Structural validation of a dataset against the metadata vocabulary.

Nine rules cover the legal instantiation of the global, source, and mapping
graphs, and a tenth the wrapper names a workspace binds to data files.
Violations are data, not faults: validation always returns a report, its
violations sorted by rule, subject and detail.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from .quadstore import Dataset
from .terms import (
    G_CONCEPT,
    G_FEATURE,
    G_HAS_FEATURE,
    GLOBAL_GRAPH,
    M_MAPPING,
    MAPPINGS_GRAPH,
    OWL_SAME_AS,
    RDF_TYPE,
    S_ATTRIBUTE,
    S_DATA_SOURCE,
    S_HAS_ATTRIBUTE,
    S_HAS_WRAPPER,
    S_WRAPPER,
    SOURCE_GRAPH,
    Iri,
    source_iri,
    wrapper_iri,
)


@dataclass(frozen=True, order=True)
class Violation:
    rule: str
    subject: Iri
    detail: str

    def render(self) -> str:
        return f"RULE{self.rule} <{self.subject}> {self.detail}"


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def rules(self) -> set[str]:
        return {v.rule for v in self.violations}

    def render(self) -> str:
        if self.ok:
            return "ok: 0 violations"
        return "\n".join(v.render() for v in self.violations)


def validate_ontology(ds: Dataset, bound: Iterable[str] = ()) -> ValidationReport:
    """Check ``ds`` against the rules, and each wrapper name in ``bound``,
    the names a workspace binds to data files, against rule V10."""
    report = ValidationReport()
    global_types = ds.links(GLOBAL_GRAPH, RDF_TYPE, inverse=True)
    source_types = ds.links(SOURCE_GRAPH, RDF_TYPE, inverse=True)
    concepts = set(global_types.get(G_CONCEPT, ()))
    features = set(global_types.get(G_FEATURE, ()))
    sources = set(source_types.get(S_DATA_SOURCE, ()))
    wrappers = set(source_types.get(S_WRAPPER, ()))
    attributes = set(source_types.get(S_ATTRIBUTE, ()))

    # V1: hasFeature edges link a concept to a feature.
    feature_owners = ds.links(GLOBAL_GRAPH, G_HAS_FEATURE, inverse=True)
    for f, owners in feature_owners.items():
        for c in owners:
            if c not in concepts:
                report.violations.append(Violation("V1", c, "hasFeature subject is not a Concept"))
            if f not in features:
                report.violations.append(Violation("V1", f, "hasFeature object is not a Feature"))

    # V2: a feature belongs to at most one concept.
    for f in features:
        owners = feature_owners.get(f, ())
        if len(owners) > 1:
            names = ", ".join(sorted(owners))
            report.violations.append(Violation("V2", f, f"feature owned by {len(owners)} concepts: {names}"))

    # V3: hasWrapper links DataSource to Wrapper, and every wrapper has one
    # owner (the catalog reads only the least of several); hasAttribute
    # links Wrapper to Attribute, and every wrapper has at least one
    # attribute.
    wrapper_source = ds.links(SOURCE_GRAPH, S_HAS_WRAPPER, inverse=True)
    for w, srcs in wrapper_source.items():
        for src in srcs:
            if src not in sources:
                report.violations.append(Violation("V3", src, "hasWrapper subject is not a DataSource"))
            if w not in wrappers:
                report.violations.append(Violation("V3", w, "hasWrapper object is not a Wrapper"))
        if len(srcs) > 1:
            report.violations.append(Violation("V3", w, f"Wrapper has {len(srcs)} hasWrapper links"))
    for w in wrappers.difference(wrapper_source):
        report.violations.append(Violation("V3", w, "Wrapper has no hasWrapper link"))
    has_attribute = ds.links(SOURCE_GRAPH, S_HAS_ATTRIBUTE)
    for w, attrs in has_attribute.items():
        for a in attrs:
            if w not in wrappers:
                report.violations.append(Violation("V3", w, "hasAttribute subject is not a Wrapper"))
            if a not in attributes:
                report.violations.append(Violation("V3", a, "hasAttribute object is not an Attribute"))
    for w in wrappers.difference(has_attribute):
        report.violations.append(Violation("V3", w, "Wrapper has no hasAttribute link"))

    # V4: each attribute maps to at most one feature.
    same_as = ds.links(MAPPINGS_GRAPH, OWL_SAME_AS)
    for a in attributes:
        targets = same_as.get(a, ())
        if len(targets) > 1:
            report.violations.append(Violation("V4", a, f"attribute mapped to {len(targets)} features"))
        for t in targets:
            if t not in features:
                report.violations.append(Violation("V4", a, f"sameAs target <{t}> is not a Feature"))

    # V5: every mapping named graph is a subset of the global graph's triples.
    global_triples = ds.graph_triples(GLOBAL_GRAPH)
    mappings = ds.links(MAPPINGS_GRAPH, M_MAPPING)
    for graphs in mappings.values():
        for g in graphs:
            for s, p, o in ds.graph_triples(g) - global_triples:
                report.violations.append(
                    Violation("V5", g, f"named graph triple <{s}> <{p}> <{o}> absent from global graph")
                )

    # V6: attribute identifiers carry the prefix of their owning source.
    for w, attrs in has_attribute.items():
        for src in wrapper_source.get(w, ()):
            for a in attrs:
                if not a.startswith(src + "/"):
                    report.violations.append(
                        Violation("V6", a, f"attribute not prefixed by its source <{src}>")
                    )

    # V7: a source's name, its IRI after S:DataSource/, holds no "/", since
    # an attribute's IRI is its source's IRI, "/" and its name.
    source_ns = source_iri("")
    for src in sources:
        if src.startswith(source_ns) and "/" in src[len(source_ns):]:
            report.violations.append(
                Violation("V7", src, f"source name {src[len(source_ns):]!r} contains '/'"))

    # V8: each wrapper has exactly one M:mapping link. The catalog skips a
    # wrapper that has none and reads only the least of several. A wrapper
    # that lacks an owner or attributes is left to V3, so that a wrapper
    # written in part is reported once.
    for w in wrappers.intersection(wrapper_source, has_attribute):
        graphs = mappings.get(w, ())
        if not graphs:
            report.violations.append(Violation("V8", w, "Wrapper has no M:mapping link"))
        elif len(graphs) > 1:
            report.violations.append(Violation("V8", w, f"Wrapper has {len(graphs)} M:mapping links"))

    # V9: wrapper and data source IRIs lie under S:Wrapper/ and
    # S:DataSource/, since the catalog names a wrapper and its source by the
    # rest of the IRI and leaves out a wrapper whose IRI, or whose owner's,
    # lies elsewhere.
    for kind, namespace, typed in (("Wrapper", wrapper_iri(""), wrappers),
                                   ("DataSource", source_ns, sources)):
        for t in typed:
            if not t.startswith(namespace):
                report.violations.append(Violation("V9", t, f"{kind} IRI is not under <{namespace}>"))

    # V10: a bound name names a wrapper, since a full query reads the data
    # file of every bound name and fails on one the catalog does not hold.
    for name in bound:
        if wrapper_iri(name) not in wrappers:
            report.violations.append(
                Violation("V10", wrapper_iri(name), "bound to a data file but not a Wrapper"))

    # The rules walk sets, whose order follows the hash seed.
    report.violations.sort()
    return report

"""Structural validation of a dataset against the metadata vocabulary.

Nine rules cover the legal instantiation of the global, source, and mapping
graphs, and a tenth the wrapper names a workspace binds to data files.
Violations are data, not faults: validation always returns a report, each
violation once, sorted by rule, subject and detail.

The report holds the notes of ``sources.registrations``, the one pass that
decides which wrappers the catalog reads: V3's owner and attribute counts,
V6, V8 and V9 on a wrapper. The rules here check the typed terms the
catalog may never read.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from .quadstore import Dataset
from .sources import registrations, source_note
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

    # V3: hasWrapper links DataSource to Wrapper, and hasAttribute links
    # Wrapper to Attribute.
    for w, srcs in ds.links(SOURCE_GRAPH, S_HAS_WRAPPER, inverse=True).items():
        for src in srcs:
            if src not in sources:
                report.violations.append(Violation("V3", src, "hasWrapper subject is not a DataSource"))
            if w not in wrappers:
                report.violations.append(Violation("V3", w, "hasWrapper object is not a Wrapper"))
    for w, attrs in ds.links(SOURCE_GRAPH, S_HAS_ATTRIBUTE).items():
        for a in attrs:
            if w not in wrappers:
                report.violations.append(Violation("V3", w, "hasAttribute subject is not a Wrapper"))
            if a not in attributes:
                report.violations.append(Violation("V3", a, "hasAttribute object is not an Attribute"))

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
    for graphs in ds.links(MAPPINGS_GRAPH, M_MAPPING).values():
        for g in graphs:
            for s, p, o in ds.graph_triples(g) - global_triples:
                report.violations.append(
                    Violation("V5", g, f"named graph triple <{s}> <{p}> <{o}> absent from global graph")
                )

    # V7 and V9 on every typed data source, one that owns no wrapper too.
    report.violations.extend(Violation(*note) for note in map(source_note, sources) if note)

    # V10: a bound name names a wrapper, since a full query reads the data
    # file of every bound name and fails on one the catalog does not hold.
    for name in bound:
        if wrapper_iri(name) not in wrappers:
            report.violations.append(
                Violation("V10", wrapper_iri(name), "bound to a data file but not a Wrapper"))

    report.violations.extend(Violation(*note) for note in registrations(ds)[1])
    # The rules walk sets, whose order follows the hash seed. A typed data
    # source that a wrapper reads may be noted twice, and each hasAttribute
    # link of an untyped wrapper repeats one V3 line.
    report.violations = sorted(set(report.violations))
    return report

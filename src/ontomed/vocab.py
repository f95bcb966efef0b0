"""Structural validation of a dataset against the metadata vocabulary.

Six rules cover the legal instantiation of the global, source, and mapping
graphs. Violations are data, not faults: validation always returns a report,
its violations sorted by rule, subject and detail.
"""

from __future__ import annotations

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


def _typed(ds: Dataset, graph: Iri, type_iri: Iri) -> set[Iri]:
    return {q.subject for q in ds.match(graph, predicate=RDF_TYPE, object=type_iri)}


def validate_ontology(ds: Dataset) -> ValidationReport:
    report = ValidationReport()
    concepts = _typed(ds, GLOBAL_GRAPH, G_CONCEPT)
    features = _typed(ds, GLOBAL_GRAPH, G_FEATURE)
    sources = _typed(ds, SOURCE_GRAPH, S_DATA_SOURCE)
    wrappers = _typed(ds, SOURCE_GRAPH, S_WRAPPER)
    attributes = _typed(ds, SOURCE_GRAPH, S_ATTRIBUTE)

    # V1: hasFeature edges link a concept to a feature.
    feature_owners: dict[Iri, set[Iri]] = {}
    for q in ds.match(GLOBAL_GRAPH, predicate=G_HAS_FEATURE):
        feature_owners.setdefault(q.object, set()).add(q.subject)
        if q.subject not in concepts:
            report.violations.append(Violation("V1", q.subject, "hasFeature subject is not a Concept"))
        if q.object not in features:
            report.violations.append(Violation("V1", q.object, "hasFeature object is not a Feature"))

    # V2: a feature belongs to at most one concept.
    for f in features:
        owners = feature_owners.get(f, set())
        if len(owners) > 1:
            names = ", ".join(sorted(owners))
            report.violations.append(Violation("V2", f, f"feature owned by {len(owners)} concepts: {names}"))

    # V3: hasWrapper links DataSource to Wrapper, and every wrapper has an
    # owner; hasAttribute links Wrapper to Attribute, and every wrapper has
    # at least one attribute.
    wrapper_source: dict[Iri, set[Iri]] = {}
    for q in ds.match(SOURCE_GRAPH, predicate=S_HAS_WRAPPER):
        wrapper_source.setdefault(q.object, set()).add(q.subject)
        if q.subject not in sources:
            report.violations.append(Violation("V3", q.subject, "hasWrapper subject is not a DataSource"))
        if q.object not in wrappers:
            report.violations.append(Violation("V3", q.object, "hasWrapper object is not a Wrapper"))
    for w in wrappers.difference(wrapper_source):
        report.violations.append(Violation("V3", w, "Wrapper has no hasWrapper link"))
    has_attribute = ds.match(SOURCE_GRAPH, predicate=S_HAS_ATTRIBUTE)
    for q in has_attribute:
        if q.subject not in wrappers:
            report.violations.append(Violation("V3", q.subject, "hasAttribute subject is not a Wrapper"))
        if q.object not in attributes:
            report.violations.append(Violation("V3", q.object, "hasAttribute object is not an Attribute"))
    for w in wrappers.difference(q.subject for q in has_attribute):
        report.violations.append(Violation("V3", w, "Wrapper has no hasAttribute link"))

    # V4: each attribute maps to at most one feature.
    same_as: dict[Iri, set[Iri]] = {}
    for q in ds.match(MAPPINGS_GRAPH, predicate=OWL_SAME_AS):
        same_as.setdefault(q.subject, set()).add(q.object)
    for a in attributes:
        targets = same_as.get(a, set())
        if len(targets) > 1:
            report.violations.append(Violation("V4", a, f"attribute mapped to {len(targets)} features"))
        for t in targets:
            if t not in features:
                report.violations.append(Violation("V4", a, f"sameAs target <{t}> is not a Feature"))

    # V5: every mapping named graph is a subset of the global graph's triples.
    global_triples = ds.graph_triples(GLOBAL_GRAPH)
    for q in ds.match(MAPPINGS_GRAPH, predicate=M_MAPPING):
        extras = ds.graph_triples(q.object) - global_triples
        for s, p, o in extras:
            report.violations.append(
                Violation("V5", q.object, f"named graph triple <{s}> <{p}> <{o}> absent from global graph")
            )

    # V6: attribute identifiers carry the prefix of their owning source.
    for q in has_attribute:
        for src in wrapper_source.get(q.subject, set()):
            if not q.object.startswith(src + "/"):
                report.violations.append(
                    Violation("V6", q.object, f"attribute not prefixed by its source <{src}>")
                )
    # The rules walk sets, whose order follows the hash seed.
    report.violations.sort()
    return report

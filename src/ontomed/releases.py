"""Release application: adapt the ontology to a new wrapper version.

A release bundles a wrapper schema, the named subgraph of the global graph the
wrapper populates, and the attribute-to-feature correspondence. Applying a
release only ever adds quads; the global graph itself is never touched.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import (
    DanglingFeatureMap,
    DuplicateWrapper,
    InvalidIri,
    InvalidRelease,
    InvalidWalk,
    SubgraphNotInGlobal,
    UnknownPrefix,
)
from .quadstore import Dataset, Quad, Triple
from .sources import WrapperSchema
from .terms import (
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
    mapping_graph_iri,
    source_iri,
)


@dataclass(frozen=True)
class Release:
    """A wrapper version: schema, its slice of the global graph, and F links."""

    wrapper: WrapperSchema
    subgraph: frozenset[Triple]
    feature_map: dict[str, Iri]
    data_file: str | None = None

    def __post_init__(self):
        attrs = set(self.wrapper.attrs)
        stray = set(self.feature_map) - attrs
        if stray:
            raise InvalidRelease(f"feature_map names attributes outside the wrapper: {sorted(stray)}")
        subgraph_features = {o for s, p, o in self.subgraph if p == G_HAS_FEATURE}
        dangling = {a: f for a, f in self.feature_map.items() if f not in subgraph_features}
        if dangling:
            names = ", ".join(f"{a}->{f}" for a, f in sorted(dangling.items()))
            raise DanglingFeatureMap(f"mapped features not in the release subgraph: {names}")


@dataclass
class GrowthStats:
    """Quads added per category by one release application."""

    source: int = 0
    wrapper: int = 0
    attribute_type: int = 0
    attribute_link: int = 0
    mapping: int = 0
    mapping_graph: int = 0
    same_as: int = 0

    @property
    def total(self) -> int:
        return sum(getattr(self, f.name) for f in fields(self))

    def render(self) -> str:
        body = "\n".join(f"  {f.name}: {getattr(self, f.name)}" for f in fields(self))
        return f"{body}\n  total: {self.total}"


def apply_release(ds: Dataset, r: Release) -> tuple[Dataset, GrowthStats]:
    """Register a wrapper release; returns the grown snapshot and an add count.

    Attribute nodes are shared within a source: a second release reusing an
    attribute name links it again but does not re-type it.
    """
    missing = r.subgraph - ds.graph_triples(GLOBAL_GRAPH)
    if missing:
        s, p, o = sorted(missing)[0]
        raise SubgraphNotInGlobal(f"release subgraph triple <{s}> <{p}> <{o}> not in the global graph")
    wrapper = r.wrapper
    if ds.match(SOURCE_GRAPH, subject=wrapper.iri, predicate=RDF_TYPE, object=S_WRAPPER):
        raise DuplicateWrapper(f"wrapper {wrapper.name} already registered")

    out = ds.copy()
    stats = GrowthStats()
    src = source_iri(wrapper.source)

    if out._add(Quad(SOURCE_GRAPH, src, RDF_TYPE, S_DATA_SOURCE)):
        stats.source += 1
    if out._add(Quad(SOURCE_GRAPH, wrapper.iri, RDF_TYPE, S_WRAPPER)):
        stats.wrapper += 1
    if out._add(Quad(SOURCE_GRAPH, src, S_HAS_WRAPPER, wrapper.iri)):
        stats.wrapper += 1

    for attr in wrapper.attrs:
        a_iri = wrapper.attr_iri(attr)
        if out._add(Quad(SOURCE_GRAPH, a_iri, RDF_TYPE, S_ATTRIBUTE)):
            stats.attribute_type += 1
        if out._add(Quad(SOURCE_GRAPH, wrapper.iri, S_HAS_ATTRIBUTE, a_iri)):
            stats.attribute_link += 1

    graph_id = mapping_graph_iri(wrapper.name)
    if out._add(Quad(MAPPINGS_GRAPH, wrapper.iri, M_MAPPING, graph_id)):
        stats.mapping += 1
    for s, p, o in sorted(r.subgraph):
        if out._add(Quad(graph_id, s, p, o)):
            stats.mapping_graph += 1

    for attr, feature in sorted(r.feature_map.items()):
        if out._add(Quad(MAPPINGS_GRAPH, wrapper.attr_iri(attr), OWL_SAME_AS, feature)):
            stats.same_as += 1
    return out, stats


# --- descriptor files -------------------------------------------------------

def load_release(path: str | Path, ds: Dataset) -> Release:
    """Read a JSON release descriptor, resolving prefixed names against ``ds``."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        w = raw["wrapper"]
        wrapper = WrapperSchema(
            name=_string(w["name"], "wrapper.name"),
            source=_string(w["source"], "wrapper.source"),
            id_attrs=_strings(w.get("id_attributes", []), "wrapper.id_attributes"),
            non_id_attrs=_strings(w.get("non_id_attributes", []), "wrapper.non_id_attributes"),
        )
        expand = ds.prefixes.expand
        subgraph = frozenset(
            (expand(s), expand(p), expand(o))
            for s, p, o in (_strings(t, "subgraph triple") for t in raw["subgraph"])
        )
        feature_map = raw.get("feature_map", {})
        if not isinstance(feature_map, dict):
            raise TypeError(f"feature_map must be an object, not {feature_map!r}")
        feature_map = {a: expand(_string(f, f"feature_map[{a!r}]")) for a, f in feature_map.items()}
        data_file = w.get("data_file")
        if data_file is not None and "\0" in _string(data_file, "wrapper.data_file"):
            raise ValueError("wrapper.data_file holds a NUL character")
    except (KeyError, TypeError, ValueError, InvalidIri, InvalidWalk, UnknownPrefix) as exc:
        raise InvalidRelease(f"{path}: malformed release descriptor: {exc}") from exc
    return Release(
        wrapper=wrapper,
        subgraph=subgraph,
        feature_map=feature_map,
        data_file=data_file,
    )


def _string(value, what: str) -> str:
    if not isinstance(value, str):
        raise TypeError(f"{what} must be a string, not {value!r}")
    return value


def _strings(value, what: str) -> tuple[str, ...]:
    if not isinstance(value, list):
        raise TypeError(f"{what} must be a list of strings, not {value!r}")
    return tuple(_string(v, what) for v in value)


def save_release(r: Release, path: str | Path, ds: Dataset) -> None:
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

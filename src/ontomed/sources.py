"""Wrapper schemas and the walk algebra.

A walk is a select-project-join expression over wrappers: restricted
projection (identifier attributes are never dropped) and restricted
equi-joins (identifier attributes only), with pairwise-distinct sources.
Walks are stored canonically so that equivalence is a plain equality test.
Coverage and minimality number the query's pattern triples once and hold
each wrapper's LAV graph as an integer bitmask over them, so both tests are
ORs of a few integers per walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import or_
from typing import Iterable, Mapping

from .errors import InvalidWalk, MissingMapping, NotCovering
from .quadstore import Dataset, Triple
from .terms import (
    GLOBAL_GRAPH,
    M_MAPPING,
    MAPPINGS_GRAPH,
    OWL_SAME_AS,
    RDF_TYPE,
    S_HAS_ATTRIBUTE,
    S_HAS_WRAPPER,
    S_WRAPPER,
    SC_IDENTIFIER,
    SOURCE_GRAPH,
    Iri,
    attribute_iri,
    source_iri,
    wrapper_iri,
)

JoinEnd = tuple[str, str]            # (wrapper name, attribute name)
Join = tuple[JoinEnd, JoinEnd]       # canonically sorted endpoint pair


@dataclass(frozen=True, order=True)
class SourceId:
    name: str

    @property
    def iri(self) -> Iri:
        return source_iri(self.name)


@dataclass(frozen=True)
class WrapperSchema:
    """A wrapper w(a_ID; a_nID) together with its owning source."""

    name: str
    source: SourceId
    id_attrs: tuple[str, ...]
    non_id_attrs: tuple[str, ...]

    def __post_init__(self):
        overlap = set(self.id_attrs) & set(self.non_id_attrs)
        if overlap:
            raise InvalidWalk(f"wrapper {self.name}: attributes both ID and non-ID: {sorted(overlap)}")
        if not (self.id_attrs or self.non_id_attrs):
            raise InvalidWalk(f"wrapper {self.name}: no attributes")

    @property
    def iri(self) -> Iri:
        return wrapper_iri(self.name)

    @property
    def attrs(self) -> tuple[str, ...]:
        return self.id_attrs + self.non_id_attrs

    def attr_iri(self, attr_name: str) -> Iri:
        return attribute_iri(self.source.iri, attr_name)


Catalog = Mapping[str, WrapperSchema]


def canonical_join(a: JoinEnd, b: JoinEnd) -> Join:
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class Walk:
    """Canonical walk value: per-wrapper projections plus an unordered join set."""

    steps: tuple[tuple[str, tuple[str, ...]], ...]
    joins: frozenset[Join] = frozenset()

    @staticmethod
    def single(wrapper_name: str, projected: Iterable[str] = ()) -> "Walk":
        return Walk(steps=((wrapper_name, tuple(sorted(set(projected)))),))

    # --- accessors ---------------------------------------------------------

    def wrapper_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.steps)

    def projections(self) -> dict[str, tuple[str, ...]]:
        return dict(self.steps)

    def projected_pairs(self) -> set[JoinEnd]:
        return {(name, attr) for name, attrs in self.steps for attr in attrs}

    # --- construction ------------------------------------------------------

    def merge(self, other: "Walk") -> "Walk":
        """Union of steps (projection sets merged per wrapper) and joins."""
        merged: dict[str, set[str]] = {name: set(attrs) for name, attrs in self.steps}
        for name, attrs in other.steps:
            merged.setdefault(name, set()).update(attrs)
        steps = tuple(sorted((name, tuple(sorted(attrs))) for name, attrs in merged.items()))
        return Walk(steps=steps, joins=self.joins | other.joins)

    def add_wrapper(self, wrapper_name: str) -> "Walk":
        if any(name == wrapper_name for name, _ in self.steps):
            return self
        steps = tuple(sorted(self.steps + ((wrapper_name, ()),)))
        return Walk(steps=steps, joins=self.joins)

    def with_join(self, left: JoinEnd, right: JoinEnd) -> "Walk":
        return Walk(steps=self.steps, joins=self.joins | {canonical_join(left, right)})

    # --- structure ---------------------------------------------------------

    def key(self) -> tuple[frozenset[str], frozenset[Join]]:
        """Equivalence key: wrapper set and join-condition set, projections ignored."""
        return (frozenset(self.wrapper_names()), self.joins)

    def signature(self) -> tuple:
        """Full identity including projections (used for intra-phase dedup)."""
        return (self.steps, self.joins)

    def is_connected(self) -> bool:
        names = list(self.wrapper_names())
        if len(names) <= 1:
            return True
        adjacency: dict[str, set[str]] = {n: set() for n in names}
        for (wl, _), (wr, _) in self.joins:
            if wl in adjacency and wr in adjacency:
                adjacency[wl].add(wr)
                adjacency[wr].add(wl)
        seen = {names[0]}
        frontier = [names[0]]
        while frontier:
            node = frontier.pop()
            for nxt in adjacency[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return len(seen) == len(names)

    def render(self) -> str:
        """Textual algebra: projections, then wrappers in canonical order with joins."""
        attrs = sorted(f"{w}.{a}" for w, a in self.projected_pairs())
        names = self.wrapper_names()
        parts = [names[0]] if names else []
        placed: set[Join] = set()
        for i, name in enumerate(names[1:], start=1):
            prior = set(names[:i])
            conds = sorted(
                j for j in self.joins
                if j not in placed and {j[0][0], j[1][0]} <= prior | {name} and name in {j[0][0], j[1][0]}
            )
            placed.update(conds)
            rendered = ",".join(f"{l[0]}.{l[1]}={r[0]}.{r[1]}" for l, r in conds)
            parts.append(f"⋈[{rendered}] {name}" if rendered else f"⋈ {name}")
        return "π{" + ",".join(attrs) + "}( " + " ".join(parts) + " )"


def walk_equivalent(a: Walk, b: Walk) -> bool:
    """True iff both walks join the same wrappers with the same join conditions."""
    return a.key() == b.key()


def distinct_sources(walk: Walk, catalog: Catalog) -> bool:
    sources = [catalog[name].source for name in walk.wrapper_names()]
    return len(sources) == len(set(sources))


def validate_walk(walk: Walk, catalog: Catalog) -> None:
    """Raise InvalidWalk unless the walk satisfies the algebra's structural rules."""
    for name, attrs in walk.steps:
        schema = catalog.get(name)
        if schema is None:
            raise InvalidWalk(f"unknown wrapper {name}")
        unknown = set(attrs) - set(schema.attrs)
        if unknown:
            raise InvalidWalk(f"wrapper {name}: projected unknown attributes {sorted(unknown)}")
    for (wl, al), (wr, ar) in walk.joins:
        for w, a in ((wl, al), (wr, ar)):
            schema = catalog.get(w)
            if schema is None or w not in dict(walk.steps):
                raise InvalidWalk(f"join endpoint on wrapper {w} outside the walk")
            if a not in schema.id_attrs:
                raise InvalidWalk(f"join endpoint {w}.{a} is not an ID attribute")
    if not distinct_sources(walk, catalog):
        raise InvalidWalk("two wrappers in the walk share a source")
    if not walk.is_connected():
        raise InvalidWalk("walk join graph is not connected")


# --- dataset-backed catalog -------------------------------------------------

def wrapper_schemas(ds: Dataset) -> dict[str, WrapperSchema]:
    """Reconstruct wrapper schemas from the source graph.

    An attribute counts as ID when the feature it maps to (via owl:sameAs) is
    a subclass of the identifier semantic domain.
    """
    catalog: dict[str, WrapperSchema] = {}
    for q in ds.match(SOURCE_GRAPH, predicate=RDF_TYPE, object=S_WRAPPER):
        w_iri = q.subject
        name = w_iri.value.rsplit("/", 1)[-1]
        owners = sorted(
            quad.subject for quad in ds.match(SOURCE_GRAPH, predicate=S_HAS_WRAPPER, object=w_iri)
        )
        if not owners:
            continue
        src = SourceId(owners[0].value.rsplit("/", 1)[-1])
        id_attrs: list[str] = []
        non_id_attrs: list[str] = []
        for aq in ds.match(SOURCE_GRAPH, subject=w_iri, predicate=S_HAS_ATTRIBUTE):
            prefix = src.iri.value + "/"
            if not aq.object.value.startswith(prefix):
                continue
            attr_name = aq.object.value[len(prefix):]
            feature = attr_feature(ds, aq.object)
            if feature is not None and ds.is_subclass_of(feature, SC_IDENTIFIER):
                id_attrs.append(attr_name)
            else:
                non_id_attrs.append(attr_name)
        catalog[name] = WrapperSchema(
            name=name,
            source=src,
            id_attrs=tuple(sorted(id_attrs)),
            non_id_attrs=tuple(sorted(non_id_attrs)),
        )
    return catalog


def attr_feature(ds: Dataset, attr: Iri) -> Iri | None:
    """The feature an attribute maps to, or None when it has no mapping."""
    def build():
        targets = sorted(
            q.object for q in ds.match(MAPPINGS_GRAPH, subject=attr, predicate=OWL_SAME_AS))
        return targets[0] if targets else None

    return ds.derived(("attr_feature", attr), build)


def mapping_graph_of(ds: Dataset, wrapper_name: str) -> Iri:
    def build():
        w_iri = wrapper_iri(wrapper_name)
        graphs = sorted(
            q.object for q in ds.match(MAPPINGS_GRAPH, subject=w_iri, predicate=M_MAPPING))
        return graphs[0] if graphs else None

    graph = ds.derived(("mapping_graph", wrapper_name), build)
    if graph is None:
        raise MissingMapping(f"wrapper {wrapper_name} has no mapping named graph")
    return graph


def wrapper_lav_triples(ds: Dataset, wrapper_name: str) -> frozenset[Triple]:
    return ds.derived(
        ("lav_triples", wrapper_name),
        lambda: ds.graph_triples(mapping_graph_of(ds, wrapper_name)),
    )


# --- coverage and minimality -------------------------------------------------

def _lav_masks(walk: Walk, q, ds: Dataset) -> tuple[list[int], int]:
    """Each of the walk's wrappers' LAV graph as a bitmask over the query's
    pattern triples, numbered once per pattern, plus the mask of all of them."""
    def build():
        bits = {t: 1 << i for i, t in enumerate(sorted(q.phi))}
        return bits, {}

    bits, by_wrapper = ds.derived(("lav_masks", q.phi), build)
    masks = []
    for name in walk.wrapper_names():
        mask = by_wrapper.get(name)
        if mask is None:
            mask = sum(bits[t] for t in wrapper_lav_triples(ds, name) if t in bits)
            by_wrapper[name] = mask
        masks.append(mask)
    return masks, (1 << len(bits)) - 1


def coverage(walk: Walk, q, ds: Dataset) -> bool:
    """True iff the union of the walk's LAV graphs contains every pattern triple."""
    masks, full = _lav_masks(walk, q, ds)
    return reduce(or_, masks, 0) == full


def minimality(walk: Walk, q, ds: Dataset) -> bool:
    """True iff dropping any wrapper breaks coverage. Requires a covering walk."""
    masks, full = _lav_masks(walk, q, ds)
    if reduce(or_, masks, 0) != full:
        raise NotCovering("minimality asked for a non-covering walk")
    return all(reduce(or_, masks[:i] + masks[i + 1:], 0) != full for i in range(len(masks)))


# --- the rewriter's final form ----------------------------------------------

@dataclass
class Ucq:
    """A union of conjunctive queries: one walk per conjunct plus output bindings."""

    walks: list[Walk]
    output_features: tuple[Iri, ...]
    bindings: list[dict[Iri, JoinEnd]]
    id_features: frozenset[Iri] = frozenset()

    def render(self) -> str:
        lines = []
        for walk, binding in zip(self.walks, self.bindings):
            cols = ",".join(
                f"{binding[f][0]}.{binding[f][1]}" for f in self.output_features
            )
            body = walk.render()
            body = body[body.index("("):]  # strip the walk-level projection
            lines.append("Π{" + cols + "}" + body)
        return "\n".join(lines)

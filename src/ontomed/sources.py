"""Wrapper schemas, the compiled catalog and the walk algebra.

A walk is a select-project-join expression over wrappers: restricted
projection (identifier attributes are never dropped) and restricted
equi-joins (identifier attributes only), with pairwise-distinct sources.
Walks are stored canonically so that equivalence is a plain equality test,
and compiled when built: a walk carries its wrapper names and its sorted
joins, so the rewriter, the renderer and the executor read fields instead of
rebuilding them, and merging a one-wrapper walk is a bisection insert.

The catalog compiles a snapshot's source and mapping graphs, and the
identifier facts of its global graph, once: the wrapper schemas plus the
attribute, feature, identifier and LAV indexes the rewriter reads. Coverage
and minimality number the query's pattern triples once and hold each
wrapper's LAV graph as an integer bitmask over them, so both tests are a
few integer operations per walk.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import reduce
from operator import or_
from typing import Iterable, Mapping

from .errors import InvalidWalk, MissingMapping, NotCovering
from .quadstore import Dataset, Triple
from .terms import (
    G_HAS_FEATURE,
    GLOBAL_GRAPH,
    M_MAPPING,
    MAPPINGS_GRAPH,
    OWL_SAME_AS,
    RDF_TYPE,
    RDFS_SUBCLASS_OF,
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


# Matches exactly the characters for which str.isspace is true, the ones
# str.split() separates the fields of a quad record on.
_SPACE = re.compile(r"\s")


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
        # A quad record separates its IRIs by whitespace, so such a name
        # would be saved into a workspace that can no longer be loaded.
        for kind, name in (("wrapper", self.name), ("source", self.source.name),
                           *(("attribute", attr) for attr in self.attrs)):
            if _SPACE.search(name):
                raise InvalidWalk(f"wrapper {self.name}: {kind} name {name!r} contains whitespace")

    @property
    def iri(self) -> Iri:
        return wrapper_iri(self.name)

    @property
    def attrs(self) -> tuple[str, ...]:
        return self.id_attrs + self.non_id_attrs

    def attr_iri(self, attr_name: str) -> Iri:
        return attribute_iri(self.source.iri, attr_name)


def canonical_join(a: JoinEnd, b: JoinEnd) -> Join:
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True, slots=True)
class Walk:
    """Canonical walk value: per-wrapper projections plus an unordered join set.

    ``steps`` holds one (wrapper name, sorted projected attributes) pair per
    wrapper, sorted by name; ``Walk.single`` and the builders below keep that
    form, and ``merge`` relies on it. A walk is compiled once, when built:
    ``names`` is its wrapper names in step order and ``sorted_joins`` its
    joins in canonical order. Both follow from ``steps`` and ``joins``, so
    equality, hashing, ``key`` and ``signature`` read only those two.
    """

    steps: tuple[tuple[str, tuple[str, ...]], ...]
    joins: frozenset[Join] = frozenset()
    names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    sorted_joins: tuple[Join, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(name for name, _ in self.steps))
        object.__setattr__(self, "sorted_joins", tuple(sorted(self.joins)))

    @staticmethod
    def single(wrapper_name: str, projected: Iterable[str] = ()) -> "Walk":
        return _walk(((wrapper_name, tuple(sorted(set(projected)))),), frozenset(),
                     (wrapper_name,), ())

    # --- accessors ---------------------------------------------------------

    def projections(self) -> dict[str, tuple[str, ...]]:
        return dict(self.steps)

    def projected_pairs(self) -> set[JoinEnd]:
        return {(name, attr) for name, attrs in self.steps for attr in attrs}

    # --- construction ------------------------------------------------------

    def merge(self, other: "Walk") -> "Walk":
        """Union of steps (projection sets merged per wrapper) and joins.

        Each of the other walk's steps is inserted by bisection, or merged
        into this walk's step for the same wrapper; phase 2's walks have one.
        """
        steps, names = self.steps, self.names
        for step in other.steps:
            steps, names = _insert_step(steps, names, step)
        joins = self.joins | other.joins
        sorted_joins = (self.sorted_joins if len(joins) == len(self.joins)
                        else tuple(sorted(joins)))
        return _walk(steps, joins, names, sorted_joins)

    def add_wrapper(self, wrapper_name: str) -> "Walk":
        if wrapper_name in self.names:
            return self
        steps, names = _insert_step(self.steps, self.names, (wrapper_name, ()))
        return _walk(steps, self.joins, names, self.sorted_joins)

    def with_join(self, left: JoinEnd, right: JoinEnd) -> "Walk":
        join = canonical_join(left, right)
        if join in self.joins:
            return self
        sorted_joins = self.sorted_joins
        i = bisect_left(sorted_joins, join)
        return _walk(self.steps, self.joins | {join}, self.names,
                     sorted_joins[:i] + (join,) + sorted_joins[i:])

    # --- structure ---------------------------------------------------------

    def key(self) -> tuple[frozenset[str], frozenset[Join]]:
        """Equivalence key: wrapper set and join-condition set, projections ignored."""
        return (frozenset(self.names), self.joins)

    def signature(self) -> tuple:
        """Full identity including projections (used for intra-phase dedup)."""
        return (self.steps, self.joins)

    def render(self) -> str:
        """Textual algebra: the projections, then the join body."""
        attrs = sorted(f"{w}.{a}" for w, a in self.projected_pairs())
        return "π{" + ",".join(attrs) + "}" + self.render_body()

    def render_body(self) -> str:
        """The wrappers in canonical order, each with the joins whose later
        endpoint it is, in parentheses."""
        names = self.names
        position = {name: i for i, name in enumerate(names)}
        conds: list[list[str]] = [[] for _ in names]
        for (wl, al), (wr, ar) in self.sorted_joins:
            if wl in position and wr in position:
                conds[max(position[wl], position[wr])].append(f"{wl}.{al}={wr}.{ar}")
        parts = list(names[:1])
        for name, placed in zip(names[1:], conds[1:]):
            parts.append(f"⋈[{','.join(placed)}] {name}" if placed else f"⋈ {name}")
        return "( " + " ".join(parts) + " )"


_set_steps, _set_joins, _set_names, _set_sorted_joins = (
    Walk.__dict__[name].__set__ for name in ("steps", "joins", "names", "sorted_joins"))


def _walk(steps, joins, names, sorted_joins) -> Walk:
    """A walk from its fields, the cached ones already computed. The slot
    setters write past the frozen ``__setattr__``."""
    walk = object.__new__(Walk)
    _set_steps(walk, steps)
    _set_joins(walk, joins)
    _set_names(walk, names)
    _set_sorted_joins(walk, sorted_joins)
    return walk


def _insert_step(steps, names, step):
    """Canonical steps and names with one more step: a new wrapper goes in by
    bisection, a known one gets the union of the two projections."""
    name, attrs = step
    i = bisect_left(names, name)
    if i == len(names) or names[i] != name:
        return steps[:i] + (step,) + steps[i:], names[:i] + (name,) + names[i:]
    merged = (name, tuple(sorted({*steps[i][1], *attrs})))
    return steps[:i] + (merged,) + steps[i + 1:], names


# --- the compiled catalog ---------------------------------------------------

class Catalog(Mapping[str, WrapperSchema]):
    """The wrapper, attribute, feature and identifier facts of one snapshot,
    compiled once from its graphs.

    Maps each wrapper name to its schema and indexes (wrapper, attribute) ->
    feature, feature -> {wrapper: least attribute}, concept -> identifier
    features, wrapper -> LAV triples and triple -> the sorted names of the
    wrappers whose LAV graph holds it. Names are the IRIs with their
    namespace prefix removed. Where the graphs give a choice, the least IRI
    wins: a wrapper's owner source, an attribute's owl:sameAs target and a
    wrapper's mapping graph. The identifiers are sc:identifier and its
    subclasses, transitively, by the global graph's rdfs:subClassOf edges;
    an attribute counts as ID when its feature is one.
    """

    def __init__(self, ds: Dataset):
        def least(pairs) -> dict[Iri, Iri]:
            out: dict[Iri, Iri] = {}
            for key, value in pairs:
                if key not in out or value < out[key]:
                    out[key] = value
            return out

        owner = least((q.object, q.subject)
                      for q in ds.match(SOURCE_GRAPH, predicate=S_HAS_WRAPPER))
        same_as = least((q.subject, q.object)
                        for q in ds.match(MAPPINGS_GRAPH, predicate=OWL_SAME_AS))
        mapping = least((q.subject, q.object)
                        for q in ds.match(MAPPINGS_GRAPH, predicate=M_MAPPING))
        attributes: dict[Iri, list[Iri]] = {}
        for q in ds.match(SOURCE_GRAPH, predicate=S_HAS_ATTRIBUTE):
            attributes.setdefault(q.subject, []).append(q.object)
        identifiers, frontier = {SC_IDENTIFIER}, [SC_IDENTIFIER]
        while frontier:
            for q in ds.match(GLOBAL_GRAPH, predicate=RDFS_SUBCLASS_OF, object=frontier.pop()):
                if q.subject not in identifiers:
                    identifiers.add(q.subject)
                    frontier.append(q.subject)
        ids: dict[Iri, list[Iri]] = {}
        for q in ds.match(GLOBAL_GRAPH, predicate=G_HAS_FEATURE):
            if q.object in identifiers:
                ids.setdefault(q.subject, []).append(q.object)
        self._ids: dict[Iri, tuple[Iri, ...]] = {
            concept: tuple(sorted(features)) for concept, features in ids.items()}
        wrapper_ns, source_ns = wrapper_iri(""), source_iri("")
        self._schemas: dict[str, WrapperSchema] = {}
        self._features: dict[JoinEnd, Iri] = {}
        self._attrs: dict[Iri, dict[str, str]] = {}
        self._lav: dict[str, frozenset[Triple]] = {}
        self._providers: dict[Triple, list[str]] = {}
        # Sorted wrapper IRIs share one prefix, so names come in sorted order.
        for q in sorted(ds.match(SOURCE_GRAPH, predicate=RDF_TYPE, object=S_WRAPPER)):
            w_iri, src = q.subject, owner.get(q.subject)
            if src is None or not (w_iri.startswith(wrapper_ns)
                                   and src.startswith(source_ns)):
                continue
            name, prefix = w_iri[len(wrapper_ns):], src + "/"
            id_attrs: list[str] = []
            non_id_attrs: list[str] = []
            for a_iri in attributes.get(w_iri, ()):
                if not a_iri.startswith(prefix):
                    continue
                attr = a_iri[len(prefix):]
                feature = same_as.get(a_iri)
                if feature is None:
                    non_id_attrs.append(attr)
                    continue
                self._features[name, attr] = feature
                held = self._attrs.setdefault(feature, {})
                if name not in held or attr < held[name]:
                    held[name] = attr
                (id_attrs if feature in identifiers else non_id_attrs).append(attr)
            self._schemas[name] = WrapperSchema(
                name=name,
                source=SourceId(src[len(source_ns):]),
                id_attrs=tuple(sorted(id_attrs)),
                non_id_attrs=tuple(sorted(non_id_attrs)),
            )
            if w_iri in mapping:
                self._lav[name] = ds.graph_triples(mapping[w_iri])
                for t in self._lav[name]:
                    self._providers.setdefault(t, []).append(name)

    def __getitem__(self, name: str) -> WrapperSchema:
        return self._schemas[name]

    def __iter__(self):
        return iter(self._schemas)

    def __len__(self) -> int:
        return len(self._schemas)

    def feature(self, wrapper: str, attr: str) -> Iri | None:
        """The feature the wrapper's attribute maps to, or None when unmapped."""
        return self._features.get((wrapper, attr))

    def attrs_for(self, feature: Iri) -> Mapping[str, str]:
        """Per wrapper, the least attribute name mapped to the feature."""
        return self._attrs.get(feature, {})

    def identifier_features(self, concept: Iri) -> tuple[Iri, ...]:
        """The concept's identifier features, sorted."""
        return self._ids.get(concept, ())

    def lav_triples(self, wrapper: str) -> frozenset[Triple]:
        try:
            return self._lav[wrapper]
        except KeyError:
            raise MissingMapping(f"wrapper {wrapper} has no mapping named graph") from None

    def providers(self, triple: Triple) -> list[str]:
        """Sorted names of the wrappers whose LAV graph holds the triple."""
        return self._providers.get(triple, [])


def wrapper_schemas(ds: Dataset) -> Catalog:
    """The snapshot's catalog, compiled once and shared by every reader."""
    return ds.derived("catalog", lambda: Catalog(ds))


# --- coverage and minimality -------------------------------------------------

def _lav_masks(walk: Walk, q, ds: Dataset) -> tuple[list[int], int]:
    """Each of the walk's wrappers' LAV graph as a bitmask over the query's
    pattern triples, numbered once per pattern, plus the mask of all of them."""
    def build():
        bits = {t: 1 << i for i, t in enumerate(sorted(q.phi))}
        return bits, {}

    bits, by_wrapper = ds.derived(("lav_masks", q.phi), build)
    masks = []
    for name in walk.names:
        mask = by_wrapper.get(name)
        if mask is None:
            lav = wrapper_schemas(ds).lav_triples(name)
            mask = by_wrapper[name] = sum(bits[t] for t in lav if t in bits)
        masks.append(mask)
    return masks, (1 << len(bits)) - 1


def coverage(walk: Walk, q, ds: Dataset) -> bool:
    """True iff the union of the walk's LAV graphs contains every pattern triple."""
    masks, full = _lav_masks(walk, q, ds)
    return reduce(or_, masks, 0) == full


def minimality(walk: Walk, q, ds: Dataset) -> bool:
    """True iff dropping any wrapper breaks coverage. Requires a covering walk."""
    masks, full = _lav_masks(walk, q, ds)
    once = twice = 0          # the triples held by one wrapper or more, and by two or more
    for mask in masks:
        twice |= once & mask
        once |= mask
    if once != full:
        raise NotCovering("minimality asked for a non-covering walk")
    # A wrapper can be dropped iff another wrapper holds each of its triples.
    return all(mask & ~twice for mask in masks)


# --- the rewriter's final form ----------------------------------------------

@dataclass
class Ucq:
    """A union of conjunctive queries: one walk per conjunct plus output bindings."""

    walks: list[Walk]
    output_features: tuple[Iri, ...]
    bindings: list[dict[Iri, JoinEnd]]

    def render(self) -> str:
        lines = []
        for walk, binding in zip(self.walks, self.bindings):
            cols = ",".join(
                f"{binding[f][0]}.{binding[f][1]}" for f in self.output_features
            )
            lines.append("Π{" + cols + "}" + walk.render_body())
        return "\n".join(lines)

"""Wrapper schemas, the compiled catalog and the walk algebra.

A walk is a select-project-join expression over wrappers: restricted
projection (identifier attributes are never dropped) and restricted
equi-joins (identifier attributes only), with pairwise-distinct sources.
Each walk is stored as a named tuple of three canonical tuples: its steps,
its wrapper names and its sorted joins. Equivalence is then plain tuple
equality, the rewriter, the renderer and the executor read fields instead of
rebuilding them, and merging a one-wrapper walk is a bisection insert. The
builders make each walk with ``tuple.__new__``, in C, since their fields are
canonical already.

The catalog compiles a snapshot's source and mapping graphs, and the
identifier facts of its global graph, once: the wrapper schemas plus the
attribute, feature, identifier and LAV indexes the rewriter reads. Coverage
and minimality read one table built per query, which numbers the pattern's
triples once and holds each wrapper's LAV graph as an integer bitmask over
them, so both tests are a few integer operations and dictionary lookups per
walk. ``Ucq.render`` likewise formats each join once per union, with the
fragment that places it under its later wrapper.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

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


# Matches exactly the characters for which str.isspace is true, the ones
# str.split() separates the fields of a quad record on.
_SPACE = re.compile(r"\s")


@dataclass(frozen=True)
class WrapperSchema:
    """A wrapper w(a_ID; a_nID) together with its owning source."""

    name: str
    source: str
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
        for kind, name in (("wrapper", self.name), ("source", self.source),
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
        return attribute_iri(source_iri(self.source), attr_name)


def canonical_join(a: JoinEnd, b: JoinEnd) -> Join:
    return (a, b) if a <= b else (b, a)


class Walk(NamedTuple):
    """Canonical walk value: three tuples, its steps, names and joins.

    ``steps`` holds one (wrapper name, sorted projected attributes) pair per
    wrapper, sorted by name; ``names`` is the wrapper names in step order;
    ``joins`` is the canonical join pairs, sorted. ``Walk.single`` and the
    builders below keep that form, and ``merge`` relies on it. Equality,
    hashing and order are the tuple's, so they follow (steps, joins).
    """

    steps: tuple[tuple[str, tuple[str, ...]], ...]
    names: tuple[str, ...]
    joins: tuple[Join, ...]

    @staticmethod
    def single(wrapper_name: str, projected: Iterable[str] = ()) -> "Walk":
        return Walk(((wrapper_name, tuple(sorted(set(projected)))),), (wrapper_name,), ())

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
        joins = self.joins
        if other.joins and other.joins != joins:
            joins = tuple(sorted({*joins, *other.joins}))
        return _new(Walk, (steps, names, joins))

    def add_wrapper(self, wrapper_name: str) -> "Walk":
        if wrapper_name in self.names:
            return self
        return _new(Walk, (*_insert_step(self.steps, self.names, (wrapper_name, ())), self.joins))

    def with_join(self, left: JoinEnd, right: JoinEnd) -> "Walk":
        join, joins = canonical_join(left, right), self.joins
        i = bisect_left(joins, join)
        if i < len(joins) and joins[i] == join:
            return self
        return _new(Walk, (self.steps, self.names, joins[:i] + (join,) + joins[i:]))

    # --- structure ---------------------------------------------------------

    def render(self) -> str:
        """Textual algebra: the projections, then the join body."""
        attrs = sorted(f"{w}.{a}" for w, a in self.projected_pairs())
        return "π{" + ",".join(attrs) + "}" + self.render_body()

    def render_body(self) -> str:
        """The wrappers in canonical order, each with the joins whose later
        endpoint it is, in parentheses."""
        return _render_bodies([self])[0]


# ``_new(Walk, fields)`` builds a walk from a tuple of its three fields in C,
# without the NamedTuple's Python-level ``__new__``; the builders pass fields
# that are canonical already.
_new = tuple.__new__


class _JoinTexts(dict):
    """Per canonical join, built on its first lookup: its earlier and its
    later endpoint's wrapper, its text, and the body fragment that joins the
    later wrapper on it alone. Names are sorted, so a canonical join's later
    endpoint is its second."""

    def __missing__(self, join: Join) -> tuple[str, str, str, str]:
        (wl, al), (wr, ar) = join
        text = f"{wl}.{al}={wr}.{ar}"
        entry = self[join] = (wl, wr, text, f"⋈[{text}] {wr}")
        return entry


def _render_bodies(walks: Iterable[Walk]) -> list[str]:
    """``Walk.render_body`` of each walk, with each join's text formatted
    once for all of them. A join is placed under its later wrapper, and a
    join with an endpoint outside the walk is not shown."""
    entry = _JoinTexts().__getitem__
    bodies = []
    for walk in walks:
        names, joins = walk.names, walk.joins
        placed = {later: fragment for earlier, later, _, fragment in map(entry, joins)
                  if earlier in names}
        if len(placed) < len(joins):
            # A join is not shown, or a wrapper is the later endpoint of two.
            conds: dict[str, list[str]] = {}
            for earlier, later, text, _ in map(entry, joins):
                if earlier in names:
                    conds.setdefault(later, []).append(text)
            placed = {later: f"⋈[{','.join(group)}] {later}" for later, group in conds.items()}
        parts = list(names[:1])
        parts += [placed.get(name) or "⋈ " + name for name in names[1:]]
        bodies.append("( " + " ".join(parts) + " )")
    return bodies


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
                source=src[len(source_ns):],
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

class LavMasks(dict):
    """Per wrapper name, its LAV graph as a bitmask over a pattern's triples,
    which are numbered once; each mask is built on its first lookup, and an
    unknown wrapper raises MissingMapping. ``full`` masks every triple."""

    def __init__(self, phi: Iterable[Triple], catalog: Catalog):
        super().__init__()
        self._bits = {t: 1 << i for i, t in enumerate(phi)}
        self._catalog = catalog
        self.full = (1 << len(self._bits)) - 1

    def __missing__(self, name: str) -> int:
        bits = self._bits
        mask = self[name] = sum(bits[t] for t in self._catalog.lav_triples(name) if t in bits)
        return mask


def coverage(walk: Walk, masks: LavMasks) -> bool:
    """True iff the union of the walk's LAV graphs contains every pattern triple."""
    once = 0
    for name in walk.names:
        once |= masks[name]
    return once == masks.full


def minimality(walk: Walk, masks: LavMasks) -> bool:
    """True iff dropping any wrapper breaks coverage. Requires a covering walk."""
    held = [masks[name] for name in walk.names]
    once = twice = 0          # the triples held by one wrapper or more, and by two or more
    for mask in held:
        twice |= once & mask
        once |= mask
    if once != masks.full:
        raise NotCovering("minimality asked for a non-covering walk")
    # A wrapper can be dropped iff another wrapper holds each of its triples.
    return all(mask & ~twice for mask in held)


# --- the rewriter's final form ----------------------------------------------

@dataclass
class Ucq:
    """A union of conjunctive queries: one walk per conjunct plus output bindings."""

    walks: list[Walk]
    output_features: tuple[Iri, ...]
    bindings: list[dict[Iri, JoinEnd]]

    def render(self) -> str:
        """One line per walk: its output columns, then its body."""
        features = self.output_features
        return "\n".join([
            "Π{" + ",".join([".".join(binding[f]) for f in features]) + "}" + body
            for binding, body in zip(self.bindings, _render_bodies(self.walks))])

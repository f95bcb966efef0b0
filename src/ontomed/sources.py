"""Wrapper schemas, the compiled catalog and the walk algebra.

A walk is a select-project-join expression over wrappers: restricted
projection (identifier attributes are never dropped) and restricted
equi-joins (identifier attributes only), with pairwise-distinct sources.
Each walk is stored as a named tuple of three canonical tuples: its steps,
its wrapper names and its sorted joins. Equivalence is then plain tuple
equality, the rewriter, the renderer and the executor read fields instead of
rebuilding them, and growing a walk by one step is a bisection insert. One
builder, ``Walk.with_step``, splices a step and its joins into a walk's
tuples and makes the walk with ``tuple.__new__``, in C, since its fields are
canonical already. ``merge`` and ``add_wrapper`` are stated on it, and phase
3 grows its walks through it.

The catalog compiles a snapshot's source and mapping graphs, and the
identifier facts of its global graph, once: the wrapper schemas plus the
attribute, feature and identifier indexes the rewriter reads, and the LAV
relation once, as the providers of each mapping-graph triple. Coverage and
minimality read one table built per query from the providers of each
pattern triple, which holds each wrapper's LAV graph as an integer bitmask
over the pattern's numbered triples, so both tests are a few integer
operations and dictionary lookups per walk. ``Ucq.render`` likewise formats
each join once per union, with the fragment that places it under its later
wrapper, and each bound (wrapper, attribute) end once, and builds each line
in one pass.

A walk's hash is not cached and reads every step and join, so the rewriter
hashes walks only where two can collide: when a wrapper answers two
concepts, a right wrapper can already be in a left walk, or one wrapper can
enter two walks with different projections. When none does, distinct
(left walk, right wrapper) pairs yield distinct walks, and the rewriter
keeps them without hashing.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterable, Mapping, NamedTuple, TypeVar

from .errors import InvalidWalk
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
N = TypeVar("N")                     # a node of ``linked_order``
V = TypeVar("V")                     # the value a link carries


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
        # A quad record separates its IRIs by whitespace and brackets each
        # with "<" and ">", so such a name would be saved into a workspace
        # that can no longer be loaded.
        for kind, name in (("wrapper", self.name), ("source", self.source),
                           *(("attribute", attr) for attr in self.attrs)):
            if _SPACE.search(name) or "<" in name or ">" in name:
                raise InvalidWalk(
                    f"wrapper {self.name}: {kind} name {name!r} contains whitespace, '<' or '>'")
        # An attribute IRI is the source IRI, "/" and the attribute name, so
        # a "/" in a source name would let two attributes share one IRI.
        if "/" in self.source:
            raise InvalidWalk(f"wrapper {self.name}: source name {self.source!r} contains '/'")

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


def linked_order(nodes: Iterable[N], links: Iterable[tuple[N, N, V]]) -> list[tuple[N, list[V]]]:
    """The nodes in linking order, each with the values of its links to the
    nodes placed before it, in the order of ``links``.

    The least node comes first, then each time the least one that a link
    joins to those placed, or else the least one left, whose values are then
    empty. A link (u, v, value) has no direction and is ignored when u or v
    is not among ``nodes``. Rewriter phase 1 orders a pattern's concepts by
    this rule, the query parser checks a pattern's connectivity with it, and
    the executor orders a walk's joins with it.
    """
    incident: dict[N, list[tuple[N, V]]] = {node: [] for node in nodes}
    for u, v, value in links:
        if u in incident and v in incident:
            incident[u].append((v, value))
            incident[v].append((u, value))
    rest = sorted(incident, reverse=True)
    linked: list[N] = []        # a heap of the nodes linked to those placed
    placed: set[N] = set()
    order = []
    while linked or rest:
        node = heappop(linked) if linked else rest.pop()
        if node in placed:
            continue
        order.append((node, [value for other, value in incident[node] if other in placed]))
        placed.add(node)
        for other, _ in incident[node]:
            if other not in placed:
                heappush(linked, other)
    return order


class Walk(NamedTuple):
    """Canonical walk value: three tuples, its steps, names and joins.

    ``steps`` holds one (wrapper name, sorted projected attributes) pair per
    wrapper, sorted by name; ``names`` is the wrapper names in step order;
    ``joins`` is the canonical join pairs, sorted. ``Walk.single`` and
    ``with_step`` keep that form, and ``with_step`` relies on it. Equality,
    hashing and order are the tuple's, so they follow (steps, joins).
    """

    steps: tuple[tuple[str, tuple[str, ...]], ...]
    names: tuple[str, ...]
    joins: tuple[Join, ...]

    @staticmethod
    def single(wrapper_name: str, projected: Iterable[str] = ()) -> "Walk":
        return Walk(((wrapper_name, tuple(sorted(set(projected)))),), (wrapper_name,), ())

    # --- construction ------------------------------------------------------

    def with_step(self, step: tuple[str, tuple[str, ...]], joins: Iterable[Join] = ()) -> "Walk":
        """The walk with one more step and joins, in canonical form: the only
        code that splices a walk's tuples.

        A new wrapper's step goes in by bisection; a held wrapper's step gets
        the union of the two projections. Each join, none of them held yet,
        goes in by bisection.
        """
        steps, names, held = self
        name, attrs = step
        i = bisect_left(names, name)
        if i == len(names) or names[i] != name:
            steps, names = steps[:i] + (step,) + steps[i:], names[:i] + (name,) + names[i:]
        else:
            steps = steps[:i] + ((name, tuple(sorted({*steps[i][1], *attrs}))),) + steps[i + 1:]
        for join in joins:
            j = bisect_left(held, join)
            held = held[:j] + (join,) + held[j:]
        return _new(Walk, (steps, names, held))

    def merge(self, other: "Walk") -> "Walk":
        """Union of steps (projection sets merged per wrapper) and joins: the
        builder folded over the other walk's steps, the first of which brings
        the other walk's joins that this walk lacks."""
        walk, joins = self, set(other.joins).difference(self.joins)
        for step in other.steps:
            walk, joins = walk.with_step(step, joins), ()
        return walk

    def add_wrapper(self, wrapper_name: str) -> "Walk":
        return self if wrapper_name in self.names else self.with_step((wrapper_name, ()))

    # --- structure ---------------------------------------------------------

    def render(self) -> str:
        """Textual algebra: the projections, then the join body."""
        attrs = sorted({f"{w}.{a}" for w, projected in self.steps for a in projected})
        return "π{" + ",".join(attrs) + "}" + self.render_body()

    def render_body(self) -> str:
        """The wrappers in canonical order, each with the joins whose later
        endpoint it is, in parentheses."""
        return _render_body(self, _JoinTexts().__getitem__)


# ``_new(Walk, fields)`` builds a walk from a tuple of its three fields in C,
# without the NamedTuple's Python-level ``__new__``; ``Walk.with_step`` passes
# fields that are canonical already.
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


class _EndTexts(dict):
    """Per (wrapper, attribute) end, built on its first lookup: its text."""

    def __missing__(self, end: JoinEnd) -> str:
        text = self[end] = ".".join(end)
        return text


def _render_body(walk: Walk, entry) -> str:
    """``Walk.render_body``, reading each join's texts through ``entry``, a
    ``_JoinTexts`` lookup that a union's walks share. A join is placed
    under its later wrapper, and a join with an endpoint outside the walk
    is not shown."""
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
    parts = [placed.get(name) or "⋈ " + name for name in names[1:]]
    return " ".join(["(", names[0], *parts, ")"])


# --- the compiled catalog ---------------------------------------------------

Note = tuple[str, Iri, str]                          # (rule, subject, detail)


_WRAPPER_NS, _SOURCE_NS = wrapper_iri(""), source_iri("")


def source_note(src: Iri) -> Note | None:
    """Rule V9's note on a data source IRI outside S:DataSource/, or V7's on
    one whose name, the rest of the IRI, holds "/", since an attribute's IRI
    is its source's IRI, "/" and its name; else None."""
    if not src.startswith(_SOURCE_NS):
        return ("V9", src, f"DataSource IRI is not under <{_SOURCE_NS}>")
    if "/" in src[len(_SOURCE_NS):]:
        return ("V7", src, f"source name {src[len(_SOURCE_NS):]!r} contains '/'")
    return None


def _links_text(count: int, link: str) -> str:
    return f"Wrapper has {count or 'no'} {link} link" + "s" * (count > 1)


def registrations(ds: Dataset) -> tuple[list[tuple], list[Note]]:
    """One walk over the typed S:Wrappers in IRI order: the rows the catalog
    reads, and a note for each wrapper it skips and each choice it makes.

    A row is (wrapper name, source name, attribute IRIs, least M:mapping
    graph or None), in name order, since every kept IRI starts with
    S:Wrapper/; an attribute IRI is the source's IRI, "/" and the name. Skipped: a wrapper with no owner (V3), whose IRI
    or least owner's lies outside its namespace (V9), whose least owner's
    name holds "/" (V7), or with no hasAttribute link (V3) or none prefixed
    by that owner (V6). Chosen, the least IRI: of several owners (V3), and
    of several mapping graphs, or none (V8); an attribute not prefixed by
    the owner is left out (V6).
    """
    owners = ds.links(SOURCE_GRAPH, S_HAS_WRAPPER, inverse=True)
    attributes = ds.links(SOURCE_GRAPH, S_HAS_ATTRIBUTE)
    mapping = ds.links(MAPPINGS_GRAPH, M_MAPPING)
    rows, notes = [], []
    for w_iri in sorted(ds.links(SOURCE_GRAPH, RDF_TYPE, inverse=True).get(S_WRAPPER, ())):
        srcs = owners.get(w_iri, ())
        if len(srcs) != 1:
            notes.append(("V3", w_iri, _links_text(len(srcs), "hasWrapper")))
            if not srcs:
                continue
        src = min(srcs)
        skip = (("V9", w_iri, f"Wrapper IRI is not under <{_WRAPPER_NS}>")
                if not w_iri.startswith(_WRAPPER_NS) else source_note(src))
        if skip is None and w_iri not in attributes:
            skip = ("V3", w_iri, _links_text(0, "hasAttribute"))
        if skip is not None:
            notes.append(skip)
            continue
        prefix, linked = src + "/", attributes[w_iri]
        attrs = [a_iri for a_iri in linked if a_iri.startswith(prefix)]
        if len(attrs) < len(linked):
            notes.extend(("V6", a_iri, f"attribute not prefixed by its source <{src}>")
                         for a_iri in linked if not a_iri.startswith(prefix))
            if not attrs:
                continue
        graphs = mapping.get(w_iri, ())
        if len(graphs) != 1:
            notes.append(("V8", w_iri, _links_text(len(graphs), "M:mapping")))
        rows.append((w_iri[len(_WRAPPER_NS):], src[len(_SOURCE_NS):], attrs, min(graphs, default=None)))
    return rows, notes


class Catalog(Mapping[str, WrapperSchema]):
    """The wrapper, attribute, feature and identifier facts of one snapshot,
    compiled once from its graphs.

    Maps each wrapper name in the rows of ``registrations`` to its schema,
    and indexes (wrapper, attribute) -> feature, feature -> {wrapper: least attribute}, concept -> identifier
    features and triple -> the sorted names of the wrappers whose LAV graph
    holds it, the one table of the LAV relation. Names are the IRIs with
    their namespace prefix removed. An attribute's feature is its least
    owl:sameAs target. The identifiers are sc:identifier and its
    subclasses, transitively, by the global graph's rdfs:subClassOf edges;
    an attribute counts as ID when its feature is one.
    """

    def __init__(self, ds: Dataset):
        # Each version of a source holds its attributes again, so an
        # attribute's least target is taken once, here.
        same_as = {a: min(fs) for a, fs in ds.links(MAPPINGS_GRAPH, OWL_SAME_AS).items()}
        children = ds.links(GLOBAL_GRAPH, RDFS_SUBCLASS_OF, inverse=True)
        identifiers, frontier = {SC_IDENTIFIER}, [SC_IDENTIFIER]
        while frontier:
            for child in children.get(frontier.pop(), ()):
                if child not in identifiers:
                    identifiers.add(child)
                    frontier.append(child)
        self._ids: dict[Iri, tuple[Iri, ...]] = {
            concept: tuple(sorted(identifiers.intersection(features)))
            for concept, features in ds.links(GLOBAL_GRAPH, G_HAS_FEATURE).items()}
        self._schemas: dict[str, WrapperSchema] = {}
        self._features: dict[JoinEnd, Iri] = {}
        self._attrs: dict[Iri, dict[str, str]] = {}
        self._providers: dict[Triple, list[str]] = {}
        for name, source, attrs, graph in registrations(ds)[0]:
            cut = len(_SOURCE_NS) + len(source) + 1
            id_attrs: list[str] = []
            non_id_attrs: list[str] = []
            for a_iri in attrs:
                attr = a_iri[cut:]
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
                source=source,
                id_attrs=tuple(sorted(id_attrs)),
                non_id_attrs=tuple(sorted(non_id_attrs)),
            )
            if graph is not None:
                for t in ds.graph_triples(graph):
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

    def providers(self, triple: Triple) -> list[str]:
        """Sorted names of the wrappers whose LAV graph holds the triple."""
        return self._providers.get(triple, [])


def wrapper_schemas(ds: Dataset) -> Catalog:
    """The snapshot's catalog, compiled once and shared by every reader."""
    return ds.derived("catalog", lambda: Catalog(ds))


# --- coverage and minimality -------------------------------------------------

class LavMasks(dict):
    """Per wrapper name, its LAV graph as a bitmask over a pattern's triples,
    numbered once and read from the catalog's providers of each. A wrapper
    that holds none of them, mapping graph or not, masks 0. ``full`` masks
    every triple."""

    def __init__(self, phi: Iterable[Triple], catalog: Catalog):
        super().__init__()
        bit = 1
        for t in phi:
            for name in catalog.providers(t):
                self[name] = self.get(name, 0) | bit
            bit <<= 1
        self.full = bit - 1

    def __missing__(self, name: str) -> int:
        return 0


def coverage(walk: Walk, masks: LavMasks) -> bool:
    """True iff the union of the walk's LAV graphs contains every pattern triple."""
    once = 0
    for name in walk.names:
        once |= masks[name]
    return once == masks.full


def minimality(walk: Walk, masks: LavMasks) -> bool:
    """True iff each wrapper of the walk holds a pattern triple that no other
    wrapper of the walk holds. On a covering walk, that is iff dropping any
    wrapper breaks coverage; ``rewrite`` asks it only of covering walks."""
    held = [masks[name] for name in walk.names]
    once = twice = 0          # the triples held by one wrapper or more, and by two or more
    for mask in held:
        twice |= once & mask
        once |= mask
    return all(mask & ~twice for mask in held)


# --- the rewriter's final form ----------------------------------------------

@dataclass
class Ucq:
    """A union of conjunctive queries: one walk per conjunct plus output bindings."""

    walks: list[Walk]
    output_features: tuple[Iri, ...]
    bindings: list[dict[Iri, JoinEnd]]

    def render(self) -> str:
        """One line per walk, formatted in one pass: its output columns, then
        its body. Each bound end and each join is formatted once per union."""
        features = self.output_features
        end, entry = _EndTexts().__getitem__, _JoinTexts().__getitem__
        return "\n".join([
            f"Π{{{','.join(map(end, map(binding.__getitem__, features)))}}}"
            f"{_render_body(walk, entry)}"
            for walk, binding in zip(self.walks, self.bindings)])

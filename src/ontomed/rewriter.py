"""Three-phase compilation of a pattern query into a union of walks.

Phase 1 expands the query with identifier features and orders its concepts
by ``sources.linked_order`` over the pattern's edges, so that each one after
the first shares a pattern edge with those before it, wherever the pattern
allows. Phase 2 produces single-wrapper partial walks per concept. Phase 3
joins the walks built so far to each next concept's one-wrapper walks on the
identifier features of the pattern's concepts: a walk equates, per
identifier feature, every attribute its wrappers map to it. Each concept occurs once in a pattern, so each identifier feature names
one query variable. The result is filtered to covering, minimal walks and
projected back to the analyst's requested features.

Every fact about wrappers, attributes and features comes from the snapshot's
compiled catalog (``sources.wrapper_schemas``). On a chain the union holds
W^C walks, so per-walk work is kept to lookups. Phase 3 decides the joins a
left walk and a right wrapper add once per tuple of the left walk's holders
of the identifiers the right wrappers map, so a pair only grows the left
walk by the right wrapper's step and those joins, through ``Walk.with_step``.
The stages after phase 3 read tables built once per query: the filter
decides coverage and minimality once per tuple of wrapper bitmasks over the
numbered pattern triples, and output binding reads, per step, the (feature
position, least end) pairs of the requested features only.

Walks are hashed only where two can collide. When no wrapper name occurs in
two concepts' phase-2 lists (``PartialWalkSet.one_concept_per_wrapper``), a
right wrapper is never in a left walk and the left walks are distinct, so
distinct pairs yield distinct walks, and each wrapper keeps its one phase-2
step, so no two walks share names and joins. Phase 3 then keeps its
candidates as built and ``rewrite`` sorts the kept walks as they are.
Otherwise phase 3 dedupes its candidates on one hash each, and ``rewrite``
merges the walks equal up to projections, keyed on their canonical names
and joins.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import MissingIdAttribute, NoJoinPath, NoWrapperForConcept
from .quadstore import Dataset
from .queries import OmqQuery, parse_omq, well_formed_rewrite
from .sources import (
    Catalog,
    JoinEnd,
    LavMasks,
    Ucq,
    Walk,
    canonical_join,
    coverage,
    linked_order,
    minimality,
    wrapper_schemas,
)
from .terms import G_CONCEPT, G_HAS_FEATURE, GLOBAL_GRAPH, RDF_TYPE, Iri


@dataclass(frozen=True)
class ExpandedQuery:
    """A well-formed query with identifier features joined in, plus the
    order its concepts will be processed in: by name, each one linked by a
    pattern edge to those before it wherever the pattern allows."""

    concepts: tuple[Iri, ...]
    query: OmqQuery


@dataclass
class PartialWalkSet:
    """Per-concept single-wrapper walks, each already covering and minimal
    for its concept's requested features."""

    per_concept: dict[Iri, list[Walk]]

    def one_concept_per_wrapper(self) -> bool:
        """True iff no wrapper name occurs in two concepts' lists. Each list
        names a wrapper once, so it suffices that the names are distinct."""
        names = [w.names[0] for walks in self.per_concept.values() for w in walks]
        return len(names) == len(set(names))


@dataclass
class RewriteTrace:
    """Phase-by-phase record of one rewriting run, for explain output: the
    concept order and the identifiers phase 1 added, phase 2's walks per
    concept, phase 3's walks, and a note per walk the filter dropped."""

    concepts: list[Iri] = field(default_factory=list)
    added_ids: list[Iri] = field(default_factory=list)
    partial_walks: dict[Iri, list[Walk]] = field(default_factory=dict)
    phase3_walks: list[Walk] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def render(self, ds: Dataset) -> str:
        compact = ds.prefixes.compact
        lines = ["phase 1: concepts = [" + ", ".join(compact(c) for c in self.concepts) + "]"]
        if self.added_ids:
            lines.append("phase 1: added identifiers = ["
                         + ", ".join(compact(f) for f in self.added_ids) + "]")
        lines.append("phase 2: partial walks per concept:")
        for concept in self.concepts:
            walks = self.partial_walks.get(concept, [])
            rendered = ", ".join(w.render() for w in walks)
            lines.append(f"  {compact(concept)} -> {{ {rendered} }}")
        lines.append("phase 3: walks:")
        for w in self.phase3_walks:
            lines.append(f"  {w.render()}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


# --- phase 1 ----------------------------------------------------------------

def query_expansion(q: OmqQuery, ds: Dataset) -> ExpandedQuery:
    """Order the pattern's concepts and join every identifier feature into it.

    The concepts are the vertices of the pattern's concept edges (all but
    hasFeature), or its subjects when it has none, that are typed as
    concepts. They come in ``linked_order`` over those edges: the least
    first, then each time the least one left that an edge links to those
    before it, or else the least one left: A, B, C for A -> B <- C. Edge
    directions do not matter, so a cycle is ordered like any other pattern."""
    edges = [(s, o, None) for s, p, o in q.phi if p != G_HAS_FEATURE]
    vertices = {s for s, _, _ in edges} | {o for _, o, _ in edges} or {s for s, _, _ in q.phi}
    concepts = [c for c, _ in linked_order(
        (v for v in vertices
         if ds.match(GLOBAL_GRAPH, subject=v, predicate=RDF_TYPE, object=G_CONCEPT)), edges)]
    catalog = wrapper_schemas(ds)
    phi = set(q.phi)
    for c in concepts:
        for f_id in catalog.identifier_features(c):
            phi.add((c, G_HAS_FEATURE, f_id))
    return ExpandedQuery(concepts=tuple(concepts), query=OmqQuery(pi=q.pi, phi=frozenset(phi)))


# --- phase 2 ----------------------------------------------------------------

def intra_concept_generation(x: ExpandedQuery, ds: Dataset) -> PartialWalkSet:
    """Build single-wrapper partial walks per concept.

    A wrapper survives for a concept only when it provides every feature the
    expanded query requests for that concept: its mapping holds the feature
    edge and one of its attributes maps to the feature. Raises
    NoWrapperForConcept when a concept ends up with no candidate at all.
    """
    catalog = wrapper_schemas(ds)
    per_concept: dict[Iri, list[Walk]] = {}
    for c in x.concepts:
        features = sorted(o for s, p, o in x.query.phi if s == c and p == G_HAS_FEATURE)
        if features:
            attrs = [catalog.attrs_for(f) for f in features]
            names = set.intersection(*(
                set(catalog.providers((c, G_HAS_FEATURE, f))) & set(by_wrapper)
                for f, by_wrapper in zip(features, attrs)))
            walks = [Walk.single(name, [by_wrapper[name] for by_wrapper in attrs])
                     for name in sorted(names)]
        else:
            # A concept with no requested features can still anchor a traversal:
            # any wrapper materializing one of its pattern edges qualifies.
            names = {name for s, p, o in x.query.phi if c in (s, o) and p != G_HAS_FEATURE
                     for name in catalog.providers((s, p, o))}
            walks = [Walk.single(name) for name in sorted(names)]
        if not walks:
            raise NoWrapperForConcept(f"no wrapper answers concept <{c}> with its requested features")
        per_concept[c] = walks
    return PartialWalkSet(per_concept=per_concept)


# --- phase 3 ----------------------------------------------------------------

def _join_error(phi, concept: Iri, processed: set[Iri], catalog: Catalog,
                clashed: str | None) -> NoJoinPath | MissingIdAttribute:
    """The error a concept meets when none of its pairs yields a walk.

    ``clashed`` is the first right wrapper that shares an identifier with a
    walk built so far, if any; each such pair then failed on the
    distinct-source rule alone, and NoJoinPath says so. Otherwise the error
    is read through the first pattern edge (canonical order) linking the
    concept to the processed prefix: NoJoinPath without an edge or
    providers, else the first provider lacking an attribute for an
    identifier of the edge's head, then of its tail, else the generic
    MissingIdAttribute."""
    if clashed is not None:
        return NoJoinPath(f"no walk joins <{concept}>: each walk built so far that shares an "
                          f"identifier with wrapper {clashed} already holds its source "
                          f"{catalog[clashed].source}, and a walk's sources must be distinct")
    edge = next(((s, p, o) for s, p, o in sorted(phi) if p != G_HAS_FEATURE
                 and concept in (s, o) and (s in processed or o in processed)), None)
    if edge is None:
        return NoJoinPath(f"no pattern edge connects <{concept}> to the processed prefix")
    s, p, o = edge
    providers = catalog.providers(edge)
    if not providers:
        return NoJoinPath(f"no mapping graph provides the edge <{s}> <{p}> <{o}>")
    for target in (o, s):
        for f_id in catalog.identifier_features(target):
            attrs = catalog.attrs_for(f_id)
            lacking = next((name for name in providers if name not in attrs), None)
            if lacking is not None:
                return MissingIdAttribute(
                    f"wrapper {lacking} provides the edge but no attribute for <{f_id}>")
    return MissingIdAttribute(f"no identifier attribute joins the walks across <{s}> and <{o}>")


def inter_concept_generation(p: PartialWalkSet, x: ExpandedQuery, ds: Dataset) -> list[Walk]:
    """Join partial walks across concepts into full candidate walks.

    Phase 2 builds each walk from one wrapper, so each walk built so far
    pairs with one step, (wrapper, projection). The pair yields the merged
    walk when the left walk holds that wrapper, and nothing when it holds
    the wrapper's source or when the two share no identifier feature of the
    pattern's concepts. Otherwise it yields the merged walk joined on every
    such feature both map: the right wrapper's attribute equals each left
    holder's. So a walk equates, per identifier feature, every attribute
    its wrappers map to it. Raises the concept's ``_join_error`` when no
    pair yields.

    The joins a pair adds depend only on the right step and on the left
    walk's holders of the identifier features the right wrappers map, so
    they are decided once per tuple of holders.

    The candidates are collected in pair order. When no wrapper serves two
    concepts, a right wrapper is never in a left walk, and the left walks
    are distinct (by induction from phase 2's lists, which name a wrapper
    once). A candidate then determines its pair: its one wrapper of the
    concept's list is the right one, and dropping that step and the joins
    on it gives back the left walk. So distinct pairs yield distinct walks,
    and the candidates are kept as they are. Otherwise they are deduped on
    one hash each, first seen first.
    """
    if not x.concepts:
        return []
    distinct = p.one_concept_per_wrapper()
    catalog = wrapper_schemas(ds)
    source = {name: schema.source for name, schema in catalog.items()}
    ids = [catalog.attrs_for(f) for f in dict.fromkeys(
        f for c in x.concepts for f in catalog.identifier_features(c))]
    current = list(p.per_concept[x.concepts[0]])
    processed = {x.concepts[0]}
    for concept in x.concepts[1:]:
        rights = [w.steps[0] for w in p.per_concept[concept]]
        # Per identifier feature that a right wrapper maps, its attribute per wrapper.
        shared = [attrs for attrs in ids if any(name in attrs for name, _ in rights)]
        decided: dict[tuple, list] = {}
        joined: list[Walk] = []
        for left in current:
            names = left.names
            holders = tuple(tuple(name for name in names if name in attrs) for attrs in shared)
            added = decided.get(holders)
            if added is None:
                added = decided[holders] = [
                    tuple(canonical_join((held, attrs[held]), (right, attrs[right]))
                          for attrs, holding in zip(shared, holders) if right in attrs
                          for held in holding)
                    for right, _ in rights]
            left_sources = {source[name] for name in names}
            for step, new in zip(rights, added):
                right = step[0]
                if right in names:
                    joined.append(left.with_step(step))
                elif new and source[right] not in left_sources:
                    # The joins link the left walk to the right wrapper, so
                    # none is among the left walk's joins yet.
                    cand = left.with_step(step, new)
                    # ``right`` is in ``cand``, so ``add_wrapper`` returns
                    # ``cand``. The call stays: perfbench/tracing.py and a
                    # rewriter test count the candidates built through it.
                    joined.append(cand.add_wrapper(right))
        if not joined:
            # No pair yields, so each one whose joins are not empty clashes on a source.
            clashed = next((step[0] for step, *news in zip(rights, *decided.values())
                            if any(news)), None)
            raise _join_error(x.query.phi, concept, processed, catalog, clashed)
        current = joined if distinct else list(dict.fromkeys(joined))
        processed.add(concept)
    return current


# --- composition ------------------------------------------------------------

def rewrite(q_text: str, ds: Dataset, trace: RewriteTrace | None = None) -> Ucq:
    """Compile query text into a union of covering, minimal walks.

    Output columns follow the analyst's SELECT order; identifiers added
    during expansion are projected out. Walks equal up to projections are
    collapsed into one conjunct.
    """
    parsed = parse_omq(q_text, ds)
    wf = well_formed_rewrite(ds, parsed)
    expanded = query_expansion(wf, ds)
    if trace is not None:
        trace.concepts = list(expanded.concepts)
        trace.added_ids = sorted(set(_features_of(expanded.query.phi)) - set(_features_of(wf.phi)))
    partial = intra_concept_generation(expanded, ds)
    if trace is not None:
        trace.partial_walks = {c: list(ws) for c, ws in partial.per_concept.items()}
    walks = inter_concept_generation(partial, expanded, ds)
    if trace is not None:
        trace.phase3_walks = list(walks)

    catalog = wrapper_schemas(ds)
    # Coverage and minimality read only the walk's masks in name order, so
    # they are decided once per tuple of masks, on its first walk.
    masks = LavMasks(wf.phi, catalog)
    verdicts: dict[tuple[int, ...], bool] = {}
    kept = []
    for w in walks:
        key = tuple(map(masks.__getitem__, w.names))
        verdict = verdicts.get(key)
        if verdict is None:
            verdict = verdicts[key] = coverage(w, masks) and minimality(w, masks)
        if verdict:
            kept.append(w)
        elif trace is not None:
            trace.notes.append(f"dropped non-minimal or non-covering walk {w.render()}")

    if partial.one_concept_per_wrapper():
        # Phase 3's walks are distinct and each wrapper keeps its one phase-2
        # step, so no two of them share names and joins: nothing to merge.
        final = sorted(kept)
    else:
        # names and joins are canonical, so equal keys mean equal walks up
        # to projections.
        by_key: dict[tuple, Walk] = {}
        for w in kept:
            have = by_key.setdefault((w.names, w.joins), w)
            if have is not w:
                by_key[w.names, w.joins] = have.merge(w)
        final = sorted(by_key.values())

    bindings = _bind_features(catalog, final, wf.pi)
    return Ucq(walks=final, output_features=tuple(wf.pi), bindings=bindings)


def _features_of(phi) -> list[Iri]:
    return [o for _, p, o in phi if p == G_HAS_FEATURE]


def _bind_features(catalog: Catalog, walks: list[Walk],
                   features: tuple[Iri, ...]) -> list[dict[Iri, JoinEnd]]:
    """Per walk, each of ``features`` bound to the least (wrapper, attribute)
    of the walk mapped to it, in the order of ``features``. Each step's
    (feature position, least end) pairs are computed on its first lookup.
    Raises NoWrapperForConcept at the first walk that binds no attribute to
    a feature: phase 2 never projects a feature whose subject is not typed
    as a concept (rule V1), yet a walk can still cover the pattern."""
    order = tuple(dict.fromkeys(features))
    position = {f: i for i, f in enumerate(order)}
    table: dict[tuple[str, tuple[str, ...]], tuple[tuple[int, JoinEnd], ...]] = {}
    unbound: list[JoinEnd | None] = [None] * len(order)
    bindings = []
    for walk in walks:
        ends = unbound.copy()
        for step in walk.steps:
            pairs = table.get(step)
            if pairs is None:
                name, attrs = step
                least: dict[int, JoinEnd] = {}
                for attr in sorted(attrs):
                    i = position.get(catalog.feature(name, attr))
                    if i is not None and i not in least:
                        least[i] = (name, attr)
                pairs = table[step] = tuple(least.items())
            # Steps are sorted by name, so the first end met is the least.
            for i, end in pairs:
                if ends[i] is None:
                    ends[i] = end
        if None in ends:
            raise NoWrapperForConcept(f"walk {walk.render_body()} binds no attribute to "
                                      f"<{order[ends.index(None)]}>")
        bindings.append(dict(zip(order, ends)))
    return bindings

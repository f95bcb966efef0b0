"""Three-phase compilation of a pattern query into a union of walks.

Phase 1 expands the query with identifier features and orders its concepts.
Phase 2 produces single-wrapper partial walks per concept. Phase 3 stitches
partial walks across concepts, discovering equi-joins through the mapping
graphs. The result is filtered to covering, minimal walks and projected back
to the analyst's requested features.

Every fact about wrappers, attributes and features comes from the snapshot's
compiled catalog (``sources.wrapper_schemas``). On a chain the union holds
W^C walks, so per-walk work is kept to lookups. Phase 3 computes one join
plan per concept (connecting edge, joinable providers per identifier, and
the one error a pair that cannot join meets), and decides what a pair of
walks yields once per class of pairs: the right walk and the few facts of
the left walk that the outcome reads. The outcome holds each candidate's
provider and canonical join, so a pair only splices its right walk's one
step and the join into the left walk's tuples, builds the walk in C, and
dedupes it on one hash. The stages after phase 3 read tables built once per
query: the filter decides coverage and minimality once per tuple of wrapper
bitmasks over the numbered pattern triples, the dedupe keys on the walk's
own canonical names and joins, and output binding reads, per step, the
(feature position, least end) pairs of the requested features only.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Mapping

from .errors import MissingIdAttribute, NoJoinPath, NoWrapperForConcept
from .quadstore import Dataset, Triple
from .queries import OmqQuery, parse_omq, topological_concepts, well_formed_rewrite
from .sources import (
    Catalog,
    JoinEnd,
    LavMasks,
    Ucq,
    Walk,
    _insert_step,
    _new,
    canonical_join,
    coverage,
    minimality,
    wrapper_schemas,
)
from .terms import G_CONCEPT, G_HAS_FEATURE, GLOBAL_GRAPH, RDF_TYPE, Iri


@dataclass(frozen=True)
class ExpandedQuery:
    """A well-formed query with identifier features joined in, plus the
    topological order its concepts will be processed in."""

    concepts: tuple[Iri, ...]
    query: OmqQuery


@dataclass
class PartialWalkSet:
    """Per-concept single-wrapper walks, each already covering and minimal
    for its concept's requested features."""

    per_concept: dict[Iri, list[Walk]]


@dataclass
class RewriteTrace:
    """Phase-by-phase record of one rewriting run, for explain output."""

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
    """Order the pattern's concepts and join every identifier feature into it."""
    order = topological_concepts(q.phi)
    concepts = tuple(
        v for v in order
        if ds.match(GLOBAL_GRAPH, subject=v, predicate=RDF_TYPE, object=G_CONCEPT)
    )
    catalog = wrapper_schemas(ds)
    phi = set(q.phi)
    for c in concepts:
        for f_id in catalog.identifier_features(c):
            phi.add((c, G_HAS_FEATURE, f_id))
    return ExpandedQuery(concepts=concepts, query=OmqQuery(pi=q.pi, phi=frozenset(phi)))


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

@dataclass(frozen=True)
class JoinPlan:
    """How a concept's walks join the processed prefix: the connecting edge
    and, for its head and then its tail concept, each identifier feature's
    attribute per wrapper with the edge providers that have one. ``at_concept``
    marks the end that is the concept being joined. ``error`` is what every
    pair of walks that shares no wrapper and does not join meets."""

    edge: Triple | None
    targets: tuple[tuple[bool, tuple[tuple[Mapping[str, str], tuple[JoinEnd, ...]], ...]], ...]
    error: NoJoinPath | MissingIdAttribute

    def joins(self, left: Walk, right: Walk, left_names: frozenset[str],
              right_names: frozenset[str]) -> list[tuple[JoinEnd, JoinEnd]]:
        """The joins, as (provider end, holder end), that connect two walks
        with distinct sources that share no wrapper, given their name sets:
        a provider in the walk opposite the identifier's holder connects them.
        The first end of the edge that yields a join decides."""
        for at_concept, features in self.targets:
            side, reachable = (right, left_names) if at_concept else (left, right_names)
            found: list[tuple[JoinEnd, JoinEnd]] = []
            for attrs, joinable in features:
                # Steps are sorted by name, so the first match is the least holder.
                for name in side.names:
                    if name in attrs:
                        held = (name, attrs[name])
                        break
                else:
                    continue
                found += [(end, held) for end in joinable if end[0] in reachable]
            if found:
                return found
        return []


def _join_plan(phi, concept: Iri, processed: set[Iri], catalog: Catalog) -> JoinPlan:
    """The plan through the first pattern edge (canonical order) linking the
    concept to the processed prefix. Phase 2 gives every walk of a concept
    all its identifier features, so every identifier has a holder, and a
    pair that cannot join meets the plan's error: NoJoinPath without an edge
    or providers, else the first provider lacking an identifier attribute,
    else the generic MissingIdAttribute."""
    edge = next(((s, p, o) for s, p, o in sorted(phi) if p != G_HAS_FEATURE
                 and concept in (s, o) and (s in processed or o in processed)), None)
    if edge is None:
        return JoinPlan(None, (), NoJoinPath(
            f"no pattern edge connects <{concept}> to the processed prefix"))
    providers = catalog.providers(edge)
    if not providers:
        s, p, o = edge
        return JoinPlan(edge, (), NoJoinPath(f"no mapping graph provides the edge <{s}> <{p}> <{o}>"))
    error: MissingIdAttribute | None = None
    targets = []
    for target in (edge[2], edge[0]):
        features = []
        for f_id in catalog.identifier_features(target):
            attrs = catalog.attrs_for(f_id)
            lacking = next((name for name in providers if name not in attrs), None)
            if error is None and lacking is not None:
                error = MissingIdAttribute(
                    f"wrapper {lacking} provides the edge but no attribute for <{f_id}>")
            features.append((attrs, tuple((name, attrs[name]) for name in providers
                                          if name in attrs)))
        targets.append((target == concept, tuple(features)))
    return JoinPlan(edge, tuple(targets), error or MissingIdAttribute(
        f"no identifier attribute joins the walks across <{edge[0]}> and <{edge[2]}>"))


def inter_concept_generation(p: PartialWalkSet, x: ExpandedQuery, ds: Dataset,
                             trace: RewriteTrace | None = None) -> list[Walk]:
    """Join partial walks across concepts into full candidate walks.

    A pair of walks whose merged walk has pairwise-distinct sources yields
    it when they share a wrapper, and else joins on the edge's head
    identifier, or failing that its tail's. When no pair joins, the plan's
    error is raised if some pair shared no wrapper.

    What a pair yields, its join notes included, depends on the right walk
    and on the left walk's interface: its names that provide the edge or
    have a right walk's source (the right walks' own names among them), and,
    for each identifier of the edge's end in the processed prefix, its least
    name that maps it. (Left walks have distinct sources, so the merged
    walk's are distinct iff left and right share as many sources as names.)
    So the outcome is decided once per interface and right walk, and each
    pair looks it up and builds its candidates.
    """
    if not x.concepts:
        return []
    catalog = wrapper_schemas(ds)
    source = {name: schema.source for name, schema in catalog.items()}
    current = list(p.per_concept[x.concepts[0]])
    processed = {x.concepts[0]}
    for concept in x.concepts[1:]:
        plan = _join_plan(x.query.phi, concept, processed, catalog)
        rights = [(w, frozenset(w.names), frozenset(source[name] for name in w.names))
                  for w in p.per_concept[concept]]
        # A left walk's interface keeps its names that provide the edge or
        # have a right walk's source; the right walks' own names are among them.
        right_sources = frozenset().union(*(sources for _, _, sources in rights))
        relevant = {name for name, src in source.items() if src in right_sources}
        relevant.update(name for _, features in plan.targets for _, joinable in features
                        for name, _ in joinable)
        holders = [attrs for at_concept, features in plan.targets if not at_concept
                   for attrs, _ in features]
        decided: dict[tuple, list] = {}
        # Phase 2's walks have one step and no joins; ``joined`` dedupes the
        # candidates on one hash each and keeps them in first-seen order.
        right_steps = [w.steps[0] for w in p.per_concept[concept]]
        joined: dict[Walk, None] = {}
        error: NoJoinPath | MissingIdAttribute | None = None
        for left in current:
            steps, names, joins = left
            interface = (tuple(name for name in names if name in relevant),
                         tuple(next((name for name in names if name in attrs), None)
                               for attrs in holders))
            outcomes = decided.get(interface)
            if outcomes is None:
                outcomes, meets_error = _pair_outcomes(plan, left, rights, source, trace)
                decided[interface] = outcomes
                if meets_error:
                    error = plan.error
            for step, outcome in zip(right_steps, outcomes):
                if outcome is None:
                    continue
                built, notes = outcome
                merged_steps, merged_names = _insert_step(steps, names, step)
                if not built:
                    joined[_new(Walk, (merged_steps, merged_names, joins))] = None
                    continue
                for provider, join in built:
                    # The join links the left walk to the right one, so it
                    # is not among the left walk's joins yet.
                    i = bisect_left(joins, join)
                    cand = _new(Walk, (merged_steps, merged_names, joins[:i] + (join,) + joins[i:]))
                    # The provider is in ``cand``, so ``add_wrapper`` returns
                    # ``cand``. The call stays: perfbench/tracing.py and a
                    # rewriter test count the candidates built through it.
                    joined[cand.add_wrapper(provider)] = None
                if trace is not None:
                    trace.notes += notes
        if not joined:
            raise error or NoJoinPath(
                f"no wrapper materializes an edge joining <{concept}> to the query prefix")
        current = list(joined)
        processed.add(concept)
    return current


def _pair_outcomes(plan: JoinPlan, left: Walk, rights, source: Mapping[str, str],
                   trace: RewriteTrace | None) -> tuple[list, bool]:
    """Per right walk, what its pair with ``left`` yields: None for nothing,
    ``((), ())`` for the merged walk itself when they share a wrapper, else
    the (provider, canonical join) of each candidate and their trace notes.
    Also whether some pair that shares no wrapper does not join, and so
    meets the plan's error."""
    left_names = frozenset(left.names)
    left_sources = frozenset(source[name] for name in left.names)
    outcomes: list = []
    meets_error = False
    for right, right_names, right_sources in rights:
        shared = not left_names.isdisjoint(right_names)
        joins = []
        # The merged walk's sources are distinct iff there are as many of
        # them as it has wrappers.
        if len(left_sources | right_sources) == len(left_names | right_names):
            if shared:
                outcomes.append(((), ()))
                continue
            joins = plan.joins(left, right, left_names, right_names)
        if not joins:
            outcomes.append(None)
            meets_error = meets_error or not shared
            continue
        notes = () if trace is None else tuple(
            f"join {name}.{attr} = {held[0]}.{held[1]} via <{plan.edge[1]}>"
            for (name, attr), held in joins)
        outcomes.append((tuple((end[0], canonical_join(end, held)) for end, held in joins), notes))
    return outcomes, meets_error


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
    walks = inter_concept_generation(partial, expanded, ds, trace)
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

    # names and joins are canonical, so equal keys mean equal walks up to
    # projections.
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

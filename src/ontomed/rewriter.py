"""Three-phase compilation of a pattern query into a union of walks.

Phase 1 expands the query with identifier features and orders its concepts.
Phase 2 produces single-wrapper partial walks per concept. Phase 3 stitches
partial walks across concepts, discovering equi-joins through the mapping
graphs. The result is filtered to covering, minimal walks and projected back
to the analyst's requested features.

Every fact about wrappers, attributes and features comes from the snapshot's
compiled catalog (``sources.wrapper_schemas``). On a chain the union holds
W^C walks, so per-walk work is kept to lookups: phase 3 computes one join
plan per concept (connecting edge, joinable providers per identifier, and
the one error a pair that cannot join meets) and each walk's wrapper-name
set and source set once per concept, so that each pair of walks is checked
by two set operations; walks carry their names and sorted joins from when
they were built; the filter compares per-wrapper bitmasks; and output
binding memoises each step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .errors import MissingIdAttribute, NoJoinPath, NoWrapperForConcept
from .quadstore import Dataset, Triple
from .queries import OmqQuery, parse_omq, topological_concepts, well_formed_rewrite
from .sources import (
    Catalog,
    JoinEnd,
    Ucq,
    Walk,
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

    def candidates(self, merged: Walk, left: Walk, right: Walk, left_names: frozenset[str],
                   right_names: frozenset[str], trace: RewriteTrace | None) -> list[Walk]:
        """Join candidates for two walks with distinct sources that share no
        wrapper, given their name sets: a provider in the walk opposite the
        identifier's holder connects them."""
        for at_concept, features in self.targets:
            side, reachable = (right, left_names) if at_concept else (left, right_names)
            found: list[Walk] = []
            for attrs, joinable in features:
                # Steps are sorted by name, so the first match is the least holder.
                for name in side.names:
                    if name in attrs:
                        held = (name, attrs[name])
                        break
                else:
                    continue
                for name, attr in joinable:
                    if name in reachable:
                        # ``reachable`` is a subset of ``merged.names``, so
                        # ``add_wrapper`` returns ``merged``. The call stays:
                        # perfbench/tracing.py and a rewriter test count the
                        # candidates built through it.
                        found.append(merged.add_wrapper(name).with_join((name, attr), held))
                        if trace is not None:
                            trace.notes.append(f"join {name}.{attr} = {held[0]}.{held[1]}"
                                               f" via <{self.edge[1]}>")
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
    """Join partial walks across concepts into full candidate walks: one join
    plan per concept, and each walk's name set and source set computed once
    per concept, so that each pair of walks is tested by set operations. A
    pair whose merged walk has pairwise-distinct sources and that shares no
    wrapper joins on the edge's head identifier, or else its tail's. When no
    pair joins, the plan's error is raised if some pair shared no wrapper."""
    if not x.concepts:
        return []
    catalog = wrapper_schemas(ds)

    def compiled(walks: list[Walk]) -> list[tuple[Walk, frozenset[str], frozenset[str]]]:
        return [(w, frozenset(w.names), frozenset(catalog[name].source for name in w.names))
                for w in walks]

    current = list(p.per_concept[x.concepts[0]])
    processed = {x.concepts[0]}
    for concept in x.concepts[1:]:
        plan = _join_plan(x.query.phi, concept, processed, catalog)
        rights = compiled(p.per_concept[concept])
        joined: list[Walk] = []
        seen: set[Walk] = set()
        error: NoJoinPath | MissingIdAttribute | None = None
        for left, left_names, left_sources in compiled(current):
            for right, right_names, right_sources in rights:
                shared = not left_names.isdisjoint(right_names)
                candidates: list[Walk] = []
                # The merged walk's sources are distinct iff there are as
                # many of them as it has wrappers.
                if len(left_sources | right_sources) == len(left_names | right_names):
                    merged = left.merge(right)
                    candidates = [merged] if shared else plan.candidates(
                        merged, left, right, left_names, right_names, trace)
                if not (candidates or shared):
                    error = plan.error
                for cand in candidates:
                    if cand not in seen:
                        seen.add(cand)
                        joined.append(cand)
        if not joined:
            raise error or NoJoinPath(
                f"no wrapper materializes an edge joining <{concept}> to the query prefix")
        current = joined
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
    walks = inter_concept_generation(partial, expanded, ds, trace)
    if trace is not None:
        trace.phase3_walks = list(walks)

    kept = []
    for w in walks:
        if coverage(w, wf, ds) and minimality(w, wf, ds):
            kept.append(w)
        elif trace is not None:
            trace.notes.append(f"dropped non-minimal or non-covering walk {w.render()}")

    by_key: dict[tuple, Walk] = {}
    for w in kept:
        k = w.key()
        by_key[k] = by_key[k].merge(w) if k in by_key else w
    final = sorted(by_key.values())

    catalog = wrapper_schemas(ds)
    step_bindings: dict[tuple[str, tuple[str, ...]], dict[Iri, JoinEnd]] = {}
    bindings = [_bind_features(catalog, w, wf.pi, step_bindings) for w in final]
    wanted = len(set(wf.pi))
    for w, binding in zip(final, bindings):
        # Phase 2 never projects a feature whose subject is not typed as a
        # concept (rule V1), yet a walk can still cover the pattern.
        if len(binding) < wanted:
            unbound = next(f for f in wf.pi if f not in binding)
            raise NoWrapperForConcept(f"walk {w.render_body()} binds no attribute to <{unbound}>")
    return Ucq(walks=final, output_features=tuple(wf.pi), bindings=bindings)


def _features_of(phi) -> list[Iri]:
    return [o for _, p, o in phi if p == G_HAS_FEATURE]


def _bind_features(catalog: Catalog, walk: Walk, features: tuple[Iri, ...],
                   step_bindings: dict[tuple[str, tuple[str, ...]], dict[Iri, JoinEnd]],
                   ) -> dict[Iri, JoinEnd]:
    """Bind each feature to the least (wrapper, attribute) of the walk mapped
    to it. ``step_bindings`` memoises, per step, each feature's least end."""
    least: dict[Iri, JoinEnd] = {}
    for step in walk.steps:
        bound = step_bindings.get(step)
        if bound is None:
            name, attrs = step
            bound = {}
            for attr in sorted(attrs):
                bound.setdefault(catalog.feature(name, attr), (name, attr))
            step_bindings[step] = bound
        for f, end in bound.items():
            have = least.get(f)
            if have is None or end < have:
                least[f] = end
    return {f: least[f] for f in features if f in least}

"""Independent reference implementations used to check the engine's output."""

from __future__ import annotations

from itertools import combinations
from pathlib import Path

from ontomed.errors import InvalidIri, InvalidWalk
from ontomed.quadstore import Dataset, Quad
from ontomed.rewriter import _join_error
from ontomed.sources import canonical_join, wrapper_schemas
from ontomed.terms import (
    G_CONCEPT,
    G_HAS_FEATURE,
    GLOBAL_GRAPH,
    M_MAPPING,
    MAPPINGS_GRAPH,
    OWL_SAME_AS,
    RDF_TYPE,
    RDFS_SUBCLASS_OF,
    SC_IDENTIFIER,
    Iri,
    wrapper_iri,
)

WalkKey = tuple[frozenset[str], frozenset]


def walk_key(walk) -> WalkKey:
    """Equivalence key: wrapper set and join-condition set, projections ignored."""
    return (frozenset(walk.names), frozenset(walk.joins))


def with_join(walk, left, right):
    """The walk with one more join, in canonical form: a test-only builder."""
    join = canonical_join(left, right)
    if join in walk.joins:
        return walk
    return walk._replace(joins=tuple(sorted((*walk.joins, join))))


def reference_inter_concept_generation(p, x, ds):
    """Phase 3 pair by pair: the loop ``rewriter.inter_concept_generation``
    must agree with in its walks and their order, and its error. Every
    (left, right) pair is tested by set operations on its own name and
    source sets: a pair that shares a wrapper yields the merged walk, and a
    pair with distinct sources runs ``_reference_candidates``. When no pair
    yields, the error is the rewriter's ``_join_error``, given the first
    right wrapper that a pair of clashing sources would join."""
    if not x.concepts:
        return []
    catalog = wrapper_schemas(ds)
    identifiers = [f for c in x.concepts for f in catalog.identifier_features(c)]

    def compiled(walks):
        return [(w, frozenset(w.names), frozenset(catalog[name].source for name in w.names))
                for w in walks]

    current = list(p.per_concept[x.concepts[0]])
    processed = {x.concepts[0]}
    for concept in x.concepts[1:]:
        rights = compiled(p.per_concept[concept])
        joined = []
        seen = set()
        clashed = set()
        for left, left_names, left_sources in compiled(current):
            for right, right_names, right_sources in rights:
                candidates = []
                if not left_names.isdisjoint(right_names):
                    candidates = [left.merge(right)]
                # The merged walk's sources are distinct iff there are as
                # many of them as it has wrappers.
                elif len(left_sources | right_sources) == len(left_names | right_names):
                    candidates = _reference_candidates(catalog, identifiers, left.merge(right),
                                                       left_names, right_names)
                elif _reference_candidates(catalog, identifiers, left.merge(right),
                                           left_names, right_names):
                    clashed |= right_names
                for cand in candidates:
                    if cand not in seen:
                        seen.add(cand)
                        joined.append(cand)
        if not joined:
            first = next((right.names[0] for right, _, _ in rights
                          if right.names[0] in clashed), None)
            raise _join_error(x.query.phi, concept, processed, catalog, first)
        current = joined
        processed.add(concept)
    return current


def _reference_candidates(catalog, identifiers, merged, left_names, right_names):
    """The merged walk of two walks that share no wrapper, joined on every
    identifier feature that a wrapper of each maps, or no walk when there is
    no such feature."""
    walk = merged
    for f in identifiers:
        attrs = catalog.attrs_for(f)
        for left in left_names & attrs.keys():
            for right in right_names & attrs.keys():
                walk = with_join(walk, (left, attrs[left]), (right, attrs[right]))
    return [walk] if walk.joins != merged.joins else []


def reference_render_body(walk) -> str:
    """The wrappers in canonical order, each with the joins whose later
    endpoint it is, in parentheses: the renderer ``Walk.render_body`` must
    agree with. Each join goes under the larger position of its two
    endpoints' wrappers, and a join with an endpoint outside the walk is
    not shown."""
    names = walk.names
    position = {name: i for i, name in enumerate(names)}
    conds: list[list[str]] = [[] for _ in names]
    for (wl, al), (wr, ar) in walk.joins:
        if wl in position and wr in position:
            conds[max(position[wl], position[wr])].append(f"{wl}.{al}={wr}.{ar}")
    parts = list(names[:1])
    for name, placed in zip(names[1:], conds[1:]):
        parts.append(f"⋈[{','.join(placed)}] {name}" if placed else f"⋈ {name}")
    return "( " + " ".join(parts) + " )"


def reference_render(ucq) -> str:
    """``Ucq.render`` line by line: per walk, its bound ends joined by "."
    and its own ``render_body``, which formats its joins afresh. The union
    renderer must agree with it while sharing its texts across walks."""
    features = ucq.output_features
    return "\n".join(
        "Π{" + ",".join(".".join(b[f]) for f in features) + "}" + w.render_body()
        for w, b in zip(ucq.walks, ucq.bindings))


def reference_bind_features(catalog, walk, features) -> dict:
    """Bind each feature to the least (wrapper, attribute) the walk projects
    and maps to it, walk by walk: the binder ``rewriter._bind_features``
    must agree with, dict order included."""
    least = {}
    for name, attrs in walk.steps:
        for attr in attrs:
            f = catalog.feature(name, attr)
            if f in features and (f not in least or (name, attr) < least[f]):
                least[f] = (name, attr)
    return {f: least[f] for f in features if f in least}


def _is_identifier(ds: Dataset, feature: Iri) -> bool:
    """True iff climbing rdfs:subClassOf from the feature reaches sc:identifier."""
    seen, frontier = {feature}, [feature]
    while frontier:
        node = frontier.pop()
        if node == SC_IDENTIFIER:
            return True
        for q in ds.match(GLOBAL_GRAPH, subject=node, predicate=RDFS_SUBCLASS_OF):
            if q.object not in seen:
                seen.add(q.object)
                frontier.append(q.object)
    return False


def _id_feature_attrs(ds: Dataset, catalog) -> dict[str, dict[Iri, str]]:
    """Per wrapper: identifier feature -> attribute name providing it."""
    out: dict[str, dict[Iri, str]] = {}
    for name, schema in catalog.items():
        table: dict[Iri, str] = {}
        for attr in schema.id_attrs:
            a_iri = schema.attr_iri(attr)
            for q in ds.match(MAPPINGS_GRAPH, subject=a_iri, predicate=OWL_SAME_AS):
                if _is_identifier(ds, q.object):
                    table[q.object] = attr
        out[name] = table
    return out


def _lav_triples(ds: Dataset, name: str) -> frozenset:
    """The triples of the wrapper's (least) mapping graph, read from the quads."""
    graph = min(q.object for q in ds.match(MAPPINGS_GRAPH, subject=wrapper_iri(name),
                                           predicate=M_MAPPING))
    return ds.graph_triples(graph)


def brute_force_walk_keys(ds: Dataset, phi, max_wrappers: int = 4) -> set[WalkKey]:
    """All covering, minimal, joinable wrapper combinations, by exhaustion.

    Enumerates wrapper subsets with pairwise distinct sources, keeps those
    whose mapped triples cover the pattern minimally, and keys each with
    every join between two of its wrappers on an identifier feature of the
    pattern's concepts that both map, when those joins connect it.
    """
    catalog = wrapper_schemas(ds)
    names = sorted(catalog)
    lav = {n: _lav_triples(ds, n) for n in names}
    concepts = {t for s, _, o in phi for t in (s, o)
                if ds.match(GLOBAL_GRAPH, subject=t, predicate=RDF_TYPE, object=G_CONCEPT)}
    pattern_ids = {q.object for c in concepts
                   for q in ds.match(GLOBAL_GRAPH, subject=c, predicate=G_HAS_FEATURE)
                   if _is_identifier(ds, q.object)}
    id_attrs = {n: {f: a for f, a in table.items() if f in pattern_ids}
                for n, table in _id_feature_attrs(ds, catalog).items()}
    goal = set(phi)
    keys: set[WalkKey] = set()

    for size in range(1, min(max_wrappers, len(names)) + 1):
        for subset in combinations(names, size):
            sources = [catalog[n].source for n in subset]
            if len(set(sources)) != size:
                continue
            union = set()
            for n in subset:
                union |= lav[n]
            if not goal <= union:
                continue
            minimal = all(
                not goal <= set().union(*(lav[m] for m in subset if m != removed))
                for removed in subset
            )
            if not minimal:
                continue
            joins = frozenset(
                canonical_join((a, id_attrs[a][f]), (b, id_attrs[b][f]))
                for a, b in combinations(subset, 2)
                for f in set(id_attrs[a]) & set(id_attrs[b]))
            if _spans(subset, joins):
                keys.add((frozenset(subset), joins))
    return keys


def brute_force_binding(ds: Dataset, walk, features) -> dict:
    """Per feature, the least (wrapper, attribute) among the walk's projected
    attributes whose attribute maps (owl:sameAs) to that feature."""
    catalog = wrapper_schemas(ds)
    binding = {}
    for f in features:
        ends = [
            (name, attr)
            for name, attrs in walk.steps
            for attr in attrs
            if ds.match(MAPPINGS_GRAPH, subject=catalog[name].attr_iri(attr),
                        predicate=OWL_SAME_AS, object=f)
        ]
        if ends:
            binding[f] = min(ends)
    return binding


def validate_walk(walk, catalog) -> None:
    """Raise InvalidWalk unless the walk satisfies the algebra's structural
    rules: known wrappers and attributes, joins between ID attributes of its
    own wrappers that map one feature, pairwise-distinct sources and a
    spanning join graph."""
    steps = dict(walk.steps)
    for name, attrs in walk.steps:
        schema = catalog.get(name)
        if schema is None:
            raise InvalidWalk(f"unknown wrapper {name}")
        unknown = set(attrs) - set(schema.attrs)
        if unknown:
            raise InvalidWalk(f"wrapper {name}: projected unknown attributes {sorted(unknown)}")
    for join in walk.joins:
        for w, a in join:
            if w not in steps:
                raise InvalidWalk(f"join endpoint on wrapper {w} outside the walk")
            if a not in catalog[w].id_attrs:
                raise InvalidWalk(f"join endpoint {w}.{a} is not an ID attribute")
        (wl, al), (wr, ar) = join
        if catalog.feature(wl, al) != catalog.feature(wr, ar):
            raise InvalidWalk(f"join {wl}.{al}={wr}.{ar} equates two different identifier features")
    if len({catalog[name].source for name in steps}) != len(steps):
        raise InvalidWalk("two wrappers in the walk share a source")
    if not _spans(steps, walk.joins):
        raise InvalidWalk("walk join graph is not connected")


def pattern_connected(phi) -> bool:
    """True iff the triples' subjects and objects form one connected
    undirected graph, by the search ``validate_walk`` makes."""
    vertices = {s for s, _, _ in phi} | {o for _, _, o in phi}
    return _spans(vertices, [((s, p), (o, p)) for s, p, o in phi])


def reference_linked_order(nodes, links) -> list:
    """``linked_order`` restated: each time, scan every node left for the
    least one linked to those placed, else take the least one left."""
    links = list(links)
    left, placed, order = sorted(set(nodes)), [], []

    def values(node):
        return [value for u, v, value in links
                if (u == node and v in placed) or (v == node and u in placed)]

    while left:
        node = next((n for n in left if values(n)), left[0])
        order.append((node, values(node)))
        placed.append(node)
        left.remove(node)
    return order


def _spans(subset, joins) -> bool:
    adjacency = {n: set() for n in subset}
    for (wl, _), (wr, _) in joins:
        adjacency[wl].add(wr)
        adjacency[wr].add(wl)
    start = next(iter(subset))
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for nxt in adjacency[node]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen) == len(subset)


def nested_loop_join(relations: list[tuple[list[str], list[tuple[str, ...]]]],
                     joins: list[tuple[tuple[int, str], tuple[int, str]]]):
    """Plain nested-loop join over (columns, rows) tables.

    ``joins`` holds pairs of (table index, column name). Returns the
    concatenated column list and all row combinations passing every
    condition.
    """
    columns = [f"{i}.{c}" for i, (cols, _) in enumerate(relations) for c in cols]
    offsets = []
    total = 0
    for cols, _ in relations:
        offsets.append(total)
        total += len(cols)

    def index(table: int, column: str) -> int:
        return offsets[table] + relations[table][0].index(column)

    rows = [()]
    for _, table_rows in relations:
        rows = [r + t for r in rows for t in table_rows]
    conds = [(index(*a), index(*b)) for a, b in joins]
    kept = [r for r in rows if all(r[i] == r[j] for i, j in conds)]
    return columns, kept


def reference_load(path) -> Dataset:
    """Load a quad file line by line, adding each quad on its own: the
    reference ``Dataset.load`` must agree with, in its result or its error."""
    ds = Dataset()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidIri(f"{path}: not UTF-8 text: {exc}") from exc
    terms: dict[str, Iri] = {}   # token, brackets included -> its one Iri
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("@prefix"):
            # Exactly "@prefix name: <namespace>", with no brackets inside
            # the namespace.
            parts = line.split()
            if (len(parts) != 3 or parts[0] != "@prefix" or not parts[1].endswith(":")
                    or parts[2][:1] != "<" or parts[2][-1:] != ">"
                    or "<" in parts[2][1:-1] or ">" in parts[2][1:-1]):
                raise InvalidIri(f"{path}:{lineno}: malformed prefix declaration")
            ds.prefixes.register(parts[1][:-1], parts[2][1:-1])
            continue
        fields = line.split()
        if len(fields) != 4:
            raise InvalidIri(f"{path}:{lineno}: malformed quad record")
        quad = []
        for token in fields:
            iri = terms.get(token)
            if iri is None:
                if not (token.startswith("<") and token.endswith(">")):
                    raise InvalidIri(f"{path}:{lineno}: malformed quad record")
                try:
                    iri = terms[token] = Iri(token[1:-1])
                except InvalidIri as exc:
                    raise InvalidIri(f"{path}:{lineno}: {exc}") from None
            quad.append(iri)
        ds._add(Quad(*quad))
    return ds

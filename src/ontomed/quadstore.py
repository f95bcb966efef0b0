"""In-memory, index-backed store of quads (triples within named graphs).

Datasets are snapshots: the public operations never mutate their input, they
return a fresh dataset instead. Readers may therefore share a dataset freely.
There is one index per lookup shape the program makes: by graph, and by
graph plus (p), (s,p) or (p,o). Any other shape filters the graph's quads, or
all quads.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .errors import InvalidIri
from .terms import GLOBAL_GRAPH, RDFS_SUBCLASS_OF, Iri, PrefixTable

Triple = tuple[Iri, Iri, Iri]


@dataclass(frozen=True, order=True)
class Quad:
    graph: Iri
    subject: Iri
    predicate: Iri
    object: Iri

    def triple(self) -> Triple:
        return (self.subject, self.predicate, self.object)


class Dataset:
    """A set of quads plus the prefix table its serialized forms resolve against."""

    def __init__(self, prefixes: PrefixTable | None = None):
        self.prefixes = prefixes.copy() if prefixes is not None else PrefixTable()
        self._quads: set[Quad] = set()
        self._by_g: dict[Iri, set[Quad]] = defaultdict(set)
        self._by_gp: dict[tuple[Iri, Iri], set[Quad]] = defaultdict(set)
        self._by_gsp: dict[tuple[Iri, Iri, Iri], set[Quad]] = defaultdict(set)
        self._by_gpo: dict[tuple[Iri, Iri, Iri], set[Quad]] = defaultdict(set)
        self._derived_cache: dict = {}

    # --- container protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self._quads)

    def __iter__(self) -> Iterator[Quad]:
        return iter(self._quads)

    def __contains__(self, q: Quad) -> bool:
        return q in self._quads

    def quads(self) -> frozenset[Quad]:
        return frozenset(self._quads)

    # --- mutation (private to snapshot construction) -----------------------

    def _add(self, q: Quad) -> bool:
        """Add a quad in place; returns True when the quad was new."""
        if q in self._quads:
            return False
        self._quads.add(q)
        self._by_g[q.graph].add(q)
        self._by_gp[q.graph, q.predicate].add(q)
        self._by_gsp[q.graph, q.subject, q.predicate].add(q)
        self._by_gpo[q.graph, q.predicate, q.object].add(q)
        self._derived_cache.clear()
        return True

    def copy(self) -> "Dataset":
        clone = Dataset(self.prefixes)
        for q in self._quads:
            clone._add(q)
        return clone

    # --- queries -----------------------------------------------------------

    def match(
        self,
        graph: Iri | None = None,
        subject: Iri | None = None,
        predicate: Iri | None = None,
        object: Iri | None = None,
    ) -> set[Quad]:
        """All quads matching the bound positions; unbound positions are wildcards."""
        if graph is not None and predicate is not None:
            if subject is not None and object is not None:
                q = Quad(graph, subject, predicate, object)
                return {q} if q in self._quads else set()
            if subject is not None:
                return set(self._by_gsp.get((graph, subject, predicate), ()))
            if object is not None:
                return set(self._by_gpo.get((graph, predicate, object), ()))
            return set(self._by_gp.get((graph, predicate), ()))
        pool = self._quads if graph is None else self._by_g.get(graph, ())
        return {q for q in pool
                if (subject is None or q.subject == subject)
                and (predicate is None or q.predicate == predicate)
                and (object is None or q.object == object)}

    def derived(self, key, builder):
        """Memoized value computed from the dataset's quads.

        The cache is dropped whenever a quad is added, so the value may be
        treated as always consistent with the current contents.
        """
        try:
            return self._derived_cache[key]
        except KeyError:
            value = builder()
            self._derived_cache[key] = value
            return value

    def graph_triples(self, graph: Iri) -> frozenset[Triple]:
        return frozenset(q.triple() for q in self._by_g.get(graph, set()))

    def terms_of_graph(self, graph: Iri) -> frozenset[Iri]:
        terms: set[Iri] = set()
        for q in self._by_g.get(graph, set()):
            terms.update((q.subject, q.predicate, q.object))
        return frozenset(terms)

    # --- subclass entailment ----------------------------------------------

    def superclasses(self, sub: Iri) -> frozenset[Iri]:
        """Reflexive-transitive subClassOf closure of ``sub`` within the global graph."""
        def build():
            seen: set[Iri] = {sub}
            frontier = [sub]
            while frontier:
                node = frontier.pop()
                for q in self.match(GLOBAL_GRAPH, subject=node, predicate=RDFS_SUBCLASS_OF):
                    if q.object not in seen:
                        seen.add(q.object)
                        frontier.append(q.object)
            return frozenset(seen)

        return self.derived(("superclasses", sub), build)

    def is_subclass_of(self, sub: Iri, sup: Iri) -> bool:
        return sup in self.superclasses(sub)

    # --- persistence -------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the prefix header followed by one quad record per line."""
        lines = [
            f"@prefix {prefix}: <{namespace}>"
            for prefix, namespace in sorted(self.prefixes.namespaces().items())
        ]
        for q in sorted(self._quads):
            lines.append(f"<{q.graph}> <{q.subject}> <{q.predicate}> <{q.object}>")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Dataset":
        ds = cls()
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise InvalidIri(f"{path}: not UTF-8 text: {exc}") from exc
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("@prefix"):
                parts = line.split(None, 2)
                if len(parts) != 3 or not parts[1].endswith(":"):
                    raise InvalidIri(f"{path}:{lineno}: malformed prefix declaration")
                ds.prefixes.register(parts[1][:-1], parts[2].strip("<>"))
                continue
            fields = line.split()
            if len(fields) != 4 or not all(f.startswith("<") and f.endswith(">") for f in fields):
                raise InvalidIri(f"{path}:{lineno}: malformed quad record")
            g, s, p, o = (Iri(f[1:-1]) for f in fields)
            ds._add(Quad(g, s, p, o))
        return ds


# --- snapshot-style operation wrappers -------------------------------------

def insert_quad(ds: Dataset, q: Quad) -> tuple[Dataset, bool]:
    """Insert a quad, returning the updated snapshot and whether it was new."""
    updated = ds.copy()
    new = updated._add(q)
    return updated, new


def quad(ds: Dataset, graph, subject, predicate, obj) -> Quad:
    """Build a quad from strings or Iris, resolving prefixes against ``ds``."""
    expand = ds.prefixes.expand
    return Quad(expand(graph), expand(subject), expand(predicate), expand(obj))


def match_pattern(
    ds: Dataset,
    graph: Iri | None = None,
    subject: Iri | None = None,
    predicate: Iri | None = None,
    object: Iri | None = None,
) -> set[Quad]:
    return ds.match(graph, subject, predicate, object)

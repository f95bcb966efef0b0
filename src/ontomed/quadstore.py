"""In-memory, index-backed store of quads (triples within named graphs).

Datasets are snapshots: the public operations never mutate their input, they
return a fresh dataset instead. Readers may therefore share a dataset freely.
There are two indexes, by graph and by graph plus predicate, the two shapes
the program looks up. A loop that needs a subject or an object groups its
bucket once before it starts, so an index by subject or by object would only
slow every load and copy. Other shapes filter a bucket or all quads.

Terms are strings (see :class:`Iri`), so the hash and equality tests behind
every index, and the sort in ``save``, run in C; a term's order is the order
of its text. ``load`` keeps a per-file map from token to term, so it builds
one object per distinct token. ``copy`` clones the quad set and each index
set by set, which reuses the hashes the sets already hold.
``save`` writes through a temporary file in the same directory and then
replaces the target, so a reader sees either the old file or the new one.
"""

from __future__ import annotations

import os
from collections import defaultdict
from pathlib import Path
from typing import Iterator, NamedTuple

from .errors import InvalidIri
from .terms import Iri, PrefixTable

Triple = tuple[Iri, Iri, Iri]


class Quad(NamedTuple):
    graph: Iri
    subject: Iri
    predicate: Iri
    object: Iri

    def triple(self) -> Triple:
        return (self.subject, self.predicate, self.object)


def write_replacing(path: str | Path, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then rename it over
    ``path``. A failure at any point leaves ``path`` as it was.

    This guards against a crash of the process, not of the machine: nothing
    is synced to disk.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


class Dataset:
    """A set of quads plus the prefix table its serialized forms resolve against."""

    def __init__(self, prefixes: PrefixTable | None = None):
        self.prefixes = prefixes.copy() if prefixes is not None else PrefixTable()
        self._quads: set[Quad] = set()
        self._by_g: dict[Iri, set[Quad]] = defaultdict(set)
        self._by_gp: dict[tuple[Iri, Iri], set[Quad]] = defaultdict(set)
        self._derived_cache: dict = {}

    # --- container protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self._quads)

    def __iter__(self) -> Iterator[Quad]:
        return iter(self._quads)

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
        self._derived_cache.clear()
        return True

    def copy(self) -> "Dataset":
        clone = Dataset(self.prefixes)
        clone._quads = set(self._quads)
        clone._by_g = _clone_index(self._by_g)
        clone._by_gp = _clone_index(self._by_gp)
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
            pool = self._by_gp.get((graph, predicate), ())
            if subject is None and object is None:
                return set(pool)
        else:
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

    # --- persistence -------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the prefix header followed by one quad record per line."""
        lines = [
            f"@prefix {prefix}: <{namespace}>"
            for prefix, namespace in sorted(self.prefixes.namespaces().items())
        ]
        for g, s, p, o in sorted(self._quads):
            lines.append(f"<{g}> <{s}> <{p}> <{o}>")
        write_replacing(path, "\n".join(lines) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Dataset":
        ds = cls()
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
                parts = line.split(None, 2)
                if len(parts) != 3 or not parts[1].endswith(":"):
                    raise InvalidIri(f"{path}:{lineno}: malformed prefix declaration")
                ds.prefixes.register(parts[1][:-1], parts[2].strip("<>"))
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


def _clone_index(index: dict) -> defaultdict:
    return defaultdict(set, {key: set(quads) for key, quads in index.items()})

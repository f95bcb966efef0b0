"""In-memory, index-backed store of quads (triples within named graphs).

Datasets are snapshots: the public operations never mutate their input, they
return a fresh dataset instead. Readers may therefore share a dataset freely.
The quads sit in an insertion-ordered dict: a loaded file's order, then the
quads added since. There are two indexes, by graph and by graph plus
predicate, the two shapes the program looks up. They are a cache, as the
derived values are: the first lookup that needs one builds both, an add
drops them, and a copy carries none. So a command that only adds quads and
saves, such as a release, never builds them. A point lookup, with all four
positions bound, reads the quad dict. ``links`` groups one (graph,
predicate) bucket by subject, or by object, in one pass; the catalog and
``validate`` read every link they need that way, so an index by subject or
by object would only slow every index build. Other shapes filter a bucket or
all quads.

Terms are strings (see :class:`Iri`), so the hash and equality tests behind
every index, and the sort in ``save``, run in C; a term's order is the order
of its text.

A record's term is a token: ``<iri>``, or a prefixed name ``name:local``
that stands for the namespace declared for ``name`` (by the file, or by
default) followed by ``local``. A declaration holds for the whole file.
``save`` writes each term as ``PrefixTable.compact`` renders it, so a saved
file is about a fifth as long as one of bracketed IRIs, and ``load`` reads
both forms.

``load`` works in bulk, on UTF-8 text less any leading byte-order mark. It
sets aside the lines that start with anything but whitespace, "#" or "@",
which can only be quad records, and reads the few others (blank lines,
comments, prefix declarations, indented records) one by one. It splits all
records at once and checks each record's token count, then reads each
distinct token once: its brackets or its declared prefix, and a term that
is not empty and holds no "<" or ">". It builds one term per distinct
text. Only when a check fails does a line-by-line scan run, to report the
first bad line in file order. ``copy`` clones the quad dict, which reuses
the hashes it already holds. ``save`` sorts the quads, compacts each
distinct term once, formats the records with one ``join``, writes through a
temporary file in the same directory and then replaces the target, so a
reader sees either the old file or the new one. A store loaded from a saved
file holds one long sorted run plus the quads added since, and the sort, a
TimSort, merges such runs in near-linear time.
"""

from __future__ import annotations

import os
import re
from collections import defaultdict
from functools import partial
from itertools import chain
from operator import itemgetter
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
        # Keys only: a dict keeps insertion order where a set would not.
        self._quads: dict[Quad, None] = {}
        # Both indexes, or None until the first lookup that needs them.
        self._index: tuple[dict[Iri, set[Quad]], dict[tuple[Iri, Iri], set[Quad]]] | None = None
        self._derived_cache: dict = {}

    # --- container protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self._quads)

    def __iter__(self) -> Iterator[Quad]:
        return iter(self._quads)

    # --- mutation (private to snapshot construction) -----------------------

    def _add(self, q: Quad) -> bool:
        """Add a quad in place; returns True when the quad was new."""
        if q in self._quads:
            return False
        self._quads[q] = None
        self._index = None
        self._derived_cache.clear()
        return True

    def copy(self) -> "Dataset":
        """A snapshot with the same quads in the same order, and no indexes."""
        clone = Dataset(self.prefixes)
        clone._quads = self._quads.copy()
        return clone

    def _indexes(self) -> tuple[dict[Iri, set[Quad]], dict[tuple[Iri, Iri], set[Quad]]]:
        """The by-graph and by-(graph, predicate) indexes, built on first use."""
        if self._index is None:
            by_gp: dict[tuple[Iri, Iri], set[Quad]] = defaultdict(set)
            for q in self._quads:
                by_gp[q[0], q[2]].add(q)
            by_g: dict[Iri, set[Quad]] = defaultdict(set)
            for (graph, _), bucket in by_gp.items():
                by_g[graph] |= bucket
            self._index = by_g, by_gp
        return self._index

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
            pool = self._indexes()[1].get((graph, predicate), ())
            if subject is None and object is None:
                return set(pool)
        else:
            pool = self._quads if graph is None else self._indexes()[0].get(graph, ())
        return {q for q in pool
                if (subject is None or q.subject == subject)
                and (predicate is None or q.predicate == predicate)
                and (object is None or q.object == object)}

    def links(self, graph: Iri, predicate: Iri, inverse: bool = False) -> dict[Iri, list[Iri]]:
        """Per subject, its objects under ``predicate`` in ``graph``, or with
        ``inverse`` per object, its subjects; read from the (graph, predicate)
        index. A list holds distinct terms, in no set order. The grouping is
        shared through ``derived``: callers must not mutate it."""
        def group() -> dict[Iri, list[Iri]]:
            grouped: dict[Iri, list[Iri]] = {}
            for key, value in map(_OBJECT_SUBJECT if inverse else _SUBJECT_OBJECT,
                                  self._indexes()[1].get((graph, predicate), ())):
                grouped.setdefault(key, []).append(value)
            return grouped
        return self.derived(("links", graph, predicate, inverse), group)

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
        return frozenset(map(_TRIPLE, self._indexes()[0].get(graph, ())))

    def terms_of_graph(self, graph: Iri) -> frozenset[Iri]:
        return frozenset(chain.from_iterable(map(_TRIPLE, self._indexes()[0].get(graph, ()))))

    # --- persistence -------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the prefix header, then one quad record per line, each term
        written as ``PrefixTable.compact`` renders it."""
        header = "".join(
            f"@prefix {prefix}: <{namespace}>\n"
            for prefix, namespace in sorted(self.prefixes.namespaces().items())
        )
        quads = sorted(self._quads)
        compact = self.prefixes.compact
        tokens = {term: compact(term) for term in set(chain.from_iterable(quads))}
        it = map(tokens.__getitem__, chain.from_iterable(quads))
        records = "".join(map(_RECORD.__mod__, zip(it, it, it, it)))
        write_replacing(path, header + records)

    @classmethod
    def load(cls, path: str | Path) -> "Dataset":
        ds = cls()
        try:
            text = Path(path).read_text(encoding="utf-8-sig")
        except UnicodeDecodeError as exc:
            raise InvalidIri(f"{path}: not UTF-8 text: {exc}") from exc
        lines = text.splitlines()
        del text
        quad_lines: list[str] = []
        for raw in lines:
            # A line that starts with anything but whitespace, "#" or "@" can
            # only be a quad record. The rest are blank, comments, prefix
            # declarations, indented records or bad.
            if raw[:1].strip() not in _NOT_RECORD_START:
                quad_lines.append(raw)
                continue
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("@prefix"):
                declared = _prefix(line)
                if declared is None:
                    raise _first_error(path, lines)
                ds.prefixes.register(*declared.groups())
                continue
            quad_lines.append(line)
        records = list(map(str.split, quad_lines))
        del quad_lines
        if not {4}.issuperset(map(len, records)):
            raise _first_error(path, lines)
        tokens = list(chain.from_iterable(records))
        del records
        # A declaration holds for the whole file, so a record may come before
        # the declaration it uses. The grammar is _token_fault's.
        namespaces = ds.prefixes.namespaces()
        terms: dict[str, Iri] = {}
        iris: dict[str, Iri] = {}   # text -> its one Iri, whatever its token
        for token in set(tokens):
            if token[0] == "<" and token[-1] == ">":
                text = token[1:-1]
            else:
                name, colon, local = token.partition(":")
                namespace = namespaces.get(name)
                if namespace is None or not colon or token[0] == "<" or token[-1] == ">":
                    raise _first_error(path, lines)
                text = namespace + local
            terms[token] = iris.setdefault(text, _new_iri(text))
        inner = "".join(iris)
        if "" in iris or "<" in inner or ">" in inner:
            raise _first_error(path, lines)
        del lines, inner, iris
        it = map(terms.__getitem__, tokens)
        ds._quads = dict.fromkeys(map(_new_quad, zip(it, it, it, it)))
        return ds


_RECORD = "%s %s %s %s\n"
_NOT_RECORD_START = frozenset(("", "#", "@"))
# The (name, namespace) match of a whole, stripped prefix declaration, or
# None: "@prefix name: <namespace>", with no "<", ">" or whitespace inside
# the namespace. ``\s`` is exactly the space that str.split separates on.
_prefix = re.compile(r"@prefix\s+(\S*):\s+<([^<>\s]*)>").fullmatch
# ``load`` checks the texts for emptiness in bulk, so it skips Iri's check.
_new_iri = partial(str.__new__, Iri)
_new_quad = partial(tuple.__new__, Quad)
_TRIPLE = itemgetter(1, 2, 3)
_SUBJECT_OBJECT = itemgetter(1, 3)
_OBJECT_SUBJECT = itemgetter(3, 1)


def _token_fault(token: str, namespaces: dict[str, str]) -> str | None:
    """What is wrong with a record token, or None when it names a term.

    A token that starts with "<" or ends with ">" is an IRI in brackets:
    "<", the IRI, then ">". Any other token is a prefixed name,
    ``name:local``, split at its first ":"; it names the namespace declared
    for ``name`` followed by ``local``. Either way the term is not empty and
    holds no "<" or ">".
    """
    if token[0] == "<" or token[-1] == ">":
        if token[0] != "<" or token[-1] != ">":
            return "malformed quad record"
        text = token[1:-1]
    else:
        name, colon, local = token.partition(":")
        if not colon:
            return "malformed quad record"
        if name not in namespaces:
            return f"undeclared prefix {name!r} in {token}"
        text = namespaces[name] + local
    if not text:
        return "empty IRI"
    if "<" in text or ">" in text:
        return f"'<' or '>' inside IRI {token}"
    return None


def _first_error(path: str | Path, lines: list[str]) -> InvalidIri:
    """The error for the first bad line of a quad file, in file order.

    ``load`` calls this only once one of its bulk checks has failed, so some
    line is bad. Every well-formed declaration counts, wherever it stands.
    """
    stripped = [raw.strip() for raw in lines]
    namespaces = PrefixTable().namespaces()
    for line in stripped:
        declared = _prefix(line) if line.startswith("@prefix") else None
        if declared is not None:
            namespaces[declared[1]] = declared[2]
    for lineno, line in enumerate(stripped, 1):
        if not line or line.startswith("#"):
            continue
        if line.startswith("@prefix"):
            if _prefix(line) is None:
                return InvalidIri(f"{path}:{lineno}: malformed prefix declaration")
            continue
        fields = line.split()
        if len(fields) != 4:
            return InvalidIri(f"{path}:{lineno}: malformed quad record")
        for token in fields:
            fault = _token_fault(token, namespaces)
            if fault is not None:
                return InvalidIri(f"{path}:{lineno}: {fault}")
    raise AssertionError(f"{path}: a bulk check failed, yet no line is bad")

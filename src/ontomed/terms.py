"""IRIs, namespace prefixes, and the metadata vocabulary constants.

All identifiers are stored fully expanded; prefixed forms only exist at the
serialization boundary (query text, quad files, release descriptors) and are
resolved against a :class:`PrefixTable`. An :class:`Iri` is a ``str``, so
terms hash, compare and sort in C, in the order of their text.
"""

from __future__ import annotations

import re

from .errors import InvalidIri, UnknownPrefix

NS_GLOBAL = "http://www.essi.upc.edu/~snadal/BDIOntology/Global/"
NS_SOURCE = "http://www.essi.upc.edu/~snadal/BDIOntology/Source/"
NS_MAPPING = "http://www.essi.upc.edu/~snadal/BDIOntology/Mapping/"
NS_RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
NS_RDFS = "http://www.w3.org/2000/01/rdf-schema#"
NS_OWL = "http://www.w3.org/2002/07/owl#"
NS_SC = "http://schema.org/"
NS_XSD = "http://www.w3.org/2001/XMLSchema#"

DEFAULT_PREFIXES: dict[str, str] = {
    "G": NS_GLOBAL,
    "S": NS_SOURCE,
    "M": NS_MAPPING,
    "rdf": NS_RDF,
    "rdfs": NS_RDFS,
    "owl": NS_OWL,
    "sc": NS_SC,
    "xsd": NS_XSD,
}

_ABSOLUTE_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.-]*://")


class Iri(str):
    """A fully expanded identifier: a ``str`` of its text, never empty.

    ``str`` caches its hash and compares and sorts in C, so sets and dicts
    match terms, quads and index keys without running Python code, and terms
    sort in text order. An ``Iri`` equals, and hashes like, the ``str`` of its
    text.
    """

    __slots__ = ()

    def __new__(cls, value: str):
        if not value:
            raise InvalidIri("empty IRI")
        return super().__new__(cls, value)

    def __repr__(self) -> str:
        return f"Iri(value={str.__repr__(self)})"


class PrefixTable:
    """Registry mapping namespace prefixes to namespace URIs."""

    def __init__(self, mapping: dict[str, str] | None = None):
        self._table: dict[str, str] = dict(DEFAULT_PREFIXES)
        if mapping:
            self._table.update(mapping)
        # compact's candidates, longest namespace first; None until its first
        # call after a registration.
        self._compact_order: list[tuple[str, str, int]] | None = None

    def register(self, prefix: str, namespace: str) -> None:
        self._table[prefix] = namespace
        self._compact_order = None

    def namespaces(self) -> dict[str, str]:
        return dict(self._table)

    def copy(self) -> "PrefixTable":
        return PrefixTable(self._table)

    def expand(self, text: str) -> Iri:
        """Resolve ``text`` to a full Iri.

        Accepts absolute IRIs (optionally in angle brackets) and prefixed
        names such as ``sup:lagRatio``. Raises :class:`UnknownPrefix` when the
        prefix is not registered.
        """
        if text.startswith("<") and text.endswith(">"):
            return Iri(text[1:-1])
        if _ABSOLUTE_RE.match(text) or text.startswith("urn:"):
            return Iri(text)
        if ":" not in text:
            raise InvalidIri(f"not an IRI or prefixed name: {text!r}")
        prefix, local = text.split(":", 1)
        try:
            namespace = self._table[prefix]
        except KeyError:
            raise UnknownPrefix(f"unregistered prefix {prefix!r} in {text!r}") from None
        return Iri(namespace + local)

    def compact(self, iri: Iri) -> str:
        """Render an Iri as ``name:local`` or, when no namespace fits, ``<iri>``.

        The name is that of the longest registered namespace the IRI starts
        with, ties going to the least name, among the names a saved quad
        file reads back (see ``_readable_name``). Quad files and the
        ``--verbose`` trace both use this one rule.
        """
        if self._compact_order is None:
            self._compact_order = [
                (namespace, prefix + ":", len(namespace))
                for prefix, namespace in sorted(self._table.items(),
                                                key=lambda item: (-len(item[1]), item[0]))
                if _readable_name(prefix)]
        for namespace, head, length in self._compact_order:
            if iri.startswith(namespace):
                return head + iri[length:]
        return f"<{iri}>"


# A prefix name that a quad record can hold: a letter, then letters, digits,
# "_", "-" or ".". A name may be declared without being one (it may be
# empty, hold ":" or start with "#" or "@"), but a token holding it would
# split at the wrong ":" or begin a comment or a declaration.
_readable_name = re.compile(r"[A-Za-z][A-Za-z0-9_.-]*").fullmatch


# --- vocabulary constants (metamodel of the three graphs) ------------------

RDF_TYPE = Iri(NS_RDF + "type")
RDFS_SUBCLASS_OF = Iri(NS_RDFS + "subClassOf")
OWL_SAME_AS = Iri(NS_OWL + "sameAs")

G_CONCEPT = Iri(NS_GLOBAL + "Concept")
G_FEATURE = Iri(NS_GLOBAL + "Feature")
G_HAS_FEATURE = Iri(NS_GLOBAL + "hasFeature")

S_DATA_SOURCE = Iri(NS_SOURCE + "DataSource")
S_WRAPPER = Iri(NS_SOURCE + "Wrapper")
S_ATTRIBUTE = Iri(NS_SOURCE + "Attribute")
S_HAS_WRAPPER = Iri(NS_SOURCE + "hasWrapper")
S_HAS_ATTRIBUTE = Iri(NS_SOURCE + "hasAttribute")

M_MAPPING = Iri(NS_MAPPING + "mapping")

SC_IDENTIFIER = Iri(NS_SC + "identifier")

# Reserved graph identifiers for the three ontology levels.
GLOBAL_GRAPH = Iri(NS_GLOBAL)
SOURCE_GRAPH = Iri(NS_SOURCE)
MAPPINGS_GRAPH = Iri(NS_MAPPING)


def source_iri(name: str) -> Iri:
    return Iri(NS_SOURCE + "DataSource/" + name)


def wrapper_iri(name: str) -> Iri:
    return Iri(NS_SOURCE + "Wrapper/" + name)


def attribute_iri(source: Iri, attr_name: str) -> Iri:
    """Attribute identifiers carry the prefix of their owning source."""
    return Iri(source + "/" + attr_name)


def mapping_graph_iri(wrapper_name: str) -> Iri:
    """Deterministic named-graph id for a wrapper's mapping subgraph."""
    return Iri(NS_MAPPING + "graph/" + wrapper_name)

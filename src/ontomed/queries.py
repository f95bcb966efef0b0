"""Query frontend: a restricted SPARQL template and well-formedness repair.

Accepted queries project IRIs (never variables) through a single-row VALUES
binding and state a connected basic graph pattern of IRIs over the global
graph. Projected concepts are repaired into their identifier features.
"""

from __future__ import annotations

import graphlib
import re
from dataclasses import dataclass

from .errors import (
    CyclicPattern,
    DisconnectedPattern,
    NoIdentifier,
    OmqSyntaxError,
    UnknownIri,
)
from .quadstore import Dataset, Triple
from .sources import wrapper_schemas
from .terms import G_FEATURE, G_HAS_FEATURE, GLOBAL_GRAPH, RDF_TYPE, Iri


@dataclass(frozen=True)
class OmqQuery:
    """A pattern query over the global graph: projections plus a triple pattern."""

    pi: tuple[Iri, ...]
    phi: frozenset[Triple]


# --- lexer ------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<punct>[{}().,])
    | (?P<var>\?[A-Za-z_][A-Za-z0-9_]*)
    | (?P<iriref><[^<>\s]*>)
    | (?P<literal>"[^"]*"|'[^']*'|\d[\w.]*)
    | (?P<word>[A-Za-z][\w-]*:?[\w./#~-]*)
    | (?P<sym>[<>=!*+/|^&@%~$-])
    """,
    re.VERBOSE,
)

_FORBIDDEN = {"filter", "optional", "union", "graph", "bind", "minus", "service"}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise OmqSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup or "ws"
        value = m.group()
        if kind != "ws":
            tokens.append(_Token(kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def last(self) -> _Token:
        """The last token: where an error at the end of the text is reported."""
        return self.tokens[-1] if self.tokens else _Token("ws", "", 1, 1)

    def next(self, expect: str | None = None) -> _Token:
        tok = self.peek()
        if tok is None:
            last = self.last()
            raise OmqSyntaxError("unexpected end of query", last.line, last.column)
        if expect is not None and tok.text.lower() != expect:
            raise OmqSyntaxError(f"expected {expect!r}, found {tok.text!r}", tok.line, tok.column)
        self.pos += 1
        return tok

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "word" and tok.text.lower() == word

    def check_allowed(self, tok: _Token) -> None:
        if tok.kind == "word" and tok.text.lower() in _FORBIDDEN:
            raise OmqSyntaxError(f"{tok.text.upper()} is outside the accepted template", tok.line, tok.column)
        if tok.kind == "literal":
            raise OmqSyntaxError(f"literal {tok.text} is outside the accepted template", tok.line, tok.column)


def parse_omq(text: str, ds: Dataset) -> OmqQuery:
    """Parse query text into projections and pattern, both fully resolved.

    Raises OmqSyntaxError for off-template constructs, UnknownIri for terms
    absent from the global graph, DisconnectedPattern for split patterns.
    """
    p = _Parser(_tokenize(text))
    prefixes = ds.prefixes.copy()

    while p.at_keyword("prefix"):
        p.next()
        name = p.next()
        if name.kind != "word" or not name.text.endswith(":"):
            raise OmqSyntaxError("expected a prefix name ending in ':'", name.line, name.column)
        ns = p.next()
        if ns.kind != "iriref":
            raise OmqSyntaxError("expected a namespace IRI in angle brackets", ns.line, ns.column)
        prefixes.register(name.text[:-1], ns.text[1:-1])

    p.next("select")
    select_vars: list[_Token] = []
    while True:
        tok = p.peek()
        if tok is None:
            last = p.last()
            raise OmqSyntaxError("unexpected end of query after SELECT", last.line, last.column)
        if tok.kind == "var":
            select_vars.append(p.next())
        elif tok.text == ",":
            p.next()
        else:
            break
    if not select_vars:
        tok = p.peek()
        raise OmqSyntaxError("SELECT lists no variables", tok.line, tok.column)
    variables = [tok.text for tok in select_vars]
    repeat = next((tok for i, tok in enumerate(select_vars) if tok.text in variables[:i]), None)
    if repeat is not None:
        raise OmqSyntaxError("duplicate SELECT variable", repeat.line, repeat.column)

    p.next("from")
    from_tok = p.next()
    p.check_allowed(from_tok)
    if from_tok.kind not in ("iriref", "word"):
        raise OmqSyntaxError("FROM must name the global graph", from_tok.line, from_tok.column)
    if _expand_checked(from_tok, prefixes) != GLOBAL_GRAPH:
        raise OmqSyntaxError("FROM must name the global graph", from_tok.line, from_tok.column)

    p.next("where")
    p.next("{")
    p.next("values")
    p.next("(")
    value_tokens: list[_Token] = []
    while p.peek() is not None and p.peek().kind == "var":
        value_tokens.append(p.next())
    value_vars = [tok.text for tok in value_tokens]
    p.next(")")
    p.next("{")
    p.next("(")
    bound: dict[str, Iri] = {}
    for var in value_vars:
        tok = p.next()
        p.check_allowed(tok)
        if tok.kind not in ("iriref", "word"):
            raise OmqSyntaxError(f"VALUES must bind {var} to an IRI", tok.line, tok.column)
        bound[var] = _expand_checked(tok, prefixes)
    p.next(")")
    closing = p.next()
    if closing.text == "(":
        raise OmqSyntaxError("multi-row VALUES is outside the accepted template", closing.line, closing.column)
    if closing.text != "}":
        raise OmqSyntaxError(f"expected '}}', found {closing.text!r}", closing.line, closing.column)
    # Reported at the first VALUES variable that SELECT lacks or that
    # repeats, else at the first SELECT variable that VALUES lacks.
    offending = [tok for i, tok in enumerate(value_tokens)
                 if tok.text not in variables or tok.text in value_vars[:i]]
    offending += [tok for tok in select_vars if tok.text not in bound]
    if offending:
        raise OmqSyntaxError("VALUES must bind every SELECT variable exactly once",
                             offending[0].line, offending[0].column)

    phi: set[Triple] = set()
    while True:
        tok = p.peek()
        if tok is None:
            last = p.last()
            raise OmqSyntaxError("missing closing '}' of WHERE", last.line, last.column)
        if tok.text == "}":
            close = p.next()
            break
        terms = []
        for _ in range(3):
            t = p.next()
            p.check_allowed(t)
            if t.kind == "var":
                raise OmqSyntaxError("variables may not occur in triple patterns", t.line, t.column)
            if t.kind not in ("iriref", "word"):
                raise OmqSyntaxError(f"expected an IRI, found {t.text!r}", t.line, t.column)
            terms.append(_expand_checked(t, prefixes))
        phi.add((terms[0], terms[1], terms[2]))
        nxt = p.peek()
        if nxt is not None and nxt.text == ".":
            p.next()
    trailing = p.peek()
    if trailing is not None:
        raise OmqSyntaxError(f"unexpected trailing {trailing.text!r}", trailing.line, trailing.column)
    if not phi:
        raise OmqSyntaxError("WHERE holds no triple patterns", close.line, close.column)

    known = ds.terms_of_graph(GLOBAL_GRAPH)
    for s, pr, o in sorted(phi):
        for term in (s, pr, o):
            if term not in known:
                raise UnknownIri(f"term <{term}> does not occur in the global graph")
    vertices = {s for s, _, _ in phi} | {o for _, _, o in phi}
    pi = tuple(bound[v] for v in variables)
    for element in pi:
        if element not in vertices:
            raise OmqSyntaxError(f"projected <{element}> is not a vertex of the pattern")
    _check_connected(phi)
    return OmqQuery(pi=pi, phi=frozenset(phi))


def _expand_checked(tok: _Token, prefixes) -> Iri:
    try:
        return prefixes.expand(tok.text)
    except Exception as exc:
        raise OmqSyntaxError(str(exc), tok.line, tok.column) from exc


def _check_connected(phi: set[Triple]) -> None:
    """Raise DisconnectedPattern unless the triples' subjects and objects form
    one connected undirected graph."""
    adjacency: dict[Iri, set[Iri]] = {}
    for s, _, o in phi:
        adjacency.setdefault(s, set()).add(o)
        adjacency.setdefault(o, set()).add(s)
    start = next(iter(adjacency))
    seen = {start}
    frontier = [start]
    while frontier:
        for nxt in adjacency[frontier.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    if len(seen) != len(adjacency):
        raise DisconnectedPattern("the pattern does not form a connected subgraph")


# --- well-formedness repair --------------------------------------------------

def concept_edges(phi: frozenset[Triple] | set[Triple]) -> set[Triple]:
    """Pattern triples that traverse between concepts (everything but hasFeature)."""
    return {t for t in phi if t[1] != G_HAS_FEATURE}


def topological_concepts(phi: frozenset[Triple] | set[Triple]) -> list[Iri]:
    """Concept vertices of the pattern in a deterministic topological order.

    Raises CyclicPattern when the concept edges admit no such order.
    Lexicographic tie-break keeps the output stable.
    """
    edges = concept_edges(phi)
    vertices = {s for s, _, _ in edges} | {o for _, _, o in edges}
    if not vertices:
        vertices = {s for s, _, _ in phi}
    preds: dict[Iri, set[Iri]] = {v: set() for v in vertices}
    for s, _, o in edges:
        preds[o].add(s)
    sorter = graphlib.TopologicalSorter(preds)
    try:
        sorter.prepare()
    except graphlib.CycleError as exc:
        raise CyclicPattern("the pattern has at least one concept cycle") from exc
    order: list[Iri] = []
    while sorter.is_active():
        ready = sorted(sorter.get_ready())
        order += ready
        sorter.done(*ready)
    return order


def well_formed_rewrite(ds: Dataset, q: OmqQuery) -> OmqQuery:
    """Repair projections of concepts into projections of their ID features.

    Each projected element that is not typed as a feature is replaced by all
    of its identifier features (lexicographic order), and the corresponding
    hasFeature triples join the pattern. Raises CyclicPattern when the concept
    edges are not acyclic, NoIdentifier when a repair target has no ID.
    """
    topological_concepts(q.phi)
    catalog = wrapper_schemas(ds)
    pi: list[Iri] = []
    phi = set(q.phi)
    for element in q.pi:
        is_feature = bool(ds.match(GLOBAL_GRAPH, subject=element, predicate=RDF_TYPE, object=G_FEATURE))
        if is_feature:
            if element not in pi:
                pi.append(element)
            continue
        ids = catalog.identifier_features(element)
        if not ids:
            raise NoIdentifier(f"projected concept <{element}> has no identifier feature")
        for feature in ids:
            if feature not in pi:
                pi.append(feature)
            phi.add((element, G_HAS_FEATURE, feature))
    return OmqQuery(pi=tuple(pi), phi=frozenset(phi))

"""Exception hierarchy for the ontomed engine."""

from __future__ import annotations


class OntomedError(Exception):
    """Base class for all engine errors; ``exit_code`` is the command line's exit status."""
    exit_code = 2


# --- term / store level ---------------------------------------------------

class UnknownPrefix(OntomedError):
    """A prefixed identifier uses a namespace prefix that is not registered."""


class InvalidIri(OntomedError):
    """An identifier is empty or neither absolute nor a resolvable prefixed name."""
    exit_code = 4


# --- source model ---------------------------------------------------------

class InvalidWalk(OntomedError):
    """A walk violates the structural rules of the walk algebra."""


# --- release manager ------------------------------------------------------

class InvalidRelease(OntomedError):
    """A release descriptor violates its structural invariants."""


class SubgraphNotInGlobal(InvalidRelease):
    """A release's mapping subgraph contains triples absent from the global graph."""


class DuplicateWrapper(InvalidRelease):
    """A wrapper with the same name is already registered."""


class DanglingFeatureMap(InvalidRelease):
    """The release's attribute-to-feature map references a feature outside its subgraph."""


# --- query frontend -------------------------------------------------------

class OmqSyntaxError(OntomedError):
    """Query text does not match the accepted template."""
    exit_code = 3

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class UnknownIri(OntomedError):
    """A query term does not occur in the global graph."""
    exit_code = 3


class DisconnectedPattern(OntomedError):
    """The query's basic graph pattern is not connected."""
    exit_code = 3


class NoIdentifier(OntomedError):
    """A projected concept has no identifier feature to stand in for it."""
    exit_code = 3


# --- rewriter -------------------------------------------------------------

class NoWrapperForConcept(OntomedError):
    """No wrapper provides all requested features of a concept; the query is unanswerable."""
    exit_code = 3


class NoJoinPath(OntomedError):
    """No walk joins a concept: no mapping named graph provides the pattern edge
    needed, or every join would put two wrappers of one source in a walk."""
    exit_code = 3


class MissingIdAttribute(OntomedError):
    """An edge-providing wrapper lacks the physical attribute for the join identifier."""
    exit_code = 3


# --- executor -------------------------------------------------------------

class MissingColumn(OntomedError):
    """A wrapper data file's header lacks a column for one of the wrapper's
    attributes, or names one more than once."""
    exit_code = 4


class MalformedRow(OntomedError):
    """A data row's arity does not match the header."""
    exit_code = 4


class UnboundWrapper(OntomedError):
    """A walk references a wrapper with no data binding."""
    exit_code = 4


class NoWalks(OntomedError):
    """A union query with zero conjuncts cannot be evaluated."""
    exit_code = 3


# --- workspace / CLI ------------------------------------------------------

class WorkspaceError(OntomedError):
    """The workspace directory is missing or inconsistent."""
    exit_code = 4

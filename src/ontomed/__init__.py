"""Ontology-mediated data integration over evolving wrapper schemas."""

from .executor import eval_ucq
from .quadstore import Dataset
from .releases import apply_release
from .rewriter import rewrite
from .vocab import validate_ontology

__all__ = ["Dataset", "apply_release", "eval_ucq", "rewrite", "validate_ontology"]

__version__ = "0.1.0"

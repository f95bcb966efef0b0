"""Seeded inputs for the ontomed benchmark and the references that check its outputs.

Nothing here imports ontomed. The program under test receives only the files
written here (a global quad file, release descriptors, CSVs, query text), and
every expected output is computed from the same generated rows with plain
dictionaries.

All three workloads use one topology: a chain of concepts C1 -> C2 -> ... where
concept Ci has an identifier feature ``id{i}`` and metric features
``m{i}_{k}``. A wrapper serving Ci carries the identifier attribute ``k{i}``
and, for i > 1, the previous concept's identifier ``k{i-1}`` so that the chain
edge joins on it. Wrappers of one source are versions; wrappers on different
sources are alternatives the union ranges over.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

NS = "http://example.org/perfbench/"
NS_GLOBAL = "http://www.essi.upc.edu/~snadal/BDIOntology/Global/"
HAS_FEATURE = NS_GLOBAL + "hasFeature"
G_CONCEPT = NS_GLOBAL + "Concept"
G_FEATURE = NS_GLOBAL + "Feature"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
RDFS_SUBCLASS_OF = "http://www.w3.org/2000/01/rdf-schema#subClassOf"
SC_IDENTIFIER = "http://schema.org/identifier"


def concept(i: int) -> str:
    return f"{NS}C{i}"


def id_feature(i: int) -> str:
    return f"{NS}id{i}"


def metric(i: int, k: int) -> str:
    return f"{NS}m{i}_{k}"


def edge(i: int) -> str:
    """The chain edge C{i-1} -> C{i}."""
    return f"{NS}e{i}"


def local(iri: str) -> str:
    return iri.rsplit("/", 1)[-1]


def write_global(path: Path, concepts: int, metrics: int) -> None:
    """The chain's global graph as a quad file."""
    records = []

    def g(s: str, p: str, o: str) -> None:
        records.append(f"<{NS_GLOBAL}> <{s}> <{p}> <{o}>")

    for i in range(1, concepts + 1):
        g(concept(i), RDF_TYPE, G_CONCEPT)
        g(id_feature(i), RDF_TYPE, G_FEATURE)
        g(id_feature(i), RDFS_SUBCLASS_OF, SC_IDENTIFIER)
        g(concept(i), HAS_FEATURE, id_feature(i))
        for k in range(1, metrics + 1):
            g(metric(i, k), RDF_TYPE, G_FEATURE)
            g(concept(i), HAS_FEATURE, metric(i, k))
        if i > 1:
            g(concept(i - 1), edge(i), concept(i))
    path.write_text(f"@prefix pb: <{NS}>\n" + "\n".join(records) + "\n", encoding="utf-8")


@dataclass
class Wrapper:
    """One release: a wrapper version of a source serving one concept."""

    name: str
    source: str
    concept: int
    metrics: dict[str, str]                  # metric attribute name -> feature IRI
    new_source: bool = True
    rows: list[dict[str, str]] = field(default_factory=list)
    data_file: str | None = None

    @property
    def id_attrs(self) -> dict[str, str]:
        ids = {f"k{self.concept}": id_feature(self.concept)}
        if self.concept > 1:
            ids[f"k{self.concept - 1}"] = id_feature(self.concept - 1)
        return ids

    @property
    def attrs(self) -> dict[str, str]:
        return {**self.id_attrs, **self.metrics}

    def subgraph(self) -> list[list[str]]:
        i = self.concept
        triples = [[concept(i), HAS_FEATURE, f] for f in sorted(set(self.metrics.values()))]
        triples.append([concept(i), HAS_FEATURE, id_feature(i)])
        if i > 1:
            triples.append([concept(i - 1), edge(i), concept(i)])
            triples.append([concept(i - 1), HAS_FEATURE, id_feature(i - 1)])
        return sorted(triples)

    def attr_for(self, feature: str) -> str | None:
        for attr, f in self.attrs.items():
            if f == feature:
                return attr
        return None

    def descriptor(self) -> dict:
        wrapper = {
            "name": self.name,
            "source": self.source,
            "id_attributes": sorted(self.id_attrs),
            "non_id_attributes": sorted(self.metrics),
        }
        if self.data_file is not None:
            wrapper["data_file"] = self.data_file
        return {"wrapper": wrapper, "subgraph": self.subgraph(), "feature_map": self.attrs}

    def bound(self) -> int:
        """The README's bound on quads one release may add."""
        return (3 + 2 * len(self.attrs) + len(self.subgraph()) + len(self.attrs)
                + (1 if self.new_source else 0))

    def write(self, directory: Path) -> Path:
        """Write the CSV (when the wrapper has rows) and the descriptor; returns the latter."""
        if self.rows:
            header = list(self.attrs)
            data = directory / f"{self.name}.csv"
            with data.open("w", newline="", encoding="utf-8") as fh:
                out = csv.writer(fh, lineterminator="\n")
                out.writerow(header)
                out.writerows([row[a] for a in header] for row in self.rows)
            self.data_file = str(data.resolve())
        path = directory / f"{self.name}.json"
        path.write_text(json.dumps(self.descriptor(), indent=1) + "\n", encoding="utf-8")
        return path


def chain_query(concepts: range, features: list[str], rng: random.Random) -> tuple[str, list[str]]:
    """SELECT the given features over a sub-chain, in a seeded order.

    Returns the query text and the selected features in SELECT order.
    """
    order = list(features)
    rng.shuffle(order)
    variables = [f"?v{n}" for n in range(len(order))]
    triples = [f"<{concept(i)}> <{HAS_FEATURE}> <{f}>"
               for f in order for i in concepts if f.startswith(f"{NS}m{i}_")]
    triples += [f"<{concept(i - 1)}> <{edge(i)}> <{concept(i)}>" for i in concepts if i - 1 in concepts]
    text = (
        "SELECT " + " ".join(variables) + "\n"
        f"FROM <{NS_GLOBAL}>\n"
        "WHERE {\n"
        "  VALUES (" + " ".join(variables) + ") { (" + " ".join(f"<{f}>" for f in order) + ") }\n"
        + " .\n".join("  " + t for t in triples) + "\n"
        "}\n"
    )
    return text, order


# --- references ---------------------------------------------------------------

def chain_walk_keys(per_concept: list[list[Wrapper]]) -> set[tuple[frozenset, frozenset]]:
    """Expected walk keys of a chain query: one wrapper per concept, each joined
    to the previous one on the previous concept's identifier."""
    keys = set()
    for combo in product(*per_concept):
        joins = set()
        for prev, cur in zip(combo, combo[1:]):
            attr = f"k{prev.concept}"
            joins.add(tuple(sorted([(prev.name, attr), (cur.name, attr)])))
        keys.add((frozenset(w.name for w in combo), frozenset(joins)))
    return keys


def chain_join_rows(per_concept: list[list[Wrapper]], select: list[str]) -> set[tuple[str, ...]]:
    """The union over wrapper combinations of a dict join along the chain,
    projected to the selected features.

    Identifier values are unique within a file and metric values are distinct
    across entities, so one combination never yields the same row twice and
    the engine's union (bag within a walk, set across walks) is this set.
    """
    out: set[tuple[str, ...]] = set()
    for combo in product(*per_concept):
        first = combo[0]
        partial = [{f: row[a] for a, f in first.attrs.items()} for row in first.rows]
        for w in combo[1:]:
            key_attr = f"k{w.concept - 1}"
            index: dict[str, list[dict[str, str]]] = {}
            for row in w.rows:
                index.setdefault(row[key_attr], []).append(row)
            joined = []
            for left in partial:
                for row in index.get(left[id_feature(w.concept - 1)], ()):
                    merged = dict(left)
                    merged.update({f: row[a] for a, f in w.attrs.items()})
                    joined.append(merged)
            partial = joined
        rows = [tuple(r[f] for f in select) for r in partial]
        if len(rows) != len(set(rows)):
            raise AssertionError("generated data yields duplicate rows within one combination")
        out.update(rows)
    return out


# --- entity data ----------------------------------------------------------------

class Entities:
    """Per-concept entity universes with a parent link along the chain and one
    base value per (entity, metric feature)."""

    def __init__(self, rng: random.Random, concepts: int, metrics: int, size: int):
        self.rng = rng
        self.parent = {
            i: [rng.randrange(size) if i > 1 else -1 for _ in range(size)]
            for i in range(1, concepts + 1)
        }
        self.value = {
            (i, k): [f"{e}.{rng.randrange(10**4):04d}" for e in range(size)]
            for i in range(1, concepts + 1) for k in range(1, metrics + 1)
        }

    def rows(self, w: Wrapper, members: list[int], variant: float,
             salt: str) -> list[dict[str, str]]:
        """Rows of wrapper ``w`` for the given entities. With probability
        ``variant`` a metric value is the wrapper's own, not the base value."""
        i = w.concept
        rows = []
        for e in members:
            row = {f"k{i}": f"c{i}e{e}"}
            if i > 1:
                row[f"k{i - 1}"] = f"c{i - 1}e{self.parent[i][e]}"
            for attr, feature in w.metrics.items():
                k = int(local(feature).split("_")[1])
                if self.rng.random() < variant:
                    row[attr] = f"{e}.{salt}{self.rng.randrange(10**4):04d}"
                else:
                    row[attr] = self.value[(i, k)][e]
            rows.append(row)
        self.rng.shuffle(rows)
        return rows

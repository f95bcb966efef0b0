"""Evaluation of walk unions over file-backed wrapper relations.

Wrapper data lives in comma-separated files with a header row naming the
attributes. Joins compare raw string values. A single walk is evaluated with
bag semantics; the union across walks removes duplicate rows.

The walks of one union share their work: a query reads each bound file once,
builds each hash table once, and each walk restarts from the longest join
prefix it shares with the walk before it. The rewriter emits walks sorted by
wrapper names, so consecutive walks tend to share long prefixes.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Iterator, Mapping

from .errors import InvalidWalk, MalformedRow, MissingColumn, NoWalks, UnboundWrapper
from .sources import JoinEnd, Ucq, Walk, WrapperSchema


@dataclass
class Relation:
    """A flat table: named columns with an ID or non-ID role, plus rows."""

    columns: list[tuple[str, str]]           # (name, "ID" | "non-ID")
    rows: list[tuple[str, ...]]

    def column_index(self, name: str) -> int:
        for i, (col, _) in enumerate(self.columns):
            if col == name:
                return i
        raise MissingColumn(f"no column named {name}")

    def render(self) -> str:
        header = ",".join(name for name, _ in self.columns)
        return "\n".join([header, *(",".join(row) for row in self.rows)])


@dataclass
class WrapperBinding:
    """Ties a wrapper schema to the data file backing it."""

    wrapper: WrapperSchema
    data_path: str | Path


def load_relation(binding: WrapperBinding) -> Relation:
    """Read a wrapper's data file into a relation with schema-derived roles."""
    schema = binding.wrapper
    path = Path(binding.data_path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise MissingColumn(f"{path}: empty file, header expected") from None
            header = [h.strip() for h in header]
            column_map = {}
            for attr in schema.attrs:
                if attr not in header:
                    raise MissingColumn(f"{path}: header lacks attribute column {attr}")
                column_map[attr] = header.index(attr)
            columns = [(attr, "ID" if attr in schema.id_attrs else "non-ID") for attr in schema.attrs]
            rows = []
            for lineno, raw in enumerate(reader, 2):
                if not raw:
                    continue
                if len(raw) != len(header):
                    raise MalformedRow(f"{path}:{lineno}: expected {len(header)} values, found {len(raw)}")
                rows.append(tuple(raw[column_map[attr]].strip() for attr in schema.attrs))
    except UnicodeDecodeError as exc:
        raise MalformedRow(f"{path}: not UTF-8 text: {exc.reason}") from None
    return Relation(columns=columns, rows=rows)


# One join step: the wrapper joined, its join conditions oriented as (prefix
# endpoint, new-wrapper endpoint), and the wrapper attributes it keeps.
Step = tuple[str, tuple[tuple[JoinEnd, JoinEnd], ...], tuple[str, ...]]


class _SharedBindings(Mapping[str, WrapperBinding]):
    """Wrapper bindings plus the work the walks of one union share.

    Holds each loaded relation, each right-side hash table, and the join
    results of the last walk evaluated, one per step, from its first
    wrapper on.
    """

    def __init__(self, bindings: Mapping[str, WrapperBinding]):
        self._bindings = bindings
        self.relations: dict[str, Relation] = {}
        # (wrapper, kept attributes, key attributes) -> key -> kept rows
        self.tables: dict[tuple, dict[tuple, list[tuple[str, ...]]]] = {}
        self.prefixes: list[tuple[Step, list[tuple[str, str]], list[tuple[str, ...]]]] = []

    def __getitem__(self, name: str) -> WrapperBinding:
        return self._bindings[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._bindings)

    def __len__(self) -> int:
        return len(self._bindings)

    def hash_table(self, name: str, keep: tuple[str, ...],
                   key_attrs: tuple[str, ...]) -> dict[tuple, list[tuple[str, ...]]]:
        """Rows of ``name`` projected to ``keep``, grouped by ``key_attrs``.

        Keys come from the same ``itemgetter`` shape as the probe side: a bare
        value for one key attribute, a tuple for several.
        """
        table = self.tables.get((name, keep, key_attrs))
        if table is None:
            rel = self.relations[name]
            idx = [rel.column_index(a) for a in keep]
            key = itemgetter(*(keep.index(a) for a in key_attrs))
            table = {}
            for row in rel.rows:
                slim = tuple(row[i] for i in idx)
                table.setdefault(key(slim), []).append(slim)
            self.tables[(name, keep, key_attrs)] = table
        return table


def eval_walk(w: Walk, bindings: Mapping[str, WrapperBinding]) -> Relation:
    """Equi-join the walk's wrappers, then project to the walk's attributes.

    Identifier columns are always retained. The result uses qualified column
    names ("wrapper.attribute") and bag semantics. A walk whose join graph is
    disconnected raises ``InvalidWalk``.
    """
    shared = bindings if isinstance(bindings, _SharedBindings) else _SharedBindings(bindings)
    relations = shared.relations
    names = w.names
    for name in names:
        if name not in bindings:
            raise UnboundWrapper(f"wrapper {name} has no data binding")
        if name not in relations:
            relations[name] = load_relation(bindings[name])

    # Plan the hash joins: each step adds the first remaining wrapper that
    # joins the prefix.
    projections = w.projections()

    def kept(name: str) -> tuple[str, ...]:
        wanted = set(projections.get(name, ())) | set(bindings[name].wrapper.id_attrs)
        return tuple(attr for attr, _ in relations[name].columns if attr in wanted)

    steps: list[Step] = [(names[0], (), kept(names[0]))]
    joined = {names[0]}
    remaining = list(names[1:])
    while remaining:
        for name in remaining:
            conds = _join_conds(w, joined, name)
            if conds:
                break
        else:
            raise InvalidWalk(f"walk is disconnected: no join reaches {', '.join(remaining)}")
        remaining.remove(name)
        joined.add(name)
        steps.append((name, tuple(conds), kept(name)))

    # Restart at the longest prefix shared with the previous walk.
    stack = shared.prefixes
    depth = 0
    while depth < min(len(stack), len(steps)) and stack[depth][0] == steps[depth]:
        depth += 1
    del stack[depth:]
    for step in steps[depth:]:
        name, conds, keep = step
        rel = relations[name]
        new_columns = [(f"{name}.{attr}", role) for attr, role in rel.columns if attr in keep]
        if not stack:
            idx = [rel.column_index(a) for a in keep]
            stack.append((step, new_columns, [tuple(row[i] for i in idx) for row in rel.rows]))
            continue
        _, columns, tuples = stack[-1]
        table = shared.hash_table(name, keep, tuple(ra for _, (_, ra) in conds))
        col_names = [c for c, _ in columns]
        left_key = itemgetter(*(col_names.index(f"{lw}.{la}") for (lw, la), _ in conds))
        out = [row + other for row in tuples for other in table.get(left_key(row), ())]
        stack.append((step, columns + new_columns, out))
    _, columns, tuples = stack[-1]
    return Relation(columns=columns, rows=tuples)


def _join_conds(w: Walk, joined: set[str], name: str) -> list[tuple[JoinEnd, JoinEnd]]:
    """Join conditions oriented as (prefix endpoint, new-wrapper endpoint)."""
    conds = []
    for a, b in w.sorted_joins:
        if a[0] in joined and b[0] == name:
            conds.append((a, b))
        elif b[0] in joined and a[0] == name:
            conds.append((b, a))
    return conds


def _column_names(features) -> list[str]:
    """Each feature's last IRI path segment, or its whole IRI where two
    features share that segment."""
    local = [f.rsplit("/", 1)[-1] for f in features]
    clashes = Counter(local)
    return [name if clashes[name] == 1 else str(f) for name, f in zip(local, features)]


def eval_ucq(u: Ucq, bindings: Mapping[str, WrapperBinding]) -> Relation:
    """Evaluate each walk, project to the output features, and union.

    Duplicates within one walk are kept; identical rows contributed by
    different walks are collapsed, in first-seen order. The walks share
    loaded relations, hash tables and join prefixes.
    """
    if not u.walks:
        raise NoWalks("the union has no conjuncts to evaluate")
    out_cols = _column_names(u.output_features)
    shared = _SharedBindings(bindings)
    rows: list[tuple[str, ...]] = []
    seen: set[tuple[str, ...]] = set()
    for walk, binding in zip(u.walks, u.bindings):
        rel = eval_walk(walk, shared)
        idx = []
        for f in u.output_features:
            wrapper, attr = binding[f]
            idx.append(rel.column_index(f"{wrapper}.{attr}"))
        # itemgetter of one index yields a bare value, not a 1-tuple.
        pick = itemgetter(*idx)
        if len(idx) == 1:
            walk_rows = [(pick(row),) for row in rel.rows]
        else:
            walk_rows = list(map(pick, rel.rows))
        for row in walk_rows:
            if row not in seen:
                rows.append(row)
        seen.update(walk_rows)
    return Relation(columns=[(c, "non-ID") for c in out_cols], rows=rows)

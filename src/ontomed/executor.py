"""Evaluation of walk unions over file-backed wrapper relations.

Wrapper data lives in comma-separated files with a header row naming the
attributes. Joins compare raw string values. A single walk is evaluated with
bag semantics and projected to the output ends its binding names, in order;
the union across walks removes duplicate rows.

The walks of one union share their work: a query reads each bound file once,
builds each hash table once, and each walk restarts from the longest join
prefix it shares with the walk before it. The rewriter emits walks sorted by
wrapper names, so consecutive walks tend to share long prefixes.

A union also builds only the rows it can keep. Each join step carries only
the columns that the output or a later join key reads. The final join step of
a walk has a signature: its wrapper, kept attributes and key attributes, the
positions of its join keys in the prefix row, and the positions it picks for
the output. When an earlier walk of the union ended in a step with the same
signature, the final step skips every prefix row that the earlier walk
extended, because each row that prefix row yields is already in the union.
The extended prefix rows are recorded only once a walk has finished, so a
prefix row repeated within one walk is extended each time, as the walk's bag
requires.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass
from itertools import filterfalse
from operator import itemgetter
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .errors import InvalidWalk, MalformedRow, MissingColumn, NoWalks, UnboundWrapper
from .sources import JoinEnd, Ucq, Walk, WrapperSchema

Row = tuple[str, ...]


@dataclass
class Relation:
    """A flat table: named columns plus rows."""

    columns: list[str]
    rows: list[Row]

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise MissingColumn(f"no column named {name}") from None

    def render(self) -> str:
        """CSV text: a header line, then one line per row, quoted where needed."""
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(self.columns)
        writer.writerows(self.rows)
        return out.getvalue()[:-1]      # no newline after the last line


@dataclass
class WrapperBinding:
    """Ties a wrapper schema to the data file backing it."""

    wrapper: WrapperSchema
    data_path: str | Path


def load_relation(binding: WrapperBinding) -> Relation:
    """Read a wrapper's data file into a relation over the schema's attributes."""
    schema = binding.wrapper
    path = Path(binding.data_path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader, None)
                records = list(reader)
            except csv.Error as exc:
                raise MalformedRow(f"{path}:{reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise MalformedRow(f"{path}: not UTF-8 text: {exc.reason}") from None
    if header is None:
        raise MissingColumn(f"{path}: empty file, header expected")
    header = [h.strip() for h in header]
    for attr in schema.attrs:
        if attr not in header:
            raise MissingColumn(f"{path}: header lacks attribute column {attr}")
    width = len(header)
    # A blank line reads as an empty record and is skipped.
    if not {width, 0}.issuperset(map(len, records)):
        # A quoted field may span lines, so read the file again to number the
        # bad record by the line it ends on.
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            next(reader)
            for raw in reader:
                if raw and len(raw) != width:
                    raise MalformedRow(
                        f"{path}:{reader.line_num}: expected {width} values, found {len(raw)}")
    records = list(filter(None, records))
    values = [list(map(str.strip, map(itemgetter(header.index(attr)), records)))
              for attr in schema.attrs]
    return Relation(columns=list(schema.attrs), rows=list(zip(*values)))


def _tuple_getter(positions: Sequence[int]) -> Callable[[Sequence[str]], Row]:
    """Row -> the tuple of its values at ``positions`` (``itemgetter`` alone
    yields a bare value for one position)."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (i,) = positions
        return lambda row: (row[i],)
    return lambda row: ()


class _SharedBindings:
    """Wrapper bindings plus the work the walks of one union share.

    Holds each loaded relation, each right-side hash table, the join results
    of the last walk evaluated, one per step from its first wrapper on, and
    per final-step signature the prefix rows that earlier walks extended.
    """

    def __init__(self, bindings: Mapping[str, WrapperBinding]):
        self.bindings = bindings
        self.relations: dict[str, Relation] = {}
        # (wrapper, kept attributes, key attributes) -> key -> kept rows
        self.tables: dict[tuple, dict[object, list[Row]]] = {}
        self.prefixes: list[tuple[tuple, list[Row]]] = []
        self.extended: dict[tuple, set[Row]] = {}

    def hash_table(self, name: str, keep: tuple[str, ...],
                   key_attrs: tuple[str, ...]) -> dict[object, list[Row]]:
        """Rows of ``name`` projected to ``keep``, grouped by ``key_attrs``.

        Keys come from the same ``itemgetter`` shape as the probe side: a bare
        value for one key attribute, a tuple for several.
        """
        table = self.tables.get((name, keep, key_attrs))
        if table is None:
            rel = self.relations[name]
            key = itemgetter(*map(rel.column_index, key_attrs))
            slim = _tuple_getter([rel.column_index(a) for a in keep])
            table = {}
            for k, row in zip(map(key, rel.rows), map(slim, rel.rows)):
                table.setdefault(k, []).append(row)
            self.tables[(name, keep, key_attrs)] = table
        return table


def eval_walk(w: Walk, bindings: Mapping[str, WrapperBinding],
              output: Sequence[JoinEnd]) -> Relation:
    """Equi-join the walk's wrappers, with bag semantics, projected to ``output``.

    ``output`` lists (wrapper, attribute) ends, each a projected or identifier
    attribute of the walk; the result has one column per end, in that order,
    named "wrapper.attribute". Each join step carries only the columns that
    the output or a later join key reads. A walk whose join graph is
    disconnected raises ``InvalidWalk``, and an end the walk does not keep
    raises ``MissingColumn``.

    Only ``eval_ucq``, which passes its shared bindings, gets the final-step
    pruning: there the rows a skipped prefix row would yield are already in
    the union. With a plain mapping, ``eval_walk`` starts from fresh shared
    state, so it prunes nothing and returns the walk's whole bag over
    ``output``.
    """
    shared = bindings if isinstance(bindings, _SharedBindings) else _SharedBindings(bindings)
    relations = shared.relations
    for name in w.names:
        if name not in shared.bindings:
            raise UnboundWrapper(f"wrapper {name} has no data binding")
        if name not in relations:
            relations[name] = load_relation(shared.bindings[name])
    plan = _plan(w, shared, output)

    # Restart at the longest prefix shared with the previous walk.
    stack = shared.prefixes
    depth = 0
    while depth < min(len(stack), len(plan)) and stack[depth][0] == plan[depth][0]:
        depth += 1
    del stack[depth:]
    rows: list[Row] = stack[-1][1] if depth else []
    last = len(plan) - 1
    for i in range(depth, len(plan)):
        step_key, name, keep, key_attrs, left, pick = plan[i]
        extended = None
        if i == 0:
            rel = relations[name]
            rows = list(map(_tuple_getter([rel.column_index(a) for a in keep]), rel.rows))
        else:
            prefix = rows
            if i == last:
                extended = shared.extended.setdefault((name, keep, key_attrs, left, pick), set())
                if extended:
                    prefix = list(filterfalse(extended.__contains__, prefix))
            table = shared.hash_table(name, keep, key_attrs)
            left_key = itemgetter(*left)
            rows = [row + other for row in prefix for other in table.get(left_key(row), ())]
        if pick is not None:
            rows = list(map(_tuple_getter(pick), rows))
        if extended is not None:
            # The walk is complete, so its prefix rows may now be skipped.
            extended.update(prefix)
            break
        stack.append((step_key, rows))
    return Relation(columns=[f"{wrapper}.{attr}" for wrapper, attr in output], rows=rows)


def _plan(w: Walk, shared: _SharedBindings, output: Sequence[JoinEnd]):
    """The walk's hash-join steps, the last of which picks the ``output`` ends.

    Each step adds the first remaining wrapper that joins the prefix. A step
    is (prefix key, wrapper, kept attributes, right key attributes, left key
    positions in the prefix row, positions picked from the prefix row plus
    the kept attributes, or None to keep them all). Equal prefix keys after
    equal steps give equal rows.
    """
    names = w.names
    order = [(names[0], ())]
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
        order.append((name, tuple(conds)))

    # The ends live after each step: the projected and identifier ends that
    # the output or a later step's left join key reads.
    projections = w.projections()
    kept = {(name, attr) for name in names
            for attr in (*projections.get(name, ()), *shared.bindings[name].wrapper.id_attrs)}
    live = []
    needed = set(output)
    for _, conds in reversed(order):
        live.append(kept & needed)
        needed |= {left for left, _ in conds}
    live.reverse()

    plan = []
    layout: list[JoinEnd] = []
    for i, (name, conds) in enumerate(order):
        keep = tuple(a for a in shared.relations[name].columns if (name, a) in live[i])
        row_ends = layout + [(name, a) for a in keep]
        if i == len(order) - 1:
            target = list(output)
            for wrapper, attr in target:
                if (wrapper, attr) not in row_ends:
                    raise MissingColumn(f"no column named {wrapper}.{attr}")
        else:
            target = [end for end in row_ends if end in live[i]]
        pick = None if target == row_ends else tuple(map(row_ends.index, target))
        left = tuple(layout.index(end) for end, _ in conds)
        plan.append(((name, conds, keep, pick), name, keep,
                     tuple(attr for _, (_, attr) in conds), left, pick))
        layout = target
    return plan


def _join_conds(w: Walk, joined: set[str], name: str) -> list[tuple[JoinEnd, JoinEnd]]:
    """Join conditions oriented as (prefix endpoint, new-wrapper endpoint)."""
    conds = []
    for a, b in w.joins:
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
    loaded relations, hash tables and join prefixes, and a walk skips the
    prefix rows whose extensions an earlier walk already contributed.
    """
    if not u.walks:
        raise NoWalks("the union has no conjuncts to evaluate")
    out_cols = _column_names(u.output_features)
    shared = _SharedBindings(bindings)
    rows: list[Row] = []
    seen: set[Row] = set()
    for walk, binding in zip(u.walks, u.bindings):
        walk_rows = eval_walk(walk, shared, [binding[f] for f in u.output_features]).rows
        # ``seen`` changes only between walks, so a walk keeps its duplicates.
        rows.extend(filterfalse(seen.__contains__, walk_rows))
        seen.update(walk_rows)
    return Relation(columns=out_cols, rows=rows)

"""Evaluation of walk unions over file-backed wrapper relations.

Wrapper data lives in comma-separated files with a header row naming the
attributes. Joins compare raw string values. A single walk is evaluated with
bag semantics and projected to the output ends its binding names, in order;
the union across walks removes duplicate rows.

The walks of one union, which ``eval_ucq`` evaluates, share their work: a
query reads each bound file once and builds each hash table once. Each join
step carries only the columns that the output or a later join key reads.

A union also builds only the rows it can keep. A walk is a plan of hash-join
steps, each (wrapper, kept attributes, key attributes, key positions in the
input row, picked positions), in ``sources.linked_order`` over its joins. At every join step i >= 1, the walk skips an
input row when an earlier walk of the union fed an equal row to step i with
the same remaining plan, steps i to the last. This is sound because the rows
an input row yields through a remaining plan depend only on its values and on
that plan, so by induction over the walks the earlier walk already put every
one of them into the union. A walk's new rows, their duplicates within the
walk, and their order are the same as without the skip.

The union keeps, per remaining plan, the frozen set of rows fed to it. A set
never changes once formed, so the plans fed equal sets that are fed one
step's rows decide the skip once and share the set after. Intermediate join
results live only on the current path, as long as a later walk may restart
from them.
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
from .sources import JoinEnd, Ucq, Walk, WrapperSchema, linked_order

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
        with path.open(newline="", encoding="utf-8-sig") as fh:
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
        if header.count(attr) > 1:
            raise MissingColumn(f"{path}: header names attribute column {attr} more than once")
    width = len(header)
    # A blank line reads as an empty record and is skipped.
    if not {width, 0}.issuperset(map(len, records)):
        # A quoted field may span lines, so read the file again to number the
        # bad record by the line it ends on.
        with path.open(newline="", encoding="utf-8-sig") as fh:
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

    Holds each loaded relation, each right-side hash table, the current path
    of join results, and per remaining plan the frozen set of step input rows
    fed to it. Each entry of the path is (step, its input rows, its output
    rows, memo), where the memo maps each fed set that filtered the output
    rows to the rows it kept and the fed set after, so a memo lives exactly
    as long as the rows it filtered.
    """

    def __init__(self, bindings: Mapping[str, WrapperBinding]):
        self.bindings = bindings
        self.relations: dict[str, Relation] = {}
        # (wrapper, kept attributes, key attributes) -> key -> kept rows
        self.tables: dict[tuple, dict[object, list[Row]]] = {}
        self.path: list[tuple[tuple, list[Row] | None, list[Row], dict]] = []
        self.fed: dict[tuple, frozenset[Row]] = {}

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

    def prune(self, rest: tuple, rows: list[Row], memo: dict) -> list[Row]:
        """``rows`` less those an earlier walk fed to the remaining plan
        ``rest``; the rows kept are then fed to ``rest``.

        ``memo`` belongs to ``rows``: the remaining plans fed equal sets
        filter ``rows`` once and share the set after.
        """
        fed = self.fed.get(rest, frozenset())
        hit = memo.get(fed)
        if hit is None:
            kept = [row for row in rows if row not in fed]
            if len(kept) == len(rows):
                kept = rows
            hit = memo[fed] = (kept, fed.union(kept) if kept else fed)
        kept, self.fed[rest] = hit
        return kept


def eval_walk(w: Walk, shared: _SharedBindings, output: Sequence[JoinEnd]) -> Relation:
    """Equi-join the walk's wrappers, with bag semantics, projected to ``output``.

    ``output`` lists (wrapper, attribute) ends, each a projected or identifier
    attribute of the walk; the result has one column per end, in that order,
    named "wrapper.attribute". Each join step carries only the columns that
    the output or a later join key reads. A walk whose join graph is
    disconnected raises ``InvalidWalk``, and an end the walk does not keep
    raises ``MissingColumn``. ``shared`` is the state of the walk's union:
    the walk skips each step input row that an earlier walk fed to the same
    remaining plan, since its rows are in the union already. From fresh
    state it skips nothing.
    """
    relations = shared.relations
    for name in w.names:
        if name not in shared.bindings:
            raise UnboundWrapper(f"wrapper {name} has no data binding")
        if name not in relations:
            relations[name] = load_relation(shared.bindings[name])
    plan = _plan(w, shared, output)

    path = shared.path
    last = len(plan) - 1
    rows: list[Row] | None = None
    for i, step in enumerate(plan):
        if i:
            rows = shared.prune(plan[i:], rows, path[i - 1][3])
        if i < len(path) and path[i][1] is rows and path[i][0] == step:
            rows = path[i][2]
            continue
        del path[i:]
        name, keep, key_attrs, left, pick = step
        if i == 0:
            rel = relations[name]
            out = list(map(_tuple_getter([rel.column_index(a) for a in keep]), rel.rows))
        else:
            table = shared.hash_table(name, keep, key_attrs)
            left_key = itemgetter(*left)
            out = [row + other for row in rows for other in table.get(left_key(row), ())]
        if pick is not None:
            out = list(map(_tuple_getter(pick), out))
        if i < last:
            path.append((step, rows, out, {}))
        rows = out
    return Relation(columns=[f"{wrapper}.{attr}" for wrapper, attr in output], rows=rows)


def _plan(w: Walk, shared: _SharedBindings, output: Sequence[JoinEnd]):
    """The walk's hash-join steps, the last of which picks the ``output`` ends.

    The steps follow ``linked_order`` over the walk's joins: the least
    wrapper, then each time the least one left that a join links to the
    prefix, on every such join. A step is (wrapper, kept attributes, right key attributes, left key positions in
    the prefix row, positions picked from the prefix row plus the kept
    attributes, or None to keep them all). The rows a step's input row yields
    through the steps from there on depend only on its values and on those
    steps.
    """
    names = w.names
    linked = linked_order(names, [(a[0], b[0], (a, b)) for a, b in w.joins])
    cut = next((i for i, (_, joins) in enumerate(linked) if i and not joins), None)
    if cut is not None:
        remaining = sorted(name for name, _ in linked[cut:])
        raise InvalidWalk(f"walk is disconnected: no join reaches {', '.join(remaining)}")
    # Each join oriented as (prefix end, new-wrapper end).
    order = [(name, tuple((a, b) if b[0] == name else (b, a) for a, b in joins))
             for name, joins in linked]

    # The ends live after each step: the projected and identifier ends that
    # the output or a later step's left join key reads.
    projections = dict(w.steps)
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
        plan.append((name, keep, tuple(attr for _, (_, attr) in conds), left, pick))
        layout = target
    return tuple(plan)


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
    loaded relations, hash tables and join results, and a walk skips each
    step input row that an earlier walk fed to the same remaining plan.
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

"""The benchmark's three workloads.

Each workload writes its inputs from a seeded generator once. Every round
then builds fresh workspaces through the CLI (the set-ups: one, or three on
evolve) and runs the round's measured ops on the last: three ``validate``
ops and one ``query`` op for chain-explain and union-exec, one epoch of the
release stream for evolve.
Every op's output is checked against a reference computed in ``gen`` without
ontomed.
"""

from __future__ import annotations

import random
from pathlib import Path

from gen import (
    Entities,
    Wrapper,
    chain_join_rows,
    chain_query,
    chain_walk_keys,
    local,
    metric,
    write_global,
)

# --- output parsing -------------------------------------------------------------

def parse_walk(line: str) -> tuple[list[str], tuple[frozenset, frozenset]]:
    """Output columns and walk key of one rendered conjunct,
    ``Π{w.a,...}( w1 ⋈[w1.k=w2.k] w2 )``."""
    if not line.startswith("Π{") or "}(" not in line:
        raise ValueError(f"not a conjunct: {line[:80]!r}")
    cols, body = line[2:].split("}(", 1)
    tokens = body.strip().rstrip(")").split()
    names = frozenset(t for t in tokens if not t.startswith("⋈"))
    joins = set()
    for t in tokens:
        if t.startswith("⋈["):
            for cond in t[2:-1].split(","):
                left, right = cond.split("=")
                joins.add(tuple(sorted([tuple(left.split(".", 1)), tuple(right.split(".", 1))])))
    return cols.split(","), (names, frozenset(joins))


def parse_query(stdout: str) -> tuple[int, list[str], list[str]]:
    """Walk count, conjunct lines and the result lines (header first) of a
    ``query`` op's output; the result lines are empty for ``--explain``."""
    lines = stdout.rstrip("\n").split("\n")
    count = int(lines[0].split()[0])
    if lines[0] != f"{count} walk(s)":
        raise ValueError(f"unexpected first line {lines[0]!r}")
    return count, lines[1:1 + count], lines[1 + count:]


def check_conjuncts(lines: list[str], wrappers: dict[str, Wrapper], select: list[str],
                    expected_keys: set) -> bool:
    """Walk keys equal the expected set, and each output column is bound to the
    attribute serving its feature in the walk's wrapper for that concept."""
    keys = set()
    for line in lines:
        cols, key = parse_walk(line)
        keys.add(key)
        by_concept = {wrappers[n].concept: wrappers[n] for n in key[0]}
        for col, feature in zip(cols, select, strict=True):
            owner = by_concept[int(local(feature)[1:].split("_")[0])]
            if col != f"{owner.name}.{owner.attr_for(feature)}":
                return False
    return len(keys) == len(lines) and keys == expected_keys


def check_rows(result: list[str], select: list[str], expected: set) -> bool:
    header, rows = result[0], result[1:]
    if header != ",".join(local(f) for f in select):
        return False
    got = [tuple(r.split(",")) for r in rows]
    return len(got) == len(set(got)) and set(got) == expected


def release_total(stdout: str) -> int:
    for line in stdout.splitlines():
        if line.strip().startswith("total:"):
            return int(line.split(":")[1])
    raise ValueError("release output has no total line")


# --- workloads ----------------------------------------------------------------------

class Workload:
    """Inputs, set-up and measured round of one workload."""

    name = ""
    VALIDATES_PER_ROUND = 3
    SETUPS = 1          # set-ups per round; the round's ops run on the last one

    def __init__(self, seed: int, work: Path, corrupt: bool):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.corrupt = corrupt
        self.inputs = work / "inputs"
        self.inputs.mkdir(parents=True)
        self.global_quads = self.inputs / "global.quads"
        self.initial: list[tuple[Path, Wrapper]] = []

    def release_check(self, w: Wrapper):
        bound = -1 if self.corrupt else w.bound()
        return lambda out: release_total(out) <= bound and f"registered wrapper {w.name}" in out

    def setup(self, bench, ws: Path) -> None:
        """Build the workspace through the CLI: ``init`` plus the initial releases."""
        bench.run("init", ["init", str(ws), "--global-graph", str(self.global_quads)],
                  lambda out: out.startswith("initialized workspace"))
        for path, w in self.initial:
            bench.run("release", ["-w", str(ws), "release", str(path)], self.release_check(w),
                      bound=w.bound())

    def validate(self, bench, ws: Path, traced: bool = False) -> None:
        bench.run("validate", ["-w", str(ws), "validate"],
                  lambda out: out.strip() == "ok: 0 violations", traced=traced)

    def round(self, bench, ws: Path, traced: bool) -> None:
        """Validates, which sample ``validate_s`` across the whole run and are
        never traced, then the measured query."""
        for _ in range(self.VALIDATES_PER_ROUND):
            self.validate(bench, ws)
        self.query(bench, ws, traced)

    def warmup(self, bench, ws: Path) -> None:
        """One untimed query, so that the page cache and lazy imports are warm."""
        self.query(bench, ws, traced=False)

    def final_check(self, bench) -> None:
        """Once-per-run checks made outside the timed region."""

    def write_initial(self, wrappers: list[Wrapper]) -> None:
        self.initial = [(w.write(self.inputs), w) for w in wrappers]


class ChainExplain(Workload):
    """``query --explain`` over a 5-concept chain with W wrappers per concept,
    each on its own source: the W^C worst case of the rewriter."""

    name = "chain-explain"
    CONCEPTS = 5
    WRAPPERS = 5

    def prepare(self) -> None:
        write_global(self.global_quads, self.CONCEPTS, 1)
        self.per_concept = [
            [Wrapper(f"w{i}_{j}", f"s{i}_{j}", i, {f"m{i}_1": metric(i, 1)})
             for j in range(1, self.WRAPPERS + 1)]
            for i in range(1, self.CONCEPTS + 1)
        ]
        wrappers = [w for ws in self.per_concept for w in ws]
        self.by_name = {w.name: w for w in wrappers}
        self.rng.shuffle(wrappers)
        self.write_initial(wrappers)
        text, self.select = chain_query(range(1, self.CONCEPTS + 1),
                                        [metric(i, 1) for i in range(1, self.CONCEPTS + 1)], self.rng)
        self.query_file = self.inputs / "chain.rq"
        self.query_file.write_text(text, encoding="utf-8")
        self.walks = self.WRAPPERS ** self.CONCEPTS + (1 if self.corrupt else 0)
        self.first_output: tuple[int, str] | None = None

    def query(self, bench, ws: Path, traced: bool) -> None:
        def check(out: str) -> bool:
            count, lines, rest = parse_query(out)
            return count == self.walks and len(lines) == count and not rest

        op = bench.run("query", ["-w", str(ws), "query", "--explain", str(self.query_file)], check,
                       traced=traced)
        if self.first_output is None:
            self.first_output = (op.index, bench.last_stdout)

    def final_check(self, bench) -> None:
        index, stdout = self.first_output
        expected = chain_walk_keys(self.per_concept)
        if self.corrupt:
            expected.pop()
        _, lines, _ = parse_query(stdout)
        if not check_conjuncts(lines, self.by_name, self.select, expected):
            bench.fail(index, "walk keys or output bindings differ from the chain construction")


class UnionExec(Workload):
    """Full ``query`` over a 3-concept chain with 4 wrappers per concept, each
    bound to a CSV of about 2,000 rows that partly overlap across the
    wrappers of one concept: 64 walks whose union collapses real duplicates."""

    name = "union-exec"
    CONCEPTS = 3
    WRAPPERS = 4
    ENTITIES = 2600
    ROWS = 2000

    def prepare(self) -> None:
        write_global(self.global_quads, self.CONCEPTS, 1)
        entities = Entities(self.rng, self.CONCEPTS, 1, self.ENTITIES)
        self.per_concept = []
        for i in range(1, self.CONCEPTS + 1):
            ws = []
            for j in range(1, self.WRAPPERS + 1):
                w = Wrapper(f"w{i}_{j}", f"s{i}_{j}", i, {f"m{i}_1": metric(i, 1)})
                members = self.rng.sample(range(self.ENTITIES), self.ROWS)
                w.rows = entities.rows(w, members, 0.05, f"w{j}")
                ws.append(w)
            self.per_concept.append(ws)
        wrappers = [w for ws in self.per_concept for w in ws]
        self.by_name = {w.name: w for w in wrappers}
        self.rng.shuffle(wrappers)
        self.write_initial(wrappers)
        text, self.select = chain_query(range(1, self.CONCEPTS + 1),
                                        [metric(i, 1) for i in range(1, self.CONCEPTS + 1)], self.rng)
        self.query_file = self.inputs / "union.rq"
        self.query_file.write_text(text, encoding="utf-8")
        self.keys = chain_walk_keys(self.per_concept)
        self.rows = chain_join_rows(self.per_concept, self.select)
        for w in wrappers:
            w.rows = []     # written and joined; peak RSS should be the program's
        if self.corrupt:
            self.rows.add(tuple("corrupt" for _ in self.select))

    def query(self, bench, ws: Path, traced: bool) -> None:
        def check(out: str) -> bool:
            count, lines, result = parse_query(out)
            return (count == len(self.keys)
                    and check_conjuncts(lines, self.by_name, self.select, self.keys)
                    and check_rows(result, self.select, self.rows))

        bench.run("query", ["-w", str(ws), "query", str(self.query_file)], check, traced=traced)


class Evolve(Workload):
    """The paper's scenario: a stream of releases onto a 20-concept chain,
    mostly new versions of registered sources (attribute adds, renames and
    drops), the rest new sources. A standing query over a 3-concept sub-chain
    runs after every release, and every third step also runs ``validate``.

    One round is one epoch: the whole stream, applied to the round's fresh
    set-up.
    """

    name = "evolve"
    SETUPS = 3
    CONCEPTS = 20
    METRICS = 10
    INITIAL_METRICS = 8
    QUERY_LEN = 3
    RELEASES_PER_CONCEPT = 2
    NEW_SOURCES = 10
    VALIDATE_EVERY = 3
    ENTITIES = 40
    MEMBERS = 30

    def prepare(self) -> None:
        rng = self.rng
        write_global(self.global_quads, self.CONCEPTS, self.METRICS)
        self.entities = Entities(rng, self.CONCEPTS, self.METRICS, self.ENTITIES)
        first = rng.randint(1, self.CONCEPTS - self.QUERY_LEN + 1)
        self.query_concepts = list(range(first, first + self.QUERY_LEN))
        self.requested = {i: metric(i, rng.randint(1, self.METRICS)) for i in self.query_concepts}
        self.latest: dict[str, Wrapper] = {}        # source -> its latest version

        initial = []
        for i in range(1, self.CONCEPTS + 1):
            features = rng.sample([metric(i, k) for k in range(1, self.METRICS + 1)],
                                  self.INITIAL_METRICS)
            if i in self.requested and self.requested[i] not in features:
                features[0] = self.requested[i]
            initial.append(self.new_wrapper(f"s{i}a", i, 1, {local(f): f for f in features}, True))
        self.write_initial(initial)

        self.stream = [(w.write(self.inputs), w) for w in self.plan_stream()]
        text, self.select = chain_query(range(first, first + self.QUERY_LEN),
                                        [self.requested[i] for i in self.query_concepts], rng)
        self.query_file = self.inputs / "standing.rq"
        self.query_file.write_text(text, encoding="utf-8")

    def new_wrapper(self, source: str, i: int, version: int, metrics: dict[str, str],
                    new_source: bool) -> Wrapper:
        w = Wrapper(f"{source}_v{version}", source, i, metrics, new_source=new_source)
        members = sorted(self.rng.sample(range(self.ENTITIES), self.MEMBERS))
        w.rows = self.entities.rows(w, members, 0.1, f"{source}{version}")
        self.latest[source] = w
        return w

    def plan_stream(self) -> list[Wrapper]:
        """A fixed mix of release kinds in a seeded order.

        The query concepts' releases sit at fixed steps (a new version of each,
        then a new source for each), so the standing query's walk count
        follows the same sequence for every seed. The other concepts' releases
        fill the remaining steps in a seeded order.
        """
        rng = self.rng
        others = [i for i in range(1, self.CONCEPTS + 1) if i not in self.query_concepts]
        slots = [(i, "version") for i in others for _ in range(self.RELEASES_PER_CONCEPT)]
        new_sources = self.NEW_SOURCES - len(self.query_concepts)
        for i in rng.sample(others, new_sources):
            slots[slots.index((i, "version"))] = (i, "source")
        rng.shuffle(slots)
        fixed = ([(i, "version") for i in self.query_concepts]
                 + [(i, "source") for i in self.query_concepts])
        length = len(slots) + len(fixed)
        positions = [round((n + 1) * length / (len(fixed) + 1)) for n in range(len(fixed))]
        for pos, slot in zip(positions, fixed):
            slots.insert(pos, slot)
        versions = [kind for kind in ("add", "rename", "drop") for _ in range(len(slots) // 3 + 1)]
        rng.shuffle(versions)

        stream = []
        for i, kind in slots:
            if kind == "source":
                features = rng.sample([metric(i, k) for k in range(1, self.METRICS + 1)],
                                      self.INITIAL_METRICS)
                if i in self.requested and self.requested[i] not in features:
                    features[0] = self.requested[i]
                stream.append(self.new_wrapper(f"s{i}b", i, 1, {local(f): f for f in features}, True))
            else:
                prev = self.latest[f"s{i}a"]
                version = int(prev.name.rsplit("_v", 1)[1]) + 1
                stream.append(self.new_wrapper(prev.source, i, version,
                                               self.change(prev, versions.pop(), version), False))
        return stream

    def change(self, prev: Wrapper, kind: str, version: int) -> dict[str, str]:
        """The next version's metric attributes: one attribute added, renamed or
        dropped. Attribute names encode their feature, so a name never maps to
        two features, and the standing query's feature is never dropped."""
        metrics = dict(prev.metrics)
        i = prev.concept
        protected = self.requested.get(i)
        unmapped = [metric(i, k) for k in range(1, self.METRICS + 1)
                    if metric(i, k) not in metrics.values()]
        droppable = [a for a, f in metrics.items() if f != protected]
        if kind == "drop" and len(droppable) < 2:
            kind = "add"
        if kind == "add" and not unmapped:
            kind = "rename"
        if kind == "add":
            f = self.rng.choice(unmapped)
            metrics[local(f)] = f
        elif kind == "rename":
            old = self.rng.choice(sorted(metrics))
            f = metrics.pop(old)
            metrics[f"{local(f)}_v{version}"] = f
        else:
            del metrics[self.rng.choice(sorted(droppable))]
        return metrics

    def warmup(self, bench, ws: Path) -> None:
        self.standing_query(bench, ws, [[w for _, w in self.initial if w.concept == i]
                                        for i in self.query_concepts], traced=False)

    def round(self, bench, ws: Path, traced: bool) -> None:
        per_concept = {i: [w for _, w in self.initial if w.concept == i] for i in self.query_concepts}
        for step, (path, w) in enumerate(self.stream, 1):
            bench.run("release", ["-w", str(ws), "release", str(path)], self.release_check(w),
                      traced=traced, bound=w.bound())
            if w.concept in per_concept:
                per_concept[w.concept].append(w)
            self.standing_query(bench, ws, [per_concept[i] for i in self.query_concepts], traced)
            if step % self.VALIDATE_EVERY == 0:
                self.validate(bench, ws, traced=traced)

    def standing_query(self, bench, ws: Path, per_concept: list[list[Wrapper]], traced: bool) -> None:
        walks = 1
        for ws_ in per_concept:
            walks *= len(ws_)

        def check(out: str) -> bool:
            count, lines, result = parse_query(out)
            if count != walks or len(lines) != count:
                return False
            expected = chain_join_rows(per_concept, self.select)
            if self.corrupt:
                expected.add(tuple("corrupt" for _ in self.select))
            return check_rows(result, self.select, expected)

        bench.run("query", ["-w", str(ws), "query", str(self.query_file)], check, traced=traced)


WORKLOADS = {cls.name: cls for cls in (ChainExplain, UnionExec, Evolve)}

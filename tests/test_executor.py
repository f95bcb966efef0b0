"""Executor: relation loading, walk joins, union semantics."""

import random
from collections import Counter
from itertools import product

import pytest

from ontomed import executor
from ontomed.errors import InvalidWalk, MalformedRow, MissingColumn, NoWalks, UnboundWrapper
from ontomed.executor import WrapperBinding, eval_ucq, eval_walk, load_relation
from ontomed.rewriter import rewrite
from ontomed.sources import SourceId, Ucq, Walk, WrapperSchema
from ontomed.terms import Iri

from conftest import MONITOR_QUERY, W1_ROWS, write_csv
from oracles import nested_loop_join


class TestLoadRelation:
    def test_roles_follow_schema(self, demo_bindings):
        rel = load_relation(demo_bindings["W1"])
        assert rel.columns == [("VoDmonitorId", "ID"), ("lagRatio", "non-ID")]
        assert rel.rows == W1_ROWS

    def test_column_order_independent_of_file(self, tmp_path, releases):
        path = tmp_path / "w1r.csv"
        write_csv(path, ["lagRatio", "VoDmonitorId"], [("0.75", "12")])
        rel = load_relation(WrapperBinding(releases["W1"].wrapper, path))
        assert rel.rows == [("12", "0.75")]

    def test_empty_file_with_header(self, tmp_path, releases):
        path = tmp_path / "w1e.csv"
        write_csv(path, ["VoDmonitorId", "lagRatio"], [])
        assert load_relation(WrapperBinding(releases["W1"].wrapper, path)).rows == []

    def test_missing_column(self, tmp_path, releases):
        path = tmp_path / "w1m.csv"
        write_csv(path, ["VoDmonitorId"], [("12",)])
        with pytest.raises(MissingColumn):
            load_relation(WrapperBinding(releases["W1"].wrapper, path))

    def test_malformed_row(self, tmp_path, releases):
        path = tmp_path / "w1b.csv"
        path.write_text("VoDmonitorId,lagRatio\n12\n", encoding="utf-8")
        with pytest.raises(MalformedRow):
            load_relation(WrapperBinding(releases["W1"].wrapper, path))


def joined_walk():
    w = Walk.single("W1", ["lagRatio", "VoDmonitorId"]).merge(Walk.single("W3", ["TargetApp"]))
    return w.with_join(("W1", "VoDmonitorId"), ("W3", "MonitorId"))


class TestEvalWalk:
    def test_hand_joined_rows(self, demo_bindings):
        rel = eval_walk(joined_walk(), demo_bindings)
        names = [c for c, _ in rel.columns]
        pick = [names.index("W1.lagRatio"), names.index("W1.VoDmonitorId"),
                names.index("W3.TargetApp")]
        got = {tuple(r[i] for i in pick) for r in rel.rows}
        assert got == {("0.75", "12", "1"), ("0.90", "12", "1"), ("0.1", "18", "2")}

    def test_single_wrapper_keeps_ids(self, demo_bindings):
        rel = eval_walk(Walk.single("W1", ["lagRatio"]), demo_bindings)
        assert [c for c, _ in rel.columns] == ["W1.VoDmonitorId", "W1.lagRatio"]
        assert all(role == "ID" for c, role in rel.columns if c.endswith("VoDmonitorId"))

    def test_no_matching_keys(self, tmp_path, releases, demo_bindings):
        path = tmp_path / "w3x.csv"
        write_csv(path, ["TargetApp", "MonitorId", "FeedbackId"], [("9", "99", "999")])
        bindings = dict(demo_bindings)
        bindings["W3"] = WrapperBinding(releases["W3"].wrapper, path)
        assert eval_walk(joined_walk(), bindings).rows == []

    def test_unbound_wrapper(self, demo_bindings):
        bindings = {k: v for k, v in demo_bindings.items() if k != "W3"}
        with pytest.raises(UnboundWrapper):
            eval_walk(joined_walk(), bindings)

    def test_disconnected_walk_rejected(self, demo_bindings):
        w = Walk.single("W1", ["lagRatio"]).merge(Walk.single("W3", ["TargetApp"]))
        with pytest.raises(InvalidWalk):
            eval_walk(w, demo_bindings)

    def test_matches_nested_loop_oracle(self, tmp_path, releases):
        rng = random.Random(20240818)
        for trial in range(40):
            pool = ["a", "b", "c", "x"]
            w1_rows = [(rng.choice(pool), rng.choice(pool))
                       for _ in range(rng.randint(0, 8))]
            w3_rows = [(rng.choice(pool), rng.choice(pool), rng.choice(pool))
                       for _ in range(rng.randint(0, 8))]
            write_csv(tmp_path / "w1.csv", ["VoDmonitorId", "lagRatio"], w1_rows)
            write_csv(tmp_path / "w3.csv", ["TargetApp", "MonitorId", "FeedbackId"], w3_rows)
            bindings = {
                "W1": WrapperBinding(releases["W1"].wrapper, tmp_path / "w1.csv"),
                "W3": WrapperBinding(releases["W3"].wrapper, tmp_path / "w3.csv"),
            }
            rel = eval_walk(joined_walk(), bindings)
            cols, expected = nested_loop_join(
                [(["VoDmonitorId", "lagRatio"], w1_rows),
                 (["TargetApp", "MonitorId", "FeedbackId"], w3_rows)],
                [((0, "VoDmonitorId"), (1, "MonitorId"))],
            )
            pick = [cols.index("0.VoDmonitorId"), cols.index("0.lagRatio"),
                    cols.index("1.TargetApp"), cols.index("1.MonitorId")]
            expected_rows = sorted(tuple(r[i] for i in pick) for r in expected)
            names = [c for c, _ in rel.columns]
            got_pick = [names.index("W1.VoDmonitorId"), names.index("W1.lagRatio"),
                        names.index("W3.TargetApp"), names.index("W3.MonitorId")]
            got_rows = sorted(tuple(r[i] for i in got_pick) for r in rel.rows)
            assert got_rows == expected_rows, f"trial {trial}"


class TestEvalUcq:
    def test_worked_union_result(self, pre_evolution_ds, demo_bindings):
        ucq = rewrite(MONITOR_QUERY, pre_evolution_ds)
        rel = eval_ucq(ucq, demo_bindings)
        assert set(rel.rows) == {("1", "0.75"), ("1", "0.90"), ("2", "0.1")}
        assert len(rel.rows) == 3

    def test_duplicate_rows_across_walks_collapsed(self, post_evolution_ds, demo_bindings):
        # The second wrapper version replays the first one's rows under a
        # different attribute name, so the union dedupes them.
        ucq = rewrite(MONITOR_QUERY, post_evolution_ds)
        rel = eval_ucq(ucq, demo_bindings)
        assert set(rel.rows) == {("1", "0.75"), ("1", "0.90"), ("2", "0.1")}
        assert len(rel.rows) == 3

    def test_result_invariant_under_walk_order(self, post_evolution_ds, demo_bindings):
        ucq = rewrite(MONITOR_QUERY, post_evolution_ds)
        flipped = Ucq(walks=list(reversed(ucq.walks)),
                      output_features=ucq.output_features,
                      bindings=list(reversed(ucq.bindings)))
        a = eval_ucq(ucq, demo_bindings)
        b = eval_ucq(flipped, demo_bindings)
        assert set(a.rows) == set(b.rows)

    def test_clashing_column_names_fall_back_to_the_iri(self, tmp_path):
        schema = WrapperSchema("W", SourceId("S"), ("p",), ("q", "r"))
        write_csv(tmp_path / "w.csv", ["p", "q", "r"], [("1", "2", "3")])
        bindings = {"W": WrapperBinding(schema, tmp_path / "w.csv")}
        ax, bx, y = Iri("http://a/x"), Iri("http://b/x"), Iri("http://c/y")
        ends = {ax: ("W", "p"), bx: ("W", "q"), y: ("W", "r")}
        walk = Walk.single("W", ["p", "q", "r"])
        rel = eval_ucq(Ucq(walks=[walk], output_features=(ax, bx, y), bindings=[ends]), bindings)
        assert rel.render() == "http://a/x,http://b/x,y\n1,2,3"
        # Local names that do not clash stay as they are.
        rel = eval_ucq(Ucq(walks=[walk], output_features=(y, ax), bindings=[ends]), bindings)
        assert rel.render() == "y,x\n3,1"

    def test_zero_walks_rejected(self, demo_bindings):
        empty = Ucq(walks=[], output_features=(), bindings=[])
        with pytest.raises(NoWalks):
            eval_ucq(empty, demo_bindings)


# Three concepts with two wrappers each. B and C wrappers carry both
# identifiers, so walks are A⋈B or A⋈B⋈C, with C joined on either identifier,
# and consecutive walks share join prefixes.
CHAIN_SCHEMAS = {
    name: WrapperSchema(name, SourceId(f"S{name}"), ids, (value,))
    for concept, ids, value in (("A", ("aid",), "x"), ("B", ("aid", "bid"), "y"),
                                ("C", ("aid", "bid"), "z"))
    for name in (f"{concept}1", f"{concept}2")
}
FX, FY = Iri("http://example.org/fx"), Iri("http://example.org/fy")


def chain_walk(a, b, c=None, via="bid", project_z=False):
    w = Walk.single(a, ["x"]).merge(Walk.single(b, ["y"]))
    w = w.with_join((a, "aid"), (b, "aid"))
    if c is not None:
        w = w.merge(Walk.single(c, ["z"] if project_z else []))
        w = w.with_join((a if via == "aid" else b, via), (c, via))
    return w


def chain_tables(rng):
    """Random rows per wrapper over a small value pool, so keys repeat."""
    pool = ["0", "1", "2"]
    return {name: [tuple(rng.choice(pool) for _ in schema.attrs)
                   for _ in range(rng.randint(0, 6))]
            for name, schema in CHAIN_SCHEMAS.items()}


def chain_bindings(tmp_path, tables):
    bindings = {}
    for name, rows in tables.items():
        path = tmp_path / f"{name}.csv"
        write_csv(path, list(CHAIN_SCHEMAS[name].attrs), rows)
        bindings[name] = WrapperBinding(CHAIN_SCHEMAS[name], path)
    return bindings


def random_chain_ucq(rng):
    walks = [chain_walk(a, b) for a, b in product(["A1", "A2"], ["B1", "B2"])]
    walks += [chain_walk(a, b, c, via, z) for a, b, c, via, z in
              product(["A1", "A2"], ["B1", "B2"], ["C1", "C2"], ["aid", "bid"], [False, True])]
    walks = rng.sample(walks, rng.randint(1, len(walks)))
    if rng.random() < 0.7:
        walks.sort(key=lambda w: (w.steps, sorted(w.joins)))   # the rewriter's order
    bindings = [{FX: (w.names[0], "x"), FY: (w.names[1], "y")}
                for w in walks]
    return Ucq(walks=walks, output_features=(FX, FY), bindings=bindings)


def reference_union(ucq, tables):
    """Per-walk nested-loop joins, then bag within a walk, first-seen across walks."""
    rows, seen = [], set()
    for walk in ucq.walks:
        names = walk.names
        joins = [((names.index(lw), la), (names.index(rw), ra)) for (lw, la), (rw, ra) in walk.joins]
        cols, joined = nested_loop_join(
            [(list(CHAIN_SCHEMAS[n].attrs), tables[n]) for n in names], joins)
        pick = [cols.index("0.x"), cols.index("1.y")]
        walk_rows = [tuple(r[i] for i in pick) for r in joined]
        rows += [r for r in walk_rows if r not in seen]
        seen.update(walk_rows)
    return rows


class TestSharedUnion:
    def test_matches_per_walk_oracle_and_order(self, tmp_path):
        rng = random.Random(20261018)
        for trial in range(60):
            tables = chain_tables(rng)
            ucq = random_chain_ucq(rng)
            rel = eval_ucq(ucq, chain_bindings(tmp_path, tables))
            assert rel.rows == reference_union(ucq, tables), f"trial {trial}"

    def test_each_wrapper_loaded_once(self, tmp_path, monkeypatch):
        rng = random.Random(5)
        bindings = chain_bindings(tmp_path, chain_tables(rng))
        loads = Counter()

        def counting(binding):
            loads[binding.wrapper.name] += 1
            return load_relation(binding)
        monkeypatch.setattr(executor, "load_relation", counting)
        ucq = random_chain_ucq(rng)
        eval_ucq(ucq, bindings)
        used = {name for w in ucq.walks for name in w.names}
        assert loads == Counter(used)

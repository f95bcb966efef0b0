"""Executor: relation loading, walk joins, union semantics."""

import csv
import io
import random
import re
from collections import Counter
from itertools import product

import pytest

from ontomed import executor
from ontomed.errors import InvalidWalk, MalformedRow, MissingColumn, NoWalks, UnboundWrapper
from ontomed.executor import WrapperBinding, eval_ucq, eval_walk, load_relation
from ontomed.rewriter import rewrite
from ontomed.sources import Ucq, Walk, WrapperSchema
from ontomed.terms import Iri

from conftest import MONITOR_QUERY, W1_ROWS, write_csv
from oracles import nested_loop_join


class TestLoadRelation:
    def test_columns_follow_schema(self, demo_bindings):
        rel = load_relation(demo_bindings["W1"])
        assert rel.columns == ["VoDmonitorId", "lagRatio"]
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

    def test_malformed_row_reports_its_line(self, tmp_path, releases):
        rows = [(str(i), f"0.{i}") for i in range(2000)]
        rows[999] = ("999",)                      # on line 1001, after the header
        path = tmp_path / "w1big.csv"
        write_csv(path, ["VoDmonitorId", "lagRatio"], rows)
        expected = f"^{re.escape(str(path))}:1001: expected 2 values, found 1$"
        with pytest.raises(MalformedRow, match=expected):
            load_relation(WrapperBinding(releases["W1"].wrapper, path))

    def test_malformed_row_after_multiline_field_reports_its_line(self, tmp_path, releases):
        path = tmp_path / "w1q.csv"
        path.write_text('VoDmonitorId,lagRatio\n1,"two\nlines"\n3,4\n5\n', encoding="utf-8")
        expected = f"^{re.escape(str(path))}:5: expected 2 values, found 1$"
        with pytest.raises(MalformedRow, match=expected):
            load_relation(WrapperBinding(releases["W1"].wrapper, path))

    def test_blank_lines_skipped_and_values_stripped(self, tmp_path, releases):
        path = tmp_path / "w1s.csv"
        path.write_text(" VoDmonitorId , lagRatio\n\n 12 ,0.75 \n\n18,0.1\n", encoding="utf-8")
        rel = load_relation(WrapperBinding(releases["W1"].wrapper, path))
        assert rel.rows == [("12", "0.75"), ("18", "0.1")]

    def test_csv_error_names_file_and_line(self, tmp_path, releases):
        path = tmp_path / "w1l.csv"
        path.write_text("VoDmonitorId,lagRatio\n12,0.75\n18," + "9" * 131_073 + "\n",
                        encoding="utf-8")
        expected = f"^{re.escape(str(path))}:3: field larger than field limit"
        with pytest.raises(MalformedRow, match=expected):
            load_relation(WrapperBinding(releases["W1"].wrapper, path))


def joined_walk():
    w = Walk.single("W1", ["lagRatio", "VoDmonitorId"]).merge(Walk.single("W3", ["TargetApp"]))
    return w.with_join(("W1", "VoDmonitorId"), ("W3", "MonitorId"))


# Every projected and identifier end of ``joined_walk``.
JOINED_ENDS = [("W1", "VoDmonitorId"), ("W1", "lagRatio"),
               ("W3", "TargetApp"), ("W3", "MonitorId")]


class TestEvalWalk:
    def test_hand_joined_rows(self, demo_bindings):
        rel = eval_walk(joined_walk(), demo_bindings, JOINED_ENDS)
        names = rel.columns
        pick = [names.index("W1.lagRatio"), names.index("W1.VoDmonitorId"),
                names.index("W3.TargetApp")]
        got = {tuple(r[i] for i in pick) for r in rel.rows}
        assert got == {("0.75", "12", "1"), ("0.90", "12", "1"), ("0.1", "18", "2")}

    def test_no_matching_keys(self, tmp_path, releases, demo_bindings):
        path = tmp_path / "w3x.csv"
        write_csv(path, ["TargetApp", "MonitorId", "FeedbackId"], [("9", "99", "999")])
        bindings = dict(demo_bindings)
        bindings["W3"] = WrapperBinding(releases["W3"].wrapper, path)
        assert eval_walk(joined_walk(), bindings, JOINED_ENDS).rows == []

    def test_unbound_wrapper(self, demo_bindings):
        bindings = {k: v for k, v in demo_bindings.items() if k != "W3"}
        with pytest.raises(UnboundWrapper):
            eval_walk(joined_walk(), bindings, JOINED_ENDS)

    def test_disconnected_walk_rejected(self, demo_bindings):
        w = Walk.single("W1", ["lagRatio"]).merge(Walk.single("W3", ["TargetApp"]))
        with pytest.raises(InvalidWalk):
            eval_walk(w, demo_bindings, [("W1", "lagRatio"), ("W3", "TargetApp")])

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
            rel = eval_walk(joined_walk(), bindings, JOINED_ENDS)
            cols, expected = nested_loop_join(
                [(["VoDmonitorId", "lagRatio"], w1_rows),
                 (["TargetApp", "MonitorId", "FeedbackId"], w3_rows)],
                [((0, "VoDmonitorId"), (1, "MonitorId"))],
            )
            pick = [cols.index("0.VoDmonitorId"), cols.index("0.lagRatio"),
                    cols.index("1.TargetApp"), cols.index("1.MonitorId")]
            expected_rows = sorted(tuple(r[i] for i in pick) for r in expected)
            names = rel.columns
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
        schema = WrapperSchema("W", "S", ("p",), ("q", "r"))
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

    def test_render_quotes_values_that_need_it(self, tmp_path):
        schema = WrapperSchema("W", "S", ("p",), ("q",))
        (tmp_path / "w.csv").write_text('p,q\n"a,b","say ""hi"""\nc,d\n', encoding="utf-8")
        bindings = {"W": WrapperBinding(schema, tmp_path / "w.csv")}
        fp, fq = Iri("http://a/p"), Iri("http://a/q")
        ucq = Ucq(walks=[Walk.single("W", ["p", "q"])], output_features=(fp, fq),
                  bindings=[{fp: ("W", "p"), fq: ("W", "q")}])
        text = eval_ucq(ucq, bindings).render()
        assert text == 'p,q\n"a,b","say ""hi"""\nc,d'
        assert list(csv.reader(io.StringIO(text))) == [["p", "q"], ["a,b", 'say "hi"'], ["c", "d"]]

    # W1 has lagRatio but the walk does not project it; W1 has no bufferingRatio.
    @pytest.mark.parametrize("attr", ["lagRatio", "bufferingRatio"])
    def test_output_end_the_walk_does_not_keep_rejected(self, demo_bindings, attr):
        walk = Walk.single("W1").merge(Walk.single("W3", ["TargetApp"]))
        walk = walk.with_join(("W1", "VoDmonitorId"), ("W3", "MonitorId"))
        lag, app = Iri("http://a/lag"), Iri("http://a/app")
        ucq = Ucq(walks=[walk], output_features=(lag, app),
                  bindings=[{lag: ("W1", attr), app: ("W3", "TargetApp")}])
        with pytest.raises(MissingColumn, match=rf"^no column named W1\.{attr}$"):
            eval_ucq(ucq, demo_bindings)

    def test_zero_walks_rejected(self, demo_bindings):
        empty = Ucq(walks=[], output_features=(), bindings=[])
        with pytest.raises(NoWalks):
            eval_ucq(empty, demo_bindings)


# Three concepts with two wrappers each. B and C wrappers carry both
# identifiers, so walks are A⋈B or A⋈B⋈C, with C joined on either identifier,
# and consecutive walks share join prefixes.
CHAIN_SCHEMAS = {
    name: WrapperSchema(name, f"S{name}", ids, (value,))
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


def reference_walk(walk, binding, features, tables):
    """A walk's nested-loop join, projected to its bound output ends."""
    names = walk.names
    joins = [((names.index(lw), la), (names.index(rw), ra)) for (lw, la), (rw, ra) in walk.joins]
    cols, joined = nested_loop_join(
        [(list(CHAIN_SCHEMAS[n].attrs), tables[n]) for n in names], joins)
    pick = [cols.index(f"{names.index(binding[f][0])}.{binding[f][1]}") for f in features]
    return [tuple(r[i] for i in pick) for r in joined]


def reference_union(ucq, tables):
    """Per-walk nested-loop joins, then bag within a walk, first-seen across walks."""
    rows, seen = [], set()
    for walk, binding in zip(ucq.walks, ucq.bindings):
        walk_rows = reference_walk(walk, binding, ucq.output_features, tables)
        rows += [r for r in walk_rows if r not in seen]
        seen.update(walk_rows)
    return rows


def random_bound_ucq(rng):
    """Walks in random order, each binding both output features to random
    ends it keeps, so that walks ending in the same step pick different
    columns of equal prefix rows."""
    pool = [chain_walk(a, b) for a, b in product(["A1", "A2"], ["B1", "B2"])]
    pool += [chain_walk(a, b, c, "bid", z) for a, b, c, z in
             product(["A1", "A2"], ["B1", "B2"], ["C1", "C2"], [False, True])]
    walks = rng.sample(pool, rng.randint(1, len(pool)))
    bindings = []
    for w in walks:
        ends = sorted({(n, a) for n in w.names for a in CHAIN_SCHEMAS[n].id_attrs}
                      | w.projected_pairs())
        bindings.append({FX: rng.choice(ends), FY: rng.choice(ends)})
    return Ucq(walks=walks, output_features=(FX, FY), bindings=bindings)


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

    def test_pruning_matches_oracle_and_order(self, tmp_path):
        rng = random.Random(20261019)
        for trial in range(60):
            tables = chain_tables(rng)
            ucq = random_bound_ucq(rng)
            rel = eval_ucq(ucq, chain_bindings(tmp_path, tables))
            assert rel.rows == reference_union(ucq, tables), f"trial {trial}"

    # Pairs of walks whose final steps join C1 from equal prefix rows and
    # differ in one part of the step's signature, so the second walk must
    # extend the rows the first one extended.
    FZ = Iri("http://example.org/fz")
    A2_B1_C1_VIA_B_AID = (Walk.single("A2", ["x"]).merge(Walk.single("B1", ["y"]))
                          .with_join(("A2", "aid"), ("B1", "aid"))
                          .merge(Walk.single("C1", [])).with_join(("B1", "aid"), ("C1", "aid")))
    SIGNATURE_CASES = {
        # FX is bound to A's x, then to B1's y: the picks are swapped.
        "pick": ([chain_walk("A1", "B1", "C1"), chain_walk("A2", "B1", "C1")],
                 [{FX: ("A1", "x"), FY: ("B1", "y")}, {FX: ("B1", "y"), FY: ("A2", "x")}],
                 dict(A1=[("0", "p")], A2=[("0", "p")], B1=[("0", "1", "r")],
                      C1=[("0", "1", "s")]),
                 [("p", "r"), ("r", "p")]),
        # C1 keeps z for one walk and aid for the other.
        "keep": ([chain_walk("A1", "B1", "C1", project_z=True),
                  chain_walk("A2", "B1", "C1", project_z=True)],
                 [{FX: ("A1", "x"), FY: ("C1", "z")}, {FX: ("A2", "x"), FY: ("C1", "aid")}],
                 dict(A1=[("0", "p")], A2=[("0", "p")], B1=[("0", "1", "r")],
                      C1=[("7", "1", "s")]),
                 [("p", "s"), ("p", "7")]),
        # C1 joins from prefix position 1 both times, on bid, then on aid.
        "key": ([chain_walk("A1", "B1", "C1"), A2_B1_C1_VIA_B_AID],
                [{FX: ("A1", "x"), FY: ("B1", "y")}, {FX: ("A2", "x"), FY: ("B1", "y")}],
                dict(A1=[("0", "p")], A2=[("1", "p")], B1=[("0", "1", "r"), ("1", "1", "r")],
                     C1=[("1", "7", "s")]),
                [("p", "r")]),
        # C1 joins on aid from prefix position 0, then from position 1.
        "left": ([chain_walk("A1", "B1", "C1", via="aid"), A2_B1_C1_VIA_B_AID],
                 [{FX: ("A1", "x"), FY: ("B1", "y"), FZ: ("A1", "aid")},
                  {FX: ("B1", "aid"), FY: ("B1", "y"), FZ: ("A2", "x")}],
                 dict(A1=[("0", "1")], A2=[("1", "0")], B1=[("0", "5", "r"), ("1", "5", "r")],
                      C1=[("1", "9", "s")]),
                 [("1", "r", "0")]),
    }

    @pytest.mark.parametrize("part", sorted(SIGNATURE_CASES))
    def test_shared_final_step_differing_in_one_part(self, tmp_path, part):
        walks, bindings, rows, expected = self.SIGNATURE_CASES[part]
        tables = {name: [] for name in CHAIN_SCHEMAS} | rows
        features = tuple(bindings[0])
        ucq = Ucq(walks=walks, output_features=features, bindings=bindings)
        rel = eval_ucq(ucq, chain_bindings(tmp_path, tables))
        assert rel.rows == reference_union(ucq, tables) == expected

    def test_duplicates_within_a_walk_kept_and_repeats_skipped(self, tmp_path, monkeypatch):
        tables = {name: [] for name in CHAIN_SCHEMAS}
        tables.update(A1=[("0", "p"), ("0", "p")], A2=[("0", "p")],
                      B1=[("0", "1", "r")], C1=[("0", "1", "s")])
        walks = [chain_walk("A1", "B1", "C1"), chain_walk("A2", "B1", "C1")]
        ucq = Ucq(walks=walks, output_features=(FX, FY),
                  bindings=[{FX: (w.names[0], "x"), FY: ("B1", "y")} for w in walks])
        built = []

        def counting(*args):
            rel = eval_walk(*args)
            built.append(len(rel.rows))
            return rel
        monkeypatch.setattr(executor, "eval_walk", counting)
        rel = eval_ucq(ucq, chain_bindings(tmp_path, tables))
        assert rel.rows == reference_union(ucq, tables) == [("p", "r"), ("p", "r")]
        # The second walk's one prefix row was extended by the first walk.
        assert built == [2, 0]

    def test_direct_eval_walk_returns_the_whole_bag(self, tmp_path):
        # With plain bindings nothing is pruned, even after eval_ucq ran.
        rng = random.Random(7)
        for trial in range(20):
            tables = chain_tables(rng)
            bindings = chain_bindings(tmp_path, tables)
            ucq = random_bound_ucq(rng)
            eval_ucq(ucq, bindings)
            for walk, binding in zip(ucq.walks, ucq.bindings):
                output = [binding[f] for f in ucq.output_features]
                expected = reference_walk(walk, binding, ucq.output_features, tables)
                rel = eval_walk(walk, bindings, output)
                assert rel.columns == [f"{w}.{a}" for w, a in output]
                assert rel.rows == expected, f"trial {trial}"

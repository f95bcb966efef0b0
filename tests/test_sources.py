"""Walk algebra: canonical form, equivalence, the oracle's validity check,
the compiled catalog, coverage and minimality."""

import pickle
import random
import sys
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontomed.bench import build_chain_instance, chain_query
from ontomed.errors import InvalidWalk
from ontomed.quadstore import Dataset, Quad
from ontomed.queries import parse_omq, well_formed_rewrite
from ontomed.releases import Release, apply_release
from ontomed.rewriter import rewrite
from ontomed.sources import (
    Catalog,
    LavMasks,
    Ucq,
    Walk,
    WrapperSchema,
    _SPACE,
    coverage,
    linked_order,
    minimality,
    wrapper_schemas,
)
from ontomed.terms import G_HAS_FEATURE, GLOBAL_GRAPH, RDFS_SUBCLASS_OF, SC_IDENTIFIER, Iri
from ontomed.vocab import validate_ontology

from conftest import MONITOR_QUERY, make_global_dataset, make_releases
from generators import make_instance, make_union, make_wide_instance
from oracles import (
    _lav_triples,
    reference_linked_order,
    reference_render,
    reference_render_body,
    validate_walk,
    walk_key,
    with_join,
)


def make_catalog():
    """The demo's catalog after W1, W3 and W4: W1 and W4 share source D1, and
    W1.VoDmonitorId, W3.MonitorId and W4.VoDmonitorId map one identifier."""
    ds, releases = make_global_dataset(), make_releases()
    for name in ("W1", "W3", "W4"):
        ds, _ = apply_release(ds, releases[name])
    return wrapper_schemas(ds)


def joined_walk():
    w = Walk.single("W1", ["lagRatio", "VoDmonitorId"]).merge(Walk.single("W3", ["TargetApp"]))
    return with_join(w, ("W1", "VoDmonitorId"), ("W3", "MonitorId"))


NAMES, ATTRS = ("A", "B", "C", "D"), ("a", "b", "c")


class TestCompiledWalk:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_cached_fields_follow_steps_and_joins(self, data):
        # Each walk is kept next to a model of its value: wrapper -> projected
        # attributes, and the join set.
        def single():
            name = data.draw(st.sampled_from(NAMES))
            attrs = data.draw(st.lists(st.sampled_from(ATTRS), min_size=1, max_size=3))
            return Walk.single(name, attrs), ({name: set(attrs)}, frozenset())

        ends = st.tuples(st.sampled_from(NAMES), st.sampled_from(ATTRS))
        pool = [single()]
        ops = st.sampled_from(["single", "merge", "add_wrapper", "with_join", "with_step"])
        for op in data.draw(st.lists(ops, max_size=12)):
            walk, (steps, joins) = data.draw(st.sampled_from(pool))
            if op == "single":
                walk, (steps, joins) = single()
            elif op == "merge":
                other, (other_steps, other_joins) = data.draw(st.sampled_from(pool))
                # Merging folds the builder over the other walk's steps.
                folded = walk
                for step in other.steps:
                    folded = folded.with_step(step)
                walk = walk.merge(other)
                assert (walk.steps, walk.names) == (folded.steps, folded.names)
                steps = {name: steps.get(name, set()) | other_steps.get(name, set())
                         for name in steps.keys() | other_steps.keys()}
                joins = joins | other_joins
            elif op == "add_wrapper":
                name = data.draw(st.sampled_from(NAMES))
                walk, steps = walk.add_wrapper(name), {name: set(), **steps}
            elif op == "with_join":
                a, b = data.draw(ends), data.draw(ends)
                walk, joins = with_join(walk, a, b), joins | {tuple(sorted((a, b)))}
            else:
                # A held wrapper's projection is merged, a new wrapper goes
                # in name order and each join, given in any order, lands in
                # its sorted place.
                name = data.draw(st.sampled_from(NAMES))
                attrs = set(data.draw(st.lists(st.sampled_from(ATTRS), max_size=3)))
                pairs = data.draw(st.lists(st.tuples(ends, ends), max_size=3))
                new = [join for join in dict.fromkeys(tuple(sorted(pair)) for pair in pairs)
                       if join not in joins]
                walk = walk.with_step((name, tuple(sorted(attrs))), new)
                steps = {**steps, name: steps.get(name, set()) | attrs}
                joins = joins | set(new)
            pool.append((walk, (steps, joins)))

        # The model's canonical form: sorted steps, and the joins sorted.
        pool = [(walk, (tuple(sorted((name, tuple(sorted(attrs))) for name, attrs in steps.items())),
                        tuple(sorted(joins))))
                for walk, (steps, joins) in pool]
        for walk, (steps, joins) in pool:
            names = tuple(name for name, _ in steps)
            assert (walk.steps, walk.names, walk.joins) == (steps, names, joins)
            direct = Walk(steps=steps, names=names, joins=joins)
            assert direct == walk and hash(direct) == hash(walk)
            assert walk_key(walk) == (frozenset(names), frozenset(joins))
            assert direct.render() == walk.render()
            assert walk.render_body() == reference_render_body(walk)
            assert pickle.loads(pickle.dumps(walk)) == walk
            assert_plain_walk(walk)
        # A union formats each join once for all of its walks.
        ucq = Ucq(walks=[walk for walk, _ in pool], output_features=(), bindings=[{} for _ in pool])
        assert ucq.render().split("\n") == ["Π{}" + reference_render_body(walk) for walk, _ in pool]
        # Equality, hashing and order follow (steps, joins).
        for (a, model_a), (b, model_b) in product(pool, repeat=2):
            assert (a == b) == (model_a == model_b)
            assert (a < b) == (model_a < model_b)
            assert a != b or hash(a) == hash(b)
        with pytest.raises(AttributeError):
            walk.names = ()

    def test_phase3_builds_plain_walks(self):
        # Phase 3 builds its candidates in C, as the builders do.
        ucq = rewrite(chain_query(4), build_chain_instance(4, 3))
        for walk in ucq.walks:
            assert_plain_walk(walk)


class TestUnionRender:
    """``Ucq.render`` formats each line in one pass and each end and join
    once per union; the reference renders each walk on its own."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_per_walk_reference(self, seed):
        ucq = make_union(random.Random(seed))
        assert ucq.render() == reference_render(ucq)
        assert [w.render_body() for w in ucq.walks] == [reference_render_body(w) for w in ucq.walks]


def assert_plain_walk(walk):
    """A walk built without the NamedTuple's constructor is still a plain
    Walk, equal to and hashing like the one that constructor builds."""
    rebuilt = Walk(*walk)
    assert type(walk) is Walk
    assert walk == rebuilt and hash(walk) == hash(rebuilt)


class TestWalkStructure:
    def test_merge_unions_projections_per_wrapper(self):
        merged = Walk.single("W1", ["a"]).merge(Walk.single("W1", ["b"]))
        assert dict(merged.steps) == {"W1": ("a", "b")}
        # The builder merges a held wrapper's projection the same way, puts a
        # new wrapper in name order and each join in its sorted place.
        walk = Walk.single("W2", ["b"]).with_step(("W1", ("a",)))
        assert walk.with_step(("W2", ("a", "c"))).steps == (("W1", ("a",)), ("W2", ("a", "b", "c")))
        joins = [(("W1", "a"), ("W3", "c")), (("W1", "a"), ("W2", "b"))]
        grown = walk.with_step(("W3", ("c",)), joins)
        assert grown == Walk(steps=(("W1", ("a",)), ("W2", ("b",)), ("W3", ("c",))),
                             names=("W1", "W2", "W3"), joins=tuple(sorted(joins)))

    def test_join_is_canonically_oriented(self):
        a = with_join(Walk.single("W1").merge(Walk.single("W3")), ("W1", "x"), ("W3", "y"))
        b = with_join(Walk.single("W1").merge(Walk.single("W3")), ("W3", "y"), ("W1", "x"))
        assert a.joins == b.joins

    def test_equivalence_ignores_projections(self):
        a = joined_walk()
        b = Walk.single("W1", ["lagRatio"]).merge(Walk.single("W3", ["MonitorId"]))
        b = with_join(b, ("W1", "VoDmonitorId"), ("W3", "MonitorId"))
        assert walk_key(a) == walk_key(b)
        assert a != b

    def test_equivalence_distinguishes_wrappers_and_joins(self):
        a = joined_walk()
        c = with_join(Walk.single("W4").merge(Walk.single("W3")),
                      ("W4", "VoDmonitorId"), ("W3", "MonitorId"))
        assert walk_key(a) != walk_key(c)

    def test_connectivity(self):
        # A walk's join graph must span its wrappers; the oracle's validity
        # check is the reference for that rule.
        validate_walk(Walk.single("W1"), make_catalog())
        unjoined = Walk.single("W1").merge(Walk.single("W3"))
        with pytest.raises(InvalidWalk, match="not connected"):
            validate_walk(unjoined, make_catalog())
        validate_walk(joined_walk(), make_catalog())

    def test_render_is_deterministic(self):
        assert joined_walk().render() == (
            "π{W1.VoDmonitorId,W1.lagRatio,W3.TargetApp}"
            "( W1 ⋈[W1.VoDmonitorId=W3.MonitorId] W3 )"
        )


class TestWalkValidity:
    def test_valid_walk_passes(self):
        validate_walk(joined_walk(), make_catalog())

    def test_join_on_non_id_attribute_rejected(self):
        w = with_join(Walk.single("W1").merge(Walk.single("W3")),
                      ("W1", "lagRatio"), ("W3", "MonitorId"))
        with pytest.raises(InvalidWalk):
            validate_walk(w, make_catalog())

    def test_join_of_two_identifiers_rejected(self):
        w = with_join(Walk.single("W1").merge(Walk.single("W3")),
                      ("W1", "VoDmonitorId"), ("W3", "TargetApp"))
        with pytest.raises(InvalidWalk, match="different identifier features"):
            validate_walk(w, make_catalog())

    def test_shared_source_rejected(self):
        w = with_join(Walk.single("W1").merge(Walk.single("W4")),
                      ("W1", "VoDmonitorId"), ("W4", "VoDmonitorId"))
        with pytest.raises(InvalidWalk):
            validate_walk(w, make_catalog())

    def test_disconnected_rejected(self):
        with pytest.raises(InvalidWalk):
            validate_walk(Walk.single("W1").merge(Walk.single("W3")), make_catalog())

    def test_unknown_projection_rejected(self):
        with pytest.raises(InvalidWalk):
            validate_walk(Walk.single("W1", ["nope"]), make_catalog())

    def test_schema_rejects_overlapping_roles(self):
        with pytest.raises(InvalidWalk):
            WrapperSchema("w", "d", ("a",), ("a",))

    def test_name_check_refuses_exactly_the_record_separators(self):
        # Over every code point: the regex the schema tests names with
        # matches the characters str.isspace accepts, which are the ones
        # str.split() separates a quad record's fields on.
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        spaces = "".join(filter(str.isspace, every))
        assert "".join(_SPACE.findall(every)) == spaces
        assert "".join(every.split()) == every.translate(dict.fromkeys(map(ord, spaces)))
        for ch in ("\u00a0", "\u2028", "\x1c", "\u3000"):
            with pytest.raises(InvalidWalk, match="contains whitespace"):
                WrapperSchema(f"w{ch}1", "d", ("a",), ())


class TestCatalogDerivation:
    def test_schemas_rebuilt_from_source_graph(self, pre_evolution_ds, releases):
        catalog = wrapper_schemas(pre_evolution_ds)
        assert set(catalog) == {"W1", "W2", "W3"}
        assert catalog["W1"] == releases["W1"].wrapper
        assert catalog["W3"].id_attrs == ("FeedbackId", "MonitorId", "TargetApp")

    def test_id_role_follows_identifier_subclass(self, pre_evolution_ds):
        catalog = wrapper_schemas(pre_evolution_ds)
        assert "lagRatio" in catalog["W1"].non_id_attrs
        assert "VoDmonitorId" in catalog["W1"].id_attrs

    def test_identifiers_close_over_subclass(self):
        # a ⊑ b ⊑ sc:identifier ⊑ top: a and sc:identifier itself are
        # identifiers, top is not; the attributes' ID roles follow.
        c, a, b, top = (Iri("http://example.org/" + n) for n in ("C", "a", "b", "top"))
        features = (a, SC_IDENTIFIER, top)
        ds = Dataset()
        for sub, sup in ((a, b), (b, SC_IDENTIFIER), (SC_IDENTIFIER, top)):
            ds._add(Quad(GLOBAL_GRAPH, sub, RDFS_SUBCLASS_OF, sup))
        for f in features:
            ds._add(Quad(GLOBAL_GRAPH, c, G_HAS_FEATURE, f))
        ds, _ = apply_release(ds, Release(
            WrapperSchema("W", "D", (), ("x", "y", "z")),
            frozenset((c, G_HAS_FEATURE, f) for f in features),
            dict(zip(("x", "y", "z"), features)),
        ))
        catalog = wrapper_schemas(ds)
        assert catalog.identifier_features(c) == tuple(sorted((a, SC_IDENTIFIER)))
        assert catalog.identifier_features(a) == ()
        assert catalog["W"].id_attrs == ("x", "y")
        assert catalog["W"].non_id_attrs == ("z",)

    def test_one_catalog_per_snapshot(self, pre_evolution_ds):
        assert wrapper_schemas(pre_evolution_ds) is wrapper_schemas(pre_evolution_ds)

    def test_release_compiles_a_new_catalog(self, pre_evolution_ds, releases):
        before = wrapper_schemas(pre_evolution_ds)
        grown, _ = apply_release(pre_evolution_ds, releases["W4"])
        assert "W4" in wrapper_schemas(grown)
        assert "W4" not in before
        assert "W4" not in wrapper_schemas(pre_evolution_ds)

    @pytest.mark.parametrize("compile_", [Catalog, validate_ontology], ids=["catalog", "validate"])
    def test_lookups_do_not_grow_with_wrappers(self, monkeypatch, compile_):
        # Each loop over wrappers, attributes or features reads a bucket
        # grouped once before it, not one store lookup per item.
        small, large = build_chain_instance(3, 2), build_chain_instance(3, 6)
        calls = []
        match = Dataset.match

        def counted(self, *args, **kw):
            calls.append(1)
            return match(self, *args, **kw)

        monkeypatch.setattr(Dataset, "match", counted)
        counts = []
        for ds in (small, large):
            calls.clear()
            compile_(ds)
            counts.append(len(calls))
        assert counts[0] == counts[1]


class TestCoverageMinimality:
    @pytest.fixture
    def masks(self, pre_evolution_ds):
        wf = well_formed_rewrite(pre_evolution_ds, parse_omq(MONITOR_QUERY, pre_evolution_ds))
        return LavMasks(wf.phi, wrapper_schemas(pre_evolution_ds))

    def test_joined_walk_covers_and_is_minimal(self, masks):
        w = joined_walk()
        assert coverage(w, masks)
        assert minimality(w, masks)

    def test_single_wrapper_does_not_cover(self, masks):
        assert not coverage(Walk.single("W1"), masks)

    def test_superfluous_wrapper_breaks_minimality(self, masks):
        w = with_join(joined_walk().merge(Walk.single("W2")), ("W2", "FGId"), ("W3", "FeedbackId"))
        assert coverage(w, masks)
        assert not minimality(w, masks)

    def test_minimality_requires_coverage(self, masks):
        # W1 alone holds a pattern triple no other wrapper of the walk holds,
        # so it is minimal without covering: only coverage and minimality
        # together keep a walk.
        walk = Walk.single("W1")
        assert masks["W1"]
        assert minimality(walk, masks)
        assert not coverage(walk, masks)

    def test_unmapped_wrapper_holds_no_pattern_triple(self, masks):
        # "ghost" is in no catalog and has no mapping graph.
        assert masks["ghost"] == 0
        assert not coverage(Walk.single("ghost"), masks)

    def test_unmapped_wrapper_breaks_minimality_on_every_lookup(self, masks):
        walk = joined_walk().merge(Walk.single("ghost"))
        for _ in range(2):
            assert coverage(walk, masks)
            assert not minimality(walk, masks)
        assert "ghost" not in masks

    @pytest.mark.parametrize("make", [make_instance, make_wide_instance],
                             ids=lambda make: make.__name__)
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_masks_agree_with_triple_containment(self, make, data):
        # The reference reads each wrapper's mapping graph from the quads and
        # compares plain triple sets: a walk is minimal when each of its
        # wrappers holds a pattern triple that no other of them holds.
        ds, query = make(random.Random(data.draw(st.integers(0, 2**32 - 1))))
        wf = well_formed_rewrite(ds, parse_omq(query, ds))
        masks = LavMasks(wf.phi, wrapper_schemas(ds))
        names = sorted(wrapper_schemas(ds))
        goal = set(wf.phi)
        for _ in range(4):
            chosen = data.draw(st.sets(st.sampled_from(names), min_size=1))
            walk = Walk.single(min(chosen))
            for name in chosen:
                walk = walk.add_wrapper(name)
            lav = {name: _lav_triples(ds, name) & goal for name in chosen}
            covers = goal <= set().union(*lav.values())
            assert coverage(walk, masks) == covers
            irredundant = all(lav[m] - set().union(*(lav[o] for o in chosen if o != m))
                              for m in chosen)
            assert minimality(walk, masks) == irredundant
            if covers:
                # On a covering walk, that is: dropping any wrapper breaks coverage.
                assert irredundant == all(
                    not goal <= set().union(*(lav[m] for m in chosen if m != dropped))
                    for dropped in chosen)


class TestLinkedOrder:
    def test_matches_the_rule_restated(self):
        # Links are drawn over a pool wider than the nodes, so some reach
        # outside them; repeated draws give self-loops and parallel links.
        rng = random.Random(20261020)
        seen = dict.fromkeys(["self-loop", "parallel", "outside", "isolated"], 0)
        for trial in range(400):
            pool = [f"n{i}" for i in range(rng.randint(1, 9))]
            nodes = rng.sample(pool, rng.randint(1, len(pool)))
            ends = [(rng.choice(pool), rng.choice(pool)) for _ in range(rng.randint(0, 10))]
            links = [(u, v, value) for value, (u, v) in enumerate(ends)]
            order = linked_order(nodes, links)
            assert order == reference_linked_order(nodes, links), f"trial {trial}"
            seen["self-loop"] += any(u == v and u in nodes for u, v in ends)
            seen["parallel"] += len({frozenset(e) for e in ends}) < len(ends)
            seen["outside"] += any(u not in nodes or v not in nodes for u, v in ends)
            seen["isolated"] += any(all(n not in e for e in ends) for n in nodes)
        assert all(seen.values()), seen

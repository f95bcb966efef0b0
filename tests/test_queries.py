"""Query frontend: template parsing, repair into identifier projections."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontomed.errors import (
    CyclicPattern,
    DisconnectedPattern,
    NoIdentifier,
    OmqSyntaxError,
    UnknownIri,
)
from ontomed.quadstore import Quad
from ontomed.queries import OmqQuery, parse_omq, well_formed_rewrite
from ontomed.terms import G_HAS_FEATURE, GLOBAL_GRAPH, RDFS_SUBCLASS_OF, SC_IDENTIFIER

from conftest import CONCEPT_PROJECTION_QUERY, MONITOR_QUERY, iri
from generators import render_omq


class TestParse:
    def test_monitor_query_shape(self, global_ds):
        q = parse_omq(MONITOR_QUERY, global_ds)
        assert q.pi == (iri("sup:applicationId"), iri("sup:lagRatio"))
        assert q.phi == frozenset({
            (iri("sc:SoftwareApplication"), G_HAS_FEATURE, iri("sup:applicationId")),
            (iri("sc:SoftwareApplication"), iri("sup:hasMonitor"), iri("sup:Monitor")),
            (iri("sup:Monitor"), iri("sup:generatesQoS"), iri("sup:InfoMonitor")),
            (iri("sup:InfoMonitor"), G_HAS_FEATURE, iri("sup:lagRatio")),
        })

    def test_concept_projection_query_parses(self, global_ds):
        q = parse_omq(CONCEPT_PROJECTION_QUERY, global_ds)
        assert len(q.pi) == 3 and len(q.phi) == 2

    def test_prefix_declarations_accepted(self, global_ds):
        text = (
            'PREFIX m: <http://www.supersede.eu/ontology/>\n'
            "SELECT ?x FROM G: WHERE {\n"
            "  VALUES (?x) { (m:lagRatio) }\n"
            "  m:InfoMonitor G:hasFeature m:lagRatio\n}"
        )
        q = parse_omq(text, global_ds)
        assert q.pi == (iri("sup:lagRatio"),)

    def test_filter_rejected_with_position(self, global_ds):
        text = MONITOR_QUERY.replace("}", "  FILTER (?x > 3)\n}", 1)
        with pytest.raises(OmqSyntaxError) as err:
            parse_omq(text, global_ds)
        assert "FILTER" in str(err.value)
        assert err.value.line is not None and err.value.column is not None

    def test_optional_rejected(self, global_ds):
        text = MONITOR_QUERY.replace(
            "sup:Monitor sup:generatesQoS sup:InfoMonitor .",
            "OPTIONAL { sup:Monitor sup:generatesQoS sup:InfoMonitor } .",
        )
        with pytest.raises(OmqSyntaxError):
            parse_omq(text, global_ds)

    def test_literal_rejected(self, global_ds):
        text = MONITOR_QUERY.replace("sup:lagRatio)", '"0.9")')
        with pytest.raises(OmqSyntaxError):
            parse_omq(text, global_ds)

    def test_variable_in_triple_rejected(self, global_ds):
        text = MONITOR_QUERY.replace("sup:Monitor sup:generatesQoS sup:InfoMonitor",
                                     "sup:Monitor sup:generatesQoS ?z")
        with pytest.raises(OmqSyntaxError):
            parse_omq(text, global_ds)

    def test_multi_row_values_rejected(self, global_ds):
        text = MONITOR_QUERY.replace(
            "{ (sup:applicationId sup:lagRatio) }",
            "{ (sup:applicationId sup:lagRatio) (sup:applicationId sup:lagRatio) }",
        )
        with pytest.raises(OmqSyntaxError):
            parse_omq(text, global_ds)

    def test_values_must_bind_all_variables(self, global_ds):
        text = MONITOR_QUERY.replace("VALUES (?x ?y)", "VALUES (?x)").replace(
            "(sup:applicationId sup:lagRatio)", "(sup:applicationId)")
        with pytest.raises(OmqSyntaxError):
            parse_omq(text, global_ds)

    @pytest.mark.parametrize("text, message", [
        # End of text right after SELECT's variables: the last token.
        ("SELECT ?x ?y", "unexpected end of query after SELECT (line 1, column 11)"),
        # The repeated variable.
        ("SELECT ?x\n  ?y ?x\nFROM G: WHERE { }", "duplicate SELECT variable (line 2, column 6)"),
        # A VALUES variable that SELECT lacks.
        (MONITOR_QUERY.replace("VALUES (?x ?y)", "VALUES (?x ?z)"),
         "VALUES must bind every SELECT variable exactly once (line 5, column 14)"),
        # A SELECT variable that VALUES lacks.
        (MONITOR_QUERY.replace("VALUES (?x ?y)", "VALUES (?x)").replace(
            "(sup:applicationId sup:lagRatio)", "(sup:applicationId)"),
         "VALUES must bind every SELECT variable exactly once (line 2, column 11)"),
        # A repeated VALUES variable.
        (MONITOR_QUERY.replace("VALUES (?x ?y)", "VALUES (?x ?x ?y)").replace(
            "(sup:applicationId sup:lagRatio)", "(sup:applicationId sup:lagRatio sup:lagRatio)"),
         "VALUES must bind every SELECT variable exactly once (line 5, column 14)"),
        # A query that ends before WHERE's closing brace: its last token.
        ("SELECT ?x\nFROM G: WHERE {\n  VALUES (?x) { (sup:lagRatio) }\n"
         "  sup:InfoMonitor G:hasFeature sup:lagRatio\n",
         "missing closing '}' of WHERE (line 4, column 32)"),
        # WHERE's closing brace.
        ("SELECT ?x\nFROM G: WHERE {\n  VALUES (?x) { (sup:lagRatio) }\n}",
         "WHERE holds no triple patterns (line 4, column 1)"),
    ])
    def test_error_reports_the_offending_position(self, global_ds, text, message):
        with pytest.raises(OmqSyntaxError) as err:
            parse_omq(text, global_ds)
        assert str(err.value) == message

    def test_from_must_name_global_graph(self, global_ds):
        text = MONITOR_QUERY.replace("FROM G:", "FROM S:")
        with pytest.raises(OmqSyntaxError):
            parse_omq(text, global_ds)

    def test_unknown_iri(self, global_ds):
        text = MONITOR_QUERY.replace("sup:lagRatio", "sup:downloadRatio")
        with pytest.raises(UnknownIri):
            parse_omq(text, global_ds)

    def test_disconnected_pattern(self, global_ds):
        text = MONITOR_QUERY.replace(
            "sc:SoftwareApplication sup:hasMonitor sup:Monitor .\n", "")
        with pytest.raises(DisconnectedPattern):
            parse_omq(text, global_ds)

    def test_projection_outside_pattern(self, global_ds):
        text = MONITOR_QUERY.replace(
            "sc:SoftwareApplication G:hasFeature sup:applicationId .\n", "")
        with pytest.raises(OmqSyntaxError):
            parse_omq(text, global_ds)


class TestRender:
    def test_parse_render_parse_identity(self, global_ds):
        q = parse_omq(MONITOR_QUERY, global_ds)
        again = parse_omq(render_omq(q, global_ds), global_ds)
        assert (again.pi, again.phi) == (q.pi, q.phi)

    def test_identity_on_repaired_query(self, global_ds):
        q = well_formed_rewrite(global_ds, parse_omq(CONCEPT_PROJECTION_QUERY, global_ds))
        again = parse_omq(render_omq(q, global_ds), global_ds)
        assert (again.pi, again.phi) == (q.pi, q.phi)


class TestWellFormedRewrite:
    def test_concept_projections_become_identifiers(self, global_ds):
        q = parse_omq(CONCEPT_PROJECTION_QUERY, global_ds)
        wf = well_formed_rewrite(global_ds, q)
        assert wf.pi == (
            iri("sup:applicationId"), iri("sup:monitorId"), iri("sup:feedbackGatheringId"))
        assert wf.phi == q.phi | {
            (iri("sc:SoftwareApplication"), G_HAS_FEATURE, iri("sup:applicationId")),
            (iri("sup:Monitor"), G_HAS_FEATURE, iri("sup:monitorId")),
            (iri("sup:FeedbackGathering"), G_HAS_FEATURE, iri("sup:feedbackGatheringId")),
        }

    def test_already_well_formed_is_fixpoint(self, global_ds):
        q = parse_omq(MONITOR_QUERY, global_ds)
        wf = well_formed_rewrite(global_ds, q)
        assert (wf.pi, wf.phi) == (q.pi, q.phi)

    def test_idempotent(self, global_ds):
        wf = well_formed_rewrite(global_ds, parse_omq(CONCEPT_PROJECTION_QUERY, global_ds))
        again = well_formed_rewrite(global_ds, wf)
        assert (again.pi, again.phi) == (wf.pi, wf.phi)

    def test_cycle_detected(self, global_ds):
        ds = global_ds.copy()
        ds._add(Quad(GLOBAL_GRAPH, iri("sup:Monitor"), iri("sup:hasMonitor"),
                     iri("sc:SoftwareApplication")))
        text = MONITOR_QUERY.replace(
            "sup:InfoMonitor G:hasFeature sup:lagRatio",
            "sup:InfoMonitor G:hasFeature sup:lagRatio .\n"
            "  sup:Monitor sup:hasMonitor sc:SoftwareApplication")
        with pytest.raises(CyclicPattern):
            well_formed_rewrite(ds, parse_omq(text, ds))

    def test_concept_without_identifier(self, global_ds):
        text = """
        SELECT ?x ?y
        FROM G:
        WHERE {
          VALUES (?x ?y) { (sup:Monitor sup:InfoMonitor) }
          sup:Monitor sup:generatesQoS sup:InfoMonitor
        }
        """
        with pytest.raises(NoIdentifier):
            well_formed_rewrite(global_ds, parse_omq(text, global_ds))

    def test_multiple_identifiers_all_projected(self, global_ds):
        ds = global_ds.copy()
        second = iri("sup:monitorAlias")
        from ontomed.terms import G_FEATURE, RDF_TYPE

        ds._add(Quad(GLOBAL_GRAPH, second, RDF_TYPE, G_FEATURE))
        ds._add(Quad(GLOBAL_GRAPH, second, RDFS_SUBCLASS_OF, SC_IDENTIFIER))
        ds._add(Quad(GLOBAL_GRAPH, iri("sup:Monitor"), G_HAS_FEATURE, second))
        text = """
        SELECT ?x
        FROM G:
        WHERE {
          VALUES (?x) { (sup:Monitor) }
          sup:Monitor sup:generatesQoS sup:InfoMonitor
        }
        """
        wf = well_formed_rewrite(ds, parse_omq(text, ds))
        assert wf.pi == (second, iri("sup:monitorId"))

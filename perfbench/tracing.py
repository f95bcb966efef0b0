"""Per-layer spans and counters for the ontomed benchmark.

Tracing works by rebinding the public functions each ontomed module calls
across a layer boundary, from this file only; no file of the program changes.
A span records (name, start, end, parent, op). Spans stay in memory until the
run ends. Self time is a span's duration minus the durations of its direct
children, which in one thread never overlap.

Every name a caller looks up is rebound where the caller looks it up: ``cli``
imported ``rewrite`` and ``eval_ucq`` by name, so the span goes on
``ontomed.cli.rewrite``, while ``rewrite`` reaches phase 3 through
``ontomed.rewriter.inter_concept_generation``.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

# Span name -> per-layer metric holding its self time.
SELF_TIME_METRICS = {
    "cli": "cli.other_s",
    "workspace.load": "workspace.load_s",
    "workspace.save": "workspace.save_s",
    "workspace.bindings": "workspace.bindings_s",
    "quadstore.load": "quadstore.load_s",
    "quadstore.save": "quadstore.save_s",
    "quadstore.copy": "quadstore.copy_s",
    "releases.load_release": "releases.load_release_s",
    "releases.apply_release": "releases.apply_release_s",
    "vocab.validate": "vocab.validate_s",
    "queries.parse": "queries.parse_s",
    "queries.repair": "queries.repair_s",
    "rewriter.phase1": "rewriter.phase1_s",
    "rewriter.phase2": "rewriter.phase2_s",
    "rewriter.phase3": "rewriter.phase3_s",
    "rewriter.filter": "rewriter.filter_s",
    "rewriter.rewrite": "rewriter.bind_s",
    "sources.wrapper_schemas": "sources.wrapper_schemas_s",
    "executor.load_relation": "executor.load_relation_s",
    "executor.eval_walk": "executor.eval_walk_s",
    "executor.union": "executor.union_s",
}


class Tracer:
    """Spans and counters for the ops run while it is installed."""

    def __init__(self):
        self.spans: list[list] = []       # [name, start_ns, end_ns, parent index, op]
        self.counts: Counter = Counter()
        self.loaded_paths: set = set()    # (op, data path) pairs, for distinct loads
        self._stack: list[int] = []
        self._op = -1

    @contextmanager
    def op(self, index: int):
        """Root span of one CLI op; everything below it belongs to the op."""
        self._op = index
        with self.span("cli"):
            yield

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def self_times(self) -> dict[int, Counter]:
        """Seconds of self time per span name, for each op."""
        own: dict[int, Counter] = {}
        for name, start, end, parent, op in self.spans:
            row = own.setdefault(op, Counter())
            row[name] += (end - start) / 1e9
            if parent >= 0:
                row[self.spans[parent][0]] -= (end - start) / 1e9
        return own

    def root_seconds(self) -> float:
        return sum(end - start for name, start, end, parent, _ in self.spans if parent < 0) / 1e9

    # --- rebinding ----------------------------------------------------------

    def _timed(self, name, fn, after=None):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, *args)
            return result
        traced.__wrapped__ = fn
        return traced

    def _counted(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        counted.__wrapped__ = fn
        return counted

    @contextmanager
    def installed(self):
        """Rebind the layer boundaries for the duration of the block."""
        import ontomed.cli as cli
        import ontomed.executor as executor
        import ontomed.rewriter as rewriter
        import ontomed.sources as sources
        import ontomed.workspace as workspace
        from ontomed.quadstore import Dataset
        from ontomed.sources import Walk
        from ontomed.workspace import Workspace

        counts = self.counts

        def copied(result, ds):
            counts["quadstore.copy.quads"] += len(ds)

        def partial(result, *_):
            counts["rewriter.partial_walks"] += sum(len(ws) for ws in result.per_concept.values())

        def phase3(result, *_):
            counts["rewriter.phase3_walks"] += len(result)

        def emitted(result, *_):
            counts["rewriter.walks_emitted"] += len(result.walks)

        def loaded(result, binding):
            counts["executor.rows_loaded"] += len(result.rows)
            self.loaded_paths.add((self._op, str(binding.data_path)))

        def joined(result, *_):
            counts["executor.rows_joined"] += len(result.rows)

        def unioned(result, *_):
            counts["executor.union_rows"] += len(result.rows)

        # Dataset.derived runs on the rewriter's innermost loops, so its
        # counters are plain list cells: [calls, builder runs].
        derived_orig = Dataset.derived
        derived_counts = [0, 0]

        def derived(ds, key, builder):
            derived_counts[0] += 1

            def build():
                derived_counts[1] += 1
                return builder()
            return derived_orig(ds, key, build)

        counted_coverage = self._counted("sources.coverage.calls", sources.coverage)
        counted_minimality = self._counted("sources.minimality.calls", sources.minimality)
        wrapper_schemas = self._timed(
            "sources.wrapper_schemas",
            self._counted("sources.wrapper_schemas.calls", sources.wrapper_schemas))

        # (owner, attribute, replacement); classmethods are rebound through
        # their underlying function.
        plan = [
            (Workspace, "load", classmethod(self._timed("workspace.load", Workspace.load.__func__))),
            (Workspace, "save", self._timed("workspace.save", Workspace.save)),
            (Workspace, "bindings", self._timed("workspace.bindings", Workspace.bindings)),
            (Dataset, "load", classmethod(self._timed("quadstore.load", Dataset.load.__func__))),
            (Dataset, "save", self._timed("quadstore.save", Dataset.save)),
            (Dataset, "copy", self._timed("quadstore.copy", Dataset.copy, copied)),
            (Dataset, "match", self._counted("quadstore.match.calls", Dataset.match)),
            (Dataset, "derived", derived),
            (cli, "load_release", self._timed("releases.load_release", cli.load_release)),
            (cli, "apply_release", self._timed("releases.apply_release", cli.apply_release)),
            (cli, "validate_ontology", self._timed("vocab.validate", cli.validate_ontology)),
            (cli, "rewrite", self._timed("rewriter.rewrite", cli.rewrite, emitted)),
            (cli, "eval_ucq", self._timed("executor.union", cli.eval_ucq, unioned)),
            (rewriter, "parse_omq", self._timed("queries.parse", rewriter.parse_omq)),
            (rewriter, "well_formed_rewrite", self._timed("queries.repair", rewriter.well_formed_rewrite)),
            (rewriter, "query_expansion", self._timed("rewriter.phase1", rewriter.query_expansion)),
            (rewriter, "intra_concept_generation",
             self._timed("rewriter.phase2", rewriter.intra_concept_generation, partial)),
            (rewriter, "inter_concept_generation",
             self._timed("rewriter.phase3", rewriter.inter_concept_generation, phase3)),
            (rewriter, "coverage", self._timed("rewriter.filter", counted_coverage)),
            (rewriter, "minimality", self._timed("rewriter.filter", counted_minimality)),
            (rewriter, "wrapper_schemas", wrapper_schemas),
            (sources, "coverage", counted_coverage),
            (sources, "minimality", counted_minimality),
            (Walk, "add_wrapper", self._counted("rewriter.candidates_built", Walk.add_wrapper)),
            (workspace, "wrapper_schemas", wrapper_schemas),
            (executor, "eval_walk", self._timed("executor.eval_walk", executor.eval_walk, joined)),
            (executor, "load_relation",
             self._timed("executor.load_relation",
                         self._counted("executor.load_relation.calls", executor.load_relation), loaded)),
        ]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in plan]
        try:
            for owner, attr, replacement in plan:
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            counts["quadstore.derived.calls"] += derived_counts[0]
            counts["quadstore.derived.hits"] += derived_counts[0] - derived_counts[1]

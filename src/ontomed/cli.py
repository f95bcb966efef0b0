"""Command-line entry point.

Exit codes: 0 success, 2 validation or release violations, 3 query errors,
4 I/O and workspace errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .bench import run_growth_bench, run_walk_bench
from .errors import OntomedError, WorkspaceError
from .executor import eval_ucq
from .quadstore import Dataset
from .releases import apply_release, load_release
from .rewriter import RewriteTrace, rewrite
from .terms import GLOBAL_GRAPH, MAPPINGS_GRAPH, SOURCE_GRAPH
from .vocab import validate_ontology
from .workspace import Workspace

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 4


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ontomed",
        description="Ontology-mediated data integration over evolving wrappers.",
    )
    parser.add_argument(
        "-w", "--workspace", default=None,
        help="workspace directory (default: $ONTOMED_WORKSPACE or '.')",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_init = sub.add_parser("init", help="create a workspace from a global quad file")
    p_init.add_argument("directory")
    p_init.add_argument("--global-graph", required=True, help="quad file holding the global graph")

    p_release = sub.add_parser("release", help="apply a wrapper release descriptor")
    p_release.add_argument("descriptor")

    sub.add_parser("validate", help="check the ontology against the vocabulary rules")

    p_query = sub.add_parser("query", help="rewrite (and execute) a query")
    p_query.add_argument("query_file", help="query file, or - for standard input")
    p_query.add_argument("--explain", action="store_true", help="print the union algebra only")
    p_query.add_argument("--verbose", action="store_true", help="print phase traces")

    sub.add_parser("stats", help="print quad counts per graph")

    p_bench = sub.add_parser("bench", help="run a benchmark")
    bench_sub = p_bench.add_subparsers(dest="bench_kind", required=True)
    p_walks = bench_sub.add_parser("walks", help="worst-case walk-count sweep")
    p_walks.add_argument("--concepts", type=_positive_int, default=5)
    p_walks.add_argument("--wrappers", type=_positive_int, default=10)
    p_growth = bench_sub.add_parser("growth", help="replay releases, account growth")
    p_growth.add_argument("--releases", required=True, help="directory of release descriptors")

    return parser


def _workspace_root(args) -> Path:
    return Path(args.workspace or os.environ.get("ONTOMED_WORKSPACE", "."))


def _cmd_init(args) -> int:
    ws = Workspace.init(args.directory, args.global_graph)
    print(f"initialized workspace at {ws.root} ({len(ws.dataset)} quads)")
    return EXIT_OK


def _cmd_release(args) -> int:
    ws = Workspace.load(_workspace_root(args))
    release = load_release(args.descriptor, ws.dataset)
    ws.dataset, stats = apply_release(ws.dataset, release)
    if release.data_file:
        ws.bind(release.wrapper.name, release.data_file)
    ws.save()
    print(f"registered wrapper {release.wrapper.name}")
    print(stats.render())
    return EXIT_OK


def _cmd_validate(args) -> int:
    ws = Workspace.load(_workspace_root(args))
    report = validate_ontology(ws.dataset)
    print(report.render())
    return EXIT_OK if report.ok else EXIT_VALIDATION


def _cmd_query(args) -> int:
    ws = Workspace.load(_workspace_root(args))
    try:
        if args.query_file == "-":
            text = sys.stdin.read()
        else:
            text = Path(args.query_file).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise WorkspaceError(f"{args.query_file}: not UTF-8 text: {exc.reason}") from None
    trace = RewriteTrace() if args.verbose else None
    ucq = rewrite(text, ws.dataset, trace)
    if trace is not None:
        print(trace.render(ws.dataset))
    print(f"{len(ucq.walks)} walk(s)")
    print(ucq.render())
    if args.explain:
        return EXIT_OK
    result = eval_ucq(ucq, ws.bindings())
    print(result.render())
    return EXIT_OK


def _cmd_stats(args) -> int:
    ws = Workspace.load(_workspace_root(args))
    ds = ws.dataset
    counts = {
        "global": len(ds.match(GLOBAL_GRAPH)),
        "source": len(ds.match(SOURCE_GRAPH)),
        "mappings": len(ds.match(MAPPINGS_GRAPH)),
    }
    named = len(ds) - sum(counts.values())
    for label, count in counts.items():
        print(f"{label}: {count}")
    print(f"mapping named graphs: {named}")
    print(f"total: {len(ds)}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    if args.bench_kind == "walks":
        print("wrappers,walks,seconds")
        for rec in run_walk_bench(args.concepts, args.wrappers):
            print(f"{rec.wrappers},{rec.walk_count},{rec.elapsed:.4f}")
        return EXIT_OK
    ws = Workspace.load(_workspace_root(args))
    directory = Path(args.releases)
    if not directory.is_dir():
        raise WorkspaceError(f"{directory}: not a directory of release descriptors")
    releases = []
    for path in sorted(directory.glob("*.json")):
        release = load_release(path, ws.dataset)
        releases.append((path.stem, release))
        if release.data_file:
            ws.bind(release.wrapper.name, release.data_file)
    print("release,added,bound,cumulative,global_quads")
    ws.dataset, records = run_growth_bench(ws.dataset, releases)
    for rec in records:
        print(f"{rec.label},{rec.added},{rec.bound},{rec.cumulative},{rec.global_quads}")
    ws.save()
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "init": _cmd_init,
        "release": _cmd_release,
        "validate": _cmd_validate,
        "query": _cmd_query,
        "stats": _cmd_stats,
        "bench": _cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except OntomedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

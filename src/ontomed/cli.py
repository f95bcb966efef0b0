"""Command-line entry point.

Exit codes: 0 success, 2 validation or release violations or a malformed
command line, 3 query errors, 4 I/O and workspace errors.

`main` runs each command with the cyclic garbage collector paused and then
restores the caller's setting. What a command allocates in bulk (quads,
walks, rows, hash-table buckets, catalog dicts) holds no reference cycles,
so the collector's passes would only traverse it and free nothing. Garbage
a command leaves is collected by the first pass after `main` returns.

A run builds only the parsers it parses with: the top level, the command's,
and for `bench` the benchmark kind's. The other commands' parsers stay
unbuilt (`_Command`): each command is one short run, and building argparse's
whole tree of nine parsers took a third of a `validate` op on `union-exec`.
The choices, the help lines and every error message are what the whole tree
gives.
"""

from __future__ import annotations

import argparse
import gc
import io
import os
import sys
from pathlib import Path

from .bench import run_growth_bench, run_walk_bench
from .errors import OntomedError, WorkspaceError
from .executor import eval_ucq
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


class _Parser(argparse.ArgumentParser):
    """Raises a malformed command line as an error, for ``main`` to report in
    one line."""

    def error(self, message: str):
        raise OntomedError(message)


class _Command(_Parser):
    """A command's parser, built when argparse selects its command.

    ``add_parser`` passes its keywords through to the parser class; this one
    keeps them, with the function that adds the command's arguments, and
    finishes ``ArgumentParser.__init__`` only on the first
    ``parse_known_args``, which argparse calls on the selected command alone.
    """

    def __init__(self, add_arguments, **kwargs):
        self._pending = (add_arguments, kwargs)

    def parse_known_args(self, args=None, namespace=None):
        if self._pending is not None:
            add_arguments, kwargs = self._pending
            self._pending = None
            super().__init__(**kwargs)
            add_arguments(self)
        return super().parse_known_args(args, namespace)


def _init_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("directory")
    parser.add_argument("--global-graph", required=True, help="quad file holding the global graph")


def _release_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("descriptor")


def _no_arguments(parser: argparse.ArgumentParser) -> None:
    pass


def _query_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("query_file", help="query file, or - for standard input")
    parser.add_argument("--explain", action="store_true", help="print the union algebra only")
    parser.add_argument("--verbose", action="store_true", help="print phase traces")


def _walks_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--concepts", type=_positive_int, default=5)
    parser.add_argument("--wrappers", type=_positive_int, default=10)


def _growth_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--releases", required=True, help="directory of release descriptors")


def _bench_arguments(parser: argparse.ArgumentParser) -> None:
    kinds = parser.add_subparsers(dest="bench_kind", required=True, parser_class=_Command)
    kinds.add_parser("walks", help="worst-case walk-count sweep",
                     add_arguments=_walks_arguments)
    kinds.add_parser("growth", help="replay releases, account growth",
                     add_arguments=_growth_arguments)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ontomed",
        description="Ontology-mediated data integration over evolving wrappers.",
    )
    parser.add_argument(
        "-w", "--workspace", default=None,
        help="workspace directory (default: $ONTOMED_WORKSPACE or '.')",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Command)
    sub.add_parser("init", help="create a workspace from a global quad file",
                   add_arguments=_init_arguments)
    sub.add_parser("release", help="apply a wrapper release descriptor",
                   add_arguments=_release_arguments)
    sub.add_parser("validate", help="check the ontology against the vocabulary rules",
                   add_arguments=_no_arguments)
    sub.add_parser("query", help="rewrite (and execute) a query",
                   add_arguments=_query_arguments)
    sub.add_parser("stats", help="print quad counts per graph", add_arguments=_no_arguments)
    sub.add_parser("bench", help="run a benchmark", add_arguments=_bench_arguments)
    return parser


def _workspace_root(args) -> Path:
    return Path(args.workspace or os.environ.get("ONTOMED_WORKSPACE", "."))


def _cmd_init(args) -> int:
    ws = Workspace.init(args.directory, args.global_graph)
    print(f"initialized workspace at {ws.root} ({len(ws.dataset)} quads)")
    return EXIT_OK


def _cmd_release(args) -> int:
    with Workspace.locked(_workspace_root(args)) as ws:
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
    report = validate_ontology(ws.dataset, ws.data_files)
    print(report.render())
    return EXIT_OK if report.ok else EXIT_VALIDATION


def _cmd_query(args) -> int:
    ws = Workspace.load(_workspace_root(args))
    # Standard input is read as bytes, like a file, so that its text does not
    # depend on the locale's encoding. Python sets sys.stdin to None when the
    # process starts with it closed.
    if args.query_file != "-":
        data = Path(args.query_file).read_bytes()
    elif sys.stdin is None:
        raise WorkspaceError("standard input is closed")
    else:
        data = sys.stdin.buffer.read()
    try:
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig").read()
    except UnicodeDecodeError as exc:
        raise WorkspaceError(f"{args.query_file}: not UTF-8 text: {exc.reason}") from None
    trace = RewriteTrace() if args.verbose else None
    ucq = rewrite(text, ws.dataset, trace)
    # A binding or data error comes before any output, so a failing run
    # prints none.
    result = None if args.explain else eval_ucq(ucq, ws.bindings())
    if trace is not None:
        print(trace.render(ws.dataset))
    print(f"{len(ucq.walks)} walk(s)")
    print(ucq.render())
    if result is not None:
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
    directory = Path(args.releases)
    with Workspace.locked(_workspace_root(args)) as ws:
        if not directory.is_dir():
            raise WorkspaceError(f"{directory}: not a directory of release descriptors")
        releases = []
        for path in sorted(directory.glob("*.json")):
            release = load_release(path, ws.dataset)
            releases.append((path.stem, release))
            if release.data_file:
                ws.bind(release.wrapper.name, release.data_file)
        ws.dataset, records = run_growth_bench(ws.dataset, releases)
        print("release,added,bound,cumulative,global_quads")
        for rec in records:
            print(f"{rec.label},{rec.added},{rec.bound},{rec.cumulative},{rec.global_quads}")
        ws.save()
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    handlers = {
        "init": _cmd_init,
        "release": _cmd_release,
        "validate": _cmd_validate,
        "query": _cmd_query,
        "stats": _cmd_stats,
        "bench": _cmd_bench,
    }
    was_enabled = gc.isenabled()
    try:
        args = _build_parser().parse_args(argv)
        gc.disable()
        return handlers[args.command](args)
    except OntomedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())

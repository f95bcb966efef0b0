"""Benchmark entry point for ontomed: one workload, one seed, one run.

    python3 perfbench/run.py --workload chain-explain --seed 1 --seconds 10 --trace 0

The program is imported from ``src/`` next to this directory and every op is
one in-process call of ``ontomed.cli.main`` with its output captured, so
interpreter start-up and import are excluded from every figure. Load is a
closed loop with one client in one thread. See README.md for the workloads,
metrics and the layer each one measures.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. End-to-end
timings are in reference seconds, which take out the machine's speed drift
(see CALIBRATION_REF_S). A fuller record
(environment, sample counts, ratio bases, failures and, when traced, every
span) goes to ``.perfbench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from contextlib import ExitStack, nullcontext, redirect_stderr, redirect_stdout, suppress
from dataclasses import asdict, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import SELF_TIME_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

@dataclass
class Op:
    index: int
    kind: str
    phase: str
    round: int
    seconds: float
    ok: bool
    traced: bool
    walks: int = 0
    added: int = 0
    bound: int = 0
    start: float = 0.0
    setup: int = -1         # the set-up the op belongs to, if any
    twin: int = -1          # a traced op's untraced twin
    ref_seconds: float = 0.0


# The machine's speed drifts by up to 2x over seconds to minutes on a shared
# host, in CPU time as much as in wall time. Every timing metric is therefore
# reported in reference seconds: an op's wall seconds scaled by
# CALIBRATION_REF_S over the mean time of a fixed pure-Python kernel run
# within CALIBRATION_WINDOW_S of the op. The kernel runs between ops, about
# once per CALIBRATE_EVERY_S of run time, so a long op is followed by a burst
# of runs. CALIBRATION_REF_S is fixed; it is near the kernel's mean time on
# the machine the baseline was taken on (12 to 13 ms), so there reference
# seconds read 1.1 to 1.3 times wall seconds. Per-layer self times stay in
# wall seconds.
CALIBRATION_REF_S = 0.0150
CALIBRATE_EVERY_S = 0.25
CALIBRATION_BURST = 8
CALIBRATION_WINDOW_S = 0.25
KERNEL_RESULT = 20_000


def calibration_kernel() -> int:
    """Dict, tuple and string work of the kind the program does, sized to take
    about 15 ms. It touches nothing of the program."""
    rows = [(f"k{i % 499}", i, f"v{i}") for i in range(6000)]
    index: dict[str, list[tuple]] = {}
    for row in rows:
        index.setdefault(row[0], []).append(row)
    pairs = set()
    for key, _, value in rows[:5000]:
        for other in index[key][:4]:
            pairs.add((value, other[2]))
    return len(pairs)


def calibrate() -> float:
    """Wall time of one run of the kernel, with the collector off so that the
    program's heap does not change it."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        result = calibration_kernel()
        seconds = time.perf_counter() - start
    finally:
        gc.enable()
    if result != KERNEL_RESULT:
        raise AssertionError(f"calibration kernel returned {result}")
    return seconds


class Bench:
    """Runs CLI ops, times them, checks their output and keeps the records."""

    def __init__(self, main, tracer: Tracer | None):
        self.main = main
        self.tracer = tracer
        self.ops: list[Op] = []
        self.failures: list[str] = []
        self.phase = "setup"
        self.round = -1
        self.setup = -1
        self.pairs = 0
        self.last_stdout = ""
        self.calibrations: list[tuple[float, float]] = []   # (time, kernel seconds)
        self.calibrated_at = -math.inf   # the first op calibrates a full burst

    def calibrate(self) -> None:
        """Run the kernel once per CALIBRATE_EVERY_S since the last time, so
        that the samples are spread evenly over the run's time."""
        since = time.perf_counter() - self.calibrated_at
        runs = int(min(CALIBRATION_BURST, since / CALIBRATE_EVERY_S))
        if runs:
            for _ in range(runs):
                seconds = calibrate()
                self.calibrations.append((time.perf_counter(), seconds))
            self.calibrated_at = time.perf_counter()

    def normalise(self) -> None:
        """Scale every op's wall time to reference seconds by the kernel runs
        around it, or by the nearest one when none is that close."""
        self.calibrate()
        for op in self.ops:
            end = op.start + op.seconds
            near = [seconds for t, seconds in self.calibrations
                    if op.start - CALIBRATION_WINDOW_S <= t <= end + CALIBRATION_WINDOW_S]
            if not near:
                near = [min(self.calibrations, key=lambda c: min(abs(c[0] - op.start), abs(c[0] - end)))[1]]
            op.ref_seconds = op.seconds * CALIBRATION_REF_S / statistics.fmean(near)

    def run(self, kind: str, argv: list[str], check, traced: bool = False, bound: int = 0) -> Op:
        if not traced or kind == "release":
            return self._run(kind, argv, check, traced, bound)
        # A traced op that changes nothing runs twice, traced and untraced, in
        # alternating order: the pair gives the tracing overhead.
        self.pairs += 1
        ops = {t: self._run(kind, argv, check, t, bound)
               for t in ((False, True) if self.pairs % 2 else (True, False))}
        ops[False].phase = "twin"
        ops[True].twin = ops[False].index
        return ops[True]

    def _run(self, kind: str, argv: list[str], check, traced: bool, bound: int) -> Op:
        index = len(self.ops)
        out, err = io.StringIO(), io.StringIO()
        code: object = None
        self.calibrate()
        gc.collect()
        with ExitStack() as stack:
            if traced:
                stack.enter_context(self.tracer.installed())
            start = time.perf_counter()
            try:
                with redirect_stdout(out), redirect_stderr(err), \
                        (self.tracer.op(index) if traced else nullcontext()):
                    code = self.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                err.write(traceback.format_exc())
            seconds = time.perf_counter() - start
        stdout = out.getvalue()
        op = Op(index, kind, self.phase, self.round, seconds, False, traced, bound=bound, start=start,
                setup=self.setup if self.phase == "setup" else -1)
        try:
            op.ok = code == 0 and bool(check(stdout))
            if kind == "query":
                op.walks = int(stdout.split(" ", 1)[0])
            if kind == "release":
                op.added = int(stdout.rsplit("total:", 1)[1])
        except (ValueError, IndexError, KeyError, TypeError) as exc:
            op.ok = False
            err.write(f"output check raised {exc!r}\n")
        self.ops.append(op)
        self.last_stdout = stdout
        if not op.ok:
            self.fail(index, f"exit {code}: {err.getvalue().strip()[-400:]}")
        return op

    def fail(self, index: int, reason: str) -> None:
        op = self.ops[index]
        op.ok = False
        self.failures.append(f"op {index} ({op.kind}, {op.phase}): {reason}")


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(bench: Bench, wall: bool = False) -> tuple[dict, dict]:
    """The end-to-end metrics in reference seconds (in wall seconds if ``wall``),
    and the number of samples behind each."""
    def t(op: Op) -> float:
        return op.seconds if wall else op.ref_seconds

    setup: Counter = Counter()
    for op in bench.ops:
        if op.phase == "setup":
            setup[op.setup] += t(op)
    setup_times = list(setup.values())
    loop = [op for op in bench.ops if op.phase == "loop"]
    queries = [op for op in loop if op.kind == "query"]
    query_s = [t(op) for op in queries]
    walks: Counter = Counter()
    seconds: Counter = Counter()
    for op in queries:
        walks[op.round] += op.walks
        seconds[op.round] += t(op)
    validate_s = [t(op) for op in loop if op.kind == "validate"]
    # The stream's releases where the workload has one, else the set-ups' releases.
    release_s = ([t(op) for op in loop if op.kind == "release"]
                 or [t(op) for op in bench.ops if op.kind == "release" and op.phase == "setup"])
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "query_s.p50": (statistics.median(query_s), "s"),
        "query_s.p90": (p90(query_s), "s"),
        "walks_per_s": (statistics.median(walks[r] / seconds[r] for r in walks), "1/s"),
        "release_s.p50": (statistics.median(release_s), "s"),
        "release_s.p90": (p90(release_s), "s"),
        "validate_s.p50": (statistics.median(validate_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    samples = {"setup_s": len(setup_times), "query_s": len(query_s),
               "release_s": len(release_s), "validate_s": len(validate_s)}
    return ({name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            samples)


def per_layer(bench: Bench, tracer: Tracer) -> tuple[dict, dict, dict]:
    """Per-layer metrics per traced op, their ratio bases, and self time per op kind."""
    traced = [op for op in bench.ops if op.traced]
    pairs = [(op.seconds, bench.ops[op.twin].seconds) for op in traced if op.twin >= 0]
    n = len(traced)
    c = tracer.counts
    own = tracer.self_times()
    total: Counter = Counter()
    by_kind: dict[str, Counter] = {}
    for op in traced:
        total.update(own[op.index])
        by_kind.setdefault(op.kind, Counter()).update(own[op.index])
    releases = [op for op in traced if op.kind == "release"]

    metrics: dict[str, tuple[float, str]] = {}
    for span, name in SELF_TIME_METRICS.items():
        metrics[name] = (total[span] / n, "s")
    per_op_counts = [
        "quadstore.match.calls", "quadstore.derived.calls", "sources.coverage.calls",
        "sources.minimality.calls", "sources.wrapper_schemas.calls", "rewriter.partial_walks",
        "rewriter.phase3_walks", "rewriter.walks_emitted", "rewriter.candidates_built",
        "executor.load_relation.calls", "executor.rows_loaded", "executor.rows_joined",
    ]
    for name in per_op_counts:
        metrics[name] = (c[name] / n, "count")
    distinct = len(tracer.loaded_paths)
    added = sum(op.added for op in releases)
    bound = sum(op.bound for op in releases)
    metrics.update({
        "quadstore.copy.quads": (ratio(c["quadstore.copy.quads"], len(releases)), "count"),
        "quadstore.derived.hit_ratio": (ratio(c["quadstore.derived.hits"], c["quadstore.derived.calls"]), "ratio"),
        "releases.added_per_bound": (ratio(added, bound), "ratio"),
        "rewriter.candidate_yield": (ratio(c["rewriter.phase3_walks"], c["rewriter.candidates_built"]), "ratio"),
        "executor.load_relation.distinct": (distinct / n, "count"),
        "executor.load_reuse_ratio": (ratio(distinct, c["executor.load_relation.calls"]), "ratio"),
        "executor.union_keep_ratio": (ratio(c["executor.union_rows"], c["executor.rows_joined"]), "ratio"),
        "trace.op_s": (sum(op.seconds for op in traced) / n, "s"),
        "trace.overhead_ratio": (statistics.median(a / b for a, b in pairs), "ratio"),
        "trace.accounted_ratio": (ratio(tracer.root_seconds(), sum(op.seconds for op in traced)), "ratio"),
    })
    bases = {
        "traced_ops": n, "traced_release_ops": len(releases), "trace_pairs": len(pairs),
        "quadstore.copy.quads": c["quadstore.copy.quads"],
        "quadstore.derived": [c["quadstore.derived.hits"], c["quadstore.derived.calls"]],
        "releases.added_per_bound": [added, bound],
        "rewriter.candidate_yield": [c["rewriter.phase3_walks"], c["rewriter.candidates_built"]],
        "executor.load_reuse_ratio": [distinct, c["executor.load_relation.calls"]],
        "executor.union_keep_ratio": [c["executor.union_rows"], c["executor.rows_joined"]],
    }
    ops_of_kind = Counter(op.kind for op in traced)
    self_per_kind = {kind: {SELF_TIME_METRICS[s]: v / ops_of_kind[kind] for s, v in sorted(row.items())}
                     for kind, row in by_kind.items()}
    return ({name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            bases, self_per_kind)


def git_sha() -> str:
    """The checked-out commit, read from .git without running git; 'unknown'
    in a checkout that is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "corrupt": args.corrupt, "git_sha": git_sha(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "platform": platform.platform(), "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def load_program():
    """Import ontomed from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ontomed.cli
    if Path(ontomed.cli.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"ontomed imported from {ontomed.cli.__file__}, not from {src}")
    return ontomed.cli.main


def run(args, main) -> dict:
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    bench = Bench(main, tracer)
    try:
        workload = WORKLOADS[args.workload](args.seed, work, args.corrupt)
        workload.prepare()
        gc.collect()
        rss_prepared = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        bench.phase = "warmup"
        workload.setup(bench, work / "warmup")
        workload.warmup(bench, work / "warmup")
        start = time.perf_counter()
        rounds = 0
        while rounds < 1 or time.perf_counter() - start < args.seconds:
            bench.round = rounds
            bench.phase = "setup"
            for k in range(workload.SETUPS):
                bench.setup += 1
                ws = work / f"round{rounds}-{k}"
                workload.setup(bench, ws)
            bench.phase = "loop"
            workload.round(bench, ws, traced=bool(args.trace))
            rounds += 1
        bench.phase = "final"
        workload.final_check(bench)
        bench.normalise()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with suppress(OSError):
            work.parent.rmdir()     # only when no other run is using it

    record = {"env": environment(args), "rounds": rounds, "peak_rss_mb_after_prepare": rss_prepared,
              "calibrations_s": bench.calibrations}
    if args.trace:
        metrics, record["bases"], record["self_s_per_op_by_kind"] = per_layer(bench, tracer)
    else:
        metrics, record["samples"] = end_to_end(bench)
        record["wall_metrics"] = end_to_end(bench, wall=True)[0]
    failed = sum(1 for op in bench.ops if not op.ok)
    record.update({"metrics": metrics, "attempted": len(bench.ops), "failed": failed,
                   "ops_failed_ratio": failed / len(bench.ops), "failures": bench.failures[:50]})
    record["ops"] = [asdict(op) for op in bench.ops]
    if args.trace:
        record["spans"] = tracer.spans
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record) + "\n", encoding="utf-8")
    print(f"perfbench: {json.dumps(record['env'])}")
    if "wall_metrics" in record:
        print("perfbench: wall " + " ".join(f"{k}={v['value']:.4g}" for k, v in record["wall_metrics"].items()))
    print(f"perfbench: rounds={rounds} calibration_s={statistics.fmean(c for _, c in bench.calibrations):.4f} "
          f"samples={record.get('samples', record.get('bases'))} "
          f"ops_failed_ratio={failed}/{len(bench.ops)} record={out.relative_to(ROOT)}")
    for line in bench.failures[:5]:
        print(f"perfbench: FAILED {line}")
    return {"correct": failed == 0, "attempted": len(bench.ops), "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--corrupt", action="store_true",
                        help="check outputs against deliberately wrong expectations")
    args = parser.parse_args(argv)
    try:
        main_fn = load_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program from src/: {exc}", file=sys.stderr)
        return 2
    result = run(args, main_fn)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

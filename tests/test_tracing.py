"""The benchmark's tracer still finds every name it rebinds.

``perfbench/tracing.py`` times each layer by rebinding functions by module
and name. A refactor that renames or moves one of them would silently drop
that layer from a traced run, so this test runs one demo release, one
validate and one full query under the tracer and expects every span.
"""

import importlib.util
import shutil
from pathlib import Path

from ontomed.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMO = ROOT / "demo"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_ops_record_every_layer(tmp_path, capsys):
    tracing = load_tracing()
    ws = tmp_path / "ws"
    assert main(["init", str(ws), "--global-graph", str(DEMO / "global.quads")]) == 0
    shutil.copytree(DEMO / "data", ws / "data")
    for name in ("w1", "w2"):
        assert main(["-w", str(ws), "release", str(DEMO / "releases" / f"{name}.json")]) == 0
    ops = [
        ["release", str(DEMO / "releases" / "w3.json")],
        ["validate"],
        ["query", str(DEMO / "query.rq")],
    ]
    tracer = tracing.Tracer()
    with tracer.installed():
        for index, argv in enumerate(ops):
            with tracer.op(index):
                assert main(["-w", str(ws), *argv]) == 0
    assert {name for name, *_ in tracer.spans} == set(tracing.SELF_TIME_METRICS)
    assert tracer.counts["rewriter.candidates_built"] > 0
    assert tracer.counts["executor.load_relation.calls"] > 0

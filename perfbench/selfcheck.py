"""Self-check of the benchmark's output checks.

    python3 perfbench/selfcheck.py

Runs every workload twice for a short time: once as is, where every op must
pass, and once with ``--corrupt``, where each workload's expectations are
deliberately wrong (walk count or walk keys, result rows, release bound) and
the run must report failed ops and ``"correct": false``. It also checks that
the metric names printed with ``--trace 0`` and ``--trace 1`` are exactly the
``end_to_end`` and ``per_layer`` names of BENCHMARK.json. Exits 1 if any of
this does not hold.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SECONDS = 1.0  # measured time of each short run


def run(workload: str, corrupt: bool = False, trace: int = 0) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
            "--seconds", str(SECONDS), "--trace", str(trace)] + (["--corrupt"] if corrupt else [])
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=HERE.parent, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    ok = True
    for workload in sorted(WORKLOADS):
        clean = run(workload)
        traced = run(workload, trace=1)
        corrupt = run(workload, corrupt=True)
        for trace, result in ((0, clean), (1, traced)):
            if sorted(result["metrics"]) != sorted(names[trace]):
                ok = False
                print(f"{workload}: --trace {trace} metric names differ from BENCHMARK.json")
        clean_ok = all(r["correct"] and r["failed"] == 0 for r in (clean, traced))
        corrupt_ok = not corrupt["correct"] and corrupt["failed"] > 0
        ok = ok and clean_ok and corrupt_ok
        print(f"{workload}: clean {clean['failed']}/{clean['attempted']} failed "
              f"({'ok' if clean_ok else 'WRONG'}), corrupted {corrupt['failed']}/{corrupt['attempted']} "
              f"failed ({'ok' if corrupt_ok else 'WRONG: corruption not detected'})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

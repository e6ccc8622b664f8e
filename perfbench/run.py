"""cbfsim benchmark: one run of one workload.

    python3 perfbench/run.py --workload cruise_sweep --seed 1 --seconds 20 --trace 0

Run from anywhere; the repository root is the parent of this directory
and the program is imported from its ``src``. The run generates the
workload's inputs from the seed, starts a fresh worker process that
times its cold set-up, drives the workload for ``--seconds`` in whole
rounds (timing more cold set-ups in fresh processes between rounds) and
checks the program's outputs against the benchmark's own references, and
prints one JSON object as the last line of standard output: ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` the per-layer ones. Scratch files go to
``.perfbench_run/<workload>`` under the root.
"""

from __future__ import annotations

import argparse
import compileall
import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from spans import PER_LAYER  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("steps_per_s", "1/s"),
    ("queries_per_s", "1/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("peak_rss_mb", "MB"),
)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="cbfsim benchmark run")
    ap.add_argument("--workload", required=True, choices=list(gen.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds < 1:
        return fail("--seconds must be at least 1")

    src = ROOT / "src" / "cbfsim"
    if not (src / "__init__.py").is_file():
        return fail(f"no program source at {src}")
    # The build: byte-compile the sources once, so that set-up times the
    # import of compiled modules on every run, the first one included.
    if not compileall.compile_dir(str(src), quiet=1):
        return fail("byte-compiling the program failed")

    run_dir = ROOT / ".perfbench_run" / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    gen.generate(args.workload, args.seed, run_dir / "inputs")

    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--run-dir", str(run_dir), "--workload", args.workload,
           "--seconds", str(args.seconds), "--seed", str(args.seed),
           "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=str(ROOT))
    watchdog = threading.Timer(2 * args.seconds + 60, proc.kill)
    watchdog.start()
    try:
        proc.wait()
    finally:
        watchdog.cancel()
    if proc.returncode != 0:
        return fail(f"worker failed (exit code {proc.returncode})")

    result = json.loads((run_dir / "result.json").read_text())
    failures = result["check_failures"]
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    measured = dict(result["metrics"])
    names = ([(name, unit) for name, unit, _ in PER_LAYER] if args.trace
             else END_TO_END)
    metrics = {name: {"value": measured[name], "unit": unit} for name, unit in names}
    print(json.dumps({"correct": not failures, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Steadiness of the benchmark: run each workload several times, one seed
per run, and report every end-to-end metric's median, quartiles and spread
(quartile distance over the median) against its bound in BENCHMARK.json.

    python3 perfbench/steady.py --runs 10 --first-seed 1
    python3 perfbench/steady.py --runs 5 --workloads filter_queries

The quartiles are those of ``statistics.quantiles(values, n=4)``. A spread
passes when it is within the bound and is steady when it is below a third
of it. Raw results go to
``.perfbench_run/steady.json`` under the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=str(ROOT), check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(bench: dict, workload: str, results: list) -> bool:
    ok = all(r["correct"] for r in results)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"{workload}: {len(results)} runs, correct={ok}, "
          f"failed shares={sorted(shares)}")
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        verdict = ("steady" if spread < bound / 3 else
                   "within bound" if spread <= bound else "TOO WIDE")
        if spread > bound:
            ok = False
        print(f"  {name:14s} median {med:14.6g} {metric['unit']:4s} "
              f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:6.3f} "
              f"bound {bound:4.2f} {verdict}")
    return ok and len(shares) == 1


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(names))
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    raw, ok = {}, True
    for workload in args.workloads.split(","):
        if workload not in names:
            ap.error(f"unknown workload {workload!r}")
        raw[workload] = [run_once(workload, args.first_seed + i, args.seconds)
                         for i in range(args.runs)]
        ok = summarize(bench, workload, raw[workload]) and ok
    out = ROOT / ".perfbench_run" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(raw, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

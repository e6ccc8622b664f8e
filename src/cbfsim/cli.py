"""Command-line front end: run scenarios, compare trajectories, print
verification certificates, list shipped fixtures.

Exit codes for ``run``: 0 all monitors pass, 2 a monitor was violated or
the run aborted inside the safe-set machinery, 1 configuration or numeric
errors.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .errors import CbfsimError, ScenarioError
from .scenario_io import (
    build_report,
    build_run_job,
    build_verify_job,
    list_fixtures,
    parse_scenario_file,
    read_trajectory_csv,
    resolve_scenario_path,
    write_trajectory_csv,
)
from .simulate import refine_check, run as run_scenario


def _parse_overrides(pairs) -> dict:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ScenarioError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _report_error(exc: CbfsimError) -> None:
    prefix = "error" if isinstance(exc, ScenarioError) else "numeric error"
    print(f"{prefix}: {exc}", file=sys.stderr)


def _run_one(name, args, overrides: dict) -> int:
    path = resolve_scenario_path(name)
    doc = parse_scenario_file(path)
    if doc.kind() == "verify":
        raise ScenarioError(
            "this is a verification fixture; use the 'verify' command", str(path)
        )
    job = build_run_job(doc, overrides=overrides,
                        dt=args.dt, horizon=args.horizon)
    for notice in job.notices:
        print(notice)
    started = time.perf_counter()
    traj = run_scenario(job.scenario)
    runtime = time.perf_counter() - started
    report = build_report(traj, job.scenario, runtime)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = job.scenario.scenario_id
    write_trajectory_csv(traj, out_dir / f"{stem}.csv", job.state_names)
    (out_dir / f"{stem}.report.txt").write_text(report.to_text())
    (out_dir / f"{stem}.report.json").write_text(report.to_json())
    print(report.to_text(), end="")

    if args.refine and args.refine > 1:
        rep = refine_check(job.scenario, traj, args.refine)
        print(f"refine x{rep.factor}: max state deviation "
              f"{rep.max_state_deviation:.3e}; verdicts "
              f"{'unchanged' if rep.verdicts_unchanged else 'CHANGED'}")
        if not rep.verdicts_unchanged:
            return 2
    return report.exit_code


def cmd_run(args) -> int:
    # Batch execution: each scenario writes its own outputs, and an error
    # in one scenario is reported without stopping the rest. Any error
    # exits 1; otherwise the worst exit code wins.
    overrides = _parse_overrides(args.set)
    worst, failed = 0, False
    for name in args.scenario:
        try:
            worst = max(worst, _run_one(name, args, overrides))
        except CbfsimError as exc:
            _report_error(exc)
            failed = True
    return 1 if failed else worst


def _tv(series: np.ndarray) -> float:
    vals = series[np.isfinite(series)]
    return float(np.sum(np.abs(np.diff(vals)))) if vals.size > 1 else 0.0


def cmd_compare(args) -> int:
    runs = []
    for path in args.csv:
        data = read_trajectory_csv(path)
        runs.append((Path(path).name, data))
    base_name, base = runs[0]
    t0 = base["t"]
    print(f"reference grid: {base_name} ({t0.size} samples)")
    numeric_cols = [c for c in base["_columns"]
                    if c not in ("qp_status", "active_set", "t")]
    for name, data in runs:
        if "u" in data:
            print(f"total_variation(u) {name}: {_tv(data['u']):.6g}")
    for name, data in runs[1:]:
        t1 = data["t"]
        resampled = {}
        if t1.size != t0.size or not np.array_equal(t1, t0):
            print(f"warning: {name} has a different time grid; resampling "
                  "onto the reference grid")
            for col in numeric_cols:
                if col in data:
                    good = np.isfinite(data[col])
                    resampled[col] = np.interp(t0, t1[good], data[col][good])
        else:
            resampled = {col: data[col] for col in numeric_cols if col in data}
        print(f"differences {name} vs {base_name}:")
        for col in numeric_cols:
            if col not in resampled or col not in base:
                continue
            a, b = base[col], resampled[col]
            mask = np.isfinite(a) & np.isfinite(b)
            if not np.any(mask):
                continue
            diff = np.abs(a[mask] - b[mask])
            print(f"  {col}: max={np.max(diff):.6g} avg={np.mean(diff):.6g}")
    return 0


def cmd_verify(args) -> int:
    path = resolve_scenario_path(args.scenario)
    doc = parse_scenario_file(path)
    if doc.kind() != "verify":
        raise ScenarioError(
            "this is a run scenario; use the 'run' command", str(path)
        )
    job = build_verify_job(doc)
    rows = job.runner()
    widths = [max(len(str(cell)) for cell in [head] + [r[i] for r in rows])
              for i, head in enumerate(job.header)]
    print(f"verification: {job.kind}")
    print("  ".join(h.ljust(w) for h, w in zip(job.header, widths)))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return 0


def cmd_list_fixtures(args) -> int:
    for name in list_fixtures():
        print(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbfsim",
        description="Safety-filter QP controllers and closed-loop scenario "
                    "simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run scenarios and write CSV + report")
    p_run.add_argument("scenario", nargs="+",
                       help="scenario file path(s) or fixture name(s)")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument("--dt", type=float, default=None, help="override step size")
    p_run.add_argument("--horizon", type=float, default=None,
                       help="override horizon (s)")
    p_run.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a scenario value (repeatable)")
    p_run.add_argument("--refine", type=int, default=None, metavar="N",
                       help="re-run at dt/N and check verdict stability")
    p_run.set_defaults(fn=cmd_run)

    p_cmp = sub.add_parser("compare", help="compare trajectory CSVs")
    p_cmp.add_argument("csv", nargs="+", help="two or more trajectory CSVs")
    p_cmp.set_defaults(fn=cmd_compare)

    p_ver = sub.add_parser("verify", help="run a certificate fixture")
    p_ver.add_argument("scenario", help="verification fixture path or name")
    p_ver.set_defaults(fn=cmd_verify)

    p_ls = sub.add_parser("list-fixtures", help="list shipped fixtures")
    p_ls.set_defaults(fn=cmd_list_fixtures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CbfsimError as exc:
        _report_error(exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark's reference checks: each check passes on the
program's real output and fails on a copy with one deliberate fault (a
perturbed state, an input past its bound, a wrong QP answer, a dropped
row, a wrong gain, a wrong count).

    python3 perfbench/selftest.py

Exits 0 when every check both passed and failed as expected. Scratch
files go to ``.perfbench_run/selftest`` under the repository root.
"""

from __future__ import annotations

import contextlib
import io
import random
import shutil
import sys
import types
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import cbfsim  # noqa: E402
import cbfsim.cli  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import model  # noqa: E402
from worker import ReportClock, Sweep, build_spec  # noqa: E402

HORIZON_STEPS = 300  # shortened scenarios keep the self-test quick


def _run_short(workload: str, pick, work: Path):
    """Generate a workload, run one of its scenarios for HORIZON_STEPS
    steps through the CLI, and return (manifest entry, spec, CSV text)."""
    manifest = gen.generate(workload, 11, work / workload)
    sc = dict(next(s for s in manifest["scenarios"] if pick(s)))
    sc["steps"] = HORIZON_STEPS
    sc["horizon"] = HORIZON_STEPS * sc["dt"]
    path = work / workload / f"{sc['name']}.scenario"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cbfsim.cli.main(["run", str(path), "--out", str(work / "out"),
                                "--horizon", repr(sc["horizon"])])
    if code != 0:
        raise SystemExit(f"{sc['name']} did not pass its monitors")
    text = (work / "out" / f"{sc['name']}.csv").read_text()
    return sc, build_spec(cbfsim, sc), text


def _lines(text: str) -> list:
    return text.splitlines(keepends=True)


def _set_cell(text: str, row: int, column: str, value: float) -> str:
    lines = _lines(text)
    header = lines[0].rstrip("\n").split(",")
    cells = lines[row + 1].rstrip("\n").split(",")
    cells[header.index(column)] = repr(float(value))
    lines[row + 1] = ",".join(cells) + "\n"
    return "".join(lines)


def _cell(text: str, row: int, column: str) -> float:
    header = _lines(text)[0].rstrip("\n").split(",")
    return float(_lines(text)[row + 1].split(",")[header.index(column)])


def main() -> int:
    work = ROOT / ".perfbench_run" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    acc, acc_spec, acc_csv = _run_short(
        "cruise_sweep", lambda s: s["level"] == "force", work)
    lk, lk_spec, lk_csv = _run_short("lane_sweep", lambda s: True, work)
    results = []

    def expect(name: str, good: list, bad: list) -> None:
        ok = not good and bool(bad)
        results.append(ok)
        detail = good[0] if good else (bad[0] if bad else "fault not detected")
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")

    # Step count: a dropped row.
    dropped = "".join(_lines(acc_csv)[:-1])
    cols = checks.parse_csv(acc_csv)
    expect("step count (dropped row)", checks.check_rows(acc, cols),
           checks.check_rows(acc, checks.parse_csv(dropped)))

    # Forward invariance: a perturbed state past the headway and lane edges.
    k = 120
    v_f = _cell(acc_csv, k, "v_f")
    bad = _set_cell(acc_csv, k, "D", acc["params"]["tau_d"] * v_f - 0.01)
    expect("headway invariance (perturbed D)", checks.check_invariance(acc, cols),
           checks.check_invariance(acc, checks.parse_csv(bad)))
    lk_cols = checks.parse_csv(lk_csv)
    bad = _set_cell(lk_csv, k, "y", lk["params"]["y_max"] + 0.01)
    expect("lane invariance (perturbed y)", checks.check_invariance(lk, lk_cols),
           checks.check_invariance(lk, checks.parse_csv(bad)))

    # Input bounds: a force past a_f M g, a steering angle past a_max.
    limit = acc["params"]["a_f"] * acc["params"]["M"] * acc["params"]["g"]
    bad = _set_cell(acc_csv, k, "u", -1.001 * limit)
    expect("force bound (input past bound)", checks.check_input_bounds(acc, cols),
           checks.check_input_bounds(acc, checks.parse_csv(bad)))
    p = lk["params"]
    extra = 1.001 * p["a_max"] * p["M"] / p["C_f"]  # steering that adds a_max
    bad = _set_cell(lk_csv, k, "u", _cell(lk_csv, k, "u") + 2.0 * extra)
    expect("lateral acceleration bound (input past bound)",
           checks.check_input_bounds(lk, lk_cols),
           checks.check_input_bounds(lk, checks.parse_csv(bad)))

    # Force barrier: a state just inside the headway set but past the
    # braking oracle's margin.
    x = checks._states(acc, cols)[k]
    optimal, conservative = model.braking_margins(acc["params"], x[0], x[1])
    margin = optimal if acc["variant"] == "optimal" else conservative
    bad = _set_cell(acc_csv, k, "D", margin - 0.05)
    expect("force barrier oracle (perturbed state)",
           checks.check_force_barrier(acc, cols, [0, k, acc["steps"]]),
           checks.check_force_barrier(acc, checks.parse_csv(bad), [0, k]))

    # Dynamics: the next state nudged off the RK4 step.
    bad = _set_cell(lk_csv, k + 1, "psi", _cell(lk_csv, k + 1, "psi") + 1e-7)
    expect("RK4 dynamics (perturbed state)", checks.check_dynamics(lk, lk_cols, [k]),
           checks.check_dynamics(lk, checks.parse_csv(bad), [k]))

    # QP optimum: a wrong applied input, on both controllers.
    for sc, spec, text, c in ((acc, acc_spec, acc_csv, cols), (lk, lk_spec, lk_csv, lk_cols)):
        u = _cell(text, k, "u")
        bad = _set_cell(text, k, "u", u + 1e-5 * (1.0 + abs(u)))
        expect(f"QP optimum on {spec.name} (wrong answer)",
               checks.check_qp(cbfsim, spec, sc, c, [k]),
               checks.check_qp(cbfsim, spec, sc, checks.parse_csv(bad), [k]))

    # The brute-force reference itself, on a QP with a known optimum:
    # min 0.5|z|^2 - z1 - z2 s.t. z1 + z2 <= 1 has z = (0.5, 0.5).
    z = model.brute_force_qp(np.eye(2), np.array([-1.0, -1.0]),
                             [(np.array([1.0, 1.0]), 1.0)])
    results.append(bool(np.allclose(z, [0.5, 0.5])))
    print(f"{'PASS' if results[-1] else 'FAIL'} brute-force QP reference: z = {z}")

    # Queries: a wrong answer in the results list.
    x0, w0 = np.array(lk["x0"]), np.array([0.0])
    step = cbfsim.controller.evaluate(lk_spec, x0, w0)
    wrong = types.SimpleNamespace(u=step.u + 1e-4)
    manifest = {"specs": []}
    expect("query QP optimum (wrong answer)",
           checks.check_queries(cbfsim, manifest, [(lk_spec, x0, w0)], [step]),
           checks.check_queries(cbfsim, manifest, [(lk_spec, x0, w0)], [wrong]))

    # LQR gain: a program whose gain is off by 0.1%.
    def off_gain(params):
        K, x_ff = cbfsim.lk.solve_lqr_gain(params)
        return 1.001 * K, x_ff

    fake = types.SimpleNamespace(lk=types.SimpleNamespace(
        LkParams=cbfsim.lk.LkParams, solve_lqr_gain=off_gain))
    expect("LQR gain (wrong gain)", checks.check_lqr_gain(cbfsim, lk["params"]),
           checks.check_lqr_gain(fake, lk["params"]))

    # Traced counts: one evaluation short of the generated step count.
    good = {"controller.evaluate.calls": 4800.0,
            "simulate.integrate_step.calls": 4800.0, "qp.closed_form.calls": 0.0}
    expect("traced step count (dropped call)",
           checks.check_trace(good, "lane_sweep", 4800),
           checks.check_trace(dict(good, **{"controller.evaluate.calls": 4799.0}),
                              "lane_sweep", 4800))

    # Sweep rounds: a batch that fails and writes nothing, after one that
    # passed, must not be credited with the earlier round's outputs.
    batches = []

    def flaky_main(argv):
        batches.append(argv)
        if len(batches) > 1:
            return 1
        out = Path(argv[argv.index("--out") + 1])
        out.mkdir(parents=True)
        for name in ("a", "b"):
            (out / f"{name}.report.json").write_text('{"pass": true}')
            (out / f"{name}.csv").write_text("t\n0\n")
        return 0

    fake = types.SimpleNamespace(cli=types.SimpleNamespace(main=flaky_main))
    sweep = Sweep(fake, {"scenarios": [{"name": "a", "steps": 1},
                                       {"name": "b", "steps": 1}]},
                  work, work / "sweep", ReportClock(io.StringIO()))
    sweep.round()
    good = sweep.errors + [f"{sweep.failed} failed"] * bool(sweep.failed)
    sweep.round()
    bad = sweep.errors if sweep.failed == 2 else []
    expect("sweep round that writes nothing", good, bad)

    # The whole per-scenario suite on real output passes.
    rng = random.Random(0)
    everything = (checks.check_scenario(cbfsim, acc_spec, acc, acc_csv, rng)
                  + checks.check_scenario(cbfsim, lk_spec, lk, lk_csv, rng))
    results.append(not everything)
    print(f"{'PASS' if not everything else 'FAIL'} all checks on real output"
          + (f": {everything[0]}" if everything else ""))

    print(f"{sum(results)}/{len(results)} self-tests passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())

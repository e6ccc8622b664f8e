"""Reference checks on what the program produced, run after the timed part.

The checks use the benchmark's own model equations (model.py), its own
CSV parser, a brute-force QP enumeration and scipy's Riccati solver; they
use none of the program's closed forms or solvers. The only calls into
cbfsim are the public constructors of the controller specs,
``controller.build_qp`` (which states the QP the controller must solve)
and ``lk.solve_lqr_gain`` (the gain under test).

Every check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import bisect
import math
import random
from pathlib import Path

import numpy as np

import model

SAMPLED_STEPS = 24  # steps per scenario for the dynamics and QP checks
ORACLE_STATES = 6   # states per force-level scenario for the braking oracle


def parse_csv(text: str) -> dict:
    """Trajectory CSV -> {column: list of values}; empty cells read NaN,
    the two text columns stay text."""
    lines = text.splitlines()
    header = lines[0].split(",")
    cols: dict = {name: [] for name in header}
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"row with {len(cells)} cells, header has {len(header)}")
        for name, cell in zip(header, cells):
            if name in ("qp_status", "active_set"):
                cols[name].append(cell)
            else:
                cols[name].append(float(cell) if cell else math.nan)
    return cols


def profile_value(segments, t: float) -> float:
    """Piecewise-constant exogenous value at time t."""
    starts = [s for s, _ in segments]
    return segments[max(bisect.bisect_right(starts, t) - 1, 0)][1]


def _states(sc: dict, cols: dict) -> np.ndarray:
    names = ("v_f", "v_l", "D") if sc["system"] == "acc" else ("y", "nu", "psi", "r")
    return np.column_stack([cols[n] for n in names])


def _rate_fn(sc: dict):
    return model.acc_rate if sc["system"] == "acc" else model.lk_rate


def check_rows(sc: dict, cols: dict) -> list:
    """One CSV row per sample: the generator's round(horizon/dt) steps
    plus the initial sample, on the k*dt time grid."""
    rows = len(cols["t"])
    if rows != sc["steps"] + 1:
        return [f"{sc['name']}: {rows} CSV rows, expected {sc['steps'] + 1}"]
    t = np.array(cols["t"])
    if np.max(np.abs(t - np.arange(rows) * sc["dt"])) > 1e-9:
        return [f"{sc['name']}: time column is off the k*dt grid"]
    return []


def check_invariance(sc: dict, cols: dict) -> list:
    """Forward invariance on every sample: headway D - tau_d v_f for cruise
    control; stoppability h and |y| <= y_max for lane keeping."""
    p, x = sc["params"], _states(sc, cols)
    if sc["system"] == "acc":
        h = np.array([model.headway(p, s) for s in x])
        tol = 1e-6 * (1.0 + abs(h[0]))
        bad = np.flatnonzero(h < -tol)
        what = "headway"
    else:
        h = np.array([model.stoppability(p, s) for s in x])
        tol = 1e-6 * (1.0 + abs(h[0]))
        bad = np.flatnonzero((h < -tol) | (np.abs(x[:, 0]) > p["y_max"] + 1e-6))
        what = "stoppability or lane"
    if bad.size:
        k = int(bad[0])
        return [f"{sc['name']}: {what} violated at sample {k} (h = {h[k]:.6g})"]
    return []


def check_input_bounds(sc: dict, cols: dict) -> list:
    """|u| <= a_f M g on force-level cruise control; |d2y/dt2| <= a_max on
    lane keeping, from the lateral force balance of the model."""
    p, x = sc["params"], _states(sc, cols)
    u = np.array(cols["u"][:-1])
    if sc["system"] == "acc":
        if sc["level"] != "force":
            return []
        lo = -p["a_f"] * p["M"] * p["g"]
        hi = p["a_f_accel"] * p["M"] * p["g"]
        tol = 1e-9 * hi
        bad = np.flatnonzero((u < lo - tol) | (u > hi + tol))
        if bad.size:
            k = int(bad[0])
            return [f"{sc['name']}: force {u[k]:.6g} N outside [{lo:.6g}, {hi:.6g}] "
                    f"at step {k}"]
        return []
    for k in range(u.size):
        accel = model.lateral_accel(p, x[k], u[k],
                                    profile_value(sc["segments"], k * sc["dt"]))
        if abs(accel) > p["a_max"] * (1.0 + 1e-9) + 1e-9:
            return [f"{sc['name']}: |d2y/dt2| = {abs(accel):.6g} > a_max at step {k}"]
    return []


def check_force_barrier(sc: dict, cols: dict, samples) -> list:
    """h_F = D - margin >= 0 at sampled states, the margin taken from the
    time-stepped joint-braking oracle."""
    if sc["system"] != "acc" or sc["level"] != "force":
        return []
    p, x = sc["params"], _states(sc, cols)
    for k in samples:
        h = model.force_h(p, x[k], sc["variant"])
        if h < -1e-6:
            return [f"{sc['name']}: force barrier h_F = {h:.6g} < 0 at sample {k} "
                    "(braking oracle)"]
    return []


def check_dynamics(sc: dict, cols: dict, steps) -> list:
    """Re-run one RK4 step of the model from sampled samples with the
    recorded input and compare with the next recorded state."""
    x, u = _states(sc, cols), cols["u"]
    rate, p, dt = _rate_fn(sc), sc["params"], sc["dt"]
    for k in steps:
        w = profile_value(sc["segments"], k * dt)
        ref = model.rk4_step(lambda s: rate(p, s, u[k], w), x[k], dt)
        err = np.abs(ref - x[k + 1])
        if np.any(err > 1e-9 * (1.0 + np.abs(ref))):
            return [f"{sc['name']}: state after step {k} is {x[k + 1].tolist()}, "
                    f"model RK4 gives {ref.tolist()}"]
    return []


def qp_mismatch(build_qp, spec, x, w, u_applied: float) -> str | None:
    """None when the applied input is the brute-force optimum of the QP
    that ``build_qp`` states at (x, w); otherwise a description."""
    qp, _ = build_qp(spec, x, w)
    z = model.brute_force_qp(qp.H, qp.F, qp.rows)
    if z is None:
        return "QP has no feasible active set"
    if not abs(u_applied - z[0]) <= 1e-7 * (1.0 + abs(z[0])):
        return f"applied input {u_applied!r}, brute-force optimum {float(z[0])!r}"
    return None


def check_qp(cbfsim, spec, sc: dict, cols: dict, steps) -> list:
    x, u = _states(sc, cols), cols["u"]
    for k in steps:
        w = np.array([profile_value(sc["segments"], k * sc["dt"])])
        bad = qp_mismatch(cbfsim.controller.build_qp, spec, x[k], w, u[k])
        if bad:
            return [f"{sc['name']}: step {k}: {bad}"]
    return []


def check_lqr_gain(cbfsim, params: dict) -> list:
    """The lane-keeping gain against scipy's continuous Riccati solve."""
    from scipy.linalg import solve_continuous_are

    A, B, Q, R = model.lqr_problem(params)
    P = solve_continuous_are(A, B, Q, np.array([[R]]))
    k_ref = (B.T @ P / R).ravel()
    lk_params = cbfsim.lk.LkParams(
        **dict(params, lqr_preview=tuple(params["lqr_preview"])))
    k_prog = np.asarray(cbfsim.lk.solve_lqr_gain(lk_params)[0]).ravel()
    if np.max(np.abs(k_prog - k_ref)) > 1e-6 * (1.0 + np.max(np.abs(k_ref))):
        return [f"LQR gain {k_prog.tolist()} differs from scipy's {k_ref.tolist()}"]
    return []


def check_scenario(cbfsim, spec, sc: dict, csv_text: str, rng: random.Random) -> list:
    """Every check on one scenario's CSV output."""
    try:
        cols = parse_csv(csv_text)
    except (ValueError, IndexError) as exc:
        return [f"{sc['name']}: unreadable CSV: {exc}"]
    failures = check_rows(sc, cols)
    if failures:
        return failures
    n = sc["steps"]
    steps = sorted(rng.sample(range(n), min(SAMPLED_STEPS, n)))
    oracle = sorted({0, n} | set(rng.sample(range(n + 1), ORACLE_STATES)))
    return (check_invariance(sc, cols) + check_input_bounds(sc, cols)
            + check_force_barrier(sc, cols, oracle)
            + check_dynamics(sc, cols, steps)
            + check_qp(cbfsim, spec, sc, cols, steps))


def check_sweep(cbfsim, manifest: dict, specs: list, out_dir: Path,
                seed: int) -> list:
    """Every check on every scenario's CSV; ``specs`` holds one controller
    spec per scenario, built from the generator's parameters."""
    rng = random.Random(f"check:{seed}")
    failures = []
    for sc, spec in zip(manifest["scenarios"], specs):
        path = Path(out_dir) / f"{sc['name']}.csv"
        try:
            text = path.read_text()
        except OSError as exc:
            failures.append(f"{sc['name']}: no CSV output ({exc})")
            continue
        failures += check_scenario(cbfsim, spec, sc, text, rng)
    if any(sc["system"] == "lk" for sc in manifest["scenarios"]):
        failures += check_lqr_gain(cbfsim, manifest["scenarios"][0]["params"])
    return failures


def check_queries(cbfsim, manifest: dict, pool, results) -> list:
    """Every query's applied input against the brute-force QP optimum."""
    failures = []
    for i, ((spec, x, w), step) in enumerate(zip(pool, results)):
        if step is None:
            continue  # counted as failed by the run
        bad = qp_mismatch(cbfsim.controller.build_qp, spec, x, w, float(step.u[0]))
        if bad:
            failures.append(f"query {i} ({spec.name}): {bad}")
    lk = [d for d in manifest["specs"] if d["system"] == "lk"]
    if lk:
        failures += check_lqr_gain(cbfsim, lk[0]["params"])
    return failures


def check_trace(metrics: dict, workload: str, steps_per_round: int) -> list:
    """Counts of the traced run against the generator: one controller
    evaluation per step (or query) per round, one RK4 step per closed-loop
    step and none on filter_queries, no closed-form solve on lane_sweep."""
    failures = []
    calls = metrics["controller.evaluate.calls"]
    if calls != steps_per_round:
        failures.append(f"controller.evaluate.calls per round {calls} != "
                        f"generated step count {steps_per_round}")
    integrate = 0 if workload == "filter_queries" else steps_per_round
    if metrics["simulate.integrate_step.calls"] != integrate:
        failures.append(f"simulate.integrate_step.calls per round "
                        f"{metrics['simulate.integrate_step.calls']} != {integrate}")
    if workload == "lane_sweep" and metrics["qp.closed_form.calls"] != 0:
        failures.append("qp.closed_form.calls is not 0 on lane_sweep")
    return failures

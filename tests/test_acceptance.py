"""Acceptance suite: one test per shipped guarantee, each printing a
single PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to
see them inline).

Expensive closed-loop runs are shared through module-scoped fixtures; all
tolerances are pinned here, not configurable.
"""

import math
import time
import warnings

import numpy as np
import pytest

from cbfsim.acc import (
    AccParams,
    acc_clf,
    delta_conservative,
    delta_optimal,
    force_h_field,
    headway_field,
)
from cbfsim.barriers import comparison_ode_solution, estimate_contractivity_gamma, estimate_zbf_alpha
from cbfsim.lk import LkParams, care_solve, lateral_accel, lk_h_field, lk_matrices
from cbfsim.qp import QpProblem, closed_form_multipliers, solve_active_set, solve_two_constraint_closed_form
from cbfsim.scenario_io import build_run_job, parse_scenario_file, resolve_scenario_path
from cbfsim.simulate import refine_check, run
from cbfsim.systems import ControlAffineSystem, ScalarField, linear_field

from oracles import braking_margins, fd_gradient


def _report(criterion: str, passed: bool, detail: str = "") -> None:
    verdict = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {criterion}: {verdict}"
    if detail:
        line += f" ({detail})"
    print(line)


def _load(name, horizon=None, overrides=None):
    doc = parse_scenario_file(resolve_scenario_path(name))
    return build_run_job(doc, overrides=overrides, horizon=horizon)


def _timed_run(job):
    started = time.perf_counter()
    traj = run(job.scenario)
    return traj, time.perf_counter() - started


@pytest.fixture(scope="module")
def basic_run():
    job = _load("acc_basic")
    traj, elapsed = _timed_run(job)
    return job, traj, elapsed


@pytest.fixture(scope="module")
def qp2_runs():
    out = {}
    total = 0.0
    for variant in ("optimal", "conservative"):
        job = _load(f"acc_force_{variant}")
        traj, elapsed = _timed_run(job)
        out[variant] = (job, traj)
        total += elapsed
    return out, total


@pytest.fixture(scope="module")
def zcbf_runs():
    out = {}
    for variant in ("optimal", "conservative"):
        job = _load(f"acc_zcbf_{variant}")
        traj, _ = _timed_run(job)
        out[variant] = (job, traj)
    return out


@pytest.fixture(scope="module")
def lk_run():
    job = _load("lk_curved")
    traj, elapsed = _timed_run(job)
    return job, traj, elapsed


def _free_windows(traj, cbf_row_index, dt, min_len):
    """Maximal intervals (in steps) where the barrier row is inactive."""
    inactive = [cbf_row_index not in act for act in traj.active_sets[:-1]]
    windows = []
    start = None
    for k, flag in enumerate(inactive):
        if flag and start is None:
            start = k
        if (not flag or k == len(inactive) - 1) and start is not None:
            end = k + 1 if flag else k
            if (end - start) * dt >= min_len:
                windows.append((start, end))
            start = None
    return windows


def test_criterion_1_acc_basic(basic_run):
    job, traj, elapsed = basic_run
    p = AccParams()
    ok = True
    details = []

    min_h = traj.monitor_min("headway")
    ok &= (not traj.aborted) and min_h > 0.0
    details.append(f"min headway {min_h:.3g}")

    windows = _free_windows(traj, 1, job.scenario.dt, 5.0)
    ok &= len(windows) >= 1
    for start, end in windows:
        dv = np.abs(traj.x[start:end, 0] - p.v_d)
        ok &= bool(np.all(np.diff(dv) <= 1e-6))
        ok &= dv[-1] < 0.5
    details.append(f"{len(windows)} free windows >= 5 s, all converge < 0.5 m/s")

    comfort = 0.25 * p.M * p.g
    max_u = float(np.nanmax(np.abs(traj.u)))
    ok &= max_u > comfort
    details.append(f"max |u| {max_u:.0f} N exceeds comfort bound {comfort:.0f} N")

    ok &= elapsed < 10.0
    details.append(f"runtime {elapsed:.1f} s")

    _report("1 (cruise control, headway barrier only)", ok, "; ".join(details))
    assert not traj.aborted
    assert min_h > 0.0
    assert len(windows) >= 1
    for start, end in windows:
        dv = np.abs(traj.x[start:end, 0] - p.v_d)
        assert np.all(np.diff(dv) <= 1e-6)
        assert dv[-1] < 0.5
    assert max_u > comfort
    assert elapsed < 10.0


def test_criterion_2_force_limited_runs(qp2_runs):
    runs, total = qp2_runs
    p = AccParams(a_l=0.28, a_l_accel=0.28)
    comfort = 0.25 * p.M * p.g
    ok = True
    details = []
    for variant, (job, traj) in runs.items():
        max_u = float(np.nanmax(np.abs(traj.u)))
        ok &= max_u <= comfort + 1e-6
        ok &= traj.monitor_min("force_barrier") >= -1e-6
        ok &= traj.monitor_min("headway") >= -1e-6
        ok &= not traj.aborted
        details.append(f"{variant}: max|u|={max_u:.1f}, "
                       f"min hF={traj.monitor_min('force_barrier'):.2e}")
    # Steady following phase of the shipped profile (lead holding speed
    # after its braking segment): conservative keeps at least the optimal
    # run's gap, within the allowed 0.1 m.
    dt = runs["optimal"][0].scenario.dt
    i0, i1 = int(round(23.0 / dt)), int(round(26.0 / dt))
    d_gap = runs["conservative"][1].x[i0:i1, 2] - runs["optimal"][1].x[i0:i1, 2]
    ok &= bool(np.min(d_gap) >= -0.1)
    details.append(f"following-phase gap dominance min {np.min(d_gap):.2f} m")
    ok &= total < 20.0
    details.append(f"runtime {total:.1f} s")
    _report("2 (force-limited runs, both margins)", ok, "; ".join(details))

    for variant, (job, traj) in runs.items():
        assert float(np.nanmax(np.abs(traj.u))) <= comfort + 1e-6
        assert traj.monitor_min("force_barrier") >= -1e-6
        assert traj.monitor_min("headway") >= -1e-6
        assert not traj.aborted
    assert np.min(d_gap) >= -0.1
    assert total < 20.0


def test_criterion_3_margin_closed_forms_match_oracle():
    started = time.perf_counter()
    grid = np.linspace(0.0, 40.0, 20)
    worst = 0.0
    for a_f in (0.2, 0.25, 0.3):
        for a_l in (0.2, 0.25, 0.3):
            params = AccParams(a_f=a_f, a_l=a_l)
            for v_f in grid:
                for v_l in grid:
                    ref_o, ref_c = braking_margins(v_f, v_l, a_f, a_l)
                    got_o = delta_optimal(params, v_f, v_l)
                    got_c = delta_conservative(params, v_f, v_l)
                    worst = max(
                        worst,
                        abs(got_o - ref_o) / max(ref_o, 1.0),
                        abs(got_c - ref_c) / max(ref_c, 1.0),
                    )
    elapsed = time.perf_counter() - started
    ok = worst <= 5e-3 and elapsed < 60.0
    _report("3 (stopping margins vs braking oracle)", ok,
            f"worst rel err {worst:.2e}; runtime {elapsed:.1f} s")
    assert worst <= 5e-3
    assert elapsed < 60.0


def test_criterion_4_solver_equivalence():
    rng = np.random.default_rng(20240801)
    checked = 0
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        while True:
            L = rng.normal(size=(n, n))
            H = L @ L.T + 0.1 * np.eye(n)
            eig = np.linalg.eigvalsh(H)
            if eig[-1] / eig[0] <= 1e4:
                break
        F = rng.normal(size=n)
        rows = [(rng.normal(size=n), rng.normal()) for _ in range(2)]
        cf = solve_two_constraint_closed_form(QpProblem(H, F, rows))
        if cf.status != "optimal":
            continue
        az = solve_active_set(QpProblem(H, F, rows))
        err = np.linalg.norm(cf.z - az.z) / (1 + np.linalg.norm(az.z))
        worst = max(worst, err)
        checked += 1
    ok = checked >= 950 and worst <= 1e-6

    # Gate-straddling instances: the adjacent multiplier formulas agree at
    # the branch boundaries.
    G = np.array([[1.3, 0.55], [0.55, 0.9]])
    det = G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]
    boundary_gap = 0.0
    p2 = -0.7
    p1 = G[1, 0] * p2 / G[1, 1]  # gate 1 boundary
    lam_first = np.array([0.0, p2 / G[1, 1]])
    lam_both = np.array([
        min(G[1, 1] * p1 - G[1, 0] * p2, 0.0) / det,
        min(G[0, 0] * p2 - G[0, 1] * p1, 0.0) / det,
    ])
    boundary_gap = max(boundary_gap, float(np.max(np.abs(lam_first - lam_both))))
    for eps in (-1e-9, 1e-9):
        lam, _ = closed_form_multipliers(G, np.array([p1 + eps, p2]))
        boundary_gap = max(boundary_gap, float(np.max(np.abs(lam - lam_first))))
    p1 = -1.1
    p2 = G[0, 1] * p1 / G[0, 0]  # gate 2 boundary
    lam_second = np.array([p1 / G[0, 0], 0.0])
    lam_both = np.array([
        min(G[1, 1] * p1 - G[1, 0] * p2, 0.0) / det,
        min(G[0, 0] * p2 - G[0, 1] * p1, 0.0) / det,
    ])
    boundary_gap = max(boundary_gap, float(np.max(np.abs(lam_second - lam_both))))
    for eps in (-1e-9, 1e-9):
        lam, _ = closed_form_multipliers(G, np.array([p1, p2 + eps]))
        boundary_gap = max(boundary_gap, float(np.max(np.abs(lam - lam_second))))
    ok &= boundary_gap <= 1e-8

    _report("4 (closed form vs active set)", ok,
            f"{checked} instances, worst {worst:.2e}; "
            f"gate gap {boundary_gap:.2e}")
    assert checked >= 950
    assert worst <= 1e-6
    assert boundary_gap <= 1e-8


def test_criterion_5_growth_bound_ode():
    worst = 0.0
    for y0 in (0.1, 1.0, 10.0):
        for t in np.linspace(0.0, 10.0, 21):
            y = comparison_ode_solution(lambda s: s, y0, float(t))
            worst = max(worst, abs(y - math.sqrt(2 * t + y0 * y0)))
    ok = worst <= 1e-6
    monotone = True
    for alpha in (lambda s: s * s, lambda s: math.atan(s)):
        prev = 0.0
        for t in np.linspace(0.0, 10.0, 11):
            y = comparison_ode_solution(alpha, 1.0, float(t))
            monotone &= y > prev if t > 0 else y == 1.0
            monotone &= math.isfinite(y) and y > 0
            prev = y
    ok &= monotone
    _report("5 (growth-bound ODE vs closed form)", ok,
            f"worst abs err {worst:.2e}; positivity/monotonicity {monotone}")
    assert worst <= 1e-6
    assert monotone


def test_criterion_6_lane_keeping(lk_run):
    job, traj, elapsed = lk_run
    p = LkParams()
    max_y = float(np.max(np.abs(traj.x[:, 0])))
    accel = [abs(lateral_accel(p, traj.x[k], float(traj.u[k, 0]),
                               job.scenario.exogenous(traj.t[k])))
             for k in range(traj.samples - 1)]
    max_acc = max(accel)
    # gain comes from a Riccati solve with certified residual
    A, B, _ = lk_matrices(p)
    c = np.asarray(p.lqr_preview)
    cA = c @ A
    Q = p.lqr_kp * np.outer(c, c) + p.lqr_kd * np.outer(cA, cA)
    P_ric = care_solve(A, B, Q, p.lqr_control_weight)
    resid = np.linalg.norm(
        A.T @ P_ric + P_ric @ A
        - np.outer(P_ric @ B, B @ P_ric) / p.lqr_control_weight + Q)
    ok = (max_y <= p.y_max + 1e-3 and max_acc <= 0.3 * 9.81 + 1e-6
          and resid <= 1e-6 * np.linalg.norm(Q) and elapsed < 10.0
          and not traj.aborted)
    _report("6 (lane keeping on the curved road)", ok,
            f"max |y| {max_y:.3f} m; max |ydd| {max_acc:.3f} m/s^2; "
            f"Riccati resid {resid:.2e}; runtime {elapsed:.1f} s")
    assert max_y <= p.y_max + 1e-3
    assert max_acc <= 0.3 * 9.81 + 1e-6
    assert resid <= 1e-6 * np.linalg.norm(Q)
    assert elapsed < 10.0
    assert not traj.aborted


def test_criterion_7_invariance_suite(qp2_runs, zcbf_runs, lk_run):
    runs, _ = qp2_runs
    checks = []
    for variant, (job, traj) in list(runs.items()) + list(zcbf_runs.items()):
        x0 = job.scenario.x0
        params = AccParams(a_l=0.28, a_l_accel=0.28)
        variant_name = job.scenario.meta["controller"]
        h0 = abs(force_h_field(params,
                               "optimal" if "optimal" in variant_name
                               else "conservative")(x0))
        tol = -1e-6 * (1 + h0)
        all_solved = set(traj.status_histogram()) == {"optimal"}
        checks.append((variant_name, all_solved,
                       traj.monitor_min("force_barrier"), tol))
    job, traj, _ = lk_run
    h0 = abs(lk_h_field(LkParams())(job.scenario.x0))
    checks.append(("lk_log", set(traj.status_histogram()) == {"optimal"},
                   traj.monitor_min("barrier"), -1e-6 * (1 + h0)))
    job_z = _load("lk_curved", overrides={"controller.form": "zeroing"})
    traj_z = run(job_z.scenario)
    checks.append(("lk_zeroing", set(traj_z.status_histogram()) == {"optimal"},
                   traj_z.monitor_min("barrier"), -1e-6 * (1 + h0)))

    ok = all(solved and mn >= tol for _, solved, mn, tol in checks)

    # Verdict stability under dt/2 on the risky segment of each scenario.
    stable = True
    for name, horizon in (("acc_force_optimal", 30.0),
                          ("acc_force_conservative", 30.0),
                          ("acc_zcbf_optimal", 30.0),
                          ("acc_zcbf_conservative", 30.0),
                          ("lk_curved", 12.0)):
        scenario = _load(name, horizon=horizon).scenario
        rep = refine_check(scenario, run(scenario), 2)
        stable &= rep.verdicts_unchanged
    scenario = _load("lk_curved", horizon=12.0,
                     overrides={"controller.form": "zeroing"}).scenario
    rep = refine_check(scenario, run(scenario), 2)
    stable &= rep.verdicts_unchanged
    ok &= stable

    detail = "; ".join(f"{n}: min {mn:.2e} (tol {tol:.1e})"
                       for n, _, mn, tol in checks)
    _report("7 (invariance of all closed-loop runs + refinement stability)",
            ok, detail + f"; refine verdicts stable: {stable}")
    for name, solved, mn, tol in checks:
        assert solved, name
        assert mn >= tol, (name, mn, tol)
    assert stable


def _acc_interior_sampler(params, variant, rng):
    while True:
        v_f, v_l = rng.uniform(0.5, 39.5, size=2)
        if _near_margin_gate(params, v_f, v_l):
            continue
        margin = (delta_optimal if variant == "optimal"
                  else delta_conservative)(params, v_f, v_l)
        return np.array([v_f, v_l, margin + rng.uniform(0.5, 250.0)])


def _near_margin_gate(params, v_f, v_l, margin=0.05):
    a_f, a_l, g = params.a_f, params.a_l, params.g
    tau_g = params.tau_d * a_f * g
    gates = [v_f - v_l, v_f / (a_f * g) - v_l / (a_l * g),
             v_f - (v_l + tau_g)]
    if a_f > a_l:
        gates.append(v_f - ((a_f / a_l) * v_l + tau_g))
    if a_f < a_l:
        gates.append(v_f - (math.sqrt(a_f / a_l) * v_l + tau_g))
        gates.append(v_f * v_f * a_l - v_l * v_l * a_f)
    return any(abs(gv) < margin for gv in gates)


def test_criterion_8_gradient_suite():
    rng = np.random.default_rng(88)
    worst = 0.0

    def check(field, sample, n=100):
        nonlocal worst
        for _ in range(n):
            x = sample()
            ref = fd_gradient(field, x)
            got = field.grad(x)
            scale = np.maximum(np.abs(ref), 1e-3)
            worst = max(worst, float(np.max(np.abs(got - ref) / scale)))

    p = AccParams()
    acc_sample = lambda: np.array([rng.uniform(0.5, 39), rng.uniform(0.5, 39),
                                   rng.uniform(1.0, 400.0)])
    check(headway_field(p), acc_sample)
    check(acc_clf(p).V, acc_sample)
    for a_f, a_l in ((0.25, 0.25), (0.3, 0.2), (0.2, 0.3)):
        params = AccParams(a_f=a_f, a_l=a_l)
        for variant in ("optimal", "conservative"):
            check(force_h_field(params, variant),
                  lambda params=params, variant=variant:
                      _acc_interior_sampler(params, variant, rng))
    lk_p = LkParams()
    h_lk = lk_h_field(lk_p)

    def lk_sample():
        while True:
            x = rng.uniform([-0.8, -2.0, -0.05, -0.2], [0.8, 2.0, 0.05, 0.2])
            if abs(x[1] + lk_p.v0 * x[2]) > 1e-2:
                return x

    check(h_lk, lk_sample)
    ok = worst <= 1e-5
    _report("8 (closed-form gradients vs finite differences)", ok,
            f"worst rel err {worst:.2e} over all built-in fields")
    assert worst <= 1e-5


def test_criterion_9_certificate_utilities():
    decay = ControlAffineSystem(
        state_dim=1, input_dim=1,
        drift=lambda x, w: np.array([-x[0]]),
        input_map=lambda x: np.array([[1.0]]),
    )
    h_x = linear_field([1.0], name="x")
    gamma_hat = estimate_contractivity_gamma(
        decay, h_x, 1,
        lambda n, rng: np.linspace(0.01, 1.0, 2000).reshape(-1, 1),
        count=2000,
    )
    ok = abs(gamma_hat - 1.0) <= 1e-3

    # Invariant-but-uncertifiable planar flow: the sampled lower envelope
    # of dh/dt diverges as the box widens.
    sys2 = ControlAffineSystem(
        state_dim=2, input_dim=1,
        drift=lambda x, w: np.array([-0.5 * x[1], -x[0] ** 3 + 1.0]),
        input_map=lambda x: np.array([[0.0], [1.0]]),
    )
    h2 = ScalarField(value=lambda x: x[1] - x[0] ** 2,
                     gradient=lambda x: np.array([-2.0 * x[0], 1.0]),
                     name="above_parabola")
    envelopes = []
    for radius in (10.0, 100.0, 1000.0):
        def sampler(n, rng, radius=radius):
            x1 = np.linspace(-radius, radius, 401)
            hh = np.linspace(0.0, 2.0, 11)
            X1, HH = np.meshgrid(x1, hh)
            return np.column_stack([X1.ravel(), (X1 ** 2 + HH).ravel()])
        table = estimate_zbf_alpha(sys2, h2, sampler, [2.0], count=0)
        envelopes.append(-table[-1][1])
    diverging = envelopes[0] > envelopes[1] > envelopes[2] and envelopes[2] < -1e3
    ok &= diverging
    _report("9 (sampled rate certificates)", ok,
            f"gamma_hat {gamma_hat:.6f}; envelope at radius 1e3: "
            f"{envelopes[2]:.0f}")
    assert abs(gamma_hat - 1.0) <= 1e-3
    assert diverging


def test_criterion_10_zeroing_smoothness_advisory(qp2_runs, zcbf_runs):
    runs, _ = qp2_runs
    results = {}
    for variant in ("optimal", "conservative"):
        u_r = runs[variant][1].u[:, 0]
        tv_r = float(np.nansum(np.abs(np.diff(u_r[np.isfinite(u_r)]))))
        job_z, traj_z = zcbf_runs[variant]
        # align to the reciprocal run's coarser grid before comparing
        stride = int(round(runs[variant][0].scenario.dt / job_z.scenario.dt))
        u_z = traj_z.u[::stride, 0]
        tv_z = float(np.nansum(np.abs(np.diff(u_z[np.isfinite(u_z)]))))
        results[variant] = (tv_z, tv_r)
    smoother = all(tv_z < tv_r for tv_z, tv_r in results.values())
    detail = "; ".join(f"{v}: TV(zeroing)={a:.0f} vs TV(reciprocal)={b:.0f}"
                       for v, (a, b) in results.items())
    _report("10 (zeroing barriers give smoother force; advisory)", smoother,
            detail)
    if not smoother:
        warnings.warn(
            "zeroing-barrier runs did not produce lower force variation; "
            "reported as advisory only: " + detail
        )

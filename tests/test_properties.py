"""Cross-cutting closed-loop properties: invariance via admissibility, the
reciprocal growth bound, and controller regularity probes."""

import bisect
import math

import numpy as np
import pytest

from cbfsim.acc import AccParams, acc_qp_spec, force_h_field, headway_barrier, headway_field
from cbfsim.barriers import cbf_admissible, comparison_ode_solution
from cbfsim.controller import build_qp
from cbfsim.errors import NumericBlowupError
from cbfsim.lk import LkParams, lk_qp_spec
from cbfsim.qp import assemble_h_inner_product
from cbfsim.scenario_io import build_run_job, parse_scenario_file, resolve_scenario_path
from cbfsim.simulate import run


@pytest.fixture(scope="module")
def basic_20s():
    doc = parse_scenario_file(resolve_scenario_path("acc_basic"))
    job = build_run_job(doc, horizon=20.0)
    return job, run(job.scenario)


@pytest.fixture(scope="module")
def zcbf_10s():
    doc = parse_scenario_file(resolve_scenario_path("acc_zcbf_optimal"))
    job = build_run_job(doc, horizon=10.0)
    return job, run(job.scenario)


def test_admissible_inputs_imply_forward_invariance(basic_20s):
    # Every applied input satisfies the reciprocal admissibility predicate,
    # and the trajectory indeed never touches the boundary.
    job, traj = basic_20s
    p = AccParams()
    barrier = headway_barrier(p, "log")
    sys = job.scenario.sys
    for k in range(0, traj.samples - 1, 20):
        w = np.array([job.scenario.exogenous(traj.t[k])])
        assert cbf_admissible(sys, barrier, traj.x[k], w, traj.u[k])
    h = headway_field(p)
    assert min(h(traj.x[k]) for k in range(traj.samples)) > 0.0


def test_zeroing_admissibility_and_tolerated_minimum(zcbf_10s):
    job, traj = zcbf_10s
    p = AccParams(a_l=0.28, a_l_accel=0.28)
    from cbfsim.acc import force_barrier
    barrier = force_barrier(p, "optimal", "zeroing")
    sys = job.scenario.sys
    for k in range(0, traj.samples - 1, 40):
        w = np.array([job.scenario.exogenous(traj.t[k])])
        assert cbf_admissible(sys, barrier, traj.x[k], w, traj.u[k])
    h0 = abs(force_h_field(p, "optimal")(job.scenario.x0))
    assert traj.monitor_min("force_barrier") >= -1e-6 * (1 + h0)


def test_reciprocal_growth_bound_along_run(basic_20s):
    # B(x(t)) stays below the scalar comparison solution seeded at B(x0):
    # the barrier can grow, but no faster than the gamma/B rate allows.
    job, traj = basic_20s
    p = AccParams()
    barrier = headway_barrier(p, "log")
    b0 = barrier.value(traj.x[0])
    worst = 0.0
    for k in range(0, traj.samples, 10):
        bk = barrier.value(traj.x[k])
        bound = math.sqrt(b0 * b0 + 2.0 * p.cbf_rate * traj.t[k])
        worst = max(worst, bk / bound)
    assert worst <= 1.0 + 1e-9
    # the generic ODE-based bound agrees with the closed form used above
    for t in (0.0, 1.0, 5.0, 20.0):
        y = comparison_ode_solution(lambda s: p.cbf_rate * s, b0, t)
        assert y == pytest.approx(math.sqrt(b0 * b0 + 2 * p.cbf_rate * t),
                                  rel=1e-8)


def _running_median_flags(ratios, factor=10.0, warmup=50):
    """Steps whose ratio exceeds factor x the running median so far."""
    window: list = []
    flags = []
    for k, r in enumerate(ratios):
        if len(window) >= warmup and r > factor * window[len(window) // 2]:
            flags.append(k)
        bisect.insort(window, r)
    return flags


def test_controller_lipschitz_probe_unbounded(basic_20s):
    # Away from working-set changes the input is locally Lipschitz in the
    # state: within each constant-active-set stretch no per-step ratio
    # spikes past 10x that stretch's running median. At a change itself,
    # continuity (not differentiability) holds: the per-step jump halves
    # when dt halves.
    job, traj = basic_20s
    du = np.abs(np.diff(traj.u[:-1, 0]))
    dx = np.linalg.norm(np.diff(traj.x[:-1], axis=0), axis=1)
    ratios = du / np.maximum(dx, 1e-30)
    boundaries = [k for k in range(len(du))
                  if traj.active_sets[k + 1] != traj.active_sets[k]]
    segments = []
    start = 0
    for c in boundaries:
        segments.append((start, c))
        start = c + 1
    segments.append((start, len(ratios)))
    assert np.all(np.isfinite(ratios))  # finite per-run Lipschitz estimate
    for lo, hi in segments:
        assert _running_median_flags(ratios[lo:hi]) == []

    doc = parse_scenario_file(resolve_scenario_path("acc_basic"))
    fine = run(build_run_job(doc, horizon=20.0, dt=5e-4).scenario)
    du_fine = np.abs(np.diff(fine.u[:-1, 0]))
    shrink = float(du.max() / du_fine.max())
    assert 1.5 <= shrink <= 3.0


def test_controller_lipschitz_probe_bounded_is_advisory(qp2_short=None):
    # With input bounds the continuity of the pointwise minimizer is not
    # guaranteed; the probe is computed and reported, never asserted.
    doc = parse_scenario_file(resolve_scenario_path("acc_force_optimal"))
    traj = run(build_run_job(doc, horizon=10.0).scenario)
    du = np.abs(np.diff(traj.u[:-1, 0]))
    dx = np.linalg.norm(np.diff(traj.x[:-1], axis=0), axis=1)
    ratios = du / np.maximum(dx, 1e-30)
    assert np.all(np.isfinite(ratios))
    print(f"advisory bounded-input Lipschitz ratio: median "
          f"{np.median(ratios):.1f}, max {np.max(ratios):.1f}")


def test_gram_data_finite_at_reference_state():
    p = AccParams()
    spec = acc_qp_spec(p, level="basic")
    qp, _ = build_qp(spec, np.array([18.0, 10.0, 150.0]), np.array([0.0]))
    gd = assemble_h_inner_product(qp)
    assert np.all(np.isfinite(gd.G))
    det = gd.G[0][0] * gd.G[1][1] - gd.G[0][1] * gd.G[1][0]
    assert det > 0.0


def test_zeroing_row_rewrite_structure():
    # Zeroing rows enter the QP rewritten to <= form: -Lg h . u <= Lf h + alpha(h).
    p = AccParams()
    spec = acc_qp_spec(p, level="force", variant="optimal", kind="zeroing")
    x = np.array([18.0, 10.0, 150.0])
    w = np.array([0.3])
    qp, labels = build_qp(spec, x, w)
    i = labels.index("cbf:0")
    a, b = qp.rows[i]
    from cbfsim.acc import force_barrier
    from cbfsim.systems import lie_derivatives
    barrier = force_barrier(p, "optimal", "zeroing")
    lf, lg = lie_derivatives(spec.sys, barrier.h, x, w)
    assert a[0] == pytest.approx(-lg[0], rel=1e-12)
    assert a[1] == 0.0
    assert b == pytest.approx(lf + barrier.alpha(barrier.h(x)), rel=1e-12)


def _acc_sample(rng):
    v_f, v_l = rng.uniform(5.0, 30.0, size=2)
    x = np.array([v_f, v_l, rng.uniform(10.0, 300.0)])
    return x, np.array([rng.uniform(-2.0, 2.0)])


def _lk_sample(rng):
    x = rng.uniform([-0.4, -0.5, -0.02, -0.2], [0.4, 0.5, 0.02, 0.2])
    return x, np.array([rng.uniform(-0.05, 0.05)])


@pytest.mark.parametrize("form", ["log", "inverse", "zeroing"])
def test_admissibility_predicate_matches_qp_row(form):
    # cbf_admissible and the build_qp barrier row state one contract: at
    # z = (u, 0) the row holds iff the predicate accepts u, away from the
    # predicate's relative slack, and the row's edge input is accepted.
    rng = np.random.default_rng(7)
    p = AccParams()
    specs = [
        (acc_qp_spec(p, "basic", kind=form), _acc_sample),
        (acc_qp_spec(p, "force", "optimal", form), _acc_sample),
        (lk_qp_spec(LkParams(), form), _lk_sample),
    ]
    for spec, sample in specs:
        barrier = spec.cbf_rows[0]
        verdicts = set()
        states = 0
        while states < 15:
            x, w = sample(rng)
            if barrier.h(x) <= 0.1:
                continue
            states += 1
            qp, labels = build_qp(spec, x, w)
            a, b = qp.rows[labels.index("cbf:0")]
            assert a[1] == 0.0 and a[0] != 0.0
            u_edge = b / a[0]
            assert cbf_admissible(spec.sys, barrier, x, w, [u_edge])
            for u in u_edge * (1.0 + 0.01 * rng.standard_normal(4)):
                lhs = a[0] * u
                if abs(lhs - b) <= 1e-6 * (1.0 + abs(lhs) + abs(b)):
                    continue
                ok = cbf_admissible(spec.sys, barrier, x, w, [u])
                assert ok == (lhs <= b), (spec.name, x, w, u)
                verdicts.add(ok)
        assert verdicts == {True, False}, spec.name


def test_comparison_ode_step_failure_reports_last_t():
    def broken(s):
        return float("nan")

    with pytest.raises(NumericBlowupError) as exc:
        comparison_ode_solution(broken, 1.0, 1.0)
    assert exc.value.last_valid_t is not None

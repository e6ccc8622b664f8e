import math

import numpy as np
import pytest

from cbfsim.acc import AccParams, acc_qp_spec, headway_field
from cbfsim.errors import NumericBlowupError
from cbfsim.scenario_io import build_run_job, parse_scenario_file, resolve_scenario_path
from cbfsim.simulate import (
    Monitor,
    PiecewiseConstantSignal,
    Scenario,
    integrate_step,
    monitor_verdicts,
    refine_check,
    run,
)
from cbfsim.systems import ControlAffineSystem

from oracles import rk4_reference

P = AccParams()


def decay_system():
    return ControlAffineSystem(
        state_dim=1, input_dim=1,
        drift=lambda x, w: np.array([-x[0]]),
        input_map=lambda x: np.array([[1.0]]),
    )


def basic_scenario(horizon=2.0, dt=1e-3, profile=((0.0, 0.0),)):
    spec = acc_qp_spec(P, level="basic")
    h = headway_field(P)
    x0 = np.array([18.0, 10.0, 150.0])
    return Scenario(
        scenario_id="t",
        sys=spec.sys,
        controller=spec,
        x0=x0,
        horizon=horizon,
        dt=dt,
        exogenous=PiecewiseConstantSignal(tuple(profile)),
        monitors=(Monitor.from_field(h, -1e-6 * (1 + abs(h(x0))), name="headway"),),
        exogenous_bounds=P.lead_accel_bounds(),
    )


def test_piecewise_constant_lookup():
    sig = PiecewiseConstantSignal(((0.0, 1.0), (2.0, -3.0), (5.0, 0.5)))
    assert sig(0.0) == 1.0
    assert sig(1.999) == 1.0
    assert sig(2.0) == -3.0
    assert sig(10.0) == 0.5
    with pytest.raises(ValueError):
        PiecewiseConstantSignal(((0.0, 1.0), (0.0, 2.0)))


def test_integrate_step_zero_field_identity():
    sys = ControlAffineSystem(
        state_dim=2, input_dim=1,
        drift=lambda x, w: np.zeros(2),
        input_map=lambda x: np.zeros((2, 1)),
    )
    x = np.array([1.5, -2.0])
    np.testing.assert_array_equal(integrate_step(sys, x, [0.0], None, 0.01), x)


def test_integrate_step_exponential_decay_accuracy():
    sys = decay_system()
    x1 = integrate_step(sys, np.array([1.0]), [0.0], None, 0.001)
    assert x1[0] == pytest.approx(math.exp(-0.001), abs=1e-12)


def test_integrate_step_blowup_detection():
    sys = ControlAffineSystem(
        state_dim=1, input_dim=1,
        drift=lambda x, w: np.array([x[0] ** 3]),
        input_map=lambda x: np.array([[0.0]]),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericBlowupError):
            integrate_step(sys, np.array([1e200]), [0.0], None, 0.01)
    with pytest.raises(ValueError):
        integrate_step(decay_system(), np.array([1.0]), [0.0], None, 0.2, dt_max=0.05)


def test_rk4_empirical_order():
    # Richardson ratio on a smooth nonlinear system: halving dt cuts the
    # error by ~2^4.
    sys = ControlAffineSystem(
        state_dim=1, input_dim=1,
        drift=lambda x, w: np.array([math.sin(x[0]) + 0.5]),
        input_map=lambda x: np.array([[0.0]]),
    )

    def endpoint(dt):
        x = np.array([0.3])
        for _ in range(int(round(0.5 / dt))):
            x = integrate_step(sys, x, [0.0], None, dt)
        return x[0]

    ref = rk4_reference(lambda x: np.array([math.sin(x[0]) + 0.5]),
                        [0.3], 0.5, 1e-5)[0]
    e1 = abs(endpoint(0.02) - ref)
    e2 = abs(endpoint(0.01) - ref)
    order = math.log2(e1 / e2)
    assert 3.8 <= order <= 4.2


def test_zero_horizon_trajectory():
    sc = basic_scenario(horizon=0.0)
    traj = run(sc)
    assert traj.samples == 1
    np.testing.assert_array_equal(traj.x[0], sc.x0)
    assert np.isnan(traj.u[0, 0])
    assert traj.qp_status == [""]
    assert math.isfinite(traj.monitors["headway"][0])


def test_series_share_length():
    traj = run(basic_scenario(horizon=0.05))
    n = traj.samples
    assert traj.t.shape == (n,)
    assert traj.x.shape[0] == n
    assert traj.u.shape[0] == n
    assert traj.delta.shape == (n,)
    assert len(traj.qp_status) == n
    assert len(traj.active_sets) == n
    for series in traj.monitors.values():
        assert series.shape == (n,)
    # final sample has state and monitors but no applied input
    assert np.isnan(traj.u[-1, 0])
    assert traj.qp_status[-2] == "optimal"


def test_determinism_bit_identical():
    a = run(basic_scenario(horizon=0.5))
    b = run(basic_scenario(horizon=0.5))
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.u[:-1], b.u[:-1])
    assert a.qp_status == b.qp_status
    assert a.active_sets == b.active_sets


def test_monitor_soundness():
    # A violation flag is raised iff the recorded value crosses the
    # threshold; no silent clamping of the recorded series.
    sc = basic_scenario(horizon=0.2)
    crossing = Monitor(name="speed_cap", fn=lambda x, u, w: 18.5 - x[0],
                       threshold=0.0)
    sc2 = Scenario(
        scenario_id="m", sys=sc.sys, controller=sc.controller, x0=sc.x0,
        horizon=0.2, dt=sc.dt, exogenous=sc.exogenous,
        monitors=sc.monitors + (crossing,),
        exogenous_bounds=sc.exogenous_bounds,
    )
    traj = run(sc2)
    vals = traj.monitors["speed_cap"]
    flagged_steps = {v.step for v in traj.violations if v.name == "speed_cap"}
    below = {k for k in range(traj.samples) if vals[k] < 0.0}
    assert flagged_steps == below
    assert len(below) > 0  # the follower accelerates past 18.5 quickly
    assert traj.monitor_min("speed_cap") == pytest.approx(float(np.nanmin(vals)))
    assert traj.first_violation("speed_cap") == pytest.approx(min(below) * sc.dt)


def test_input_monitors_record_nan_on_final_sample():
    # No input is applied from the final sample, so a monitor of the input
    # records NaN there (and never flags).
    doc = parse_scenario_file(resolve_scenario_path("lk_curved"))
    traj = run(build_run_job(doc, horizon=0.2).scenario)
    lat = traj.monitors["lat_accel"]
    assert np.all(np.isfinite(lat[:-1]))
    assert math.isnan(lat[-1])
    assert math.isfinite(traj.monitors["lane"][-1])


def test_exogenous_bounds_validated():
    with pytest.raises(ValueError, match="bounds"):
        basic_scenario(profile=((0.0, 5.0),))  # beyond 0.25 g


def test_refine_check_identity_and_verdict_stability():
    sc = basic_scenario(horizon=0.2)
    coarse = run(sc)
    rep1 = refine_check(sc, coarse, 1)
    assert rep1.max_state_deviation == 0.0
    assert rep1.verdicts_unchanged
    rep2 = refine_check(sc, coarse, 2)
    # the zero-order hold of the control dominates: O(dt), small but not
    # integrator-order small on an aggressive transient
    assert rep2.max_state_deviation < 5e-3
    assert rep2.verdicts_unchanged
    with pytest.raises(ValueError):
        refine_check(sc, coarse, 0)


def _constant_input_scenario(dt):
    # Linear stable system under a state-independent controller: refining
    # dt exposes the bare integrator error.
    from cbfsim.barriers import ClassKFunction, ZeroingBarrier
    from cbfsim.controller import ControllerSpec
    from cbfsim.systems import linear_field

    sys = ControlAffineSystem(
        state_dim=1, input_dim=1,
        drift=lambda x, w: np.array([-1.3 * x[0]]),
        input_map=lambda x: np.array([[1.0]]),
    )
    barrier = ZeroingBarrier(
        h=linear_field([1.0], offset=100.0, name="far"),
        alpha=ClassKFunction(extended=True),
    )
    spec = ControllerSpec(
        sys=sys,
        cbf_rows=(barrier,),
        cost=lambda x, w: (np.diag([2.0, 2.0]), np.zeros(2)),
        nominal_feedback=lambda x, w: 0.7,
        name="const",
    )
    return Scenario(
        scenario_id="lin", sys=sys, controller=spec, x0=np.array([2.0]),
        horizon=0.64, dt=dt,
        exogenous=PiecewiseConstantSignal(((0.0, 0.0),)),
    )


def test_refine_check_richardson_ratio_without_hold_effects():
    # With a constant applied input the dt vs dt/2 deviation is pure RK4
    # truncation: halving dt again shrinks it by ~2^4.
    sc1, sc2 = _constant_input_scenario(0.04), _constant_input_scenario(0.02)
    d1 = refine_check(sc1, run(sc1), 2).max_state_deviation
    d2 = refine_check(sc2, run(sc2), 2).max_state_deviation
    assert d1 > 0
    assert 10.0 < d1 / d2 < 22.0


def test_monitor_verdict_map():
    traj = run(basic_scenario(horizon=0.05))
    verdicts = monitor_verdicts(traj, basic_scenario(horizon=0.05).monitors)
    assert verdicts == {"headway": True}

import math

import numpy as np
import pytest

from cbfsim.acc import AccParams, acc_clf, acc_dynamics, acc_qp_spec
from cbfsim.controller import ControllerSpec, EsClf, build_qp, evaluate, min_norm_clf
from cbfsim.errors import InfeasibleError, SafetyDomainError
from cbfsim.lk import LkParams, lk_qp_spec
from cbfsim.systems import ControlAffineSystem, InputPolytope, ScalarField

X0 = np.array([18.0, 10.0, 150.0])
W0 = np.array([0.0])


def test_build_qp_cost_matrix_and_clf_rhs():
    p = AccParams()
    spec = acc_qp_spec(p, level="basic")
    qp, labels = build_qp(spec, X0, W0)
    np.testing.assert_allclose(qp.H, 2.0 * np.diag([1.0 / 1650.0 ** 2, 100.0]))
    assert labels == ["clf", "cbf:0"]
    a_clf, b_clf = qp.rows[0]
    # Lg V enters the input slot, the relaxation coefficient is -1.
    assert a_clf[0] == pytest.approx(2.0 * (18.0 - 22.0) / 1650.0)
    assert a_clf[1] == -1.0
    # rhs = -Lf V - c V with Lf V computed independently by differencing V
    # along the drift.
    V = acc_clf(p).V
    sys = spec.sys
    f = sys.drift(X0, W0)
    eps = 1e-7
    lf_v = (V(X0 + eps * f) - V(X0 - eps * f)) / (2 * eps)
    assert b_clf == pytest.approx(-lf_v - 10.0 * 16.0, rel=1e-6)
    assert b_clf == pytest.approx(-lf_v - 160.0, rel=1e-6)


def test_build_qp_row_order_force_level():
    p = AccParams()
    spec = acc_qp_spec(p, level="force", variant="conservative")
    qp, labels = build_qp(spec, X0, W0)
    assert labels == ["clf", "cbf:0", "bound:0", "bound:1"]
    # force box rows: u <= a_f' M g and -u <= a_f M g
    np.testing.assert_allclose(qp.rows[2][0], [1.0, 0.0])
    assert qp.rows[2][1] == pytest.approx(0.25 * 1650.0 * 9.81)
    np.testing.assert_allclose(qp.rows[3][0], [-1.0, 0.0])
    assert qp.rows[3][1] == pytest.approx(0.25 * 1650.0 * 9.81)


def test_build_qp_outside_safe_set_raises():
    p = AccParams()
    spec = acc_qp_spec(p, level="basic")
    with pytest.raises(SafetyDomainError):
        build_qp(spec, np.array([30.0, 10.0, 10.0]), W0)  # headway violated


def test_lk_nominal_rows_share_relaxation():
    p = LkParams()
    spec = lk_qp_spec(p)
    x = np.array([0.1, 0.0, 0.0, 0.0])
    qp, labels = build_qp(spec, x, W0)
    assert labels[:2] == ["nominal+", "nominal-"]
    np.testing.assert_allclose(qp.rows[0][0], [1.0, -1.0])
    np.testing.assert_allclose(qp.rows[1][0], [-1.0, 1.0])
    assert qp.rows[0][1] == pytest.approx(-qp.rows[1][1])
    assert labels[2] == "cbf:0"
    assert len(qp.rows) == 5  # two tracking rows, barrier, two bounds


def test_evaluate_uses_closed_form_path_when_two_rows():
    p = AccParams()
    spec = acc_qp_spec(p, level="basic")
    step = evaluate(spec, X0, W0)
    assert step.status == "optimal"
    assert step.labels == ["clf", "cbf:0"]
    # CBF row slack so far from the boundary; CLF row active.
    assert step.row_active("clf")
    assert not step.row_active("cbf:0")


def test_delta_reported_equals_clf_slack_deficit():
    p = AccParams()
    spec = acc_qp_spec(p, level="force", variant="optimal")
    for x in (X0, np.array([21.0, 12.0, 70.0]), np.array([15.0, 9.0, 40.0])):
        step = evaluate(spec, x, W0)
        qp, labels = build_qp(spec, x, W0)
        a, b = qp.rows[0]
        residual = float(a @ np.concatenate([step.u, [step.delta]]) - b)
        # delta enters the row with coefficient -1: the row holds with
        # equality at the optimum whenever delta > 0.
        if step.delta > 1e-9:
            assert abs(residual) <= 1e-8 * (1 + abs(b))
        # hard rows never violated
        for (ar, br), lab in zip(qp.rows[1:], labels[1:]):
            assert float(ar @ np.concatenate([step.u, [step.delta]])) <= br + 1e-8 * (1 + abs(br))


def test_safety_rows_hard_under_conflict():
    # Squeeze the gap: the CLF wants to accelerate, the barrier forbids it.
    p = AccParams()
    spec = acc_qp_spec(p, level="basic")
    x = np.array([18.0, 10.0, 1.8 * 18.0 + 2.0])  # h = 2 m
    step = evaluate(spec, x, W0)
    assert step.delta > 0.01
    assert step.row_active("cbf:0")
    qp, _ = build_qp(spec, x, W0)
    a, b = qp.rows[1]
    assert float(a @ np.concatenate([step.u, [step.delta]])) <= b + 1e-8


def test_infeasible_fallback_applies_saturated_braking():
    p = AccParams()
    spec = acc_qp_spec(p, level="force", variant="optimal")
    # Outside the force-safe set the row demands more braking than the box
    # allows; craft a state inside C_F (so rows build) but adversarially
    # override the bound to force infeasibility.
    narrow = ControllerSpec(
        sys=spec.sys,
        cbf_rows=spec.cbf_rows,
        cost=spec.cost,
        clf=spec.clf,
        input_bounds=InputPolytope.box(-1.0, 1.0),  # absurdly tight force box
        fallback=lambda x, w: np.array([-p.a_f * p.M * p.g]),
        name="narrow",
    )
    from cbfsim.acc import delta_optimal
    # fast approach right at the stoppability boundary: braking required
    x = np.array([30.0, 5.0, delta_optimal(p, 30.0, 5.0) + 0.5])
    step = evaluate(narrow, x, W0)
    assert step.status == "infeasible"
    assert step.fallback_used
    assert step.u[0] == pytest.approx(-p.a_f * p.M * p.g)
    no_fallback = ControllerSpec(
        sys=spec.sys, cbf_rows=spec.cbf_rows, cost=spec.cost, clf=spec.clf,
        input_bounds=InputPolytope.box(-1.0, 1.0), name="no_fb",
    )
    with pytest.raises(InfeasibleError):
        evaluate(no_fallback, x, W0)


def test_min_norm_clf_examples():
    # Scalar system: Lf V = 1, Lg V = 2, c3 V = 0 -> least-norm u = -1/2.
    sys = ControlAffineSystem(
        state_dim=1, input_dim=1,
        drift=lambda x, w: np.array([1.0]),
        input_map=lambda x: np.array([[2.0]]),
    )
    V = ScalarField(value=lambda x: 0.0, gradient=lambda x: np.array([1.0]))
    clf = EsClf(V=V, c3=1.0)
    u = min_norm_clf(clf, sys, None, np.array([0.0]))
    assert u[0] == pytest.approx(-0.5)

    # Row already slack: u = 0.
    sys_ok = ControlAffineSystem(
        state_dim=1, input_dim=1,
        drift=lambda x, w: np.array([-1.0]),
        input_map=lambda x: np.array([[1.0]]),
    )
    u = min_norm_clf(clf, sys_ok, None, np.array([0.0]))
    assert u[0] == pytest.approx(0.0, abs=1e-12)

    # Bound u >= -0.3 conflicts with required u <= -0.5.
    with pytest.raises(InfeasibleError):
        min_norm_clf(clf, sys, InputPolytope.box(-0.3, 10.0), np.array([0.0]))


def test_min_norm_matches_analytic_on_scalar_linear_system():
    # dx/dt = a x + u with V = x^2: least-norm input satisfying the decrease
    # row is -(a + c3/2) x clipped at zero effort when already decaying.
    a, c3 = 0.8, 2.0
    sys = ControlAffineSystem(
        state_dim=1, input_dim=1,
        drift=lambda x, w: np.array([a * x[0]]),
        input_map=lambda x: np.array([[1.0]]),
    )
    V = ScalarField(value=lambda x: x[0] ** 2,
                    gradient=lambda x: np.array([2.0 * x[0]]))
    clf = EsClf(V=V, c3=c3)
    for x0 in (1.0, -2.0, 0.5):
        u = min_norm_clf(clf, sys, None, np.array([x0]))
        expected = -(a + c3 / 2.0) * x0
        assert u[0] == pytest.approx(expected, rel=1e-9)


def test_exponential_decrease_certificate_min_norm():
    # Hard decrease row: V decays at least at rate c3 along the closed loop
    # (5% discretization allowance).
    a, c3 = 0.8, 2.0
    sys = ControlAffineSystem(
        state_dim=1, input_dim=1,
        drift=lambda x, w: np.array([a * x[0]]),
        input_map=lambda x: np.array([[1.0]]),
    )
    V = ScalarField(value=lambda x: x[0] ** 2,
                    gradient=lambda x: np.array([2.0 * x[0]]))
    clf = EsClf(V=V, c3=c3)
    dt = 1e-3
    x = np.array([3.0])
    v0 = V(x)
    for k in range(1, 2001):
        u = min_norm_clf(clf, sys, None, x)
        x = x + dt * (sys.drift(x, None) + sys.input_matrix(x) @ u)
        assert V(x) <= v0 * math.exp(-c3 * k * dt) * 1.05


def test_controller_scale_consistency():
    # Scaling H and F together leaves the minimizer unchanged.
    p = AccParams()
    spec = acc_qp_spec(p, level="force", variant="conservative")
    step = evaluate(spec, X0, W0)
    scaled = ControllerSpec(
        sys=spec.sys, cbf_rows=spec.cbf_rows,
        cost=lambda x, w, base=spec.cost: tuple(37.0 * m for m in base(x, w)),
        clf=spec.clf, input_bounds=spec.input_bounds, fallback=spec.fallback,
        name="scaled",
    )
    step_s = evaluate(scaled, X0, W0)
    assert np.linalg.norm(step_s.u - step.u) <= 1e-9 * (1 + np.linalg.norm(step.u))
    assert step_s.delta == pytest.approx(step.delta, abs=1e-9)


def test_spec_requires_exactly_one_objective():
    p = AccParams()
    sys = acc_dynamics(p)
    from cbfsim.acc import headway_barrier, acc_cost
    with pytest.raises(ValueError):
        ControllerSpec(sys=sys, cbf_rows=(headway_barrier(p),),
                       cost=acc_cost(p))
    with pytest.raises(ValueError):
        ControllerSpec(sys=sys, cbf_rows=(), cost=acc_cost(p), clf=acc_clf(p))

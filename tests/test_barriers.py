import math
from types import SimpleNamespace

import numpy as np
import pytest

from cbfsim.acc import AccParams, acc_dynamics, force_barrier, force_h_field
from cbfsim.barriers import (
    INTERIOR_FLOOR,
    ClassKFunction,
    SafeSetDescriptor,
    ZeroingBarrier,
    cbf_admissible,
    comparison_ode_solution,
    estimate_contractivity_gamma,
    estimate_zbf_alpha,
    induced_lyapunov,
    lift_relative_degree,
    make_barrier,
)
from cbfsim.errors import (
    BoundaryViolationError,
    DescriptorError,
    RelativeDegreeError,
    SafetyDomainError,
)
from cbfsim.lk import LkParams, lk_dynamics
from cbfsim.simulate import integrate_step
from cbfsim.systems import ControlAffineSystem, ScalarField, linear_field


def scalar_system(rate: float) -> ControlAffineSystem:
    return ControlAffineSystem(
        state_dim=1, input_dim=1,
        drift=lambda x, w, r=rate: np.array([-r * x[0]]),
        input_map=lambda x: np.array([[1.0]]),
        name=f"decay{rate}",
    )


def double_integrator() -> ControlAffineSystem:
    return ControlAffineSystem(
        state_dim=2, input_dim=1,
        drift=lambda x, w: np.array([x[1], 0.0]),
        input_map=lambda x: np.array([[0.0], [1.0]]),
        name="double_integrator",
    )


X_FIELD = linear_field([1.0], name="x")


def interval_sampler(lo, hi):
    def sample(n, rng):
        return np.linspace(lo, hi, n).reshape(-1, 1)
    return sample


# --- reciprocal barrier construction -------------------------------------

def test_log_form_value_at_unit_h():
    b = make_barrier(X_FIELD, "log", 1.0)
    assert b.value(np.array([1.0])) == pytest.approx(-math.log(0.5), rel=1e-12)
    assert b.value(np.array([1.0])) == pytest.approx(0.6931, abs=1e-4)


def test_inverse_form_value_and_gradient():
    h = linear_field([0.0, 0.0, 1.0], name="third")
    b = make_barrier(h, "inverse", 1.0)
    x = np.array([5.0, -3.0, 2.0])
    assert b.value(x) == pytest.approx(0.5)
    np.testing.assert_allclose(b.grad(x), [0.0, 0.0, -0.25], atol=1e-15)
    assert make_barrier(X_FIELD, "inverse", 1.0).value([1.0]) == pytest.approx(1.0)


def test_boundary_violation_carries_h_value():
    b = make_barrier(X_FIELD, "log", 1.0)
    with pytest.raises(BoundaryViolationError) as exc:
        b.value(np.array([-0.2]))
    assert exc.value.h_value == pytest.approx(-0.2)


def test_barrier_blows_up_toward_boundary():
    for form in ("log", "inverse"):
        b = make_barrier(X_FIELD, form, 1.0)
        assert b.value([1e-6]) > b.value([1e-3])
        assert b.value([1e-3]) > 0.0


def test_reciprocal_requires_positive_gamma():
    with pytest.raises(ValueError):
        make_barrier(X_FIELD, "log", 0.0)
    with pytest.raises(ValueError):
        make_barrier(X_FIELD, "cosh", 1.0)


# --- class-K validation ----------------------------------------------------

def test_classk_monotonicity_probes():
    ClassKFunction(kind="linear", gamma=2.0)
    ClassKFunction(kind="power", gamma=1.0, power=3, extended=True)
    with pytest.raises(ValueError, match="strictly increasing"):
        ClassKFunction(kind="custom", func=lambda s: -s)
    with pytest.raises(ValueError, match="vanish"):
        ClassKFunction(kind="custom", func=lambda s: s + 0.5)


# --- admissible-input predicates -------------------------------------------

def test_rcbf_admissible_synthetic_rows():
    # Lf B = 0, Lg B = 1, bound 0.5: u = 0 admissible, u = 1 not.
    sys = ControlAffineSystem(
        state_dim=1, input_dim=1,
        drift=lambda x, w: np.array([0.0]),
        input_map=lambda x: np.array([[1.0]]),
    )
    # A stub certificate states the row c . xdot <= bound directly.
    stub = SimpleNamespace(row_data=lambda x: (np.array([1.0]), 0.5))
    assert cbf_admissible(sys, stub, np.array([2.0]), None, [0.0])
    assert not cbf_admissible(sys, stub, np.array([2.0]), None, [1.0])


def test_rcbf_admissible_rejects_outside_interior():
    b = make_barrier(X_FIELD, "inverse", 1.0)
    with pytest.raises(SafetyDomainError):
        cbf_admissible(scalar_system(1.0), b, np.array([-1.0]), None, [0.0])


def _acc_admissibility_fd_check(barrier, sys, x, u, w, gamma):
    """Independent check: step the flow and difference B along it."""
    dt = 1e-6
    x2 = integrate_step(sys, x, u, w, dt, dt_max=1.0)
    b0, b1 = barrier.value(x), barrier.value(x2)
    return (b1 - b0) / dt <= gamma / b0 + 1e-6 * (1 + abs(b0))


def test_acc_max_braking_admissible_for_conservative_barrier():
    # Max braking keeps the force-limited barrier row satisfied even under
    # worst-case lead braking, everywhere inside the safe set.
    p = AccParams()
    sys = acc_dynamics(p)
    barrier = force_barrier(p, "conservative", "inverse")
    u = np.array([-p.a_f * p.M * p.g])
    w = np.array([-p.a_l * p.g])
    x = np.array([18.0, 10.0, 150.0])
    assert cbf_admissible(sys, barrier, x, w, u)
    assert _acc_admissibility_fd_check(barrier, sys, x, u, w, p.cbf_rate)
    rng = np.random.default_rng(5)
    for _ in range(50):
        v_f, v_l = rng.uniform(0.5, 35, size=2)
        h_needed = float(rng.uniform(0.5, 80))
        from cbfsim.acc import delta_conservative
        x = np.array([v_f, v_l, delta_conservative(p, v_f, v_l) + h_needed])
        assert cbf_admissible(sys, barrier, x, w, u)


def test_zcbf_admissible_synthetic_and_acc():
    sys = scalar_system(1.0)
    alpha2 = ClassKFunction(kind="custom", func=lambda s: 2.0 * s, extended=True)
    # Lf h = -1, Lg h = 0 at x = 1 for drift -x, h = x... use explicit stubs:
    z_any = ZeroingBarrier(h=linear_field([1.0], name="x"), alpha=alpha2)
    # at x=1: Lf h = -1, alpha(h)=2 -> admissible for any u multiplied by Lg h
    sysu0 = ControlAffineSystem(
        state_dim=1, input_dim=1,
        drift=lambda x, w: np.array([-1.0]),
        input_map=lambda x: np.array([[0.0]]),
    )
    assert cbf_admissible(sysu0, z_any, np.array([1.0]), None, [123.0])

    sys_u = ControlAffineSystem(
        state_dim=1, input_dim=1,
        drift=lambda x, w: np.array([-1.0]),
        input_map=lambda x: np.array([[1.0]]),
    )
    z_zero = ZeroingBarrier(
        h=linear_field([1.0], name="x"),
        alpha=ClassKFunction(kind="custom", func=lambda s: 0.0 * s + s * 1e-12,
                             extended=True),
    )
    # Lf h = -1, Lg h = 1, alpha ~ 0: u=0.5 fails, u=2 works.
    assert not cbf_admissible(sys_u, z_zero, np.array([1.0]), None, [0.5])
    assert cbf_admissible(sys_u, z_zero, np.array([1.0]), None, [2.0])

    p = AccParams()
    zb = force_barrier(p, "conservative", "zeroing")
    assert cbf_admissible(
        acc_dynamics(p), zb, np.array([18.0, 10.0, 150.0]),
        np.array([-p.a_l * p.g]), [-0.25 * p.M * p.g],
    )


# --- higher relative degree -------------------------------------------------

def test_lift_double_integrator():
    sys = double_integrator()
    h = linear_field([1.0, 0.0], name="x1")
    samples = np.array([[x1, x2] for x1 in (0.5, 1.0, 3.0) for x2 in (-2.0, 0.0, 1.5)])
    lifted = lift_relative_degree(h, sys, 2, samples=samples)
    x = np.array([2.0, 0.7])
    assert lifted.value(x) == pytest.approx(1 / 2.0 + math.atan(0.7) + math.pi / 2)
    # Lg B_r = dH(x2) * Lg Lf h = 1/(1+x2^2)
    _, lg = (lambda g: (None, g @ sys.input_matrix(x)))(lifted.grad(x))
    assert lg[0] == pytest.approx(1.0 / (1 + 0.7 ** 2), rel=1e-5)
    # sandwich 1/h <= B_r <= 1/h + H_max on interior samples
    for s in samples:
        if h(s) > INTERIOR_FLOOR:
            assert 1 / h(s) <= lifted.value(s) <= 1 / h(s) + lifted.H_max + 1e-12


def test_lift_lk_lateral_channel_passes_precheck():
    p = LkParams()
    sys = lk_dynamics(p)
    h = ScalarField(
        value=lambda x: p.y_max - x[0],
        gradient=lambda x: np.array([-1.0, 0.0, 0.0, 0.0]),
        name="lane_margin",
    )
    rng = np.random.default_rng(2)
    samples = rng.uniform(-0.5, 0.5, size=(20, 4))
    lifted = lift_relative_degree(h, sys, 2, samples=samples)
    x = np.zeros(4)
    _, lg = (lambda g: (None, g @ sys.input_matrix(x)))(lifted.grad(x))
    assert abs(lg[0]) > 1e-6


def test_lift_rejects_relative_degree_one_field():
    sys = double_integrator()
    h = linear_field([0.0, 1.0], name="x2")  # Lg h = 1 != 0
    samples = np.array([[1.0, 0.5], [2.0, -0.3]])
    with pytest.raises(RelativeDegreeError):
        lift_relative_degree(h, sys, 2, samples=samples)


def test_lift_refuses_bounded_inputs():
    sys = double_integrator()
    h = linear_field([1.0, 0.0], name="x1")
    with pytest.raises(RelativeDegreeError, match="unconstrained"):
        lift_relative_degree(h, sys, 2, samples=np.array([[1.0, 0.0]]),
                             input_bounds=object())


# --- sampled certificates ----------------------------------------------------

def test_zbf_alpha_linear_decay():
    # dx/dt = -x, h = x: the rate needed over {0 <= h <= r} is exactly r.
    sys = scalar_system(1.0)
    table = estimate_zbf_alpha(sys, X_FIELD, interval_sampler(0.0, 2.0),
                               [0.5, 1.0, 2.0], count=4001)
    for r, alpha_hat in table:
        assert alpha_hat == pytest.approx(r, abs=1e-3)
    values = [a for _, a in table]
    assert values == sorted(values)


def test_zbf_alpha_invariant_flow_nonpositive():
    # dx/dt = +x keeps h = x growing: no negative slice, alpha_hat <= 0.
    sys = scalar_system(-1.0)
    table = estimate_zbf_alpha(sys, X_FIELD, interval_sampler(0.0, 1.0),
                               [0.5, 1.0], count=2001)
    assert all(alpha_hat <= 0.0 for _, alpha_hat in table)


def test_zbf_alpha_empty_slice_raises():
    sys = scalar_system(1.0)
    with pytest.raises(DescriptorError, match="slice"):
        estimate_zbf_alpha(sys, X_FIELD, interval_sampler(5.0, 6.0), [1.0],
                           count=100)


def planar_cubic():
    sys = ControlAffineSystem(
        state_dim=2, input_dim=1,
        drift=lambda x, w: np.array([-0.5 * x[1], -x[0] ** 3 + 1.0]),
        input_map=lambda x: np.array([[0.0], [1.0]]),
    )
    h = ScalarField(
        value=lambda x: x[1] - x[0] ** 2,
        gradient=lambda x: np.array([-2.0 * x[0], 1.0]),
        name="above_parabola",
    )
    return sys, h


def test_no_classk_rate_on_noncompact_set():
    # Flow is invariant, but inf dh/dt over {h <= r} diverges as the
    # sampling box widens, so no class-K certificate can exist.
    sys, h = planar_cubic()
    r_grid = [1.0, 2.0]

    def box_sampler(radius):
        def sample(n, rng):
            x1 = np.linspace(-radius, radius, 401)
            hh = np.linspace(0.0, 2.0, 21)
            X1, HH = np.meshgrid(x1, hh)
            return np.column_stack([X1.ravel(), (X1 ** 2 + HH).ravel()])
        return sample

    lower_envelopes = []
    for radius in (10.0, 100.0, 1000.0):
        table = estimate_zbf_alpha(sys, h, box_sampler(radius), r_grid,
                                   count=0)
        lower_envelopes.append(-table[-1][1])
    assert lower_envelopes[0] > lower_envelopes[1] > lower_envelopes[2]
    assert lower_envelopes[2] < -1e3
    # analytic: inf over {h = r} of dh/dt is x1*r + 1 at x1 = -radius
    assert lower_envelopes[2] == pytest.approx(-2.0 * 1000.0 + 1.0, rel=1e-6)


def test_contractivity_gamma_examples():
    assert estimate_contractivity_gamma(
        scalar_system(1.0), X_FIELD, 1, interval_sampler(0.01, 1.0), count=2000
    ) == pytest.approx(1.0, abs=1e-9)
    assert estimate_contractivity_gamma(
        scalar_system(2.0), X_FIELD, 1, interval_sampler(0.01, 1.0), count=2000
    ) == pytest.approx(2.0, abs=1e-9)
    # growing flow: dh/dt >= 0 everywhere, certificate rate clamps to 0
    assert estimate_contractivity_gamma(
        scalar_system(-1.0), X_FIELD, 1, interval_sampler(0.01, 1.0), count=500
    ) == 0.0


def test_contractivity_gamma_monotone_in_region():
    sys = ControlAffineSystem(
        state_dim=1, input_dim=1,
        drift=lambda x, w: np.array([-x[0] ** 2]),
        input_map=lambda x: np.array([[1.0]]),
    )
    small = estimate_contractivity_gamma(sys, X_FIELD, 1,
                                         interval_sampler(0.1, 0.5), count=500)
    large = estimate_contractivity_gamma(sys, X_FIELD, 1,
                                         interval_sampler(0.1, 1.0), count=500)
    assert large >= small


def test_contractivity_gamma_rejects_nonpositive_h():
    with pytest.raises(DescriptorError):
        estimate_contractivity_gamma(
            scalar_system(1.0), X_FIELD, 1, interval_sampler(-0.5, 1.0), count=50
        )


def test_contractivity_certifies_reciprocal_and_zeroing_rates():
    # k = 3 bounds the inverse-barrier rate, k = 1 the zeroing rate.
    sys = scalar_system(1.0)
    g3 = estimate_contractivity_gamma(sys, X_FIELD, 3,
                                      interval_sampler(0.2, 1.0), count=500)
    assert g3 == pytest.approx(1.0 / 0.2 ** 2, rel=1e-6)  # max of x/x^3


# --- induced Lyapunov function ----------------------------------------------

def test_induced_lyapunov_values_and_continuity():
    h = X_FIELD
    desc = SafeSetDescriptor(
        h=h,
        interior=lambda n, rng: np.linspace(0.1, 1.0, n).reshape(-1, 1),
        shell=lambda n, rng: np.full((n, 1), 1e-7),
        outside=lambda n, rng: np.linspace(-1.0, -0.1, n).reshape(-1, 1),
    )
    desc.validate(20)
    z = ZeroingBarrier(h=h, alpha=ClassKFunction(extended=True), domain=desc)
    v = induced_lyapunov(z)
    assert v([0.5]) == 0.0
    assert v([-0.3]) == pytest.approx(0.3)
    assert v([1e-9]) <= 1e-9
    assert v([-1e-9]) <= 2e-9  # continuous across the boundary shell
    with pytest.raises(ValueError):
        induced_lyapunov(ZeroingBarrier(h=h, alpha=ClassKFunction(extended=True)))


# --- comparison ODE -----------------------------------------------------------

def test_comparison_ode_identity_at_t0():
    assert comparison_ode_solution(lambda s: s, 1.0, 0.0) == 1.0


def test_comparison_ode_linear_alpha_closed_form():
    for y0 in (0.1, 1.0, 10.0):
        for t in np.linspace(0.0, 10.0, 11):
            y = comparison_ode_solution(lambda s: s, y0, float(t))
            assert y == pytest.approx(math.sqrt(2 * t + y0 * y0), abs=1e-6)
            assert y >= y0


def test_comparison_ode_monotone_for_other_rates():
    for alpha in (lambda s: s * s, lambda s: math.atan(s)):
        prev = None
        for t in np.linspace(0.0, 10.0, 21):
            y = comparison_ode_solution(alpha, 1.0, float(t))
            assert math.isfinite(y) and y > 0
            if prev is not None and t > 0:
                assert y > prev
            prev = y


def test_comparison_ode_rejects_bad_inputs():
    with pytest.raises(ValueError):
        comparison_ode_solution(lambda s: s, 0.0, 1.0)
    with pytest.raises(ValueError):
        comparison_ode_solution(lambda s: s, 1.0, -1.0)


# --- barrier dominance -------------------------------------------------------

def test_conservative_barrier_dominated_by_optimal():
    # The conservative margin is never smaller, so its h is never larger,
    # and its safe set is contained in the optimal one.
    p = AccParams()
    h_o = force_h_field(p, "optimal")
    h_c = force_h_field(p, "conservative")
    rng = np.random.default_rng(9)
    for _ in range(300):
        x = np.array([rng.uniform(0, 40), rng.uniform(0, 40), rng.uniform(0, 400)])
        assert h_c(x) <= h_o(x) + 1e-9
        if h_c(x) >= 0:
            assert h_o(x) >= 0

import numpy as np
import pytest

from cbfsim.acc import AccParams, acc_dynamics, headway_field
from cbfsim.errors import FieldEvaluationError, InfeasibleError, OperatingBoxError
from cbfsim.lk import LkParams, lk_dynamics
from cbfsim.systems import (
    ControlAffineSystem,
    InputPolytope,
    ScalarField,
    constant_field,
    lie_derivatives,
    linear_field,
)

from oracles import fd_gradient


def test_headway_lie_derivative_input_direction():
    # Only the follower speed is actuated; the chain rule leaves -tau_d/M.
    p = AccParams()
    sys = acc_dynamics(p)
    h = headway_field(p)
    _, lg = lie_derivatives(sys, h, np.array([18.0, 10.0, 150.0]), [0.0])
    assert lg.shape == (1,)
    assert lg[0] == pytest.approx(-1.8 / 1650.0, rel=1e-12)
    assert lg[0] == pytest.approx(-1.0909e-3, rel=1e-4)


def test_constant_field_has_zero_lie_derivatives():
    p = AccParams()
    sys = acc_dynamics(p)
    c = constant_field(3.7, 3)
    lf, lg = lie_derivatives(sys, c, np.array([11.0, 4.0, 60.0]), [1.0])
    assert lf == 0.0
    assert np.all(lg == 0.0)


def test_lk_lateral_position_lie_derivative():
    # First state: Lf y = nu + v0 psi, Lg y = 0 (steering enters downstream).
    p = LkParams()
    sys = lk_dynamics(p)
    y = linear_field([1.0, 0.0, 0.0, 0.0], name="y")
    x = np.array([0.2, -0.4, 0.03, 0.01])
    lf, lg = lie_derivatives(sys, y, x, [0.0])
    assert lf == pytest.approx(x[1] + p.v0 * x[2], rel=1e-12)
    assert lg[0] == 0.0
    # cross-check against finite differences of t -> y(x + t*f(x))
    f = sys.drift(x, np.array([0.0]))
    eps = 1e-7
    fd = (y(x + eps * f) - y(x - eps * f)) / (2 * eps)
    assert lf == pytest.approx(fd, rel=1e-6)


def test_lie_derivatives_linear_in_field():
    p = AccParams()
    sys = acc_dynamics(p)
    rng = np.random.default_rng(3)
    h1 = headway_field(p)
    h2 = ScalarField(
        value=lambda x: x[0] ** 2 - 0.3 * x[2],
        gradient=lambda x: np.array([2 * x[0], 0.0, -0.3]),
    )
    for _ in range(20):
        a, b = rng.normal(size=2)
        x = np.array([rng.uniform(1, 30), rng.uniform(1, 30), rng.uniform(5, 200)])
        w = [rng.uniform(-2, 2)]
        combo = ScalarField(
            value=lambda s, a=a, b=b: a * h1(s) + b * h2(s),
            gradient=lambda s, a=a, b=b: a * h1.grad(s) + b * h2.grad(s),
        )
        lf_c, lg_c = lie_derivatives(sys, combo, x, w)
        lf1, lg1 = lie_derivatives(sys, h1, x, w)
        lf2, lg2 = lie_derivatives(sys, h2, x, w)
        assert lf_c == pytest.approx(a * lf1 + b * lf2, rel=1e-12, abs=1e-12)
        assert lg_c[0] == pytest.approx(a * lg1[0] + b * lg2[0], rel=1e-12, abs=1e-15)


def test_finite_difference_gradient_mode():
    f = ScalarField(value=lambda x: float(np.sin(x[0]) * x[1]), name="sinprod")
    assert f.gradient_mode == "finite-difference"
    x = np.array([0.7, 2.0])
    g = f.grad(x)
    assert g[0] == pytest.approx(np.cos(0.7) * 2.0, rel=1e-7)
    assert g[1] == pytest.approx(np.sin(0.7), rel=1e-7)


def test_closed_form_gradients_match_fd_on_random_states():
    p = AccParams()
    h = headway_field(p)
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = np.array([rng.uniform(0, 35), rng.uniform(0, 35), rng.uniform(1, 300)])
        np.testing.assert_allclose(h.grad(x), fd_gradient(h, x), rtol=1e-5, atol=1e-9)


def test_non_finite_gradient_names_field_and_state():
    sys = ControlAffineSystem(
        state_dim=1, input_dim=1,
        drift=lambda x, w: np.array([0.0]),
        input_map=lambda x: np.array([[1.0]]),
    )
    bad = ScalarField(
        value=lambda x: float("nan"),
        gradient=lambda x: np.array([float("nan")]),
        name="broken",
    )
    with pytest.raises(FieldEvaluationError, match="broken"):
        lie_derivatives(sys, bad, np.array([1.0]), None)


def test_input_map_column_count_checked():
    sys = ControlAffineSystem(
        state_dim=2, input_dim=2,
        drift=lambda x, w: np.zeros(2),
        input_map=lambda x: np.array([[1.0], [0.0]]),  # one column, not two
    )
    with pytest.raises(ValueError, match="columns"):
        sys.input_matrix(np.zeros(2))
    # A constant map given as its matrix is checked at construction.
    with pytest.raises(ValueError, match="columns"):
        ControlAffineSystem(
            state_dim=2, input_dim=2,
            drift=lambda x, w: np.zeros(2),
            input_map=np.array([[1.0], [0.0]]),
        )


def test_input_polytope_box_and_empty():
    box = InputPolytope.box(-2.0, 3.0)
    assert box.input_dim == 1
    with pytest.raises(InfeasibleError):
        InputPolytope(((np.array([1.0]), -1.0), (np.array([-1.0]), -1.0)))


def test_operating_box_raises_outside():
    p = AccParams()
    sys = acc_dynamics(p)
    with pytest.raises(OperatingBoxError):
        sys.check_box(np.array([1000.0, 10.0, 50.0]))
    sys.check_box(np.array([20.0, 10.0, 50.0]))  # inside: no raise

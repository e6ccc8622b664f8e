"""Adaptive cruise control: longitudinal dynamics, speed objective, headway
barriers, and the force-limited barrier pair.

State is ``x = (v_f, v_l, D)``: follower speed, lead speed, gap (m). The
follower's wheel force u is the input; the lead car's acceleration a_L is
the exogenous channel. The hard constraint is the time-headway condition
``D - tau_d * v_f >= 0``.

The force-limited barriers bound the gap margin needed so that the
follower can always keep the headway condition using at most its allowed
braking fraction, even if the lead brakes at its own maximum until
stopped. Two variants are provided: ``optimal`` (the exact worst-case
requirement, discounting the headway demand as the follower slows) and
``conservative`` (the same worst case holding the headway demand at its
current value, a simpler and larger margin). Aerodynamic drag is dropped
inside the margin formulas - drag only strengthens braking, so the margins
remain valid for the full model, which the closed loop still simulates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .barriers import make_barrier
from .controller import ControllerSpec, EsClf
from .systems import Array, ControlAffineSystem, InputPolytope, ScalarField


@dataclass(frozen=True)
class AccParams:
    """Cruise-control parameters (defaults: desk-scale sedan at 22 m/s).

    a_f / a_f_accel are the follower's allowed braking / acceleration
    fractions of g; a_l / a_l_accel the lead car's assumed fractions. The
    lead fractions have no published default and simply mirror the
    follower's; override them in scenario config when modelling a
    different lead vehicle.
    """

    M: float = 1650.0          # vehicle mass, kg
    f0: float = 0.1            # static drag, N
    f1: float = 5.0            # linear drag, N s/m
    f2: float = 0.25           # quadratic drag, N s^2/m^2
    v_d: float = 22.0          # desired cruise speed, m/s
    tau_d: float = 1.8         # desired time headway, s
    a_f: float = 0.25          # follower max braking fraction of g
    a_f_accel: float = 0.25    # follower max acceleration fraction of g
    a_l: float = 0.25          # lead assumed max braking fraction of g
    a_l_accel: float = 0.25    # lead assumed max acceleration fraction of g
    g: float = 9.81            # m/s^2
    clf_rate: float = 10.0     # exponential speed-convergence rate
    cbf_rate: float = 1.0      # barrier rate gamma
    relax_weight: float = 100.0  # penalty on the performance relaxation

    def __post_init__(self):
        for name in ("M", "f0", "f1", "f2", "v_d", "tau_d", "a_f", "a_f_accel",
                     "a_l", "a_l_accel", "g", "clf_rate", "cbf_rate",
                     "relax_weight"):
            if getattr(self, name) <= 0:
                raise ValueError(f"AccParams.{name} must be positive")

    def drag(self, v_f: float) -> float:
        return self.f0 + self.f1 * v_f + self.f2 * v_f * v_f

    def input_box(self) -> tuple[float, float]:
        """Allowed wheel force interval [-a_f M g, a_f_accel M g]."""
        return (-self.a_f * self.M * self.g, self.a_f_accel * self.M * self.g)

    def lead_accel_bounds(self) -> tuple[float, float]:
        return (-self.a_l * self.g, self.a_l_accel * self.g)


@dataclass(frozen=True)
class AccState:
    """Convenience record for (v_f, v_l, D)."""

    v_f: float
    v_l: float
    D: float

    def as_array(self) -> Array:
        return np.array([self.v_f, self.v_l, self.D], dtype=float)


DEFAULT_ACC_BOX = (
    np.array([-5.0, -5.0, 0.0]),
    np.array([80.0, 80.0, 1e5]),
)


def acc_dynamics(params: AccParams,
                 operating_box=DEFAULT_ACC_BOX) -> ControlAffineSystem:
    """Point-mass follower with aerodynamic drag; lead acceleration is the
    exogenous channel."""
    M = params.M
    g_col = np.array([[1.0 / M], [0.0], [0.0]])

    def drift(x, w):
        return np.array([-params.drag(x[0]) / M, w[0], x[1] - x[0]])

    return ControlAffineSystem(
        state_dim=3,
        input_dim=1,
        drift=drift,
        input_map=lambda x: g_col,
        exogenous_dim=1,
        operating_box=operating_box,
        name="acc",
        constant_input_map=True,
    )


def acc_clf(params: AccParams) -> EsClf:
    """Squared speed error (v_f - v_d)^2 with decrease rate clf_rate."""
    v_d = params.v_d
    V = ScalarField(
        value=lambda x: (x[0] - v_d) ** 2,
        gradient=lambda x: np.array([2.0 * (x[0] - v_d), 0.0, 0.0]),
        name="speed_error_sq",
    )
    return EsClf(V=V, c3=params.clf_rate, c1=1.0, c2=1.0)


def headway_field(params: AccParams) -> ScalarField:
    tau = params.tau_d
    return ScalarField(
        value=lambda x: x[2] - tau * x[0],
        gradient=lambda x: np.array([-tau, 0.0, 1.0]),
        name="headway",
    )


def headway_barrier(params: AccParams, form: str = "log"):
    """Headway constraint as a barrier; form is log/inverse (reciprocal)
    or zeroing."""
    return make_barrier(headway_field(params), form, params.cbf_rate)


def _stop_times(params: AccParams, v_f: float, v_l: float) -> tuple[float, float]:
    return v_l / (params.a_l * params.g), v_f / (params.a_f * params.g)


def delta_conservative(params: AccParams, v_f: float, v_l: float) -> float:
    """Gap margin required under joint maximal braking, holding the headway
    demand at its current value tau_d * v_f.

    Equals tau_d * v_f plus the worst-case decrease in the gap over the
    braking maneuver. Piecewise in which car is faster now (v_l vs v_f)
    and which stops first (T_l vs T_f); ties resolve to the first case so
    degenerate denominators are never touched.
    """
    return _delta_conservative_with_grad(params, v_f, v_l)[0]


def delta_conservative_grad(params: AccParams, v_f: float,
                            v_l: float) -> tuple[float, float]:
    _, dvf, dvl = _delta_conservative_with_grad(params, v_f, v_l)
    return dvf, dvl


def _delta_conservative_with_grad(params: AccParams, v_f: float,
                                  v_l: float) -> tuple[float, float, float]:
    if v_f < 0 or v_l < 0:
        raise ValueError("speeds must be non-negative")
    tau, g = params.tau_d, params.g
    a_f, a_l = params.a_f, params.a_l
    t_l, t_f = _stop_times(params, v_f, v_l)
    base = tau * v_f

    if v_l >= v_f and t_l >= t_f:
        # Gap never shrinks while the follower is still moving.
        return base, tau, 0.0
    if v_l >= v_f:  # t_l < t_f: lead stops first despite being faster now.
        # The gap first grows, then shrinks once the lead has stopped; the
        # worst case is either "no decrease at all" or the fully-stopped
        # deficit below.
        q = 0.5 * (v_f * v_f * a_l - v_l * v_l * a_f) / (a_f * a_l * g)
        if q <= 0.0:
            return base, tau, 0.0
        return base + q, tau + v_f / (a_f * g), -v_l / (a_l * g)
    if t_l >= t_f:  # v_l < v_f: faster follower, but it stops first.
        # Worst case at the speed-equalization instant; the gate forces
        # a_f > a_l here, so the denominator is positive.
        dv = v_f - v_l
        q = 0.5 * dv * dv / ((a_f - a_l) * g)
        d = dv / ((a_f - a_l) * g)
        return base + q, tau + d, -d
    # v_l < v_f and t_l < t_f: both stop; the full stopping-distance gap.
    q = 0.5 * (v_f * v_f * a_l - v_l * v_l * a_f) / (a_f * a_l * g)
    return base + q, tau + v_f / (a_f * g), -v_l / (a_l * g)


def delta_optimal(params: AccParams, v_f: float, v_l: float) -> float:
    """Exact gap margin required under joint maximal braking.

    Maximizes, over the follower's braking interval, the gap decrease plus
    the headway demand at the future (reduced) follower speed. Closed form
    with three candidate expressions gated on a_f vs a_l.
    """
    return _delta_optimal_with_grad(params, v_f, v_l)[0]


def delta_optimal_grad(params: AccParams, v_f: float,
                       v_l: float) -> tuple[float, float]:
    _, dvf, dvl = _delta_optimal_with_grad(params, v_f, v_l)
    return dvf, dvl


def _delta_optimal_with_grad(params: AccParams, v_f: float,
                             v_l: float) -> tuple[float, float, float]:
    if v_f < 0 or v_l < 0:
        raise ValueError("speeds must be non-negative")
    tau, g = params.tau_d, params.g
    a_f, a_l = params.a_f, params.a_l
    afg, alg = a_f * g, a_l * g

    def margin_now():
        return tau * v_f, tau, 0.0

    def margin_stopped():
        # Maximizer in the lead-stopped phase, at follower speed tau*a_f*g.
        q = v_f - tau * afg
        val = 0.5 * q * q / afg + tau * v_f - 0.5 * v_l * v_l / alg
        return val, q / afg + tau, -v_l / alg

    def margin_equalized():
        # Maximizer while both cars are braking (only when a_f > a_l).
        q = v_l + tau * afg - v_f
        denom = (a_f - a_l) * g
        val = 0.5 * q * q / denom + tau * v_f
        return val, -q / denom + tau, q / denom

    if a_f == a_l:
        if v_f < v_l + tau * afg:
            return margin_now()
        return margin_stopped()
    if a_f > a_l:
        if v_f < v_l + tau * afg:
            return margin_now()
        if v_f >= (a_f / a_l) * v_l + tau * afg:
            return margin_stopped()
        return margin_equalized()
    # a_f < a_l
    if v_f < math.sqrt(a_f / a_l) * v_l + tau * afg:
        return margin_now()
    return margin_stopped()


_DELTA_FNS = {
    "optimal": _delta_optimal_with_grad,
    "conservative": _delta_conservative_with_grad,
}


def force_h_field(params: AccParams, variant: str = "optimal") -> ScalarField:
    """h_F = D - margin(v_f, v_l); positive iff the follower can always
    brake back to the headway condition within its force budget."""
    if variant not in _DELTA_FNS:
        raise ValueError(f"unknown margin variant '{variant}'")
    fn = _DELTA_FNS[variant]

    def value(x):
        return x[2] - fn(params, x[0], x[1])[0]

    def gradient(x):
        _, dvf, dvl = fn(params, x[0], x[1])
        return np.array([-dvf, -dvl, 1.0])

    return ScalarField(value=value, gradient=gradient,
                       name=f"force_headway_{variant}")


def force_barrier(params: AccParams, variant: str = "optimal",
                  kind: str = "log"):
    """Force-limited barrier; kind is log/inverse (reciprocal) or zeroing."""
    return make_barrier(force_h_field(params, variant), kind, params.cbf_rate)


def acc_cost(params: AccParams):
    """Quadratic cost: effort of the drag-cancelling residual plus a
    weighted penalty on the performance relaxation."""
    M2 = params.M * params.M
    H = 2.0 * np.diag([1.0 / M2, params.relax_weight])

    def cost(x, w):
        return H, np.array([-2.0 * params.drag(x[0]) / M2, 0.0])

    return cost


def acc_qp_spec(params: AccParams, level: str = "basic",
                variant: str = "optimal", kind: str = "log",
                operating_box=DEFAULT_ACC_BOX) -> ControllerSpec:
    """Cruise controller spec.

    level "basic": headway barrier only, unbounded wheel force (two QP
    rows, closed-form solver path). level "force": force-limited barrier
    plus the wheel-force box (four rows, active-set path); on an
    infeasible step the simulator applies saturated maximum braking and
    flags it. The fallback applies the raw force bound with no drag
    feedforward.
    """
    sys = acc_dynamics(params, operating_box)
    clf = acc_clf(params)
    cost = acc_cost(params)
    if level == "basic":
        return ControllerSpec(
            sys=sys,
            cbf_rows=(headway_barrier(params, kind),),
            cost=cost,
            clf=clf,
            name="acc_basic",
        )
    if level != "force":
        raise ValueError(f"unknown controller level '{level}'")
    lo, hi = params.input_box()
    bounds = InputPolytope.box(lo, hi)

    def fallback(x, w):
        return np.array([lo])

    return ControllerSpec(
        sys=sys,
        cbf_rows=(force_barrier(params, variant, kind),),
        cost=cost,
        clf=clf,
        input_bounds=bounds,
        fallback=fallback,
        name=f"acc_force_{variant}_{kind}",
    )

"""Lane keeping: lateral-yaw dynamics, LQR tracking with curvature
feedforward, the stoppability barrier on lateral displacement, and the
steering QP.

State is ``x = (y, nu, psi, r)``: lateral displacement, lateral velocity,
error yaw angle and yaw rate, at constant longitudinal speed v0 with a
linear tire model. The input is the front steering angle; the road's
desired yaw rate r_d (= v0 / curve radius) is the exogenous channel. The
lateral rate is ``dy/dt = nu + psi * v0``.

The barrier encodes stoppability: from lateral rate ydot, braking the
lateral motion at the allowed a_max must bring the car to rest before the
lane edge, i.e. ``h = (y_max - sgn(ydot) y) - ydot^2 / (2 a_max) >= 0``.
The convention sgn(0) = 0 keeps the barrier's rate well defined at
ydot = 0; lane membership additionally requires |y| <= y_max, so that
convention cannot admit out-of-lane states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .barriers import make_barrier
from .controller import ControllerSpec
from .errors import RiccatiError
from .systems import Array, ControlAffineSystem, ScalarField


@dataclass(frozen=True)
class LkParams:
    """Lane-keeping parameters (defaults: mid-size sedan at 27.7 m/s)."""

    M: float = 1650.0            # mass, kg
    I_z: float = 2315.3          # yaw inertia, m^2 kg
    cg_to_front: float = 1.11    # CG to front axle, m
    cg_to_rear: float = 1.59     # CG to rear axle, m
    C_f: float = 133000.0        # front tire stiffness, N/rad
    C_r: float = 98800.0         # rear tire stiffness, N/rad
    v0: float = 27.7             # longitudinal speed, m/s
    y_max: float = 0.9           # lane half-margin, m
    a_max: float = 0.3 * 9.81    # lateral acceleration bound, m/s^2
    cbf_rate: float = 1.0
    relax_weight: float = 100.0
    lqr_control_weight: float = 600.0
    lqr_kp: float = 5.0
    lqr_kd: float = 0.4
    lqr_preview: tuple[float, float, float, float] = (1.0, 0.0, 20.0, 0.0)

    def __post_init__(self):
        for name in ("M", "I_z", "cg_to_front", "cg_to_rear", "C_f", "C_r",
                     "v0", "y_max", "a_max", "cbf_rate", "relax_weight",
                     "lqr_control_weight", "lqr_kp", "lqr_kd"):
            if getattr(self, name) <= 0:
                raise ValueError(f"LkParams.{name} must be positive")


@dataclass(frozen=True)
class LkState:
    y: float
    nu: float
    psi: float
    r: float

    def as_array(self) -> Array:
        return np.array([self.y, self.nu, self.psi, self.r], dtype=float)


DEFAULT_LK_BOX = (
    np.array([-5.0, -20.0, -1.0, -3.0]),
    np.array([5.0, 20.0, 1.0, 3.0]),
)


def lk_matrices(params: LkParams) -> tuple[Array, Array, Array]:
    """(A, B, E): state matrix, steering column, yaw-rate disturbance
    column of the four-state lateral-yaw model."""
    M, Iz, v0 = params.M, params.I_z, params.v0
    a, b = params.cg_to_front, params.cg_to_rear
    Cf, Cr = params.C_f, params.C_r
    A = np.array([
        [0.0, 1.0, v0, 0.0],
        [0.0, -(Cf + Cr) / (M * v0), 0.0, (b * Cr - a * Cf) / (M * v0) - v0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, (b * Cr - a * Cf) / (Iz * v0), 0.0,
         -(a * a * Cf + b * b * Cr) / (Iz * v0)],
    ])
    B = np.array([0.0, Cf / M, 0.0, a * Cf / Iz])
    E = np.array([0.0, 0.0, -1.0, 0.0])
    return A, B, E


def lk_dynamics(params: LkParams,
                operating_box=DEFAULT_LK_BOX) -> ControlAffineSystem:
    A, B, E = lk_matrices(params)
    B_col = B.reshape(4, 1)

    def drift(x, w):
        return A @ x + E * w[0]

    return ControlAffineSystem(
        state_dim=4,
        input_dim=1,
        drift=drift,
        input_map=lambda x: B_col,
        exogenous_dim=1,
        operating_box=operating_box,
        name="lk",
        constant_input_map=True,
    )


def lateral_rate(params: LkParams, x: Array) -> float:
    """dy/dt = nu + psi * v0."""
    return float(x[1] + params.v0 * x[2])


def front_force_offset(params: LkParams, x: Array, r_d: float) -> float:
    """Steering-independent part of the lateral force balance."""
    nu, r = x[1], x[3]
    return (params.C_f * (nu + params.cg_to_front * r) / params.v0
            + params.C_r * (nu - params.cg_to_rear * r) / params.v0
            + params.M * params.v0 * r_d)


def lateral_accel(params: LkParams, x: Array, u: float, r_d: float) -> float:
    """d2y/dt2 from the lateral force balance at steering angle u."""
    return (params.C_f * float(u) - front_force_offset(params, x, r_d)) / params.M


def lk_input_bounds(params: LkParams, x: Array, r_d: float) -> tuple[float, float]:
    """Steering interval equivalent to |d2y/dt2| <= a_max at (x, r_d)."""
    F0 = front_force_offset(params, x, r_d)
    return ((-params.M * params.a_max + F0) / params.C_f,
            (params.M * params.a_max + F0) / params.C_f)


def lk_h_field(params: LkParams) -> ScalarField:
    y_max, a_max, v0 = params.y_max, params.a_max, params.v0

    def value(x):
        yd = x[1] + v0 * x[2]
        return y_max - np.sign(yd) * x[0] - 0.5 * yd * yd / a_max

    def gradient(x):
        yd = x[1] + v0 * x[2]
        s = np.sign(yd)
        return np.array([-s, -yd / a_max, -v0 * yd / a_max, 0.0])

    return ScalarField(value=value, gradient=gradient, name="lane_stoppability")


def lk_barrier(params: LkParams, kind: str = "log"):
    """Stoppability barrier; kind is log/inverse (reciprocal) or zeroing."""
    return make_barrier(lk_h_field(params), kind, params.cbf_rate)


def lk_membership(params: LkParams, x: Array) -> bool:
    """Inside the controlled-invariant lane set: stoppability interior and
    |y| within the lane margin."""
    return bool(lk_h_field(params)(x) > 0.0 and abs(float(x[0])) <= params.y_max)


def _lyapunov_solve(Acl: Array, C: Array) -> Array:
    """Solve Acl' X + X Acl = -C for symmetric X (dense Kronecker form)."""
    n = Acl.shape[0]
    eye = np.eye(n)
    lhs = np.kron(Acl.T, eye) + np.kron(eye, Acl.T)
    X = np.linalg.solve(lhs, -C.flatten()).reshape(n, n)
    return 0.5 * (X + X.T)


def care_solve(A: Array, B: Array, Q: Array, R: float,
               newton_steps: int = 8, tol_factor: float = 1e-6) -> Array:
    """Continuous-time algebraic Riccati solve.

    Stable-invariant-subspace method on the 2n x 2n Hamiltonian matrix,
    refined by Newton iterations (each one a Lyapunov solve). Deterministic
    and requires no initial stabilizing gain. Raises RiccatiError with the
    residual history when the residual does not reach
    tol_factor * ||Q||_F.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float).reshape(A.shape[0], -1)
    Q = np.asarray(Q, dtype=float)
    n = A.shape[0]
    Rinv = 1.0 / float(R)
    S = B @ (Rinv * B.T)
    ham = np.block([[A, -S], [-Q, -A.T]])
    eigvals, eigvecs = np.linalg.eig(ham)
    stable = np.argsort(eigvals.real)[:n]
    U = eigvecs[:, stable]
    U1, U2 = U[:n, :], U[n:, :]
    P = np.real(U2 @ np.linalg.inv(U1))
    P = 0.5 * (P + P.T)

    q_norm = np.linalg.norm(Q)
    history = []

    def residual(Pm):
        return A.T @ Pm + Pm @ A - Pm @ S @ Pm + Q

    for _ in range(newton_steps):
        res = residual(P)
        history.append(float(np.linalg.norm(res)))
        if history[-1] <= tol_factor * q_norm:
            return P
        Acl = A - S @ P
        if np.max(np.linalg.eigvals(Acl).real) >= 0:
            break
        P = P + _lyapunov_solve(Acl, res)
        P = 0.5 * (P + P.T)
    res = residual(P)
    history.append(float(np.linalg.norm(res)))
    if history[-1] <= tol_factor * q_norm:
        return P
    raise RiccatiError(
        f"Riccati residual {history[-1]:.3e} above {tol_factor:g} * ||Q|| "
        f"after refinement",
        residual_history=history,
    )


def _controllable(A: Array, B: Array) -> bool:
    n = A.shape[0]
    blocks = [B.reshape(n, -1)]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    ctrb = np.hstack(blocks)
    return np.linalg.matrix_rank(ctrb) == n


def solve_lqr_gain(params: LkParams) -> tuple[Array, Callable[[float], Array]]:
    """LQR tracking gain and curvature feedforward.

    The state weight combines a previewed output c . x with its rate:
    Q = kp * c'c + kd * (cA)'(cA). The printed form of the rate term is
    dimensionally inconsistent for a row-vector c, so the rate-of-output
    weighting is used; see the package docs. Returns (K, x_ff) where
    x_ff(r_d) = (0, 0, 0, r_d) reduces tracking error on curves.
    """
    A, B, _ = lk_matrices(params)
    if not _controllable(A, B):
        raise RiccatiError("lateral-yaw pair (A, B) is not controllable")
    c = np.asarray(params.lqr_preview, dtype=float)
    cA = c @ A
    Q = params.lqr_kp * np.outer(c, c) + params.lqr_kd * np.outer(cA, cA)
    P = care_solve(A, B, Q, params.lqr_control_weight)
    K = (B @ P) / params.lqr_control_weight
    cl = A - np.outer(B, K)
    if np.max(np.linalg.eigvals(cl).real) >= 0:
        raise RiccatiError("closed-loop matrix is not Hurwitz after LQR solve")

    def x_ff(r_d: float) -> Array:
        return np.array([0.0, 0.0, 0.0, float(r_d)])

    return K, x_ff


def lk_cost(params: LkParams):
    """Unit weight on the (normalized) steering input, relax_weight on the
    tracking relaxation."""
    H = 2.0 * np.diag([1.0, params.relax_weight])
    F = np.zeros(2)
    F.setflags(write=False)

    def cost(x, w):
        return H, F

    return cost


def lk_qp_spec(params: LkParams, kind: str = "log",
               gain: Optional[tuple[Array, Callable]] = None,
               operating_box=DEFAULT_LK_BOX) -> ControllerSpec:
    """Lane-keeping QP: soft LQR tracking, hard stoppability barrier, hard
    steering interval from the lateral-acceleration bound."""
    sys = lk_dynamics(params, operating_box)
    K, x_ff = gain if gain is not None else solve_lqr_gain(params)
    barrier = lk_barrier(params, kind)
    h = lk_h_field(params)

    def nominal(x, w):
        return float(-K @ (x - x_ff(w[0])))

    def bounds(x, w):
        lo, hi = lk_input_bounds(params, x, w[0])
        return [(np.array([1.0]), hi), (np.array([-1.0]), -lo)]

    def fallback(x, w):
        # Saturate to whichever admissible steering endpoint pushes the
        # barrier least toward its boundary.
        lo, hi = lk_input_bounds(params, x, w[0])
        grad = h.grad(x)
        g_col = sys.input_matrix(x)[:, 0]
        hdot_gain = float(grad @ g_col)
        return np.array([hi if hdot_gain > 0 else lo])

    return ControllerSpec(
        sys=sys,
        cbf_rows=(barrier,),
        cost=lk_cost(params),
        nominal_feedback=nominal,
        input_bounds=bounds,
        fallback=fallback,
        name=f"lk_{kind}",
    )

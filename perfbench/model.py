"""The benchmark's own model equations.

Written out from the vehicle models (longitudinal point mass with drag;
four-state lateral-yaw bicycle model) without importing cbfsim, so that
the input generator and the reference checks stay independent of the
program under test: no closed-form margin, no QP solver, no Riccati solve
of the program is used here.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

G = 9.81

# Parameter values written into every generated scenario. They equal the
# package defaults, but the checks read them from here, not from cbfsim.
ACC_PARAMS = {
    "M": 1650.0, "f0": 0.1, "f1": 5.0, "f2": 0.25, "v_d": 22.0,
    "tau_d": 1.8, "a_f": 0.25, "a_f_accel": 0.25, "a_l": 0.25,
    "a_l_accel": 0.25, "g": G, "clf_rate": 10.0, "cbf_rate": 1.0,
    "relax_weight": 100.0,
}
LK_PARAMS = {
    "M": 1650.0, "I_z": 2315.3, "cg_to_front": 1.11, "cg_to_rear": 1.59,
    "C_f": 133000.0, "C_r": 98800.0, "v0": 27.7, "y_max": 0.9,
    "a_max": 0.3 * G, "cbf_rate": 1.0, "relax_weight": 100.0,
    "lqr_control_weight": 600.0, "lqr_kp": 5.0, "lqr_kd": 0.4,
    "lqr_preview": (1.0, 0.0, 20.0, 0.0),
}


# ---------------------------------------------------------------------------
# cruise control: x = (v_f, v_l, D), u = wheel force, w = lead acceleration


def acc_rate(p: dict, x, u: float, w: float) -> np.ndarray:
    v_f, v_l = x[0], x[1]
    drag = p["f0"] + p["f1"] * v_f + p["f2"] * v_f * v_f
    return np.array([(u - drag) / p["M"], w, v_l - v_f])


def headway(p: dict, x) -> float:
    return float(x[2] - p["tau_d"] * x[0])


def braking_margins(p: dict, v_f: float, v_l: float,
                    dt: float = 1e-3) -> tuple[float, float]:
    """(optimal, conservative) gap margins by time-stepping joint maximal
    braking: both cars brake at their allowed rates until stopped.

    The optimal margin is the largest gap decrease plus the headway demand
    at the follower's speed at that time; the conservative one holds the
    headway demand at the initial speed. The stop instants are added to
    the grid so the kinks of the piecewise motion are sampled exactly.
    """
    afg, alg = p["a_f"] * p["g"], p["a_l"] * p["g"]
    t_f, t_l = v_f / afg, v_l / alg
    t = np.concatenate([np.arange(0.0, max(t_f, t_l) + dt, dt), [t_f, t_l]])
    vf_t = np.maximum(v_f - afg * t, 0.0)
    x_f = np.where(t < t_f, v_f * t - 0.5 * afg * t * t, 0.5 * v_f * v_f / afg)
    x_l = np.where(t < t_l, v_l * t - 0.5 * alg * t * t, 0.5 * v_l * v_l / alg)
    drop = x_f - x_l
    optimal = float(np.max(drop + p["tau_d"] * vf_t))
    conservative = p["tau_d"] * v_f + max(float(np.max(drop)), 0.0)
    return optimal, conservative


def force_h(p: dict, x, variant: str) -> float:
    optimal, conservative = braking_margins(p, float(x[0]), float(x[1]))
    return float(x[2]) - (optimal if variant == "optimal" else conservative)


# ---------------------------------------------------------------------------
# lane keeping: x = (y, nu, psi, r), u = steering angle, w = desired yaw rate


def lk_matrices(p: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    M, Iz, v0 = p["M"], p["I_z"], p["v0"]
    a, b = p["cg_to_front"], p["cg_to_rear"]
    Cf, Cr = p["C_f"], p["C_r"]
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


def lk_rate(p: dict, x, u: float, w: float) -> np.ndarray:
    A, B, E = lk_matrices(p)
    return A @ np.asarray(x, dtype=float) + B * u + E * w


def lateral_rate(p: dict, x) -> float:
    return float(x[1] + p["v0"] * x[2])


def lateral_accel(p: dict, x, u: float, w: float) -> float:
    """d2y/dt2 = d(nu)/dt + v0 d(psi)/dt, from the state equations."""
    rate = lk_rate(p, x, u, w)
    return float(rate[1] + p["v0"] * rate[2])


def stoppability(p: dict, x) -> float:
    """Lane-edge stoppability h = y_max - sgn(ydot) y - ydot^2/(2 a_max)."""
    yd = lateral_rate(p, x)
    sign = (yd > 0) - (yd < 0)
    return float(p["y_max"] - sign * x[0] - 0.5 * yd * yd / p["a_max"])


def lqr_problem(p: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """(A, B, Q, R) of the lane-keeping tracking LQR: Q weights a previewed
    output c.x and its rate, Q = kp c'c + kd (cA)'(cA)."""
    A, B, _ = lk_matrices(p)
    c = np.asarray(p["lqr_preview"], dtype=float)
    cA = c @ A
    Q = p["lqr_kp"] * np.outer(c, c) + p["lqr_kd"] * np.outer(cA, cA)
    return A, B.reshape(4, 1), Q, p["lqr_control_weight"]


# ---------------------------------------------------------------------------
# integration and QP reference


def rk4_step(rate, x, dt: float) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    k1 = rate(x)
    k2 = rate(x + 0.5 * dt * k1)
    k3 = rate(x + 0.5 * dt * k2)
    k4 = rate(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def brute_force_qp(H, F, rows) -> np.ndarray | None:
    """Minimize 0.5 z'Hz + F'z subject to a.z <= b by enumerating active
    sets.

    For every set of at most dim(z) linearly independent rows, the
    minimizer with those rows held as equalities is a candidate; the
    optimum of the strictly convex problem is the feasible candidate of
    least cost. Returns None when no candidate is feasible.
    """
    H = np.asarray(H, dtype=float)
    F = np.asarray(F, dtype=float)
    n = F.size
    A = np.array([np.asarray(a, dtype=float) for a, _ in rows]).reshape(-1, n)
    b = np.array([float(v) for _, v in rows])
    best, best_cost = None, math.inf
    for size in range(min(n, len(b)) + 1):
        for subset in itertools.combinations(range(len(b)), size):
            idx = list(subset)
            if size and np.linalg.matrix_rank(A[idx]) < size:
                continue
            kkt = np.zeros((n + size, n + size))
            kkt[:n, :n] = H
            kkt[:n, n:] = A[idx].T
            kkt[n:, :n] = A[idx]
            rhs = np.concatenate([-F, b[idx]])
            try:
                z = np.linalg.solve(kkt, rhs)[:n]
            except np.linalg.LinAlgError:
                continue
            slack = A @ z - b
            tol = 1e-9 * (1.0 + np.abs(b) + np.abs(A) @ np.abs(z))
            if np.any(slack > tol):
                continue
            cost = 0.5 * z @ H @ z + F @ z
            if cost < best_cost:
                best, best_cost = z, cost
    return best

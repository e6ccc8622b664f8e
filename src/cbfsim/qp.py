"""Small dense quadratic programs.

Two solution routes are provided and kept deliberately independent so that
they can cross-check each other:

* ``solve_two_constraint_closed_form`` evaluates the exact closed-form
  solution available when there are exactly two inequality rows. The
  problem is transformed into a projection in the inner product weighted by
  the cost matrix; the 2x2 Gram system then has an explicit three-branch
  multiplier formula with a clamp ``w(r) = min(r, 0)``. Two rows count as
  degenerate when their Gram matrix is singular up to a relative 1e-12,
  a test that does not depend on how either row is scaled.
* ``solve_active_set`` is a dual active-set iteration (Goldfarb & Idnani
  1983) for the same problems plus any number of extra rows (input bounds,
  relaxed equality pairs). It runs on plain Python floats, and every
  working-set solve goes through one helper, ``_kkt_solve``: closed forms
  for the two variables ``z = (u, delta)`` of every shipped controller, one
  dense solve of the assembled KKT matrix otherwise.

``QpProblem`` validates its cost matrix (symmetric, positive definite) and
warns when it is badly conditioned, once per matrix value, whichever route
then solves the problem.

Sign conventions: rows are ``a . z <= b``; reported multipliers are <= 0 and
satisfy stationarity ``H z + F = sum_i lambda_i a_i``.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from operator import mul

import numpy as np

Array = np.ndarray

# Contract tolerances: primal feasibility / stationarity at 1e-8, dual
# feasibility / complementary slackness at 1e-6.
TOL_PRIMAL = 1e-8
TOL_STATIONARITY = 1e-8
TOL_DUAL = 1e-6

# Internal thresholds for the active-set iteration.
_EPS_ADD = 1e-10
_EPS_DROP = 1e-11
_EPS_DEP = 1e-9

COND_WARN = 1e12


@functools.lru_cache(maxsize=64)
def _check_cost(n: int, data: bytes) -> None:
    """Validate a cost matrix, given by value so each one is checked once."""
    H = np.frombuffer(data).reshape(n, n)
    scale = max(1.0, float(np.abs(H).max()))
    if float(np.abs(H - H.T).max()) > 1e-12 * scale:
        raise ValueError("H must be symmetric within 1e-12")
    try:
        L = np.linalg.cholesky(H)
    except np.linalg.LinAlgError as exc:
        raise ValueError("H must be positive definite") from exc
    d = np.diag(L)
    cond_est = (d.max() / d.min()) ** 2  # cheap two-sided bound surrogate
    if cond_est >= COND_WARN:
        warnings.warn(
            f"cost matrix condition number ~{cond_est:.2e}; the QP solution "
            "may be inaccurate",
            RuntimeWarning,
            stacklevel=4,
        )


@dataclass
class QpProblem:
    """minimize 0.5 z'Hz + F'z  subject to  a_i . z <= b_i for every row.

    H must be symmetric positive definite (checked by attempted Cholesky
    factorization at construction).
    """

    H: Array
    F: Array
    rows: list[tuple[Array, float]]

    def __post_init__(self):
        if not (isinstance(self.H, np.ndarray) and self.H.dtype == np.float64):
            self.H = np.asarray(self.H, dtype=float)
        if not (isinstance(self.F, np.ndarray) and self.F.dtype == np.float64
                and self.F.ndim == 1):
            self.F = np.atleast_1d(np.asarray(self.F, dtype=float))
        n = self.H.shape[0]
        if self.H.shape != (n, n):
            raise ValueError("H must be square")
        if self.F.shape != (n,):
            raise ValueError("F length must match H")
        _check_cost(n, self.H.tobytes())
        rows = []
        for a, b in self.rows:
            if not (isinstance(a, np.ndarray) and a.dtype == np.float64
                    and a.ndim == 1):
                a = np.atleast_1d(np.asarray(a, dtype=float))
            if a.shape != (n,):
                raise ValueError("row dimension must match H")
            rows.append((a, float(b)))
        self.rows = rows

    @property
    def dim(self) -> int:
        return self.H.shape[0]

    def row_matrix(self) -> tuple[Array, Array]:
        if not self.rows:
            n = self.dim
            return np.zeros((0, n)), np.zeros(0)
        A = np.vstack([a for a, _ in self.rows])
        b = np.array([b for _, b in self.rows])
        return A, b


@dataclass
class QpSolution:
    """Solver result: point, per-row multipliers (<= 0), active rows, status."""

    z: Array
    multipliers: Array
    active_set: tuple[int, ...]
    status: str  # "optimal" | "infeasible" | "degenerate"
    iterations: int = 0
    info: dict = field(default_factory=dict)


@dataclass
class GramData:
    """Transformed data for the two-row closed form.

    ``ybar`` holds H^{-1} y_i as columns, ``pbar`` the right-hand sides
    shifted by the unconstrained optimum ``ubar = -H^{-1} F``, and ``G`` the
    2x2 Gram matrix of the rows under the H-weighted inner product.
    """

    ubar: Array
    ybar: Array
    pbar: Array
    G: Array


def _dot(a: list, z: list) -> float:
    return sum(map(mul, a, z))


def _kkt_solve(H: list, AW: list, r: list, s: list) -> tuple[list, list]:
    """Solve the working-set KKT system [H A_W'; A_W 0] [x; y] = [r; s].

    All arguments and results are plain lists. With two variables each
    working set has a closed form: no rows is the 2x2 inverse; one row
    moves from its point nearest the origin along its null direction
    (-a1, a0); two rows fix the vertex A_W x = s, then A_W' y = r - H x.
    The range-space form x = H^-1 (r - A_W' y) is not used: with the cruise
    cost it cancels terms about 1e10 apart. Any other size takes one dense
    solve of the assembled matrix.
    """
    m = len(AW)
    if len(r) == 2 and m <= 2:
        (h00, h01), (h10, h11) = H
        r0, r1 = r
        if m == 0:
            det = h00 * h11 - h01 * h10
            return [(h11 * r0 - h01 * r1) / det, (h00 * r1 - h10 * r0) / det], []
        if m == 1:
            (a0, a1), = AW
            aa = a0 * a0 + a1 * a1
            p0 = a0 * s[0] / aa
            p1 = a1 * s[0] / aa
            # x = p + t (-a1, a0): stationarity projected on the null direction.
            t = ((a0 * (r1 - h10 * p0 - h11 * p1) - a1 * (r0 - h00 * p0 - h01 * p1))
                 / (a0 * (h11 * a0 - h10 * a1) - a1 * (h01 * a0 - h00 * a1)))
            x0 = p0 - t * a1
            x1 = p1 + t * a0
            g0 = r0 - h00 * x0 - h01 * x1
            g1 = r1 - h10 * x0 - h11 * x1
            return [x0, x1], [(a0 * g0 + a1 * g1) / aa]
        (a00, a01), (a10, a11) = AW
        s0, s1 = s
        det = a00 * a11 - a01 * a10
        x0 = (a11 * s0 - a01 * s1) / det
        x1 = (a00 * s1 - a10 * s0) / det
        g0 = r0 - h00 * x0 - h01 * x1
        g1 = r1 - h10 * x0 - h11 * x1
        return [x0, x1], [(a11 * g0 - a10 * g1) / det, (a00 * g1 - a01 * g0) / det]
    n = len(r)
    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = H
    if m:
        kkt[n:, :n] = AW
        kkt[:n, n:] = kkt[n:, :n].T
    sol = np.linalg.solve(kkt, np.array(r + s, dtype=float)).tolist()
    return sol[:n], sol[n:]


def assemble_h_inner_product(p: QpProblem) -> GramData:
    """Build the Gram data used by the two-row closed form."""
    if len(p.rows) != 2:
        raise ValueError("assemble_h_inner_product requires exactly 2 rows")
    A, b = p.row_matrix()
    H = p.H.tolist()
    # H^-1 [-F | y_1 | y_2]: working-set solves with no rows.
    sol = np.array([_kkt_solve(H, [], r, [])[0]
                    for r in [(-p.F).tolist(), *A.tolist()]])
    ubar = sol[0]
    ybar = sol[1:].T
    G = A @ ybar
    G = 0.5 * (G + G.T)
    pbar = b - A @ ubar
    return GramData(ubar=ubar, ybar=ybar, pbar=pbar, G=G)


def _clamp_neg(r: float) -> float:
    return r if r < 0.0 else 0.0


def closed_form_multipliers(G: Array, pbar: Array) -> tuple[Array, str]:
    """Three-branch multiplier formula for the 2x2 Gram system.

    Returns the multipliers (<= 0) and which branch fired; exposed
    separately so branch-boundary consistency can be probed directly.
    """
    det = G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]
    p1, p2 = float(pbar[0]), float(pbar[1])
    if G[1, 0] * _clamp_neg(p2) - G[1, 1] * p1 < 0.0:
        return np.array([0.0, _clamp_neg(p2) / G[1, 1]]), "first-inactive"
    if G[0, 1] * _clamp_neg(p1) - G[0, 0] * p2 < 0.0:
        return np.array([_clamp_neg(p1) / G[0, 0], 0.0]), "second-inactive"
    lam1 = _clamp_neg(G[1, 1] * p1 - G[1, 0] * p2) / det
    lam2 = _clamp_neg(G[0, 0] * p2 - G[0, 1] * p1) / det
    return np.array([lam1, lam2]), "both-active"


def solve_two_constraint_closed_form(p: QpProblem) -> QpSolution:
    """Exact solution of a 2-row problem via the weighted-projection form.

    Returns status "degenerate" when the two rows are linearly dependent
    under the H-inner product (Cauchy-Schwarz holds with equality up to a
    relative 1e-12, whatever the rows' scales); callers fall back to the
    active-set route.
    """
    gd = assemble_h_inner_product(p)
    G = gd.G
    if G[0, 1] * G[0, 1] >= (1.0 - 1e-12) * G[0, 0] * G[1, 1]:
        return QpSolution(
            z=gd.ubar.copy(),
            multipliers=np.zeros(2),
            active_set=(),
            status="degenerate",
            info={"reason": "rows dependent under H-inner product",
                  "detG": G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]},
        )
    lam, branch = closed_form_multipliers(G, gd.pbar)
    z = gd.ubar + gd.ybar @ lam
    A, b = p.row_matrix()
    resid = A @ z - b
    active = tuple(
        i for i in range(2) if abs(resid[i]) <= TOL_PRIMAL * (1.0 + abs(b[i]))
    )
    return QpSolution(
        z=z,
        multipliers=lam,
        active_set=active,
        status="optimal",
        info={"branch": branch, "gram": gd, "residuals": resid},
    )


def _kkt_residuals(H: Array, F: Array, A: Array, b: Array, z: Array,
                   lam: Array) -> dict:
    k = A.shape[0]
    stat = H @ z + F - (A.T @ lam if k else 0.0)
    primal = A @ z - b if k else np.zeros(0)
    comp = lam * primal if k else np.zeros(0)
    return {
        "stationarity": float(np.abs(stat).max()),
        "primal": float(primal.max()) if primal.size else 0.0,
        "dual": float(lam.max()) if lam.size else 0.0,
        "complementarity": float(np.abs(comp).max()) if comp.size else 0.0,
    }


def solve_active_set(p: QpProblem, max_iter: int = 100) -> QpSolution:
    """Dual active-set iteration for small dense problems.

    Starts at the unconstrained optimum and repeatedly makes the most
    violated row feasible (ties: lowest row index), taking partial steps
    that keep the working-set multipliers non-negative and dropping the
    blocking row at each partial step (ties: lowest row index). The dual
    objective increases monotonically, so the iteration cannot cycle; the
    cap is a defensive limit. Infeasible row sets are detected with a
    certificate row combination (non-negative weights whose combined row
    is unsatisfiable).
    """
    A, b = p.row_matrix()
    k = len(p.rows)
    H = p.H.tolist()
    rows = A.tolist()
    rhs = b.tolist()
    neg_f = (-p.F).tolist()
    add_eps = [_EPS_ADD * (1.0 + abs(bi)) for bi in rhs]
    work: list[int] = []
    mu_w: list[float] = []
    z, _ = _kkt_solve(H, [], neg_f, [])
    iterations = 0
    took_partial_step = False

    def _finish(status: str, extra: dict | None = None) -> QpSolution:
        lam = np.zeros(k)
        for idx, mu in zip(work, mu_w):
            lam[idx] = -mu
        z_arr = np.array(z)
        info = _kkt_residuals(p.H, p.F, A, b, z_arr, lam)
        if extra:
            info.update(extra)
        if status == "optimal":
            scale = 1.0 + float(np.max(np.abs(z_arr)))
            ok = (
                info["stationarity"] <= TOL_STATIONARITY * scale * 10
                and info["primal"] <= TOL_PRIMAL * scale
                and info["dual"] <= TOL_DUAL
                and info["complementarity"] <= TOL_DUAL * scale
            )
            if not ok:
                status = "degenerate"
                info["reason"] = "KKT residual check failed"
        return QpSolution(
            z=z_arr,
            multipliers=lam,
            active_set=tuple(sorted(work)),
            status=status,
            iterations=iterations,
            info=info,
        )

    if k == 0:
        return _finish("optimal")

    while iterations < max_iter:
        iterations += 1

        cand = -1
        best = 0.0
        for i in range(k):
            v = _dot(rows[i], z) - rhs[i]
            if v > add_eps[i] and (cand < 0 or v > best) and i not in work:
                cand = i  # first occurrence of the max = lowest index
                best = v
        if cand < 0:
            if took_partial_step:
                # Full steps land exactly on working-set optima; partial
                # (blocking) steps accumulate roundoff, so re-solve once.
                z_p, mu_p = _kkt_solve(H, [rows[i] for i in work], neg_f,
                                       [rhs[i] for i in work])
                if not work or min(mu_p) >= -_EPS_DROP:
                    z = z_p
                    mu_w = mu_p
            return _finish("optimal")

        a_new = rows[cand]
        neg_a = [-v for v in a_new]
        mu_new = 0.0
        while iterations < max_iter:
            iterations += 1
            # Direction of (z, mu_work) as the incoming row's multiplier
            # grows; dz' H dz >= 0, zero exactly when a_new depends on the
            # working rows.
            dz, dmu = _kkt_solve(H, [rows[i] for i in work], neg_a,
                                 [0.0] * len(work))
            curvature = -_dot(a_new, dz)  # = dz' H dz >= 0

            # Dual blocking step: first working multiplier to hit zero.
            t_dual = math.inf
            block = -1
            for pos, d in enumerate(dmu):
                if d < -_EPS_DROP:
                    t = -mu_w[pos] / d
                    if t < t_dual - 1e-15 or (
                        abs(t - t_dual) <= 1e-15 and work[pos] < work[block]
                    ):
                        t_dual = t
                        block = pos
            # Primal step: incoming row becomes tight.
            r0 = _dot(a_new, z) - rhs[cand]
            t_primal = r0 / curvature if curvature > _EPS_DEP else math.inf

            if not math.isfinite(min(t_dual, t_primal)):
                # No curvature and nothing blocks: the row cannot be
                # satisfied. Stationarity gives a_new + sum(dmu_j a_j) = 0
                # with every dmu_j >= 0, a non-negative row combination
                # that certifies infeasibility.
                cert = {work[pos]: max(d, 0.0) for pos, d in enumerate(dmu)}
                cert[cand] = 1.0
                return _finish(
                    "infeasible",
                    {"certificate": cert, "violated_row": cand},
                )

            step = min(t_dual, t_primal)
            z = [zi + step * di for zi, di in zip(z, dz)]
            mu_w = [mu + step * d for mu, d in zip(mu_w, dmu)]
            if t_dual < t_primal:
                took_partial_step = True
                mu_new += t_dual
                del work[block], mu_w[block]
                continue
            mu_w.append(mu_new + t_primal)
            work.append(cand)
            break

    return _finish(
        "degenerate",
        {"reason": f"iteration cap {max_iter} exceeded", "working_set": list(work)},
    )

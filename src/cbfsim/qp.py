"""Small dense quadratic programs.

Two solution routes are provided and kept deliberately independent so that
they can cross-check each other; both run on Python floats:

* ``solve_two_constraint_closed_form`` evaluates the exact closed-form
  solution available when there are exactly two inequality rows. The
  problem is transformed into a projection in the inner product weighted by
  the cost matrix; the 2x2 Gram system then has an explicit three-branch
  multiplier formula with a clamp ``w(r) = min(r, 0)``. Two rows count as
  degenerate when their Gram matrix is singular up to a relative 1e-12,
  a test that does not depend on how either row is scaled.
* ``solve_active_set`` is a dual active-set iteration (Goldfarb & Idnani
  1983) for the same problems plus any number of extra rows (input bounds,
  relaxed equality pairs). Every working-set solve goes through one
  helper, ``_kkt_solve``: closed forms for the two variables
  ``z = (u, delta)`` of every shipped controller, one dense solve of the
  assembled KKT matrix otherwise. An incoming row depends on the working
  rows when its curvature is below ``1e-12 a' H^-1 a``: the same relative
  test as the closed form's.

Both routes return through one KKT check, ``_solution``: a result that
misses the contract is ``degenerate``, not ``optimal``. The closed form's
step ``z = ubar + H^-1 A' lambda`` can cancel badly; the controller then
solves the problem again with the active set.

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
_EPS_DEP = 1e-12  # relative to a' H^-1 a of the incoming row

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
    """Transformed data for the two-row closed form, as plain lists.

    ``ybar[i]`` is H^{-1} y_i, ``pbar`` the right-hand sides shifted by the
    unconstrained optimum ``ubar = -H^{-1} F``, and ``G`` the 2x2 Gram
    matrix of the rows under the H-weighted inner product.
    """

    ubar: list
    ybar: list
    pbar: list
    G: list


def _dot(a: list, z: list) -> float:
    return sum(map(mul, a, z))


def _lists(p: QpProblem) -> tuple[list, list, list, list]:
    """The problem as Python floats: H, F, the row vectors and their bounds."""
    return (p.H.tolist(), p.F.tolist(), [a.tolist() for a, _ in p.rows],
            [b for _, b in p.rows])


def _solution(prob: tuple, status: str, z: list, lam: list,
              active: tuple[int, ...], iterations: int = 0,
              extra: dict | None = None) -> QpSolution:
    """Apply the KKT contract to ``(z, lam)`` and package the result.

    ``info`` gets the residuals: stationarity ``max |H z + F - A' lam|``,
    primal ``max (A z - b)``, dual ``max lam`` and complementarity
    ``max |lam * (A z - b)|``, then ``extra``. An "optimal" result that
    misses the contract becomes "degenerate".
    """
    H, F, A, b = prob
    primal = [_dot(a, z) - bi for a, bi in zip(A, b)]
    stat = max(abs(_dot(h, z) + f - sum(lm * a[j] for lm, a in zip(lam, A)))
               for j, (h, f) in enumerate(zip(H, F)))
    comp = max(map(abs, map(mul, lam, primal)), default=0.0)
    info = {"stationarity": stat, "primal": max(primal, default=0.0),
            "dual": max(lam, default=0.0), "complementarity": comp, **(extra or {})}
    scale = 1.0 + max(map(abs, z))
    if status == "optimal" and not (
        stat <= TOL_STATIONARITY * scale * 10
        and info["primal"] <= TOL_PRIMAL * scale
        and info["dual"] <= TOL_DUAL
        and comp <= TOL_DUAL * scale
    ):
        status = "degenerate"
        info["reason"] = "KKT residual check failed"
    return QpSolution(np.array(z), np.array(lam), active, status, iterations, info)


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


def _gram(H: list, F: list, A: list, b: list) -> GramData:
    if len(A) != 2:
        raise ValueError("assemble_h_inner_product requires exactly 2 rows")
    # H^-1 [-F | y_1 | y_2]: working-set solves with no rows.
    ubar, y1, y2 = (_kkt_solve(H, [], r, [])[0] for r in ([-f for f in F], *A))
    g01 = 0.5 * (_dot(A[0], y2) + _dot(A[1], y1))
    return GramData(ubar=ubar, ybar=[y1, y2],
                    pbar=[bi - _dot(a, ubar) for a, bi in zip(A, b)],
                    G=[[_dot(A[0], y1), g01], [g01, _dot(A[1], y2)]])


def assemble_h_inner_product(p: QpProblem) -> GramData:
    """Build the Gram data used by the two-row closed form."""
    return _gram(*_lists(p))


def _clamp_neg(r: float) -> float:
    return r if r < 0.0 else 0.0


def closed_form_multipliers(G: list, pbar: list) -> tuple[list, str]:
    """Three-branch multiplier formula for the 2x2 Gram system.

    Returns the multipliers (<= 0) and which branch fired; exposed
    separately so branch-boundary consistency can be probed directly.
    """
    (g00, g01), (g10, g11) = G
    p1, p2 = pbar
    if g10 * _clamp_neg(p2) - g11 * p1 < 0.0:
        return [0.0, _clamp_neg(p2) / g11], "first-inactive"
    if g01 * _clamp_neg(p1) - g00 * p2 < 0.0:
        return [_clamp_neg(p1) / g00, 0.0], "second-inactive"
    det = g00 * g11 - g01 * g10
    lam1 = _clamp_neg(g11 * p1 - g10 * p2) / det
    lam2 = _clamp_neg(g00 * p2 - g01 * p1) / det
    return [lam1, lam2], "both-active"


def solve_two_constraint_closed_form(p: QpProblem) -> QpSolution:
    """Exact solution of a 2-row problem via the weighted-projection form.

    Returns status "degenerate" when the two rows are linearly dependent
    under the H-inner product (Cauchy-Schwarz holds with equality up to a
    relative 1e-12, whatever the rows' scales), and also when the result
    misses the KKT contract; callers fall back to the active-set route.
    The active rows are those with a non-zero multiplier.
    """
    prob = _lists(p)
    gd = _gram(*prob)
    (g00, g01), (_, g11) = gd.G
    if g01 * g01 >= (1.0 - 1e-12) * g00 * g11:
        return _solution(prob, "degenerate", gd.ubar, [0.0, 0.0], (),
                         extra={"reason": "rows dependent under H-inner product"})
    lam, branch = closed_form_multipliers(gd.G, gd.pbar)
    z = [u + (lam[0] * y1 + lam[1] * y2) for u, y1, y2 in zip(gd.ubar, *gd.ybar)]
    return _solution(prob, "optimal", z, lam,
                     tuple(i for i in (0, 1) if lam[i] < 0.0),
                     extra={"branch": branch})


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
    prob = H, F, rows, rhs = _lists(p)
    k = len(rows)
    neg_f = [-f for f in F]
    add_eps = [_EPS_ADD * (1.0 + abs(bi)) for bi in rhs]
    work: list[int] = []
    mu_w: list[float] = []
    z, _ = _kkt_solve(H, [], neg_f, [])
    iterations = 0
    took_partial_step = False

    def _finish(status: str, extra: dict | None = None) -> QpSolution:
        lam = [0.0] * k
        for idx, mu in zip(work, mu_w):
            lam[idx] = -mu
        return _solution(prob, status, z, lam, tuple(sorted(work)), iterations, extra)

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
        dep_tol = _EPS_DEP * _dot(a_new, _kkt_solve(H, [], a_new, [])[0])
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
            t_primal = r0 / curvature if curvature > dep_tol else math.inf

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

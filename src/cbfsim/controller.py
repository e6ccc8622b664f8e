"""Pointwise QP controllers combining a performance objective with hard
barrier rows.

Each control step assembles a small QP over ``z = (u, delta)``:

* the performance row is either a Lyapunov decrease condition relaxed by
  delta (soft), or a nominal-feedback tracking equality relaxed by delta
  (encoded as two opposite inequality rows sharing delta);
* every barrier row is hard;
* optional input bounds are hard.

Safety is therefore never traded away: delta only relaxes performance, and
its magnitude is reported as a conflict signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    BoundaryViolationError,
    FieldEvaluationError,
    InfeasibleError,
    SafetyDomainError,
)
from .qp import QpProblem, QpSolution, solve_active_set, solve_two_constraint_closed_form
from .systems import Array, ControlAffineSystem, InputPolytope, ScalarField, lie_derivatives


@dataclass(frozen=True)
class EsClf:
    """Exponentially stabilizing Lyapunov function candidate V with
    decrease rate c3: admissible inputs keep dV/dt <= -c3 V."""

    V: ScalarField
    c3: float

    def __post_init__(self):
        if self.c3 <= 0:
            raise ValueError("c3 must be positive")

    def row_data(self, x: Array) -> tuple[Array, float]:
        """(grad V, -c3 V): the decrease row grad V . xdot <= -c3 V."""
        return self.V.grad(x), -self.c3 * self.V(x)


CostBuilder = Callable[[Array, Array], tuple[Array, Array]]
BoundsBuilder = Callable[[Array, Array], Sequence[tuple[Array, float]]]


@dataclass(frozen=True)
class ControllerSpec:
    """Pointwise QP controller description.

    Exactly one of ``clf`` / ``nominal_feedback`` must be given, and at
    least one barrier row. ``input_bounds`` may be a static polytope or a
    callable ``(x, w) -> rows`` for state-dependent admissible sets.
    ``fallback`` supplies the saturated safe action applied (and flagged)
    when the row set is infeasible at a state.
    """

    sys: ControlAffineSystem
    cbf_rows: tuple
    cost: CostBuilder
    clf: Optional[EsClf] = None
    nominal_feedback: Optional[Callable[[Array, Array], float]] = None
    input_bounds: Optional[object] = None
    fallback: Optional[Callable[[Array, Array], Array]] = None
    name: str = "controller"

    def __post_init__(self):
        if (self.clf is None) == (self.nominal_feedback is None):
            raise ValueError("exactly one of clf / nominal_feedback required")
        if not self.cbf_rows:
            raise ValueError("at least one barrier row is required")
        if self.nominal_feedback is not None and self.sys.input_dim != 1:
            raise ValueError("nominal-feedback tracking rows assume a scalar input")
        static_bounds = None
        if isinstance(self.input_bounds, InputPolytope):
            static_bounds = tuple(
                (np.concatenate([a, [0.0]]), b) for a, b in self.input_bounds.rows
            )
        object.__setattr__(self, "_static_bound_rows", static_bounds)


def _bounds_rows(spec: ControllerSpec, x: Array, w: Array):
    bounds = spec.input_bounds
    if bounds is None:
        return ()
    static = spec._static_bound_rows
    if static is not None:
        return static
    return tuple(
        (np.concatenate([np.atleast_1d(np.asarray(a, dtype=float)), [0.0]]),
         float(b))
        for a, b in bounds(x, w)
    )


def build_qp(spec: ControllerSpec, x: Array, w=None) -> tuple[QpProblem, list[str]]:
    """Assemble the pointwise QP at (x, w).

    Returns the problem and a label per row, ordered [performance rows,
    barrier rows, input-bound rows]. The CLF and every barrier enter
    through their ``row_data(x) -> (c, bound)``, the row
    ``c . (f + g u) <= bound`` written in z as ``(c g, d) . z <= bound -
    c . f`` with ``d = -1`` (the CLF's relaxation) or ``d = 0`` (hard
    barrier rows). Raises SafetyDomainError when x lies outside the
    interior of any reciprocal row's safe set.
    """
    sys = spec.sys
    w = sys.check_exogenous(w)
    x = np.asarray(x, dtype=float)
    m = sys.input_dim
    drift = np.asarray(sys.drift(x, w), dtype=float)
    g_mat = sys.input_matrix(x)
    rows: list[tuple[Array, float]] = []
    labels: list[str] = []

    def affine_row(c: Array, bound: float, d: float) -> tuple[Array, float]:
        row = np.empty(m + 1)
        row[:m] = c @ g_mat
        row[m] = d
        return row, bound - float(c @ drift)

    if spec.clf is not None:
        rows.append(affine_row(*spec.clf.row_data(x), -1.0))
        labels.append("clf")
    else:
        u_nom = float(np.atleast_1d(spec.nominal_feedback(x, w))[0])
        rows.append((np.array([1.0, -1.0]), u_nom))
        rows.append((np.array([-1.0, 1.0]), -u_nom))
        labels.extend(["nominal+", "nominal-"])

    for i, barrier in enumerate(spec.cbf_rows):
        try:
            c, bound = barrier.row_data(x)
        except BoundaryViolationError as exc:
            raise SafetyDomainError(
                f"controller '{spec.name}' evaluated outside the safe "
                f"set of barrier row {i} (h = {exc.h_value:.6g})",
                h_value=exc.h_value,
            ) from exc
        rows.append(affine_row(c, bound, 0.0))
        labels.append(f"cbf:{i}")

    for j, (a_row, b) in enumerate(_bounds_rows(spec, x, w)):
        rows.append((a_row, b))
        labels.append(f"bound:{j}")

    for idx, (a_row, b) in enumerate(rows):
        # One reduction per row: the sum is non-finite iff any entry is.
        if not math.isfinite(b + float(a_row.sum())):
            raise FieldEvaluationError(
                spec.name, x, f"non-finite QP row '{labels[idx]}'"
            )

    H, F = spec.cost(x, w)
    return QpProblem(H, F, rows), labels


@dataclass
class ControlStep:
    """Diagnostics for one evaluated control step."""

    u: Array
    delta: float
    status: str
    active_set: tuple[int, ...]
    labels: list[str]
    multipliers: Array
    solution: Optional[QpSolution] = None
    fallback_used: bool = False

    def row_active(self, label: str) -> bool:
        return any(self.labels[i] == label for i in self.active_set)


def evaluate(spec: ControllerSpec, x: Array, w=None) -> ControlStep:
    """Solve the pointwise QP at (x, w) and return the applied input.

    The closed-form route is used for the plain two-row (performance +
    single barrier, unbounded input) case and cross-falls back to the
    active-set route when it reports degenerate (dependent rows, or a
    result that misses the KKT contract). Infeasible row sets trigger the
    controller's declared fallback action, flagged in the diagnostics.
    """
    qp, labels = build_qp(spec, x, w)
    m = spec.sys.input_dim

    sol: QpSolution
    if spec.clf is not None and len(qp.rows) == 2:
        sol = solve_two_constraint_closed_form(qp)
        if sol.status != "optimal":
            sol = solve_active_set(qp)
    else:
        sol = solve_active_set(qp)

    if sol.status == "infeasible":
        if spec.fallback is None:
            raise InfeasibleError(
                f"controller '{spec.name}' QP infeasible at x = {np.asarray(x)} "
                "and no fallback is declared",
                certificate=sol.info.get("certificate"),
            )
        u = np.atleast_1d(np.asarray(spec.fallback(x, w), dtype=float))
        return ControlStep(
            u=u,
            delta=float("nan"),
            status="infeasible",
            active_set=(),
            labels=labels,
            multipliers=np.zeros(len(qp.rows)),
            solution=sol,
            fallback_used=True,
        )

    return ControlStep(
        u=sol.z[:m].copy(),
        delta=float(sol.z[m]),
        status=sol.status,
        active_set=sol.active_set,
        labels=labels,
        multipliers=sol.multipliers,
        solution=sol,
    )


def min_norm_clf(clf: EsClf, sys: ControlAffineSystem,
                 bounds: Optional[InputPolytope], x: Array, w=None) -> Array:
    """Minimum-Euclidean-norm input satisfying the Lyapunov decrease row.

    The decrease row is hard here (no relaxation); an infeasible
    combination with the input bounds raises.
    """
    w = sys.check_exogenous(w)
    lf, lg = lie_derivatives(sys, clf.V, x, w)
    rows: list[tuple[Array, float]] = [(lg, -lf - clf.c3 * clf.V(x))]
    if bounds is not None:
        rows.extend(bounds.rows)
    m = sys.input_dim
    sol = solve_active_set(QpProblem(np.eye(m), np.zeros(m), rows))
    if sol.status != "optimal":
        raise InfeasibleError(
            f"min-norm decrease row infeasible under bounds at x = {np.asarray(x)}",
            certificate=sol.info.get("certificate"),
        )
    return sol.z

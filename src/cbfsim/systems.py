"""Control-affine system models and Lie-derivative evaluation.

Systems are input-affine, ``dx/dt = f(x, w) + g(x) u``, where ``w`` is an
exogenous signal channel (measured disturbance such as a lead car's
acceleration or a road's desired yaw rate). All objects here are immutable
after construction and evaluation is pure, so they can be shared freely
between threads and scenario sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import FieldEvaluationError, InfeasibleError, OperatingBoxError

Array = np.ndarray


# Relative step of the finite-difference gradient.
FD_STEP = 1e-6


def finite_difference_gradient(fn: Callable[[Array], float],
                               x: Array) -> Array:
    """Central finite differences with a state-scaled step per coordinate.

    The step for coordinate i is ``FD_STEP * (1 + |x_i|)``; a fixed step
    loses digits on the steep gradients that barrier functions develop near
    set boundaries.
    """
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        step = FD_STEP * (1.0 + abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += step
        xm[i] -= step
        grad[i] = (fn(xp) - fn(xm)) / (2.0 * step)
    return grad


def rk4_step(rate: Callable, y, dt: float):
    """One classical fourth-order Runge-Kutta step of dy/dt = rate(y);
    y is a float or an array."""
    k1 = rate(y)
    k2 = rate(y + 0.5 * dt * k1)
    k3 = rate(y + 0.5 * dt * k2)
    k4 = rate(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@dataclass(frozen=True)
class ScalarField:
    """A scalar function of the state with an associated gradient.

    When ``gradient`` is None the gradient is obtained by central finite
    differences with a state-scaled step (see ``finite_difference_gradient``).
    """

    value: Callable[[Array], float]
    gradient: Optional[Callable[[Array], Array]] = None
    name: str = "field"

    @property
    def gradient_mode(self) -> str:
        return "closed-form" if self.gradient is not None else "finite-difference"

    def __call__(self, x: Array) -> float:
        return float(self.value(np.asarray(x, dtype=float)))

    def grad(self, x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        if self.gradient is not None:
            g = np.asarray(self.gradient(x), dtype=float)
        else:
            g = finite_difference_gradient(self.value, x)
        return g


@dataclass(frozen=True)
class ControlAffineSystem:
    """Input-affine dynamics with an explicit exogenous-signal slot.

    ``drift(x, w)`` returns the state rate with zero input. ``input_map``
    is the (state_dim x input_dim) input matrix g: given as that matrix
    when g does not depend on the state (it is then checked and stored
    once, read-only), or as a callable of x returning it. The exogenous
    vector ``w`` carries measured disturbances; the current value is
    supplied per time step by the scenario (no preview, no estimation).
    """

    state_dim: int
    input_dim: int
    drift: Callable[[Array, Array], Array]
    input_map: Union[Array, Callable[[Array], Array]]
    exogenous_dim: int = 0
    operating_box: Optional[tuple[Array, Array]] = None
    name: str = "system"

    def __post_init__(self):
        if self.state_dim <= 0 or self.input_dim <= 0:
            raise ValueError("state_dim and input_dim must be positive")
        if self.exogenous_dim < 0:
            raise ValueError("exogenous_dim must be non-negative")
        if not callable(self.input_map):
            g = self._checked_g(self.input_map).copy()
            g.setflags(write=False)
            object.__setattr__(self, "input_map", g)

    def _checked_g(self, g) -> Array:
        g = np.asarray(g, dtype=float).reshape(self.state_dim, -1)
        if g.shape[1] != self.input_dim:
            raise ValueError(
                f"input_map of '{self.name}' has {g.shape[1]} columns, "
                f"expected input_dim={self.input_dim}"
            )
        return g

    def input_matrix(self, x: Array) -> Array:
        if callable(self.input_map):
            return self._checked_g(self.input_map(np.asarray(x, dtype=float)))
        return self.input_map

    def rate(self, x: Array, u: Array, w: Array) -> Array:
        x = np.asarray(x, dtype=float)
        u = np.atleast_1d(np.asarray(u, dtype=float))
        return np.asarray(self.drift(x, w), dtype=float) + self.input_matrix(x) @ u

    def check_exogenous(self, w) -> Array:
        if w is None:
            return np.zeros(self.exogenous_dim)
        w = np.atleast_1d(np.asarray(w, dtype=float))
        if w.size != self.exogenous_dim:
            raise ValueError(
                f"system '{self.name}' expects {self.exogenous_dim} exogenous "
                f"entries, got {w.size}"
            )
        return w

    def check_box(self, x: Array) -> None:
        if self.operating_box is None:
            return
        lo, hi = self.operating_box
        x = np.asarray(x, dtype=float)
        if np.any(x < lo) or np.any(x > hi):
            raise OperatingBoxError(x, lo, hi, self.name)


def lie_derivatives(sys: ControlAffineSystem, field: ScalarField, x: Array,
                    w=None) -> tuple[float, Array]:
    """Return (L_f field, L_g field) at x with exogenous value w.

    L_f is the derivative of the field along the drift (the exogenous value
    enters here); L_g is the covector multiplying the input.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise FieldEvaluationError(field.name, x, "non-finite state")
    w = sys.check_exogenous(w)
    grad = field.grad(x)
    if not np.all(np.isfinite(grad)):
        raise FieldEvaluationError(field.name, x, "non-finite gradient")
    lf = float(grad @ np.asarray(sys.drift(x, w), dtype=float))
    lg = grad @ sys.input_matrix(x)
    return lf, np.atleast_1d(lg)


@dataclass(frozen=True)
class InputPolytope:
    """Admissible-input set {u : a0 . u <= b0 row-wise}.

    Nonemptiness is checked at construction with a small feasibility solve.
    """

    rows: tuple[tuple[Array, float], ...]

    def __post_init__(self):
        rows = tuple(
            (np.atleast_1d(np.asarray(a, dtype=float)), float(b))
            for a, b in self.rows
        )
        object.__setattr__(self, "rows", rows)
        if not rows:
            return
        m = rows[0][0].size
        from .qp import QpProblem, solve_active_set

        probe = QpProblem(np.eye(m), np.zeros(m), list(rows))
        sol = solve_active_set(probe)
        if sol.status == "infeasible":
            raise InfeasibleError(
                "input polytope is empty", certificate=sol.info.get("certificate")
            )

    @property
    def input_dim(self) -> int:
        return self.rows[0][0].size if self.rows else 0

    @classmethod
    def box(cls, lo: float, hi: float) -> "InputPolytope":
        """Scalar-input interval [lo, hi] as two rows."""
        return cls(((np.array([1.0]), float(hi)), (np.array([-1.0]), float(-lo))))


def constant_field(c: float, dim: int, name: str = "const") -> ScalarField:
    """Scalar field with constant value (zero gradient)."""
    return ScalarField(
        value=lambda x, c=c: c,
        gradient=lambda x, dim=dim: np.zeros(dim),
        name=name,
    )


def linear_field(coeffs: Sequence[float], offset: float = 0.0,
                 name: str = "linear") -> ScalarField:
    """Scalar field c . x + offset."""
    c = np.asarray(coeffs, dtype=float)
    return ScalarField(
        value=lambda x, c=c, b=offset: float(c @ np.asarray(x, dtype=float) + b),
        gradient=lambda x, c=c: c.copy(),
        name=name,
    )

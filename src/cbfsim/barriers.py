"""Barrier functions over superlevel safe sets and numeric certificates.

A safe set is ``C = {x : h(x) >= 0}`` for a continuously differentiable
scalar field h. Two barrier constructions are supported:

* reciprocal barriers blow up at the boundary: ``B = -log(h/(1+h))`` (log
  form) or ``B = 1/h`` (inverse form), admissible inputs keep
  ``Lf B + Lg B u <= gamma / B``;
* zeroing barriers vanish at the boundary: h itself, admissible inputs keep
  ``Lf h + Lg h u >= -alpha(h)`` for an extended class-K alpha.

Both conditions, like the Lyapunov decrease condition of
``controller.EsClf``, are affine in u. Every certificate states its
condition once, as ``row_data(x) -> (c, bound)``: admissible inputs keep
``c . (f(x, w) + g(x) u) <= bound``, with

* ``ReciprocalBarrier``, ``LiftedReciprocalBarrier``: ``c = grad B``,
  ``bound = gamma / B``;
* ``ZeroingBarrier``: ``c = -grad h``, ``bound = alpha(h)``;
* ``EsClf``: ``c = grad V``, ``bound = -c3 V``.

The rows of ``controller.build_qp`` and the ``cbf_admissible`` predicate
are both read from it.

The ``estimate_*`` utilities are sampling-based certificates over compact
regions, not proofs: they bound the class-K rates that would certify
invariance, at sample resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    BoundaryViolationError,
    DescriptorError,
    FieldEvaluationError,
    NumericBlowupError,
    RelativeDegreeError,
    SafetyDomainError,
)
from .systems import Array, ControlAffineSystem, ScalarField, lie_derivatives

# Set-membership tolerances. Interior means h above the floor; reciprocal
# barriers overflow below it, so evaluation there raises a diagnosable
# boundary-violation error instead of returning inf.
INTERIOR_FLOOR = 1e-9
SHELL_TOL = 1e-6

_MONOTONICITY_PROBES = 50


@dataclass(frozen=True)
class ClassKFunction:
    """Strictly increasing function vanishing at zero.

    ``kind`` is one of "linear" (gamma * s), "power" (gamma * s**k, odd
    extension for negative arguments when extended), or "custom". Custom
    maps are opaque, so monotonicity and the zero at the origin are
    validated by probing, not symbolically.
    """

    kind: str = "linear"
    gamma: float = 1.0
    power: int = 1
    func: Optional[Callable[[float], float]] = None
    extended: bool = False
    probe_range: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        if self.kind not in ("linear", "power", "custom"):
            raise ValueError(f"unknown class-K kind '{self.kind}'")
        if self.kind in ("linear", "power") and self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.kind == "power" and self.power < 1:
            raise ValueError("power must be >= 1")
        if self.kind == "custom" and self.func is None:
            raise ValueError("custom class-K requires func")
        lo, hi = self.probe_range
        if self.extended and lo >= 0.0:
            lo = -hi
        probes = np.linspace(lo if self.extended else max(lo, 0.0), hi,
                             _MONOTONICITY_PROBES)
        values = [self._raw(s) for s in probes]
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("class-K candidate is not strictly increasing")
        if abs(self._raw(0.0)) > 1e-12:
            raise ValueError("class-K candidate does not vanish at 0")

    def _raw(self, s: float) -> float:
        if self.kind == "linear":
            return self.gamma * s
        if self.kind == "power":
            if self.extended:
                return self.gamma * math.copysign(abs(s) ** self.power, s)
            return self.gamma * s ** self.power
        return float(self.func(s))

    def __call__(self, s: float) -> float:
        if s < 0 and not self.extended and self.kind != "linear":
            raise ValueError(
                "negative argument to a non-extended class-K function"
            )
        return self._raw(float(s))


# Reciprocal forms as (B(h), dB/dh): log, -log(h / (1 + h)) = log(1 + 1/h)
# (positive on the interior), and inverse, 1/h.
_FORMS = {
    "log": (lambda h: math.log1p(1.0 / h), lambda h: -1.0 / (h * (1.0 + h))),
    "inverse": (lambda h: 1.0 / h, lambda h: -1.0 / (h * h)),
}


def _checked_h(h: ScalarField, x: Array) -> float:
    """h(x), raising BoundaryViolationError at or below the interior floor."""
    hv = h(x)
    if hv <= INTERIOR_FLOOR:
        raise BoundaryViolationError(hv, h.name)
    return hv


@dataclass(frozen=True)
class ReciprocalBarrier:
    """Reciprocal barrier over h with rate bound gamma / B."""

    h: ScalarField
    form: str
    gamma: float

    def __post_init__(self):
        if self.form not in _FORMS:
            raise ValueError(f"unknown reciprocal form '{self.form}'")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")

    def value(self, x: Array) -> float:
        return _FORMS[self.form][0](_checked_h(self.h, x))

    def grad(self, x: Array) -> Array:
        hv = _checked_h(self.h, x)
        return _FORMS[self.form][1](hv) * self.h.grad(x)

    def row_data(self, x: Array) -> tuple[Array, float]:
        """(grad B, gamma / B) evaluating h and its gradient once."""
        hv = _checked_h(self.h, x)
        value_fn, slope_fn = _FORMS[self.form]
        return slope_fn(hv) * self.h.grad(x), self.gamma / value_fn(hv)


@dataclass(frozen=True)
class LiftedReciprocalBarrier:
    """Relative-degree-one reciprocal barrier 1/h + H(lam) built by
    ``lift_relative_degree``; ``lam`` is the (r-1)-fold drift derivative
    of h."""

    h: ScalarField
    lam: ScalarField
    H: Callable[[float], float]
    dH: Callable[[float], float]
    H_max: float
    gamma: float = 1.0

    def value(self, x: Array) -> float:
        return 1.0 / _checked_h(self.h, x) + float(self.H(self.lam(x)))

    def grad(self, x: Array) -> Array:
        hv = _checked_h(self.h, x)
        return (-1.0 / hv ** 2) * self.h.grad(x) + float(
            self.dH(self.lam(x))
        ) * self.lam.grad(x)

    def row_data(self, x: Array) -> tuple[Array, float]:
        """(grad B, gamma / B)."""
        return self.grad(x), self.gamma / self.value(x)


@dataclass(frozen=True)
class ZeroingBarrier:
    """Zeroing barrier: h itself with an extended class-K rate alpha,
    defined on a set D at least as large as C."""

    h: ScalarField
    alpha: ClassKFunction
    domain: Optional["SafeSetDescriptor"] = None

    def row_data(self, x: Array) -> tuple[Array, float]:
        """(-grad h, alpha(h)) evaluating h and its gradient once."""
        return -self.h.grad(x), self.alpha(self.h(x))


@dataclass(frozen=True)
class SafeSetDescriptor:
    """A safe set with samplers for its interior, its boundary shell, and
    (optionally) the surrounding region D \\ C.

    Each sampler is a callable ``(count, rng) -> states array``.
    """

    h: ScalarField
    interior: Callable[[int, np.random.Generator], Array]
    shell: Optional[Callable[[int, np.random.Generator], Array]] = None
    outside: Optional[Callable[[int, np.random.Generator], Array]] = None

    def validate(self, count: int = 100, rng=None) -> None:
        rng = rng or np.random.default_rng(0)
        for x in np.atleast_2d(self.interior(count, rng)):
            hv = self.h(x)
            if hv <= 0:
                raise DescriptorError(
                    f"interior sample {x} has h = {hv:.3g} <= 0"
                )
        if self.shell is not None:
            for x in np.atleast_2d(self.shell(count, rng)):
                hv = self.h(x)
                if abs(hv) > SHELL_TOL:
                    raise DescriptorError(
                        f"shell sample {x} has |h| = {abs(hv):.3g} beyond "
                        f"the shell tolerance {SHELL_TOL:g}"
                    )


def make_barrier(h: ScalarField, kind: str, gamma: float):
    """Barrier over h: "log" or "inverse" gives a reciprocal barrier with
    rate gamma, "zeroing" a zeroing barrier with alpha(h) = gamma h."""
    if kind == "zeroing":
        return ZeroingBarrier(
            h=h, alpha=ClassKFunction("linear", float(gamma), extended=True)
        )
    return ReciprocalBarrier(h=h, form=kind, gamma=float(gamma))


def cbf_admissible(sys: ControlAffineSystem, barrier, x: Array, w, u,
                   rel_tol: float = 1e-8) -> bool:
    """True iff u keeps the barrier's row ``c . (f + g u) <= bound`` at x.

    The comparison carries a relative slack matching the QP primal
    tolerance, so inputs produced by a solver with an active barrier row
    test admissible. Raises SafetyDomainError outside a reciprocal
    barrier's interior.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise FieldEvaluationError(barrier.h.name, x, "non-finite state")
    try:
        c, bound = barrier.row_data(x)
    except BoundaryViolationError as exc:
        raise SafetyDomainError(
            f"state {x} is outside the interior of the safe set "
            f"(h = {exc.h_value:.6g})",
            h_value=exc.h_value,
        ) from exc
    if not np.all(np.isfinite(c)):
        raise FieldEvaluationError(barrier.h.name, x, "non-finite gradient")
    w = sys.check_exogenous(w)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    rate = (float(c @ np.asarray(sys.drift(x, w), dtype=float))
            + float((c @ sys.input_matrix(x)) @ u))
    return rate <= bound + rel_tol * (1.0 + abs(rate) + abs(bound))


def _atan_lift(lam: float) -> float:
    return math.atan(lam) + math.pi / 2.0


def _atan_lift_d(lam: float) -> float:
    return 1.0 / (1.0 + lam * lam)


def _drift_derivative_chain(sys: ControlAffineSystem, h: ScalarField,
                            depth: int, w: Array) -> list[ScalarField]:
    """h, Lf h, Lf^2 h, ... up to Lf^depth h, gradients by finite
    differences beyond whatever closed form h carries."""
    fields = [h]
    for k in range(depth):
        prev = fields[-1]

        def value(x, prev=prev, sys=sys, w=w):
            return float(prev.grad(x) @ np.asarray(sys.drift(x, w), dtype=float))

        fields.append(ScalarField(value=value, name=f"Lf^{k + 1}[{h.name}]"))
    return fields


def lift_relative_degree(h: ScalarField, sys: ControlAffineSystem, r: int,
                         H: Optional[Callable[[float], float]] = None,
                         dH: Optional[Callable[[float], float]] = None,
                         H_max: Optional[float] = None, *,
                         samples: Array, w=None, gamma: float = 1.0,
                         tol: float = 1e-8,
                         input_bounds=None) -> LiftedReciprocalBarrier:
    """Build a relative-degree-one reciprocal barrier 1/h + H(Lf^{r-1} h).

    H must be bounded in [0, H_max] with nowhere-zero derivative (default:
    atan shifted to (0, pi)). The relative-degree preconditions are checked
    numerically at ``samples``: Lg Lf^k h vanishes for k <= r-2 and
    Lg Lf^{r-1} h does not vanish at interior samples.

    Bounded-input systems are refused: with a constrained input set this
    construction carries no invariance guarantee, so rather than guess we
    raise.
    """
    if input_bounds is not None:
        raise RelativeDegreeError(
            "lift_relative_degree requires an unconstrained input set; "
            "no construction is attempted for bounded inputs"
        )
    if r < 2:
        raise ValueError("r must be >= 2")
    if H is None:
        H, dH, H_max = _atan_lift, _atan_lift_d, math.pi
    if dH is None or H_max is None:
        raise ValueError("custom H requires dH and H_max")
    w = sys.check_exogenous(w)
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    chain = _drift_derivative_chain(sys, h, r - 1, w)

    for k in range(r - 1):
        offenders = []
        for x in samples:
            _, lg = lie_derivatives(sys, chain[k], x, w)
            scale = 1.0 + float(np.linalg.norm(chain[k].grad(x)))
            if float(np.max(np.abs(lg))) > tol * scale:
                offenders.append(x)
        if offenders:
            raise RelativeDegreeError(
                f"Lg Lf^{k}[{h.name}] is not numerically zero at "
                f"{len(offenders)} sampled states (relative degree < {r})",
                offending_states=offenders,
            )

    offenders = []
    for x in samples:
        if h(x) <= INTERIOR_FLOOR:
            continue
        _, lg = lie_derivatives(sys, chain[r - 1], x, w)
        if float(np.max(np.abs(lg))) <= tol:
            offenders.append(x)
    if offenders:
        raise RelativeDegreeError(
            f"Lg Lf^{r - 1}[{h.name}] vanishes at {len(offenders)} sampled "
            "interior states; lifted barrier would lose relative degree one",
            offending_states=offenders,
        )

    return LiftedReciprocalBarrier(
        h=h, lam=chain[r - 1], H=H, dH=dH, H_max=float(H_max), gamma=gamma
    )


def estimate_zbf_alpha(sys: ControlAffineSystem, h: ScalarField, sampler,
                       r_grid: Sequence[float], *, count: int = 10_000,
                       w=None, rng=None) -> list[tuple[float, float]]:
    """Sampled lower bound for the class-K rate certifying h as a zeroing
    barrier: alpha_hat(r) = -inf of Lf h over sampled {0 <= h <= r}.

    alpha_hat is made non-decreasing by a running max; alpha_hat(0) <= 0
    certifies the boundary (inward-flow) condition at sample resolution.
    """
    w = sys.check_exogenous(w)
    rng = rng or np.random.default_rng(0)
    states = np.atleast_2d(np.asarray(sampler(count, rng), dtype=float))
    hv = np.array([h(x) for x in states])
    lf = np.array([lie_derivatives(sys, h, x, w)[0] for x in states])
    out = []
    running = -np.inf
    for r in sorted(float(r) for r in r_grid):
        mask = (hv >= 0.0) & (hv <= r)
        if not np.any(mask):
            raise DescriptorError(
                f"no samples in the sublevel slice {{0 <= h <= {r:g}}}; "
                "sampler does not cover it"
            )
        running = max(running, float(-np.min(lf[mask])))
        out.append((r, running))
    return out


def estimate_contractivity_gamma(sys: ControlAffineSystem, h: ScalarField,
                                 k: int, sampler, *, count: int = 10_000,
                                 w=None, rng=None) -> float:
    """Sampled rate gamma_hat = max(0, max -Lf h / h^k) over the region.

    k = 3 certifies 1/h as a reciprocal barrier and k = 1 certifies h as a
    zeroing barrier, at sample resolution.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    w = sys.check_exogenous(w)
    rng = rng or np.random.default_rng(0)
    states = np.atleast_2d(np.asarray(sampler(count, rng), dtype=float))
    worst = 0.0
    for x in states:
        hv = h(x)
        if hv <= 0.0:
            raise DescriptorError(
                f"sample {x} claimed interior has h = {hv:.3g} <= 0"
            )
        lf, _ = lie_derivatives(sys, h, x, w)
        worst = max(worst, -lf / hv ** k)
    return worst


def induced_lyapunov(Z: ZeroingBarrier) -> ScalarField:
    """Lyapunov function induced by a zeroing barrier: 0 on C, -h on D\\C."""
    if Z.domain is None or Z.domain.outside is None:
        raise ValueError(
            "induced_lyapunov requires a domain descriptor strictly larger "
            "than the safe set (an 'outside' sampler)"
        )
    h = Z.h

    def value(x):
        hv = h(x)
        return 0.0 if hv >= 0.0 else -hv

    def gradient(x):
        if h(x) >= 0.0:
            return np.zeros(np.asarray(x, dtype=float).size)
        return -h.grad(x)

    return ScalarField(value=value, gradient=gradient, name=f"V_C({h.name})")


def comparison_ode_solution(alpha, y0: float, t: float, *,
                            rel_tol: float = 1e-10,
                            min_step: float = 1e-14) -> float:
    """Solve dy/dt = alpha(1/y) from y0 > 0 and return y(t).

    Integrated in the reciprocal variable z = 1/y, where dz/dt =
    -alpha(z) z^2, with adaptive step-doubling RK4. The result is finite,
    >= y0, and non-decreasing in t for any class-K alpha.
    """
    if y0 <= 0:
        raise ValueError("y0 must be positive")
    if t < 0:
        raise ValueError("t must be >= 0")
    a = alpha if callable(alpha) else (lambda s: alpha * s)

    def zdot(z):
        return -a(z) * z * z

    z = 1.0 / y0
    s = 0.0
    # z decays monotonically; cap the first step so the relative change per
    # step stays small (the z ODE is stiff for large z).
    rate = abs(zdot(z))
    step = min(t if t > 0 else 1.0, 0.1, 0.01 * z / rate if rate > 0 else 0.1)
    while s < t:
        step = min(step, t - s)
        if step < min_step:
            raise NumericBlowupError(
                "comparison ODE step size underflow", last_valid_t=s
            )
        full = _rk4_scalar(zdot, z, step)
        half = _rk4_scalar(zdot, _rk4_scalar(zdot, z, step / 2), step / 2)
        usable = (
            math.isfinite(full) and math.isfinite(half)
            and full > 0.0 and half > 0.0
        )
        err = abs(full - half) if usable else math.inf
        tol = rel_tol * (abs(half) + 1e-12) if usable else 0.0
        if usable and (err <= tol or step <= min_step * 2):
            z = half
            s += step
            if err < 0.25 * tol:
                step *= 2.0
        else:
            # Overshoot past zero or non-finite stages count as rejections;
            # z never crosses zero for a class-K alpha.
            step *= 0.5
    return 1.0 / z


def _rk4_scalar(fn, y: float, dt: float) -> float:
    k1 = fn(y)
    k2 = fn(y + 0.5 * dt * k1)
    k3 = fn(y + 0.5 * dt * k2)
    k4 = fn(y + dt * k3)
    return y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)

"""Fixed-step closed-loop simulation with per-step QP solves and
invariance monitoring.

One run is strictly sequential and fully deterministic: identical scenarios
produce bit-identical trajectories. Distinct scenarios may run in parallel;
trajectory records are plain arrays and transferable between threads.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .controller import ControllerSpec, evaluate
from .errors import NumericBlowupError, SafetyDomainError
from .systems import Array, ControlAffineSystem, ScalarField


@dataclass(frozen=True)
class PiecewiseConstantSignal:
    """Exogenous signal held constant between declared segment starts."""

    segments: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.segments:
            raise ValueError("at least one segment required")
        starts = [t for t, _ in self.segments]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("segment start times must strictly increase")
        object.__setattr__(self, "_starts", tuple(starts))
        object.__setattr__(self, "_values", tuple(v for _, v in self.segments))

    def __call__(self, t: float) -> float:
        idx = bisect.bisect_right(self._starts, t) - 1
        return self._values[max(idx, 0)]

    def values(self) -> tuple[float, ...]:
        return self._values


@dataclass(frozen=True)
class Monitor:
    """Named per-step check: flag when value(x, u, w) < threshold.

    ``u`` is the input applied over the step (None on the final sample for
    input-dependent monitors, which then record NaN). Use
    ``threshold=-inf`` for record-only signals.
    """

    name: str
    fn: Callable[[Array, Optional[Array], Array], float]
    threshold: float = -np.inf

    @classmethod
    def from_field(cls, f: ScalarField, threshold: float = -np.inf,
                   name: Optional[str] = None) -> "Monitor":
        return cls(name=name or f.name, fn=lambda x, u, w: f(x),
                   threshold=threshold)


def input_monitor(name: str, fn: Callable[[Array, Array, Array], float],
                  threshold: float = -np.inf) -> Monitor:
    """Monitor whose value depends on the applied input."""

    def wrapped(x, u, w):
        if u is None:
            return float("nan")
        return fn(x, u, w)

    return Monitor(name=name, fn=wrapped, threshold=threshold)


@dataclass(frozen=True)
class Scenario:
    """A complete closed-loop experiment description."""

    scenario_id: str
    sys: ControlAffineSystem
    controller: ControllerSpec
    x0: Array
    horizon: float
    dt: float
    exogenous: PiecewiseConstantSignal
    monitors: tuple[Monitor, ...] = ()
    exogenous_bounds: Optional[tuple[float, float]] = None
    dt_max: float = 0.05
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.horizon < 0:
            raise ValueError("horizon must be non-negative")
        if self.dt > self.dt_max:
            raise ValueError(f"dt {self.dt} exceeds dt_max {self.dt_max}")
        if self.exogenous_bounds is not None:
            lo, hi = self.exogenous_bounds
            for v in self.exogenous.values():
                if v < lo or v > hi:
                    raise ValueError(
                        f"exogenous value {v} outside declared bounds "
                        f"[{lo}, {hi}]"
                    )

    def steps(self) -> int:
        return int(round(self.horizon / self.dt))


@dataclass
class ViolationFlag:
    step: int
    time: float
    kind: str  # "monitor" | "qp" | "fatal"
    name: str
    value: float
    threshold: Optional[float] = None

    def describe(self) -> str:
        extra = "" if self.threshold is None else f" < {self.threshold:.3g}"
        return (f"[{self.kind}] step {self.step} (t={self.time:.4f}s) "
                f"{self.name}: {self.value:.6g}{extra}")


@dataclass
class Trajectory:
    """Recorded closed-loop run.

    All series share length N+1; the input, relaxation and QP columns are
    NaN/empty on the final sample (no step is taken from it).
    """

    t: Array
    x: Array
    u: Array
    delta: Array
    monitors: dict
    qp_status: list
    active_sets: list
    violations: list
    aborted: bool = False
    abort_reason: str = ""
    meta: dict = field(default_factory=dict)

    @property
    def samples(self) -> int:
        return self.t.size

    def monitor_min(self, name: str) -> float:
        vals = self.monitors[name]
        finite = vals[np.isfinite(vals)]
        return float(np.min(finite)) if finite.size else float("nan")

    def first_violation(self, name: str) -> Optional[float]:
        for v in self.violations:
            if v.kind == "monitor" and v.name == name:
                return v.time
        return None

    def max_abs_delta(self) -> float:
        finite = self.delta[np.isfinite(self.delta)]
        return float(np.max(np.abs(finite))) if finite.size else 0.0

    def status_histogram(self) -> dict:
        hist: dict = {}
        for s in self.qp_status:
            if s:
                hist[s] = hist.get(s, 0) + 1
        return hist


def integrate_step(sys: ControlAffineSystem, x: Array, u: Array, w: Array,
                   dt: float, dt_max: float = 0.05) -> Array:
    """One classical fourth-order Runge-Kutta step with u, w held constant."""
    if dt > dt_max:
        raise ValueError(f"dt {dt} exceeds dt_max {dt_max}")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if sys.constant_input_map:
        gu = sys.input_matrix(x) @ u
        drift = sys.drift

        def rate(xx):
            return drift(xx, w) + gu
    else:
        def rate(xx):
            return sys.rate(xx, u, w)

    k1 = rate(x)
    k2 = rate(x + 0.5 * dt * k1)
    k3 = rate(x + 0.5 * dt * k2)
    k4 = rate(x + dt * k3)
    x_next = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(x_next)):
        raise NumericBlowupError(
            f"state became non-finite integrating from x={x} with u={u}, "
            f"w={w}, dt={dt}"
        )
    return x_next


def run(scenario: Scenario) -> Trajectory:
    """Closed-loop run: solve the QP at each step, hold the input over the
    step, integrate, record, and monitor.

    A monitor crossing its threshold is flagged but does not stop the run;
    leaving a reciprocal barrier's domain aborts with a violation report.
    An infeasible QP applies the controller's declared fallback and flags
    the step.
    """
    sys = scenario.sys
    ctrl = scenario.controller
    n_steps = scenario.steps()
    dt = scenario.dt
    n = sys.state_dim
    m = sys.input_dim

    t = np.arange(n_steps + 1) * dt
    xs = np.full((n_steps + 1, n), np.nan)
    us = np.full((n_steps + 1, m), np.nan)
    deltas = np.full(n_steps + 1, np.nan)
    statuses = [""] * (n_steps + 1)
    actives: list = [()] * (n_steps + 1)
    mon_values = {mon.name: np.full(n_steps + 1, np.nan)
                  for mon in scenario.monitors}
    monitor_slots = [(mon, mon_values[mon.name]) for mon in scenario.monitors]
    violations: list[ViolationFlag] = []

    def check_monitors(k: int, x: Array, u: Optional[Array], w: Array):
        for mon, slot in monitor_slots:
            val = float(mon.fn(x, u, w))
            slot[k] = val
            if val < mon.threshold:  # NaN compares false: never flags
                violations.append(ViolationFlag(
                    step=k, time=t[k], kind="monitor", name=mon.name,
                    value=val, threshold=mon.threshold,
                ))

    x = scenario.x0.copy()
    xs[0] = x
    aborted = False
    abort_reason = ""
    exogenous = scenario.exogenous
    check_box = sys.check_box
    has_box = sys.operating_box is not None
    exo_dim = sys.exogenous_dim
    w_buf = np.zeros(max(exo_dim, 1))

    for k in range(n_steps):
        if exo_dim:
            w_buf[0] = exogenous(k * dt)
            w = w_buf
        else:
            w = w_buf[:0]
        try:
            if has_box:
                check_box(x)
            step = evaluate(ctrl, x, w)
        except SafetyDomainError as exc:
            violations.append(ViolationFlag(
                step=k, time=t[k], kind="fatal", name="safety-domain",
                value=float(exc.h_value if exc.h_value is not None else np.nan),
            ))
            aborted = True
            abort_reason = str(exc)
            break
        us[k] = step.u
        deltas[k] = step.delta
        statuses[k] = step.status
        actives[k] = step.active_set
        if step.fallback_used:
            violations.append(ViolationFlag(
                step=k, time=t[k], kind="qp", name="infeasible-fallback",
                value=float(step.u[0]),
            ))
        check_monitors(k, x, step.u, w)
        try:
            x = integrate_step(sys, x, step.u, w, dt, scenario.dt_max)
        except NumericBlowupError as exc:
            violations.append(ViolationFlag(
                step=k, time=t[k], kind="fatal", name="numeric-blowup",
                value=float("nan"),
            ))
            aborted = True
            abort_reason = str(exc)
            break
        xs[k + 1] = x

    if not aborted:
        w = (np.array([exogenous(t[n_steps])]) if exo_dim else np.zeros(0))
        check_monitors(n_steps, x, None, w)
        keep = n_steps + 1
    else:
        keep = int(np.max(np.nonzero(np.all(np.isfinite(xs), axis=1))[0])) + 1

    return Trajectory(
        t=t[:keep],
        x=xs[:keep],
        u=us[:keep],
        delta=deltas[:keep],
        monitors={k: v[:keep] for k, v in mon_values.items()},
        qp_status=statuses[:keep],
        active_sets=actives[:keep],
        violations=violations,
        aborted=aborted,
        abort_reason=abort_reason,
        meta=dict(scenario.meta),
    )


@dataclass
class RefineReport:
    factor: int
    max_state_deviation: float
    verdicts_coarse: dict
    verdicts_fine: dict
    verdicts_unchanged: bool


def monitor_verdicts(traj: Trajectory, monitors: Sequence[Monitor]) -> dict:
    out = {}
    for mon in monitors:
        vals = traj.monitors[mon.name]
        finite = vals[np.isfinite(vals)]
        out[mon.name] = bool(finite.size == 0 or np.min(finite) >= mon.threshold)
    return out


def refine_check(scenario: Scenario, coarse: Trajectory,
                 factor: int) -> RefineReport:
    """Re-run at dt/factor and report the state deviation from ``coarse``
    (the scenario's own run) on the shared time grid plus whether every
    monitor verdict is unchanged.

    Used to attribute marginal violations to time discretization: a
    verdict that flips under refinement is a discretization artifact.
    """
    if factor < 1 or int(factor) != factor:
        raise ValueError("factor must be a positive integer")
    factor = int(factor)
    fine = run(replace(scenario, dt=scenario.dt / factor, meta=dict(scenario.meta)))
    shared = min(coarse.x.shape[0], (fine.x.shape[0] - 1) // factor + 1)
    dev = float(np.max(np.abs(
        coarse.x[:shared] - fine.x[: (shared - 1) * factor + 1: factor]
    ))) if shared else float("nan")
    vc = monitor_verdicts(coarse, scenario.monitors)
    vf = monitor_verdicts(fine, scenario.monitors)
    return RefineReport(
        factor=factor,
        max_state_deviation=dev,
        verdicts_coarse=vc,
        verdicts_fine=vf,
        verdicts_unchanged=(vc == vf),
    )

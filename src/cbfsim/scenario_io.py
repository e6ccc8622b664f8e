"""Scenario documents, shipped fixtures, CSV trajectories and run reports.

Scenario files are sectioned key-value text (human-diffable regression
fixtures). Unknown sections or keys are rejected with line numbers;
missing parameters fall back to the package defaults with a logged notice.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import acc as acc_mod
from . import lk as lk_mod
from .barriers import comparison_ode_solution, estimate_contractivity_gamma, estimate_zbf_alpha
from .errors import ScenarioError
from .simulate import Monitor, PiecewiseConstantSignal, Scenario, Trajectory, input_monitor
from .systems import ControlAffineSystem, ScalarField

FIXTURE_ENV_VAR = "CBFSIM_FIXTURES"

RUN_SECTIONS = ("system", "params", "initial", "exogenous", "controller",
                "sim", "monitors")
VERIFY_SECTIONS = ("verify", "system", "check")

_ACC_STATE = ("v_f", "v_l", "D")
_LK_STATE = ("y", "nu", "psi", "r")

_ACC_PARAM_KEYS = tuple(f.name for f in dataclasses.fields(acc_mod.AccParams))
_LK_PARAM_KEYS = tuple(
    f.name for f in dataclasses.fields(lk_mod.LkParams) if f.name != "lqr_preview"
) + ("lqr_preview",)

_CONTROLLER_KEYS = {
    "acc": ("level", "variant", "form"),
    "lk": ("form",),
}
_SIM_KEYS = ("dt", "horizon", "dt_max", "state_box_lo", "state_box_hi")

_ACC_MONITORS = ("headway", "force_barrier", "clf")
_LK_MONITORS = ("barrier", "lane", "lat_accel", "yaw_angle", "yaw_rate")


@dataclass
class ScenarioDoc:
    """Parsed scenario file: section -> list of (line, key, value)."""

    path: str
    sections: dict

    def get(self, section: str, key: str, default=None):
        for _, k, v in self.sections.get(section, []):
            if k == key:
                return v
        return default

    def items(self, section: str):
        return list(self.sections.get(section, []))

    def line(self, section: str, key: str):
        """Line of ``key`` in ``section`` (0 for an override), or None."""
        for lineno, k, _ in self.sections.get(section, []):
            if k == key:
                return lineno
        return None

    def kind(self) -> str:
        return "verify" if "verify" in self.sections else "run"


def parse_scenario_text(text: str, path: str = "<string>") -> ScenarioDoc:
    sections: dict = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current in sections:
                raise ScenarioError(f"duplicate section [{current}]", path, lineno)
            sections[current] = []
            continue
        if current is None:
            raise ScenarioError("key outside any section", path, lineno)
        if "=" not in line:
            raise ScenarioError(f"expected 'key = value', got {line!r}", path, lineno)
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ScenarioError("empty key", path, lineno)
        if key != "segment" and any(k == key for _, k, _ in sections[current]):
            raise ScenarioError(f"duplicate key '{key}' in [{current}]", path, lineno)
        sections[current].append((lineno, key, value))
    doc = ScenarioDoc(path=path, sections=sections)
    _validate_doc(doc)
    return doc


def parse_scenario_file(path) -> ScenarioDoc:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}", str(path))
    return parse_scenario_text(text, str(p))


def _validate_doc(doc: ScenarioDoc) -> None:
    allowed = VERIFY_SECTIONS if doc.kind() == "verify" else RUN_SECTIONS
    for section, entries in doc.sections.items():
        if section not in allowed:
            lineno = entries[0][0] if entries else None
            raise ScenarioError(f"unknown section [{section}]", doc.path, lineno)
    if doc.kind() == "verify":
        return
    if "system" not in doc.sections:
        raise ScenarioError("missing [system] section", doc.path)
    system_id = doc.get("system", "id")
    if system_id not in ("acc", "lk"):
        raise ScenarioError(
            f"unknown or missing system id {system_id!r} (expected acc or lk)",
            doc.path,
        )
    schemas = {
        "system": ("id",),
        "params": _ACC_PARAM_KEYS if system_id == "acc" else _LK_PARAM_KEYS,
        "initial": _ACC_STATE if system_id == "acc" else _LK_STATE,
        "exogenous": ("segment",),
        "controller": _CONTROLLER_KEYS[system_id],
        "sim": _SIM_KEYS,
        "monitors": _ACC_MONITORS if system_id == "acc" else _LK_MONITORS,
    }
    for section, entries in doc.sections.items():
        for lineno, key, _ in entries:
            if key not in schemas[section]:
                raise ScenarioError(
                    f"unknown key '{key}' in [{section}]", doc.path, lineno
                )


def _parse_float(value: str, doc: ScenarioDoc, where: str,
                 lineno: Optional[int] = None) -> float:
    try:
        return float(value)
    except ValueError:
        raise ScenarioError(f"{where}: expected a number, got {value!r}",
                            doc.path, lineno or None)


def _get_floats(doc: ScenarioDoc, section: str, key: str, default: str) -> list:
    """The numbers of a whitespace-separated ``key`` in ``section``."""
    return [_parse_float(v, doc, f"[{section}] {key}", doc.line(section, key))
            for v in doc.get(section, key, default).split()]


def _get_float(doc: ScenarioDoc, section: str, key: str, default: str) -> float:
    return _parse_float(doc.get(section, key, default), doc, f"[{section}] {key}",
                        doc.line(section, key))


def apply_overrides(doc: ScenarioDoc, overrides: dict) -> None:
    """Apply --set key=value pairs. Bare keys resolve to [params], then
    [initial], then [sim]; dotted keys name the section explicitly."""
    for key, value in overrides.items():
        if "." in key:
            section, name = key.split(".", 1)
        else:
            section = None
            for cand in ("params", "initial", "sim", "controller"):
                try:
                    _validate_key(doc, cand, key)
                except ScenarioError:
                    continue
                section = cand
                name = key
                break
            if section is None:
                raise ScenarioError(f"override key '{key}' not recognized", doc.path)
        _validate_key(doc, section, name)
        entries = doc.sections.setdefault(section, [])
        entries[:] = [(ln, k, v) for ln, k, v in entries if k != name]
        entries.append((0, name, value))


def _validate_key(doc: ScenarioDoc, section: str, key: str) -> None:
    probe = ScenarioDoc(path=doc.path, sections={
        **{s: list(e) for s, e in doc.sections.items()},
        section: list(doc.sections.get(section, [])) + [(0, key, "0")],
    })
    _validate_doc(probe)


def _build_params(doc: ScenarioDoc, cls, keys, notices: list):
    given = {}
    for lineno, key, value in doc.items("params"):
        if key == "lqr_preview":
            given[key] = tuple(
                _parse_float(v, doc, "lqr_preview", lineno) for v in value.split()
            )
        else:
            given[key] = _parse_float(value, doc, f"[params] {key}", lineno)
    missing = [k for k in keys if k not in given]
    if missing:
        notices.append(
            "notice: [params] using defaults for: " + ", ".join(missing)
        )
    try:
        return cls(**given)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid parameters: {exc}", doc.path)


def _build_exogenous(doc: ScenarioDoc, notices: list) -> PiecewiseConstantSignal:
    segs = []
    for lineno, _, value in doc.items("exogenous"):
        parts = value.split()
        if len(parts) != 2:
            raise ScenarioError(
                f"segment must be 't_start value', got {value!r}", doc.path, lineno
            )
        segs.append(tuple(_parse_float(v, doc, "[exogenous] segment", lineno)
                          for v in parts))
    if not segs:
        notices.append("notice: [exogenous] absent; holding the signal at 0")
        segs = [(0.0, 0.0)]
    try:
        return PiecewiseConstantSignal(tuple(segs))
    except ValueError as exc:
        raise ScenarioError(f"bad exogenous profile: {exc}", doc.path)


def _auto_threshold(f: ScalarField, x0) -> float:
    return -1e-6 * (1.0 + abs(f(x0)))


def _acc_monitors(doc: ScenarioDoc, params, variant: str, x0) -> tuple:
    monitors = []
    entries = doc.items("monitors")
    if not entries:
        entries = [(0, "headway", "auto")]
    for lineno, name, value in entries:
        if name == "headway":
            f = acc_mod.headway_field(params)
            thr = _monitor_threshold(value, lambda: _auto_threshold(f, x0), doc, lineno)
            monitors.append(Monitor.from_field(f, thr, name="headway"))
        elif name == "force_barrier":
            f = acc_mod.force_h_field(params, variant)
            thr = _monitor_threshold(value, lambda: _auto_threshold(f, x0), doc, lineno)
            monitors.append(Monitor.from_field(f, thr, name="force_barrier"))
        elif name == "clf":
            f = acc_mod.acc_clf(params).V
            thr = _monitor_threshold(value, lambda: -math.inf, doc, lineno)
            monitors.append(Monitor.from_field(f, thr, name="clf"))
    return tuple(monitors)


def _lk_monitors(doc: ScenarioDoc, params, x0) -> tuple:
    monitors = []
    entries = doc.items("monitors")
    if not entries:
        entries = [(0, "barrier", "auto"), (0, "lane", "auto"),
                   (0, "lat_accel", "auto")]
    h = lk_mod.lk_h_field(params)
    for lineno, name, value in entries:
        if name == "barrier":
            thr = _monitor_threshold(value, lambda: _auto_threshold(h, x0), doc, lineno)
            monitors.append(Monitor.from_field(h, thr, name="barrier"))
        elif name == "lane":
            fn = lambda x, u, w: params.y_max - abs(float(x[0]))
            thr = _monitor_threshold(value, lambda: -1e-3, doc, lineno)
            monitors.append(Monitor(name="lane", fn=fn, threshold=thr))
        elif name == "lat_accel":
            def accel_margin(x, u, w, params=params):
                return params.a_max - abs(
                    lk_mod.lateral_accel(params, x, float(u[0]), float(w[0]))
                )
            thr = _monitor_threshold(value, lambda: -1e-6, doc, lineno)
            monitors.append(input_monitor("lat_accel", accel_margin, thr))
        elif name in ("yaw_angle", "yaw_rate"):
            cap = _parse_float(value, doc, f"[monitors] {name}", lineno)
            idx = 2 if name == "yaw_angle" else 3
            fn = lambda x, u, w, idx=idx, cap=cap: cap - abs(float(x[idx]))
            monitors.append(Monitor(name=name, fn=fn, threshold=0.0))
    return tuple(monitors)


def _monitor_threshold(value: str, auto: Callable[[], float], doc: ScenarioDoc,
                       lineno: int) -> float:
    if value == "auto":
        return auto()
    if value == "none":
        return -math.inf
    return _parse_float(value, doc, "[monitors] threshold", lineno)


@dataclass
class RunJob:
    scenario: Scenario
    state_names: tuple
    notices: list


def build_run_job(doc: ScenarioDoc, overrides: Optional[dict] = None,
                  dt: Optional[float] = None,
                  horizon: Optional[float] = None) -> RunJob:
    if overrides:
        apply_overrides(doc, dict(overrides))
    notices: list[str] = []
    system_id = doc.get("system", "id")
    exo = _build_exogenous(doc, notices)
    dt_val = dt if dt is not None else _get_float(doc, "sim", "dt", "0.001")
    horizon_val = (horizon if horizon is not None
                   else _get_float(doc, "sim", "horizon", "10.0"))
    dt_max = _get_float(doc, "sim", "dt_max", "0.05")
    scenario_id = Path(doc.path).stem if doc.path != "<string>" else "scenario"

    def _state_box(default, dim):
        lo_txt = doc.get("sim", "state_box_lo")
        hi_txt = doc.get("sim", "state_box_hi")
        if lo_txt is None and hi_txt is None:
            return default
        if lo_txt is None or hi_txt is None:
            raise ScenarioError(
                "state_box_lo and state_box_hi must be given together", doc.path)
        lo = np.array(_get_floats(doc, "sim", "state_box_lo", lo_txt))
        hi = np.array(_get_floats(doc, "sim", "state_box_hi", hi_txt))
        if lo.size != dim or hi.size != dim:
            raise ScenarioError(f"state box must have {dim} entries", doc.path)
        return (lo, hi)

    if system_id == "acc":
        params = _build_params(doc, acc_mod.AccParams, _ACC_PARAM_KEYS, notices)
        x0 = np.array([
            _get_float(doc, "initial", k, d)
            for k, d in zip(_ACC_STATE, ("18.0", "10.0", "150.0"))
        ])
        level = doc.get("controller", "level", "basic")
        variant = doc.get("controller", "variant", "optimal")
        form = doc.get("controller", "form", "log")
        box = _state_box(acc_mod.DEFAULT_ACC_BOX, 3)
        try:
            spec = acc_mod.acc_qp_spec(params, level=level, variant=variant,
                                       kind=form, operating_box=box)
        except ValueError as exc:
            raise ScenarioError(str(exc), doc.path)
        monitors = _acc_monitors(doc, params, variant, x0)
        bounds = params.lead_accel_bounds()
        state_names = _ACC_STATE
    else:
        params = _build_params(doc, lk_mod.LkParams, _LK_PARAM_KEYS, notices)
        x0 = np.array([_get_float(doc, "initial", k, "0.0") for k in _LK_STATE])
        form = doc.get("controller", "form", "log")
        box = _state_box(lk_mod.DEFAULT_LK_BOX, 4)
        try:
            spec = lk_mod.lk_qp_spec(params, kind=form, operating_box=box)
        except ValueError as exc:
            raise ScenarioError(str(exc), doc.path)
        monitors = _lk_monitors(doc, params, x0)
        bounds = (-0.2, 0.2)  # desired yaw rate for any sane curvature
        state_names = _LK_STATE

    try:
        scenario = Scenario(
            scenario_id=scenario_id,
            sys=spec.sys,
            controller=spec,
            x0=x0,
            horizon=horizon_val,
            dt=dt_val,
            exogenous=exo,
            monitors=monitors,
            exogenous_bounds=bounds,
            dt_max=dt_max,
            meta={"system": system_id, "controller": spec.name,
                  "path": doc.path},
        )
    except ValueError as exc:
        raise ScenarioError(str(exc), doc.path)
    return RunJob(scenario=scenario, state_names=state_names, notices=notices)


# ---------------------------------------------------------------------------
# verify jobs


def _linear_decay_system(rate: float) -> tuple[ControlAffineSystem, ScalarField]:
    sys = ControlAffineSystem(
        state_dim=1,
        input_dim=1,
        drift=lambda x, w: np.array([-rate * x[0]]),
        input_map=lambda x: np.array([[1.0]]),
        name="linear_decay",
    )
    h = ScalarField(value=lambda x: x[0],
                    gradient=lambda x: np.array([1.0]), name="x")
    return sys, h


def _planar_cubic_system() -> tuple[ControlAffineSystem, ScalarField]:
    # Planar flow with a cubic term whose safe set is the region above a
    # parabola: invariant, but no class-K rate certificate exists because
    # the set is unbounded.
    sys = ControlAffineSystem(
        state_dim=2,
        input_dim=1,
        drift=lambda x, w: np.array([-0.5 * x[1], -x[0] ** 3 + 1.0]),
        input_map=lambda x: np.array([[0.0], [1.0]]),
        name="planar_cubic",
    )
    h = ScalarField(
        value=lambda x: x[1] - x[0] ** 2,
        gradient=lambda x: np.array([-2.0 * x[0], 1.0]),
        name="above_parabola",
    )
    return sys, h


@dataclass
class VerifyJob:
    kind: str
    runner: Callable[[], list]
    header: tuple


def build_verify_job(doc: ScenarioDoc) -> VerifyJob:
    kind = doc.get("verify", "kind")
    if kind == "contractivity":
        rate = _get_float(doc, "system", "rate", "1.0")
        lo = _get_float(doc, "check", "lo", "0.01")
        hi = _get_float(doc, "check", "hi", "1.0")
        k = int(_get_float(doc, "check", "power", "1"))
        count = int(_get_float(doc, "check", "count", "2000"))
        sys, h = _linear_decay_system(rate)

        def sampler(n, rng):
            return np.linspace(lo, hi, count).reshape(-1, 1)

        def runner():
            gam = estimate_contractivity_gamma(sys, h, k, sampler, count=count)
            return [("linear_decay", f"[{lo:g},{hi:g}]", k, f"{gam:.6g}")]

        return VerifyJob(kind=kind, runner=runner,
                         header=("system", "region", "power", "gamma_hat"))

    if kind == "zbf_alpha":
        radii = _get_floats(doc, "check", "box_radii", "10 100 1000")
        r_values = _get_floats(doc, "check", "r_values", "0.5 1 2")
        grid = int(_get_float(doc, "check", "grid", "201"))
        sys, h = _planar_cubic_system()

        def runner():
            rows = []
            r_max = max(r_values)
            for radius in radii:
                def sampler(n, rng, radius=radius):
                    x1 = np.linspace(-radius, radius, grid)
                    hh = np.linspace(0.0, r_max, max(grid // 10, 5))
                    X1, HH = np.meshgrid(x1, hh)
                    return np.column_stack([
                        X1.ravel(), (X1 ** 2 + HH).ravel()
                    ])

                table = estimate_zbf_alpha(sys, h, sampler, r_values,
                                           count=grid)
                for r, alpha_hat in table:
                    rows.append((f"{radius:g}", f"{r:g}", f"{alpha_hat:.6g}",
                                 f"{-alpha_hat:.6g}"))
                if table[-1][1] > 1e3:
                    rows.append((f"{radius:g}", "-", "diverging",
                                 "no class-K rate exists at this radius"))
            return rows

        return VerifyJob(kind=kind, runner=runner,
                         header=("box_radius", "r", "alpha_hat", "inf_dh"))

    if kind == "comparison_ode":
        y0s = _get_floats(doc, "check", "y0", "0.1 1 10")
        times = _get_floats(doc, "check", "times", "0 1 5 10")
        alpha_kind = doc.get("check", "alpha", "linear")
        alphas = {
            "linear": lambda s: s,
            "quadratic": lambda s: s * s,
            "atan": lambda s: math.atan(s),
        }
        if alpha_kind not in alphas:
            raise ScenarioError(f"unknown alpha '{alpha_kind}'", doc.path)
        a = alphas[alpha_kind]

        def runner():
            rows = []
            for y0 in y0s:
                for t in times:
                    y = comparison_ode_solution(a, y0, t)
                    ref = (math.sqrt(2 * t + y0 * y0)
                           if alpha_kind == "linear" else float("nan"))
                    rows.append((f"{y0:g}", f"{t:g}", f"{y:.9g}",
                                 f"{ref:.9g}" if math.isfinite(ref) else "-"))
            return rows

        return VerifyJob(kind=kind, runner=runner,
                         header=("y0", "t", "y(t)", "closed_form"))

    raise ScenarioError(f"unknown verify kind {kind!r}", doc.path)


# ---------------------------------------------------------------------------
# CSV and reports


def _fmt(v: float) -> str:
    if isinstance(v, float) and math.isnan(v):
        return ""
    return repr(float(v))


def write_trajectory_csv(traj: Trajectory, path, state_names) -> None:
    monitor_names = list(traj.monitors.keys())
    m = traj.u.shape[1]
    u_names = ["u"] if m == 1 else [f"u{i}" for i in range(m)]
    header = (["t"] + list(state_names) + u_names + ["delta"]
              + monitor_names + ["qp_status", "active_set"])
    lines = [",".join(header)]
    for i in range(traj.samples):
        cells = [_fmt(traj.t[i])]
        cells += [_fmt(v) for v in traj.x[i]]
        cells += [_fmt(v) for v in traj.u[i]]
        cells.append(_fmt(traj.delta[i]))
        cells += [_fmt(traj.monitors[name][i]) for name in monitor_names]
        cells.append(traj.qp_status[i])
        cells.append(";".join(str(j) for j in traj.active_sets[i]))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


def read_trajectory_csv(path) -> dict:
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ScenarioError("empty CSV", str(path))
    header = lines[0].split(",")
    numeric = {name: [] for name in header if name not in ("qp_status", "active_set")}
    text = {name: [] for name in ("qp_status", "active_set") if name in header}
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ScenarioError(f"expected {len(header)} cells, got {len(cells)}",
                                str(path), lineno)
        try:
            for name, cell in zip(header, cells):
                if name in text:
                    text[name].append(cell)
                else:
                    numeric[name].append(float(cell) if cell else float("nan"))
        except ValueError:
            raise ScenarioError(f"column {name}: expected a number, got {cell!r}",
                                str(path), lineno)
    out = {name: np.array(vals) for name, vals in numeric.items()}
    out.update(text)
    out["_columns"] = header
    return out


@dataclass
class RunReport:
    scenario_id: str
    verdicts: dict
    max_abs_delta: float
    qp_status: dict
    runtime_s: float
    steps: int
    aborted: bool
    abort_reason: str
    violations: list

    @property
    def passed(self) -> bool:
        # pass iff the trajectory carries no violation flag of any kind
        # (monitor crossings, flagged infeasible-fallback steps, aborts).
        return (not self.aborted) and not self.violations

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 2

    def to_text(self) -> str:
        lines = [f"scenario: {self.scenario_id}",
                 f"steps: {self.steps}",
                 f"runtime_s: {self.runtime_s:.3f}",
                 f"max_abs_delta: {self.max_abs_delta:.6g}",
                 "qp_status: " + ", ".join(
                     f"{k}={v}" for k, v in sorted(self.qp_status.items())
                 )]
        for name, v in self.verdicts.items():
            first = "-" if v["first_violation"] is None else f"{v['first_violation']:.4f}s"
            lines.append(
                f"monitor {name}: min={v['min']:.6g} threshold={v['threshold']:.6g} "
                f"first_violation={first} -> {'pass' if v['pass'] else 'FAIL'}"
            )
        if self.aborted:
            lines.append(f"ABORTED: {self.abort_reason}")
        lines.append(f"verdict: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "scenario": self.scenario_id,
            "verdicts": self.verdicts,
            "max_abs_delta": self.max_abs_delta,
            "qp_status": self.qp_status,
            "runtime_s": self.runtime_s,
            "steps": self.steps,
            "aborted": self.aborted,
            "abort_reason": self.abort_reason,
            "violations": self.violations,
            "pass": self.passed,
            "exit_code": self.exit_code,
        }
        return json.dumps(payload, indent=2, allow_nan=True) + "\n"


def build_report(traj: Trajectory, scenario: Scenario, runtime_s: float) -> RunReport:
    verdicts = {}
    for mon in scenario.monitors:
        first = traj.first_violation(mon.name)
        verdicts[mon.name] = {
            "min": traj.monitor_min(mon.name),
            "threshold": mon.threshold,
            "first_violation": first,
            "pass": first is None,
        }
    return RunReport(
        scenario_id=scenario.scenario_id,
        verdicts=verdicts,
        max_abs_delta=traj.max_abs_delta(),
        qp_status=traj.status_histogram(),
        runtime_s=runtime_s,
        steps=scenario.steps(),
        aborted=traj.aborted,
        abort_reason=traj.abort_reason,
        violations=[v.describe() for v in traj.violations],
    )


def fixtures_dir() -> Path:
    override = os.environ.get(FIXTURE_ENV_VAR)
    if override:
        return Path(override)
    return Path(__file__).parent / "fixtures"


def list_fixtures() -> list:
    base = fixtures_dir()
    if not base.is_dir():
        return []
    return sorted(p.stem for p in base.glob("*.scenario"))


def resolve_scenario_path(name_or_path) -> Path:
    p = Path(name_or_path)
    if p.exists():
        return p
    candidate = fixtures_dir() / f"{name_or_path}.scenario"
    if candidate.exists():
        return candidate
    raise ScenarioError(
        f"scenario '{name_or_path}' not found (no such file, and no fixture "
        f"of that name in {fixtures_dir()})"
    )

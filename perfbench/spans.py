"""Span tracing from outside the program.

``Tracer.install`` replaces public functions of cbfsim where their callers
look them up (module attributes bound at import time, and methods on their
classes) with wrappers that record one span per call: name, parent span,
start, end and one auxiliary number. Spans are kept in flat in-memory
arrays and written out by ``dump`` when the run ends; ``layer_metrics``
turns them into per-layer call counts and self times (span duration minus
the time its child spans cover).
"""

from __future__ import annotations

import functools
import os
from array import array
from time import perf_counter

import numpy as np

# Field names assigned to the application module that defines them.
FIELD_MODULES = {
    "speed_error_sq": "acc.field",
    "headway": "acc.field",
    "force_headway_optimal": "acc.field",
    "force_headway_conservative": "acc.field",
    "lane_stoppability": "lk.field",
}

# Per-layer metric names, in output order, with unit and better direction.
PER_LAYER = (
    ("cli.run.self_s", "s", "lower"),
    ("scenario_io.parse.self_s", "s", "lower"),
    ("scenario_io.build_job.self_s", "s", "lower"),
    ("scenario_io.csv_write.self_s", "s", "lower"),
    ("scenario_io.csv_bytes", "B", "lower"),
    ("scenario_io.report.self_s", "s", "lower"),
    ("simulate.run.self_s", "s", "lower"),
    ("simulate.integrate_step.calls", "count", "lower"),
    ("simulate.integrate_step.self_s", "s", "lower"),
    ("controller.evaluate.calls", "count", "lower"),
    ("controller.evaluate.p50_us", "us", "lower"),
    ("controller.evaluate.p99_us", "us", "lower"),
    ("controller.build_qp.self_s", "s", "lower"),
    ("qp.active_set.calls", "count", "lower"),
    ("qp.active_set.self_s", "s", "lower"),
    ("qp.active_set.iterations_per_call", "iter/call", "lower"),
    ("qp.closed_form.calls", "count", "higher"),
    ("qp.closed_form.self_s", "s", "lower"),
    ("qp.closed_form.optimal_ratio", "ratio", "higher"),
    ("qp.infeasible.calls", "count", "lower"),
    ("barriers.row_data.calls", "count", "lower"),
    ("barriers.row_data.self_s", "s", "lower"),
    ("systems.check_box.self_s", "s", "lower"),
    ("acc.field.self_s", "s", "lower"),
    ("lk.field.self_s", "s", "lower"),
    ("lk.solve_lqr_gain.self_s", "s", "lower"),
    ("trace.rounds", "count", "higher"),
    ("trace.overhead_ratio", "ratio", "higher"),
)


def _csv_size(out, args, kwargs) -> float:
    return float(os.path.getsize(args[1]))


def _iterations(out, args, kwargs) -> float:
    return float(out.iterations)


def _optimal(out, args, kwargs) -> float:
    return 1.0 if out.status == "optimal" else 0.0


def _infeasible(out, args, kwargs) -> float:
    # evaluate reports "infeasible" exactly when the QP solve found the
    # row set infeasible (and the fallback input was applied).
    return 1.0 if out.status == "infeasible" else 0.0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.aux = array("d")
        self._stack = [-1]
        self._undo: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrapper(self, fn, pick_id, aux):
        name_id, parent, start, end, aux_arr = (
            self.name_id, self.parent, self.start, self.end, self.aux)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(pick_id(args))
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            aux_arr.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if aux is not None:
                aux_arr[idx] = aux(out, args, kwargs)
            return out

        return wrapper

    def wrap(self, owner, attr: str, name: str, aux=None) -> None:
        fn = getattr(owner, attr)
        nid = self._id(name)
        self._undo.append((owner, attr, fn))
        setattr(owner, attr, self._wrapper(fn, lambda args: nid, aux))

    def wrap_field(self, owner, attr: str) -> None:
        """Wrap a ScalarField method; the span is named after the module
        that defines the field, looked up from the field's name."""
        fn = getattr(owner, attr)
        ids = {field: self._id(mod) for field, mod in FIELD_MODULES.items()}
        other = self._id("other.field")
        self._undo.append((owner, attr, fn))
        setattr(owner, attr,
                self._wrapper(fn, lambda args: ids.get(args[0].name, other), None))

    def install(self, cbfsim) -> None:
        """Wrap every traced boundary of an imported cbfsim package."""
        cli, sim, ctl = cbfsim.cli, cbfsim.simulate, cbfsim.controller
        self.wrap(cli, "main", "cli.run")
        self.wrap(cli, "parse_scenario_file", "scenario_io.parse")
        self.wrap(cli, "build_run_job", "scenario_io.build_job")
        self.wrap(cli, "write_trajectory_csv", "scenario_io.csv_write", _csv_size)
        self.wrap(cli, "build_report", "scenario_io.report")
        self.wrap(cbfsim.scenario_io.RunReport, "to_text", "scenario_io.report")
        self.wrap(cbfsim.scenario_io.RunReport, "to_json", "scenario_io.report")
        self.wrap(cli, "run_scenario", "simulate.run")
        self.wrap(sim, "integrate_step", "simulate.integrate_step")
        self.wrap(sim, "evaluate", "controller.evaluate", _infeasible)
        self.wrap(ctl, "evaluate", "controller.evaluate", _infeasible)
        self.wrap(ctl, "build_qp", "controller.build_qp")
        self.wrap(ctl, "solve_active_set", "qp.active_set", _iterations)
        self.wrap(ctl, "solve_two_constraint_closed_form", "qp.closed_form",
                  _optimal)
        self.wrap(cbfsim.barriers.ReciprocalBarrier, "row_data",
                  "barriers.row_data")
        self.wrap(cbfsim.barriers.ZeroingBarrier, "row_data", "barriers.row_data")
        self.wrap(cbfsim.systems.ControlAffineSystem, "check_box",
                  "systems.check_box")
        self.wrap_field(cbfsim.systems.ScalarField, "__call__")
        self.wrap_field(cbfsim.systems.ScalarField, "grad")
        self.wrap(cbfsim.lk, "solve_lqr_gain", "lk.solve_lqr_gain")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def mark(self) -> int:
        """Index of the next span; spans from here on form a new window."""
        return len(self.start)

    def layer_metrics(self, first: int = 0, rounds: int = 1) -> dict:
        """Per-layer figures over spans ``first..``, per round.

        Counts and self times are divided by ``rounds``; latency
        percentiles and ratios are taken over all spans of the window.
        """
        # Copies, not views: a view would pin the arrays' size.
        ids = np.array(self.name_id, dtype=np.int32)[first:]
        par = np.array(self.parent, dtype=np.int32)[first:] - first
        dur = np.array(self.end)[first:] - np.array(self.start)[first:]
        aux = np.array(self.aux)[first:]
        n = ids.size
        has_parent = par >= 0
        child = np.bincount(par[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        self_sum = np.bincount(ids, weights=self_time, minlength=k)
        aux_sum = np.bincount(ids, weights=aux, minlength=k)

        def get(arr, name):
            return float(arr[self._ids[name]]) if name in self._ids else 0.0

        out = {}
        for name, _, _ in PER_LAYER:
            layer, _, stat = name.rpartition(".")
            if stat == "self_s":
                out[name] = get(self_sum, layer) / rounds
            elif stat == "calls":
                out[name] = get(calls, layer) / rounds
        out["scenario_io.csv_bytes"] = get(aux_sum, "scenario_io.csv_write") / rounds
        out["qp.infeasible.calls"] = get(aux_sum, "controller.evaluate") / rounds
        active_calls = get(calls, "qp.active_set")
        out["qp.active_set.iterations_per_call"] = (
            get(aux_sum, "qp.active_set") / active_calls if active_calls else 0.0)
        closed_calls = get(calls, "qp.closed_form")
        out["qp.closed_form.optimal_ratio"] = (
            get(aux_sum, "qp.closed_form") / closed_calls if closed_calls else 0.0)
        eval_us = dur[ids == self._ids["controller.evaluate"]] * 1e6
        out["controller.evaluate.p50_us"] = (
            float(np.percentile(eval_us, 50)) if eval_us.size else 0.0)
        out["controller.evaluate.p99_us"] = (
            float(np.percentile(eval_us, 99)) if eval_us.size else 0.0)
        return out

    def dump(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.asarray(self.name_id),
            parent=np.asarray(self.parent), start=np.asarray(self.start),
            end=np.asarray(self.end), aux=np.asarray(self.aux))

"""Seeded input generator for the benchmark.

    python3 perfbench/gen.py --workload cruise_sweep --seed 7 --out DIR

writes the scenario files (sweeps) and ``manifest.json`` into DIR. The
same workload and seed always give the same bytes. Only the states,
parameters that vary per scenario and exogenous profiles depend on the
seed; the mix of levels, forms, variants, horizons and step sizes is fixed,
so every seed asks the program for the same amount of work.

Every input keeps its initial state inside each barrier's safe set with
margin and its exogenous profile inside the declared bounds, so that no
scenario aborts, violates a monitor or needs the infeasible fallback, and
every safety-filter query is feasible.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent))
import model  # noqa: E402

# cruise_sweep slots: (level, variant, form, a_l, dt); the batch runs every
# slot CRUISE_REPEATS times with different states. Every scenario takes
# CRUISE_STEPS closed-loop steps, so its horizon is CRUISE_STEPS * dt. The
# lead-braking fractions put the force margins on each of their branches:
# a_l < a_f (speed-equalization case), a_l == a_f, a_l > a_f.
CRUISE_SLOTS = (
    ("basic", None, "log", 0.25, 0.001),
    ("basic", None, "inverse", 0.25, 0.002),
    ("basic", None, "zeroing", 0.28, 0.001),
    ("basic", None, "log", 0.22, 0.002),
    ("force", "optimal", "log", 0.25, 0.001),
    ("force", "optimal", "zeroing", 0.28, 0.001),
    ("force", "optimal", "inverse", 0.22, 0.002),
    ("force", "optimal", "log", 0.28, 0.002),
    ("force", "conservative", "log", 0.25, 0.001),
    ("force", "conservative", "zeroing", 0.22, 0.001),
    ("force", "conservative", "inverse", 0.28, 0.002),
    ("force", "conservative", "zeroing", 0.25, 0.002),
)
CRUISE_STEPS = 400
CRUISE_REPEATS = 2  # how much active-set work a round takes varies with the
# states; more scenarios a round average it out across seeds

# lane_sweep: one long scenario, fewer than the two cores. Its horizon keeps
# a round near one second, so that a run holds a few dozen rounds.
LANE_DT = 0.001
LANE_HORIZON = 6.0
LANE_SETTLE = 2.5  # the profile ends with at least this long a straight

# filter_queries: specs built once, QUERIES_PER_SPEC states each.
QUERY_SPECS = (
    {"system": "acc", "level": "basic", "variant": "optimal", "form": "log"},
    {"system": "acc", "level": "force", "variant": "optimal", "form": "log"},
    {"system": "acc", "level": "force", "variant": "optimal", "form": "zeroing"},
    {"system": "acc", "level": "force", "variant": "conservative", "form": "log"},
    {"system": "acc", "level": "force", "variant": "conservative",
     "form": "zeroing"},
    {"system": "lk", "form": "log"},
)
QUERIES_PER_SPEC = 200


def _fmt(v: float) -> str:
    return repr(float(v))


def _scenario_text(system: str, params: dict, initial: dict, segments,
                   controller: dict, dt: float, horizon: float,
                   monitors: dict) -> str:
    def section(name, entries):
        return [f"[{name}]"] + [f"{k} = {v}" for k, v in entries] + [""]

    lines = section("system", [("id", system)])
    lines += section("params", [
        (k, " ".join(_fmt(c) for c in v) if isinstance(v, tuple) else _fmt(v))
        for k, v in params.items()
    ])
    lines += section("initial", [(k, _fmt(v)) for k, v in initial.items()])
    lines += section("exogenous",
                     [("segment", f"{_fmt(t)} {_fmt(v)}") for t, v in segments])
    lines += section("controller", list(controller.items()))
    lines += section("sim", [("dt", _fmt(dt)), ("horizon", _fmt(horizon))])
    lines += section("monitors", list(monitors.items()))
    return "\n".join(lines)


def _acc_state(rng: random.Random, p: dict, level: str, variant: str,
               speeds: tuple, extra: tuple) -> tuple[float, float, float]:
    v_f = rng.uniform(*speeds)
    v_l = rng.uniform(*speeds)
    if level == "basic":
        need = p["tau_d"] * v_f
    else:
        optimal, conservative = model.braking_margins(p, v_f, v_l)
        need = optimal if variant == "optimal" else conservative
    return v_f, v_l, need + rng.uniform(*extra)


def _lead_profile(rng: random.Random, p: dict, horizon: float) -> list:
    """Piecewise-constant lead acceleration within 80% of its bounds."""
    lo, hi = -0.8 * p["a_l"] * p["g"], 0.8 * p["a_l_accel"] * p["g"]
    times = sorted(rng.uniform(0.1, 0.9) * horizon for _ in range(2))
    return [(0.0, rng.uniform(lo, hi))] + [(t, rng.uniform(lo, hi)) for t in times]


def cruise_sweep(rng: random.Random, out: Path) -> dict:
    scenarios = []
    slots = CRUISE_SLOTS * CRUISE_REPEATS
    for i, (level, variant, form, a_l, dt) in enumerate(slots):
        p = dict(model.ACC_PARAMS, a_l=a_l, a_l_accel=a_l,
                 v_d=rng.uniform(19.0, 25.0))
        horizon = CRUISE_STEPS * dt
        extra = (8.0, 40.0) if level == "basic" else (15.0, 50.0)
        v_f, v_l, D = _acc_state(rng, p, level, variant, (14.0, 26.0), extra)
        controller = {"level": level, "form": form}
        monitors = {"headway": "auto", "clf": "none"}
        if level == "force":
            controller["variant"] = variant
            monitors["force_barrier"] = "auto"
        segments = _lead_profile(rng, p, horizon)
        name = f"c{i:02d}_{level}_{variant or 'headway'}_{form}"
        text = _scenario_text("acc", p, {"v_f": v_f, "v_l": v_l, "D": D},
                              segments, controller, dt, horizon, monitors)
        (out / f"{name}.scenario").write_text(text)
        scenarios.append({
            "name": name, "system": "acc", "level": level, "variant": variant,
            "form": form, "params": p, "x0": [v_f, v_l, D],
            "segments": segments, "dt": dt, "horizon": horizon,
            "steps": round(horizon / dt),
        })
    return {"scenarios": scenarios}


def _lk_state(rng: random.Random, p: dict, ranges, min_h: float) -> list:
    while True:
        x = [rng.uniform(-r, r) for r in ranges]
        if abs(x[0]) <= p["y_max"] and model.stoppability(p, x) >= min_h:
            return x


def lane_sweep(rng: random.Random, out: Path) -> dict:
    p = dict(model.LK_PARAMS)
    x0 = _lk_state(rng, p, (0.6, 0.3, 0.01, 0.05), 0.2)
    # Alternating curves, each followed by a straight; the last LANE_SETTLE
    # seconds are straight so the car settles before the final sample.
    segments = [(0.0, 0.0)]
    t = rng.uniform(0.3, 0.9)
    sign = rng.choice((-1.0, 1.0))
    while t < LANE_HORIZON - LANE_SETTLE - 2.5:
        segments.append((t, sign * rng.uniform(0.02, 0.06)))
        t += rng.uniform(1.5, 2.5)
        segments.append((t, 0.0))
        t += rng.uniform(0.5, 1.5)
        sign = -sign
    name = "lane_00_log"
    text = _scenario_text(
        "lk", p, dict(zip(("y", "nu", "psi", "r"), x0)), segments,
        {"form": "log"}, LANE_DT, LANE_HORIZON,
        {"barrier": "auto", "lane": "auto", "lat_accel": "auto"})
    (out / f"{name}.scenario").write_text(text)
    return {"scenarios": [{
        "name": name, "system": "lk", "level": None, "variant": None,
        "form": "log", "params": p, "x0": x0, "segments": segments,
        "dt": LANE_DT, "horizon": LANE_HORIZON,
        "steps": round(LANE_HORIZON / LANE_DT),
    }]}


def filter_queries(rng: random.Random, out: Path) -> dict:
    specs = [dict(s, params=dict(model.ACC_PARAMS if s["system"] == "acc"
                                 else model.LK_PARAMS))
             for s in QUERY_SPECS]
    queries = []
    for k, spec in enumerate(specs):
        p = spec["params"]
        for _ in range(QUERIES_PER_SPEC):
            if spec["system"] == "acc":
                extra = (2.0, 60.0) if spec["level"] == "basic" else (5.0, 60.0)
                x = list(_acc_state(rng, p, spec["level"], spec["variant"],
                                    (5.0, 30.0), extra))
                w = rng.uniform(-0.9, 0.9) * p["a_l"] * p["g"]
            else:
                x = _lk_state(rng, p, (0.85, 0.5, 0.02, 0.15), 0.05)
                w = rng.uniform(-0.1, 0.1)
            queries.append({"spec": k, "x": x, "w": w})
    rng.shuffle(queries)
    return {"specs": specs, "queries": queries}


WORKLOADS = {
    "cruise_sweep": cruise_sweep,
    "lane_sweep": lane_sweep,
    "filter_queries": filter_queries,
}


def generate(workload: str, seed: int, out) -> dict:
    """Write the inputs of one workload and seed into ``out``; return the
    manifest, which is also written to ``out/manifest.json``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    manifest = {"workload": workload, "seed": seed}
    manifest.update(WORKLOADS[workload](rng, out))
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

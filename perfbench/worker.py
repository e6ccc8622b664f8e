"""One measured run of one workload, in a fresh process.

    python3 perfbench/worker.py --root ROOT --run-dir DIR --workload NAME \
        --seconds S --seed N --trace 0|1 [--setup-only]

``run.py`` writes the inputs into DIR/inputs and starts this process.
The worker times its own cold set-up: importing cbfsim from ROOT/src and,
on filter_queries, building the controller specs. It then sends whole
rounds of the workload until S seconds have passed, runs the reference
checks on what the program produced, and writes ``result.json`` into DIR.
With ``--setup-only`` it prints the set-up time and exits; the measuring
worker starts such probes itself, between rounds, to time more cold
set-ups (see SetupProbes).

With ``--trace 1`` the first half of the time runs untraced and the
second half traced (see spans.py); the result then holds the per-layer
figures of the traced half and the tracing overhead.
"""

import argparse
import hashlib
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path


def _import_cbfsim(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import cbfsim
    import cbfsim.cli  # noqa: F401  (the sweeps' entry point)

    if src not in Path(cbfsim.__file__).resolve().parents:
        raise SystemExit(f"cbfsim imported from {cbfsim.__file__}, not {src}")
    return cbfsim


def build_spec(cbfsim, desc: dict):
    """Controller spec for a generator spec description, built through the
    package's public constructors."""
    params = dict(desc["params"])
    if desc["system"] == "acc":
        return cbfsim.acc.acc_qp_spec(
            cbfsim.acc.AccParams(**params), level=desc["level"],
            variant=desc["variant"] or "optimal", kind=desc["form"])
    params["lqr_preview"] = tuple(params["lqr_preview"])
    return cbfsim.lk.lk_qp_spec(cbfsim.lk.LkParams(**params), kind=desc["form"])


# Each timing is taken from the fastest FAST_SHARE of the rounds, column
# by column (see fast_profile).
FAST_SHARE = 0.1


class DurationLog:
    """The duration vector of every round, kept in a file rather than in
    memory so that it does not add to the peak memory being measured."""

    def __init__(self, path: Path):
        self.file = open(path, "w+b")
        self.width = None
        self.rounds = 0

    def append(self, durations) -> None:
        import numpy as np
        values = np.asarray(durations, dtype=np.float64)
        self.width = values.size
        self.rounds += 1
        values.tofile(self.file)

    def matrix(self):
        import numpy as np
        self.file.flush()
        self.file.seek(0)
        values = np.fromfile(self.file, dtype=np.float64)
        return values.reshape(self.rounds, self.width)


def fast_profile(durations):
    """Each column's mean over its fastest FAST_SHARE of the rounds (at
    least one). A column is one stretch of a round that every round
    repeats with the same work: one scenario of a batch, or one query."""
    import numpy as np
    durations = np.asarray(durations, dtype=np.float64)
    k = max(1, math.ceil(FAST_SHARE * len(durations)))
    return np.sort(durations, axis=0)[:k].mean(axis=0)


def summarize(load, durations) -> dict:
    """End-to-end figures of one round made of the fast profile of the
    rounds: the round time is the sum of the columns, and a request's
    latency is its column (a query) or the sum of the columns up to its
    own (a scenario, timed from the start of the batch).

    The shared machine these figures are taken on slows down in spells of
    seconds that can cover most of a round, or most of a run; the fastest
    tenth of each stretch (a scenario or a query), taken over the whole
    run, is what stays put. Work the program adds to every round moves
    every column; a cost paid in a tenth of the rounds or fewer does not
    show."""
    import numpy as np
    profile = fast_profile(durations)
    round_s = float(profile.sum())
    n = load.requests
    latencies = np.cumsum(profile)[:n] if load.from_batch_start else profile[:n]
    p50, p99 = np.percentile(latencies, [50, 99])
    return {"steps_per_s": load.steps / round_s,
            "queries_per_s": n / round_s,
            "query_p50_us": p50 * 1e6,
            "query_p99_us": p99 * 1e6}


class ReportClock:
    """Standard output of the CLI: passes the text on to a log file and
    notes the time at which each scenario's report is printed."""

    def __init__(self, log):
        self.log = log
        self.marks: list[float] = []

    def write(self, text: str) -> int:
        if "verdict: " in text:
            self.marks.append(time.perf_counter())
        return self.log.write(text)

    def flush(self) -> None:
        self.log.flush()


class Sweep:
    """Rounds of one CLI batch over every generated scenario file. A
    request is one scenario; its latency runs from the start of the batch
    until its report is printed. A round's durations are the stretches
    between consecutive reports (the first from the start of the batch)
    and the stretch from the last report to the end of the batch."""

    from_batch_start = True

    def __init__(self, cbfsim, manifest: dict, inputs: Path, run_dir: Path,
                 clock: ReportClock):
        self.cbfsim = cbfsim
        self.manifest = manifest
        self.files = [str(inputs / f"{sc['name']}.scenario")
                      for sc in manifest["scenarios"]]
        self.out = run_dir / "out"
        self.clock = clock
        self.steps = sum(sc["steps"] for sc in manifest["scenarios"])
        self.requests = len(self.files)
        self.attempted = 0
        self.failed = 0
        self.digests: dict = {}
        self.mismatched: set = set()
        self.errors: list[str] = []
        self.rounds = 0

    def round(self):
        main = self.cbfsim.cli.main
        argv = ["run", *self.files, "--out", str(self.out)]
        # Outside the timed call: a scenario that writes nothing in this
        # round must not be credited with an earlier round's outputs.
        shutil.rmtree(self.out, ignore_errors=True)
        marks = self.clock.marks
        marks.clear()
        t0 = time.perf_counter()
        code = main(argv)
        t1 = time.perf_counter()
        self.rounds += 1
        if code != 0 and not self.errors:
            self.errors.append(f"round {self.rounds}: cbfsim run exited "
                               f"with code {code}")
        # a scenario that printed no report counts as failed (_tally); its
        # stretch is left empty
        n = self.requests
        ends = marks[:n] + [t1] * (n - len(marks[:n])) + [t1]
        self._tally()
        return [b - a for a, b in zip([t0] + ends, ends)]

    def _tally(self) -> None:
        # Outside the timed call: per-scenario verdicts, and a digest of
        # every output so that rounds can be compared with each other. A
        # missing or unreadable output counts as a failed scenario.
        for sc in self.manifest["scenarios"]:
            self.attempted += 1
            report = self.out / f"{sc['name']}.report.json"
            csv = self.out / f"{sc['name']}.csv"
            try:
                verdict = json.loads(report.read_text())
                digest = hashlib.sha1(csv.read_bytes()).hexdigest()
            except (OSError, ValueError):
                self.failed += 1
                continue
            if not verdict.get("pass"):
                self.failed += 1
            if self.digests.setdefault(sc["name"], digest) != digest:
                self.mismatched.add(sc["name"])

    def check(self, seed: int) -> list:
        import checks
        specs = [build_spec(self.cbfsim, sc) for sc in self.manifest["scenarios"]]
        failures = checks.check_sweep(self.cbfsim, self.manifest, specs,
                                      self.out, seed)
        failures += [f"{name}: output differs between rounds"
                     for name in sorted(self.mismatched)]
        return failures + self.errors


class Queries:
    """Rounds of independent controller.evaluate calls over the query pool.
    A round's durations are each query's latency and, last, the time the
    round spent between queries."""

    from_batch_start = False

    def __init__(self, cbfsim, manifest: dict, specs: list):
        import numpy as np
        self.cbfsim = cbfsim
        self.manifest = manifest
        self.pool = [(specs[q["spec"]], np.array(q["x"], dtype=float),
                      np.array([q["w"]], dtype=float))
                     for q in manifest["queries"]]
        self.results: list = [None] * len(self.pool)
        self.steps = self.requests = len(self.pool)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def round(self):
        evaluate = self.cbfsim.controller.evaluate
        results = self.results
        query_ns: list[int] = []
        record = query_ns.append
        clock = time.perf_counter_ns
        t0 = time.perf_counter()
        for i, (spec, x, w) in enumerate(self.pool):
            q0 = clock()
            try:
                step = evaluate(spec, x, w)
            except Exception as exc:  # one failed query must not end the run
                step = None
                if not self.errors:
                    self.errors.append(f"query {i}: {type(exc).__name__}: {exc}")
            record(clock() - q0)
            results[i] = step
        elapsed = time.perf_counter() - t0
        self.attempted += len(results)
        self.failed += sum(1 for s in results if s is None or s.status != "optimal")
        latencies = [ns / 1e9 for ns in query_ns]
        return latencies + [elapsed - sum(latencies)]

    def check(self, seed: int) -> list:
        import checks
        return checks.check_queries(self.cbfsim, self.manifest, self.pool,
                                    self.results) + self.errors


class SetupProbes:
    """Cold set-ups, each timed by a fresh ``--setup-only`` worker that this
    one starts and waits for between two rounds, at times spread evenly
    over the run. ``setup_s`` is the best of them and of the worker's own:
    single cold set-ups of the same code read from 0.087 to 0.17 s back to
    back, as the machine's slow spells come and go, and the best of a dozen
    spread over the run is what stays put."""

    COUNT = 12

    def __init__(self, seconds: float):
        self.cmd = [sys.executable, __file__, *sys.argv[1:], "--setup-only"]
        self.due = [i * seconds / self.COUNT for i in range(self.COUNT)]
        self.times: list[float] = []

    def probe(self) -> None:
        self.due.pop(0)
        done = subprocess.run(self.cmd, capture_output=True, text=True,
                              timeout=60, check=True)
        self.times.append(float(done.stdout.split()[-1]))

    def between_rounds(self, elapsed: float) -> None:
        if self.due and elapsed >= self.due[0]:
            self.probe()

    def finish(self) -> None:
        while self.due:
            self.probe()


def _run_phase(load, seconds: float, log, probes=None) -> None:
    """Whole rounds until ``seconds`` have passed; each round's durations
    go to ``log`` (a DurationLog or a list)."""
    begin = time.perf_counter()
    while True:
        if probes is not None:
            probes.between_rounds(time.perf_counter() - begin)
        log.append(load.round())
        if time.perf_counter() - begin >= seconds:
            return


def _peak_rss_mb() -> float:
    import resource
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    root, run_dir = Path(args.root), Path(args.run_dir)
    manifest = json.loads((run_dir / "inputs" / "manifest.json").read_text())

    # -- timed cold set-up ---------------------------------------------------
    started = time.perf_counter()
    cbfsim = _import_cbfsim(root)
    specs = ([build_spec(cbfsim, d) for d in manifest["specs"]]
             if args.workload == "filter_queries" else None)
    setup_s = time.perf_counter() - started
    # -----------------------------------------------------------------------
    if args.setup_only:
        print(repr(setup_s))
        return 0

    with open(run_dir / "cli_stdout.log", "w") as log:
        clock = ReportClock(log)
        if specs is None:
            load = Sweep(cbfsim, manifest, run_dir / "inputs", run_dir, clock)
        else:
            load = Queries(cbfsim, manifest, specs)
        saved, sys.stdout = sys.stdout, clock  # the CLI prints every report
        try:
            if not args.trace:
                log = DurationLog(run_dir / "durations.bin")
                probes = SetupProbes(args.seconds)
                _run_phase(load, args.seconds, log, probes)
                peak_rss_mb = _peak_rss_mb()
                probes.finish()
                metrics = summarize(load, log.matrix())
                metrics["peak_rss_mb"] = peak_rss_mb
                metrics["setup_s"] = min([setup_s] + probes.times)
            else:
                metrics, trace_checks = _traced(cbfsim, load, manifest, args,
                                                run_dir)
        finally:
            sys.stdout = saved

    failures = load.check(args.seed)
    if args.trace:
        failures += trace_checks
    result = {"attempted": load.attempted, "failed": load.failed,
              "metrics": metrics, "check_failures": failures}
    (run_dir / "result.json").write_text(json.dumps(result, indent=1))
    return 0


def _traced(cbfsim, load, manifest, args, run_dir):
    import spans

    half = args.seconds / 2.0
    untraced: list = []
    _run_phase(load, half, untraced)
    tracer = spans.Tracer()
    tracer.install(cbfsim)
    try:
        setup_metrics = None
        if isinstance(load, Queries):
            # The specs were built before tracing started; build them once
            # more under the tracer to see the set-up layers (LQR solve).
            for d in manifest["specs"]:
                build_spec(cbfsim, d)
            setup_metrics = tracer.layer_metrics()
        first = tracer.mark()
        traced: list = []
        _run_phase(load, half, traced)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(first, len(traced))
    if setup_metrics is not None:
        metrics["lk.solve_lqr_gain.self_s"] = setup_metrics["lk.solve_lqr_gain.self_s"]
    metrics["trace.rounds"] = float(len(traced))
    metrics["trace.overhead_ratio"] = (summarize(load, traced)["steps_per_s"]
                                       / summarize(load, untraced)["steps_per_s"])
    tracer.dump(run_dir / "spans.npz")

    import checks
    failures = checks.check_trace(metrics, args.workload, load.steps)
    return metrics, failures


if __name__ == "__main__":
    sys.exit(main())

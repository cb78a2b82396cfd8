"""Benchmark of deceptive-nes: analysis, search, simulation and CLI workloads.

Usage, from the repository root::

    python3 benchmarks/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Workloads are listed in ``bench_workloads.WORKLOADS``; ``BENCHMARK.json``
names the ones whose figures are steady enough to gate a change.  One run
is one process: it imports the package from ``src/`` of this checkout,
sets it up, then repeats the workload's catalogue of operations in passes,
closed loop with one client, until ``--seconds`` have passed, checking
every output.  With ``--trace 0`` it reports the end-to-end metrics, and
sets the workload up again between passes, at even intervals, for the
median of ``SETUP_REPEATS`` set-ups as ``setup_s``; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics of
the traced passes plus the tracing overhead.  The last line of standard
output is one JSON object ``{correct, attempted, failed, metrics}``; the
lines before it give the environment, each metric with its unit and every
failed operation with its inputs.  ``--workload all`` runs each workload
in its own process, one after another.
"""

from __future__ import annotations

import os

# One BLAS thread; must be set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "deceptive_nes"
SETUP_REPEATS = 15
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)


class Passes:
    """Per-operation latencies and the failures of repeated passes."""

    def __init__(self, n_ops: int):
        self.latency_s = [[] for _ in range(n_ops)]
        self.pass_s = []
        self.failures = []       # (pass index, op index, op label, exception)

    @property
    def attempted(self) -> int:
        return sum(len(lat) for lat in self.latency_s)

    def best_s(self) -> list:
        """Each operation's fastest pass."""
        return [min(lat) for lat in self.latency_s]


def import_package():
    """Import the package (and its CLI) from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    dn = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    if Path(dn.__file__).resolve().parent != SRC / PACKAGE:
        raise ImportError(f"{PACKAGE} imported from {dn.__file__}, not {SRC}")
    return dn


def set_up(workload, seed):
    """Import, make inputs, build and warm up; returns the workload's state
    and the time it took."""
    t0 = time.perf_counter()
    dn = import_package()
    state = workload.setup(dn, seed)
    return state, time.perf_counter() - t0


def set_ups_between_passes(workload, seed, seconds, times):
    """A callback for ``run_passes`` that sets the workload up again, its
    state discarded, about every ``seconds / SETUP_REPEATS``, appending the
    times to ``times``: set-ups spread over the run meet the same mix of
    fast and slow stretches of a shared host as the timed passes, where
    set-ups made back to back all meet one stretch."""
    interval = seconds / SETUP_REPEATS
    last = [time.perf_counter()]

    def between():
        if len(times) < SETUP_REPEATS and time.perf_counter() - last[0] >= interval:
            times.append(set_up(workload, seed)[1])
            gc.collect()
            last[0] = time.perf_counter()
    return between


def run_pass(ops, result: Passes, tracer=None) -> None:
    """Run the catalogue once, timing each operation and checking its output."""
    spent = 0.0
    for slot, op in enumerate(ops):
        if tracer is not None:
            tracer.op += 1
        t0 = time.perf_counter()
        try:
            out = op.run()
            error = None
        except Exception as exc:
            error = exc
        dt = time.perf_counter() - t0
        spent += dt
        result.latency_s[slot].append(dt)
        if error is None:
            try:
                op.check(out)
            except Exception as exc:
                error = exc
        if error is not None:
            result.failures.append((len(result.pass_s), slot, op.label, error))
    result.pass_s.append(spent)


def until(seconds, body) -> None:
    """Call ``body`` while a call like the last one would end within
    ``seconds`` (at least once)."""
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        body()
        now = time.perf_counter()
        if now + (now - started) > deadline:
            return


def run_passes(ops, seconds, between=None) -> Passes:
    """Repeat the catalogue, checks included, for ``seconds``, calling
    ``between`` (untimed) after each pass."""
    result = Passes(len(ops))

    def body():
        run_pass(ops, result)
        if between is not None:
            between()
    until(seconds, body)
    return result


def nearest_rank(ordered, pct):
    """Nearest-rank percentile of sorted values, and how many lie above it."""
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail(best, passes, percentiles):
    """The highest of ``percentiles`` of the operations' best latencies with
    at least ten timed samples beyond it, each operation above it counting
    for the ``passes`` samples its best is taken from; the last one when
    none has.  Returns the value, the percentile and the operations above."""
    ordered = sorted(best)
    for pct in percentiles:
        value, above = nearest_rank(ordered, pct)
        if above >= 1 and above * passes >= 10:
            break
    return value, pct, above


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setup_s, passes: Passes):
    """End-to-end metrics over each operation's best latency: their sum is
    one pass over the catalogue as an uncontended host runs it, and the
    median and tail are taken across the catalogue."""
    best = passes.best_s()
    wall = sum(best)
    completed = len(best) - len({slot for _, slot, _, _ in passes.failures})
    n_passes = len(passes.pass_s)
    value, pct, above = tail(best, n_passes, TAIL_PERCENTILES)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (completed / wall, "1/s"),
        "op_p50_ms": (1e3 * nearest_rank(sorted(best), 50.0)[0], "ms"),
        "op_tail_ms": (1e3 * value, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup_s)}, spread over the run",
        "wall_s": f"sum of best latencies over {n_passes} passes, "
                  f"{len(best)} operations",
        "op_p50_ms": f"n={len(best)} operations, best of {n_passes} each",
        "op_tail_ms": f"p{pct:g}, n={len(best)} operations, {above} above, "
                      f"{above * n_passes} samples beyond",
    }
    return metrics, notes


def header(workload, args):
    import numpy

    print(f"# workload={workload.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} python={platform.python_version()} "
          f"numpy={numpy.__version__} nproc={os.cpu_count()}")
    print(f"# why: {workload.why}")


def report(metrics, notes, passes: Passes, printed=None):
    """Print every metric with its unit; ``printed`` holds metrics that are
    shown but not part of the result line."""
    for name, (value, unit) in {**metrics, **(printed or {})}.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    print(f"fail_ratio = {len(passes.failures)}/{passes.attempted}")
    for index, _, label, error in passes.failures:
        print(f"FAILED pass {index}: {label}: {type(error).__name__}: {error}")


def run_one(args) -> int:
    import bench_workloads

    workload = bench_workloads.WORKLOADS[args.workload]()
    header(workload, args)
    printed = {}
    try:
        state, first = set_up(workload, args.seed)
        if args.trace:
            metrics, notes, passes = traced(workload, state, args)
        else:
            setup_s = [first]
            passes = run_passes(state["ops"], args.seconds, set_ups_between_passes(
                workload, args.seed, args.seconds, setup_s))
            while len(setup_s) < SETUP_REPEATS:
                setup_s.append(set_up(workload, args.seed)[1])
            metrics, notes = end_to_end(setup_s, passes)
            if isinstance(workload, bench_workloads.FullSim):
                steps = workload.grid(state["tuning"])[1]
                printed["sim_steps_per_s"] = (steps * metrics["ops_per_s"][0], "1/s")
                notes["sim_steps_per_s"] = "full-model RK4 steps per second"
    finally:
        shutil.rmtree(bench_workloads.state_dir(), ignore_errors=True)
    report(metrics, notes, passes, printed)
    print(json.dumps({
        "correct": not passes.failures,
        "attempted": passes.attempted,
        "failed": len(passes.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def traced(workload, state, args):
    """Alternate untraced and traced passes within ``--seconds``, so that a
    drift in host speed hits both alike; per-layer metrics come from the
    traced passes, per pass over the catalogue."""
    import bench_trace

    ops = state["ops"]
    plain, passes = Passes(len(ops)), Passes(len(ops))
    tracer = bench_trace.Tracer()

    def pair():
        run_pass(ops, plain)
        tracer.install(PACKAGE)
        try:
            run_pass(ops, passes, tracer)
        finally:
            tracer.uninstall()

    until(args.seconds, pair)
    overhead = sum(passes.best_s()) - sum(plain.best_s())
    layer = tracer.metrics(passes.pass_s, overhead)
    path = ROOT / ".bench_out" / f"trace-{workload.name}-{args.seed}.jsonl"
    tracer.write(path)
    for slot, lat in enumerate(plain.latency_s):
        passes.latency_s[slot] += lat
    passes.failures += plain.failures
    notes = {"trace.overhead_s": f"best-latency pass traced minus untraced, "
                                 f"{len(plain.pass_s)} passes each; "
                                 f"{len(tracer.spans)} spans in {path.name}, "
                                 f"{tracer.dropped} dropped"}
    return {k: (v["value"], v["unit"]) for k, v in layer.items()}, notes, passes


def run_all(args) -> int:
    import bench_workloads

    worst = 0
    for name in bench_workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=False)
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"benchmark: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench_workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in bench_workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(bench_workloads.WORKLOADS)} or all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

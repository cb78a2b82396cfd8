"""In-memory span tracer installed around the package's public functions.

Every public function and every public method of a public class in the
seven layer modules is replaced by a wrapper at each place the package
binds it: the defining module, the package namespace, and every module that
imported it by name (``dynamics`` and ``deceptive_game`` import
``perturbed_pseudogradient``, ``cli`` imports ``solve_attainability`` and
``simulate``).  A wrapper records one span (id, parent id, operation id,
name, start, end) and updates per-name aggregates; a layer's self time is a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

LAYERS = ("numerics", "oligopoly", "deception", "deceptive_game", "dynamics",
          "scenario", "cli")

#: Kernels whose metrics are split by matrix order: "small" is N <= 4, the
#: range ``numerics._solve_small`` handles; "large" is N > 4.
STRATIFIED = ("numerics.solve_linear", "numerics.spectral_abscissa")
SMALL_N = 4

MODELS = ("full", "averaged", "reduced", "boundary")
COMMANDS = ("nash", "stability", "attain", "simulate", "deceptive-game", "sweep")

#: Spans kept for the trace file; aggregates keep counting past the cap.
MAX_SPANS = 300_000


class Tracer:
    def __init__(self):
        self.spans = []
        self.dropped = 0
        self.stack = []              # [child_seconds, span_id] per open span
        self.next_id = 1
        self.op = 0
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.layer_self_s = defaultdict(float)
        self._restore = []

    # -- recording ---------------------------------------------------------
    def call(self, name, fn, args, kwargs):
        span_id = self.next_id
        self.next_id += 1
        parent = self.stack[-1][1] if self.stack else 0
        frame = [0.0, span_id]
        self.stack.append(frame)
        result, error = None, None
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as exc:
            error = exc
            raise
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            dur = t1 - t0
            if self.stack:
                self.stack[-1][0] += dur
            key = _HOOKS[name](self, args, kwargs, result, error, dur) \
                if name in _HOOKS else name
            own = dur - frame[0]
            self.layer_self_s[name.split(".", 1)[0]] += own
            self.calls[key] += 1
            self.total_s[key] += dur
            self.self_s[key] += own
            if key != name:
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += own
            if len(self.spans) < MAX_SPANS:
                self.spans.append((span_id, parent, self.op, key, t0, t1))
            else:
                self.dropped += 1

    # -- installation ------------------------------------------------------
    def install(self, package_name: str = "deceptive_nes") -> None:
        """Wrap every public function and method of the layer modules."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package_name}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            wrapper = self._wrap(f"{layer}.{attr}.{meth}", fn)
                            self._set(obj, meth, fn, wrapper)
        for name, mod in list(sys.modules.items()):
            if name != package_name and not name.startswith(package_name + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._set(mod, attr, obj, wrappers[id(obj)][1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _set(self, owner, attr, original, wrapper):
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return wrapper

    # -- reporting ---------------------------------------------------------
    def write(self, path) -> None:
        """Write the kept spans as JSON lines."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for span_id, parent, op, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op,
                                     "name": name, "start": t0, "end": t1}) + "\n")

    def metrics(self, pass_s, overhead_s: float) -> dict:
        """Per-layer metrics in the order BENCHMARK.json lists them.

        ``pass_s`` holds the traced passes' times.  Counts and times are per
        pass over the catalogue, so that they do not grow with the number of
        passes a faster program or host fits into a run; ratios, times per
        call and shares are over all traced passes.
        """
        out = {}
        n_passes = len(pass_s)

        def put(name, value, unit):
            out[name] = {"value": float(value), "unit": unit}

        def per_pass(name, value, unit):
            put(name, value / n_passes, unit)

        def basic(name):
            calls = self.calls.get(name, 0)
            per_pass(f"{name}.calls", calls, "count")
            per_pass(f"{name}.self_s", self.self_s.get(name, 0.0), "s")
            put(f"{name}.us_per_call", _per(self.total_s.get(name, 0.0), calls), "us")

        for name in STRATIFIED:
            basic(name)
            for part in ("small", "large"):
                basic(f"{name}.{part}")
        basic("numerics.find_root_scalar")
        basic("numerics.newton_system")
        put("numerics.newton_system.fail_ratio",
            _ratio(self.counts["numerics.newton_system.fails"],
                   self.calls.get("numerics.newton_system", 0)), "ratio")
        basic("numerics.fd_jacobian")
        basic("numerics.integrate_fixed")
        per_pass("numerics.integrate_fixed.steps",
                 self.counts["numerics.integrate_fixed.steps"], "count")
        for name in ("oligopoly.build_quadratic_game",
                     "oligopoly.QuadraticGame.nash_equilibrium",
                     "oligopoly.QuadraticGame.costs",
                     "deception.perturbed_pseudogradient",
                     "deception.in_stability_set",
                     "deception.lambda_matrix",
                     "deception.solve_attainability"):
            basic(name)
        put("deception.solve_attainability.attained_ratio",
            _ratio(self.counts["deception.solve_attainability.attained"],
                   self.calls.get("deception.solve_attainability", 0)), "ratio")
        per_pass("deception.solve_attainability.unattained_s",
                 self.counts["deception.solve_attainability.unattained_s"], "s")
        for name in ("deceptive_game.build_deceptive_game",
                     "deceptive_game.verify_deceptive_nash",
                     "deceptive_game.perceived_desirability"):
            basic(name)
        for model in MODELS:
            key = f"dynamics.simulate.{model}"
            steps = self.counts[f"{key}.steps"]
            per_pass(f"{key}.steps", steps, "count")
            put(f"{key}.us_per_step", _per(self.total_s.get(key, 0.0), steps), "us")
        basic("dynamics.Trajectory.write_csv")
        per_pass("dynamics.Trajectory.write_csv.bytes",
                 self.counts["dynamics.Trajectory.write_csv.bytes"], "bytes")
        basic("dynamics.Trajectory.steady_state")
        basic("scenario.load_scenario")
        for command in COMMANDS:
            per_pass(f"cli.main.{command}.self_s",
                     self.self_s.get(f"cli.main.{command}", 0.0), "s")
        put("trace.overhead_s", overhead_s, "s")
        for layer in LAYERS:
            put(f"share.{layer}", 100.0 * _ratio(self.layer_self_s[layer], sum(pass_s)), "%")
        return out


def _per(seconds: float, count: float) -> float:
    return 1e6 * seconds / count if count else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- per-function hooks: return the aggregate key, record counters --------

def _stratum(tracer, args, kwargs, result, error, dur, name):
    a = args[0] if args else kwargs.get("a")
    n = len(a)
    return f"{name}.{'small' if n <= SMALL_N else 'large'}"


def _newton(tracer, args, kwargs, result, error, dur):
    if error is not None:
        tracer.counts["numerics.newton_system.fails"] += 1
    return "numerics.newton_system"


def _integrate(tracer, args, kwargs, result, error, dur):
    n_steps = args[4] if len(args) > 4 else kwargs["n_steps"]
    tracer.counts["numerics.integrate_fixed.steps"] += n_steps
    return "numerics.integrate_fixed"


def _attain(tracer, args, kwargs, result, error, dur):
    if result is not None and result.attainable:
        tracer.counts["deception.solve_attainability.attained"] += 1
    else:
        tracer.counts["deception.solve_attainability.unattained_s"] += dur
    return "deception.solve_attainability"


def _simulate(tracer, args, kwargs, result, error, dur):
    model = args[0] if args else kwargs["model"]
    key = f"dynamics.simulate.{model}"
    if result is not None:
        tracer.counts[f"{key}.steps"] += (len(result.times) - 1) * result.meta.stride
    return key


def _write_csv(tracer, args, kwargs, result, error, dur):
    path = args[1] if len(args) > 1 else kwargs["path"]
    if error is None:
        tracer.counts["dynamics.Trajectory.write_csv.bytes"] += os.path.getsize(path)
    return "dynamics.Trajectory.write_csv"


def _cli_main(tracer, args, kwargs, result, error, dur):
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.main.{argv[0]}" if argv else "cli.main"


_HOOKS = {
    "numerics.solve_linear": functools.partial(_stratum, name="numerics.solve_linear"),
    "numerics.spectral_abscissa": functools.partial(_stratum, name="numerics.spectral_abscissa"),
    "numerics.newton_system": _newton,
    "numerics.integrate_fixed": _integrate,
    "deception.solve_attainability": _attain,
    "dynamics.simulate": _simulate,
    "dynamics.Trajectory.write_csv": _write_csv,
    "cli.main": _cli_main,
}

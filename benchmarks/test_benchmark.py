"""Self-test of the benchmark at a tiny size.

Each case runs the benchmark in a subprocess with shrunken catalogues, so
the package is imported fresh there and this test session's imports are
untouched.  Run with ``python -m pytest benchmarks``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench_workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# Every workload runs here, also those BENCHMARK.json leaves out.
WORKLOADS = list(bench_workloads.WORKLOADS)

# Shrinks every catalogue, then runs the benchmark once per workload and
# prints one JSON line per run.  ``INJECT`` is replaced by code that makes
# the package return wrong answers.
TINY = """
import contextlib, io, json, sys
sys.argv = ["run.py"]
sys.path.insert(0, {here!r})
import run, bench_workloads as bw
run.SETUP_REPEATS = 1
bw.AttainSingle.sizes = (2, 5)
bw.AttainSingle.single_per_size = 1
bw.AttainMulti.repeats = 1
bw.AttainMulti.slots = ((3, 2, False, True), (4, 2, True, False))
bw.FullSim.runs = 2
bw.FullSim.horizon = 0.05
bw.CliBatch.variants = 1
INJECT
for name in {workloads!r}:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", name, "--seed", "7", "--seconds", "0",
                         "--trace", "{trace}"])
    lines = buf.getvalue().splitlines()
    print(json.dumps({{"workload": name, "code": code, "lines": lines}}))
"""

WRONG_ANSWERS = """
import dataclasses
_import = run.import_package
def import_package():
    dn = _import()
    solve, simulate, main = dn.solve_attainability, dn.simulate, dn.cli.main

    def wrong_solve(*args, **kwargs):
        res = solve(*args, **kwargs)
        return dataclasses.replace(res, u_star=res.u_star + 1e-3)

    def wrong_simulate(*args, **kwargs):
        traj = simulate(*args, **kwargs)
        return dataclasses.replace(traj, u=traj.u + 1e-6)

    dn.solve_attainability, dn.simulate = wrong_solve, wrong_simulate
    dn.cli.main = lambda argv: main(argv) + 1
    return dn
run.import_package = import_package
"""

# Runs exactly two passes (two untraced and traced pairs with --trace 1).
TWO_PASSES = """
def until(seconds, body):
    body()
    body()
run.until = until
"""


def _run_tiny(trace, inject=""):
    code = TINY.format(here=str(HERE), workloads=WORKLOADS, trace=trace)
    proc = subprocess.run([sys.executable, "-c", code.replace("INJECT", inject)],
                          cwd=HERE.parent, capture_output=True, text=True,
                          timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr
    return {r["workload"]: r for r in map(json.loads, proc.stdout.splitlines())}


def _check_emitted(runs, declared):
    for name in WORKLOADS:
        run = runs[name]
        assert run["code"] == 0
        result = json.loads(run["lines"][-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, run["lines"]
        assert result["attempted"] >= 1
        got = result["metrics"]
        assert list(got) == [m["name"] for m in declared], name
        for metric in declared:
            entry = got[metric["name"]]
            assert entry["unit"] == metric["unit"], metric["name"]
            assert math.isfinite(entry["value"]), metric["name"]
        for metric in declared:
            assert any(line.startswith(metric["name"] + " = ")
                       for line in run["lines"]), metric["name"]
        assert any(line.startswith("fail_ratio = 0/") for line in run["lines"])
        assert run["lines"][0].startswith(f"# workload={name} seed=7")


def test_benchmark_json_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_every_end_to_end_metric_is_emitted_with_its_unit():
    _check_emitted(_run_tiny(0), SPEC["end_to_end"])


@pytest.fixture(scope="module")
def traced_runs():
    return _run_tiny(1)


def test_every_per_layer_metric_is_emitted_with_its_unit(traced_runs):
    _check_emitted(traced_runs, SPEC["per_layer"])
    shares = {w: json.loads(traced_runs[w]["lines"][-1])["metrics"] for w in WORKLOADS}
    assert shares["full_sim"]["dynamics.simulate.full.steps"]["value"] > 0
    assert shares["attain_multi"]["numerics.newton_system.calls"]["value"] > 0
    assert shares["cli_batch"]["scenario.load_scenario.calls"]["value"] > 0


def test_per_layer_counts_are_per_pass(traced_runs):
    twice = _run_tiny(1, TWO_PASSES)
    counted = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")]
    for name in WORKLOADS:
        one = json.loads(traced_runs[name]["lines"][-1])
        two = json.loads(twice[name]["lines"][-1])
        assert two["attempted"] == 2 * one["attempted"], name
        for metric in counted:
            assert two["metrics"][metric] == one["metrics"][metric], (name, metric)
        assert any(one["metrics"][m]["value"] > 0 for m in counted), name


def test_injected_wrong_answers_raise_fail_ratio():
    runs = _run_tiny(0, WRONG_ANSWERS)
    for name in WORKLOADS:
        result = json.loads(runs[name]["lines"][-1])
        assert not result["correct"], name
        assert 0 < result["failed"] <= result["attempted"], name
        assert any(line.startswith("FAILED") for line in runs[name]["lines"]), name


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

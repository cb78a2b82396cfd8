"""Property test of the command line: a bundled scenario with a few numbers
or the deception block edited, run through one analysis command with
arbitrary gain flags, must end in a result (exit 0) or a classified failure
(exit 2 or 3), with ``error.json`` present exactly when the exit is nonzero.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deceptive_nes.cli import main
from deceptive_nes.scenario import bundled_scenario_path

BUNDLED = {name: json.loads(bundled_scenario_path(name).read_text())
           for name in ("three_firm_deception", "three_firm_nominal")}
# Most commands need a deception block, so the scenario with one is drawn
# three times as often.
SCENARIOS = ["three_firm_deception"] * 3 + ["three_firm_nominal"]

NUMBERS = [("market", "resistance", i) for i in range(3)] \
    + [("market", "marginal_cost", i) for i in range(3)] \
    + [("market", "total_demand"), ("market", "own_curvature", "3")] \
    + [("tuning", "gain", i) for i in range(3)] \
    + [("deception", "eps")] \
    + [("deception", "deceivers", 0, key) for key in ("cost_ref", "eps_rate")]

# Ordinary values next to the extremes a scenario may legally hold, and a
# few it may not.
FLOATS = st.floats(0.1, 100.0) | st.floats(0.1, 100.0) | st.sampled_from(
    [-1.0, 0.0, 1e-300, 5e-324, 1e300, -1e300, 1e9, -1e9, 1e-9])


@st.composite
def deceiver(draw):
    player = draw(st.integers(1, 3))
    return {"player": player,
            "victims": draw(st.lists(st.sampled_from([j for j in (1, 2, 3) if j != player]),
                                     min_size=1, max_size=2, unique=True)),
            "cost_ref": draw(st.sampled_from([-1200.0, -300.0, 0.0, 1e9, -1e9]))}


DECEIVERS = st.lists(deceiver(), min_size=1, max_size=2,
                     unique_by=lambda d: d["player"])

def flag(name):
    """A gain flag with its value attached (``--delta=-inf``) or apart
    (``--delta -inf``); both forms must read a leading ``-`` as a value."""
    return lambda v: st.sampled_from([[f"{name}={v}"], [name, v]])


DELTA = (st.sampled_from(["2.486", "-3.5", "6.1", "5.631716138867322"])
         | st.sampled_from(["0", "1e300", "nan", "inf", "-inf"])
         ).flatmap(flag("--delta"))
GRID = (st.sampled_from(["0:7:0.5", "-10:10:0.01", "5.631716138867322:10:0.5", "2:2:1"])
        | st.builds(lambda lo, hi, step: f"{lo}:{hi}:{step}",
                    st.sampled_from(["0", "1e300", "-1e308", "nan", "-inf"]),
                    st.sampled_from(["7", "1e308", "inf"]),
                    st.sampled_from(["1e-9", "0", "-1", "inf"]))
        | st.sampled_from(["oops", "1:2", "1:2:3:4"])
        ).flatmap(flag("--delta-grid"))
# The gain flags each command reads, and now and then one it refuses.
FLAGS = {
    "nash": st.just([]),
    "attain": st.just([]),
    "stability": st.just([]) | DELTA | GRID,
    "deceptive-game": st.just([]) | DELTA,
    "sweep": GRID,
}
MISUSED = st.builds(lambda a, b: a + b, DELTA | st.just([]), GRID | st.just([]))


@st.composite
def documents(draw):
    doc = copy.deepcopy(BUNDLED[draw(st.sampled_from(SCENARIOS))])
    for path in draw(st.lists(st.sampled_from(NUMBERS), max_size=2)):
        if path[0] == "deception" and "deception" not in doc:
            continue
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = draw(FLOATS)
    if draw(st.integers(0, 3)) == 0:
        doc["deception"] = {"eps": 1e-4, "deceivers": draw(DECEIVERS)}
    return doc


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = draw(MISUSED) if draw(st.integers(0, 7)) == 0 else draw(FLAGS[command])
    return command, flags


# Extreme markets overflow on their way to a classified failure.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(doc=documents(), invocation=invocations())
def test_cli_ends_in_a_result_or_a_classified_failure(doc, invocation):
    command, flags = invocation
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "scenario.json"
        scenario.write_text(json.dumps(doc))
        out = Path(tmp) / "out"
        argv = [command, f"--scenario={scenario}", f"--out={out}", *flags]
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 2, 3), (code, argv, doc)
        produced = sorted(p.name for p in out.iterdir())
        assert ("error.json" in produced) == (code != 0), (code, produced, argv, doc)
        if code == 0:
            assert produced in (["summary.json"], ["sweep.csv"]), (produced, argv)
        if "summary.json" in produced:
            # strict JSON: a NaN or an infinity is a numerical failure
            json.loads((out / "summary.json").read_text(),
                       parse_constant=lambda name: pytest.fail(f"{name} in {argv}"))

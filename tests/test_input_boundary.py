"""The input boundary, pinned: what the scenario loader and the CLI answer.

A one-edit catalogue of the bundled deception scenario (with an ``initial``
block, so every field is covered) pins the loader's answer to each edit:
every key deleted, or its value replaced by each of a fixed set of JSON
values.  A refusal is recorded as its ``(kind, path, message)`` and an
accepted document as its :meth:`Scenario.to_dict`; the whole list is pinned
by its sha256, and one explicit case per failure kind shows what it holds.
The text of every ``-h`` and the ``error.json`` of the flag refusals are
pinned byte for byte, and a sweep of extreme flag values on both bundled
scenarios ends each run in a result or a classified failure.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import sys

import pytest

from deceptive_nes import cli
from deceptive_nes.scenario import (
    ScenarioError,
    bundled_scenario_path,
    load_scenario,
    scenario_from_dict,
)

BASE = json.loads(bundled_scenario_path("three_firm_deception").read_text())
BASE["initial"] = {"u": [40.0, 45.0, 50.0], "delta": [0.5], "u_offset": 0.0}
DELETE = "<deleted>"

#: What a field is replaced by: each JSON type, the edges of every check
#: (zero, negatives, integers past a float or the step cap, NaN and the
#: infinities json.loads reads) and values shaped like the scenario's own.
VALUES = [
    None, True, False, 0, 1, 2, 3, 4, -1, 16, 10**8, 10**400,
    0.0, 0.5, -0.5, 1e-320, 1e308, float("nan"), float("inf"), -float("inf"),
    "", "x", "3", "averaged",
    [], [1.0], [1.0, 2.0], [0.5, 0.5, 0.5], [1, 2, 3], ["x", 1, 1],
    {}, {"1": 0.5}, {"num": 6346, "den": 1}, {"num": 1, "den": 0},
    {"player": 2, "victims": [3], "cost_ref": 0.0},
    [{"player": 1, "victims": [3], "cost_ref": 0.0}] * 2,
]


def _paths(node, prefix=()):
    """Every key and list position of a JSON document, outermost first."""
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _edited(path, value):
    doc = copy.deepcopy(BASE)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)
    return doc


def _answer(doc) -> list:
    try:
        return ["ok", scenario_from_dict(doc).to_dict()]
    except ScenarioError as exc:
        return [exc.kind, exc.path, str(exc)]


def _catalogue() -> list:
    return [
        [list(path), repr(value), *_answer(_edited(path, value))]
        for path in _paths(BASE) for value in [DELETE, *VALUES]
    ]


def test_one_edit_catalogue_of_the_bundled_scenario_is_pinned():
    catalogue = _catalogue()
    assert len(catalogue) == 2035
    text = json.dumps(catalogue, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "93fe5c1da190ad6188c94cd22fb79ac9bc49026365cfc1642c621059564cb0ff"


#: (edit path, new value, kind, JSON path, message): one per failure kind.
CASES = [
    (("tuning", "gain"), DELETE,
     "missing-field", "$.tuning.gain",
     "$.tuning.gain: required field is missing [missing-field]"),
    (("deception", "deceivers", 0, "victims"), [],
     "missing-field", "$.deception.deceivers[0].victims",
     "$.deception.deceivers[0].victims: victim list is empty [missing-field]"),
    (("market", "total_demand"), "x",
     "bad-type", "$.market.total_demand",
     "$.market.total_demand: expected a number, got str [bad-type]"),
    (("market", "own_curvature"), {"x": 1.0},
     "bad-type", "$.market.own_curvature.x",
     "$.market.own_curvature.x: player key must be an integer string [bad-type]"),
    (("tuning", "omega"), float("nan"),
     "non-finite", "$.tuning.omega",
     "$.tuning.omega: must be a finite number, got nan [non-finite]"),
    (("tuning", "omega_ratio"),
     [{"num": 1, "den": 2**600}, {"num": 1, "den": 3**400}, {"num": 1, "den": 1}],
     "non-finite", "$.tuning.omega_ratio",
     "$.tuning.omega_ratio: the common probing period of these ratios overflows a float [non-finite]"),
    (("tuning", "omega_ratio", 0, "den"), 0,
     "nonpositive-parameter", "$.tuning.omega_ratio[0].den",
     "$.tuning.omega_ratio[0].den: denominator must be positive [nonpositive-parameter]"),
    (("deception", "deceivers", 0, "victims", 0), 4,
     "index-out-of-range", "$.deception.deceivers[0].victims[0]",
     "$.deception.deceivers[0].victims[0]: player index 4 outside 1..3 [index-out-of-range]"),
    (("sim", "oversampling"), 10**8,
     "out-of-range", "$.sim.oversampling",
     "$.sim.oversampling: must be at most 30000000 [out-of-range]"),
    (("market", "resistance"), [1.0],
     "bad-market", "$.market.resistance",
     "$.market.resistance: need at least two firms [bad-market]"),
    (("initial", "delta"), [1.0, 2.0],
     "length-mismatch", "$.initial.delta",
     "$.initial.delta: 2 entries for 1 deceivers [length-mismatch]"),
    (("tuning", "omega_ratio", 1), {"num": 6346, "den": 1},
     "duplicate-frequency", "$.tuning.omega_ratio",
     "$.tuning.omega_ratio: frequency ratios must be pairwise distinct [duplicate-frequency]"),
    (("deception", "deceivers", 0, "player"), 3,
     "self-victim", "$.deception.deceivers[0].victims",
     "$.deception.deceivers[0].victims: player 3 cannot deceive itself [self-victim]"),
    (("deception", "deceivers"), [{"player": 1, "victims": [3], "cost_ref": 0.0}] * 2,
     "duplicate-deceiver", "$.deception.deceivers[1].player",
     "$.deception.deceivers[1].player: player 1 listed twice [duplicate-deceiver]"),
    (("sim", "model"), "exact",
     "bad-model", "$.sim.model",
     "$.sim.model: model must be one of full, averaged, reduced, boundary [bad-model]"),
]


@pytest.mark.parametrize("path, value, kind, where, message", CASES,
                         ids=[c[2] + ":" + c[3] for c in CASES])
def test_each_failure_kind_names_its_path_and_message(path, value, kind, where, message):
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(_edited(path, value))
    assert (info.value.kind, info.value.path, str(info.value)) == (kind, where, message)


def test_unparsable_json_is_a_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"market": [1, }')
    with pytest.raises(ScenarioError) as info:
        load_scenario(path)
    assert (info.value.kind, str(info.value)) == (
        "parse-error", "$ (line 1, column 16): Expecting value [parse-error]")


HELP = {
    "": """\
usage: deceptive-nes [-h]
                     {nash,stability,attain,simulate,deceptive-game,sweep} ...

Oligopoly pricing games under deceptive equilibrium seeking

positional arguments:
  {nash,stability,attain,simulate,deceptive-game,sweep}
    nash                deception-free Nash prices, costs and profits
    stability           stability-set membership at one delta or over a grid
    attain              solve for deceiver gains that hit the reference costs
    simulate            integrate one dynamical model and record a trajectory
    deceptive-game      construct and verify the victims' effective game
    sweep               tabulate equilibrium costs and stability over a delta
                        grid

options:
  -h, --help            show this help message and exit
""",
    "nash": """\
usage: deceptive-nes nash [-h] --scenario SCENARIO --out OUT [--delta DELTA]
                          [--delta-grid LO:HI:STEP]

options:
  -h, --help            show this help message and exit
  --scenario SCENARIO   scenario JSON file
  --out OUT             output directory
  --delta DELTA         deceiver gain (single-deceiver scenarios)
  --delta-grid LO:HI:STEP
                        inclusive gain grid
""",
    "stability": """\
usage: deceptive-nes stability [-h] --scenario SCENARIO --out OUT
                               [--delta DELTA] [--delta-grid LO:HI:STEP]

options:
  -h, --help            show this help message and exit
  --scenario SCENARIO   scenario JSON file
  --out OUT             output directory
  --delta DELTA         deceiver gain (single-deceiver scenarios)
  --delta-grid LO:HI:STEP
                        inclusive gain grid
""",
    "attain": """\
usage: deceptive-nes attain [-h] --scenario SCENARIO --out OUT [--delta DELTA]
                            [--delta-grid LO:HI:STEP]

options:
  -h, --help            show this help message and exit
  --scenario SCENARIO   scenario JSON file
  --out OUT             output directory
  --delta DELTA         deceiver gain (single-deceiver scenarios)
  --delta-grid LO:HI:STEP
                        inclusive gain grid
""",
    "simulate": """\
usage: deceptive-nes simulate [-h] --scenario SCENARIO --out OUT
                              [--delta DELTA] [--delta-grid LO:HI:STEP]
                              [--model {full,averaged,reduced,boundary}]
                              [--freq-scale FREQ_SCALE]

options:
  -h, --help            show this help message and exit
  --scenario SCENARIO   scenario JSON file
  --out OUT             output directory
  --delta DELTA         deceiver gain (single-deceiver scenarios)
  --delta-grid LO:HI:STEP
                        inclusive gain grid
  --model {full,averaged,reduced,boundary}
                        override the scenario's model kind
  --freq-scale FREQ_SCALE
                        override the scenario's frequency scale
""",
    "deceptive-game": """\
usage: deceptive-nes deceptive-game [-h] --scenario SCENARIO --out OUT
                                    [--delta DELTA] [--delta-grid LO:HI:STEP]

options:
  -h, --help            show this help message and exit
  --scenario SCENARIO   scenario JSON file
  --out OUT             output directory
  --delta DELTA         deceiver gain (single-deceiver scenarios)
  --delta-grid LO:HI:STEP
                        inclusive gain grid
""",
    "sweep": """\
usage: deceptive-nes sweep [-h] --scenario SCENARIO --out OUT [--delta DELTA]
                           [--delta-grid LO:HI:STEP]

options:
  -h, --help            show this help message and exit
  --scenario SCENARIO   scenario JSON file
  --out OUT             output directory
  --delta DELTA         deceiver gain (single-deceiver scenarios)
  --delta-grid LO:HI:STEP
                        inclusive gain grid
""",
}


@pytest.mark.parametrize("command", list(HELP))
def test_help_text_is_pinned(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        cli.main([*command.split(), "-h"])
    assert info.value.code == 0
    assert capsys.readouterr().out == HELP[command]


#: (command line after --scenario and --out, error.json)
FLAG_REFUSALS = [
    (["nash", "--delta", "1"],
     '{\n  "error": "CommandError",\n  "kind": "validation",\n  "message": "nash does not take --delta"\n}\n'),
    (["stability", "--delta", "1", "--delta-grid", "0:1:0.5"],
     '{\n  "error": "CommandError",\n  "kind": "validation",\n  "message": "--delta and --delta-grid exclude each other"\n}\n'),
    (["stability", "--delta-grid", "1:0:1"],
     '{\n  "error": "CommandError",\n  "kind": "validation",\n  "message": "--delta-grid needs step > 0 and hi >= lo"\n}\n'),
    (["sweep"],
     '{\n  "error": "CommandError",\n  "kind": "validation",\n  "message": "sweep requires --delta-grid lo:hi:step"\n}\n'),
]


@pytest.mark.parametrize("argv, error", FLAG_REFUSALS,
                         ids=[" ".join(a) for a, _ in FLAG_REFUSALS])
def test_flag_refusals_write_pinned_error_json(tmp_path, capsys, argv, error):
    scenario = bundled_scenario_path("three_firm_deception")
    out = tmp_path / "out"
    assert cli.main([argv[0], "--scenario", str(scenario), "--out", str(out),
                     *argv[1:]]) == 2
    assert (out / "error.json").read_text() == error


#: The flag values of the sweep: the float extremes, both signs, and zero.
EXTREMES = ["1e308", "-1e308", "1e-308", "-1e-308", repr(sys.float_info.max), "5e-324", "0"]


def _extreme_runs(value: str) -> list[list[str]]:
    """Every command line of the sweep that gives a flag ``value``."""
    return [*([c, f"--delta={value}"] for c in ("stability", "deceptive-game")),
            *([c, f"--delta-grid={value}:{value}:1"] for c in ("stability", "sweep")),
            *(["simulate", f"--model={m}", f"--freq-scale={value}"]
              for m in ("full", "averaged", "reduced", "boundary"))]


@pytest.mark.parametrize("name", ["three_firm_deception", "three_firm_nominal"])
def test_extreme_flag_values_end_in_a_result_or_a_classified_failure(tmp_path, name):
    # Each gain flag and --freq-scale at each extreme, on each command that
    # reads it: exit 0, 2 or 3, and no warning (an error in this suite,
    # which would end the run as an internal failure, exit 1).
    scenario = bundled_scenario_path(name)
    runs = [argv for value in EXTREMES for argv in _extreme_runs(value)]
    assert len(runs) == 56
    failed = []
    for i, argv in enumerate(runs):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([argv[0], f"--scenario={scenario}", f"--out={tmp_path / str(i)}",
                             *argv[1:]])
        if code not in (0, 2, 3) or "Warning" in err.getvalue():
            failed.append((code, argv, err.getvalue().strip().splitlines()[-1:]))
    assert not failed, failed


@pytest.mark.parametrize("keys, bad", [
    ({"3": 2.0, "03": 5.0}, "03"),
    ({"1_0": 2.0}, "1_0"),
    ({" 2 ": 2.0}, " 2 "),
    ({"+2": 2.0}, "+2"),
])
def test_own_curvature_keys_are_plain_decimal_player_numbers(keys, bad):
    # int() also reads "03", "1_0", " 2 " and "+2"; a second spelling of a
    # player would silently override the first.
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(_edited(("market", "own_curvature"), keys))
    number = int(bad)
    assert (info.value.kind, info.value.path, str(info.value)) == (
        "bad-type", f"$.market.own_curvature.{bad}",
        f"$.market.own_curvature.{bad}: player key must be written as {number} [bad-type]")


def test_own_curvature_keys_round_trip():
    doc = _edited(("market", "own_curvature"), {"1": 0.5, "3": 2.0})
    scenario = scenario_from_dict(doc)
    assert scenario.own_curvature == {0: 0.5, 2: 2.0}
    assert scenario.to_dict()["market"]["own_curvature"] == {"1": 0.5, "3": 2.0}
    assert scenario_from_dict(scenario.to_dict()).to_dict() == scenario.to_dict()

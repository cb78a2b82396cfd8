"""Scenario files and the command-line front end."""

from __future__ import annotations

import copy
import csv
import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from deceptive_nes import (
    ScenarioError,
    bundled_scenario_path,
    cli,
    in_stability_set,
    is_hurwitz,
    load_scenario,
    numerics,
    perturbed_pseudogradient,
    scenario_from_dict,
    write_scenario,
)
from deceptive_nes.cli import main
from deceptive_nes.deception import hurwitz_verdict, loop_abscissa

GOOD = {
    "market": {
        "resistance": [0.67, 0.36, 0.8],
        "marginal_cost": [20.0, 29.0, 30.0],
        "total_demand": 100.0,
    },
    "tuning": {
        "amplitude": [0.04, 0.03, 0.05],
        "gain": [0.02, 0.019, 0.22],
        "omega": 1.0,
        "omega_ratio": [
            {"num": 6346, "den": 1},
            {"num": 4089, "den": 1},
            {"num": 6115, "den": 1},
        ],
    },
    "deception": {
        "eps": 1e-4,
        "deceivers": [
            {"player": 1, "victims": [3], "eps_rate": 1.0,
             "cost_ref": -1200.0},
        ],
    },
    "sim": {"model": "full", "horizon": 1.0, "stride": 8,
            "oversampling": 32, "freq_scale": 0.1},
}


def _mutate(path_keys, value):
    doc = copy.deepcopy(GOOD)
    node = doc
    for key in path_keys[:-1]:
        node = node[key]
    node[path_keys[-1]] = value
    return doc


# ── parsing and validation ───────────────────────────────────────────────────

def test_good_document_loads():
    sc = scenario_from_dict(GOOD)
    assert sc.params.n_players == 3
    assert sc.topology.deceivers == (0,)      # players are 1-based on disk
    assert sc.topology.victims == ((2,),)
    assert sc.topology.cost_refs == (-1200.0,)
    assert sc.sim.model == "full"


def test_bundled_scenarios_load():
    for name in ("three_firm_deception", "three_firm_nominal"):
        sc = load_scenario(bundled_scenario_path(name))
        assert sc.params.n_players == 3
        game = sc.game()
        # both bundles pin the tabulated own-curvature for firm 3
        assert abs(game.q[2, 2, 2] - 2.1779947427713107) < 1e-15


def test_duplicate_victim_is_refused_at_its_path():
    doc = _mutate(["deception", "deceivers"],
                  [{"player": 1, "victims": [3, 3], "cost_ref": -1.0}])
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(doc)
    assert (exc.value.kind, exc.value.path, str(exc.value)) == (
        "duplicate-victim", "$.deception.deceivers[0].victims[1]",
        "$.deception.deceivers[0].victims[1]: player 3 listed twice [duplicate-victim]")


def test_error_kinds():
    missing = copy.deepcopy(GOOD)
    del missing["market"]
    cases = [
        (missing, "missing-field"),
        (_mutate(["market"], None), "bad-type"),
        (_mutate(["market", "resistance"], "abc"), "bad-type"),
        (_mutate(["market", "total_demand"], -5.0), "nonpositive-parameter"),
        (_mutate(["market", "marginal_cost"], [20.0, 29.0]),
         "length-mismatch"),
        (_mutate(["tuning", "omega_ratio"],
                 [{"num": 2, "den": 1}, {"num": 2, "den": 1},
                  {"num": 3, "den": 1}]), "duplicate-frequency"),
        (_mutate(["deception", "deceivers"],
                 [{"player": 1, "victims": [1], "cost_ref": -1.0}]),
         "self-victim"),
        (_mutate(["deception", "deceivers"],
                 [{"player": 1, "victims": [3], "cost_ref": -1.0},
                  {"player": 1, "victims": [2], "cost_ref": -2.0}]),
         "duplicate-deceiver"),
        (_mutate(["deception", "deceivers"],
                 [{"player": 4, "victims": [3], "cost_ref": -1.0}]),
         "index-out-of-range"),
        (_mutate(["sim", "model"], "implicit"), "bad-model"),
        (_mutate(["market", "resistance"], [0.67]), "bad-market"),
    ]
    for doc, kind in cases:
        with pytest.raises(ScenarioError) as exc:
            scenario_from_dict(doc)
        assert exc.value.kind == kind, (
            f"expected kind {kind!r}, got {exc.value.kind!r}: {exc.value}"
        )


def test_parse_error_reports_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"market": [,]}')
    with pytest.raises(ScenarioError) as exc:
        load_scenario(bad)
    assert exc.value.kind == "parse-error"
    assert "line" in str(exc.value)


def test_round_trip(tmp_path):
    sc = scenario_from_dict(GOOD)
    out = tmp_path / "copy.json"
    write_scenario(sc, out)
    again = load_scenario(out)
    assert again.to_dict() == sc.to_dict()
    # writing the reloaded scenario reproduces the file byte for byte
    out2 = tmp_path / "copy2.json"
    write_scenario(again, out2)
    assert out.read_bytes() == out2.read_bytes()


def test_missing_deception_block_means_no_deceivers():
    doc = copy.deepcopy(GOOD)
    del doc["deception"]
    sc = scenario_from_dict(doc)
    assert sc.topology.n_deceivers == 0


# ── CLI commands ─────────────────────────────────────────────────────────────

@pytest.fixture(scope="module")
def scen_path():
    return str(bundled_scenario_path("three_firm_deception"))


@pytest.fixture(scope="module")
def nominal_path():
    return str(bundled_scenario_path("three_firm_nominal"))


def _summary(out_dir):
    with open(out_dir / "summary.json") as fh:
        return json.load(fh)


def test_cli_nash(tmp_path, scen_path):
    out = tmp_path / "nash"
    assert main(["nash", "--scenario", scen_path, "--out", str(out)]) == 0
    doc = _summary(out)
    assert np.allclose(doc["x_star"], [49.55, 57.13, 47.9], atol=0.01)
    assert np.allclose(doc["profits"], [950.7, 1092.0, 239.2], atol=0.5)


def test_cli_nash_byte_identical_reruns(tmp_path, scen_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["nash", "--scenario", scen_path, "--out", str(a)]) == 0
    assert main(["nash", "--scenario", scen_path, "--out", str(b)]) == 0
    assert (a / "summary.json").read_bytes() \
        == (b / "summary.json").read_bytes()


def test_cli_attain(tmp_path, scen_path):
    out = tmp_path / "attain"
    assert main(["attain", "--scenario", scen_path, "--out", str(out)]) == 0
    doc = _summary(out)
    assert doc["attainable"] is True
    assert doc["in_delta"] is True
    assert abs(doc["delta_star"][0] - 2.486) < 0.005
    assert abs(doc["lambda"][0][0] + 190.0) < 2.0
    assert abs(doc["profits"][0] - 1200.0) < 1e-6


def test_cli_stability_single(tmp_path, scen_path):
    out = tmp_path / "stab"
    assert main(["stability", "--scenario", scen_path, "--out", str(out),
                 "--delta", "2.486"]) == 0
    doc = _summary(out)
    assert doc["in_delta"] is True
    assert doc["spectral_abscissa"] < 0.0


def test_cli_stability_grid(tmp_path, scen_path):
    out = tmp_path / "stabg"
    assert main(["stability", "--scenario", scen_path, "--out", str(out),
                 "--delta-grid", "0:7:1"]) == 0
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    flags = [r["in_delta"] for r in rows]
    assert flags[:6] == ["true"] * 6 and flags[6:] == ["false"] * 2
    abscissas = [float(r["spectral_abscissa"]) for r in rows]
    assert abscissas == sorted(abscissas), "abscissa must rise with delta"


def test_cli_stability_grid_verdicts_match_is_hurwitz(tmp_path, scen_path):
    # A grid across the stability boundary near 5.6317: every in_delta the
    # grid derives from its spectral abscissas is is_hurwitz at that point.
    out = tmp_path / "edge"
    spec = "5.6312:5.6322:0.00001"
    assert main(["stability", "--scenario", scen_path, "--out", str(out),
                 "--delta-grid", spec]) == 0
    with open(out / "sweep.csv", newline="") as fh:
        flags = [r["in_delta"] for r in csv.DictReader(fh)]
    scenario = load_scenario(scen_path)
    game, topo, gains = scenario.game(), scenario.topology, scenario.tuning.gain
    expected = [str(is_hurwitz(-(gains[:, None] * perturbed_pseudogradient(
        game, topo, [d]).qbar))).lower() for d in cli._parse_grid(spec)]
    assert flags == expected
    assert "true" in flags and "false" in flags


def test_cli_sweep_handles_singular_point(tmp_path, scen_path):
    out = tmp_path / "sweep"
    # 5.631716… makes the perturbed matrix exactly singular; the row must
    # come out as NaN, not crash the run.
    assert main(["sweep", "--scenario", scen_path, "--out", str(out),
                 "--delta-grid", "5.631716138867322:5.731716138867322:0.05"]
                ) == 0
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert math.isnan(float(rows[0]["J_1"]))
    assert rows[0]["in_delta"] == "false"
    assert not math.isnan(float(rows[1]["J_1"]))


def _per_row_csv(names, columns, ok):
    """Reference for ``sweep.csv``: one f-string per field and row."""
    lines = [",".join([*names, "in_delta"])]
    for values, flag in zip(zip(*columns), ok):
        lines.append(",".join(f"{v:.12g}" for v in values) + f",{str(flag).lower()}")
    return "\n".join(lines) + "\n"


def test_grid_csv_writer_matches_a_per_row_formatter(tmp_path):
    delta = np.array([-2.5, -0.0, 1e-300, 5.631716138867322, 123456789012.5, 7.0])
    costs = np.array([[-1200.0, np.nan, 1 / 3], [np.inf, -np.inf, 2.0 / 3e7],
                      [0.1, 0.2, 0.3], [np.nan] * 3, [1e16, -1e-16, 5e-324],
                      [999999999999.5, 0.5, -7.25]])
    ok = np.array([True, False, True, False, False, True])
    cli._write_grid_csv(tmp_path, ["delta", "J_1", "J_2", "J_3"], [delta, *costs.T], ok)
    assert (tmp_path / "sweep.csv").read_text() \
        == _per_row_csv(["delta", "J_1", "J_2", "J_3"], [delta, *costs.T], ok)


def test_cli_grid_csvs_match_a_per_row_formatter(tmp_path, scen_path):
    # byte for byte against the library's numbers: negative gains, both
    # verdicts, and the singular point whose costs are NaN
    scenario = load_scenario(scen_path)
    game, topo, gains = scenario.game(), scenario.topology, scenario.tuning.gain
    seen = ""
    for i, spec in enumerate(["5.631716138867322:5.731716138867322:0.05", "-2:7:0.5"]):
        grid = cli._parse_grid(spec)
        pert = perturbed_pseudogradient(game, topo, grid[:, None])
        m = -(gains[:, None] * pert.qbar)
        sa = loop_abscissa(pert.qbar, gains)
        costs = game.costs(numerics.solve_stack(pert.qbar, -pert.bbar))
        ok = in_stability_set(pert, gains) & ~np.isnan(costs).any(axis=1)
        expected = {
            "stability": _per_row_csv(["delta", "spectral_abscissa"], [grid, sa],
                                      hurwitz_verdict(m, sa)),
            "sweep": _per_row_csv(["delta", "J_1", "J_2", "J_3"], [grid, *costs.T], ok),
        }
        for command, text in expected.items():
            out = tmp_path / f"{command}{i}"
            assert main([command, "--scenario", scen_path, "--out", str(out),
                         f"--delta-grid={spec}"]) == 0
            assert (out / "sweep.csv").read_text() == text, (command, spec)
            seen += text
    assert all(word in seen for word in (",nan,", "true", "false", "\n-2,"))


def test_cli_sweep_profits_cross_reference(tmp_path, scen_path):
    out = tmp_path / "sweep2"
    assert main(["sweep", "--scenario", scen_path, "--out", str(out),
                 "--delta-grid", "0:2.5:0.5"]) == 0
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["delta"] for r in rows] == ["0", "0.5", "1", "1.5", "2", "2.5"]
    # deceiver profit grows monotonically toward the 1200 target here
    j1 = [float(r["J_1"]) for r in rows]
    assert all(a > b for a, b in zip(j1, j1[1:]))


def test_cli_simulate_reduced(tmp_path, scen_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", scen_path, "--out", str(out),
                 "--model", "reduced"]) == 0
    doc = _summary(out)
    assert doc["model"] == "reduced"
    assert doc["time_axis"] == "tau_star"
    assert abs(doc["delta_star"][0] - 2.4855) < 1e-3
    assert (out / "trajectory.csv").exists()
    with open(out / "trajectory.csv", newline="") as fh:
        header = fh.readline().strip().split(",")
    assert header[0] == "t" and "delta_1" in header


def test_cli_deceptive_game_default_delta(tmp_path, scen_path):
    # without --delta the command works at the attainability solution
    out = tmp_path / "dg"
    assert main(["deceptive-game", "--scenario", scen_path,
                 "--out", str(out)]) == 0
    doc = _summary(out)
    assert abs(doc["delta"][0] - 2.4855) < 1e-3
    assert doc["nash_verdict"]["is_ne"] is True
    assert doc["desirability"][0]["victim"] == 3
    assert doc["desirability"][0]["direction"] == "raises price"
    assert abs(doc["sigma"][2] + 378.0) < 0.5


def test_cli_freq_scale_and_model_override(tmp_path, scen_path):
    out = tmp_path / "fs"
    assert main(["simulate", "--scenario", scen_path, "--out", str(out),
                 "--model", "averaged", "--freq-scale", "0.2"]) == 0
    doc = _summary(out)
    assert doc["model"] == "averaged"
    # tau axis: native dt is scale-free but sample count tracks omega
    assert doc["time_axis"] == "tau"


@pytest.mark.parametrize("value", ["-1e-3", "-inf"])
def test_cli_negative_freq_scale_after_a_space_reaches_its_check(tmp_path, scen_path, value):
    # argparse reads "-1e-3" as an option unless it is attached to its flag:
    # the spaced forms, flag written out or abbreviated, must answer with the
    # error.json of the attached form.
    errors = []
    for flags in (["--freq-scale=" + value], ["--freq-scale", value], ["--freq", value]):
        out = tmp_path / str(len(errors))
        assert main(["simulate", "--scenario", scen_path, "--out", str(out), *flags]) == 2
        errors.append((out / "error.json").read_bytes())
    assert errors[0] == errors[1] == errors[2]
    assert json.loads(errors[0])["message"] == \
        f"--freq-scale must be positive and finite, got {float(value)}"


# ── CLI failure modes ────────────────────────────────────────────────────────

def test_cli_missing_scenario_exits_2(tmp_path):
    out = tmp_path / "x"
    assert main(["nash", "--scenario", str(tmp_path / "none.json"),
                 "--out", str(out)]) == 2
    with open(out / "error.json") as fh:
        doc = json.load(fh)
    assert doc["kind"] == "validation"


def test_cli_unreadable_scenario_exits_2(tmp_path):
    out = tmp_path / "x"
    assert main(["nash", "--scenario", str(tmp_path), "--out", str(out)]) == 2
    with open(out / "error.json") as fh:
        doc = json.load(fh)
    assert doc["kind"] == "validation" and doc["error"] == "IsADirectoryError"


@pytest.mark.parametrize("below", [False, True])
def test_cli_out_that_cannot_be_a_directory_exits_2(tmp_path, scen_path, capsys, below):
    # no error.json can be written there: one line on stderr says why
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    out = taken / "out" if below else taken
    assert main(["nash", "--scenario", scen_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("deceptive-nes: --out: ") and err.count("\n") == 1, err
    assert taken.read_text() == "keep\n"


def test_cli_invalid_scenario_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_mutate(["market", "total_demand"], -1.0)))
    out = tmp_path / "y"
    assert main(["nash", "--scenario", str(bad), "--out", str(out)]) == 2
    with open(out / "error.json") as fh:
        doc = json.load(fh)
    assert doc["error"] == "ScenarioError"


def test_cli_numerical_failure_exits_3(tmp_path, scen_path):
    out = tmp_path / "z"
    code = main(["deceptive-game", "--scenario", scen_path,
                 "--out", str(out), "--delta", "5.631716138867322"])
    assert code == 3
    with open(out / "error.json") as fh:
        doc = json.load(fh)
    assert doc["kind"] == "numerical"
    assert doc["error"] == "SingularMatrixError"


@pytest.mark.parametrize("cost_ref, cause", [
    (-300.0, "no root qualifies"),
    (1e9, "no real root"),
])
def test_cli_deceptive_game_without_attainable_delta_exits_3(
        tmp_path, scen_path, cost_ref, cause):
    # Without --delta the command needs an attainable gain; a failed search
    # is a numerical failure, not a game built at its closest approach.
    with open(scen_path) as fh:
        doc = json.load(fh)
    doc["deception"]["deceivers"][0]["cost_ref"] = cost_ref
    scen = tmp_path / "unattainable.json"
    scen.write_text(json.dumps(doc))
    out = tmp_path / "dg"
    assert main(["deceptive-game", "--scenario", str(scen), "--out", str(out)]) == 3
    assert not (out / "summary.json").exists()
    with open(out / "error.json") as fh:
        err = json.load(fh)
    assert err["kind"] == "numerical" and cause in err["message"], err


@pytest.mark.parametrize("argv", [
    ["deceptive-game", "--delta", "nan"],
    ["stability", "--delta", "inf"],
    ["sweep", "--delta-grid", "0:inf:1"],
    ["sweep", "--delta-grid", "0:1:nan"],
    ["stability", "--delta-grid", "0:1e308:1e-308"],
    ["sweep", "--delta-grid", "0:100000:1"],
])
def test_cli_non_finite_or_oversized_gain_flags_exit_2(tmp_path, scen_path, argv):
    out = tmp_path / "flags"
    assert main([argv[0], "--scenario", scen_path, "--out", str(out)]
                + argv[1:]) == 2
    with open(out / "error.json") as fh:
        assert json.load(fh)["kind"] == "validation"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_overflowing_result_exits_3(tmp_path, scen_path):
    # Legal but enormous demand overflows the costs; summary.json must not
    # carry NaN or Infinity under exit 0.
    with open(scen_path) as fh:
        doc = json.load(fh)
    doc["market"]["total_demand"] = 1e300
    scen = tmp_path / "huge.json"
    scen.write_text(json.dumps(doc))
    out = tmp_path / "nash"
    assert main(["nash", "--scenario", str(scen), "--out", str(out)]) == 3
    assert not (out / "summary.json").exists()
    with open(out / "error.json") as fh:
        err = json.load(fh)
    assert err["kind"] == "numerical" and "non-finite" in err["message"], err


def test_cli_stability_at_a_gain_whose_bbar_overflows(tmp_path, capsys, scen_path):
    # delta = 1e308 overflows Bbar, which a verdict never reads: the finite
    # Qbar still gets its verdict, without a warning (an error in this suite)
    out = tmp_path / "huge"
    assert main(["stability", "--scenario", scen_path, "--out", str(out),
                 "--delta", "1e308"]) == 0
    assert capsys.readouterr().err == ""
    doc = _summary(out)
    assert doc["in_delta"] is False and math.isfinite(doc["spectral_abscissa"])


def test_cli_stability_at_a_gain_whose_qbar_overflows_exits_3(tmp_path, capsys,
                                                               scen_path):
    # tiny resistances make |pi| about 5e149, so Qbar(1e308) is not finite
    with open(scen_path) as fh:
        doc = json.load(fh)
    doc["market"]["resistance"] = [1e-150, 0.36, 1e-150]
    scen = tmp_path / "tiny.json"
    scen.write_text(json.dumps(doc))
    for argv in (["stability", "--delta", "1e308"], ["sweep", "--delta-grid", "1e308:1e308:1"]):
        out = tmp_path / argv[0]
        assert main([argv[0], "--scenario", str(scen), "--out", str(out), *argv[1:]]) == 3
        with open(out / "error.json") as fh:
            err = json.load(fh)
        assert err["kind"] == "numerical" and err["error"] == "ConvergenceError", err


def test_cli_gain_values_may_start_with_a_minus(tmp_path, scen_path):
    # argparse reads "-1:1:0.5" and "-inf" as options unless they are
    # attached to their flag; the space-separated forms must work too, with
    # the flag written out or abbreviated ("--del" is ambiguous between the
    # two gain flags, so "--delta" has no abbreviation).
    for flag in ("--delta-grid", "--delta-g", "--delta-"):
        out = tmp_path / f"grid{flag}"
        assert main(["sweep", "--scenario", scen_path, "--out", str(out),
                     flag, "-1:1:0.5"]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["delta"]) for r in rows] == [-1.0, -0.5, 0.0, 0.5, 1.0]
    out = tmp_path / "inf"
    assert main(["stability", "--scenario", scen_path, "--out", str(out),
                 "--delta", "-inf"]) == 2
    with open(out / "error.json") as fh:
        err = json.load(fh)
    assert err["kind"] == "validation" and "must be finite" in err["message"], err


@pytest.mark.parametrize("command", ["nash", "attain", "simulate"])
def test_cli_overflowing_market_exits_2(tmp_path, scen_path, command):
    # A legal resistance whose reciprocal overflows: the game cannot be
    # built, and the error names the input instead of a later symptom.
    with open(scen_path) as fh:
        doc = json.load(fh)
    doc["market"]["resistance"][0] = 5e-324
    scen = tmp_path / "tiny_resistance.json"
    scen.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([command, "--scenario", str(scen), "--out", str(out)]) == 2
    with open(out / "error.json") as fh:
        err = json.load(fh)
    assert err["kind"] == "validation" and err["error"] == "ValueError", err
    assert "resistance [5e-324, 0.36, 0.8]" in err["message"], err["message"]


def test_cli_flag_misuse_exits_2(tmp_path, scen_path, nominal_path):
    out = tmp_path / "w"
    assert main(["sweep", "--scenario", scen_path, "--out", str(out)]) == 2
    assert main(["sweep", "--scenario", scen_path, "--out", str(out),
                 "--delta-grid", "2:1:0.5"]) == 2
    assert main(["sweep", "--scenario", scen_path, "--out", str(out),
                 "--delta-grid", "oops"]) == 2
    assert main(["attain", "--scenario", nominal_path,
                 "--out", str(out)]) == 2
    assert main(["stability", "--scenario", scen_path, "--out", str(out),
                 "--delta", "1", "--delta-grid", "0:1:0.5", ]) in (0, 2)


@pytest.mark.parametrize("path_keys, value, argv", [
    (["sim", "horizon"], math.inf, ["simulate", "--model", "reduced"]),
    (["deception", "deceivers", 0, "cost_ref"], math.nan, ["attain"]),
    (["tuning", "omega"], math.inf, ["nash"]),
])
def test_cli_non_finite_scenario_number_exits_2(tmp_path, scen_path,
                                                path_keys, value, argv):
    # json accepts NaN and Infinity; the loader must refuse them.
    with open(scen_path) as fh:
        doc = json.load(fh)
    node = doc
    for key in path_keys[:-1]:
        node = node[key]
    node[path_keys[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([argv[0], "--scenario", str(bad), "--out", str(out)]
                + argv[1:]) == 2
    with open(out / "error.json") as fh:
        err = json.load(fh)
    assert err["kind"] == "validation"
    assert "non-finite" in err["message"]


@pytest.mark.parametrize("path_keys", [
    ["tuning", "omega_ratio", 0, "den"],
    ["tuning", "omega_ratio", 0, "num"],
    ["sim", "stride"],
    ["sim", "oversampling"],
])
def test_cli_integer_overflow_in_scenario_exits_2(tmp_path, scen_path,
                                                  path_keys):
    # Python integers have no size limit; a float computed from one does.
    with open(scen_path) as fh:
        doc = json.load(fh)
    node = doc
    for key in path_keys[:-1]:
        node = node[key]
    node[path_keys[-1]] = 10 ** 400
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(bad), "--out", str(out),
                 "--model", "reduced"]) == 2
    with open(out / "error.json") as fh:
        err = json.load(fh)
    assert err["kind"] == "validation" and err["error"] == "ScenarioError"


@pytest.mark.parametrize("path_keys, model", [
    (["sim", "freq_scale"], "full"),
    (["sim", "freq_scale"], "averaged"),
    (["sim", "freq_scale"], "reduced"),
    (["sim", "freq_scale"], "boundary"),
    (["sim", "horizon"], "reduced"),
    (["sim", "horizon"], "boundary"),
    (["deception", "eps"], "reduced"),
])
def test_cli_unrepresentable_step_or_horizon_exits_2(tmp_path, scen_path,
                                                     path_keys, model):
    # The smallest positive float passes the loader, but turns the native
    # step, horizon or common period into zero or infinity.
    with open(scen_path) as fh:
        doc = json.load(fh)
    doc["sim"]["horizon"] = 1.0
    doc[path_keys[0]][path_keys[1]] = 5e-324
    bad = tmp_path / "tiny.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(bad), "--out", str(out),
                 "--model", model]) == 2
    with open(out / "error.json") as fh:
        err = json.load(fh)
    assert err["kind"] == "validation" and err["error"] == "ValueError"
    assert "must be a positive finite float" in err["message"], err["message"]


@pytest.mark.parametrize("value", ["nan", "inf", "0"])
def test_cli_freq_scale_must_be_positive_and_finite(tmp_path, scen_path, value):
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", scen_path, "--out", str(out),
                 "--freq-scale", value]) == 2
    with open(out / "error.json") as fh:
        err = json.load(fh)
    assert err["error"] == "CommandError"
    assert err["message"] == f"--freq-scale must be positive and finite, got {float(value)}"


@pytest.mark.filterwarnings("error")
def test_cli_affine_averaged_run_at_a_tiny_omega_exits_2_without_a_warning(
        tmp_path, nominal_path, capsys):
    with open(nominal_path) as fh:
        doc = json.load(fh)
    doc["tuning"]["omega"] = 1e-320
    bad = tmp_path / "tiny.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(bad), "--out", str(out),
                 "--model", "averaged"]) == 2
    with open(out / "error.json") as fh:
        err = json.load(fh)
    assert err["kind"] == "validation"
    assert "integration step on the tau axis is 0" in err["message"]
    assert "Warning" not in capsys.readouterr().err


#: Firm 3's own curvature at which the nominal market's Q0 is singular
#: (pivot 2.8e-17), so it has no Nash prices to start from.
SINGULAR_Q33 = 0.2746734791661341


@pytest.mark.parametrize("model", ["full", "averaged", "boundary"])
def test_cli_simulate_from_given_prices_solves_no_nash_prices(tmp_path, nominal_path,
                                                               model):
    with open(nominal_path) as fh:
        doc = json.load(fh)
    doc["market"]["own_curvature"] = {"3": SINGULAR_Q33}
    doc["sim"]["horizon"] = 5.0
    path = tmp_path / "singular.json"
    argv = ["simulate", "--scenario", str(path), "--model", model]
    path.write_text(json.dumps(doc))
    assert main([*argv, "--out", str(tmp_path / "nash")]) == 3
    with open(tmp_path / "nash" / "error.json") as fh:
        assert "singular" in json.load(fh)["message"]
    doc["initial"] = {"u": [40, 45, 50]}
    path.write_text(json.dumps(doc))
    assert main([*argv, "--out", str(tmp_path / "given")]) == 0
    assert load_scenario(path).initial_state().u.tolist() == [40.0, 45.0, 50.0]


def test_cli_reduced_run_beside_a_pole_names_its_step_rule(tmp_path, scen_path):
    # Started beside the pole at delta = 5.6317, the reduced model's step
    # comes from a huge ||Lambda(delta0)||_inf, and the run needs more steps
    # than the cap; the refusal names the start gain and that norm.
    with open(scen_path) as fh:
        doc = json.load(fh)
    doc["initial"] = {"delta": [5.64]}
    pole = tmp_path / "pole.json"
    pole.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(pole), "--out", str(out),
                 "--model", "reduced"]) == 2
    with open(out / "error.json") as fh:
        err = json.load(fh)
    assert err["kind"] == "validation" and err["error"] == "ValueError"
    assert err["message"].startswith("the run needs "), err["message"]
    found = re.search(r"start gain delta0 = \[5\.64\], where "
                      r"\|\|Lambda\(delta0\)\|\|_inf = ([0-9.e+]+)$", err["message"])
    assert found and float(found.group(1)) > 1e8, err["message"]


def test_cli_unexpected_exception_writes_internal_error(tmp_path, scen_path,
                                                        monkeypatch):
    from deceptive_nes import cli

    def broken(scenario, out_dir, args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._HANDLERS, "nash", broken)
    out = tmp_path / "internal"
    assert main(["nash", "--scenario", scen_path, "--out", str(out)]) == 1
    with open(out / "error.json") as fh:
        err = json.load(fh)
    assert err == {"kind": "internal", "error": "RuntimeError",
                   "message": "boom"}


@pytest.mark.parametrize("argv", [
    ["nash", "--delta", "3"],
    ["attain", "--delta-grid", "0:1:0.5"],
    ["simulate", "--model", "reduced", "--delta", "1"],
    ["deceptive-game", "--delta-grid", "0:1:0.5"],
    ["sweep", "--delta", "1", "--delta-grid", "0:1:0.5"],
    ["stability", "--delta", "1", "--delta-grid", "0:1:0.5"],
])
def test_cli_rejects_flags_the_command_ignores(tmp_path, scen_path, argv):
    out = tmp_path / "flags"
    assert main([argv[0], "--scenario", scen_path, "--out", str(out)]
                + argv[1:]) == 2
    with open(out / "error.json") as fh:
        assert json.load(fh)["kind"] == "validation"
    assert not (out / "summary.json").exists()



def test_cli_parser_is_built_once_and_leaks_no_state(tmp_path, scen_path):
    # main() reuses one parser per process: every command must write the
    # same bytes as after a fresh parser, whatever the commands before it
    # set, a usage error (SystemExit 2) included.
    with open(scen_path) as fh:
        doc = json.load(fh)
    doc["sim"]["model"] = "averaged"   # a cheap model for `simulate` without --model
    scen = tmp_path / "averaged.json"
    scen.write_text(json.dumps(doc))
    sequence = [["simulate", "--model", "reduced"], ["simulate"],
                ["stability", "--delta", "2.1"], ["stability", "--delta-grid", "0:6:0.5"],
                ["simulate", "--model", "bogus"], ["stability", "--delta", "1.5"]]

    def run(argv, out):
        try:
            return main([argv[0], "--scenario", str(scen), "--out", str(out), *argv[1:]])
        except SystemExit as exc:
            return exc.code

    cli.build_parser.cache_clear()
    shared = [run(argv, tmp_path / "shared" / str(i)) for i, argv in enumerate(sequence)]
    assert cli.build_parser.cache_info().misses == 1
    fresh = []
    for i, argv in enumerate(sequence):
        cli.build_parser.cache_clear()
        fresh.append(run(argv, tmp_path / "fresh" / str(i)))
    assert shared == fresh == [0, 0, 0, 0, 2, 0]
    for i in range(len(sequence)):
        a, b = tmp_path / "shared" / str(i), tmp_path / "fresh" / str(i)
        files = sorted(p.name for p in a.glob("*"))
        assert files == sorted(p.name for p in b.glob("*")), sequence[i]
        assert files or i == 4, sequence[i]
        for name in files:
            assert (a / name).read_bytes() == (b / name).read_bytes(), (sequence[i], name)

def test_console_script_entry_point(tmp_path, scen_path):
    out = tmp_path / "console"
    proc = subprocess.run(
        [sys.executable, "-m", "deceptive_nes.cli", "nash",
         "--scenario", scen_path, "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (out / "summary.json").exists()

"""Every CLI artifact of the bundled scenarios, pinned by its sha256.

The commands are those of the benchmark's ``cli_batch`` workload with a
fixed ``--delta`` and ``--delta-grid``, its expected exit-2 cases, and
``simulate`` of all four models; ``full`` runs on the nominal scenario only,
whose 60 s horizon keeps it short.  A change that claims byte-identical
artifacts must leave every hash here as it is.
"""

from __future__ import annotations

import hashlib

import pytest

from deceptive_nes import cli
from deceptive_nes.scenario import bundled_scenario_path

DELTA = ["--delta", "2.486"]
GRID = ["--delta-grid", "0:6:0.05"]

#: (command, scenario, flags, exit code, {artifact: sha256})
GOLDEN = [
    ("nash", "deception", [], 0, {
        "summary.json": "18263d9456fd3cb56adacacf7543dbf44e122563245cd0b68be920b32a83da15"}),
    ("nash", "nominal", [], 0, {
        "summary.json": "18263d9456fd3cb56adacacf7543dbf44e122563245cd0b68be920b32a83da15"}),
    # spectral_abscissa -0.025803997154968065 from eigvalsh on K^1/2 Qbar K^1/2
    # (the 60-digit value is -0.025803997154968046)
    ("stability", "deception", DELTA, 0, {
        "summary.json": "850c2d68b2223396c85094d27fb5e3f360e39e66aa8c36cfafb0a1ec4e9782f9"}),
    ("stability", "deception", GRID, 0, {
        "sweep.csv": "f67aafd0c18b82f30d88eccce20e5eda47342c90f8170281f75b0cd8c557b19e"}),
    ("stability", "nominal", DELTA, 2, {
        "error.json": "314b94e2c811800b4971fc924c7741e45b2e755044c37d1ea7f1699030934f7b"}),
    ("attain", "deception", [], 0, {
        "summary.json": "047eefe66f6fe9020daf78f27eea2d6fe56d8a7adff8ed6710a31894193717c8"}),
    ("attain", "nominal", [], 2, {
        "error.json": "7d895939bd1e047cdee8da3495a5dab8845c9f39999a4c727dd1cca08d61b5a7"}),
    ("deceptive-game", "deception", [], 0, {
        "summary.json": "c26315232584617e56a698d6ea2cd2b2bfc2ba9afc25af23fc24994d4281d238"}),
    ("deceptive-game", "deception", DELTA, 0, {
        "summary.json": "2b4edea4574bc751a60a4b1ce7a9c97391288a11a0a8ae028ee08ad5e9c1159f"}),
    ("deceptive-game", "nominal", [], 2, {
        "error.json": "11a2542552bbd29ec51d71890dbde5b11a2d00456637627efd7a9e766d8c478d"}),
    ("sweep", "deception", GRID, 0, {
        "sweep.csv": "d37741ec8a7ea5515a46553dcc422f749a6321d8f4f545b2afd4ffb72f224a62"}),
    ("sweep", "nominal", GRID, 2, {
        "error.json": "727d773a7bf8c26c1acce7ca79e256c2f076d7df2314c594519c7497c3105074"}),
    ("simulate", "deception", ["--model", "averaged"], 0, {
        "summary.json": "159f5ff9186677d1a5aec4e80a0aec03a1a3696e488f8b943f775d29a8a88d63",
        "trajectory.csv": "765a0f238cc0d3259677cd23c9bc2ce977903ec64f439f0de8e1eb3adc4d5578"}),
    ("simulate", "nominal", ["--model", "averaged"], 0, {
        "summary.json": "6a0e6714b80e6240b7582dfc867554a197b7b6cbddff6c997663c65e59ff1a77",
        "trajectory.csv": "9945d76f47578279b35ed385798eccb1222f79f49fc3218e4044a3594f6e0ed6"}),
    ("simulate", "deception", ["--model", "reduced"], 0, {
        "summary.json": "af0a9bd4796cb507b615bdc2e7de65861081a8195862d4df440046a540f95c21",
        "trajectory.csv": "d9c7b19a956f2d2affd251c317461ccb59247e097a57467497ba0341d6bb05c4"}),
    ("simulate", "nominal", ["--model", "reduced"], 2, {
        "error.json": "2d64bc15cde06d2bb56f15d42a9e4e911d8fd76d65a7e0f0b90f9ebf9d5f1b24"}),
    ("simulate", "deception", ["--model", "boundary"], 0, {
        "summary.json": "0858e0289f121661f79928d319ec3c053a6920c9b6bfa596693f2ef81e0e7550",
        "trajectory.csv": "83cfd32393fe6f9d48122db18b34fa209dfdff5b7d5350f8616ce57b5f4a97be"}),
    ("simulate", "nominal", ["--model", "boundary"], 0, {
        "summary.json": "415daeef8d7c9127e688121985ef159ab8acf183bab7264a771b488a63a724ca",
        "trajectory.csv": "5254910b1005b22385655ed5ecd230f331d93258fd8e835428c08f7e8f6b3bd6"}),
    ("simulate", "nominal", ["--model", "full"], 0, {
        "summary.json": "28a7a89d51822e6390d3ee00fdc163aeec6a68eb763d2ea5502a96cb0b8b3227",
        "trajectory.csv": "cdaee2ba1836dc5b0c84a6dca2a9a105e14904109da62702fd63f9d8ec1447af"}),
]


@pytest.mark.parametrize(
    "command, scenario, flags, code, artifacts", GOLDEN,
    ids=[" ".join([c, s, *f]) for c, s, f, _, _ in GOLDEN])
def test_cli_artifacts_match_their_pinned_hashes(tmp_path, capsys, command, scenario,
                                                 flags, code, artifacts):
    path = bundled_scenario_path(f"three_firm_{scenario}")
    out = tmp_path / "out"
    assert cli.main([command, "--scenario", str(path), "--out", str(out), *flags]) == code
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert got == artifacts

"""Batch command-line front-end.

Every command loads a scenario JSON file and writes deterministic artifacts
into an output directory (``summary.json``, and ``trajectory.csv`` /
``sweep.csv`` where applicable).  Exit status: 0 on success, 2 for
validation problems (bad or unreadable scenario, bad flags), 3 for numerical
failures and 1 for any other exception (a defect, kind ``internal``);
failures also leave a machine-readable ``error.json`` in the output
directory, except where ``--out`` cannot be made a directory (exit 2, a
message on stderr only).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback
from pathlib import Path

import numpy as np

from . import numerics
from .deception import (
    AttainabilityResult,
    hurwitz_verdict,
    in_stability_set,
    perturbed_pseudogradient,
    solve_attainability,
)
from .deceptive_game import (
    build_deceptive_game,
    perceived_desirability,
    verify_deceptive_nash,
)
from .dynamics import MODEL_KINDS, DivergenceError, simulate
from .scenario import Scenario, ScenarioError, load_scenario

#: The gain flags each command reads; any other command refuses them.
_DELTA_FLAGS = {
    "stability": ("delta", "delta_grid"),
    "deceptive-game": ("delta",),
    "sweep": ("delta_grid",),
}


MAX_GRID_POINTS = 100_000   #: the most points a ``--delta-grid`` may hold


class CommandError(ValueError):
    """Bad flag combination or a command unsupported by the scenario."""


def _write_json(out_dir: Path, name: str, payload: dict) -> None:
    try:   # strict JSON: a NaN or an infinity in a result is a numerical failure
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False,
                          default=lambda o: o.tolist())
    except ValueError as exc:
        raise numerics.ConvergenceError(f"{name} would hold a non-finite number") from exc
    (out_dir / name).write_text(text + "\n")


def _write_grid_csv(out_dir: Path, names: list[str], columns: list[np.ndarray],
                    ok: np.ndarray) -> None:
    """``sweep.csv``: one row per grid point, the ``columns`` as
    12-significant-digit fields and ``in_delta`` as ``true`` or ``false``,
    formatted in one ``%`` pass over the whole table."""
    width = len(columns) + 1
    cells = [None] * (width * len(ok))
    for k, column in enumerate(columns):
        cells[k::width] = column.tolist()
    cells[width - 1::width] = ["true" if o else "false" for o in ok.tolist()]
    line = "%.12g," * (width - 1) + "%s\n"
    text = ",".join([*names, "in_delta"]) + "\n" + line * len(ok) % tuple(cells)
    with open(out_dir / "sweep.csv", "w", newline="") as fh:
        fh.write(text)


def _parse_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise CommandError(f"--delta-grid expects lo:hi:step, got {spec!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise CommandError(f"--delta-grid has non-numeric parts: {spec!r}")
    if not np.all(np.isfinite((lo, hi, step))):
        raise CommandError(f"--delta-grid needs finite numbers, got {spec!r}")
    if step <= 0.0 or hi < lo:
        raise CommandError("--delta-grid needs step > 0 and hi >= lo")
    steps = np.floor((hi - lo) / step + 1e-9)
    if not steps < MAX_GRID_POINTS:
        raise CommandError(f"--delta-grid holds more than {MAX_GRID_POINTS} points")
    return lo + step * np.arange(int(steps) + 1)


def _check_delta_flags(args) -> None:
    taken = [f for f in ("delta", "delta_grid") if getattr(args, f) is not None]
    for flag in taken:
        if flag not in _DELTA_FLAGS.get(args.command, ()):
            raise CommandError(
                f"{args.command} does not take --{flag.replace('_', '-')}"
            )
    if len(taken) > 1:
        raise CommandError("--delta and --delta-grid exclude each other")
    if args.delta is not None and not np.isfinite(args.delta):
        raise CommandError(f"--delta must be finite, got {args.delta}")


def _single_deceiver_delta(scenario: Scenario, value: float | None) -> np.ndarray:
    n = scenario.topology.n_deceivers
    if value is None:
        return np.zeros(n)
    if n != 1:
        raise CommandError(
            "--delta takes a single value and needs exactly one deceiver; "
            f"this scenario has {n}"
        )
    return np.array([value])


def _attain_payload(res: AttainabilityResult, game) -> dict:
    costs = game.costs(res.u_star)
    return {
        "delta_star": res.delta_star,
        "x_star": res.u_star,
        "lambda": res.lambda_mat,
        "attainable": bool(res.attainable),
        "in_delta": bool(res.in_stability),
        "residual": res.residual,
        "costs": costs,
        "profits": -costs,
        "message": res.message,
    }


def _cmd_nash(scenario: Scenario, out_dir: Path, args) -> None:
    """deception-free Nash prices, costs and profits"""
    game = scenario.game()
    x = game.nash_equilibrium()
    costs = game.costs(x)
    _write_json(out_dir, "summary.json", {
        "x_star": x,
        "costs": costs,
        "profits": -costs,
    })


def _cmd_stability(scenario: Scenario, out_dir: Path, args) -> None:
    """stability-set membership at one delta or over a grid"""
    game = scenario.game()
    topology = scenario.topology
    gains = scenario.tuning.gain
    if topology.n_deceivers == 0:
        raise CommandError("stability analysis needs a deception block")
    if args.delta_grid is not None:
        if topology.n_deceivers != 1:
            raise CommandError("--delta-grid needs exactly one deceiver")
        delta = _parse_grid(args.delta_grid)[:, None]
    else:
        delta = _single_deceiver_delta(scenario, args.delta)
    pert = perturbed_pseudogradient(game, topology, delta)
    m = -(gains[:, None] * pert.qbar)
    sa = numerics.spectral_abscissa(m)
    ok = hurwitz_verdict(m, sa)   # in_stability_set, from the abscissa at hand
    if args.delta_grid is not None:
        _write_grid_csv(out_dir, ["delta", "spectral_abscissa"], [delta[:, 0], sa], ok)
        return
    _write_json(out_dir, "summary.json", {
        "delta": delta,
        "spectral_abscissa": sa,
        "in_delta": bool(ok),
    })


def _cmd_attain(scenario: Scenario, out_dir: Path, args) -> None:
    """solve for deceiver gains that hit the reference costs"""
    if scenario.topology.n_deceivers == 0:
        raise CommandError("attainability analysis needs a deception block")
    game = scenario.game()
    res = solve_attainability(game, scenario.topology, gains=scenario.tuning.gain)
    _write_json(out_dir, "summary.json", _attain_payload(res, game))


def _cmd_simulate(scenario: Scenario, out_dir: Path, args) -> None:
    """integrate one dynamical model and record a trajectory"""
    game = scenario.game()
    sim = scenario.sim
    model = args.model or sim.model
    tuning = scenario.tuning
    scale = args.freq_scale if args.freq_scale is not None else sim.freq_scale
    if not (scale > 0.0 and np.isfinite(scale)):
        raise CommandError(f"--freq-scale must be positive and finite, got {scale}")
    if scale != 1.0:
        tuning = tuning.scaled(scale)
    traj = simulate(
        model, game, scenario.topology, tuning,
        initial=scenario.initial_state(game),
        horizon=sim.horizon, stride=sim.stride,
        oversampling=sim.oversampling,
    )
    traj.write_csv(out_dir / "trajectory.csv")
    ss = traj.steady_state()
    _write_json(out_dir, "summary.json", {
        "model": model,
        "time_axis": traj.meta.time_axis,
        "dt": traj.meta.dt,
        "samples": len(traj.times),
        "x_star": ss.x,
        "u_star": ss.u,
        "delta_star": ss.delta,
        "costs": ss.costs,
        "profits": ss.profits,
    })


def _cmd_deceptive_game(scenario: Scenario, out_dir: Path, args) -> None:
    """construct and verify the victims' effective game"""
    topology = scenario.topology
    if topology.n_deceivers == 0:
        raise CommandError("deceptive-game analysis needs a deception block")
    game = scenario.game()
    if args.delta is not None:
        delta = _single_deceiver_delta(scenario, args.delta)
    else:
        res = solve_attainability(game, topology, gains=scenario.tuning.gain)
        if not res.attainable:
            raise numerics.ConvergenceError(f"no attainable delta: {res.message}")
        delta = res.delta_star
    dgame = build_deceptive_game(scenario.params, topology, delta, base=game)
    u_star = numerics.solve_linear(dgame.pert.qbar, -dgame.pert.bbar)
    verdict = verify_deceptive_nash(dgame, u_star)
    attacked = [
        j for j, ks in enumerate(topology.attacker_positions(game.n_players)) if ks
    ]
    reports = []
    for victim in attacked:
        rep = perceived_desirability(scenario.params, topology, delta, victim)
        reports.append({
            "victim": rep.victim + 1,
            "true_aggregate": rep.true_aggregate,
            "perceived_aggregate": rep.perceived_aggregate,
            "perceived_per_deceiver": {
                str(z + 1): v for z, v in sorted(rep.perceived_per_deceiver.items())
            },
            "direction": rep.direction,
        })
    _write_json(out_dir, "summary.json", {
        "delta": delta,
        "sigma": dgame.sigma,
        "inflation_coeff": dgame.inflation_coeff,
        "x_star": u_star,
        "desirability": reports,
        "nash_verdict": {
            "is_ne": bool(verdict.is_ne),
            "first_order_residual": verdict.first_order_residual,
            "second_order_margins": verdict.second_order_margins,
        },
    })


def _cmd_sweep(scenario: Scenario, out_dir: Path, args) -> None:
    """tabulate equilibrium costs and stability over a delta grid"""
    topology = scenario.topology
    if topology.n_deceivers != 1:
        raise CommandError("sweep needs exactly one deceiver")
    if args.delta_grid is None:
        raise CommandError("sweep requires --delta-grid lo:hi:step")
    game = scenario.game()
    gains = scenario.tuning.gain
    grid = _parse_grid(args.delta_grid)
    pert = perturbed_pseudogradient(game, topology, grid[:, None])
    costs = game.costs(numerics.solve_stack(pert.qbar, -pert.bbar))
    # rows where Qbar(delta) is singular hold NaN costs and are never in Delta
    ok = in_stability_set(pert, gains) & ~np.isnan(costs).any(axis=1)
    _write_grid_csv(out_dir, ["delta", *(f"J_{i + 1}" for i in range(game.n_players))],
                    [grid, *costs.T], ok)


_HANDLERS = {
    "nash": _cmd_nash,
    "stability": _cmd_stability,
    "attain": _cmd_attain,
    "simulate": _cmd_simulate,
    "deceptive-game": _cmd_deceptive_game,
    "sweep": _cmd_sweep,
}
COMMANDS = tuple(_HANDLERS)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared, so
    callers must not change it: building it costs about 15 times what
    parsing a command line does."""
    parser = argparse.ArgumentParser(
        prog="deceptive-nes",
        description="Oligopoly pricing games under deceptive equilibrium seeking",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in _HANDLERS.items():
        p = sub.add_parser(name, help=handler.__doc__)
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--delta", type=float, default=None,
                       help="deceiver gain (single-deceiver scenarios)")
        p.add_argument("--delta-grid", default=None, metavar="LO:HI:STEP",
                       help="inclusive gain grid")
        if name == "simulate":
            p.add_argument("--model", choices=MODEL_KINDS, default=None,
                           help="override the scenario's model kind")
            p.add_argument("--freq-scale", type=float, default=None,
                           help="override the scenario's frequency scale")
    return parser


def _attach_gain_values(argv: list[str]) -> list[str]:
    """``--delta -inf`` as ``--delta=-inf``: argparse reads a value that
    starts with ``-`` and is not a plain number, such as ``-inf`` or the grid
    ``-1:1:0.5``, as an option.  A flag is a gain flag also when abbreviated
    (``--del``, ``--delta-g``), as argparse accepts it."""
    out: list[str] = []
    for arg in argv:
        if out and len(out[-1]) > 2 and "--delta-grid".startswith(out[-1]) \
                and arg.startswith("-") and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_gain_values(list(argv)))
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:   # a file, or a path below one: no error.json can go there
        print(f"deceptive-nes: --out: {exc}", file=sys.stderr)
        return 2

    def fail(kind: str, exc: Exception, code: int) -> int:
        _write_json(out_dir, "error.json", {
            "kind": kind,
            "error": type(exc).__name__,
            "message": str(exc),
        })
        print(f"deceptive-nes: {exc}", file=sys.stderr)
        return code

    try:
        try:
            scenario = load_scenario(args.scenario)
        except OSError as exc:   # missing, a directory, unreadable
            return fail("validation", exc, 2)
        _check_delta_flags(args)
        _HANDLERS[args.command](scenario, out_dir, args)
    except (ScenarioError, CommandError) as exc:
        return fail("validation", exc, 2)
    except (
        numerics.SingularMatrixError,
        numerics.ConvergenceError,
        DivergenceError,
    ) as exc:
        return fail("numerical", exc, 3)
    except ValueError as exc:
        return fail("validation", exc, 2)
    except Exception as exc:   # a defect: still leave error.json behind
        traceback.print_exc(file=sys.stderr)
        return fail("internal", exc, 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: closed loop, one client, inputs made from the seed.

``setup(dn, seed)`` builds a workload's catalogue of operations from the
seed alone, so the same seed gives the same inputs, and warms it up.  A run
repeats the catalogue in passes; the fixed composition of a catalogue
(strata of market size and topology, the list of CLI commands) keeps its
cost comparable across seeds, and repeating it lets each operation's
latency be taken as its best pass on a shared, noisy host.  An operation is
``Op(label, run, check)``: ``run`` calls the library and is timed;
``check`` verifies the output against the independent references of
:mod:`bench_checks` and is not timed.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from bench_checks import (
    Market,
    abscissa,
    check_hurwitz_verdict,
    close,
    expect,
    full_model_reference,
    is_finite,
    played_prices,
    stationarity_error,
)

# Published reference values of the bundled three-firm deception scenario.
STUDY_DELTA, STUDY_DELTA_TOL = 2.486, 0.005
STUDY_LAMBDA, STUDY_LAMBDA_TOL = -190.0, 2.0
STATIONARY_RTOL = 1e-8


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def _random_market(rng, n):
    """Market draw of the property suites: R ~ U(0.1, 5), m ~ U(0, 50)."""
    return (rng.uniform(0.1, 5.0, size=n), rng.uniform(0.0, 50.0, size=n),
            rng.uniform(1.0, 200.0) + 1e-6)


def _study(dn):
    scenario = dn.load_scenario(dn.bundled_scenario_path("three_firm_deception"))
    market = Market(scenario.params.resistance, scenario.params.marginal_cost,
                    scenario.params.total_demand, scenario.own_curvature)
    return scenario, market


# ---------------------------------------------------------------------------
# analysis workloads
# ---------------------------------------------------------------------------

@dataclass
class AnalysisCase:
    """One market with its deception topology, seeking gains and probes."""

    params: Any
    own_curvature: dict
    topology: Any
    gains: np.ndarray
    probes: tuple            # deltas at which stability-set membership is asked
    market: Market
    study: bool = False

    def describe(self) -> str:
        p = self.params
        return (f"R={np.round(p.resistance, 4).tolist()} "
                f"m={np.round(p.marginal_cost, 4).tolist()} "
                f"Sd={p.total_demand:.4f} deceivers={self.topology.deceivers} "
                f"victims={self.topology.victims} refs={self.topology.cost_refs}")


def _analysis_op(dn, case: AnalysisCase, label: str) -> Op:
    """Nash -> attainability -> (deceptive game, verdict, desirability when
    attained) -> stability-set membership at the probe deltas."""

    def run():
        game = dn.market_game(case.params, case.own_curvature)
        out = {"nash": game.nash_equilibrium()}
        res = dn.solve_attainability(game, case.topology, gains=case.gains)
        out["res"] = res
        if res.attainable:
            dgame = dn.build_deceptive_game(case.params, case.topology,
                                            res.delta_star, base=game)
            out["verdict"] = dn.verify_deceptive_nash(dgame, res.u_star)
            victims = sorted({v for vs in case.topology.victims for v in vs})
            out["reports"] = [
                dn.perceived_desirability(case.params, case.topology,
                                          res.delta_star, v)
                for v in victims
            ]
        out["probes"] = [
            dn.in_stability_set(
                dn.perturbed_pseudogradient(game, case.topology, d), case.gains)
            for d in case.probes
        ]
        return out

    def check(out):
        _check_analysis(dn, case, out)

    return Op(f"{label} {case.describe()}", run, check)


def _check_analysis(dn, case: AnalysisCase, out) -> None:
    mk, topo = case.market, case.topology
    expect(stationarity_error(mk.q0, mk.b0, out["nash"]) <= STATIONARY_RTOL,
           "Nash prices are not stationary")
    res = out["res"]
    expect(is_finite(res.delta_star, res.u_star), "non-finite search result")
    qbar, bbar = mk.perturbed(topo.deceivers, topo.victims, res.delta_star)
    expect(stationarity_error(qbar, bbar, res.u_star) <= STATIONARY_RTOL,
           f"Qbar h + Bbar != 0 at delta={res.delta_star}")
    check_hurwitz_verdict(-case.gains[:, None] * qbar, res.in_stability,
                          "stability set at delta*")
    if res.attainable:
        costs = mk.costs(res.u_star)
        rtol = dn.deception.MATCH_RTOL
        for z, ref in zip(topo.deceivers, topo.cost_refs):
            expect(abs(costs[z] - ref) <= rtol * (1.0 + abs(ref)),
                   f"deceiver {z} cost {costs[z]!r} misses reference {ref!r}")
        expect(abscissa(res.lambda_mat) < 0.0, "Lambda is not Hurwitz")
        expect(res.in_stability, "attained outside the stability set")
        verdict = out["verdict"]
        residual = float(np.max(np.abs(qbar @ res.u_star + bbar)))
        is_ne = residual <= 1e-8 * (1.0 + np.max(np.abs(bbar))) \
            and bool(np.all(np.diagonal(qbar) > 0.0))
        expect(verdict.is_ne == is_ne, f"Nash verdict {verdict.is_ne}, expected {is_ne}")
        for rep in out["reports"]:
            ks = [k for k, vs in enumerate(topo.victims) if rep.victim in vs]
            drop = sum(res.delta_star[k] / mk.r[topo.deceivers[k]] for k in ks)
            expect(abs(rep.perceived_aggregate - (1.0 / mk.rbar[rep.victim] - drop))
                   <= 1e-9 * (1.0 + abs(drop)), "perceived aggregate is off")
            want = "raises price" if drop > 0 else "lowers price" if drop < 0 else "neutral"
            expect(rep.direction == want, f"direction {rep.direction!r}, expected {want!r}")
    else:
        expect(bool(res.message), "unattainable result without a message")
    for d, verdict in zip(case.probes, out["probes"]):
        qd, _ = mk.perturbed(topo.deceivers, topo.victims, d)
        check_hurwitz_verdict(-case.gains[:, None] * qd, verdict,
                              f"stability set at delta={d}")
    if case.study:
        expect(res.attainable, f"study not attainable: {res.message}")
        expect(abs(res.delta_star[0] - STUDY_DELTA) <= STUDY_DELTA_TOL,
               f"study delta* = {res.delta_star[0]}")
        expect(abs(res.lambda_mat[0, 0] - STUDY_LAMBDA) <= STUDY_LAMBDA_TOL,
               f"study Lambda = {res.lambda_mat[0, 0]}")


def _case(dn, rng, n, deceivers, victims, refs_from) -> AnalysisCase:
    r, m, sd = _random_market(rng, n)
    mk = Market(r, m, sd)
    k = len(deceivers)
    if refs_from is None:
        # around the Nash costs: some references reachable, some not
        j = mk.costs(np.linalg.solve(mk.q0, -mk.b0))
        refs = [float(j[z] * rng.uniform(0.8, 1.3)) for z in deceivers]
    else:
        # the deceivers' costs at the deceived equilibrium of a target gain
        qbar, bbar = mk.perturbed(deceivers, victims, refs_from)
        j = mk.costs(np.linalg.solve(qbar, -bbar))
        refs = [float(j[z]) for z in deceivers]
    topology = dn.DeceptionTopology(
        deceivers=tuple(deceivers), victims=tuple(victims),
        eps=1e-4, eps_rates=(1.0,) * k, cost_refs=tuple(refs))
    probes = tuple(rng.uniform(-w, w, size=k) for w in (1.0, 3.0, 6.0))
    return AnalysisCase(
        params=dn.OligopolyParams(r, m, sd), own_curvature={},
        topology=topology, gains=rng.uniform(1e-3, 10.0, size=n),
        probes=probes, market=mk)


def _victims(rng, n, exclude, count):
    others = [j for j in range(n) if j not in exclude]
    return tuple(int(v) for v in rng.choice(others, size=count, replace=False))


class AttainSingle:
    name = "attain_single"
    why = ("one deceiver on seeded random markets, N 2-10, one and several "
           "victims: numerics kernels, grid scan, bisection; no dynamics, no Newton")
    sizes = tuple(range(2, 11))
    #: One-victim cases per N, besides one several-victim case for N > 2.
    #: A several-victim case costs 4-10 times a one-victim case of the same
    #: N; with two one-victim cases per several-victim case the median
    #: operation lies inside the one-victim group instead of on the gap
    #: between the groups, where it swings between them from seed to seed.
    #: Several-victim cases still take most of the time.
    single_per_size = 2

    def setup(self, dn, seed):
        """The bundled study, then per N ``single_per_size`` single-victim
        cases and (for N > 2) one multi-victim case."""
        scenario, market = _study(dn)
        study = AnalysisCase(
            params=scenario.params, own_curvature=scenario.own_curvature,
            topology=scenario.topology, gains=scenario.tuning.gain,
            probes=(np.array([0.0]), np.array([STUDY_DELTA]), np.array([8.0])),
            market=market, study=True)
        ops = [_analysis_op(dn, study, "study")]
        rng = np.random.default_rng(seed)
        for n in self.sizes:
            counts = [1] * self.single_per_size
            if n > 2:
                counts.append(int(rng.integers(2, n)))
            for count in counts:
                z = int(rng.integers(n))
                case = _case(dn, rng, n, [z], [_victims(rng, n, {z}, count)], None)
                ops.append(_analysis_op(dn, case, f"single N={n} victims={count}"))
        ops[0].run()
        return {"ops": ops}


class AttainMulti:
    name = "attain_multi"
    why = ("2-3 deceivers on N 3-4 markets, disjoint and overlapping victim sets, "
           "fixed catalogue in seeded order: damped Newton, FD Jacobians, failure paths")
    #: (N, deceivers, victim sets overlap, references from a target gain)
    slots = ((3, 2, False, True), (4, 2, False, True), (4, 3, False, True),
             (3, 2, True, False), (4, 2, True, False), (4, 3, True, False))
    repeats = 2
    #: Whether a Newton search converges, and after how many iterations and
    #: line-search halvings, varies so much between markets (6 ms against
    #: 0.8 s), and even between relabellings of one market, that a catalogue
    #: drawn per seed makes the run time a lottery.  The catalogue is
    #: therefore drawn once from this seed; the run seed sets the order in
    #: which its operations are issued.  Markets stay at N <= 4 so that a
    #: failed search costs under a second, and two rounds of the slots (12
    #: operations, three of them slow failed searches) keep a pass near
    #: 1.1 s, so that a run holds enough passes for each operation's best
    #: to reach the host's quiet speed.
    catalogue_seed = 20250530

    def setup(self, dn, seed):
        rng = np.random.default_rng(self.catalogue_seed)
        ops = []
        for _ in range(self.repeats):
            for n, k, overlap, targeted in self.slots:
                case = self._case(dn, rng, n, k, overlap, targeted)
                ops.append(_analysis_op(
                    dn, case, f"multi N={n} k={k} overlap={overlap} targeted={targeted}"))
        ops[0].run()
        order = np.random.default_rng(seed).permutation(len(ops))
        return {"ops": [ops[i] for i in order]}

    @staticmethod
    def _case(dn, rng, n, k, overlap, targeted):
        deceivers = [int(z) for z in rng.choice(n, size=k, replace=False)]
        victims = []
        if overlap:
            shared = _victims(rng, n, set(deceivers), 1)[0]
            for z in deceivers:
                extra = _victims(rng, n, {z, shared}, int(rng.integers(0, 2)))
                victims.append((shared,) + extra)
        else:
            pool = [int(j) for j in rng.permutation(n)]
            for z in deceivers:
                pick = next(j for j in pool if j != z)
                pool.remove(pick)
                victims.append((pick,))
        target = rng.uniform(-0.8, 0.8, size=k) if targeted else None
        return _case(dn, rng, n, deceivers, victims, target)


# ---------------------------------------------------------------------------
# full-model simulation
# ---------------------------------------------------------------------------

class FullSim:
    name = "full_sim"
    why = ("bundled three_firm_deception, full sinusoidal NES model at "
           "freq-scale 0.1, single lane: the RK4 loop that dominates tier-1 time")
    runs = 8                 # distinct initial states per pass
    horizon = 0.5            # physical seconds per run
    stride = 8
    reference_samples = 8    # leading samples recomputed by the reference RK4
    #: Every this many checks, one in about five passes, the whole
    #: trajectory is recomputed instead; being coprime to ``runs`` it visits
    #: every run.
    full_reference_every = 5 * runs + 1

    def setup(self, dn, seed):
        """Runs from the Nash prices plus a seeded offset, each with a seeded
        initial gain inside the stability set."""
        scenario, market = _study(dn)
        game = scenario.game()
        topo = scenario.topology
        tuning = scenario.tuning.scaled(scenario.sim.freq_scale)
        state = {"scenario": scenario, "market": market, "tuning": tuning,
                 "checks": 0}
        rng = np.random.default_rng(seed)
        ops = []
        for _ in range(self.runs):
            u0 = game.nash_equilibrium() + rng.uniform(-0.5, 0.5, size=game.n_players)
            d0 = rng.uniform(0.0, STUDY_DELTA, size=topo.n_deceivers)
            ops.append(self._op(dn, state, game, u0, d0))
        dn.simulate("full", game, topo, tuning, horizon=0.05, stride=self.stride)
        state["ops"] = ops
        return state

    def _op(self, dn, state, game, u0, d0):
        topo, tuning = state["scenario"].topology, state["tuning"]
        initial = dn.SimState(t=0.0, u=u0, delta=d0)

        def run():
            traj = dn.simulate("full", game, topo, tuning, initial=initial,
                               horizon=self.horizon, stride=self.stride)
            return traj, traj.steady_state()

        def check(out):
            self._check(state, u0, d0, *out)

        label = f"full u0={np.round(u0, 6).tolist()} delta0={np.round(d0, 6).tolist()}"
        return Op(label, run, check)

    def grid(self, tuning):
        """Step and step count of one run: 32 steps per fastest dither period."""
        dt = 2.0 * np.pi / (tuning.omega * max(float(r) for r in tuning.omega_ratio) * 32)
        return dt, self.stride * int(np.ceil(self.horizon / (dt * self.stride) - 1e-9))

    def _check(self, state, u0, d0, traj, ss):
        topo, tuning, mk = state["scenario"].topology, state["tuning"], state["market"]
        expect(is_finite(traj.u, traj.delta, traj.x, traj.costs, ss.u, ss.delta,
                         ss.profits), "non-finite trajectory")
        freqs = tuning.omega * np.array([float(r) for r in tuning.omega_ratio])
        dt, n_steps = self.grid(tuning)
        expect((len(traj.times) - 1) * traj.meta.stride == n_steps,
               f"{len(traj.times)} samples for {n_steps} steps")
        expect(close(traj.times, np.arange(len(traj.times)) * self.stride * dt, 1e-12),
               "sample times off the step grid")
        whole = state["checks"] % self.full_reference_every == 0
        state["checks"] += 1
        m = len(traj.times) - 1 if whole else self.reference_samples
        ref_u, ref_d = full_model_reference(
            mk, topo.deceivers, topo.victims, topo.eps, topo.eps_rates,
            topo.cost_refs, tuning.amplitude, tuning.gain, freqs, u0, d0, dt,
            m * self.stride, self.stride)
        expect(close(traj.u[:m + 1], ref_u, 1e-9) and close(traj.delta[:m + 1], ref_d, 1e-9),
               f"{'samples' if whole else 'leading samples'} differ from the reference RK4")
        x = played_prices(tuning.amplitude, freqs, topo.deceivers, topo.victims,
                          traj.times, traj.u, traj.delta)
        expect(close(traj.x, x, 1e-9), "played prices differ from u + dither")
        expect(close(traj.costs, mk.costs(x), 1e-9), "recorded costs differ")
        expect(close(traj.profits, -traj.costs, 0.0), "profits are not -costs")


# ---------------------------------------------------------------------------
# CLI batch
# ---------------------------------------------------------------------------

class CliBatch:
    name = "cli_batch"
    why = ("every CLI command in-process on both bundled scenarios, expected "
           "exit-2 cases included: scenario load, JSON/CSV writing, dither-free models")
    variants = 1             # seeded delta and grid choices per pass

    def setup(self, dn, seed):
        rng = np.random.default_rng(seed)
        deception = str(dn.bundled_scenario_path("three_firm_deception"))
        nominal = str(dn.bundled_scenario_path("three_firm_nominal"))
        scenario, market = _study(dn)
        state = {"first": {}, "market": market, "topology": scenario.topology,
                 "gains": scenario.tuning.gain,
                 "nash": np.linalg.solve(market.q0, -market.b0)}
        out_root = Path(state_dir()) / "cli"
        ops = []
        for _ in range(self.variants):
            for command, scenario, flags, code, artifacts in self._commands(
                    rng, deception, nominal):
                out = out_root / f"{len(ops):03d}-{command}"
                argv = [command, "--scenario", scenario, "--out", str(out)] + flags
                ops.append(Op(
                    " ".join([command, os.path.basename(scenario)] + flags),
                    functools.partial(self._run, dn, argv),
                    functools.partial(self._check, state, len(ops), out, code=code,
                                      artifacts=artifacts, command=command,
                                      scenario=scenario)))
        self._run(dn, ["nash", "--scenario", nominal, "--out", str(out_root / "warmup")])
        state["ops"] = ops
        return state

    @staticmethod
    def _commands(rng, deception, nominal):
        """(command, scenario, flags, exit code, artifacts) of one variant.

        Nine of the twenty take a few milliseconds and eleven take several
        times more, so the median operation lies inside the slower group
        rather than on the gap between the two, where it would swing from
        one group to the other.  The second grid of ``stability`` and
        ``sweep`` is what tips the balance.
        """
        delta = f"{rng.uniform(0.5, 4.5):.4f}"
        grids = [f"{lo:.4f}:{lo + 6.0:.4f}:0.05" for lo in rng.uniform(0.0, 1.0, size=4)]
        commands = [
            ("nash", deception, [], 0, ["summary.json"]),
            ("nash", nominal, [], 0, ["summary.json"]),
            ("stability", deception, ["--delta", delta], 0, ["summary.json"]),
            ("stability", deception, ["--delta-grid", grids[0]], 0, ["sweep.csv"]),
            ("stability", deception, ["--delta-grid", grids[1]], 0, ["sweep.csv"]),
            ("stability", nominal, ["--delta", delta], 2, ["error.json"]),
            ("attain", deception, [], 0, ["summary.json"]),
            ("attain", nominal, [], 2, ["error.json"]),
            ("deceptive-game", deception, [], 0, ["summary.json"]),
            ("deceptive-game", deception, ["--delta", delta], 0, ["summary.json"]),
            ("deceptive-game", nominal, [], 2, ["error.json"]),
            ("sweep", deception, ["--delta-grid", grids[2]], 0, ["sweep.csv"]),
            ("sweep", deception, ["--delta-grid", grids[3]], 0, ["sweep.csv"]),
            ("sweep", nominal, ["--delta-grid", grids[2]], 2, ["error.json"]),
        ]
        for model in ("averaged", "reduced", "boundary"):
            commands.append(("simulate", deception, ["--model", model], 0,
                             ["summary.json", "trajectory.csv"]))
            if model == "reduced":
                commands.append(("simulate", nominal, ["--model", model], 2,
                                 ["error.json"]))
            else:
                commands.append(("simulate", nominal, ["--model", model], 0,
                                 ["summary.json", "trajectory.csv"]))
        return commands

    @staticmethod
    def _run(dn, argv):
        with contextlib.redirect_stderr(io.StringIO()):
            return dn.cli.main(argv)

    @staticmethod
    def _check(state, slot, out, got, *, code, artifacts, command, scenario):
        try:
            CliBatch._check_artifacts(state, slot, out, got, code, artifacts,
                                      command, scenario)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    @staticmethod
    def _check_artifacts(state, slot, out, got, code, artifacts, command, scenario):
        expect(got == code, f"exit code {got}, expected {code}")
        present = sorted(os.listdir(out))
        expect(present == sorted(artifacts), f"artifacts {present}, expected {artifacts}")
        main = out / artifacts[0]
        data = main.read_bytes()
        first = state["first"].setdefault(slot, data)
        expect(data == first, f"{artifacts[0]} differs from the first run")
        if code == 2:
            expect(json.loads(data)["kind"] == "validation", "error kind is not validation")
        elif command == "nash" and "deception" in os.path.basename(scenario):
            expect(close(json.loads(data)["x_star"], state["nash"], 1e-9),
                   "nash x_star differs from the reference")
        elif command == "attain":
            doc = json.loads(data)
            expect(doc["attainable"] and abs(doc["delta_star"][0] - STUDY_DELTA)
                   <= STUDY_DELTA_TOL and abs(doc["lambda"][0][0] - STUDY_LAMBDA)
                   <= STUDY_LAMBDA_TOL, f"attain summary {doc['delta_star']}")
        elif command == "deceptive-game":
            expect(json.loads(data)["nash_verdict"]["is_ne"], "not a Nash equilibrium")
        elif command == "stability" and main.suffix == ".json":
            doc = json.loads(data)
            topo = state["topology"]
            qbar, _ = state["market"].perturbed(topo.deceivers, topo.victims, doc["delta"])
            check_hurwitz_verdict(-state["gains"][:, None] * qbar, doc["in_delta"],
                                  "stability summary")
        elif main.suffix == ".csv":
            rows = data.decode().splitlines()
            expect(len(rows) > 2 and "nan" not in rows[1], "short or singular sweep")
        if "trajectory.csv" in artifacts:
            samples = json.loads(data)["samples"]
            lines = (out / "trajectory.csv").read_bytes().count(b"\n")
            expect(lines == samples + 1, f"{lines} csv lines for {samples} samples")


def state_dir() -> str:
    """Scratch directory for artifacts, inside the checkout."""
    return str(Path(__file__).resolve().parent.parent / ".bench_out" / str(os.getpid()))


WORKLOADS = {w.name: w for w in (AttainSingle, AttainMulti, FullSim, CliBatch)}

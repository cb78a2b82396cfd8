"""Scenario files: JSON descriptions of a market, tuning and deception setup.

A scenario bundles everything a batch run needs: the market primitives, the
probing/adaptation tuning (with exact rational frequency ratios so common
periods stay exact), an optional deception block, simulation controls and
optional initial conditions.  Player indices in files are 1-based to match
the way scenarios are written about; the in-memory API is 0-based
throughout, and the loader converts.

The market block may carry an ``own_curvature`` map overriding selected
players' own-price curvature coefficients in the quadratic game (keyed by
1-based player number).  This keeps a scenario self-contained when its
published reference values were produced with a curvature that differs from
the one the market primitives imply.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .deception import DeceptionTopology
from .dynamics import MAX_STEPS, MODEL_KINDS, NESTuning, SimState, common_period, default_initial
from .oligopoly import OligopolyParams, QuadraticGame, market_game


class ScenarioError(ValueError):
    """A scenario file failed validation.

    ``kind`` is a stable machine-readable failure category and ``path`` the
    JSON path of the offending value.
    """

    def __init__(self, kind: str, path: str, message: str):
        self.kind = kind
        self.path = path
        super().__init__(f"{path}: {message} [{kind}]")


def _need(obj: Mapping[str, Any], key: str, path: str) -> Any:
    if key not in obj:
        raise ScenarioError("missing-field", f"{path}.{key}", "required field is missing")
    return obj[key]


def _as_mapping(value: Any, path: str) -> Mapping[str, Any]:
    if not isinstance(value, dict):
        raise ScenarioError("bad-type", path, f"expected an object, got {type(value).__name__}")
    return value


def _as_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise ScenarioError("bad-type", path, f"expected an array, got {type(value).__name__}")
    return value


def _as_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError("bad-type", path, f"expected a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:            # an integer too large for a float
        number = math.inf
    if not math.isfinite(number):    # JSON text may also spell NaN and Infinity
        raise ScenarioError("non-finite", path, f"must be a finite number, got {number}")
    return number


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError("bad-type", path, f"expected an integer, got {type(value).__name__}")
    return value


def _positive(value: float, path: str) -> float:
    if not value > 0.0:
        raise ScenarioError("nonpositive-parameter", path, f"must be strictly positive, got {value}")
    return value


def _number_list(value: Any, path: str) -> list[float]:
    return [_as_number(v, f"{path}[{i}]") for i, v in enumerate(_as_list(value, path))]


def _player_index(value: Any, n: int, path: str) -> int:
    idx = _as_int(value, path)
    if not 1 <= idx <= n:
        raise ScenarioError(
            "index-out-of-range", path,
            f"player index {idx} outside 1..{n}",
        )
    return idx - 1


def _ratio(value: Any, path: str) -> Fraction:
    obj = _as_mapping(value, path)
    num = _as_int(_need(obj, "num", path), f"{path}.num")
    den = _as_int(_need(obj, "den", path), f"{path}.den")
    if den <= 0:
        raise ScenarioError("nonpositive-parameter", f"{path}.den", "denominator must be positive")
    if num <= 0:
        raise ScenarioError("nonpositive-parameter", f"{path}.num", "numerator must be positive")
    ratio = Fraction(num, den)
    try:
        value = float(ratio)
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise ScenarioError("non-finite", path, "num/den must be a positive finite float")
    return ratio


def _bounded_int(value: Any, low: int, path: str) -> int:
    """An integer in ``low..MAX_STEPS``: a larger stride or oversampling
    would alone ask for more integration steps than a simulation accepts."""
    number = _as_int(value, path)
    if number < low:
        raise ScenarioError("nonpositive-parameter", path, f"must be at least {low}, got {number}")
    if number > MAX_STEPS:
        raise ScenarioError("out-of-range", path, f"must be at most {MAX_STEPS}")
    return number


@dataclass(frozen=True)
class SimConfig:
    """Simulation controls; horizon is in physical seconds for every model."""

    model: str = "full"
    horizon: float = 1.0
    stride: int = 1
    oversampling: int = 32
    freq_scale: float = 1.0


@dataclass(frozen=True)
class Scenario:
    params: OligopolyParams
    own_curvature: dict[int, float]
    tuning: NESTuning
    topology: DeceptionTopology
    sim: SimConfig = field(default_factory=SimConfig)
    initial_u: np.ndarray | None = None
    initial_delta: np.ndarray | None = None
    u_offset: float = 0.0

    def game(self) -> QuadraticGame:
        """Quadratic market game with any own-curvature overrides applied."""
        return market_game(self.params, self.own_curvature)

    def initial_state(self, game: QuadraticGame | None = None) -> SimState:
        """Initial integrator state; defaults to the (possibly offset) Nash
        prices with zero deceiver gains."""
        game = game if game is not None else self.game()
        state = default_initial(game, self.topology, offset=self.u_offset)
        u = state.u if self.initial_u is None else self.initial_u
        d = state.delta if self.initial_delta is None else self.initial_delta
        return SimState(t=0.0, u=u, delta=d)

    def to_dict(self) -> dict:
        """Plain-JSON form (1-based indices), inverse of :func:`scenario_from_dict`."""
        market: dict[str, Any] = {
            "resistance": list(map(float, self.params.resistance)),
            "marginal_cost": list(map(float, self.params.marginal_cost)),
            "total_demand": float(self.params.total_demand),
        }
        if self.own_curvature:
            market["own_curvature"] = {
                str(i + 1): float(v) for i, v in sorted(self.own_curvature.items())
            }
        doc: dict[str, Any] = {
            "market": market,
            "tuning": {
                "amplitude": list(map(float, self.tuning.amplitude)),
                "gain": list(map(float, self.tuning.gain)),
                "omega": float(self.tuning.omega),
                "omega_ratio": [
                    {"num": r.numerator, "den": r.denominator}
                    for r in self.tuning.omega_ratio
                ],
            },
            "sim": {
                "model": self.sim.model,
                "horizon": self.sim.horizon,
                "stride": self.sim.stride,
                "oversampling": self.sim.oversampling,
                "freq_scale": self.sim.freq_scale,
            },
        }
        if self.topology.n_deceivers:
            doc["deception"] = {
                "eps": self.topology.eps,
                "deceivers": [
                    {
                        "player": z + 1,
                        "victims": [v + 1 for v in vs],
                        "eps_rate": rate,
                        "cost_ref": ref,
                    }
                    for z, vs, rate, ref in zip(
                        self.topology.deceivers,
                        self.topology.victims,
                        self.topology.eps_rates,
                        self.topology.cost_refs,
                    )
                ],
            }
        initial: dict[str, Any] = {}
        if self.initial_u is not None:
            initial["u"] = list(map(float, self.initial_u))
        if self.initial_delta is not None:
            initial["delta"] = list(map(float, self.initial_delta))
        if self.u_offset:
            initial["u_offset"] = self.u_offset
        if initial:
            doc["initial"] = initial
        return doc


def scenario_from_dict(doc: Mapping[str, Any]) -> Scenario:
    doc = _as_mapping(doc, "$")
    market = _as_mapping(_need(doc, "market", "$"), "$.market")
    resistance = _number_list(_need(market, "resistance", "$.market"), "$.market.resistance")
    n = len(resistance)
    if n < 2:
        raise ScenarioError("bad-market", "$.market.resistance", "need at least two firms")
    for i, r in enumerate(resistance):
        _positive(r, f"$.market.resistance[{i}]")
    marginal = _number_list(
        _need(market, "marginal_cost", "$.market"), "$.market.marginal_cost"
    )
    if len(marginal) != n:
        raise ScenarioError(
            "length-mismatch", "$.market.marginal_cost",
            f"{len(marginal)} entries for {n} firms",
        )
    for i, m in enumerate(marginal):
        if m < 0.0:
            raise ScenarioError(
                "nonpositive-parameter", f"$.market.marginal_cost[{i}]",
                "marginal cost cannot be negative",
            )
    demand = _positive(
        _as_number(_need(market, "total_demand", "$.market"), "$.market.total_demand"),
        "$.market.total_demand",
    )
    params = OligopolyParams(
        resistance=np.array(resistance),
        marginal_cost=np.array(marginal),
        total_demand=demand,
    )

    own_curvature: dict[int, float] = {}
    if "own_curvature" in market:
        oc = _as_mapping(market["own_curvature"], "$.market.own_curvature")
        for key, value in oc.items():
            path = f"$.market.own_curvature.{key}"
            try:
                raw = int(key)
            except ValueError:
                raise ScenarioError("bad-type", path, "player key must be an integer string")
            idx = _player_index(raw, n, path)
            own_curvature[idx] = _positive(_as_number(value, path), path)

    tun = _as_mapping(_need(doc, "tuning", "$"), "$.tuning")
    amplitude = _number_list(_need(tun, "amplitude", "$.tuning"), "$.tuning.amplitude")
    gain = _number_list(_need(tun, "gain", "$.tuning"), "$.tuning.gain")
    omega = _as_number(_need(tun, "omega", "$.tuning"), "$.tuning.omega")
    ratios_raw = _as_list(_need(tun, "omega_ratio", "$.tuning"), "$.tuning.omega_ratio")
    if len(amplitude) != n or len(gain) != n or len(ratios_raw) != n:
        raise ScenarioError(
            "length-mismatch", "$.tuning",
            f"amplitude/gain/omega_ratio must each have {n} entries",
        )
    for i, v in enumerate(amplitude):
        _positive(v, f"$.tuning.amplitude[{i}]")
    for i, v in enumerate(gain):
        _positive(v, f"$.tuning.gain[{i}]")
    _positive(omega, "$.tuning.omega")
    ratios = tuple(
        _ratio(v, f"$.tuning.omega_ratio[{i}]") for i, v in enumerate(ratios_raw)
    )
    if len(set(ratios)) != len(ratios):
        raise ScenarioError(
            "duplicate-frequency", "$.tuning.omega_ratio",
            "frequency ratios must be pairwise distinct",
        )
    try:
        common_period(ratios)
    except OverflowError:
        raise ScenarioError(
            "non-finite", "$.tuning.omega_ratio",
            "the common probing period of these ratios overflows a float",
        ) from None
    tuning = NESTuning(
        amplitude=np.array(amplitude), gain=np.array(gain),
        omega=omega, omega_ratio=ratios,
    )

    if "deception" in doc:
        dec = _as_mapping(doc["deception"], "$.deception")
        eps = _positive(
            _as_number(_need(dec, "eps", "$.deception"), "$.deception.eps"),
            "$.deception.eps",
        )
        entries = _as_list(_need(dec, "deceivers", "$.deception"), "$.deception.deceivers")
        deceivers: list[int] = []
        victims: list[tuple[int, ...]] = []
        rates: list[float] = []
        refs: list[float] = []
        for i, entry in enumerate(entries):
            path = f"$.deception.deceivers[{i}]"
            entry = _as_mapping(entry, path)
            player = _player_index(_need(entry, "player", path), n, f"{path}.player")
            vlist = _as_list(_need(entry, "victims", path), f"{path}.victims")
            vs = tuple(
                _player_index(v, n, f"{path}.victims[{j}]") for j, v in enumerate(vlist)
            )
            if player in vs:
                raise ScenarioError(
                    "self-victim", f"{path}.victims",
                    f"player {player + 1} cannot deceive itself",
                )
            if not vs:
                raise ScenarioError(
                    "missing-field", f"{path}.victims", "victim list is empty"
                )
            rate = _positive(
                _as_number(entry.get("eps_rate", 1.0), f"{path}.eps_rate"),
                f"{path}.eps_rate",
            )
            ref = _as_number(_need(entry, "cost_ref", path), f"{path}.cost_ref")
            if player in deceivers:
                raise ScenarioError(
                    "duplicate-deceiver", f"{path}.player",
                    f"player {player + 1} listed twice",
                )
            deceivers.append(player)
            victims.append(vs)
            rates.append(rate)
            refs.append(ref)
        topology = DeceptionTopology(
            deceivers=tuple(deceivers), victims=tuple(victims),
            eps=eps, eps_rates=tuple(rates), cost_refs=tuple(refs),
        )
    else:
        topology = DeceptionTopology(deceivers=(), victims=(), eps=1.0)

    sim = SimConfig()
    if "sim" in doc:
        sm = _as_mapping(doc["sim"], "$.sim")
        model = sm.get("model", sim.model)
        if model not in MODEL_KINDS:
            raise ScenarioError(
                "bad-model", "$.sim.model",
                f"model must be one of {', '.join(MODEL_KINDS)}",
            )
        horizon = _positive(_as_number(sm.get("horizon", sim.horizon), "$.sim.horizon"),
                            "$.sim.horizon")
        stride = _bounded_int(sm.get("stride", sim.stride), 1, "$.sim.stride")
        # below 16 steps per fastest probing period the dither is not resolved
        oversampling = _bounded_int(sm.get("oversampling", sim.oversampling), 16,
                                    "$.sim.oversampling")
        freq_scale = _positive(
            _as_number(sm.get("freq_scale", sim.freq_scale), "$.sim.freq_scale"),
            "$.sim.freq_scale",
        )
        sim = SimConfig(model=model, horizon=horizon, stride=stride,
                        oversampling=oversampling, freq_scale=freq_scale)

    initial_u = initial_delta = None
    u_offset = 0.0
    if "initial" in doc:
        init = _as_mapping(doc["initial"], "$.initial")
        if "u" in init:
            vals = _number_list(init["u"], "$.initial.u")
            if len(vals) != n:
                raise ScenarioError(
                    "length-mismatch", "$.initial.u",
                    f"{len(vals)} entries for {n} firms",
                )
            initial_u = np.array(vals)
        if "delta" in init:
            vals = _number_list(init["delta"], "$.initial.delta")
            if len(vals) != topology.n_deceivers:
                raise ScenarioError(
                    "length-mismatch", "$.initial.delta",
                    f"{len(vals)} entries for {topology.n_deceivers} deceivers",
                )
            initial_delta = np.array(vals)
        if "u_offset" in init:
            u_offset = _as_number(init["u_offset"], "$.initial.u_offset")

    return Scenario(
        params=params, own_curvature=own_curvature, tuning=tuning,
        topology=topology, sim=sim, initial_u=initial_u,
        initial_delta=initial_delta, u_offset=u_offset,
    )


def load_scenario(path) -> Scenario:
    """Load and validate a scenario JSON file."""
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            "parse-error", f"$ (line {exc.lineno}, column {exc.colno})", exc.msg
        ) from exc
    return scenario_from_dict(doc)


def write_scenario(scenario: Scenario, path) -> None:
    """Serialize a scenario back to JSON (round-trips through the loader)."""
    Path(path).write_text(json.dumps(scenario.to_dict(), indent=2, sort_keys=True) + "\n")


def bundled_scenario_path(name: str) -> Path:
    """Filesystem path of a scenario shipped with the package."""
    from importlib import resources

    base = resources.files("deceptive_nes") / "scenarios" / f"{name}.json"
    with resources.as_file(base) as p:
        return Path(p)

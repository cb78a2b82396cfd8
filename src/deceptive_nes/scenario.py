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

import dataclasses
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Mapping

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


_REQUIRED = object()
_NO_DECEPTION = DeceptionTopology(deceivers=(), victims=())


def _get(obj: Mapping[str, Any], key: str, path: str, read: Callable[[Any, str], Any],
         default: Any = _REQUIRED) -> Any:
    """``read(obj[key], "<path>.<key>")``; an absent key gives ``default``,
    and is refused as ``missing-field`` where there is none."""
    if key in obj:
        return read(obj[key], f"{path}.{key}")
    if default is _REQUIRED:
        raise ScenarioError("missing-field", f"{path}.{key}", "required field is missing")
    return default


def _each(read: Callable[[Any, str], Any], values: list, path: str) -> list:
    return [read(v, f"{path}[{i}]") for i, v in enumerate(values)]


def _typed(types: type | tuple[type, ...], name: str) -> Callable[[Any, str], Any]:
    """A reader that passes a value of ``types``, never a bool, and refuses
    any other as ``bad-type``."""
    def read(value: Any, path: str) -> Any:
        if isinstance(value, bool) or not isinstance(value, types):
            raise ScenarioError("bad-type", path, f"expected {name}, got {type(value).__name__}")
        return value
    return read


_as_mapping = _typed(dict, "an object")
_as_list = _typed(list, "an array")
_as_int = _typed(int, "an integer")


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


def _positive(value: float, path: str) -> float:
    if not value > 0.0:
        raise ScenarioError("nonpositive-parameter", path, f"must be strictly positive, got {value}")
    return value


def _positive_number(value: Any, path: str) -> float:
    return _positive(_as_number(value, path), path)


def _number_list(value: Any, path: str) -> list[float]:
    return [_as_number(v, f"{path}[{i}]") for i, v in enumerate(_as_list(value, path))]


def _counted(value: Any, path: str, count: int, what: str) -> list[float]:
    """A list of ``count`` numbers, one for each of the ``what``."""
    values = _number_list(value, path)
    if len(values) != count:
        raise ScenarioError("length-mismatch", path, f"{len(values)} entries for {count} {what}")
    return values


def _player_index(value: Any, n: int, path: str) -> int:
    idx = _as_int(value, path)
    if not 1 <= idx <= n:
        raise ScenarioError(
            "index-out-of-range", path,
            f"player index {idx} outside 1..{n}",
        )
    return idx - 1


def _player_key(key: str, n: int, path: str) -> int:
    """A 1-based player number written as an object key: the integer's own
    decimal string, so no two keys name one player."""
    try:
        number = int(key)
    except ValueError:
        raise ScenarioError("bad-type", path, "player key must be an integer string") from None
    if str(number) != key:
        raise ScenarioError("bad-type", path, f"player key must be written as {number}")
    return _player_index(number, n, path)


def _firms(value: Any, path: str) -> list[float]:
    values = _number_list(value, path)
    if len(values) < 2:
        raise ScenarioError("bad-market", path, "need at least two firms")
    return _each(_positive, values, path)


def _ratio(value: Any, path: str) -> Fraction:
    obj = _as_mapping(value, path)
    num = _get(obj, "num", path, _as_int)
    den = _get(obj, "den", path, _as_int)
    if den <= 0:
        raise ScenarioError("nonpositive-parameter", f"{path}.den", "denominator must be positive")
    if num <= 0:
        raise ScenarioError("nonpositive-parameter", f"{path}.num", "numerator must be positive")
    try:
        value = num / den            # rounded once, as the fraction's float
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise ScenarioError("non-finite", path, "num/den must be a positive finite float")
    return Fraction(num, den)


def _ratios(values: list, path: str) -> tuple[Fraction, ...]:
    ratios = tuple(_each(_ratio, values, path))
    if len(set(ratios)) != len(ratios):
        raise ScenarioError(
            "duplicate-frequency", path, "frequency ratios must be pairwise distinct",
        )
    try:
        common_period(ratios)
    except OverflowError:
        raise ScenarioError(
            "non-finite", path, "the common probing period of these ratios overflows a float",
        ) from None
    return ratios


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


def _model(value: Any, path: str) -> str:
    if value not in MODEL_KINDS:
        raise ScenarioError("bad-model", path, f"model must be one of {', '.join(MODEL_KINDS)}")
    return value


def _sim(value: Any, path: str) -> SimConfig:
    sm = _as_mapping(value, path)
    return SimConfig(
        model=_get(sm, "model", path, _model, SimConfig.model),
        horizon=_get(sm, "horizon", path, _positive_number, SimConfig.horizon),
        stride=_get(sm, "stride", path, lambda v, p: _bounded_int(v, 1, p), SimConfig.stride),
        # below 16 steps per fastest probing period the dither is not resolved
        oversampling=_get(sm, "oversampling", path, lambda v, p: _bounded_int(v, 16, p),
                          SimConfig.oversampling),
        freq_scale=_get(sm, "freq_scale", path, _positive_number, SimConfig.freq_scale),
    )


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
        """Initial integrator state: ``initial_u``, else the (possibly offset)
        Nash prices of ``game``, and ``initial_delta``, else zero deceiver
        gains.  Given prices need no Nash solve, so the market may be one
        without an equilibrium."""
        u, delta = self.initial_u, self.initial_delta
        if u is None:
            game = game if game is not None else self.game()
            u = default_initial(game, self.topology, offset=self.u_offset).u
        if delta is None:
            delta = np.zeros(self.topology.n_deceivers)
        return SimState(t=0.0, u=u, delta=delta)

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
            "sim": dataclasses.asdict(self.sim),
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
    market = _get(doc, "market", "$", _as_mapping)
    resistance = _get(market, "resistance", "$.market", _firms)
    n = len(resistance)

    def costs(value: Any, path: str) -> list[float]:
        values = _counted(value, path, n, "firms")
        for i, m in enumerate(values):
            if m < 0.0:
                raise ScenarioError("nonpositive-parameter", f"{path}[{i}]",
                                    "marginal cost cannot be negative")
        return values

    def curvatures(value: Any, path: str) -> dict[int, float]:
        keyed = [(k, v, f"{path}.{k}") for k, v in _as_mapping(value, path).items()]
        return {_player_key(k, n, p): _positive_number(v, p) for k, v, p in keyed}

    params = OligopolyParams(
        resistance=np.array(resistance),
        marginal_cost=np.array(_get(market, "marginal_cost", "$.market", costs)),
        total_demand=_get(market, "total_demand", "$.market", _positive_number),
    )
    own_curvature = _get(market, "own_curvature", "$.market", curvatures, {})

    def per_firm(values: list) -> list:   # the tuning's lists, one entry per firm
        if len(values) != n:
            raise ScenarioError("length-mismatch", "$.tuning",
                                f"amplitude/gain/omega_ratio must each have {n} entries")
        return values

    def positives(value: Any, path: str) -> list[float]:
        return _each(_positive, per_firm(_number_list(value, path)), path)

    tun = _get(doc, "tuning", "$", _as_mapping)
    tuning = NESTuning(
        amplitude=np.array(_get(tun, "amplitude", "$.tuning", positives)),
        gain=np.array(_get(tun, "gain", "$.tuning", positives)),
        omega=_get(tun, "omega", "$.tuning", _positive_number),
        omega_ratio=_get(tun, "omega_ratio", "$.tuning",
                         lambda v, p: _ratios(per_firm(_as_list(v, p)), p)),
    )

    players: list[int] = []

    def player(value: Any, path: str) -> int:
        idx = _player_index(value, n, path)
        if idx in players:
            raise ScenarioError("duplicate-deceiver", path, f"player {idx + 1} listed twice")
        players.append(idx)
        return idx

    def deceiver(value: Any, path: str) -> tuple[int, tuple[int, ...], float, float]:
        entry = _as_mapping(value, path)
        z = _get(entry, "player", path, player)

        def targets(value: Any, path: str) -> tuple[int, ...]:
            vs = tuple(_each(lambda v, p: _player_index(v, n, p), _as_list(value, path), path))
            if z in vs:
                raise ScenarioError("self-victim", path, f"player {z + 1} cannot deceive itself")
            if not vs:
                raise ScenarioError("missing-field", path, "victim list is empty")
            for i, v in enumerate(vs):
                if v in vs[:i]:
                    raise ScenarioError("duplicate-victim", f"{path}[{i}]",
                                        f"player {v + 1} listed twice")
            return vs

        return (z, _get(entry, "victims", path, targets),
                _get(entry, "eps_rate", path, _positive_number, 1.0),
                _get(entry, "cost_ref", path, _as_number))

    def deception(value: Any, path: str) -> DeceptionTopology:
        block = _as_mapping(value, path)
        eps = _get(block, "eps", path, _positive_number)
        entries = _get(block, "deceivers", path, lambda v, p: _each(deceiver, _as_list(v, p), p))
        deceivers, victims, rates, refs = zip(*entries) if entries else ((),) * 4
        return DeceptionTopology(deceivers=deceivers, victims=victims, eps=eps,
                                 eps_rates=rates, cost_refs=refs)

    topology = _get(doc, "deception", "$", deception, _NO_DECEPTION)
    sim = _get(doc, "sim", "$", _sim, SimConfig())
    init = _get(doc, "initial", "$", _as_mapping, {})
    k = topology.n_deceivers
    return Scenario(
        params=params, own_curvature=own_curvature, tuning=tuning,
        topology=topology, sim=sim,
        initial_u=_get(init, "u", "$.initial",
                       lambda v, p: np.array(_counted(v, p, n, "firms")), None),
        initial_delta=_get(init, "delta", "$.initial",
                           lambda v, p: np.array(_counted(v, p, k, "deceivers")), None),
        u_offset=_get(init, "u_offset", "$.initial", _as_number, 0.0),
    )


def load_scenario(path) -> Scenario:
    """Load and validate a scenario JSON file."""
    with open(path) as fh:
        text = fh.read()
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

"""The game the victims are effectively playing once deceivers inject signals.

With deceiver gains frozen at ``delta``, each victim ``i`` behaves as if
minimizing a modified cost: their own-price curvature and linear coefficient
are replaced by the perturbed-pseudogradient entries, and a constant
``sigma_i`` shifts the cost level.  Equivalently the victim faces an
inflated sales curve

    J~_i(x) = -(s_i(x) + (x_i - m_i) * gamma_i) * (x_i - m_i)

with a single inflation coefficient ``gamma_i`` per victim.  Non-victims
keep their true cost exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .deception import DeceptionTopology, PerturbedPseudogradient, perturbed_pseudogradient
from .oligopoly import (
    OligopolyParams, QuadraticGame, build_quadratic_game, derive_aggregates, sales,
)


@dataclass(frozen=True)
class DeceptiveGame:
    """Victim-side view of the market at frozen deceiver gains ``delta``.

    ``sigma`` and ``inflation_coeff`` have one entry per player and are zero
    for players nobody deceives; for those players the deceptive cost is the
    true cost.
    """

    params: OligopolyParams
    base: QuadraticGame
    topology: DeceptionTopology
    delta: np.ndarray
    sigma: np.ndarray
    inflation_coeff: np.ndarray
    pert: PerturbedPseudogradient

    @property
    def n_players(self) -> int:
        return self.base.n_players

    def quadratic(self) -> QuadraticGame:
        """Exact quadratic coefficients of the deceptive costs.

        Per player ``i`` only the own-price entries move: the curvature
        becomes ``qbar[i, i]`` (``qbar`` is the base pseudogradient matrix off
        its diagonal), the own linear coefficient ``bbar[i]``, and the
        constant picks up ``sigma_i``.
        """
        idx = np.arange(self.n_players)
        b = self.base.b.copy()
        b[idx, idx] = self.pert.bbar
        return QuadraticGame(self.pert.qbar, b, self.base.c + self.sigma)


def build_deceptive_game(
    params: OligopolyParams,
    topology: DeceptionTopology,
    delta: Sequence[float],
    base: QuadraticGame | None = None,
) -> DeceptiveGame:
    """Construct the deceptive game at gains ``delta``.

    Every ``delta_k`` must be nonzero: at ``delta = 0`` there is no deception
    and the object would just be the base game.  ``base`` defaults to the
    exact quadratic market game; pass a modified base to keep its
    coefficients as the starting point.
    """
    d = np.asarray(delta, dtype=float)
    if d.shape != (topology.n_deceivers,):
        raise ValueError(
            f"expected {topology.n_deceivers} delta entries, got shape {d.shape}"
        )
    if np.any(d == 0.0):
        raise ValueError(
            "every deceiver gain must be nonzero; at delta=0 the deceptive "
            "game degenerates to the base game"
        )
    if base is None:
        base = build_quadratic_game(params)
    r = params.resistance
    # sum over deceivers k of victim i of delta_k / R_{z_k}; a gain so large
    # that a product overflows leaves an infinite or NaN entry, as it does
    # in Bbar(delta), without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        injected = ((1.0 / r)[list(topology.deceivers)] * d) \
            @ topology.victim_mask(params.n_players)
        gamma = (derive_aggregates(params).r_parallel / (2.0 * r)) * injected
        sigma = -gamma * params.marginal_cost ** 2
    pert = perturbed_pseudogradient(base, topology, d)
    return DeceptiveGame(
        params=params,
        base=base,
        topology=topology,
        delta=d,
        sigma=sigma,
        inflation_coeff=gamma,
        pert=pert,
    )


def deceptive_cost(dgame: DeceptiveGame, x: Sequence[float], i: int) -> float:
    """Cost player ``i`` experiences in the deceptive game (inflated-sales form)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (dgame.n_players,):
        raise ValueError(
            f"expected a price vector of length {dgame.n_players}, got {x.shape}"
        )
    return float(deceptive_costs(dgame, x)[i])


def deceptive_costs(dgame: DeceptiveGame, x: Sequence[float]) -> np.ndarray:
    """All players' deceptive costs at once."""
    x = np.asarray(x, dtype=float)
    margin = x - dgame.params.marginal_cost
    s = sales(dgame.params, x)
    return -(s + margin * dgame.inflation_coeff) * margin


@dataclass(frozen=True)
class DesirabilityReport:
    """How deception skews one victim's view of the rival products' appeal.

    The victim aims at the aggregate desirability (inverse parallel
    resistance) of everyone else's products; each deceiver ``k`` shifts
    their own apparent term from ``1/R_k`` to ``(1 - delta_k)/R_k``.
    """

    victim: int
    true_aggregate: float
    perceived_aggregate: float
    perceived_per_deceiver: dict[int, float]
    direction: str  # "raises price" | "lowers price" | "neutral"


def perceived_desirability(
    params: OligopolyParams,
    topology: DeceptionTopology,
    delta: Sequence[float],
    victim: int,
) -> DesirabilityReport:
    """Desirability report for one deceived player.

    Rejects players with no attackers: without deception there is nothing to
    report.  The price direction follows the sign of the perceived drop
    ``sum_k delta_k / R_k``: underestimating rivals' appeal pushes the
    victim's price up.
    """
    d = np.asarray(delta, dtype=float)
    attackers = topology.attacker_positions(params.n_players)
    if not 0 <= victim < params.n_players:
        raise ValueError(f"victim index {victim} out of range")
    ks = attackers[victim]
    if not ks:
        raise ValueError(f"player {victim} is not being deceived by anyone")
    agg = derive_aggregates(params)
    r = params.resistance
    true_aggregate = 1.0 / agg.r_others[victim]
    drop = float(sum(d[k] / r[topology.deceivers[k]] for k in ks))
    per_deceiver = {
        topology.deceivers[k]: float((1.0 - d[k]) / r[topology.deceivers[k]])
        for k in ks
    }
    if drop > 0.0:
        direction = "raises price"
    elif drop < 0.0:
        direction = "lowers price"
    else:
        direction = "neutral"
    return DesirabilityReport(
        victim=victim,
        true_aggregate=float(true_aggregate),
        perceived_aggregate=float(true_aggregate - drop),
        perceived_per_deceiver=per_deceiver,
        direction=direction,
    )


@dataclass(frozen=True)
class NashVerdict:
    """First- and second-order equilibrium check in the deceptive game."""

    is_ne: bool
    first_order_residual: float
    second_order_margins: np.ndarray


def verify_deceptive_nash(dgame: DeceptiveGame, u_star: Sequence[float]) -> NashVerdict:
    """Check whether ``u_star`` is a Nash equilibrium of the deceptive game.

    Because every deceptive cost is quadratic in the player's own price, the
    two conditions are conclusive: the perceived own-price gradients must
    vanish (``Qbar u* + Bbar = 0`` within a relative tolerance) and every
    own-price curvature ``qbar[i, i]`` must be positive.
    """
    u = np.asarray(u_star, dtype=float)
    if u.shape != (dgame.n_players,):
        raise ValueError(
            f"expected a price vector of length {dgame.n_players}, got {u.shape}"
        )
    qbar, bbar = dgame.pert.qbar, dgame.pert.bbar
    residual = float(np.max(np.abs(qbar @ u + bbar)))
    margins = np.diagonal(qbar).copy()
    first_order = residual <= 1e-8 * (1.0 + float(np.max(np.abs(bbar))))
    second_order = bool(np.all(margins > 0.0))
    return NashVerdict(
        is_ne=first_order and second_order,
        first_order_residual=residual,
        second_order_margins=margins,
    )

"""N-firm oligopoly pricing market and its quadratic game representation.

Each firm ``i`` posts a price ``x_i`` and sells

    s_i(x) = (Rp / R_i) * (S_d - x_i / Ro_i + sum_{j != i} x_j / R_j)

where ``R_i`` is firm ``i``'s market resistance, ``Rp`` the parallel
aggregate of all resistances, ``Ro_i`` the parallel aggregate of everyone
else's, and ``S_d`` the total demand.  Firm ``i`` seeks to minimize the cost
(negative profit)

    J_i(x) = -s_i(x) * (x_i - m_i)

with ``m_i`` its marginal cost.  Every ``J_i`` is an exact quadratic in the
price vector, so the whole game is captured by per-player matrices
``(Q_i, b_i, c_i)`` with ``J_i = x' Q_i x / 2 + b_i' x + c_i``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from . import numerics


@dataclass(frozen=True)
class OligopolyParams:
    """Market primitives: per-firm resistances and marginal costs, total demand."""

    resistance: np.ndarray
    marginal_cost: np.ndarray
    total_demand: float

    def __post_init__(self):
        r = np.asarray(self.resistance, dtype=float)
        m = np.asarray(self.marginal_cost, dtype=float)
        object.__setattr__(self, "resistance", r)
        object.__setattr__(self, "marginal_cost", m)
        object.__setattr__(self, "total_demand", float(self.total_demand))
        if r.ndim != 1 or m.ndim != 1:
            raise ValueError("resistance and marginal_cost must be 1-d sequences")
        if r.size != m.size:
            raise ValueError(
                f"resistance has {r.size} entries but marginal_cost has {m.size}"
            )
        if r.size < 2:
            raise ValueError("a market needs at least two firms")
        if not np.all(np.isfinite(r)) or not np.all(np.isfinite(m)) \
                or not np.isfinite(self.total_demand):
            raise ValueError("market parameters must be finite")
        if np.any(r <= 0.0):
            raise ValueError("every resistance must be strictly positive")
        if np.any(m < 0.0):
            raise ValueError("marginal costs must be nonnegative")
        if self.total_demand <= 0.0:
            raise ValueError("total demand must be strictly positive")

    @property
    def n_players(self) -> int:
        return int(self.resistance.size)


@dataclass(frozen=True)
class Aggregates:
    """Harmonic resistance aggregates: total and leave-one-out."""

    r_parallel: float          # 1 / sum_k (1 / R_k)
    r_others: np.ndarray       # r_others[i] = 1 / sum_{k != i} (1 / R_k)


def derive_aggregates(params: OligopolyParams) -> Aggregates:
    inv = 1.0 / params.resistance
    total = float(np.sum(inv))
    return Aggregates(
        r_parallel=1.0 / total,
        r_others=1.0 / (total - inv),
    )


def sales(params: OligopolyParams, x: np.ndarray) -> np.ndarray:
    """Sales volume of every firm at price vector ``x`` (direct formula)."""
    x = np.asarray(x, dtype=float)
    agg = derive_aggregates(params)
    r = params.resistance
    cross = np.sum(x / r) - x / r          # sum_{j != i} x_j / R_j
    return (agg.r_parallel / r) * (params.total_demand - x / agg.r_others + cross)


def costs(params: OligopolyParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-firm cost and profit at ``x``, straight from the sales model.

    Returns ``(j, p)`` with ``j_i = -s_i(x) (x_i - m_i)`` and ``p = -j``.
    """
    x = np.asarray(x, dtype=float)
    j = -sales(params, x) * (x - params.marginal_cost)
    return j, -j


@dataclass(frozen=True)
class QuadraticGame:
    """A game whose costs are ``J_i(x) = x' q[i] x / 2 + b[i]' x + c[i]``.

    ``q`` has shape ``(n, n, n)`` (``q[i]`` symmetric), ``b`` shape ``(n, n)``
    (row ``i`` belongs to player ``i``) and ``c`` shape ``(n,)``.
    """

    q: np.ndarray
    b: np.ndarray
    c: np.ndarray

    @property
    def n_players(self) -> int:
        return int(self.c.size)

    def cost(self, i: int, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        qi = self.q[i]
        return float(0.5 * x @ qi @ x + self.b[i] @ x + self.c[i])

    def costs(self, x: np.ndarray) -> np.ndarray:
        """All player costs at once; ``x`` may carry leading axes (one price
        vector per row), and so does the result.

        Exploits the row/column-``i`` sparsity of ``q[i]``: the quadratic
        term reduces to ``x_i (q[i, i] . x - q[i, i, i] x_i / 2)``.
        """
        x = np.asarray(x, dtype=float)
        rows = self.pseudogradient_matrix
        diag = np.diagonal(rows)
        return x * (x @ rows.T - 0.5 * diag * x) + x @ self.b.T + self.c

    @cached_property
    def pseudogradient_matrix(self) -> np.ndarray:
        """Rows ``i`` of each ``q[i]`` stacked: the pseudogradient is linear."""
        n = self.n_players
        idx = np.arange(n)
        return self.q[idx, idx, :]

    @cached_property
    def pseudogradient_offset(self) -> np.ndarray:
        n = self.n_players
        idx = np.arange(n)
        return self.b[idx, idx]

    def pseudogradient(self, x: np.ndarray) -> np.ndarray:
        """Stacked own-price cost gradients ``dJ_i/dx_i`` at ``x``."""
        return self.pseudogradient_matrix @ np.asarray(x, dtype=float) \
            + self.pseudogradient_offset

    def nash_equilibrium(self) -> np.ndarray:
        """The unique price vector with every own-price gradient zero."""
        return numerics.solve_linear(
            self.pseudogradient_matrix, -self.pseudogradient_offset
        )


def build_quadratic_game(params: OligopolyParams) -> QuadraticGame:
    """Exact quadratic coefficients of the oligopoly cost functions.

    Raises ``ValueError`` naming the market parameters when a coefficient
    overflows a float (legal but extreme numbers, such as a resistance of
    5e-324 whose reciprocal is infinite).
    """
    n = params.n_players
    r = params.resistance
    m = params.marginal_cost
    sd = params.total_demand
    q = np.zeros((n, n, n))
    b = np.zeros((n, n))
    c = np.zeros(n)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        agg = derive_aggregates(params)
        rp = agg.r_parallel
        for i in range(n):
            q[i, i, i] = 2.0 * rp / (r[i] * agg.r_others[i])
            for j in range(n):
                if j == i:
                    continue
                q[i, i, j] = q[i, j, i] = -rp / (r[i] * r[j])
                b[i, j] = m[i] * rp / (r[i] * r[j])
            b[i, i] = -m[i] * rp / (r[i] * agg.r_others[i]) - sd * rp / r[i]
            c[i] = rp * sd * m[i] / r[i]
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(b)) and np.all(np.isfinite(c))):
        raise ValueError(
            f"the market's cost coefficients overflow a float: resistance "
            f"{r.tolist()}, marginal_cost {m.tolist()}, total_demand {sd:g}")
    return QuadraticGame(q=q, b=b, c=c)


def override_own_curvature(
    game: QuadraticGame, own_curvature: Mapping[int, float]
) -> QuadraticGame:
    """Return a copy of ``game`` with selected ``q[i, i, i]`` entries replaced.

    ``own_curvature`` maps 0-based player indices to replacement values for
    that player's own-price curvature.  All other coefficients are kept.
    """
    n = game.n_players
    q = game.q.copy()
    for i, value in own_curvature.items():
        if not 0 <= i < n:
            raise ValueError(f"player index {i} out of range for {n} players")
        q[i, i, i] = float(value)
    return dataclasses.replace(game, q=q)


def market_game(
    params: OligopolyParams,
    own_curvature: Mapping[int, float] | None = None,
) -> QuadraticGame:
    """Build the quadratic game, applying an own-curvature override if given."""
    game = build_quadratic_game(params)
    if own_curvature:
        game = override_own_curvature(game, own_curvature)
    return game

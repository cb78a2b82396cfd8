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
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
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
        sd = float(self.total_demand)
        object.__setattr__(self, "resistance", r)
        object.__setattr__(self, "marginal_cost", m)
        object.__setattr__(self, "total_demand", sd)
        if r.ndim != 1 or m.ndim != 1:
            raise ValueError("resistance and marginal_cost must be 1-d sequences")
        if r.size != m.size:
            raise ValueError(
                f"resistance has {r.size} entries but marginal_cost has {m.size}"
            )
        if r.size < 2:
            raise ValueError("a market needs at least two firms")
        # checked on plain floats: numpy reductions cost more on a few entries
        rl, ml = r.tolist(), m.tolist()
        if not (all(map(math.isfinite, rl)) and all(map(math.isfinite, ml))
                and math.isfinite(sd)):
            raise ValueError("market parameters must be finite")
        if min(rl) <= 0.0:
            raise ValueError("every resistance must be strictly positive")
        if min(ml) < 0.0:
            raise ValueError("marginal costs must be nonnegative")
        if sd <= 0.0:
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

    Each ``q[i]`` is symmetric and nonzero only in its row and column ``i``,
    as a market's are, so its row ``i`` holds all of it.  Those rows make up
    ``pseudogradient_matrix``, shape ``(n, n)``; :meth:`hessians` builds the
    dense ``q[i]``.  ``b`` has shape ``(n, n)`` (row ``i`` belongs to player
    ``i``) and ``c`` shape ``(n,)``.
    """

    pseudogradient_matrix: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        shape, n = np.shape(self.pseudogradient_matrix), self.n_players
        if shape != (n, n):
            raise ValueError(f"pseudogradient_matrix has shape {shape}, expected {(n, n)}")

    @property
    def n_players(self) -> int:
        return int(self.c.size)

    def hessians(self, players: Sequence[int]) -> np.ndarray:
        """Dense ``q[i]`` of each listed player, shape ``(len(players), n, n)``."""
        n = self.n_players
        q = np.zeros((len(players), n, n))
        for qi, i in zip(q, players):
            qi[i] = qi[:, i] = self.pseudogradient_matrix[i]
        return q

    @property
    def q(self) -> np.ndarray:
        """Every player's dense Hessian, shape ``(n, n, n)``, built on each read."""
        return self.hessians(range(self.n_players))

    def cost(self, i: int, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ self.hessians([i])[0] @ x + self.b[i] @ x + self.c[i])

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
    def sales_form(self) -> tuple[np.ndarray, ...] | None:
        """``(v, m, theta, beta, gamma)`` with ``J_i(x) = z_i (theta_i z_i +
        beta_i - Z) + gamma_i`` for ``z = v o (x - m)`` and ``Z = sum_j
        z_j``, or ``None`` where the costs have no such form.  The arrays
        are read-only.

        The form exists where every off-diagonal entry is ``Q_ij = -v_i
        v_j`` and ``b_ij = m_i v_i v_j`` with every ``v_i`` nonzero: then
        ``x_i Q_ij x_j + b_ij x_j = -z_i v_j x_j``, so player ``i`` meets the
        others only through ``Z``.  Every market's sales are affine in one
        resistance-weighted price sum (``v_i = sqrt(Rp) / R_i``, ``m`` the
        marginal costs), and neither an own-curvature override nor a
        deceptive game moves an off-diagonal entry.  ``v`` and ``m`` are
        read off a few entries and must reproduce every off-diagonal entry
        of ``Q`` and ``b`` to 1e-13 relative.
        """
        q, b, c = self.pseudogradient_matrix, self.b, self.c
        n = c.size
        i = np.arange(n)
        j, k = (i + 1) % n, (i + 2) % n
        with np.errstate(all="ignore"):
            if n == 2:
                v = np.array([abs(q[0, 1]), -q[0, 1]]) / math.sqrt(abs(q[0, 1]))
            else:
                # v_i^2 = Q_ij Q_ik / -Q_jk, signed like -Q_0i with v_0 > 0
                # (one player has no off-diagonal entry, and any v_0 != 0
                # will do)
                v = np.copysign(np.sqrt(q[i, j] * q[i, k] / -q[j, k]), np.where(i, -q[0], 1.0))
            m = b[i, j] / -q[i, j]
            vv = v[:, None] * v
            dq, db = np.abs(q + vv), np.abs(b - m[:, None] * vv)
            dq[i, i] = db[i, i] = 0.0
            qd, bd = q[i, i], b[i, i]
            form = np.array([v, m, qd / (2.0 * v * v) + 1.0, (qd * m + bd) / v - v @ m + v * m,
                             (0.5 * qd * m + bd) * m + c])
            if (dq <= 1e-13 * np.abs(q)).all() and (db <= 1e-13 * np.abs(b)).all() \
                    and v.all() and np.isfinite(form).all():
                form.flags.writeable = False
                return tuple(form)
        return None

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
    r = params.resistance.tolist()
    m = params.marginal_cost.tolist()
    sd = params.total_demand
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        agg = derive_aggregates(params)
    rp = agg.r_parallel
    # Plain floats, entry for entry the same operations as numpy's, which
    # cost more per call on a few entries.  Python divides by zero with an
    # error where numpy gives an infinity or a NaN, and both refuse the market.
    rows, b, c = [], [], []
    try:
        for i, (ri, mi, oi) in enumerate(zip(r, m, agg.r_others.tolist())):
            den = [ri * rj for rj in r]
            den[i] = ri * oi
            mrp = mi * rp
            row = [-rp / d for d in den]
            brow = [mrp / d for d in den]
            row[i] = 2.0 * rp / den[i]
            brow[i] = -brow[i] - sd * rp / ri
            rows.append(row)
            b.append(brow)
            c.append(rp * sd * mi / ri)
        finite = all(map(math.isfinite, chain(*rows, *b, c)))
    except ZeroDivisionError:
        finite = False
    if not finite:
        raise ValueError(
            f"the market's cost coefficients overflow a float: resistance "
            f"{r}, marginal_cost {m}, total_demand {sd:g}")
    return QuadraticGame(np.array(rows), np.array(b), np.array(c))


def override_own_curvature(
    game: QuadraticGame, own_curvature: Mapping[int, float]
) -> QuadraticGame:
    """Return a copy of ``game`` with selected ``q[i, i, i]`` entries replaced.

    ``own_curvature`` maps 0-based player indices to replacement values for
    that player's own-price curvature.  All other coefficients are kept.
    """
    n = game.n_players
    rows = game.pseudogradient_matrix.copy()
    for i, value in own_curvature.items():
        if not 0 <= i < n:
            raise ValueError(f"player index {i} out of range for {n} players")
        rows[i, i] = float(value)
    return dataclasses.replace(game, pseudogradient_matrix=rows)


def market_game(
    params: OligopolyParams,
    own_curvature: Mapping[int, float] | None = None,
) -> QuadraticGame:
    """Build the quadratic game, applying an own-curvature override if given."""
    game = build_quadratic_game(params)
    if own_curvature:
        game = override_own_curvature(game, own_curvature)
    return game

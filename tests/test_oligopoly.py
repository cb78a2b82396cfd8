"""Market model: aggregates, sales, quadratic costs, Nash equilibrium."""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest

from deceptive_nes import (
    OligopolyParams,
    QuadraticGame,
    build_quadratic_game,
    costs,
    derive_aggregates,
    market_game,
    override_own_curvature,
    sales,
)

import oracles

# Three-firm study constants, frozen from an independent transcription of
# the model formulas (oracles.quadratic_blocks + numpy.linalg.solve).
Q_MATRIX = np.array([
    [2.1779947427713107, -0.7510326699211417, -0.3379647014645137],
    [-0.7510326699211417, 2.760045061960196, -0.6289898610589562],
    [-0.3379647014645137, -0.6289898610589562, 1.9339091250469396],
])
B_VECTOR = np.array(
    [-48.81712354487421, -90.33984228313933, -51.65227187382651])
NASH_FAITHFUL = np.array(
    [51.364768177680524, 59.23058761324548, 54.94942244895119])
NASH_PUBLISHED = np.array(
    [49.54696935551522, 57.130040354115174, 47.90260172639769])
R_PARALLEL = 0.18114907998497937
R_BAR = np.array(
    [0.2482758620689655, 0.3646258503401361, 0.2341747572815534])


# ── parameter validation ─────────────────────────────────────────────────────

def test_params_validation_rejects_bad_inputs():
    good = dict(resistance=np.array([1.0, 2.0]),
                marginal_cost=np.array([0.5, 0.5]), total_demand=10.0)
    OligopolyParams(**good)  # sanity: the base case is fine
    for field, value in [
        ("resistance", np.array([1.0])),            # single firm
        ("resistance", np.array([1.0, -2.0])),      # negative resistance
        ("resistance", np.array([1.0, 0.0])),       # zero resistance
        ("resistance", np.array([[1.0, 2.0]])),     # not 1-d
        ("marginal_cost", np.array([0.5])),         # length mismatch
        ("marginal_cost", np.array([-0.5, 0.5])),   # negative cost
        ("marginal_cost", np.array([np.nan, 0.5])),
        ("total_demand", 0.0),
        ("total_demand", -3.0),
    ]:
        bad = dict(good, **{field: value})
        with pytest.raises(ValueError):
            OligopolyParams(**bad)


def test_params_n_players(params3):
    assert params3.n_players == 3


# ── aggregates ───────────────────────────────────────────────────────────────

def test_aggregates_three_firm_frozen(params3):
    agg = derive_aggregates(params3)
    assert abs(agg.r_parallel - R_PARALLEL) < 1e-15
    assert np.max(np.abs(agg.r_others - R_BAR)) < 1e-15


def test_aggregates_match_oracle_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        r, m, sd = oracles.random_market(rng)
        agg = derive_aggregates(OligopolyParams(r, m, sd))
        r_par, r_bar = oracles.aggregates(r)
        assert abs(agg.r_parallel - r_par) < 1e-13 * r_par
        assert np.max(np.abs(agg.r_others - r_bar)) < 1e-13 * np.max(r_bar)


def test_parallel_below_leave_one_out():
    # 0 < R_parallel < R-bar_i for every firm: adding a branch in parallel
    # always lowers the aggregate.  Holds on every valid market.
    rng = np.random.default_rng(12)
    for _ in range(200):
        r, m, sd = oracles.random_market(rng)
        agg = derive_aggregates(OligopolyParams(r, m, sd))
        assert agg.r_parallel > 0.0
        assert np.all(agg.r_parallel < agg.r_others), (
            f"R_parallel {agg.r_parallel} not below {agg.r_others}"
        )


# ── sales and costs ──────────────────────────────────────────────────────────

def test_sales_match_oracle(params3):
    rng = np.random.default_rng(13)
    for _ in range(25):
        x = rng.uniform(0.0, 120.0, size=3)
        mine = sales(params3, x)
        ref = oracles.sales(params3.resistance, params3.total_demand, x)
        assert np.max(np.abs(mine - ref)) < 1e-12 * (1 + np.max(np.abs(ref)))


def test_costs_are_negative_sales_times_margin(params3):
    rng = np.random.default_rng(14)
    for _ in range(25):
        x = rng.uniform(0.0, 120.0, size=3)
        j, p = costs(params3, x)
        s = sales(params3, x)
        expected = -s * (x - params3.marginal_cost)
        assert np.allclose(j, expected, rtol=1e-13)
        assert np.allclose(p, -j, rtol=0, atol=0)


def test_sales_sum_to_demand_at_equal_prices(params3):
    # All prices equal: cross and own terms cancel, every firm sells its
    # parallel share and total sales equal S_d.
    x = np.full(3, 40.0)
    total = float(np.sum(sales(params3, x)))
    assert abs(total - params3.total_demand) < 1e-10


# ── quadratic game ───────────────────────────────────────────────────────────

def test_quadratic_cost_equals_direct_cost():
    rng = np.random.default_rng(15)
    for _ in range(40):
        r, m, sd = oracles.random_market(rng)
        params = OligopolyParams(r, m, sd)
        game = build_quadratic_game(params)
        x = rng.uniform(0.0, 2.0 * sd, size=params.n_players)
        for i in range(params.n_players):
            direct = oracles.direct_cost(r, m, sd, x, i)
            quad = game.cost(i, x)
            assert abs(quad - direct) < 1e-9 * (1.0 + abs(direct)), (
                f"player {i}: quadratic {quad} vs direct {direct}"
            )


def test_quadratic_blocks_match_oracle():
    rng = np.random.default_rng(16)
    for players in [(2, 6)] * 30 + [(60, 60)] * 3:
        r, m, sd = oracles.random_market(rng, *players)
        game = build_quadratic_game(OligopolyParams(r, m, sd))
        q, b, c = oracles.quadratic_blocks(r, m, sd)
        assert np.max(np.abs(game.q - q)) < 1e-13
        assert np.max(np.abs(game.b - b)) < 1e-10
        assert np.max(np.abs(game.c - c)) < 1e-10


@pytest.mark.parametrize("resistance", [(5e-324, 0.36, 0.8), (1e-200, 1e-200, 1.0)])
def test_quadratic_game_refuses_coefficients_that_overflow(resistance):
    # legal parameters whose coefficients are not floats: the error names
    # the market's numbers, and numpy warns about nothing on the way
    params = OligopolyParams(np.array(resistance), np.array([20.0, 29.0, 30.0]), 100.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"overflow a float: resistance \["):
            build_quadratic_game(params)


def test_costs_vectorized_matches_per_player(game3):
    rng = np.random.default_rng(17)
    for _ in range(20):
        x = rng.uniform(0.0, 120.0, size=3)
        vec = game3.costs(x)
        per = np.array([game3.cost(i, x) for i in range(3)])
        assert np.max(np.abs(vec - per)) < 1e-9 * (1 + np.max(np.abs(per)))


def test_quadratic_game_costs_agree_with_dense_hessians():
    # costs() reads each q[i] in its row and column i only, where cost(i, x)
    # reads the dense q[i] built from the pseudogradient row; the two agree,
    # and a pseudogradient matrix of the wrong shape is refused.
    rows, b, c = np.eye(3), np.zeros((3, 3)), np.array([1.8, 0.0, 0.0])
    rows[1, 0] = -0.5
    b[0] = 1.0
    game = QuadraticGame(rows, b, c)
    x = np.array([1.0, 2.0, 3.0])
    assert game.cost(0, x) == game.costs(x)[0] == pytest.approx(8.3, rel=1e-15)
    assert [game.cost(i, x) for i in range(3)] == game.costs(x).tolist()
    assert game.q[1, 1, 0] == game.q[1, 0, 1] == -0.5
    with pytest.raises(ValueError, match="shape"):
        QuadraticGame(rows[:, :2], b, c)


def test_pseudogradient_blocks_frozen(game3):
    assert np.max(np.abs(game3.pseudogradient_matrix - Q_MATRIX)) < 1e-12
    assert np.max(np.abs(game3.pseudogradient_offset - B_VECTOR)) < 1e-11


def test_pseudogradient_vanishes_at_nash(game3):
    x = game3.nash_equilibrium()
    grad = game3.pseudogradient(x)
    assert np.max(np.abs(grad)) < 1e-10, f"residual {np.max(np.abs(grad))}"


def test_nash_matches_numpy_solve():
    rng = np.random.default_rng(18)
    for _ in range(30):
        r, m, sd = oracles.random_market(rng)
        game = build_quadratic_game(OligopolyParams(r, m, sd))
        mine = game.nash_equilibrium()
        q, b, c = oracles.quadratic_blocks(r, m, sd)
        qq, bb = oracles.pseudogradient_blocks(q, b)
        ref = oracles.np_solve(qq, -bb)
        assert np.max(np.abs(mine - ref)) < 1e-9 * (1 + np.max(np.abs(ref)))


def test_nash_three_firm_frozen(game3):
    x = game3.nash_equilibrium()
    assert np.max(np.abs(x - NASH_FAITHFUL)) < 1e-10


def test_nash_is_unilateral_minimum(game3):
    # Quadratic with positive own-curvature: any unilateral deviation
    # strictly increases that player's cost.
    x = game3.nash_equilibrium()
    base = game3.costs(x)
    rng = np.random.default_rng(19)
    for _ in range(30):
        i = int(rng.integers(0, 3))
        dev = x.copy()
        dev[i] += rng.uniform(-5.0, 5.0) or 0.1
        assert game3.cost(i, dev) > base[i] - 1e-12


# ── own-curvature override ───────────────────────────────────────────────────

def test_override_changes_single_entry(game3):
    before = game3.pseudogradient_matrix.copy()
    new = override_own_curvature(game3, {2: 2.1779947427713107})
    assert np.array_equal(game3.pseudogradient_matrix, before), "override wrote into its input"
    diff = np.abs(new.q - game3.q)
    assert new.q[2, 2, 2] == 2.1779947427713107
    diff[2, 2, 2] = 0.0
    assert np.max(diff) == 0.0, "override leaked into other entries"
    assert np.max(np.abs(new.b - game3.b)) == 0.0
    assert np.max(np.abs(new.c - game3.c)) == 0.0


def test_override_rejects_bad_index(game3):
    with pytest.raises(ValueError):
        override_own_curvature(game3, {3: 1.0})
    with pytest.raises(ValueError):
        override_own_curvature(game3, {-1: 1.0})


def test_market_game_published_nash(game3_published):
    x = game3_published.nash_equilibrium()
    assert np.max(np.abs(x - NASH_PUBLISHED)) < 1e-10
    j = game3_published.costs(x)
    expected = np.array(
        [-950.7201856844505, -1092.010683793183, -239.18855834196415])
    assert np.max(np.abs(j - expected)) < 1e-8

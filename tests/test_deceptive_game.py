"""Deceptive game construction, cost identity, Nash verification,
perceived-desirability reporting."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from deceptive_nes import (
    DeceptionTopology,
    OligopolyParams,
    build_deceptive_game,
    build_quadratic_game,
    deceptive_cost,
    deceptive_costs,
    deceptive_equilibrium,
    market_game,
    perceived_desirability,
    verify_deceptive_nash,
)

import oracles

DELTA_STAR = 2.48551847289606
GAMMA_3 = 0.42000875433842544          # inflation coefficient of firm 3
SIGMA_3 = -378.0078789045829           # constant offset of firm 3's cost
TRUE_AGG = 4.270315091210613           # sum of perceived desirabilities 1/R_j
PERCEIVED_AGG = 0.5605860271866434     # same sum under deception at delta*
PER_DECEIVER = -2.2171917505911343     # (1 - delta*) / R_1


# ── construction ─────────────────────────────────────────────────────────────

def test_rejects_zero_gain(params3, topology3):
    with pytest.raises(ValueError):
        build_deceptive_game(params3, topology3, np.array([0.0]))


def test_inflation_and_offset_frozen(params3, topology3):
    dgame = build_deceptive_game(params3, topology3, np.array([DELTA_STAR]))
    assert np.allclose(dgame.inflation_coeff, [0.0, 0.0, GAMMA_3], atol=1e-12)
    assert np.allclose(dgame.sigma, [0.0, 0.0, SIGMA_3], atol=1e-9)
    # sigma_i = -gamma_i m_i^2 ties the two columns together
    assert abs(dgame.sigma[2] + dgame.inflation_coeff[2]
               * params3.marginal_cost[2] ** 2) < 1e-9


def test_a_120_firm_market_and_its_deceptive_game_hold_no_dense_hessians():
    # One (120, 120, 120) float tensor alone takes 13.8 MB; a game holds one
    # pseudogradient row per firm, so the override and the quadratic copy
    # rows only.
    rng = np.random.default_rng(120)
    params = OligopolyParams(*oracles.random_market(rng, 120, 120))
    topology = DeceptionTopology(deceivers=(0, 7), victims=((1, 2, 3), (2, 40)))
    tracemalloc.start()
    try:
        game = market_game(params, {5: 2.0})
        tilde = build_deceptive_game(params, topology, np.array([1.3, -0.4]), base=game)
        tilde.quadratic()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6, f"peak {peak / 1e6:.1f} MB"


def test_quadratic_touches_only_victim_own_blocks(params3, topology3):
    base = build_quadratic_game(params3)
    dgame = build_deceptive_game(params3, topology3, np.array([1.3]),
                                 base=base)
    tilde = dgame.quadratic()
    dq = np.abs(tilde.q - base.q)
    db = np.abs(tilde.b - base.b)
    dc = np.abs(tilde.c - base.c)
    assert dq[2, 2, 2] > 0.0 and db[2, 2] > 0.0 and dc[2] > 0.0
    dq[2, 2, 2] = 0.0
    db[2, 2] = 0.0
    dc[2] = 0.0
    assert np.max(dq) == 0.0, "non-victim quadratic entries moved"
    assert np.max(db) == 0.0
    assert np.max(dc) == 0.0


# ── cost identity ────────────────────────────────────────────────────────────

def test_inflated_sales_equals_quadratic_form(params3, topology3):
    # Two routes to the victim's deceptive cost: the inflated-sales product
    # and the modified quadratic.  They must agree everywhere.
    dgame = build_deceptive_game(params3, topology3, np.array([DELTA_STAR]))
    tilde = dgame.quadratic()
    rng = np.random.default_rng(31)
    for _ in range(30):
        x = rng.uniform(0.0, 120.0, size=3)
        for i in range(3):
            a = deceptive_cost(dgame, x, i)
            b = tilde.cost(i, x)
            assert abs(a - b) < 1e-9 * (1.0 + abs(b)), (
                f"player {i}: inflated {a} vs quadratic {b}"
            )


def test_cost_identity_random_markets():
    rng = np.random.default_rng(32)
    for _ in range(30):
        r, m, sd = oracles.random_market(rng)
        params = OligopolyParams(r, m, sd)
        n = params.n_players
        deceivers, victims = oracles.random_topology(rng, n)
        delta = rng.uniform(0.05, 1.5, size=len(deceivers)) \
            * rng.choice([-1.0, 1.0], size=len(deceivers))
        topo = DeceptionTopology(deceivers=deceivers, victims=victims)
        dgame = build_deceptive_game(params, topo, delta)
        tilde = dgame.quadratic()
        x = rng.uniform(0.0, 2.0 * sd, size=n)
        quad = np.array([tilde.cost(i, x) for i in range(n)])
        infl = deceptive_costs(dgame, x)
        assert np.max(np.abs(quad - infl)) < 1e-8 * (
            1.0 + np.max(np.abs(quad)))


def test_deceptive_costs_vectorized(params3, topology3):
    dgame = build_deceptive_game(params3, topology3, np.array([1.1]))
    rng = np.random.default_rng(33)
    x = rng.uniform(10.0, 90.0, size=3)
    vec = deceptive_costs(dgame, x)
    per = np.array([deceptive_cost(dgame, x, i) for i in range(3)])
    assert np.allclose(vec, per, rtol=1e-13)


def test_non_victims_keep_true_costs(params3, topology3, game3):
    dgame = build_deceptive_game(params3, topology3, np.array([2.0]))
    rng = np.random.default_rng(34)
    for _ in range(10):
        x = rng.uniform(0.0, 120.0, size=3)
        for i in (0, 1):  # firms 1 and 2 are not deceived
            assert abs(deceptive_cost(dgame, x, i) - game3.cost(i, x)) \
                < 1e-10 * (1.0 + abs(game3.cost(i, x)))


# ── Nash verification ────────────────────────────────────────────────────────

def test_deceptive_equilibrium_is_nash_of_deceptive_game(params3, topology3):
    delta = np.array([DELTA_STAR])
    dgame = build_deceptive_game(params3, topology3, delta)
    u = deceptive_equilibrium(dgame.base, topology3, delta)
    verdict = verify_deceptive_nash(dgame, u)
    assert verdict.is_ne
    assert verdict.first_order_residual < 1e-10
    assert np.all(verdict.second_order_margins > 0.0)


def test_verify_rejects_non_equilibrium(params3, topology3):
    delta = np.array([DELTA_STAR])
    dgame = build_deceptive_game(params3, topology3, delta)
    u = deceptive_equilibrium(dgame.base, topology3, delta)
    verdict = verify_deceptive_nash(dgame, u + np.array([0.5, 0.0, 0.0]))
    assert not verdict.is_ne


def test_unilateral_deviations_never_profit(params3, topology3):
    # Direct best-response check, independent of the first-order verdict:
    # no player of the deceptive game can lower their deceptive cost by
    # deviating alone from the deceptive equilibrium.
    delta = np.array([DELTA_STAR])
    dgame = build_deceptive_game(params3, topology3, delta)
    u = deceptive_equilibrium(dgame.base, topology3, delta)
    base_costs = deceptive_costs(dgame, u)
    rng = np.random.default_rng(35)
    for _ in range(60):
        i = int(rng.integers(0, 3))
        dev = u.copy()
        dev[i] += rng.uniform(-20.0, 20.0)
        if dev[i] == u[i]:
            continue
        assert deceptive_cost(dgame, dev, i) >= base_costs[i] - 1e-9, (
            f"player {i} profits by moving to {dev[i]:.3f}"
        )


def test_nash_verification_random_instances():
    rng = np.random.default_rng(36)
    for _ in range(25):
        r, m, sd = oracles.random_market(rng)
        params = OligopolyParams(r, m, sd)
        n = params.n_players
        deceivers, victims = oracles.random_topology(rng, n)
        delta = rng.uniform(0.05, 1.0, size=len(deceivers))
        topo = DeceptionTopology(deceivers=deceivers, victims=victims)
        dgame = build_deceptive_game(params, topo, delta)
        u = deceptive_equilibrium(dgame.base, topo, delta)
        verdict = verify_deceptive_nash(dgame, u)
        assert verdict.is_ne, (
            f"R={r}, delta={delta}: residual {verdict.first_order_residual}"
        )


# ── perceived desirability ───────────────────────────────────────────────────

def test_desirability_frozen_values(params3, topology3):
    rep = perceived_desirability(params3, topology3,
                                 np.array([DELTA_STAR]), victim=2)
    assert rep.victim == 2
    assert abs(rep.true_aggregate - TRUE_AGG) < 1e-12
    assert abs(rep.perceived_aggregate - PERCEIVED_AGG) < 1e-12
    assert abs(rep.perceived_per_deceiver[0] - PER_DECEIVER) < 1e-12
    assert rep.direction == "raises price"


def test_desirability_negative_gain_lowers_price(params3, topology3):
    rep = perceived_desirability(params3, topology3,
                                 np.array([-0.5]), victim=2)
    # Negative gain makes the rivals look MORE desirable: (1+0.5)/R_1.
    assert rep.perceived_per_deceiver[0] > 1.0 / params3.resistance[0]
    assert rep.perceived_aggregate > rep.true_aggregate
    assert rep.direction == "lowers price"


def test_desirability_requires_attacked_victim(params3, topology3):
    with pytest.raises(ValueError):
        perceived_desirability(params3, topology3, np.array([1.0]), victim=0)


def test_desirability_direction_matches_equilibrium_shift(params3, game3,
                                                          topology3):
    # "Raises price" must agree with where the victim's component of the
    # deceptive equilibrium actually moves.
    x_nash = game3.nash_equilibrium()
    for d in (1.5, -0.6):
        rep = perceived_desirability(params3, topology3,
                                     np.array([d]), victim=2)
        h = deceptive_equilibrium(game3, topology3, np.array([d]))
        moved_up = h[2] > x_nash[2]
        assert rep.direction == ("raises price" if moved_up else
                                 "lowers price"), (
            f"delta={d}: direction {rep.direction!r} but victim moved "
            f"{x_nash[2]:.3f} -> {h[2]:.3f}"
        )

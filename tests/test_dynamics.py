"""Probing signals, period averaging, the four dynamical models, recording."""

from __future__ import annotations

import csv
import io
import json
import math
import tokenize
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from deceptive_nes import (
    DeceptionTopology,
    DivergenceError,
    NESTuning,
    OligopolyParams,
    SimState,
    averaged_residual,
    build_quadratic_game,
    bundled_scenario_path,
    common_period,
    common_period_factor,
    deceptive_equilibrium,
    default_initial,
    dither_vector,
    lambda_matrix,
    load_scenario,
    perturbed_pseudogradient,
    rhs,
    simulate,
    solve_attainability,
)
from deceptive_nes import cli, dynamics, numerics
from deceptive_nes.dynamics import (
    MAX_SAMPLES, MAX_STEPS, MODEL_KINDS, _residual_polynomial,
)

import oracles

DELTA_STAR = 2.48551847289606
U_STAR = np.array([53.1953465787414, 61.345902243272164, 62.04578407795083])

# Frozen closed-form residual values for the three-firm tuning (verified
# against high-resolution Simpson quadrature when they were derived).
P1_AT_DELTA2 = 0.005471273000375518
P_AT_ZERO = np.array([8.711978971085243e-4])
MU1_FROZEN = 0.08112384624830701   # component 1 at t=1e-4, delta=2, omega=1


def small_ratio_tuning():
    """Low-frequency tuning so quadrature oracles stay cheap and exact."""
    return NESTuning(
        amplitude=(0.04, 0.03, 0.05),
        gain=(0.02, 0.019, 0.22),
        omega=1.0,
        omega_ratio=(3, 5, 7),
    )


# ── tuning container ─────────────────────────────────────────────────────────

def test_tuning_validation():
    good = dict(amplitude=(0.1, 0.1), gain=(1.0, 1.0), omega=1.0,
                omega_ratio=(2, 3))
    NESTuning(**good)
    for field, value in [
        ("amplitude", (0.1,)),          # length mismatch
        ("amplitude", (0.1, 0.0)),      # zero amplitude
        ("gain", (1.0, -1.0)),
        ("omega", 0.0),
        ("omega_ratio", (2, 2)),        # shared frequency
        ("omega_ratio", (2, 0)),
    ]:
        with pytest.raises(ValueError):
            NESTuning(**dict(good, **{field: value}))


@pytest.mark.parametrize("field, value", [
    ("amplitude", (0.1, math.inf)), ("gain", (math.nan, 1.0)),
    ("omega", math.inf), ("omega", math.nan),
])
def test_tuning_rejects_non_finite(field, value):
    good = dict(amplitude=(0.1, 0.1), gain=(1.0, 1.0), omega=1.0,
                omega_ratio=(2, 3))
    with pytest.raises(ValueError):
        NESTuning(**dict(good, **{field: value}))


def test_tuning_refuses_ratios_whose_common_period_overflows():
    # lcm of the denominators is 10**400: no float holds that period
    with pytest.raises(ValueError, match="common probing period"):
        NESTuning(amplitude=(0.1, 0.1), gain=(1.0, 1.0), omega=1.0,
                  omega_ratio=(Fraction(1, 10 ** 400), 3))


def test_tuning_frequencies_and_scaling(tuning3):
    freqs = tuning3.frequencies()
    assert np.allclose(freqs, [6346.0, 4089.0, 6115.0])
    scaled = tuning3.scaled(0.1)
    assert np.allclose(scaled.frequencies(), [634.6, 408.9, 611.5])
    # ratios survive scaling exactly; only the base frequency moves
    assert scaled.omega_ratio == tuning3.omega_ratio
    assert np.array_equal(scaled.amplitude, tuning3.amplitude)


def test_common_period_integer_ratios(tuning3):
    assert common_period_factor(tuning3.omega_ratio) == Fraction(1)
    assert abs(common_period(tuning3.omega_ratio) - 2.0 * math.pi) < 1e-15


def test_common_period_rational_ratios():
    ratios = (Fraction(1, 2), Fraction(1, 3))
    assert common_period_factor(ratios) == Fraction(6)
    assert abs(common_period(ratios) - 12.0 * math.pi) < 1e-12
    assert common_period_factor((Fraction(2), Fraction(3))) == Fraction(1)
    # mixed: lcm(den)/gcd(num) for (3/2, 5/4) is lcm(2,4)/gcd(3,5) = 4
    assert common_period_factor((Fraction(3, 2), Fraction(5, 4))) \
        == Fraction(4)


def test_dither_vector_frozen(tuning3, topology3):
    mu = dither_vector(tuning3, topology3, np.array([2.0]), 1e-4)
    assert abs(mu[0] - MU1_FROZEN) < 1e-15, f"mu_1 = {mu[0]!r}"
    # non-deceivers carry only their own tone
    assert abs(mu[1] - 0.03 * math.sin(4089.0 * 1e-4)) < 1e-15
    assert abs(mu[2] - 0.05 * math.sin(6115.0 * 1e-4)) < 1e-15


def test_dither_vector_zero_gain_is_plain_probing(tuning3, topology3):
    t = 0.37
    mu = dither_vector(tuning3, topology3, np.array([0.0]), t)
    expected = np.array([0.04, 0.03, 0.05]) \
        * np.sin(np.array([6346.0, 4089.0, 6115.0]) * t)
    assert np.max(np.abs(mu - expected)) < 1e-15


def _rich_cases(count=4):
    """Random markets whose topology has several deceivers, at least one of
    them with several victims, plus a tuning with distinct integer ratios."""
    rng = np.random.default_rng(7)
    cases = []
    while len(cases) < count:
        r, m, sd = oracles.random_market(rng, n_min=4, n_max=6)
        decs, vics = oracles.random_topology(rng, r.size)
        if len(decs) < 2 or max(map(len, vics)) < 2:
            continue
        tuning = NESTuning(amplitude=rng.uniform(0.01, 0.1, size=r.size),
                           gain=rng.uniform(0.005, 0.02, size=r.size),
                           omega=1.0,
                           omega_ratio=tuple(int(v) for v in rng.choice(
                               np.arange(3, 40), size=r.size, replace=False)))
        game = build_quadratic_game(OligopolyParams(r, m, sd))
        cases.append((game, DeceptionTopology(decs, vics), tuning, rng))
    return cases


def test_dither_vector_matches_played_offset_oracle():
    for game, topo, tuning, rng in _rich_cases():
        w = tuning.frequencies()
        ts = rng.uniform(0.0, 5.0, size=6)
        deltas = rng.uniform(-3.0, 3.0, size=(ts.size, topo.n_deceivers))
        ref = np.array([
            oracles.played_offset(tuning.amplitude, w, topo.deceivers,
                                  topo.victims, d, t)
            for t, d in zip(ts, deltas)])
        for t, d, row in zip(ts, deltas, ref):
            mu = dither_vector(tuning, topo, d, t)
            assert np.max(np.abs(mu - row)) < 1e-14, f"t={t}: {mu} vs {row}"
        stacked = dither_vector(tuning, topo, deltas, ts)
        assert stacked.shape == ref.shape
        assert np.max(np.abs(stacked - ref)) < 1e-14


def test_full_model_prices_match_played_offset_oracle():
    for game, topo, tuning, rng in _rich_cases(2):
        init = SimState(t=0.0, u=game.nash_equilibrium(),
                        delta=rng.uniform(-1.0, 1.0, size=topo.n_deceivers))
        traj = simulate("full", game, topo, tuning, initial=init,
                        horizon=0.5, stride=4)
        assert traj.delta.shape == (traj.times.size, topo.n_deceivers)
        for t, u, d, x in zip(traj.times, traj.u, traj.delta, traj.x):
            mu = oracles.played_offset(tuning.amplitude, tuning.frequencies(),
                                       topo.deceivers, topo.victims, d, t)
            assert np.max(np.abs(x - (u + mu))) < 1e-12 * (1 + np.max(np.abs(u)))


def test_empty_topology_reduces_to_unperturbed_game(game3_published,
                                                     tuning3):
    game = game3_published
    bare = DeceptionTopology((), ())
    none = np.zeros(0)
    q0, b0 = game.pseudogradient_matrix, game.pseudogradient_offset
    pert = perturbed_pseudogradient(game, bare, none)
    assert np.array_equal(pert.qbar, q0) and np.array_equal(pert.bbar, b0)
    a, k, w = tuning3.amplitude, tuning3.gain, tuning3.frequencies()
    ts = np.array([0.0, 0.1, 0.37])
    tones = a * np.sin(np.outer(ts, w))
    assert np.array_equal(dither_vector(tuning3, bare, none, 0.37), tones[2])
    assert np.array_equal(dither_vector(tuning3, bare, np.zeros((3, 0)), ts),
                          tones)
    assert averaged_residual(game, bare, tuning3, none).p_term.shape == (0,)

    u = game.nash_equilibrium() + np.array([1.0, -2.0, 0.5])
    state = SimState(t=0.37, u=u, delta=none)
    expected = {
        "full": -(2.0 * k / a) * game.costs(u + tones[2]) * np.sin(w * 0.37),
        "averaged": -(k * (q0 @ u + b0)) / tuning3.omega,
        "reduced": none,
        "boundary": -(k[:, None] * q0) @ u,
    }
    for model in MODEL_KINDS:
        deriv = rhs(model, game, bare, tuning3, state)
        assert deriv.shape == expected[model].shape, model
        assert np.max(np.abs(deriv - expected[model]), initial=0.0) \
            < 1e-12 * (1 + np.max(np.abs(expected[model]), initial=0.0)), model

    tun = tuning3.scaled(0.1)
    nash = game.nash_equilibrium()
    full = simulate("full", game, bare, tun, horizon=0.05, stride=8)
    assert full.delta.shape == (full.times.size, 0)
    tones = tun.amplitude * np.sin(np.outer(full.times, tun.frequencies()))
    assert np.max(np.abs(full.x - (full.u + tones))) < 1e-12
    averaged = simulate("averaged", game, bare, tun, horizon=50.0, stride=8)
    assert averaged.delta.shape == (averaged.times.size, 0)
    # the unperturbed averaged flow rests at the Nash prices
    assert np.max(np.abs(averaged.u - nash)) < 1e-9
    start = SimState(t=0.0, u=np.array([1.0, -1.0, 0.5]), delta=none)
    boundary = simulate("boundary", game, bare, tuning3, initial=start,
                        horizon=400.0, stride=16)
    assert np.max(np.abs(boundary.u[-1])) < 1e-2
    assert np.array_equal(boundary.x, boundary.u)


# ── averaged probing residual ────────────────────────────────────────────────

def test_residual_matches_simpson_single_deceiver(game3_published):
    tuning = small_ratio_tuning()
    topo = DeceptionTopology(deceivers=(0,), victims=((2,),))
    period = common_period(tuning.omega_ratio)
    rng = np.random.default_rng(41)
    for _ in range(5):
        delta = np.array([rng.uniform(-2.0, 3.0)])
        mine = averaged_residual(game3_published, topo, tuning, delta).p_term
        ref = oracles.simpson_residual(
            game3_published.q[[0]], tuning.amplitude, tuning.frequencies(),
            topo.deceivers, topo.victims, delta, period)
        assert abs(mine[0] - ref[0]) < 1e-12 + 1e-9 * abs(ref[0]), (
            f"delta={delta}: closed form {mine[0]!r} vs Simpson {ref[0]!r}"
        )


def test_residual_matches_simpson_overlapping_victims():
    # Two deceivers, shared victim: exercises the cross (quadratic) term.
    rng = np.random.default_rng(42)
    r, m, sd = oracles.random_market(rng, n_min=3, n_max=3)
    game = build_quadratic_game(OligopolyParams(r, m, sd))
    tuning = small_ratio_tuning()
    topo = DeceptionTopology(deceivers=(0, 1), victims=((1, 2), (2,)))
    period = common_period(tuning.omega_ratio)
    for _ in range(5):
        delta = rng.uniform(-1.5, 1.5, size=2)
        mine = averaged_residual(game, topo, tuning, delta).p_term
        ref = oracles.simpson_residual(
            game.q[[0, 1]], tuning.amplitude, tuning.frequencies(),
            topo.deceivers, topo.victims, delta, period)
        assert np.max(np.abs(mine - ref)) < 1e-12 + 1e-9 * np.max(
            np.abs(ref)), f"delta={delta}: {mine} vs {ref}"


def test_residual_frozen_three_firm(game3_published, topology3, tuning3):
    p2 = averaged_residual(game3_published, topology3, tuning3,
                           np.array([2.0])).p_term
    assert abs(p2[0] - P1_AT_DELTA2) < 1e-15
    p0 = averaged_residual(game3_published, topology3, tuning3,
                           np.array([0.0])).p_term
    assert abs(p0[0] - P_AT_ZERO[0]) < 1e-15


def test_residual_polynomial_is_quadratic(game3_published, topology3,
                                          tuning3):
    # Values along a line in delta must fit a parabola exactly.
    const, lin, quad = _residual_polynomial(game3_published, topology3,
                                            tuning3)
    for d in (-1.0, 0.5, 2.0, 4.0):
        direct = averaged_residual(game3_published, topology3, tuning3,
                                   np.array([d])).p_term[0]
        poly = const[0] + lin[0, 0] * d + quad[0, 0, 0] * d * d
        assert abs(direct - poly) < 1e-15


# ── right-hand sides ─────────────────────────────────────────────────────────

def test_reduced_rhs_vanishes_at_attained_gain(game3_published, topology3,
                                               tuning3):
    state = SimState(t=0.0, u=np.zeros(3), delta=np.array([DELTA_STAR]))
    dd = rhs("reduced", game3_published, topology3, tuning3.scaled(0.1),
             state)
    assert np.max(np.abs(dd)) < 1e-6, f"reduced drift at delta*: {dd}"


def test_averaged_rhs_u_part_vanishes_on_manifold(game3_published, topology3,
                                                  tuning3):
    delta = np.array([1.3])
    u = deceptive_equilibrium(game3_published, topology3, delta)
    state = SimState(t=0.0, u=u, delta=delta)
    deriv = rhs("averaged", game3_published, topology3, tuning3, state)
    assert np.max(np.abs(deriv[:3])) < 1e-10, f"u-drift {deriv[:3]}"


def test_boundary_rhs_is_linear_decay(game3_published, topology3, tuning3):
    y = np.array([1.0, -2.0, 0.5])
    state = SimState(t=0.0, u=y, delta=np.array([0.0]))
    deriv = rhs("boundary", game3_published, topology3, tuning3, state)
    gains = np.array(tuning3.gain)
    expected = -(gains[:, None] * game3_published.pseudogradient_matrix) @ y
    assert np.max(np.abs(deriv - expected)) < 1e-12


def test_full_rhs_matches_hand_formula(game3_published, topology3, tuning3):
    t = 0.123
    u = np.array([50.0, 58.0, 49.0])
    delta = np.array([1.7])
    state = SimState(t=t, u=u, delta=delta)
    deriv = rhs("full", game3_published, topology3, tuning3, state)

    mu = dither_vector(tuning3, topology3, delta, t)
    x = u + mu
    j = game3_published.costs(x)
    a = np.array(tuning3.amplitude)
    k = np.array(tuning3.gain)
    w = tuning3.frequencies()
    du = -(2.0 * k / a) * j * np.sin(w * t)
    ddelta = topology3.eps * np.array(topology3.eps_rates) \
        * (j[0] - (-1200.0))
    assert np.max(np.abs(deriv[:3] - du)) < 1e-9 * (1 + np.max(np.abs(du)))
    assert np.max(np.abs(deriv[3:] - ddelta)) < 1e-12 * (
        1 + np.max(np.abs(ddelta)))


def test_dither_free_fields_match_oracle_route():
    # The averaged and boundary fields, assembled once as a polynomial in
    # (u, delta), against the models written out from the oracle blocks:
    # one to three deceivers, overlapping victims included.
    rng = np.random.default_rng(43)
    topologies = [((0,), ((2,),)), ((0, 1), ((1, 2), (2,))),
                  ((1, 3, 2), ((0,), (0, 2), (0, 3)))]
    topologies += [oracles.random_topology(rng, 4) for _ in range(4)]
    for deceivers, victims in topologies:
        r, m, sd = oracles.random_market(rng, n_min=4, n_max=4)
        k = len(deceivers)
        topo = DeceptionTopology(deceivers, victims, eps=rng.uniform(1e-4, 1.0),
                                 eps_rates=rng.uniform(0.5, 2.0, size=k),
                                 cost_refs=rng.uniform(-500.0, 0.0, size=k))
        omega = rng.uniform(0.5, 3.0)
        ratios = rng.choice(np.arange(1, 10), size=4, replace=False)
        tuning = NESTuning(amplitude=rng.uniform(0.01, 0.1, size=4),
                           gain=rng.uniform(0.01, 0.3, size=4), omega=omega,
                           omega_ratio=tuple(int(v) for v in ratios))
        game = build_quadratic_game(OligopolyParams(r, m, sd))
        u = rng.uniform(0.0, 60.0, size=4)
        delta = rng.uniform(-2.0, 2.0, size=k)

        q, b, c = oracles.quadratic_blocks(r, m, sd)
        qbar, bbar = oracles.perturbed_blocks(
            q, b, *oracles.pseudogradient_blocks(q, b), deceivers, victims, delta)
        resid = oracles.simpson_residual(
            q[list(deceivers)], tuning.amplitude, omega * ratios, deceivers,
            victims, delta, 2.0 * math.pi / omega, n_panels=256)
        costs = np.array([oracles.quadratic_cost(q[z], b[z], c[z], u)
                          for z in deceivers])
        want_u = -(tuning.gain / omega) * (qbar @ u + bbar)
        want_d = (topo.eps / omega) * np.array(topo.eps_rates) * (
            costs - np.array(topo.cost_refs) + resid)
        want_y = -(tuning.gain[:, None] * qbar) @ u

        state = SimState(t=0.0, u=u, delta=delta)
        got = rhs("averaged", game, topo, tuning, state)
        got_y = rhs("boundary", game, topo, tuning, state)
        for mine, want in ((got[:4], want_u), (got[4:], want_d), (got_y, want_y)):
            assert np.max(np.abs(mine - want)) <= 1e-12 * np.max(np.abs(want)), (
                f"{deceivers} {victims}: {mine} vs {want}")


def test_rhs_rejects_unknown_model(game3_published, topology3, tuning3):
    state = SimState(t=0.0, u=np.zeros(3), delta=np.zeros(1))
    with pytest.raises(ValueError):
        rhs("quasi", game3_published, topology3, tuning3, state)


# ── simulate(): bookkeeping and validation ───────────────────────────────────

def test_simulate_validation(game3_published, topology3, tuning3):
    with pytest.raises(ValueError):
        simulate("full", game3_published, topology3, tuning3, horizon=1.0,
                 oversampling=8)   # below the floor of 16
    with pytest.raises(ValueError):
        simulate("nope", game3_published, topology3, tuning3, horizon=1.0)
    bare = DeceptionTopology(deceivers=(), victims=(), eps=1.0)
    with pytest.raises(ValueError):
        simulate("reduced", game3_published, bare, tuning3, horizon=1.0)


def test_simulate_records_uniform_grid(game3_published, topology3, tuning3):
    traj = simulate("full", game3_published, topology3, tuning3.scaled(0.1),
                    horizon=0.5, stride=4)
    spacings = np.diff(traj.times)
    assert np.max(np.abs(spacings - spacings[0])) < 1e-12
    assert abs(spacings[0] - traj.meta.dt * 4) < 1e-15
    assert traj.u.shape[0] == traj.times.size
    assert traj.x.shape == traj.u.shape
    assert traj.costs.shape == traj.u.shape
    # full model: native axis is physical seconds
    assert traj.meta.time_axis == "t"
    assert np.allclose(traj.physical_times(), traj.times)


def test_full_integrator_matches_generic_rk4_on_rhs(game3_published,
                                                    topology3, tuning3,
                                                    monkeypatch):
    # The production loop is generated per market structure; one coarse run
    # must agree with numerics.rk4_step applied to the reference rhs to
    # round-off, and so must the numpy field stepped above the player bound.
    generated = []
    integrate_full = dynamics._integrate_full

    def spy(game, *args):
        generated.append(game.n_players)
        return integrate_full(game, *args)

    monkeypatch.setattr(dynamics, "_integrate_full", spy)
    tun = tuning3.scaled(0.1)
    dt = 1e-4
    n_steps = 25
    traj = simulate("full", game3_published, topology3, tun,
                    horizon=dt * n_steps, stride=n_steps, dt=dt)

    def f(t, y):
        state = SimState(t=t, u=y[:3], delta=y[3:])
        return rhs("full", game3_published, topology3, tun, state)

    y = np.concatenate([game3_published.nash_equilibrium(), [0.0]])
    t = 0.0
    for _ in range(n_steps):
        y = numerics.rk4_step(f, t, y, dt)
        t += dt
    assert np.max(np.abs(traj.u[-1] - y[:3])) < 1e-11, (
        f"fast loop drifted from reference: {traj.u[-1] - y[:3]}"
    )
    assert abs(traj.delta[-1][0] - y[3]) < 1e-13

    # More structures: several deceivers with several victims, no deceiver,
    # frozen gains, and one market just above the generated kernel's bound.
    rng = np.random.default_rng(3)
    big = dynamics.MAX_GENERATED_PLAYERS + 1
    r, m, sd = oracles.random_market(rng, n_min=big, n_max=big)
    cases = [(g, topo, tuning, False) for g, topo, tuning, _ in _rich_cases()]
    cases += [(game3_published, DeceptionTopology((), ()), tun, False),
              (game3_published, topology3, tun, True),
              (build_quadratic_game(OligopolyParams(r, m, sd)),
               DeceptionTopology((0, 5), ((1, 2, big - 1), (0, 2)), eps=0.1),
               NESTuning(amplitude=rng.uniform(0.01, 0.1, size=big),
                         gain=rng.uniform(0.005, 0.02, size=big), omega=1.0,
                         omega_ratio=tuple(range(3, 3 + big))), False)]
    generated.clear()
    for game, topo, tuning, freeze in cases:
        n = game.n_players
        dt = 0.2 / float(max(tuning.frequencies()))
        init = SimState(t=0.0, u=game.nash_equilibrium(),
                        delta=rng.uniform(-1.0, 1.0, size=topo.n_deceivers))
        traj = simulate("full", game, topo, tuning, initial=init,
                        horizon=dt * n_steps, stride=n_steps, dt=dt,
                        freeze_delta=freeze)

        def f(t, y):
            dy = rhs("full", game, topo, tuning, SimState(t=t, u=y[:n], delta=y[n:]))
            return np.concatenate([dy[:n], 0.0 * dy[n:] if freeze else dy[n:]])

        y = np.concatenate([init.u, init.delta])
        for i in range(n_steps):
            y = numerics.rk4_step(f, i * dt, y, dt)
        got = np.concatenate([traj.u[-1], traj.delta[-1]])
        assert np.max(np.abs(got - y)) < 1e-13 * (1 + np.max(np.abs(y))), (
            f"N={n}, deceivers {topo.deceivers}, freeze {freeze}: {got - y}")
    assert generated == [c[0].n_players for c in cases[:-1]]


def test_full_kernel_source_depends_only_on_market_structure():
    # Two markets alike in players, deceivers and victims, unlike in every
    # number: the generated source is the same text, and it carries no
    # number of the market, only the RK4 constants and the stride test's.
    game, topo, tuning, rng = _rich_cases(1)[0]
    r, m, sd = oracles.random_market(rng, game.n_players, game.n_players)
    other = build_quadratic_game(OligopolyParams(r, m, sd))
    retuned = NESTuning(amplitude=rng.uniform(0.01, 0.1, size=game.n_players),
                        gain=tuning.gain * 1.5, omega=2.0,
                        omega_ratio=tuning.omega_ratio[::-1])
    retopo = DeceptionTopology(topo.deceivers, topo.victims, eps=0.3,
                               cost_refs=rng.uniform(-9.0, 9.0, size=topo.n_deceivers))
    *source, names = dynamics._full_kernel(game, topo, tuning, False)
    *same, other_names = dynamics._full_kernel(other, retopo, retuned, True)
    assert same == source
    assert all(names[k] != other_names[k] for k in ("a0", "w0", "m0", "q0_1", "b1_0", "c0",
                                                    "g0", "r0"))
    numbers = {tok.string for text in source
               for tok in tokenize.generate_tokens(io.StringIO(text).readline)
               if tok.type == tokenize.NUMBER}
    assert numbers <= {"0", "1", "0.0", "0.5", "2.0", "6.0"}, numbers


def test_full_kernel_long_run_matches_generic_rk4_on_rhs():
    # Thousands of steps of the bundled study at its freq-scale: the kernel
    # carries each step's end tones into the next, so every recorded row is
    # checked against rhs + numerics.rk4_step, and every recorded time is
    # exactly t0 + k * stride * dt.  5003 is no multiple of the stride: a
    # direct caller gets the 714 whole blocks, and the 5 steps left record
    # nothing.
    scenario = load_scenario(bundled_scenario_path("three_firm_deception"))
    game, topo = scenario.game(), scenario.topology
    tuning = scenario.tuning.scaled(scenario.sim.freq_scale)
    t0, stride, n_steps = 0.25, 7, 5003
    dt = 2.0 * math.pi / (float(max(tuning.frequencies())) * 32)
    init = SimState(t=t0, u=game.nash_equilibrium() + 0.3, delta=np.array([1.0]))
    times, u, d = dynamics._integrate_full(game, topo, tuning, init, dt, n_steps, stride,
                                           False)
    assert times.size == 1 + n_steps // stride
    assert times.tolist() == [t0 + k * stride * dt for k in range(times.size)]

    def f(t, y):
        return rhs("full", game, topo, tuning, SimState(t=t, u=y[:3], delta=y[3:]))

    y = np.concatenate([init.u, init.delta])
    ref = [y]
    for i in range(n_steps - n_steps % stride):
        y = numerics.rk4_step(f, t0 + i * dt, y, dt)
        if (i + 1) % stride == 0:
            ref.append(y)
    ref = np.array(ref)
    got = np.column_stack([u, d])
    scale = np.max(np.abs(ref), axis=1, keepdims=True)
    assert np.all(np.abs(got - ref) <= 1e-12 * scale), np.max(np.abs(got - ref) / scale)
    assert abs(d[-1, 0] - d[0, 0]) > 1e-3   # the gain moved


def test_kernel_sources_are_built_once_per_structure():
    # Every kernel hands two markets of one structure the very same source
    # objects, and a market of another structure other ones.
    game, topo, tuning, rng = _rich_cases(1)[0]
    r, m, sd = oracles.random_market(rng, game.n_players, game.n_players)
    other = build_quadratic_game(OligopolyParams(r, m, sd))
    k = max(range(topo.n_deceivers), key=lambda k: len(topo.victims[k]))
    single = DeceptionTopology(topo.deceivers[k:k + 1], topo.victims[k:k + 1])
    builds = [   # (kernel, a topology, one of another structure)
        (lambda g, t: dynamics._full_kernel(g, t, tuning, False), topo, single),
        (lambda g, t: dynamics._averaged_kernel(g, t, tuning, False), topo, single),
        (lambda g, t: dynamics._reduced_kernel(g, t, tuning, [0.0], False), single,
         DeceptionTopology((0,), ((1,),))),   # one victim against several
    ]
    for build, same, changed in builds:
        *source, _ = build(game, same)
        *again, _ = build(other, same)
        *elsewise, _ = build(game, changed)
        assert all(x is y for x, y in zip(source, again))
        assert source != elsewise


@pytest.mark.parametrize("model", ["averaged", "reduced", "boundary",
                                   "averaged-nominal"])
def test_simulate_matches_generic_rk4_on_rhs(game3_published, topology3,
                                             tuning3, model):
    # simulate() and rhs() share one vector field per model; integrating
    # rhs with numerics.rk4_step must land on the recorded final state.
    # Without deceivers the averaged field is affine, which simulate() steps
    # by its exact RK4 map, as it does the boundary field.
    topo = topology3
    if model == "averaged-nominal":
        model, topo = "averaged", DeceptionTopology(deceivers=(), victims=())
    tun = tuning3.scaled(0.1)
    scale = {"averaged": tun.omega, "reduced": topology3.eps * tun.omega,
             "boundary": 1.0}[model]
    dt = {"averaged": 0.05, "reduced": 1e-3, "boundary": 0.5}[model]
    n_steps = 20
    init = SimState(t=0.0, u=game3_published.nash_equilibrium() + 0.7,
                    delta=np.array([1.3])[:topo.n_deceivers])
    traj = simulate(model, game3_published, topo, tun, initial=init,
                    horizon=n_steps * dt / scale, stride=n_steps, dt=dt)
    assert traj.times.size == 2 and abs(traj.times[-1] - n_steps * dt) < 1e-12

    def f(t, y):
        if model == "averaged":
            state = SimState(t=t, u=y[:3], delta=y[3:])
        elif model == "reduced":
            state = SimState(t=t, u=np.zeros(3), delta=y)
        else:
            state = SimState(t=t, u=y, delta=init.delta)
        return rhs(model, game3_published, topo, tun, state)

    y = {"averaged": np.concatenate([init.u, init.delta]),
         "reduced": init.delta, "boundary": init.u}[model]
    for i in range(n_steps):
        y = numerics.rk4_step(f, i * dt, y, dt)
    got = {"averaged": np.concatenate([traj.u[-1], traj.delta[-1]]),
           "reduced": traj.delta[-1], "boundary": traj.u[-1]}[model]
    assert np.max(np.abs(got - y)) < 1e-12 * (1 + np.max(np.abs(y))), (
        f"{model}: {got} vs {y}"
    )


# ── generated kernels of the dither-free models ─────────────────────────────

SINGULAR_DELTA = 5.631716138867322   # -1/mu: Qbar(delta) of the study is singular


def _kernel_namespace(kernel):
    """Compile a generated ``(stage, run, names)`` as simulate() does."""
    *sources, names = kernel
    for source in sources:
        exec(source, names)
    return names


def _reduced_case(rng, n_victims, n_players=5, resistance_scale=1.0):
    """A random market with one deceiver and ``n_victims`` victims, a cost
    reference drawn from [-500, 0] and a tuning."""
    r, m, sd = oracles.random_market(rng, n_min=n_players, n_max=n_players)
    game = build_quadratic_game(OligopolyParams(np.asarray(r) * resistance_scale, m, sd))
    z = int(rng.integers(n_players))
    others = [j for j in range(n_players) if j != z]
    victims = tuple(int(j) for j in rng.choice(others, size=n_victims, replace=False))
    topo = DeceptionTopology((z,), (victims,), eps=1e-3,
                             eps_rates=(rng.uniform(0.5, 2.0),),
                             cost_refs=(rng.uniform(-500.0, 0.0),))
    tuning = NESTuning(amplitude=rng.uniform(0.01, 0.1, size=n_players),
                       gain=rng.uniform(0.005, 0.02, size=n_players), omega=1.0,
                       omega_ratio=tuple(range(3, 3 + n_players)))
    return game, topo, tuning


def test_dither_free_kernel_sources_depend_only_on_market_structure():
    # As for the full model: two markets alike in players, deceivers and
    # victims, unlike in every number, share the averaged and the reduced
    # kernel's source text, and it carries no number of the market.
    game, topo, tuning, rng = _rich_cases(1)[0]
    k = topo.n_deceivers
    r, m, sd = oracles.random_market(rng, game.n_players, game.n_players)
    other = build_quadratic_game(OligopolyParams(r, m, sd))
    retuned = NESTuning(amplitude=rng.uniform(0.01, 0.1, size=game.n_players),
                        gain=tuning.gain * 1.5, omega=2.0,
                        omega_ratio=tuning.omega_ratio[::-1])
    retopo = DeceptionTopology(topo.deceivers, topo.victims, eps=0.3,
                               eps_rates=rng.uniform(0.5, 2.0, size=k),
                               cost_refs=rng.uniform(-9.0, 9.0, size=k))
    single = DeceptionTopology(topo.deceivers[:1], topo.victims[:1], cost_refs=(-5.0,))
    resingle = DeceptionTopology(topo.deceivers[:1], topo.victims[:1], eps_rates=(3.0,),
                                 cost_refs=(3.0,))
    pairs = [(dynamics._averaged_kernel(game, topo, tuning, False),
              dynamics._averaged_kernel(other, retopo, retuned, False)),
             (dynamics._reduced_kernel(game, single, tuning, [0.0], False),
              dynamics._reduced_kernel(other, resingle, retuned, [1.5], False))]
    for (*source, names), (*same, other_names) in pairs:
        assert same == source
        floats = [key for key, value in names.items() if isinstance(value, float)]
        # only a structural zero is the same number in both markets
        assert all(names[key] != other_names[key] or names[key] == 0.0 for key in floats)
        numbers = {tok.string for text in source
                   for tok in tokenize.generate_tokens(io.StringIO(text).readline)
                   if tok.type == tokenize.NUMBER}
        assert numbers <= {"0", "1", "0.5", "1.0", "2.0", "6.0"}, numbers


@pytest.mark.parametrize("freeze", [False, True])
def test_averaged_kernel_matches_generic_rk4_on_rhs(freeze):
    # Several deceivers, overlapping victim sets and a deceiver that is
    # another's victim, against numerics.rk4_step on the reference rhs.
    rng = np.random.default_rng(29)
    structures = [(topo.deceivers, topo.victims, game) for game, topo, _, _ in _rich_cases()]
    r, m, sd = oracles.random_market(rng, n_min=4, n_max=4)
    structures.append(((1, 3, 2), ((0,), (0, 2), (0, 3)),
                       build_quadratic_game(OligopolyParams(r, m, sd))))
    for deceivers, victims, game in structures:
        n, k = game.n_players, len(deceivers)
        topo = DeceptionTopology(deceivers, victims, eps=1e-3,
                                 eps_rates=rng.uniform(0.5, 2.0, size=k),
                                 cost_refs=rng.uniform(-500.0, 0.0, size=k))
        tuning = NESTuning(amplitude=rng.uniform(0.01, 0.1, size=n),
                           gain=rng.uniform(0.005, 0.02, size=n), omega=0.7,
                           omega_ratio=tuple(range(3, 3 + n)))
        init = SimState(t=0.0, u=game.nash_equilibrium() + rng.uniform(-1.0, 1.0, size=n),
                        delta=rng.uniform(-1.0, 1.0, size=k))
        dt, n_steps = 0.5, 20
        traj = simulate("averaged", game, topo, tuning, initial=init,
                        horizon=dt * n_steps / tuning.omega, stride=n_steps, dt=dt,
                        freeze_delta=freeze)

        def f(t, y):
            dy = rhs("averaged", game, topo, tuning, SimState(t=t, u=y[:n], delta=y[n:]))
            return np.concatenate([dy[:n], 0.0 * dy[n:] if freeze else dy[n:]])

        y = np.concatenate([init.u, init.delta])
        for i in range(n_steps):
            y = numerics.rk4_step(f, i * dt, y, dt)
        got = np.concatenate([traj.u[-1], traj.delta[-1]])
        assert np.max(np.abs(got - y)) < 1e-13 * (1 + np.max(np.abs(y))), (
            f"{deceivers} {victims}: {got - y}")
        assert np.any(traj.delta[-1] != init.delta) != freeze


@pytest.mark.parametrize("n_victims", [1, 2, 3, 4])
def test_reduced_kernel_matches_generic_rk4_on_rhs(n_victims):
    rng = np.random.default_rng(31 + n_victims)
    cases = [_reduced_case(rng, n_victims) for _ in range(5)]
    # 30 players with resistances 1e-7 of the usual: det Qbar(d)**2
    # overflows, so every stage must take the gated solve
    cases.append(_reduced_case(rng, n_victims, n_players=30, resistance_scale=1e-7))
    for game, topo, tuning in cases:
        n = game.n_players
        init = SimState(t=0.0, u=np.zeros(n), delta=rng.uniform(-1.0, 1.0, size=1))

        def f(t, d):
            return rhs("reduced", game, topo, tuning, SimState(t=t, u=np.zeros(n), delta=d))

        # Steps short against the field's scale and its rate of change, so
        # the gain travels at most 0.5 and no stage lands next to a pole: a
        # run that jumps across poles is chaotic, and there any rounding
        # difference grows without bound.
        rate = abs(float(lambda_matrix(game, topo, init.delta)[0, 0])) / tuning.omega
        dt, n_steps = min(0.02 / rate, 0.02 / abs(f(0.0, init.delta)[0])), 25
        traj = simulate("reduced", game, topo, tuning, initial=init,
                        horizon=dt * n_steps / (topo.eps * tuning.omega),
                        stride=n_steps, dt=dt)
        y = init.delta
        for i in range(n_steps):
            y = numerics.rk4_step(f, i * dt, y, dt)
        assert abs(traj.delta[-1, 0] - y[0]) < 1e-13 * (1 + abs(y[0])), (
            f"victims {topo.victims[0]}: {traj.delta[-1, 0]} vs {y[0]}")
        assert abs(y[0] - init.delta[0]) > 1e-3   # the gain moved


def test_reduced_kernel_screen_covers_every_singular_gate(game3_published, topology3,
                                                          tuning3):
    # Near the pole the stage must raise wherever the gated solve does; a
    # kernel centred on the pole evaluates them by the polynomials, not by
    # re-centring.
    names = _kernel_namespace(dynamics._reduced_kernel(
        game3_published, topology3, tuning3, [SINGULAR_DELTA], False))
    gated = 0
    for scale in 10.0 ** -np.arange(6.0, 17.0, 0.25):
        for d in (SINGULAR_DELTA - scale, SINGULAR_DELTA + scale):
            try:
                deceptive_equilibrium(game3_published, topology3, [d])
            except numerics.SingularMatrixError:
                gated += 1
                with pytest.raises(numerics.SingularMatrixError):
                    names["stage"](d)
            else:
                names["stage"](d)
    assert gated >= 10


def test_reduced_run_started_at_a_pole_raises_singular(game3_published, topology3,
                                                       tuning3, tmp_path):
    init = SimState(t=0.0, u=np.zeros(3), delta=np.array([SINGULAR_DELTA]))
    with pytest.raises(numerics.SingularMatrixError):
        simulate("reduced", game3_published, topology3, tuning3.scaled(0.1),
                 initial=init, horizon=10.0, dt=1e-3)
    doc = json.loads(bundled_scenario_path("three_firm_deception").read_text())
    doc["initial"] = {"delta": [SINGULAR_DELTA]}
    scen = tmp_path / "pole.json"
    scen.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--scenario", str(scen), "--out", str(out),
                     "--model", "reduced"]) == 3
    err = json.loads((out / "error.json").read_text())
    assert err["kind"] == "numerical" and err["error"] == "SingularMatrixError", err


def test_simulate_takes_the_generated_kernel_where_it_applies(game3_published, topology3,
                                                             tuning3, monkeypatch):
    # Generated kernels: the full model up to MAX_GENERATED_PLAYERS, the
    # averaged model with deceivers up to MAX_GENERATED_AVERAGED_PLAYERS and
    # the reduced model with one deceiver at any size.  The affine fields
    # (boundary, averaged without deceivers) take integrate_affine at every
    # size; the rest the numpy field.
    routes = []

    def spy(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            routes.append(name)
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for name in ("_full_kernel", "_averaged_kernel", "_reduced_kernel"):
        spy(dynamics, name)
    for name in ("integrate_fixed", "integrate_affine"):
        spy(numerics, name)
    rng = np.random.default_rng(37)

    def market(n):
        r, m, sd = oracles.random_market(rng, n_min=n, n_max=n)
        return (build_quadratic_game(OligopolyParams(r, m, sd)),
                DeceptionTopology((0,), ((2, n - 1),), eps=1e-4),
                NESTuning(amplitude=np.full(n, 0.05), gain=np.full(n, 0.01), omega=1.0,
                          omega_ratio=tuple(range(3, 3 + n))))

    tun = tuning3.scaled(0.1)
    two = DeceptionTopology((0, 1), ((2,), (0,)), eps=1e-4)
    bare = DeceptionTopology((), ())
    top = market(dynamics.MAX_GENERATED_AVERAGED_PLAYERS)
    above = market(dynamics.MAX_GENERATED_AVERAGED_PLAYERS + 1)
    big = market(dynamics.MAX_GENERATED_PLAYERS + 1)
    cases = [("full", game3_published, topology3, tun, "_full_kernel"),
             ("averaged", game3_published, topology3, tun, "_averaged_kernel"),
             ("reduced", game3_published, topology3, tun, "_reduced_kernel"),
             ("reduced", game3_published, two, tun, "integrate_fixed"),
             ("averaged", *top, "_averaged_kernel"),
             ("averaged", *above, "integrate_fixed"),
             ("full", *big, "integrate_fixed"),
             ("reduced", *big, "_reduced_kernel")]
    for game, topo, tuning in [(game3_published, topology3, tun), market(7), market(8),
                               top, above, big]:
        cases += [("boundary", game, topo, tuning, "integrate_affine"),
                  ("averaged", game, bare, tuning, "integrate_affine")]
    for model, game, topo, tuning, route in cases:
        routes.clear()
        simulate(model, game, topo, tuning, horizon=1e-3, dt=1e-4, stride=5)
        assert routes == [route], (model, game.n_players, topo.deceivers, routes)


def _stable_affine_field(rng, m):
    """``(a, c)`` of a random affine field ``a @ y + c`` whose symmetric
    part is negative definite, so every solution decays."""
    b, w = rng.standard_normal((m, m)), rng.standard_normal((m, m))
    return -(b @ b.T / m + 0.1 * np.eye(m)) + (w - w.T) / 2.0, rng.standard_normal(m)


def test_integrate_affine_matches_rk4_at_every_size_and_stride():
    # One matrix-vector product per recorded sample against numerics.rk4_step
    # on the field, every recorded row, on sizes both sides of the player
    # bound the generated affine kernel once had.  The 3 steps after 6
    # blocks are a part-block at strides above 3, and the recorded times are
    # integrate_fixed's bit for bit.
    rng = np.random.default_rng(41)
    for m in range(1, 11):
        for stride in (1, 5, 7, 16):
            a, c = _stable_affine_field(rng, m)
            y0, t0 = rng.uniform(-5.0, 5.0, size=m), rng.uniform(-1.0, 1.0)
            dt, n_steps = 0.2 / np.linalg.norm(a, np.inf), 6 * stride + 3
            times, states = numerics.integrate_affine(a, c, t0, y0, dt, n_steps,
                                                      record_every=stride)
            ref_times, ref = numerics.integrate_fixed(lambda t, v: a @ v + c, t0, y0, dt,
                                                      n_steps, record_every=stride)
            assert np.array_equal(times, ref_times) and len(times) == 1 + -(-n_steps // stride)
            scale = np.max(np.abs(ref), axis=1, keepdims=True)
            assert np.all(np.abs(states - ref) <= 1e-12 * scale), (m, stride)
            y = y0
            for i in range(n_steps):
                y = numerics.rk4_step(lambda t, v: a @ v + c, t0 + i * dt, y, dt)
            assert np.max(np.abs(states[-1] - y)) <= 1e-12 * np.max(np.abs(y)), (m, stride)


@pytest.mark.parametrize("stride", [16, 16384])
def test_affine_divergence_is_the_first_block_end_after_stepping_overflows(
        game3_published, topology3, tuning3, stride):
    # delta = 7 lies outside the stability set: the frozen-gain boundary
    # layer grows until it overflows.  Stepped one RK4 step at a time it
    # first overflows within some block; the block map reports that block's
    # end, without a warning: DivergenceError alone reports it.  At stride
    # 16384 the block map R^k itself overflows, and the block is stepped.
    init = SimState(t=0.0, u=np.array([1.0, 1.0, 1.0]), delta=np.array([7.0]))
    a = -(tuning3.gain[:, None] * perturbed_pseudogradient(game3_published, topology3,
                                                          init.delta).qbar)
    dt = 0.2 / np.linalg.norm(a, np.inf)   # the step simulate() picks
    y, overflow = init.u, 0
    with np.errstate(over="ignore", invalid="ignore"):
        while np.isfinite(y).all():
            y, overflow = numerics.rk4_step(lambda t, v: a @ v, 0.0, y, dt), overflow + 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as err:
            simulate("boundary", game3_published, topology3, tuning3, initial=init,
                     horizon=1e5, stride=stride)
    assert err.value.axis == "t"
    assert err.value.time == math.ceil(overflow / stride) * stride * dt, (overflow, err.value)


def test_affine_zero_state_stays_zero_where_the_block_map_overflows(game3_published,
                                                                    topology3, tuning3):
    # The boundary field has c = 0, so a zero deviation is an equilibrium
    # even at the unstable delta = 7.  Over blocks of 16384 steps R^k
    # overflows; stepping keeps the state exactly zero, and so must the
    # block map, instead of recording inf * 0 = NaN.
    init = SimState(t=0.0, u=np.zeros(3), delta=np.array([7.0]))
    a = -(tuning3.gain[:, None] * perturbed_pseudogradient(game3_published, topology3,
                                                          init.delta).qbar)
    r, _ = numerics.affine_rk4_map(a, np.zeros(3), 0.2 / np.linalg.norm(a, np.inf))
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.linalg.matrix_power(r, 16384)).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = simulate("boundary", game3_published, topology3, tuning3, initial=init,
                        horizon=3e4, stride=16384)
    assert traj.times.size == 4 and not traj.u.any()


def test_numpy_fields_diverge_without_a_warning():
    # Above their kernels' bounds the full and averaged models step numpy
    # fields through integrate_fixed; gains far too hot overflow them, and
    # DivergenceError alone reports it, as on the generated kernels.
    rng = np.random.default_rng(43)
    for model, n in (("averaged", dynamics.MAX_GENERATED_AVERAGED_PLAYERS + 1),
                     ("full", dynamics.MAX_GENERATED_PLAYERS + 1)):
        r, m, sd = oracles.random_market(rng, n_min=n, n_max=n)
        game = build_quadratic_game(OligopolyParams(r, m, sd))
        tuning = NESTuning(amplitude=np.full(n, 0.05), gain=np.full(n, 1e4), omega=1.0,
                           omega_ratio=tuple(range(3, 3 + n)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError):
                simulate(model, game, DeceptionTopology((0,), ((2, n - 1),)), tuning,
                         horizon=50.0, dt=1.0, stride=1)


@pytest.mark.parametrize("model", MODEL_KINDS)
def test_simulate_refuses_runs_above_the_step_cap(game3_published, topology3,
                                                  tuning3, model):
    with pytest.raises(ValueError, match=rf"needs [0-9.e+]+ steps and [0-9.e+]+ "
                       rf"recorded samples; the caps are {MAX_STEPS} steps"):
        simulate(model, game3_published, topology3, tuning3, horizon=1e300)


def test_simulate_refuses_runs_above_the_sample_cap(game3_published,
                                                    topology3, tuning3):
    # within the step cap, but recording every one of the steps
    steps = (MAX_STEPS + MAX_SAMPLES) // 2
    with pytest.raises(ValueError, match=f"{MAX_SAMPLES} samples"):
        simulate("boundary", game3_published, topology3, tuning3,
                 horizon=float(steps), dt=1.0, stride=1)


def test_full_model_records_samples_compactly(game3_published, topology3,
                                             tuning3):
    # a recorded sample is t, three prices and one gain: 40 bytes of floats
    n_steps = 3000
    tracemalloc.start()
    try:
        dynamics._integrate_full(game3_published, topology3, tuning3.scaled(0.1),
                                 default_initial(game3_published, topology3),
                                 1e-4, n_steps, 1, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (n_steps + 1) <= 100.0, f"{peak / (n_steps + 1):.0f} B per sample"


def test_freeze_delta_holds_gain_constant(game3_published, topology3,
                                          tuning3):
    init = SimState(t=0.0, u=game3_published.nash_equilibrium(),
                    delta=np.array([2.486]))
    traj = simulate("full", game3_published, topology3, tuning3.scaled(0.1),
                    initial=init, horizon=0.2, stride=8, freeze_delta=True)
    assert np.all(traj.delta == 2.486)


def test_default_initial(game3_published, topology3):
    s = default_initial(game3_published, topology3, offset=1.5)
    assert np.allclose(s.u, game3_published.nash_equilibrium() + 1.5)
    assert s.delta.shape == (1,)
    assert s.t == 0.0


# ── model behavior ───────────────────────────────────────────────────────────

def test_averaged_model_tracks_attainable_gain(game3_published, topology3,
                                               tuning3):
    tun = tuning3.scaled(0.1)
    traj = simulate("averaged", game3_published, topology3, tun,
                    horizon=700.0, stride=8)
    ss = traj.steady_state()
    assert abs(ss.delta[0] - DELTA_STAR) < 5e-3, f"delta -> {ss.delta[0]}"
    assert np.max(np.abs(ss.u - U_STAR)) < 0.05, f"u -> {ss.u}"
    assert traj.meta.time_axis == "tau"
    # tau = omega t: the run covers the physical horizon, overshooting by
    # at most one record spacing (steps are rounded up to fill the stride)
    end = traj.physical_times()[-1]
    slack = traj.meta.dt * traj.meta.stride * traj.meta.to_physical
    assert 700.0 - 1e-9 <= end <= 700.0 + slack + 1e-9, f"end {end}"


def test_reduced_model_settles_at_attained_gain(game3_published, topology3,
                                                tuning3):
    tun = tuning3.scaled(0.1)
    traj = simulate("reduced", game3_published, topology3, tun,
                    horizon=700.0, stride=4)
    assert abs(traj.delta[-1][0] - DELTA_STAR) < 1e-4
    # actions ride the quasi-equilibrium manifold h(delta)
    mid = traj.times.size // 2
    h_mid = deceptive_equilibrium(game3_published, topology3,
                                  traj.delta[mid])
    assert np.max(np.abs(traj.u[mid] - h_mid)) < 1e-9


def test_boundary_model_contracts_to_zero(game3_published, topology3,
                                          tuning3):
    init = SimState(t=0.0, u=np.array([5.0, -3.0, 2.0]),
                    delta=np.array([2.0]))
    traj = simulate("boundary", game3_published, topology3, tuning3,
                    initial=init, horizon=400.0, stride=16)
    start = np.max(np.abs(traj.u[0]))
    end = np.max(np.abs(traj.u[-1]))
    assert end < 1e-2 * start, f"boundary layer decayed {start} -> {end}"
    assert np.all(traj.delta == 2.0), "delta must stay frozen"


def test_boundary_model_grows_outside_stability_set(game3_published,
                                                    topology3, tuning3):
    # delta = 7 sits outside the stability set: the frozen-gain error
    # dynamics must expand instead of contract.
    init = SimState(t=0.0, u=np.array([1.0, 1.0, 1.0]),
                    delta=np.array([7.0]))
    traj = simulate("boundary", game3_published, topology3, tuning3,
                    initial=init, horizon=300.0, stride=16)
    assert np.max(np.abs(traj.u[-1])) > np.max(np.abs(traj.u[0]))


def test_full_model_divergence_is_reported(game3_published, topology3,
                                           tuning3):
    # Gains six orders too hot: RK4 goes non-finite and the integrator
    # must say where, not return garbage.
    hot = NESTuning(amplitude=tuning3.amplitude,
                    gain=tuple(g * 1e6 for g in tuning3.gain),
                    omega=tuning3.omega * 0.1,
                    omega_ratio=tuning3.omega_ratio)
    with pytest.raises(DivergenceError):
        simulate("full", game3_published, topology3, hot, horizon=2.0,
                 stride=8)
    # A state that starts non-finite diverges at its first time on every
    # route: generated kernels, numpy fields and affine maps alike.
    two = DeceptionTopology((0, 1), ((2,), (0,)), eps=1e-4)
    for model in MODEL_KINDS:
        for topo in (topology3, two):
            init = SimState(t=1.5, u=np.full(3, np.nan), delta=np.full(topo.n_deceivers, -np.inf))
            with pytest.raises(DivergenceError) as err:
                simulate(model, game3_published, topo, tuning3.scaled(0.1), initial=init,
                         horizon=1e-3, dt=1e-4, stride=5)
            assert err.value.time == 1.5, (model, topo.deceivers)


@pytest.mark.parametrize("model", MODEL_KINDS)
@pytest.mark.parametrize("delta", [np.nan, np.inf, -np.inf])
def test_non_finite_start_gain_diverges_before_the_step_rule(game3_published, topology3,
                                                             tuning3, model, delta):
    # The dither-free models size their step from Qbar(delta) at the start
    # gain, which for the boundary model is its frozen gain and not part of
    # the integrated state.  A gain that is not finite must stop the run at
    # its first time, before the step rule or a field reads it, and without
    # a floating-point warning.
    init = SimState(t=1.5, u=game3_published.nash_equilibrium(), delta=np.array([delta]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as err:
            simulate(model, game3_published, topology3, tuning3.scaled(0.1), initial=init,
                     horizon=1.0, stride=8)
    axis = {"full": "t", "averaged": "tau", "reduced": "tau_star", "boundary": "t"}[model]
    assert (err.value.time, err.value.axis) == (1.5, axis)


def test_steady_state_window_is_count_based(game3_published, topology3,
                                            tuning3):
    tun = tuning3.scaled(0.1)
    traj = simulate("averaged", game3_published, topology3, tun,
                    horizon=300.0, stride=2)
    ss = traj.steady_state()
    spacing = traj.meta.dt * traj.meta.stride
    m = int(round(traj.meta.common_period / spacing))
    m = max(1, min(m, traj.times.size))
    assert np.allclose(ss.u, np.mean(traj.u[-m:], axis=0))
    assert np.allclose(ss.delta, np.mean(traj.delta[-m:], axis=0))
    assert np.allclose(ss.profits, -ss.costs)


# ── trajectory CSV ───────────────────────────────────────────────────────────

def test_write_csv_round_trip(tmp_path, game3_published, topology3, tuning3):
    tun = tuning3.scaled(0.1)
    traj = simulate("full", game3_published, topology3, tun,
                    horizon=0.05, stride=8)
    path = tmp_path / "trajectory.csv"
    traj.write_csv(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = np.array([[float(v) for v in row] for row in reader])
    assert header == ["t", "u_1", "u_2", "u_3", "delta_1",
                      "x_1", "x_2", "x_3", "J_1", "J_2", "J_3",
                      "P_1", "P_2", "P_3"]
    assert rows.shape == (traj.times.size, 14)
    # 12 significant digits survive the round trip at these magnitudes
    assert np.max(np.abs(rows[:, 1:4] - traj.u)) < 1e-9
    assert np.max(np.abs(rows[:, 4:5] - traj.delta)) < 1e-9
    # recorded prices = learned actions + the probing offset at that time
    for idx in (0, rows.shape[0] // 2, rows.shape[0] - 1):
        t = traj.times[idx]
        mu = dither_vector(tun, topology3, traj.delta[idx], t)
        assert np.max(np.abs(traj.x[idx] - (traj.u[idx] + mu))) < 1e-12


def test_write_csv_matches_per_cell_formatting(tmp_path):
    # The CSV is formatted in one call; each cell must read as
    # format(v, ".12g") would write it, signed zero and extremes included.
    cells = [-0.0, 0.0, 1e-300, -1e-300, 1e300, 3.0, -7.0, 2.0 ** 60, 1e15, 1.0 / 3.0,
             123456789012.5, -2.5e-7, 5e-324, -1e300]
    meta = dynamics.TrajectoryMeta(model="boundary", time_axis="t", to_physical=1.0,
                                   dt=0.1, stride=1, common_period=1.0, deceivers=(1,))
    for n_rows in (1, 5):
        v = np.array([np.roll(cells, -k) for k in range(n_rows)])
        traj = dynamics.Trajectory(times=v[:, 0], u=v[:, 1:4], delta=v[:, 4:5],
                                   x=v[:, 5:8], costs=v[:, 8:11], profits=v[:, 11:14],
                                   meta=meta)
        path = tmp_path / f"rows{n_rows}.csv"
        traj.write_csv(path)
        lines = ["t,u_1,u_2,u_3,delta_2,x_1,x_2,x_3,J_1,J_2,J_3,P_1,P_2,P_3"]
        lines += [",".join(format(x, ".12g") for x in row) for row in v.tolist()]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

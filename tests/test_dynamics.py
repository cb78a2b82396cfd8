"""Probing signals, period averaging, the four dynamical models, recording."""

from __future__ import annotations

import csv
import io
import math
import tokenize
import tracemalloc
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
    common_period,
    common_period_factor,
    deceptive_equilibrium,
    default_initial,
    dither_vector,
    perturbed_pseudogradient,
    rhs,
    simulate,
    solve_attainability,
)
from deceptive_nes import dynamics, numerics
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

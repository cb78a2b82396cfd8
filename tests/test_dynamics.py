"""Probing signals, period averaging, the four dynamical models, recording."""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import json
import math
import tokenize
import tracemalloc
import warnings
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

from deceptive_nes import (
    DeceptionTopology,
    DivergenceError,
    NESTuning,
    OligopolyParams,
    SimState,
    averaged_residual,
    build_deceptive_game,
    build_quadratic_game,
    bundled_scenario_path,
    common_period,
    common_period_factor,
    deceptive_equilibrium,
    default_initial,
    dither_vector,
    lambda_matrix,
    load_scenario,
    market_game,
    perturbed_pseudogradient,
    rhs,
    simulate,
    solve_attainability,
)
from deceptive_nes import cli, deception, dynamics, numerics
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
    # The averaged and boundary fields against the models written out from
    # the oracle blocks: one to three deceivers, overlapping victims
    # included, and last a game without the sales form, whose scaled
    # entries meet its deceiver's and a victim's rows.
    rng = np.random.default_rng(43)
    topologies = [((0,), ((2,),)), ((0, 1), ((1, 2), (2,))),
                  ((1, 3, 2), ((0,), (0, 2), (0, 3)))]
    topologies += [oracles.random_topology(rng, 4) for _ in range(4)]
    cases = [(deceivers, victims, False) for deceivers, victims in topologies]
    for deceivers, victims, scaled in cases + [((0,), ((1, 2),), True)]:
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
        if scaled:   # the entries of _without_sales_form, in both Hessians
            game = _without_sales_form(game)
            q[:2, [0, 1], [1, 0]] *= 1.1
        assert (game.sales_form is None) == scaled
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


@pytest.mark.filterwarnings("error")
def test_affine_averaged_run_at_a_tiny_omega_is_refused_without_a_warning(
        game3_published, tuning3):
    # Without deceivers the averaged field is affine, and gain / omega
    # overflows at omega = 1e-320; the step rule refuses the zero step it
    # leaves, and the overflow on the way raises no RuntimeWarning.
    tiny = dataclasses.replace(tuning3, omega=1e-320)
    bare = DeceptionTopology(deceivers=(), victims=())
    with pytest.raises(ValueError, match="integration step on the tau axis is 0"):
        simulate("averaged", game3_published, bare, tiny, horizon=60.0, stride=8)


@pytest.mark.parametrize("model", MODEL_KINDS)
def test_simulate_takes_only_integer_strides_and_oversampling(game3_published, topology3,
                                                              tuning3, model):
    # A float or a bool is refused up front, with the same message on every
    # route; a numpy integer is an integer, recorded as a Python int.
    tun = tuning3.scaled(0.1)
    run = functools.partial(simulate, model, game3_published, topology3, tun, horizon=1e-3,
                            dt=1e-4)
    for bad in (2.5, 2.0, True, np.float64(2.0), "2", None):
        with pytest.raises(ValueError, match=r"stride must be an integer in 1\.\."):
            run(stride=bad)
    for bad in (32.5, 32.0, True, np.float64(32.0)):
        with pytest.raises(ValueError, match=r"oversampling must be an integer in 16\.\."):
            run(oversampling=bad)
    # ten steps on every model's native axis: a horizon short of one stride
    # would take a part-block
    scale = {"averaged": tun.omega, "reduced": topology3.eps * tun.omega}.get(model, 1.0)
    traj = run(stride=np.int64(2), oversampling=np.int32(32), horizon=1e-3 / scale)
    assert type(traj.meta.stride) is int and traj.meta.stride == 2
    assert np.allclose(np.diff(traj.times), 2e-4)


@pytest.mark.parametrize("model", MODEL_KINDS)
@pytest.mark.parametrize("t0", [np.inf, np.nan, 1e300])
def test_simulate_refuses_a_start_time_that_cannot_carry_a_clock(game3_published, topology3,
                                                                tuning3, model, t0):
    # A start time that is not finite, or so large that a step does not move
    # it, would record every sample at one time (or none); it is refused.
    init = SimState(t=t0, u=game3_published.nash_equilibrium(), delta=np.array([1.0]))
    with pytest.raises(ValueError, match="start time"):
        simulate(model, game3_published, topology3, tuning3.scaled(0.1), initial=init,
                 horizon=1.0, stride=8)


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


def _without_sales_form(game):
    """``game`` with the pseudogradient entries ``[0, 1]`` and ``[1, 0]``
    (``q[0, 0, 1]``, ``q[1, 1, 0]`` and their mirror entries) scaled by 1.1:
    with three or more players its off-diagonal pseudogradient is no longer
    rank one, so the costs have no sales form."""
    rows = game.pseudogradient_matrix.copy()
    rows[[0, 1], [1, 0]] *= 1.1
    return dataclasses.replace(game, pseudogradient_matrix=rows)


def test_full_integrator_matches_generic_rk4_on_rhs(game3_published,
                                                    topology3, tuning3,
                                                    monkeypatch):
    # The production loop is generated per market structure; one coarse run
    # must agree with numerics.rk4_step applied to the reference rhs to
    # round-off, and so must the numpy field that steps a game without the
    # sales form.
    generated = []
    full_kernel = dynamics._full_kernel

    def spy(game, *args):
        generated.append(game.n_players)
        return full_kernel(game, *args)

    monkeypatch.setattr(dynamics, "_full_kernel", spy)
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
    # frozen gains, markets of 31 and 60 players, and last a game without
    # the sales form, which takes the numpy field.
    rng = np.random.default_rng(3)

    def large(n):
        r, m, sd = oracles.random_market(rng, n_min=n, n_max=n)
        return (build_quadratic_game(OligopolyParams(r, m, sd)),
                DeceptionTopology((0, 5), ((1, 2, n - 1), (0, 2)), eps=0.1),
                NESTuning(amplitude=rng.uniform(0.01, 0.1, size=n),
                          gain=rng.uniform(0.005, 0.02, size=n), omega=1.0,
                          omega_ratio=tuple(range(3, 3 + n))), False)

    cases = [(g, topo, tuning, False) for g, topo, tuning, _ in _rich_cases()]
    big = large(31)
    cases += [(game3_published, DeceptionTopology((), ()), tun, False),
              (game3_published, topology3, tun, True), big, large(60),
              (_without_sales_form(big[0]), *big[1:])]
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
    source, names, *_ = dynamics._full_kernel(game, topo, tuning, False)
    same, other_names, *_ = dynamics._full_kernel(other, retopo, retuned, True)
    assert same == source
    assert all(names[k] != other_names[k] for k in ("th0", "be0", "ga0", "g0", "r0"))
    numbers = {tok.string for tok in tokenize.generate_tokens(io.StringIO(source).readline)
               if tok.type == tokenize.NUMBER}
    assert numbers <= {"0", "1", "0.0", "0.5", "2.0", "6.0"}, numbers

    # The stage is O(N): doubling the players at most about doubles its
    # tokens, where the dense stage's grow about fourfold.
    def stage_tokens(n):
        stage = dynamics._full_source(n, (0,), ((1, 2),))
        return sum(1 for _ in tokenize.generate_tokens(io.StringIO(stage).readline))

    assert stage_tokens(40) <= 2.2 * stage_tokens(20), (stage_tokens(20), stage_tokens(40))


def test_sales_form_recovers_every_game_the_package_builds():
    # Markets of 2..8 players, with and without an own-curvature override,
    # and deceptive games: the form reproduces the resistance weights'
    # products Rp / (R_i R_j) and the marginal costs, and its factored costs
    # match game.costs at random prices.
    rng = np.random.default_rng(47)
    for n in range(2, 9):
        for _ in range(4):
            r, m, sd = oracles.random_market(rng, n_min=n, n_max=n)
            params = OligopolyParams(r, m, sd)
            base = market_game(params)
            decs, vics = oracles.random_topology(rng, n)
            deceptive = build_deceptive_game(params, DeceptionTopology(decs, vics),
                                             rng.uniform(0.5, 3.0, size=len(decs)))
            curved = {int(i): float(rng.uniform(0.5, 2.0) * base.q[i, i, i])
                      for i in rng.choice(n, size=2, replace=False)}
            for game in (base, market_game(params, curved), deceptive.quadratic()):
                form = game.sales_form
                assert form is not None, n
                v, mc, theta, beta, gamma = form
                off = ~np.eye(n, dtype=bool)
                weights = 1.0 / np.sum(1.0 / r) / np.outer(r, r)
                assert np.allclose(np.outer(v, v)[off], weights[off], rtol=1e-13, atol=0.0)
                assert np.allclose(mc, m, rtol=1e-13, atol=0.0)
                x = rng.uniform(0.0, 100.0, size=(5, n))
                z = v * (x - mc)
                costs = z * (theta * z + beta - z.sum(axis=1, keepdims=True)) + gamma
                ref = game.costs(x)
                assert np.all(np.abs(costs - ref)
                              <= 1e-13 * np.max(np.abs(ref), axis=1, keepdims=True)), n


def test_sales_form_refuses_games_without_it():
    # An off-diagonal that is not rank one, and a row of b that is not
    # proportional to the row of q: the numpy field steps such a game.
    rng = np.random.default_rng(53)
    r, m, sd = oracles.random_market(rng, n_min=5, n_max=5)
    game = build_quadratic_game(OligopolyParams(r, m, sd))
    b = game.b.copy()
    b[2, 4] *= 1.0 + 1e-9
    for other in (_without_sales_form(game), dataclasses.replace(game, b=b)):
        assert other.sales_form is None
        with pytest.raises(ValueError, match="sales form"):
            dynamics._full_kernel(other, DeceptionTopology((), ()), NESTuning(
                amplitude=np.full(5, 0.05), gain=np.full(5, 0.01), omega=1.0,
                omega_ratio=(3, 4, 5, 6, 7)), False)


def test_full_kernel_long_run_matches_generic_rk4_on_rhs():
    # Thousands of steps of the bundled study at its freq-scale: the kernel
    # carries each step's end tones into the next, so every recorded row is
    # checked against integrate_fixed on rhs, and every recorded time is
    # exactly t0 + k * stride * dt.  5003 is no multiple of the stride: the
    # 714 whole blocks are followed by a part-block of the 5 steps left.
    scenario = load_scenario(bundled_scenario_path("three_firm_deception"))
    game, topo = scenario.game(), scenario.topology
    tuning = scenario.tuning.scaled(scenario.sim.freq_scale)
    t0, stride, n_steps = 0.25, 7, 5003
    dt = 2.0 * math.pi / (float(max(tuning.frequencies())) * 32)
    y0 = np.concatenate([game.nash_equilibrium() + 0.3, [1.0]])
    times, got = dynamics._run_kernel(dynamics._full_kernel(game, topo, tuning, False),
                                      y0, t0, dt, n_steps, stride)
    assert times.size == 2 + n_steps // stride
    assert times.tolist() == [t0 + k * stride * dt for k in range(times.size - 1)] \
        + [t0 + n_steps * dt]

    def f(t, y):
        return rhs("full", game, topo, tuning, SimState(t=t, u=y[:3], delta=y[3:]))

    _, ref = numerics.integrate_fixed(f, t0, y0, dt, n_steps, record_every=stride)
    scale = np.max(np.abs(ref), axis=1, keepdims=True)
    assert np.all(np.abs(got - ref) <= 1e-12 * scale), np.max(np.abs(got - ref) / scale)
    assert abs(got[-1, 3] - got[0, 3]) > 1e-3   # the gain moved


@pytest.mark.parametrize("topo", [None, DeceptionTopology((0, 2), ((1, 2), (0, 1)))],
                         ids=["bundled", "two-victims"])
def test_full_kernel_tones_match_scalar_tones(topo):
    # The tone rows, taken stride by stride as run takes them over more than
    # three table fills, against each tone from math.sin: at t0, then at
    # each step's midpoint te + dt / 2 and its end te = t0 + k dt.  The
    # deceiver sums add their victims' terms left to right.
    scenario = load_scenario(bundled_scenario_path("three_firm_deception"))
    game, topo = scenario.game(), topo or scenario.topology
    tuning = scenario.tuning.scaled(scenario.sim.freq_scale)
    n, t0, stride = game.n_players, 0.25, 7
    dt = 2.0 * math.pi / (float(max(tuning.frequencies())) * 32)
    n_steps = stride * (3 * dynamics._TONE_CHUNK // stride + 2)
    *_, tones = dynamics._full_kernel(game, topo, tuning, False)
    # a_i v_i, -(2 k_i / a_i) v_i and a_l v_{z_k}, from the sales form
    v = game.sales_form[0].tolist()
    amp, gain, w = tuning.amplitude.tolist(), tuning.gain.tolist(), tuning.frequencies().tolist()

    def scalar(t):
        s = [math.sin(w[i] * t) for i in range(n)]
        row = [amp[i] * v[i] * s[i] for i in range(n)]
        row += [-(2.0 * gain[i] / amp[i]) * v[i] * s[i] for i in range(n)]
        for zk, vs in zip(topo.deceivers, topo.victims):
            total = amp[vs[0]] * v[zk] * s[vs[0]]
            for l in vs[1:]:
                total = total + amp[l] * v[zk] * s[l]
            row.append(total)
        return row

    rows = tones(t0, dt, n_steps)
    assert list(next(rows)) == scalar(t0)
    half, te, k = 0.5 * dt, t0, 0
    for _ in range(n_steps // stride):
        for row in islice(rows, stride):
            k += 1
            mid, te = te + half, t0 + k * dt
            assert list(row) == scalar(mid) + scalar(te), k
    assert k == n_steps and next(rows, None) is None


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
        (lambda g, t: dynamics._reduced_kernel(g, t, tuning, False), single,
         DeceptionTopology((0,), ((1,),))),   # one victim against several
    ]
    for build, same, changed in builds:
        source = build(game, same)[0]
        assert build(other, same)[0] is source
        assert build(game, changed)[0] != source


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


def _reduced_stage(game, topo, tuning):
    """The reduced kernel's field at a point ``d``, through its ``block``:
    a record of one step of zero length with ``sixth = 1`` takes every
    stage at ``d`` and records ``d + (f + 2 (f + f) + f)`` for the stage's
    field ``f`` (:func:`_stepped`)."""
    source, names, *_ = dynamics._reduced_kernel(game, topo, tuning, False)
    exec(source, names)

    def stage(*d):
        recorded = []
        names["block"](*d, [[None]], recorded.extend, 0.0, 1.0, 0.0)
        return tuple(recorded)

    return stage


def _stepped(d, f):
    """What :func:`_reduced_stage` returns at ``d`` for the field ``f``."""
    return tuple(x + (w + 2.0 * (w + w) + w) for x, w in zip(d, f))


def _reduced_case(rng, structure, n_players=5, resistance_scale=1.0):
    """A random market with the deceivers and victims of ``structure``, or
    with one deceiver and ``structure`` random victims, cost references
    drawn from [-500, 0] and a tuning."""
    r, m, sd = oracles.random_market(rng, n_min=n_players, n_max=n_players)
    game = build_quadratic_game(OligopolyParams(np.asarray(r) * resistance_scale, m, sd))
    if isinstance(structure, int):
        z = int(rng.integers(n_players))
        others = [j for j in range(n_players) if j != z]
        structure = ((z,), (tuple(int(j) for j in rng.choice(others, size=structure,
                                                             replace=False)),))
    k = len(structure[0])
    topo = DeceptionTopology(*structure, eps=1e-3, eps_rates=rng.uniform(0.5, 2.0, size=k),
                             cost_refs=rng.uniform(-500.0, 0.0, size=k))
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
             (dynamics._reduced_kernel(game, single, tuning, False),
              dynamics._reduced_kernel(other, resingle, retuned, False))]
    for (source, names, *_), (same, other_names, *_) in pairs:
        assert same == source
        floats = [key for key, value in names.items() if isinstance(value, float)]
        # only a structural zero is the same number in both markets
        assert all(names[key] != other_names[key] or names[key] == 0.0 for key in floats)
        numbers = {tok.string for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                   if tok.type == tokenize.NUMBER}
        assert numbers <= {"0", "1", "0.5", "1.0", "2.0", "6.0"}, numbers


@pytest.mark.parametrize("freeze", [False, True])
def test_averaged_kernel_matches_generic_rk4_on_rhs(freeze):
    # Several deceivers, overlapping victim sets and a deceiver that is
    # another's victim, against numerics.rk4_step on the reference rhs; the
    # last two in markets of 31 and 60 players.
    rng = np.random.default_rng(29)
    structures = [(topo.deceivers, topo.victims, game) for game, topo, _, _ in _rich_cases()]
    for n, deceivers, victims in ((4, (1, 3, 2), ((0,), (0, 2), (0, 3))),
                                  (31, (0, 5), ((1, 2, 30), (0, 2))),
                                  (60, (7, 0, 59), ((0, 3, 40), (7, 3), (1, 2, 3, 58)))):
        r, m, sd = oracles.random_market(rng, n_min=n, n_max=n)
        structures.append((deceivers, victims, build_quadratic_game(OligopolyParams(r, m, sd))))
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


@pytest.mark.parametrize("structure", [1, 2, 3, 4, ((0, 1), ((2, 3), (0, 3))),
                                       ((0, 1, 4), ((2, 3), (0, 3), (1, 2, 3)))],
                         ids=["1", "2", "3", "4", "2-deceivers", "3-deceivers"])
def test_reduced_kernel_matches_generic_rk4_on_rhs(structure):
    # One deceiver with 1-4 random victims, and two and three deceivers
    # whose victims overlap, one of them another's victim.
    rng = np.random.default_rng(31 + (structure if isinstance(structure, int)
                                      else 3 * len(structure[0])))
    cases = [_reduced_case(rng, structure) for _ in range(5)]
    # 30 players with resistances 1e-7 of the usual: every number of the
    # stage is some 1e7 times the usual one
    cases.append(_reduced_case(rng, structure, n_players=30, resistance_scale=1e-7))
    for game, topo, tuning in cases:
        n = game.n_players
        init = SimState(t=0.0, u=np.zeros(n),
                        delta=rng.uniform(-1.0, 1.0, size=topo.n_deceivers))

        def f(t, d):
            return rhs("reduced", game, topo, tuning, SimState(t=t, u=np.zeros(n), delta=d))

        # Steps short against the field's scale and its rate of change, so
        # the gain travels at most 0.5 and no stage lands next to a pole: a
        # run that jumps across poles is chaotic, and there any rounding
        # difference grows without bound.
        rate = float(np.linalg.norm(lambda_matrix(game, topo, init.delta), np.inf)) / tuning.omega
        dt, n_steps = min(0.02 / rate, 0.02 / np.max(np.abs(f(0.0, init.delta)))), 25
        traj = simulate("reduced", game, topo, tuning, initial=init,
                        horizon=dt * n_steps / (topo.eps * tuning.omega),
                        stride=n_steps, dt=dt)
        y = init.delta
        for i in range(n_steps):
            y = numerics.rk4_step(f, i * dt, y, dt)
        assert np.max(np.abs(traj.delta[-1] - y)) < 1e-13 * (1 + np.max(np.abs(y))), (
            f"victims {topo.victims}: {traj.delta[-1]} vs {y}")
        assert np.max(np.abs(y - init.delta)) > 1e-3   # the gain moved


def test_reduced_kernel_screen_covers_every_singular_gate(game3_published, topology3,
                                                          tuning3):
    # Near the pole the stage must raise wherever the gated solve does, and
    # return wherever it does not.
    stage = _reduced_stage(game3_published, topology3, tuning3)
    gated = 0
    for scale in 10.0 ** -np.arange(6.0, 17.0, 0.25):
        for d in (SINGULAR_DELTA - scale, SINGULAR_DELTA + scale):
            try:
                deceptive_equilibrium(game3_published, topology3, [d])
            except numerics.SingularMatrixError:
                gated += 1
                with pytest.raises(numerics.SingularMatrixError):
                    stage(d)
            else:
                stage(d)
    assert gated >= 10


@pytest.mark.parametrize("k", [1, 2], ids=["one-deceiver", "two-deceivers"])
def test_reduced_stage_divides_by_no_zero(game3_published, tuning3, k):
    # The stage runs on Python floats, where 1 / 0.0 raises.  Where a
    # victim's D_i = Qbar_ii + v_i^2 vanishes, at d_k = -(Q0_ii + v_i^2 +
    # the other deceivers' terms) / pi_ki, Qbar(d) is regular but the closed
    # form would divide by zero.  There, a few ulps either side and beside
    # the study's pole the stage raises SingularMatrixError exactly where
    # deceptive_equilibrium does, and otherwise returns the gated field.
    topo = DeceptionTopology((0, 1)[:k], ((2,), (0, 2))[:k], eps=1e-4,
                             cost_refs=(-1200.0, -1400.0)[:k])
    stage = _reduced_stage(game3_published, topo, tuning3)
    q0, v = game3_published.pseudogradient_matrix, game3_published.sales_form[0]
    pi, _ = dynamics._pseudogradient_basis(game3_published, topo)
    base = np.array([0.0, 0.7])[:k]
    points = [np.array([SINGULAR_DELTA, 0.0])[:k]]
    for j, vs in enumerate(topo.victims):
        for i in vs:
            d = base.copy()
            d[j] = -(q0[i, i] + v[i] ** 2 + np.delete(base, j) @ np.delete(pi[:, i], j)) / pi[j, i]
            points.append(d)
    raised = 0
    for point in points:
        for ulps in range(-3, 4):
            d = point.copy()
            for _ in range(abs(ulps)):
                d[0] = np.nextafter(d[0], math.copysign(math.inf, ulps))
            try:
                deceptive_equilibrium(game3_published, topo, d)
            except numerics.SingularMatrixError:
                raised += 1
                with pytest.raises(numerics.SingularMatrixError):
                    stage(*d.tolist())
            else:
                want = rhs("reduced", game3_published, topo, tuning3,
                           SimState(t=0.0, u=np.zeros(3), delta=d))
                assert stage(*d.tolist()) == _stepped(d.tolist(), want.tolist()), d
    assert raised >= 1


@pytest.mark.parametrize("case", ["one-deceiver", "two-deceivers", "no-sales-form"])
def test_reduced_run_whose_gain_overflows_diverges(game3_published, tuning3, case):
    # A rate so hot that the first stage's field overflows: the next stage
    # is at an infinite gain, where Qbar is not finite.  The stage there is
    # NaN, with no floating-point warning, on the kernel and on the numpy
    # field alike, so the record stops after the first step and the run
    # ends in DivergenceError.
    k = 1 if case == "one-deceiver" else 2
    game = _without_sales_form(game3_published) if case == "no-sales-form" else game3_published
    topo = DeceptionTopology((0, 1)[:k], ((2,), (0, 2))[:k], eps=1e-4,
                             eps_rates=(1e300,) * k, cost_refs=(-1e10,) * k)
    init = SimState(t=0.0, u=np.zeros(3), delta=np.full(k, -1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as err:
            simulate("reduced", game, topo, tuning3, initial=init, horizon=100.0, dt=1e-3)
    assert (err.value.axis, err.value.time) == ("tau_star", 1e-3)


@pytest.mark.parametrize("case", ["one-deceiver", "two-deceivers", "no-sales-form"])
def test_reduced_run_whose_gain_leaps_to_a_huge_finite_value_diverges(game3_published,
                                                                      tuning3, case):
    # A hot rate with moderate cost references: the second stage is at a
    # finite gain near 1e299, where 1e-13 ||Qbar||_inf tops every entry of
    # Q0 and the relative pivot gate fails on the rows nobody deceives.
    # The gain has run off, so the stage is NaN and the run ends in
    # DivergenceError at the first block's end, not in SingularMatrixError.
    k = 1 if case == "one-deceiver" else 2
    game = _without_sales_form(game3_published) if case == "no-sales-form" else game3_published
    topo = DeceptionTopology((0, 1)[:k], ((2,), (0, 2))[:k], eps=1e-4,
                             eps_rates=(1e300,) * k, cost_refs=(-1200.0, -1400.0)[:k])
    init = SimState(t=0.0, u=np.zeros(3), delta=np.full(k, -1.0))
    leap = init.delta + 0.5e-3 * rhs("reduced", game, topo, tuning3, init)
    assert np.isfinite(leap).all() and np.max(np.abs(leap)) > 1e290
    with pytest.raises(numerics.SingularMatrixError):
        deceptive_equilibrium(game, topo, leap)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as err:
            simulate("reduced", game, topo, tuning3, initial=init, horizon=100.0, dt=1e-3)
    assert (err.value.axis, err.value.time) == ("tau_star", 1e-3)


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
    # Generated kernels wherever the costs have the sales form (every
    # market, at any size): the full model, the averaged model with
    # deceivers and the reduced model with any number of deceivers.  The
    # affine fields (boundary, averaged without deceivers) take
    # integrate_affine at every size; a game without the sales form takes
    # the numpy field.
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
    fourteen, big = market(14), market(31)
    cases = [("full", game3_published, topology3, tun, "_full_kernel"),
             ("averaged", game3_published, topology3, tun, "_averaged_kernel"),
             ("reduced", game3_published, topology3, tun, "_reduced_kernel"),
             ("reduced", game3_published, two, tun, "_reduced_kernel"),
             ("averaged", *fourteen, "_averaged_kernel"),
             ("averaged", *big, "_averaged_kernel"),
             ("full", *big, "_full_kernel"),
             ("full", *market(60), "_full_kernel"),
             ("reduced", *big, "_reduced_kernel")]
    for model in ("full", "averaged", "reduced"):
        cases += [(model, _without_sales_form(big[0]), *big[1:], "integrate_fixed"),
                  (model, _without_sales_form(game3_published), two, tun, "integrate_fixed")]
    for game, topo, tuning in [(game3_published, topology3, tun), market(7), market(8),
                               fourteen, big]:
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


def _rk4_one_step_map(a, c, dt):
    """``(r, s)`` with one classical RK4 step of ``y' = a y + c`` equal to
    ``y -> r y + s``: the stages ``k_j = a y_j + c`` compose to ``r = I +
    hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24`` and ``s = h(I + hA/2 + (hA)^2/6 +
    (hA)^3/24) c`` with ``h = dt``."""
    ha, eye = dt * a, np.eye(len(a))
    series = eye + ha @ (eye / 2.0 + ha @ (eye / 6.0 + ha / 24.0))
    return eye + ha @ series, dt * series @ c


def test_integrate_affine_matches_rk4_over_long_records():
    # 5000 recorded samples take the doubled block maps up to P^4096: each
    # row against RK4 stepped one step at a time by its one-step affine
    # map, relative to the row's largest entry, for decaying (c = 0) and
    # settling (c != 0) fields.  The run spans 100 / ||a||_inf, so a
    # decaying state stays far above the subnormal floats.
    rng = np.random.default_rng(59)
    for m in range(1, 11):
        for stride in (1, 3):
            a, c = _stable_affine_field(rng, m)
            y0 = rng.uniform(-5.0, 5.0, size=m)
            n_steps = 5000 * stride
            dt = 100.0 / (np.linalg.norm(a, np.inf) * n_steps)
            for field in (np.zeros(m), c):
                times, states = numerics.integrate_affine(a, field, 0.0, y0, dt, n_steps,
                                                          record_every=stride)
                r, s = _rk4_one_step_map(a, field, dt)
                one = numerics.rk4_step(lambda t, v: a @ v + field, 0.0, y0, dt)
                assert np.max(np.abs(r @ y0 + s - one)) <= 1e-14 * np.max(np.abs(one))
                ref, y = [y0], y0
                for step in range(1, n_steps + 1):
                    y = r @ y + s
                    if step % stride == 0:
                        ref.append(y)
                assert np.array_equal(times, np.arange(0, n_steps + 1, stride) * dt)
                assert len(times) == 5001
                scale = np.max(np.abs(ref), axis=1, keepdims=True)
                assert np.all(np.abs(states - ref) <= 1e-11 * scale), (m, stride, field.any())


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


def test_numpy_fields_diverge_without_a_warning(monkeypatch):
    # The full and the averaged model of a game without the sales form step
    # numpy fields through integrate_fixed; gains far too hot overflow them,
    # and DivergenceError alone reports it, as on the generated kernels.
    # The record stops at the diverging block: a horizon a hundred times
    # longer diverges at the same time, and no RK4 step runs after that
    # block.
    steps = []
    rk4_step = numerics.rk4_step

    def counted(f, t, y, dt):
        steps.append(t)
        return rk4_step(f, t, y, dt)

    monkeypatch.setattr(numerics, "rk4_step", counted)
    rng = np.random.default_rng(43)
    for model, n in (("averaged", 14), ("full", 31)):
        r, m, sd = oracles.random_market(rng, n_min=n, n_max=n)
        game = _without_sales_form(build_quadratic_game(OligopolyParams(r, m, sd)))
        tuning = NESTuning(amplitude=np.full(n, 0.05), gain=np.full(n, 1e4), omega=1.0,
                           omega_ratio=tuple(range(3, 3 + n)))
        errors = []
        for horizon in (50.0, 5000.0):
            steps.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DivergenceError) as err:
                    simulate(model, game, DeceptionTopology((0,), ((2, n - 1),)), tuning,
                             horizon=horizon, dt=1.0, stride=1)
            errors.append((err.value.time, err.value.axis))
            assert steps == [float(k) for k in range(int(err.value.time))], (model, horizon)
        assert errors[0] == errors[1] and errors[0][0] < 50.0, (model, errors)


def test_generated_kernels_stop_at_the_first_non_finite_block(game3_published, topology3,
                                                              tuning3):
    # The same contract on the generated kernels: a run far too hot records
    # finite rows through the block before it diverges and that block's
    # non-finite end, at the times t0 + k * stride * dt, and stops there.
    hot = NESTuning(amplitude=tuning3.amplitude, gain=tuning3.gain * 1e6,
                    omega=tuning3.omega * 0.1, omega_ratio=tuning3.omega_ratio)
    init = default_initial(game3_published, topology3)
    y0 = np.concatenate([init.u, init.delta])
    t0, dt, stride, n_steps = 0.5, 1e-3, 4, 4_000_000
    for kernel in (dynamics._full_kernel(game3_published, topology3, hot, False),
                   dynamics._averaged_kernel(game3_published, topology3, hot, False)):
        times, states = dynamics._run_kernel(kernel, y0, t0, dt, n_steps, stride)
        finite = np.isfinite(states).all(axis=1)
        assert 1 < len(times) < 1000 and finite[:-1].all() and not finite[-1], finite
        assert times.tolist() == [t0 + k * stride * dt for k in range(len(times))]


@pytest.mark.parametrize("model", ["full", "averaged", "reduced"])
def test_kernels_record_a_trailing_part_block_as_integrate_fixed(game3_published, topology3,
                                                                 tuning3, model):
    # 45 steps at stride 6: seven whole blocks and a part-block of the 3
    # steps left, recorded at the same times as integrate_fixed on rhs
    # records them, and at the same states up to rounding.
    tun = tuning3.scaled(0.1)
    build = {"full": dynamics._full_kernel, "averaged": dynamics._averaged_kernel,
             "reduced": dynamics._reduced_kernel}[model]
    dt = {"full": 1e-3, "averaged": 0.05, "reduced": 1e-3}[model]
    t0, n_steps, stride = 0.25, 45, 6
    init = SimState(t=t0, u=game3_published.nash_equilibrium() + 0.7, delta=np.array([1.3]))
    y0 = dynamics._pack(model, init.u, init.delta)

    def f(t, y):
        u, d = (init.u, y) if model == "reduced" else (y[:3], y[3:])
        return rhs(model, game3_published, topology3, tun, SimState(t=t, u=u, delta=d))

    times, got = dynamics._run_kernel(build(game3_published, topology3, tun, False), y0, t0,
                                      dt, n_steps, stride)
    ref_times, ref = numerics.integrate_fixed(f, t0, y0, dt, n_steps, record_every=stride)
    assert times.size == 9 and times.tolist() == ref_times.tolist()
    scale = np.max(np.abs(ref), axis=1, keepdims=True)
    assert np.all(np.abs(got - ref) <= 1e-12 * scale), np.max(np.abs(got - ref) / scale)
    assert abs(got[-1, -1] - got[0, -1]) > 1e-6   # the gain moved


@pytest.mark.parametrize("model", ["full", "averaged", "reduced"])
def test_recording_does_not_perturb_the_arithmetic(game3_published, topology3, tuning3, model):
    # The stride-k record is every k-th row of the stride-1 record, bit for
    # bit, and a trailing part-block its last row: recording only reads the
    # state.  100 steps leave a part-block at k = 3 and 8.  A hot run that
    # diverges at step r mid-block records the same rows before that block,
    # then the block's end at step min(ceil(r / k) k, 100), not finite.
    build = {"full": dynamics._full_kernel, "averaged": dynamics._averaged_kernel,
             "reduced": dynamics._reduced_kernel}[model]
    tun = tuning3.scaled(0.1)
    runs = {   # (topology, tuning, dt, the step r a hot run diverges at)
        "full": [(topology3, tun, 1e-3, None),
                 (topology3, dataclasses.replace(tun, gain=3.0 * tun.gain), 1e-3, 91)],
        "averaged": [(topology3, tun, 0.05, None), (topology3, tun, 1.0, 11)],
        "reduced": [(topology3, tun, 1e-3, None),
                    (dataclasses.replace(topology3, eps_rates=(1e12,)), tun, 1.0, 1)],
    }[model]
    y0 = dynamics._pack(model, game3_published.nash_equilibrium() + 0.7, np.array([1.3]))
    t0, n_steps = 0.25, 100
    for topo, tuning, dt, diverges in runs:
        kernel = build(game3_published, topo, tuning, False)
        _, ref = dynamics._run_kernel(kernel, y0, t0, dt, n_steps, 1)
        end = len(ref) - 1   # the step of the last row
        assert end == (diverges or n_steps)
        assert np.isfinite(ref[-1]).all() == (diverges is None)
        for k in (1, 3, 8):
            times, got = dynamics._run_kernel(kernel, y0, t0, dt, n_steps, k)
            steps = [*range(0, end, k), min(-(-end // k) * k, n_steps)]
            assert times.tolist() == [t0 + s * dt for s in steps], k
            assert got[:-1].tobytes() == ref[steps[:-1]].tobytes(), k
            if steps[-1] == end:
                assert got[-1].tobytes() == ref[end].tobytes(), k
            else:   # the end of the block the run diverged in
                assert not np.isfinite(got[-1]).all(), k


def test_kernel_record_ends_at_the_first_price_that_overflows():
    # A firm of resistance 1e150 has v = 4.8e-151, so its price u = z / v +
    # m overflows from z = 8.7e157, long before z does.  With an own
    # curvature that makes theta = 1/2 and a gain that makes its averaged
    # row grow about 1.25-fold a step, the record must end at the first
    # price that is infinite while the kernel's z is still finite: the
    # same kernel recording z itself (v = 1, m = 0) goes on past that row.
    params = OligopolyParams(np.array([0.67, 0.36, 1e150]), np.array([20.0, 29.0, 30.0]), 100.0)
    v3 = build_quadratic_game(params).sales_form[0][2]
    game = market_game(params, own_curvature={2: -v3 * v3})
    topo = DeceptionTopology((0,), ((2,),), eps=1e-4)
    tuning = NESTuning(amplitude=(0.04, 0.03, 0.05), gain=(1e-200, 1e-200, 1e300), omega=1.0,
                       omega_ratio=(3, 4, 5))
    source, names, v, m, _ = dynamics._averaged_kernel(game, topo, tuning, True)
    init = SimState(t=0.0, u=np.array([50.0, 57.0, 48.0]), delta=np.zeros(1))
    y0 = np.concatenate([init.u, init.delta])
    times, got = dynamics._run_kernel((source, names, v, m, None), y0, 0.0, 1.0, 5000, 1)
    z0 = np.concatenate([v * (init.u - m), init.delta])
    _, z = dynamics._run_kernel((source, dict(names), np.ones(3), np.zeros(3), None),
                                z0, 0.0, 1.0, 5000, 1)
    end = len(times)
    finite = np.isfinite(got).all(axis=1)
    assert 100 < end < len(z) and finite[:-1].all() and got[-1, 2] == math.inf
    assert np.isfinite(z[end - 1]).all()
    with np.errstate(over="ignore"):
        assert (got[1:, :3] == z[1:end, :3] / v + m).all()
    # The kernel stops stepping at the end of the block of that row.  Fed
    # rows that count its steps (the averaged kernel reads none of a row),
    # at stride 7 it takes the steps to that block's end and no more.
    handed = iter(range(5002))
    stride = 7
    last, _ = dynamics._run_kernel(
        (source, dict(names), v, m, lambda t0, dt, n_steps: (() for _ in handed)),
        y0, 0.0, 1.0, 5000, stride)
    taken = next(handed) - 1   # the rows handed out, less the one at t0
    assert taken == -(-(end - 1) // stride) * stride == last[-1], (taken, end)
    with pytest.raises(DivergenceError) as err:
        simulate("averaged", game, topo, tuning, initial=init, horizon=5000.0, dt=1.0,
                 freeze_delta=True)
    assert err.value.time == times[-1]


@pytest.mark.parametrize("route", ["full", "averaged", "reduced", "boundary",
                                   "averaged-nominal", "full-numpy", "averaged-numpy",
                                   "reduced-numpy"])
def test_a_horizon_short_of_one_stride_ends_within_a_step_of_it(game3_published, topology3,
                                                                 tuning3, route):
    # 0.01 s at stride 10^4 is one part-block on every route: the record is
    # the start and one sample at or within one step past the horizon.
    model, _, kind = route.partition("-")
    game = _without_sales_form(game3_published) if kind == "numpy" else game3_published
    topo = DeceptionTopology((), ()) if kind == "nominal" else topology3
    horizon = 0.01
    traj = simulate(model, game, topo, tuning3.scaled(0.1), horizon=horizon, stride=10_000)
    step = traj.meta.dt * traj.meta.to_physical
    end = traj.physical_times()[-1]
    assert traj.times.size == 2 and -1e-9 * step <= end - horizon < step, (end, step)


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


@pytest.mark.parametrize("model", ["full", "averaged", "reduced"])
def test_full_model_records_samples_compactly(game3_published, topology3,
                                             tuning3, model):
    # a recorded sample is t, three prices and one gain: 40 bytes of floats
    # (16 for the reduced model's t and gain); the kernel is built and
    # compiled inside the trace, whatever ran before
    n_steps = 3000
    build, source = {"full": (dynamics._full_kernel, dynamics._full_source),
                     "averaged": (dynamics._averaged_kernel, dynamics._averaged_source),
                     "reduced": (dynamics._reduced_kernel, dynamics._reduced_source)}[model]
    dynamics._compiled.cache_clear()
    source.cache_clear()
    tracemalloc.start()
    try:
        init = default_initial(game3_published, topology3)
        dynamics._run_kernel(build(game3_published, topology3, tuning3.scaled(0.1), False),
                             dynamics._pack(model, init.u, init.delta), 0.0, 1e-4, n_steps, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (n_steps + 1) <= 100.0, f"{peak / (n_steps + 1):.0f} B per sample"


def test_full_kernel_memory_stays_bounded_at_a_large_stride(game3_published, topology3,
                                                           tuning3):
    # Three recording blocks of 16 tone-table fills each: the tones of one
    # block alone take more than 400 KB as a table, so the kernel must fill
    # one table in place as it goes.
    stride = 16 * dynamics._TONE_CHUNK
    kernel = dynamics._full_kernel(game3_published, topology3, tuning3.scaled(0.1), False)
    init = default_initial(game3_published, topology3)
    y0 = np.concatenate([init.u, init.delta])
    dynamics._run_kernel(kernel, y0, 0.0, 1e-4, stride, stride)   # compile outside the trace
    tracemalloc.start()
    try:
        times, _ = dynamics._run_kernel(kernel, y0, 0.0, 1e-4, 3 * stride, stride)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(times) == 4
    assert peak < 300_000, f"{peak} B"


@pytest.mark.parametrize("model, topology", [
    ("boundary", DeceptionTopology(deceivers=(0,), victims=((1, 2),))),
    ("averaged", DeceptionTopology(deceivers=(), victims=())),
])
def test_affine_fields_hold_no_cubic_tensor(model, topology):
    # The affine fields are (c, A): a 200-firm run holds a few (n + 1)^2
    # matrices, far below the 64 MB of an (n, n, n) tensor.
    rng = np.random.default_rng(200)
    game = market_game(OligopolyParams(*oracles.random_market(rng, 200, 200)))
    tuning = NESTuning(amplitude=np.full(200, 0.05), gain=rng.uniform(0.01, 0.2, 200),
                       omega=1.0, omega_ratio=range(1, 201))
    initial = default_initial(game, topology)   # a pure-Python gate, slow under the trace
    tracemalloc.start()
    try:
        traj = simulate(model, game, topology, tuning, initial, horizon=1.0, stride=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(traj.u).all()
    assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("route", ["full", "averaged", "reduced",
                                   "full-numpy", "averaged-numpy", "reduced-numpy"])
def test_freeze_delta_holds_gain_constant(game3_published, topology3,
                                          tuning3, route):
    # on the generated kernels, and on the numpy fields that step a game
    # without the sales form; the averaged run spans tau = 20
    model, _, kind = route.partition("-")
    game = _without_sales_form(game3_published) if kind else game3_published
    tun = tuning3.scaled(0.1)
    init = SimState(t=0.0, u=game.nash_equilibrium(), delta=np.array([2.486]))
    traj = simulate(model, game, topology3, tun, initial=init,
                    horizon=20.0 / tun.omega if model == "averaged" else 0.2,
                    stride=8, freeze_delta=True)
    assert len(traj.times) > 2 and np.all(traj.delta == 2.486)


def test_numpy_averaged_field_holds_no_cubic_tensor():
    # A 200-firm game without the sales form, with a deceiver, takes the
    # numpy averaged field: its rhs and a 100-step run hold a few n^2
    # arrays, far below the 66 MB of one dense (n + 1)^3 array.
    rng = np.random.default_rng(200)
    game = market_game(OligopolyParams(*oracles.random_market(rng, 200, 200)))
    game = _without_sales_form(game)
    assert game.sales_form is None
    topology = DeceptionTopology((0,), ((1, 2),), eps=1e-4)
    tuning = NESTuning(amplitude=np.full(200, 0.05), gain=rng.uniform(0.01, 0.2, 200),
                       omega=1.0, omega_ratio=range(1, 201))
    initial = SimState(t=0.0, u=default_initial(game, topology).u, delta=np.array([0.5]))
    runs = [lambda: rhs("averaged", game, topology, tuning, initial),
            lambda: simulate("averaged", game, topology, tuning, initial, horizon=5.0,
                             stride=8, dt=0.05).u]
    for run in runs:
        tracemalloc.start()
        try:
            out = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(out).all()
        assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"


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


def _per_cell_csv(traj) -> bytes:
    """The bytes ``write_csv`` must give: ``format(v, ".12g")`` per cell."""
    players = range(1, traj.u.shape[1] + 1)
    header = ["t", *(f"u_{i}" for i in players),
              *(f"delta_{z + 1}" for z in traj.meta.deceivers),
              *(f"{c}_{i}" for c in "xJP" for i in players)]
    rows = np.column_stack([traj.times, traj.u, traj.delta, traj.x, traj.costs, traj.profits])
    lines = [",".join(header), *(",".join(format(v, ".12g") for v in row)
                                 for row in rows.tolist())]
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("model", MODEL_KINDS)
def test_write_csv_of_every_model_matches_per_cell_formatting(tmp_path, game3_published,
                                                              topology3, tuning3, model):
    # Each model's run takes the block reuse its arrays allow: x = u on the
    # dither-free models (not on full), P = -J on every model, and a
    # constant delta on boundary.
    init = SimState(t=0.0, u=game3_published.nash_equilibrium() + 0.5, delta=np.array([1.0]))
    horizon = {"full": 0.05, "averaged": 2000.0, "reduced": 2e4, "boundary": 200.0}[model]
    traj = simulate(model, game3_published, topology3, tuning3.scaled(0.1), initial=init,
                    horizon=horizon, stride=8 if model == "full" else 1)
    assert np.array_equal(traj.x, traj.u) == (model != "full")
    assert np.array_equal(traj.delta, np.tile(traj.delta[0], (len(traj.times), 1))) \
        == (model == "boundary")
    path = tmp_path / "trajectory.csv"
    traj.write_csv(path)
    assert path.read_bytes() == _per_cell_csv(traj)


@pytest.mark.parametrize("case", ["signed-zero", "nan-inf", "no-deceivers", "one-row",
                                  "flipped-zero"])
def test_write_csv_reuses_blocks_only_where_the_bytes_stay(tmp_path, case):
    # Hand-built records with x = u and P = -J bit for bit: signed zeros
    # and a constant delta take the reused strings, NaN and infinite costs
    # the per-block fallback (%.12g prints nan for either sign), and a
    # record with no deceivers or one row has no delta column or one row.
    # Where P holds 0.0 for a cost of 0.0, P is not -J and is formatted.
    rng = np.random.default_rng(67)
    m = 1 if case == "one-row" else 6
    u = rng.uniform(-50.0, 50.0, size=(m, 3))
    costs = rng.uniform(-2000.0, 2000.0, size=(m, 3)) * 10.0 ** rng.integers(-8, 9, size=(m, 3))
    costs[0, :2] = [0.0, -0.0]
    if case == "nan-inf":
        costs[1:4, 1] = [np.nan, np.inf, -np.inf]
    profits = -costs
    if case == "flipped-zero":
        profits[0, :2] = [0.0, 0.0]
    k = 0 if case == "no-deceivers" else 2
    delta = np.tile([-0.0, 2.5], (m, 1))[:, :k]
    meta = dynamics.TrajectoryMeta(model="averaged", time_axis="tau", to_physical=1.0, dt=0.1,
                                   stride=1, common_period=1.0, deceivers=(0, 2)[:k])
    traj = dynamics.Trajectory(times=0.1 * np.arange(m), u=u, delta=delta, x=u.copy(),
                               costs=costs, profits=profits, meta=meta)
    path = tmp_path / "trajectory.csv"
    traj.write_csv(path)
    assert path.read_bytes() == _per_cell_csv(traj)
    text = path.read_text()
    assert text.count("\n") == m + 1 and ("delta" in text) == bool(k)


def test_reduced_prices_closed_form_matches_solve_stack():
    # simulate rebuilds the reduced model's prices h(delta) from the
    # recorded gains by the kernel's Sherman-Morrison form and screen.
    # Random markets with 1-3 deceivers: on random gains it equals the
    # gated solve_stack to 1e-12 relative.  Gains beside a pole (a root of
    # det Qbar along a random direction) whose cond_inf(Qbar) is 5e12 or
    # more cannot pass the screen: they take solve_stack, bit for bit, and
    # keep its NaN rows where the gate fails; the others stay within
    # cond * 1e-15.
    rng = np.random.default_rng(73)
    deceivers, nan_rows, fallback = set(), 0, 0
    for _ in range(40):
        r, m, sd = oracles.random_market(rng, n_min=3, n_max=7)
        game = build_quadratic_game(OligopolyParams(r, m, sd))
        topo = DeceptionTopology(*oracles.random_topology(rng, game.n_players), eps=1e-3)
        deceivers.add(topo.n_deceivers)
        basis = dynamics._pseudogradient_basis(game, topo)
        w = rng.standard_normal(topo.n_deceivers)
        mu = np.linalg.eigvals(np.linalg.solve(game.pseudogradient_matrix,
                                               np.diag(w @ basis[0])))
        poles = [-1.0 / x.real for x in mu if x.imag == 0.0 and x.real != 0.0]
        near = [p * (1.0 + e) * w for p in poles
                for e in (0.0, 1e-16, -1e-16, 4e-16, -4e-16, 1e-14, -1e-13, 1e-10, 1e-7)]
        far = rng.uniform(-2.0, 2.0, size=(30, topo.n_deceivers))
        d = np.vstack([far, *near]) if near else far
        got = deception._quasi_equilibria(game, topo, d, basis)
        ev = dynamics._Evaluation(game, topo, d, basis=basis)
        want, cond = ev.h, np.linalg.cond(ev.pert.qbar, np.inf)
        screened = ~(cond < 5e12)
        assert np.array_equal(got[screened], want[screened], equal_nan=True)
        nan_rows += int(np.isnan(want).any(axis=1).sum())
        fallback += int(screened.sum())
        kept = ~screened
        err = np.zeros(len(d))
        err[kept] = np.max(np.abs(got[kept] - want[kept]), axis=1) \
            / np.max(np.abs(want[kept]), axis=1)
        assert np.all(err[:len(far)] <= 1e-12), err[:len(far)].max()
        assert np.all(err <= np.maximum(1e-12, 1e-15 * cond)), err.max()
    assert deceivers == {1, 2, 3} and nan_rows >= 20 and fallback > nan_rows

"""Perturbed pseudogradient, stability set, attainability machinery."""

from __future__ import annotations

import functools
import warnings

import numpy as np
import pytest

from deceptive_nes import (
    DeceptionTopology,
    OligopolyParams,
    build_quadratic_game,
    cost_gaps,
    deceptive_equilibrium,
    in_stability_set,
    is_hurwitz,
    lambda_matrix,
    matching_field,
    market_game,
    perturbed_pseudogradient,
    solve_attainability,
)
from deceptive_nes.deception import AttainabilitySearch

import oracles

# Frozen from the independent oracle route (numpy.linalg on the transcribed
# model): single deceiver (firm 1) targeting firm 3 with profit goal 1200
# on the published-curvature game.
DELTA_STAR = 2.48551847289606
U_STAR = np.array([53.1953465787414, 61.345902243272164, 62.04578407795083])
LAMBDA_STAR = -189.9640967531153
Q33_COEFF = 0.33796470146451374   # d Qbar[2,2] / d delta (sign flipped)
B3_COEFF = 10.13894104393541      # d Bbar[2] / d delta
SINGULAR_DELTA = 5.631716138867322
GAINS = np.array([0.02, 0.019, 0.22])


# ── topology validation ──────────────────────────────────────────────────────

def test_topology_rejects_self_victim():
    with pytest.raises(ValueError):
        DeceptionTopology(deceivers=(0,), victims=((0, 1),))


def test_topology_rejects_duplicate_deceiver():
    with pytest.raises(ValueError):
        DeceptionTopology(deceivers=(0, 0), victims=((1,), (2,)))


def test_topology_rejects_duplicate_victim():
    with pytest.raises(ValueError):
        DeceptionTopology(deceivers=(0,), victims=((1, 1),))


def test_topology_rejects_empty_victims():
    with pytest.raises(ValueError):
        DeceptionTopology(deceivers=(0,), victims=((),))


@pytest.mark.parametrize("field, value", [
    ("eps", float("inf")), ("eps_rates", (float("nan"),)),
    ("cost_refs", (float("nan"),)), ("cost_refs", (-float("inf"),)),
])
def test_topology_rejects_non_finite(field, value):
    with pytest.raises(ValueError):
        DeceptionTopology(deceivers=(0,), victims=((1,),), **{field: value})


def test_topology_bounds_check(topology3):
    topology3.validate_against(3)
    with pytest.raises(ValueError):
        topology3.validate_against(2)


def test_attacker_positions(topology3):
    pos = topology3.attacker_positions(3)
    assert pos == ((), (), (0,)), f"positions {pos}"


def test_injection_tensor_marks_each_victim_once():
    topo = DeceptionTopology(deceivers=(3, 0), victims=((1, 2), (2,)))
    expected = np.zeros((2, 4, 4))
    expected[0, 3, [1, 2]] = 1.0
    expected[1, 0, 2] = 1.0
    assert np.array_equal(topo.injection(4), expected)
    assert topo.attacker_positions(4) == ((), (0,), (0, 1), ())
    assert DeceptionTopology((), ()).injection(3).shape == (0, 3, 3)
    with pytest.raises(ValueError):
        topo.injection(3)


# ── perturbed pseudogradient ─────────────────────────────────────────────────

def test_perturbation_only_moves_own_diagonal(game3_published, topology3):
    base_q = game3_published.pseudogradient_matrix
    base_b = game3_published.pseudogradient_offset
    pert = perturbed_pseudogradient(game3_published, topology3,
                                    np.array([1.7]))
    dq = pert.qbar - base_q
    db = pert.bbar - base_b
    mask = np.zeros((3, 3), dtype=bool)
    mask[2, 2] = True
    assert np.max(np.abs(dq[~mask])) == 0.0, "off-target entries moved"
    assert dq[2, 2] != 0.0
    assert db[0] == 0.0 and db[1] == 0.0 and db[2] != 0.0


def test_perturbation_linear_coefficients(game3_published, topology3):
    p0 = perturbed_pseudogradient(game3_published, topology3, np.array([0.0]))
    p1 = perturbed_pseudogradient(game3_published, topology3, np.array([1.0]))
    slope_q = p1.qbar[2, 2] - p0.qbar[2, 2]
    slope_b = p1.bbar[2] - p0.bbar[2]
    assert abs(slope_q + Q33_COEFF) < 1e-13, f"Qbar slope {slope_q}"
    assert abs(slope_b - B3_COEFF) < 1e-12, f"Bbar slope {slope_b}"


def test_perturbation_matches_oracle_random():
    rng = np.random.default_rng(21)
    for _ in range(40):
        r, m, sd = oracles.random_market(rng)
        game = build_quadratic_game(OligopolyParams(r, m, sd))
        n = game.n_players
        deceivers, victims = oracles.random_topology(rng, n)
        topo = DeceptionTopology(deceivers=deceivers, victims=victims)
        delta = rng.uniform(-2.0, 2.0, size=len(deceivers))
        pert = perturbed_pseudogradient(game, topo, delta)
        qq, bb = oracles.pseudogradient_blocks(game.q, game.b)
        qbar, bbar = oracles.perturbed_blocks(
            game.q, game.b, qq, bb, deceivers, victims, delta)
        assert np.max(np.abs(pert.qbar - qbar)) < 1e-12
        assert np.max(np.abs(pert.bbar - bbar)) < 1e-10


def test_stacked_perturbation_and_costs_match_oracle_rows():
    # A leading axis of gains gives one (Qbar, Bbar) per row, and costs of
    # stacked prices give one cost vector per row.
    rng = np.random.default_rng(23)
    for _ in range(10):
        r, m, sd = oracles.random_market(rng)
        game = build_quadratic_game(OligopolyParams(r, m, sd))
        n = game.n_players
        deceivers, victims = oracles.random_topology(rng, n)
        topo = DeceptionTopology(deceivers=deceivers, victims=victims)
        deltas = rng.uniform(-2.0, 2.0, size=(5, len(deceivers)))
        pert = perturbed_pseudogradient(game, topo, deltas)
        qq, bb = oracles.pseudogradient_blocks(game.q, game.b)
        x = rng.uniform(0.0, 100.0, size=(5, n))
        costs = game.costs(x)
        assert pert.qbar.shape == (5, n, n) and costs.shape == (5, n)
        for i, d in enumerate(deltas):
            qbar, bbar = oracles.perturbed_blocks(
                game.q, game.b, qq, bb, deceivers, victims, d)
            assert np.max(np.abs(pert.qbar[i] - qbar)) < 1e-12
            assert np.max(np.abs(pert.bbar[i] - bbar)) < 1e-10
            ref = [oracles.quadratic_cost(game.q[p], game.b[p], game.c[p], x[i])
                   for p in range(n)]
            assert np.allclose(costs[i], ref, rtol=1e-12, atol=1e-9)


def test_deceptive_equilibrium_matches_numpy(game3_published, topology3):
    rng = np.random.default_rng(22)
    for _ in range(20):
        delta = np.array([rng.uniform(-0.9, 3.0)])
        pert = perturbed_pseudogradient(game3_published, topology3, delta)
        h = deceptive_equilibrium(game3_published, topology3, delta)
        ref = oracles.np_solve(pert.qbar, -pert.bbar)
        assert np.max(np.abs(h - ref)) < 1e-9 * (1 + np.max(np.abs(ref)))


def test_zero_delta_recovers_nash(game3_published, topology3):
    h = deceptive_equilibrium(game3_published, topology3, np.array([0.0]))
    assert np.allclose(h, game3_published.nash_equilibrium(), atol=1e-12)


# ── stability set ────────────────────────────────────────────────────────────

def test_hurwitz_helper():
    assert is_hurwitz(np.diag([-1.0, -2.0]))
    assert not is_hurwitz(np.diag([-1.0, 1e-4]))
    assert is_hurwitz(np.zeros((0, 0))), "empty matrix is vacuously Hurwitz"


def test_stability_membership_three_firm(game3_published, topology3):
    # The membership boundary sits just above delta = 5.63 for this market.
    for d, expected in [(0.0, True), (2.486, True), (5.0, True),
                        (6.0, False), (7.0, False)]:
        pert = perturbed_pseudogradient(game3_published, topology3,
                                        np.array([d]))
        got = in_stability_set(pert, GAINS)
        assert got is expected, f"delta={d}: in_delta={got}"


def test_stability_boundary_brackets_singular_point(game3_published,
                                                    topology3):
    lo = perturbed_pseudogradient(game3_published, topology3,
                                  np.array([SINGULAR_DELTA - 1e-3]))
    hi = perturbed_pseudogradient(game3_published, topology3,
                                  np.array([SINGULAR_DELTA + 1e-3]))
    assert in_stability_set(lo, GAINS)
    assert not in_stability_set(hi, GAINS)


def test_unit_ball_always_stable_quick():
    # ‖δ‖∞ < 1 keeps every valid market stable regardless of the positive
    # gains (the acceptance suite runs the full 500-instance version).
    rng = np.random.default_rng(23)
    for _ in range(60):
        r, m, sd = oracles.random_market(rng)
        game = build_quadratic_game(OligopolyParams(r, m, sd))
        n = game.n_players
        deceivers, victims = oracles.random_topology(rng, n)
        topo = DeceptionTopology(deceivers=deceivers, victims=victims)
        delta = rng.uniform(-1.0, 1.0, size=len(deceivers)) * 0.999
        gains = rng.uniform(1e-6, 10.0, size=n)
        pert = perturbed_pseudogradient(game, topo, delta)
        assert in_stability_set(pert, gains), (
            f"lost stability inside the unit ball: R={r}, delta={delta}"
        )


# ── matching field and sensitivity ───────────────────────────────────────────

def test_cost_gaps_and_matching_field(game3_published, topology3):
    gaps = cost_gaps(game3_published, topology3, np.array([DELTA_STAR]))
    assert np.max(np.abs(gaps)) < 1e-6, f"gap at delta* is {gaps}"
    field = matching_field(game3_published, topology3, np.array([0.0]))
    # At delta = 0 the deceiver sits at the Nash cost, far above target.
    assert field[0] > 0.0


def test_lambda_matrix_frozen(game3_published, topology3):
    lam = lambda_matrix(game3_published, topology3, np.array([DELTA_STAR]))
    assert lam.shape == (1, 1)
    assert abs(lam[0, 0] - LAMBDA_STAR) < 1e-3, f"Lambda {lam[0, 0]}"


def test_lambda_matrix_orientation_two_deceivers(game3_published):
    # lam[j, k] = d xi_k / d delta_j; check each entry against a one-sided
    # numpy-backed difference of the matching field.
    topo = DeceptionTopology(deceivers=(0, 1), victims=((2,), (2,)),
                             cost_refs=(-1200.0, -1400.0))
    delta = np.array([0.6, -0.4])
    lam = lambda_matrix(game3_published, topo, delta)
    assert lam.shape == (2, 2)

    def field(d):
        qq, bb = oracles.pseudogradient_blocks(game3_published.q,
                                               game3_published.b)
        qbar, bbar = oracles.perturbed_blocks(
            game3_published.q, game3_published.b, qq, bb,
            topo.deceivers, topo.victims, d)
        h = oracles.np_solve(qbar, -bbar)
        j = np.array([game3_published.cost(z, h) for z in topo.deceivers])
        return j - np.array(topo.cost_refs)

    step = 1e-6
    for jj in range(2):
        bumped = delta.copy()
        bumped[jj] += step
        fd = (field(bumped) - field(delta)) / step
        assert np.max(np.abs(lam[jj, :] - fd)) < 1e-2 * (
            1 + np.max(np.abs(fd))), f"row {jj}: {lam[jj, :]} vs {fd}"


def test_lambda_matrix_warns_near_singularity(game3_published, topology3):
    with pytest.warns(RuntimeWarning):
        lambda_matrix(game3_published, topology3,
                      np.array([SINGULAR_DELTA + 1e-11]))


def test_lambda_matrix_matches_oracle_differences():
    # The exact Lambda against Richardson-extrapolated central differences
    # of rate_k * J_{z_k}(h) along the oracle route, on random markets with
    # several deceivers and victims.  A point counts only where Qbar is
    # well conditioned and the two difference steps agree (the reference
    # resolves the derivative there).
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(150):
        r, m, sd = oracles.random_market(rng, n_min=3)
        deceivers, victims = oracles.random_topology(rng, r.size)
        k = len(deceivers)
        rates = rng.uniform(0.5, 2.0, size=k)
        refs = rng.uniform(-2000.0, 0.0, size=k)
        delta = rng.uniform(-3.0, 3.0, size=k)
        q, b, c = oracles.quadratic_blocks(r, m, sd)
        qq, bb = oracles.pseudogradient_blocks(q, b)

        def weighted_costs(d):
            qbar, bbar = oracles.perturbed_blocks(q, b, qq, bb, deceivers, victims, d)
            h = oracles.np_solve(qbar, -bbar)
            return rates * np.array(
                [oracles.quadratic_cost(q[z], b[z], c[z], h) for z in deceivers])

        def central(j, rel):
            e = np.zeros(k)
            e[j] = rel * (1.0 + abs(delta[j]))
            return (weighted_costs(delta + e) - weighted_costs(delta - e)) / (2.0 * e[j])

        qbar, _ = oracles.perturbed_blocks(q, b, qq, bb, deceivers, victims, delta)
        coarse = np.array([central(j, 1e-4) for j in range(k)])
        fine = np.array([central(j, 5e-5) for j in range(k)])
        scale = np.max(np.abs(fine))
        if np.linalg.cond(qbar, np.inf) > 1e6 or \
                np.max(np.abs(fine - coarse)) > 1e-4 * scale:
            continue
        topo = DeceptionTopology(deceivers=deceivers, victims=victims,
                                 eps_rates=tuple(rates), cost_refs=tuple(refs))
        lam = lambda_matrix(build_quadratic_game(OligopolyParams(r, m, sd)),
                            topo, delta)
        reference = (4.0 * fine - coarse) / 3.0
        assert np.max(np.abs(lam - reference)) <= 1e-6 * scale, (
            f"R={r}, deceivers={deceivers}, victims={victims}, delta={delta}: "
            f"{lam} vs {reference}"
        )
        checked += 1
    assert checked >= 140, f"only {checked} of 150 points checked"


# ── attainability ────────────────────────────────────────────────────────────

def _oracle_matching(q, b, c, z, vs, ref, d):
    """``(gap det(Qbar)^2, det Qbar)`` at the real gain ``d`` on the oracle route."""
    qq, bb = oracles.pseudogradient_blocks(q, b)
    qbar, bbar = oracles.perturbed_blocks(q, b, qq, bb, (z,), (vs,), [d])
    det = np.linalg.det(qbar)
    h = oracles.np_solve(qbar, -bbar)
    return (oracles.quadratic_cost(q[z], b[z], c[z], h) - ref) * det ** 2, det


@pytest.mark.parametrize("case", ["study beside its pole", "one victim", "three victims"])
def test_matching_polynomials_match_the_oracle_inside_the_disc(game3_published, case):
    # F = gap det^2 and D = det Qbar from their coefficients, against the
    # oracle route at real gains inside each disc (stacked discs in one
    # call).  The study's disc reaches the pole, where D vanishes.
    from deceptive_nes.deception import _matching_polynomials, _pseudogradient_basis

    if case == "study beside its pole":
        game, z, vs, ref = game3_published, 0, (2,), -1200.0
        centre, radius = np.array([5.0, 0.0]), np.array([SINGULAR_DELTA - 5.0, 3.0])
    else:
        rng = np.random.default_rng(47 if case == "one victim" else 53)
        r, m, sd = oracles.random_market(rng, 5, 5)
        game = build_quadratic_game(OligopolyParams(r, m, sd))
        z, vs, ref = 1, ((3,) if case == "one victim" else (0, 2, 4)), -300.0
        centre, radius = np.array([-2.0, 4.0, 0.5]), np.array([3.0, 1.5, 8.0])
    topo = DeceptionTopology(deceivers=(z,), victims=(vs,), cost_refs=(ref,))
    f, e = _matching_polynomials(game, topo, _pseudogradient_basis(game, topo), ref, centre,
                                 radius)
    assert f.shape == (len(centre), 2 * len(vs) + 1) and e.shape == (len(centre), len(vs) + 1)
    poly = np.polynomial.polynomial
    for fj, ej, o, rad in zip(f, e, centre, radius):
        for x in np.linspace(-1.0, 1.0, 41):
            want_f, want_d = _oracle_matching(game.q, game.b, game.c, z, vs, ref, o + rad * x)
            assert abs(poly.polyval(x, ej) - want_d) <= 1e-13 * np.sum(np.abs(ej)), (o, x)
            assert abs(poly.polyval(x, fj) - want_f) <= 1e-13 * np.sum(np.abs(fj)), (o, x)
    if case == "study beside its pole":
        assert abs(poly.polyval(1.0, e[0])) <= 1e-13 * np.sum(np.abs(e[0]))


def test_attainability_three_firm_frozen(game3_published, topology3):
    res = solve_attainability(game3_published, topology3, gains=GAINS)
    assert res.attainable
    assert res.in_stability
    assert abs(res.delta_star[0] - DELTA_STAR) < 1e-6
    assert np.max(np.abs(res.u_star - U_STAR)) < 1e-6
    assert abs(res.lambda_mat[0, 0] - LAMBDA_STAR) < 1e-2
    assert res.residual < 1e-6


def test_attainability_polish_stops_at_the_rounding_floor(game3_published, topology3,
                                                          monkeypatch):
    # The polynomial root of the study is within rounding of delta*: one
    # Newton step polishes it, and steps of rounding noise after it are not
    # taken.  Lambda is computed at the estimate and at the polished root.
    import deceptive_nes.deception as deception
    lam = deception._Evaluation.lam.func
    points = []

    def counting(self):
        points.append(float(self.pert.delta[0]))
        return lam(self)

    spy = functools.cached_property(counting)
    spy.__set_name__(deception._Evaluation, "lam")
    monkeypatch.setattr(deception._Evaluation, "lam", spy)
    res = solve_attainability(game3_published, topology3, gains=GAINS)
    assert res.attainable and abs(res.delta_star[0] - DELTA_STAR) < 1e-6
    assert len(points) <= 2, points


def test_attainability_faithful_game_differs(game3, topology3):
    # Without the published curvature override the same reference is still
    # attainable, at a much smaller gain.
    res = solve_attainability(game3, topology3, gains=GAINS)
    assert res.attainable
    assert abs(res.delta_star[0] - 1.0871802719240788) < 1e-6


def test_attainability_unreachable_reference(game3_published):
    # A loss the deceiver never makes: its cost stays negative over the
    # whole window, so the search must come back empty-handed, not invent
    # a root.
    topo = DeceptionTopology(deceivers=(0,), victims=((2,),),
                             cost_refs=(1e9,))
    res = solve_attainability(game3_published, topo, gains=GAINS)
    assert not res.attainable
    assert res.message != ""
    assert res.residual > 0.0


def test_attainability_closest_approach_is_least_gap_over_the_window(game3_published):
    # Without a real root the result is where |gap| is least over the
    # window: a stationary point of the gap or a window end.  A dense scan
    # on the oracle route puts the least |gap| at 1e9 - max J_1, with J_1
    # within 1e-6 of zero, far below the 185 a coarse interpolation node
    # is off by.
    topo = DeceptionTopology(deceivers=(0,), victims=((2,),), cost_refs=(1e9,))
    res = solve_attainability(game3_published, topo, gains=GAINS)
    assert "no real root" in res.message and not res.attainable
    q, b = game3_published.q, game3_published.b
    qq, bb = oracles.pseudogradient_blocks(q, b)
    best = -np.inf
    for d in np.linspace(-10.0, 10.0, 20001):
        qbar, bbar = oracles.perturbed_blocks(q, b, qq, bb, (0,), ((2,),), [d])
        h = oracles.np_solve(qbar, -bbar)
        best = max(best, oracles.quadratic_cost(q[0], b[0], game3_published.c[0], h))
    assert -1e-6 < best < 0.0, best
    assert res.residual <= 1e9 - best + 1e-6, (res.residual, best)
    assert abs(res.delta_star[0] - 6.675) < 5e-3, res.delta_star


def test_attainability_finds_root_beside_a_pole(game3_published):
    # A profit of 1e9 is reached next to the pole of the cost at the
    # singular gain, inside the stability set; a coarse grid steps over it.
    topo = DeceptionTopology(deceivers=(0,), victims=((2,),),
                             cost_refs=(-1e9,))
    res = solve_attainability(game3_published, topo, gains=GAINS)
    assert res.attainable, res.message
    assert abs(res.delta_star[0] - 5.630857164238223) < 1e-9, res.delta_star
    assert 0.0 < SINGULAR_DELTA - res.delta_star[0] < 1e-3
    assert res.in_stability


def test_attainability_lists_a_tangential_root():
    # With a zero profit target the deceiver's cost, -k (x_z - m_z)^2 at
    # the quasi-equilibrium, only touches its reference where the
    # deceiver's price meets its marginal cost: a double root of the
    # matching field without a sign change.  It is found, and rejected
    # because Lambda vanishes there.
    r, m, sd = np.array([1.38, 1.56, 4.09]), np.array([4.6, 30.0, 36.4]), 38.4
    q, b, _ = oracles.quadratic_blocks(r, m, sd)
    qq, bb = oracles.pseudogradient_blocks(q, b)

    def margin(d):
        qbar, bbar = oracles.perturbed_blocks(q, b, qq, bb, (0,), ((2,),), [d])
        return oracles.np_solve(qbar, -bbar)[0] - m[0]

    lo, hi = 3.7, 3.85
    assert margin(lo) < 0.0 < margin(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if margin(mid) < 0.0 else (lo, mid)
    topo = DeceptionTopology(deceivers=(0,), victims=((2,),), cost_refs=(0.0,))
    res = solve_attainability(build_quadratic_game(OligopolyParams(r, m, sd)),
                              topo, gains=np.ones(3))
    assert not res.attainable
    assert abs(res.delta_star[0] - lo) < 1e-6, (res.delta_star, lo)
    assert res.residual <= 1e-8, res.residual
    assert res.message.startswith("no root qualifies") and \
        "sensitivity matrix not Hurwitz" in res.message, res.message


@pytest.mark.parametrize("field, value", [
    ("delta_max", np.inf), ("delta_max", np.nan), ("delta_max", -3.0), ("delta_max", 0.0),
    ("max_newton_iter", -5), ("max_newton_iter", 0),
])
def test_attainability_search_rejects_an_empty_or_unbounded_window(field, value):
    with pytest.raises(ValueError, match=f"{field}={value}"):
        AttainabilitySearch(**{field: value})


def test_attainability_respects_search_window(game3_published, topology3):
    search = AttainabilitySearch(delta_max=1.0)
    res = solve_attainability(game3_published, topology3, gains=GAINS,
                              search=search)
    assert not res.attainable, "root at 2.486 must not appear inside [-1, 1]"


def test_attainability_two_deceivers_newton(game3_published):
    # Two deceivers with distinct victims, references constructed to be
    # exactly realizable at delta = (0.8, 1.2): Newton must recover them.
    target = np.array([0.8, 1.2])
    probe = DeceptionTopology(deceivers=(0, 1), victims=((1,), (2,)))
    h_target = deceptive_equilibrium(game3_published, probe, target)
    refs = tuple(float(game3_published.cost(z, h_target)) for z in (0, 1))
    topo = DeceptionTopology(deceivers=(0, 1), victims=((1,), (2,)),
                             cost_refs=refs)
    res = solve_attainability(game3_published, topo, gains=GAINS)
    assert res.attainable, res.message
    assert res.in_stability
    assert np.max(np.abs(res.delta_star - target)) < 1e-4, (
        f"recovered {res.delta_star}, planted {target}"
    )
    assert is_hurwitz(res.lambda_mat)


def test_attainability_shared_victim_is_degenerate(game3_published):
    # Two deceivers aiming at the same victim act through the single scalar
    # delta_1/R_1 + delta_2/R_2, so two references cannot be controlled
    # independently: the solver must report failure, not a bogus root.
    topo = DeceptionTopology(deceivers=(0, 1), victims=((2,), (2,)),
                             cost_refs=(-1100.0, -1250.0))
    res = solve_attainability(game3_published, topo, gains=GAINS)
    assert not res.attainable
    assert "search failed" in res.message


def test_attainability_shared_victim_reports_singular_jacobian(game3_published):
    # The exact Jacobian of the shared-victim field has rank one, so Newton
    # stops at its first step instead of iterating to its limit.
    topo = DeceptionTopology(deceivers=(0, 1), victims=((2,), (2,)),
                             cost_refs=(-1100.0, -1250.0))
    res = solve_attainability(game3_published, topo, gains=GAINS)
    assert not res.attainable
    assert "search failed: singular Jacobian" in res.message, res.message


def test_attainability_failed_newton_returns_closest_approach(game3_published):
    topo = DeceptionTopology(deceivers=(0, 1), victims=((2,), (0,)),
                             cost_refs=(-1100.0, -1250.0))
    res = solve_attainability(game3_published, topo, gains=GAINS)
    assert not res.attainable
    assert "search failed" in res.message
    at_start = np.max(np.abs(cost_gaps(game3_published, topo, np.zeros(2))))
    assert res.residual < at_start, (
        f"residual {res.residual} at {res.delta_star}, {at_start} at delta = 0"
    )


def test_attainability_reports_every_rejected_root(game3_published):
    # Both sign changes refine to roots, and neither qualifies: the result
    # keeps the smaller one and names the causes of each.
    topo = DeceptionTopology(deceivers=(0,), victims=((2,),), cost_refs=(-300.0,))
    res = solve_attainability(game3_published, topo, gains=GAINS)
    assert not res.attainable
    assert abs(res.delta_star[0] - 6.2580189) < 1e-6
    assert "delta=6.2580189" in res.message and "delta=8.7535166" in res.message, \
        res.message
    assert res.message.count("outside stability set") == 2, res.message


def test_attainability_newton_stops_at_exhausted_line_search(monkeypatch):
    # Three deceivers with overlapping victims and no root: the search used
    # to creep on for 200 iterations (3913 field evaluations) after its line
    # search first found no decrease, without moving its closest approach.
    from deceptive_nes import numerics
    params = OligopolyParams(
        resistance=np.array([3.789484967511827, 2.802356604228619,
                             3.4921408585794587, 2.8879184954497212]),
        marginal_cost=np.array([44.442184568289264, 1.3780595587698397,
                                25.132910021160733, 4.7910387759840685]),
        total_demand=169.63533491988935)
    topo = DeceptionTopology(
        deceivers=(1, 3, 2), victims=((0,), (0, 2), (0, 3)), eps=1e-4,
        cost_refs=(-9112.900122884716, -11036.883961594964, -7764.691249105232))
    calls = []
    newton = numerics.newton_system

    def counting(f, jac, x0, **kwargs):
        return newton(lambda x: calls.append(1) or f(x), jac, x0, **kwargs)

    monkeypatch.setattr(numerics, "newton_system", counting)
    res = solve_attainability(market_game(params), topo, gains=np.array(
        [6.380295755555501, 6.697973671338105, 6.408476035218095, 6.717561573236357]))
    assert not res.attainable and res.message.startswith("search failed"), res.message
    closest = [4.823188781738281, -1.547798772807847, -1.2092395220045884]
    assert np.allclose(res.delta_star, closest, rtol=1e-12, atol=0.0), res.delta_star
    assert abs(res.residual - 1266.098746450176) <= 1e-12 * 1266.1
    assert len(calls) <= 200, f"{len(calls)} field evaluations"


@pytest.mark.parametrize("deceivers, victims, refs", [
    ((0,), ((2,),), (-1200.0,)),
    ((0, 1), ((1,), (2,)), (-1300.0, -1400.0)),
])
def test_attainability_evaluates_each_delta_through_one_route(
        game3_published, monkeypatch, deceivers, victims, refs):
    # Candidate assessment and the Newton callbacks share one evaluation per
    # delta; none of them goes back through the one-shot public functions.
    import deceptive_nes.deception as deception

    def refuse(*args, **kwargs):
        raise AssertionError("solve_attainability called a one-shot function")

    for name in ("perturbed_pseudogradient", "deceptive_equilibrium",
                 "cost_gaps", "matching_field", "lambda_matrix"):
        monkeypatch.setattr(deception, name, refuse)
    topo = DeceptionTopology(deceivers=deceivers, victims=victims, cost_refs=refs)
    res = solve_attainability(game3_published, topo, gains=GAINS)
    assert res.lambda_mat.shape == (len(deceivers),) * 2


def test_attainability_defaults_pull_refs_from_topology(game3_published,
                                                        topology3):
    # cost_refs live on the topology; passing them explicitly must agree.
    a = solve_attainability(game3_published, topology3, gains=GAINS)
    b = solve_attainability(game3_published, topology3,
                            cost_refs=np.array([-1200.0]), gains=GAINS)
    assert np.allclose(a.delta_star, b.delta_star, atol=1e-12)


@pytest.mark.parametrize("planted", [0.7, 1.5, -0.4])
def test_attainability_one_deceiver_two_victims(params3, game3, planted):
    # Firm 1 deceives firms 2 and 3 at once.  The reference is firm 1's cost
    # at the deceived equilibrium of the planted gain, computed through the
    # oracle route; the scan must recover the planted gain.
    q, b, c = oracles.quadratic_blocks(params3.resistance,
                                       params3.marginal_cost,
                                       params3.total_demand)
    qq, bb = oracles.pseudogradient_blocks(q, b)
    qbar, bbar = oracles.perturbed_blocks(q, b, qq, bb, (0,), ((1, 2),),
                                          [planted])
    h = oracles.np_solve(qbar, -bbar)
    ref = float(oracles.quadratic_cost(q[0], b[0], c[0], h))
    topo = DeceptionTopology(deceivers=(0,), victims=((1, 2),),
                             cost_refs=(ref,))
    res = solve_attainability(game3, topo, gains=GAINS)
    assert res.attainable, res.message
    assert abs(res.delta_star[0] - planted) < 1e-6, (
        f"recovered {res.delta_star}, planted {planted}"
    )
    assert np.max(np.abs(res.u_star - h)) < 1e-6


def _check_every_sign_change_is_found(monkeypatch, seed, markets, max_victims, windows):
    """Seeded markets with one deceiver and 1 to ``max_victims`` victims,
    the reference taken at a planted gain.  With every candidate rejected,
    the message lists all of them; each sign change of gap * det(Qbar)^2 on
    a dense oracle-route scan of every window ``[-dm, dm]`` of ``windows``
    (spacing 1e-3, or 20 001 points on a wider window) must lie within
    1e-6 of one.  Returns the number of sign changes per window."""
    import re
    import deceptive_nes.deception as deception

    monkeypatch.setattr(deception, "is_hurwitz", lambda m: False)
    rng = np.random.default_rng(seed)
    checked = dict.fromkeys(windows, 0)
    for _ in range(markets):
        r, m, sd = oracles.random_market(rng, 3, 6)
        n = len(r)
        z = int(rng.integers(n))
        others = [j for j in range(n) if j != z]
        vs = tuple(int(v) for v in rng.choice(
            others, size=int(rng.integers(1, min(max_victims, n - 1) + 1)), replace=False))
        q, b, c = oracles.quadratic_blocks(r, m, sd)
        qq, bb = oracles.pseudogradient_blocks(q, b)
        q1, b1 = oracles.perturbed_blocks(q, b, qq, bb, (z,), (vs,), [1.0])
        planted = rng.uniform(-8.0, 8.0)
        h = oracles.np_solve(qq + planted * (q1 - qq), -(bb + planted * (b1 - bb)))
        ref = float(oracles.quadratic_cost(q[z], b[z], c[z], h))

        def poly(d):
            qbar = qq + d[:, None, None] * (q1 - qq)
            hs = np.linalg.solve(qbar, -(bb + d[:, None] * (b1 - bb))[..., None])[..., 0]
            cost = 0.5 * np.einsum("mi,ij,mj->m", hs, q[z], hs) + hs @ b[z] + c[z]
            return (cost - ref) * np.linalg.det(qbar) ** 2

        topo = DeceptionTopology(deceivers=(z,), victims=(vs,), cost_refs=(ref,))
        game = build_quadratic_game(OligopolyParams(r, m, sd))
        for dm in windows:
            grid = np.linspace(-dm, dm, min(int(2000 * dm), 20_000) + 1)
            vals = poly(grid)
            cross = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
            lo, hi, flo = grid[cross], grid[cross + 1], vals[cross]
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                fmid = poly(mid)
                left = np.sign(fmid) == np.sign(flo)
                lo, flo, hi = np.where(left, mid, lo), np.where(left, fmid, flo), \
                    np.where(left, hi, mid)
            res = solve_attainability(game, topo, gains=np.ones(n),
                                      search=AttainabilitySearch(delta_max=dm))
            found = np.array([float(d) for d in re.findall(r"delta=(\S+) \(", res.message)])
            assert found.size or not (cross.size or abs(planted) <= dm), res.message
            for root in 0.5 * (lo + hi):
                assert np.min(np.abs(found - root)) <= 1e-6 * (1.0 + abs(root)), (
                    f"R={r}, m={m}, Sd={sd}, z={z}, victims={vs}, window {dm}: sign "
                    f"change at {root} not among {found}")
                checked[dm] += 1
    print(f"\n  sign changes checked per window: {checked}")
    return checked


def test_attainability_finds_every_sign_change_of_a_dense_scan(monkeypatch):
    checked = _check_every_sign_change_is_found(monkeypatch, 20251018, 40, 3, (10.0, 2.0, 50.0))
    assert checked[10.0] >= 100 and checked[2.0] >= 10 and checked[50.0] >= 70, checked


@pytest.mark.slow
@pytest.mark.parametrize("seed, markets, max_victims", [(20251019, 300, 3), (20251020, 200, 5)])
def test_attainability_finds_every_sign_change_on_many_markets(monkeypatch, seed, markets,
                                                               max_victims):
    checked = _check_every_sign_change_is_found(monkeypatch, seed, markets, max_victims, (10.0,))
    assert checked[10.0] >= 2 * markets, checked

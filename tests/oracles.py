"""Independent reference implementations used to cross-check the package.

Everything here is written from the model definitions directly — per-entry
loops, numpy.linalg for linear algebra, Simpson quadrature for period
averages — and deliberately shares no code with ``deceptive_nes``.  Tests
compare the two routes; do not "fix" a disagreement by making one call the
other.
"""

from __future__ import annotations

import numpy as np


# ── market model, written entry by entry ─────────────────────────────────────

def aggregates(resistance):
    """(R_parallel, leave-one-out R-bars) by the defining harmonic sums."""
    r = np.asarray(resistance, dtype=float)
    r_par = 1.0 / np.sum(1.0 / r)
    r_bar = np.array([1.0 / sum(1.0 / r[k] for k in range(r.size) if k != i)
                      for i in range(r.size)])
    return r_par, r_bar


def sales(resistance, total_demand, x):
    r = np.asarray(resistance, dtype=float)
    x = np.asarray(x, dtype=float)
    r_par, r_bar = aggregates(r)
    out = np.empty(r.size)
    for i in range(r.size):
        cross = sum(x[j] / r[j] for j in range(r.size) if j != i)
        out[i] = (r_par / r[i]) * (total_demand - x[i] / r_bar[i] + cross)
    return out


def direct_cost(resistance, marginal_cost, total_demand, x, i):
    """J_i(x) = -s_i(x) (x_i - m_i), straight from the definition."""
    s = sales(resistance, total_demand, x)
    return -s[i] * (x[i] - marginal_cost[i])


def quadratic_blocks(resistance, marginal_cost, total_demand):
    """Per-player (Q_i, b_i, c_i) with J_i = ½ xᵀQ_i x + b_iᵀx + c_i."""
    r = np.asarray(resistance, dtype=float)
    m = np.asarray(marginal_cost, dtype=float)
    n = r.size
    r_par, r_bar = aggregates(r)
    q = np.zeros((n, n, n))
    b = np.zeros((n, n))
    c = np.zeros(n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if j == k == i:
                    q[i, j, k] = 2.0 * r_par / (r[i] * r_bar[i])
                elif j != k and (j == i or k == i):
                    q[i, j, k] = -r_par / (r[j] * r[k])
        for k in range(n):
            if k == i:
                b[i, k] = -m[i] * r_par / (r[i] * r_bar[i]) \
                    - total_demand * r_par / r[i]
            else:
                b[i, k] = m[i] * r_par / (r[i] * r[k])
        c[i] = r_par * total_demand * m[i] / r[i]
    return q, b, c


def quadratic_cost(q_i, b_i, c_i, x):
    x = np.asarray(x, dtype=float)
    return 0.5 * x @ q_i @ x + b_i @ x + c_i


def pseudogradient_blocks(q, b):
    """Stack row i of Q_i and entry i of b_i into (script-Q, script-B)."""
    n = q.shape[0]
    qq = np.array([q[i, i, :] for i in range(n)])
    bb = np.array([b[i, i] for i in range(n)])
    return qq, bb


def perturbed_blocks(q, b, qq, bb, deceivers, victims, delta):
    """Q̄, B̄ by looping the definition: row z_k of Q_j scaled into row j."""
    qbar = qq.copy()
    bbar = bb.copy()
    for k, (z, vs) in enumerate(zip(deceivers, victims)):
        for j in vs:
            qbar[j, :] += delta[k] * q[j, z, :]
            bbar[j] += delta[k] * b[j, z]
    return qbar, bbar


# ── numpy.linalg as the linear-algebra oracle ────────────────────────────────

def np_solve(a, rhs):
    return np.linalg.solve(np.asarray(a, float), np.asarray(rhs, float))


def np_eigvals(a):
    return np.linalg.eigvals(np.asarray(a, dtype=complex))


def np_abscissa(a):
    return float(np.max(np.real(np_eigvals(a))))


def np_is_hurwitz(a):
    return np_abscissa(a) < 0.0


# ── probing offsets, by the definition ──────────────────────────────────────

def played_offset(amplitude, frequencies, deceivers, victims, delta, t):
    """μ(t): a_i sin(ω_i t) in every component i, plus, for each deceiver k,
    δ_k Σ_{j∈V_k} a_j sin(ω_j t) in component z_k."""
    a = np.asarray(amplitude, float)
    w = np.asarray(frequencies, float)
    mu = np.array([a[i] * np.sin(w[i] * t) for i in range(a.size)])
    for k, (z, vs) in enumerate(zip(deceivers, victims)):
        mu[z] += delta[k] * sum(a[j] * np.sin(w[j] * t) for j in vs)
    return mu


# ── period-average of the dither residual, by Simpson quadrature ────────────

def simpson_residual(q_rows, amplitude, frequencies, deceivers, victims,
                     delta, period, n_panels=4096):
    """⟨½ μ(t)ᵀ Q μ(t)⟩ over one common period, one value per matrix given.

    μ stacks a_m sin(ω_m t) plus, for each deceiver k, δ_k Σ_{j∈V_k}
    a_j sin(ω_j t) in component z_k.  ``q_rows`` holds the per-player cost
    Hessians of interest (normally the deceivers').  Quadrature over the
    period is the slow-but-independent route; the package computes the
    same average in closed form.
    """
    a = np.asarray(amplitude, float)
    w = np.asarray(frequencies, float)
    ts = np.linspace(0.0, period, 2 * n_panels + 1)
    vals = np.zeros((len(q_rows), ts.size))
    for s, t in enumerate(ts):
        mu = played_offset(a, w, deceivers, victims, delta, t)
        for i, qi in enumerate(q_rows):
            vals[i, s] = 0.5 * mu @ qi @ mu
    h = ts[1] - ts[0]
    weights = np.ones(ts.size)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return (h / 3.0) * (vals @ weights) / period


# ── randomized market instances for the property suites ─────────────────────

def random_market(rng, n_min=2, n_max=6):
    n = int(rng.integers(n_min, n_max + 1))
    resistance = rng.uniform(0.1, 5.0, size=n)
    marginal_cost = rng.uniform(0.0, 50.0, size=n)
    total_demand = rng.uniform(1.0, 200.0) + 1e-6
    return resistance, marginal_cost, total_demand


def random_topology(rng, n_players):
    """One or more deceivers, each with a nonempty set of other victims."""
    max_deceivers = min(3, n_players - 1)
    n_dec = int(rng.integers(1, max_deceivers + 1))
    deceivers = rng.choice(n_players, size=n_dec, replace=False)
    victims = []
    for z in deceivers:
        others = [j for j in range(n_players) if j != z]
        n_vic = int(rng.integers(1, len(others) + 1))
        victims.append(tuple(int(v) for v in
                             rng.choice(others, size=n_vic, replace=False)))
    return tuple(int(z) for z in deceivers), tuple(victims)

"""Independent reference computations that check the benchmark's outputs.

Everything here is written from the model definitions with numpy and
numpy.linalg only and imports nothing from ``deceptive_nes``, so a wrong
answer from the package cannot pass by agreeing with itself.
"""

from __future__ import annotations

import numpy as np


class WrongAnswer(Exception):
    """An operation's output failed its correctness check."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


class Market:
    """Pseudogradient blocks and costs of an oligopoly, from the definitions.

    ``own_curvature`` maps 0-based players to an overriding own-price
    curvature, as in scenario files.
    """

    def __init__(self, resistance, marginal_cost, total_demand, own_curvature=None):
        self.r = r = np.asarray(resistance, dtype=float)
        self.m = np.asarray(marginal_cost, dtype=float)
        self.sd = float(total_demand)
        inv = 1.0 / r
        self.rp = 1.0 / inv.sum()
        self.rbar = 1.0 / (inv.sum() - inv)
        natural = 2.0 * self.rp / (r * self.rbar)
        curv = natural.copy()
        for i, value in (own_curvature or {}).items():
            curv[i] = value
        self.curv_shift = curv - natural
        self.q0 = -self.rp / np.outer(r, r)
        np.fill_diagonal(self.q0, curv)
        self.b0 = -self.m * self.rp / (r * self.rbar) - self.sd * self.rp / r

    def perturbed(self, deceivers, victims, delta):
        """``(Qbar, Bbar)``: victim ``j`` of deceiver ``z`` sees its own-price
        curvature and offset shifted by ``delta`` times ``dJ_j/(dx_j dx_z)``
        and ``m_j Rp / (R_j R_z)``."""
        qbar, bbar = self.q0.copy(), self.b0.copy()
        for d, z, vs in zip(delta, deceivers, victims):
            for j in vs:
                scale = self.rp / (self.r[j] * self.r[z])
                qbar[j, j] -= d * scale
                bbar[j] += d * self.m[j] * scale
        return qbar, bbar

    def costs(self, x):
        """``J_i(x) = -s_i(x) (x_i - m_i)`` by the sales formula, for one price
        vector or a stack of them (last axis = players)."""
        x = np.asarray(x, dtype=float)
        cross = (x / self.r).sum(axis=-1, keepdims=True) - x / self.r
        sales = (self.rp / self.r) * (self.sd - x / self.rbar + cross)
        return -sales * (x - self.m) + 0.5 * self.curv_shift * x * x


def stationarity_error(q, b, x) -> float:
    """``||Q x + B||_inf`` relative to the size of its terms."""
    scale = np.max(np.abs(q)) * np.max(np.abs(x)) + np.max(np.abs(b))
    return float(np.max(np.abs(q @ x + b)) / (1.0 + scale))


def abscissa(a) -> float:
    return float(np.max(np.linalg.eigvals(np.asarray(a, dtype=float)).real))


def check_hurwitz_verdict(matrix, verdict: bool, what: str) -> None:
    """The package's Hurwitz verdict agrees with numpy outside a thin band
    around the margin the package applies."""
    a = abscissa(matrix)
    band = 1e-6 * (1.0 + float(np.max(np.sum(np.abs(matrix), axis=1))))
    if verdict:
        expect(a < 0.0, f"{what}: declared Hurwitz but abscissa is {a:.3e}")
    else:
        expect(a > -band, f"{what}: declared not Hurwitz but abscissa is {a:.3e}")


def full_model_reference(market, deceivers, victims, eps, rates, refs,
                         amplitude, gain, freqs, u0, d0, dt, n_steps, stride):
    """Classical RK4 on the dithered model, recording every ``stride`` steps.

    Returns ``(u, delta)`` sample arrays including the initial state.
    """
    amplitude = np.asarray(amplitude, dtype=float)
    k2a = 2.0 * np.asarray(gain, dtype=float) / amplitude
    z = list(deceivers)
    rates = np.asarray(rates, dtype=float)
    refs = np.asarray(refs, dtype=float)

    def f(t, u, d):
        s = np.sin(freqs * t)
        x = u + amplitude * s
        for k, vs in enumerate(victims):
            x[z[k]] += d[k] * sum(amplitude[l] * s[l] for l in vs)
        j = market.costs(x)
        return -k2a * j * s, eps * rates * (j[z] - refs)

    u, d = np.array(u0, dtype=float), np.array(d0, dtype=float)
    us, ds = [u.copy()], [d.copy()]
    for step in range(n_steps):
        t = step * dt
        du1, dd1 = f(t, u, d)
        du2, dd2 = f(t + 0.5 * dt, u + 0.5 * dt * du1, d + 0.5 * dt * dd1)
        du3, dd3 = f(t + 0.5 * dt, u + 0.5 * dt * du2, d + 0.5 * dt * dd2)
        du4, dd4 = f(t + dt, u + dt * du3, d + dt * dd3)
        u = u + dt / 6.0 * (du1 + 2.0 * (du2 + du3) + du4)
        d = d + dt / 6.0 * (dd1 + 2.0 * (dd2 + dd3) + dd4)
        if (step + 1) % stride == 0:
            us.append(u.copy())
            ds.append(d.copy())
    return np.array(us), np.array(ds)


def played_prices(amplitude, freqs, deceivers, victims, times, u, delta):
    """Instantaneous prices ``u + dither`` at physical ``times``."""
    s = np.sin(np.outer(times, freqs)) * np.asarray(amplitude, dtype=float)
    x = u + s
    for k, (z, vs) in enumerate(zip(deceivers, victims)):
        x[:, z] += delta[:, k] * s[:, list(vs)].sum(axis=1)
    return x


def close(a, b, rtol: float) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(
        np.all(np.abs(a - b) <= rtol * (1.0 + np.abs(b)))
    )


def is_finite(*arrays) -> bool:
    return all(bool(np.all(np.isfinite(np.asarray(a, dtype=float)))) for a in arrays)

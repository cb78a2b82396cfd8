"""Four dynamical models of sinusoidally probed Nash-equilibrium seeking.

Models
------
``full``
    The played system in physical time ``t``: every player probes with its
    own sinusoid, deceivers additionally re-inject their victims' sinusoids
    scaled by an adaptive gain ``delta``, and each learned action ``u_i``
    integrates the demodulated cost.
``averaged``
    Period-averaged dynamics on the axis ``tau = omega * t``: the dither is
    gone, the learned actions relax along the perturbed pseudogradient, and
    the ``delta`` adaptation sees the averaged cost plus the closed-form
    probing residual.
``reduced``
    Slow dynamics on ``tau_star = eps * omega * t``: the actions are slaved
    to the quasi-equilibrium ``h(delta)`` and only ``delta`` remains.
``boundary``
    Fast deviation dynamics ``ydot = -K Qbar(delta) y`` at frozen ``delta``
    in physical time, describing how action errors collapse onto the
    quasi-equilibrium.

``simulate`` accepts horizons in physical seconds for every model and
converts internally; trajectory metadata records the native axis and the
factor back to physical time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import numerics
from .deception import (
    DeceptionTopology,
    deceptive_equilibrium,
    perturbed_pseudogradient,
)
from .oligopoly import QuadraticGame

MODEL_KINDS = ("full", "averaged", "reduced", "boundary")


class DivergenceError(RuntimeError):
    """A simulated state stopped being finite."""

    def __init__(self, time: float, axis: str):
        self.time = float(time)
        self.axis = axis
        super().__init__(f"state diverged (non-finite) at {axis} = {time:.6g}")


@dataclass(frozen=True)
class NESTuning:
    """Per-player probing amplitudes, adaptation gains and frequencies.

    Frequencies are ``omega * omega_ratio[i]`` with exact rational ratios so
    that a common probing period exists and can be computed exactly.
    """

    amplitude: np.ndarray
    gain: np.ndarray
    omega: float
    omega_ratio: tuple[Fraction, ...]

    def __post_init__(self):
        a = np.asarray(self.amplitude, dtype=float)
        k = np.asarray(self.gain, dtype=float)
        ratios = tuple(Fraction(r) for r in self.omega_ratio)
        object.__setattr__(self, "amplitude", a)
        object.__setattr__(self, "gain", k)
        object.__setattr__(self, "omega", float(self.omega))
        object.__setattr__(self, "omega_ratio", ratios)
        if a.ndim != 1 or k.shape != a.shape or len(ratios) != a.size:
            raise ValueError("amplitude, gain and omega_ratio must have equal length")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(k))
                and np.isfinite(self.omega)):
            raise ValueError("amplitudes, gains and omega must be finite")
        if np.any(a <= 0.0) or np.any(k <= 0.0) or self.omega <= 0.0:
            raise ValueError("amplitudes, gains and omega must be strictly positive")
        if any(r <= 0 for r in ratios):
            raise ValueError("frequency ratios must be strictly positive")
        if len(set(ratios)) != len(ratios):
            raise ValueError("frequency ratios must be pairwise distinct")

    @property
    def n_players(self) -> int:
        return int(self.amplitude.size)

    def frequencies(self) -> np.ndarray:
        """Effective per-player angular frequencies ``omega * ratio``."""
        return self.omega * np.array([float(r) for r in self.omega_ratio])

    def scaled(self, factor) -> "NESTuning":
        """Same tuning with the base frequency multiplied by ``factor``.

        Ratios are untouched, so distinctness and the common period in the
        ``tau`` axis are preserved.
        """
        return NESTuning(
            amplitude=self.amplitude,
            gain=self.gain,
            omega=self.omega * float(factor),
            omega_ratio=self.omega_ratio,
        )


def common_period_factor(ratios: Sequence[Fraction]) -> Fraction:
    """Exact least common multiple of the inverse frequency ratios.

    ``sin(r_i * tau)`` is periodic with period ``2*pi / r_i``; the returned
    fraction ``L`` makes ``2*pi*L`` a common period of all of them.
    """
    fr = [Fraction(r) for r in ratios]
    if not fr:
        raise ValueError("need at least one frequency ratio")
    if any(r <= 0 for r in fr):
        raise ValueError("frequency ratios must be strictly positive")
    # lcm of q_i/p_i for ratios p_i/q_i: lcm of numerators over gcd of denominators
    return Fraction(
        math.lcm(*(r.denominator for r in fr)),
        math.gcd(*(r.numerator for r in fr)),
    )


def common_period(ratios: Sequence[Fraction]) -> float:
    """Common probing period on the ``tau = omega * t`` axis."""
    return 2.0 * math.pi * float(common_period_factor(ratios))


def dither_vector(
    tuning: NESTuning,
    topology: DeceptionTopology,
    delta: Sequence[float],
    t: float,
) -> np.ndarray:
    """Probing offset of every player at physical time ``t``.

    Player ``i`` contributes ``a_i sin(w_i t)``; a deceiver additionally
    re-injects each victim's sinusoid scaled by its current gain.
    """
    d = np.asarray(delta, dtype=float)
    w = tuning.frequencies()
    s = np.sin(w * t)
    mu = tuning.amplitude * s
    for k, (z, vs) in enumerate(zip(topology.deceivers, topology.victims)):
        mu[z] += d[k] * float(np.sum(tuning.amplitude[list(vs)] * s[list(vs)]))
    return mu


# ---------------------------------------------------------------------------
# averaged probing residual
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AveragedResidual:
    """Per-deceiver period average of the quadratic probing term.

    Averaging the measured cost over one common period leaves
    ``J_i(u) + p_term_i`` for deceiver ``i``: the probing signals do not
    average out of the quadratic cost, and deceptive injections add
    matched-frequency products that depend on ``delta``.
    """

    p_term: np.ndarray


def _residual_polynomial(
    game: QuadraticGame, topology: DeceptionTopology, tuning: NESTuning
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficients of the residual as a quadratic polynomial in ``delta``.

    Writing the probing vector as a sum of one tone per player, tone ``m``
    enters player ``j``'s coordinate with weight ``a_m`` (own tone) plus
    ``delta_k a_m`` for every deceiver ``k`` that mimics ``m``; distinct
    tones average to zero against each other, matched tones to one half.
    """
    n = topology.n_deceivers
    nn = game.n_players
    a2 = np.asarray(tuning.amplitude, dtype=float) ** 2
    z = topology.deceivers
    vict = topology.victims
    const = np.zeros(n)
    lin = np.zeros((n, n))
    quad = np.zeros((n, n, n))
    for kk in range(n):
        qi = game.q[z[kk]]
        const[kk] = 0.25 * float(np.sum(a2 * np.diagonal(qi)))
        for j in range(n):
            lin[kk, j] = 0.5 * sum(a2[m] * qi[m, z[j]] for m in vict[j])
            for l in range(n):
                shared = set(vict[j]) & set(vict[l])
                quad[kk, j, l] = 0.25 * sum(a2[m] for m in shared) * qi[z[j], z[l]]
    return const, lin, quad


def averaged_residual(
    game: QuadraticGame,
    topology: DeceptionTopology,
    tuning: NESTuning,
    delta: Sequence[float],
) -> AveragedResidual:
    """Closed-form probing residual for each deceiver at gains ``delta``."""
    const, lin, quad = _residual_polynomial(game, topology, tuning)
    d = np.asarray(delta, dtype=float)
    vals = const + lin @ d + np.array([d @ quad[kk] @ d for kk in range(len(const))])
    return AveragedResidual(p_term=vals)


# ---------------------------------------------------------------------------
# states, right-hand sides
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimState:
    """Integrator state: time on the model's native axis, learned actions,
    and deceiver gains.

    The played price is always derived as ``u`` plus the probing offset,
    never stored.  For the reduced model ``u`` is ignored (the actions are
    slaved to ``delta``); for the boundary model ``u`` holds the deviation
    from the quasi-equilibrium and ``delta`` stays frozen.
    """

    t: float
    u: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        object.__setattr__(self, "delta", np.asarray(self.delta, dtype=float))


def default_initial(
    game: QuadraticGame, topology: DeceptionTopology, offset: float = 0.0
) -> SimState:
    """Start at the unperturbed Nash prices (plus an optional common offset)
    with all deceiver gains at zero."""
    u0 = game.nash_equilibrium() + offset
    return SimState(t=0.0, u=u0, delta=np.zeros(topology.n_deceivers))


def rhs(
    model: str,
    game: QuadraticGame,
    topology: DeceptionTopology,
    tuning: NESTuning,
    state: SimState,
) -> np.ndarray:
    """State derivative of the chosen model at ``state`` (native time axis).

    Packing: ``full`` and ``averaged`` return ``[du, ddelta]``; ``reduced``
    returns ``ddelta``; ``boundary`` returns ``dy`` at the frozen
    ``state.delta``.
    """
    if model not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {model!r}")
    k = tuning.gain
    eps = topology.eps
    rates = np.asarray(topology.eps_rates, dtype=float)
    refs = np.asarray(topology.cost_refs, dtype=float)
    z = list(topology.deceivers)

    if model == "full":
        mu = dither_vector(tuning, topology, state.delta, state.t)
        x = state.u + mu
        costs = game.costs(x)
        w = tuning.frequencies()
        du = -(2.0 * k / tuning.amplitude) * costs * np.sin(w * state.t)
        dd = eps * rates * (costs[z] - refs)
        return np.concatenate([du, dd])

    if model == "averaged":
        pert = perturbed_pseudogradient(game, topology, state.delta)
        du = -(k * (pert.qbar @ state.u + pert.bbar)) / tuning.omega
        costs = game.costs(state.u)
        resid = averaged_residual(game, topology, tuning, state.delta).p_term
        dd = (eps / tuning.omega) * rates * (costs[z] - refs + resid)
        return np.concatenate([du, dd])

    if model == "reduced":
        h = deceptive_equilibrium(game, topology, state.delta)
        costs = game.costs(h)
        return (rates / tuning.omega) * (costs[z] - refs)

    # boundary layer: action deviations at frozen delta, physical time
    pert = perturbed_pseudogradient(game, topology, state.delta)
    return -(k * (pert.qbar @ state.u))


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrajectoryMeta:
    """Axis bookkeeping for a recorded run (all runs are deterministic)."""

    model: str
    time_axis: str           # "t", "tau" or "tau_star"
    to_physical: float       # physical seconds per native time unit
    dt: float                # step on the native axis
    stride: int
    common_period: float     # common probing period on the native axis
    deceivers: tuple[int, ...]


@dataclass(frozen=True)
class SteadyState:
    """Mean of the trailing common probing period of a trajectory."""

    u: np.ndarray
    delta: np.ndarray
    x: np.ndarray
    costs: np.ndarray
    profits: np.ndarray


@dataclass(frozen=True)
class Trajectory:
    """Strided record of one simulation.

    ``times`` are on the native axis of ``meta.model``; prices ``x`` are
    reconstructed from ``u``, ``delta`` and physical time through the
    probing map for the full model, and equal ``u`` for the dither-free
    models.  ``costs`` / ``profits`` evaluate the game at the recorded
    ``x``.
    """

    times: np.ndarray
    u: np.ndarray
    delta: np.ndarray
    x: np.ndarray
    costs: np.ndarray
    profits: np.ndarray
    meta: TrajectoryMeta

    def physical_times(self) -> np.ndarray:
        return self.times * self.meta.to_physical

    def steady_state(self) -> SteadyState:
        """Mean over the trailing common period of recorded samples.

        Uses sample counts (never float window comparisons) so the result
        is reproducible; if the trajectory is shorter than one period the
        whole record is averaged.
        """
        spacing = self.meta.dt * self.meta.stride
        m = int(round(self.meta.common_period / spacing))
        m = max(1, min(m, len(self.times)))
        sl = slice(len(self.times) - m, None)
        return SteadyState(
            u=self.u[sl].mean(axis=0),
            delta=self.delta[sl].mean(axis=0),
            x=self.x[sl].mean(axis=0),
            costs=self.costs[sl].mean(axis=0),
            profits=self.profits[sl].mean(axis=0),
        )

    def write_csv(self, path) -> None:
        """Write the trajectory with 12-significant-digit decimal fields.

        Header: ``t`` then ``u_1..u_N``, one ``delta_<player>`` column per
        deceiver (1-based player number), ``x_1..x_N``, ``J_1..J_N``,
        ``P_1..P_N``.
        """
        n_players = self.u.shape[1]
        cols = ["t"]
        cols += [f"u_{i+1}" for i in range(n_players)]
        cols += [f"delta_{z+1}" for z in self.meta.deceivers]
        cols += [f"x_{i+1}" for i in range(n_players)]
        cols += [f"J_{i+1}" for i in range(n_players)]
        cols += [f"P_{i+1}" for i in range(n_players)]
        with open(path, "w", newline="") as fh:
            fh.write(",".join(cols) + "\n")
            for idx in range(len(self.times)):
                row = [self.times[idx]]
                row += list(self.u[idx])
                row += list(self.delta[idx])
                row += list(self.x[idx])
                row += list(self.costs[idx])
                row += list(self.profits[idx])
                fh.write(",".join(f"{v:.12g}" for v in row) + "\n")


def _reconstruct_prices(
    model: str,
    tuning: NESTuning,
    topology: DeceptionTopology,
    times_phys: np.ndarray,
    u: np.ndarray,
    delta: np.ndarray,
) -> np.ndarray:
    if model != "full":
        return u.copy()
    w = tuning.frequencies()
    s = np.sin(np.outer(times_phys, w)) * tuning.amplitude
    x = u + s
    for k, (z, vs) in enumerate(zip(topology.deceivers, topology.victims)):
        x[:, z] += delta[:, k] * np.sum(s[:, list(vs)], axis=1)
    return x


def _finalize(
    model: str,
    game: QuadraticGame,
    topology: DeceptionTopology,
    tuning: NESTuning,
    times: np.ndarray,
    u: np.ndarray,
    delta: np.ndarray,
    meta: TrajectoryMeta,
) -> Trajectory:
    x = _reconstruct_prices(
        model, tuning, topology, times * meta.to_physical, u, delta
    )
    costs = game.costs(x)
    return Trajectory(
        times=times, u=u, delta=delta, x=x, costs=costs, profits=-costs,
        meta=meta,
    )


# ---------------------------------------------------------------------------
# simulation driver
# ---------------------------------------------------------------------------

def _integrate_full(
    game: QuadraticGame,
    topology: DeceptionTopology,
    tuning: NESTuning,
    initial: SimState,
    dt: float,
    n_steps: int,
    stride: int,
    freeze_delta: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hand-rolled RK4 loop over plain floats for the dithered model.

    This is the hot path (millions of steps at realistic frequencies);
    everything is unpacked into lists so a step costs a handful of
    arithmetic operations per player.  The test-suite pins it against the
    generic :func:`rhs` + :func:`numerics.rk4_step` route.
    """
    sin = math.sin
    n_players = game.n_players
    n_dec = topology.n_deceivers
    w = [tuning.omega * float(r) for r in tuning.omega_ratio]
    amp = [float(v) for v in tuning.amplitude]
    k2a = [2.0 * float(tuning.gain[i]) / amp[i] for i in range(n_players)]
    qrow = [[float(v) for v in row] for row in game.pseudogradient_matrix]
    bmat = [[float(v) for v in row] for row in game.b]
    cvec = [float(v) for v in game.c]
    z = list(topology.deceivers)
    vict = [list(v) for v in topology.victims]
    gain_d = [
        0.0 if freeze_delta else topology.eps * topology.eps_rates[kk]
        for kk in range(n_dec)
    ]
    refs = list(topology.cost_refs)
    players = range(n_players)
    decs = range(n_dec)

    def stage(u_, d_, s):
        x = [u_[i] + amp[i] * s[i] for i in players]
        for kk in decs:
            inj = 0.0
            for l in vict[kk]:
                inj += amp[l] * s[l]
            x[z[kk]] += d_[kk] * inj
        du = [0.0] * n_players
        costs = [0.0] * n_players
        for i in players:
            qi = qrow[i]
            bi = bmat[i]
            acc = 0.0
            accb = 0.0
            for j in players:
                xj = x[j]
                acc += qi[j] * xj
                accb += bi[j] * xj
            ji = x[i] * (acc - 0.5 * qi[i] * x[i]) + accb + cvec[i]
            costs[i] = ji
            du[i] = -k2a[i] * ji * s[i]
        dd = [gain_d[kk] * (costs[z[kk]] - refs[kk]) for kk in decs]
        return du, dd

    t0 = initial.t
    u = [float(v) for v in initial.u]
    d = [float(v) for v in initial.delta]
    half = 0.5 * dt
    sixth = dt / 6.0
    ts = [t0]
    us = [u[:]]
    ds = [d[:]]
    for step in range(n_steps):
        t = t0 + step * dt
        s0 = [sin(w[j] * t) for j in players]
        tm = t + half
        sm = [sin(w[j] * tm) for j in players]
        te = t + dt
        se = [sin(w[j] * te) for j in players]
        du1, dd1 = stage(u, d, s0)
        u2 = [u[i] + half * du1[i] for i in players]
        d2 = [d[kk] + half * dd1[kk] for kk in decs]
        du2, dd2 = stage(u2, d2, sm)
        u3 = [u[i] + half * du2[i] for i in players]
        d3 = [d[kk] + half * dd2[kk] for kk in decs]
        du3, dd3 = stage(u3, d3, sm)
        u4 = [u[i] + dt * du3[i] for i in players]
        d4 = [d[kk] + dt * dd3[kk] for kk in decs]
        du4, dd4 = stage(u4, d4, se)
        u = [
            u[i] + sixth * (du1[i] + 2.0 * (du2[i] + du3[i]) + du4[i])
            for i in players
        ]
        d = [
            d[kk] + sixth * (dd1[kk] + 2.0 * (dd2[kk] + dd3[kk]) + dd4[kk])
            for kk in decs
        ]
        if (step + 1) % stride == 0:
            tr = t0 + (step + 1) * dt
            for v in u:
                if not math.isfinite(v):
                    raise DivergenceError(tr, "t")
            for v in d:
                if not math.isfinite(v):
                    raise DivergenceError(tr, "t")
            ts.append(tr)
            us.append(u[:])
            ds.append(d[:])
    return (
        np.asarray(ts),
        np.asarray(us),
        np.asarray(ds).reshape(len(ts), n_dec),
    )


def _rate_bound(matrix: np.ndarray) -> float:
    m = np.asarray(matrix, dtype=float)
    if m.size == 0:
        return 0.0
    return float(np.max(np.sum(np.abs(m), axis=1)))


def simulate(
    model: str,
    game: QuadraticGame,
    topology: DeceptionTopology,
    tuning: NESTuning,
    initial: SimState | None = None,
    horizon: float = 1.0,
    stride: int = 1,
    *,
    oversampling: int = 32,
    dt: float | None = None,
    freeze_delta: bool = False,
) -> Trajectory:
    """Fixed-step deterministic integration of one model.

    ``horizon`` is in physical seconds regardless of the model's native
    axis; ``stride`` records every that-many steps.  ``oversampling`` sets
    the full-model step to ``2*pi / (w_max * oversampling)`` (at least 16
    steps per fastest probing period); dither-free models pick their step
    from their own rate bounds unless ``dt`` (native-axis units) is given.
    ``freeze_delta`` holds deceiver gains at their initial values while the
    probing injections stay active.
    """
    if model not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {model!r}")
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    if stride < 1:
        raise ValueError("stride must be a positive integer")
    if oversampling < 16:
        raise ValueError("oversampling below 16 does not resolve the dither")
    topology.validate_against(game.n_players)
    if initial is None:
        initial = default_initial(game, topology)
    if initial.delta.shape != (topology.n_deceivers,):
        raise ValueError(
            f"initial state carries {initial.delta.size} deceiver gains, "
            f"topology has {topology.n_deceivers}"
        )

    period_tau = common_period(tuning.omega_ratio)
    omega = tuning.omega
    eps = topology.eps

    if model == "full":
        w_max = float(np.max(tuning.frequencies()))
        step = 2.0 * math.pi / (w_max * oversampling) if dt is None else float(dt)
        native_horizon = horizon
        axis, to_phys = "t", 1.0
        period_native = period_tau / omega
    elif model == "averaged":
        native_horizon = omega * horizon
        axis, to_phys = "tau", 1.0 / omega
        period_native = period_tau
        if dt is None:
            pert = perturbed_pseudogradient(game, topology, initial.delta)
            rate = _rate_bound(tuning.gain[:, None] * pert.qbar) / omega
            step = min(period_tau / 64.0, 0.2 / rate if rate > 0 else np.inf)
            # keep an integer number of steps per common period so the
            # trailing-period mean tiles exactly
            step = period_tau / max(1, round(period_tau / step))
        else:
            step = float(dt)
    elif model == "reduced":
        if topology.n_deceivers == 0:
            raise ValueError("the reduced model needs at least one deceiver")
        native_horizon = eps * omega * horizon
        axis, to_phys = "tau_star", 1.0 / (eps * omega)
        period_native = eps * period_tau
        if dt is None:
            from .deception import lambda_matrix

            lam = lambda_matrix(game, topology, initial.delta)
            rate = _rate_bound(lam) / omega
            step = 0.2 / rate if rate > 0 else native_horizon / 200.0
            step = min(step, native_horizon / 200.0)
        else:
            step = float(dt)
    else:  # boundary
        native_horizon = horizon
        axis, to_phys = "t", 1.0
        period_native = period_tau / omega
        if dt is None:
            pert = perturbed_pseudogradient(game, topology, initial.delta)
            rate = _rate_bound(tuning.gain[:, None] * pert.qbar)
            step = 0.2 / rate if rate > 0 else native_horizon / 200.0
            step = min(step, native_horizon / 200.0)
        else:
            step = float(dt)

    n_steps = stride * max(1, math.ceil(native_horizon / (step * stride) - 1e-9))

    if model == "full":
        times, u_mat, d_mat = _integrate_full(
            game, topology, tuning, initial, step, n_steps, stride, freeze_delta
        )
    else:
        n_players = game.n_players
        n_dec = topology.n_deceivers

        if model == "averaged":
            const, lin, quad = _residual_polynomial(game, topology, tuning)
            k = tuning.gain
            rates = np.asarray(topology.eps_rates, dtype=float)
            refs = np.asarray(topology.cost_refs, dtype=float)
            z = list(topology.deceivers)

            def f(t, yv):
                u_, d_ = yv[:n_players], yv[n_players:]
                if freeze_delta:
                    d_dot = np.zeros(n_dec)
                else:
                    resid = const + lin @ d_ + np.array(
                        [d_ @ quad[kk] @ d_ for kk in range(n_dec)]
                    )
                    costs = game.costs(u_)
                    d_dot = (eps / omega) * rates * (costs[z] - refs + resid)
                pert_ = perturbed_pseudogradient(game, topology, d_)
                u_dot = -(k * (pert_.qbar @ u_ + pert_.bbar)) / omega
                return np.concatenate([u_dot, d_dot])

            y0 = np.concatenate([initial.u, initial.delta])
        elif model == "reduced":
            def f(t, yv):
                return rhs(
                    "reduced", game, topology, tuning,
                    SimState(t=t, u=np.zeros(0), delta=yv),
                )

            y0 = initial.delta.copy()
        else:
            pert = perturbed_pseudogradient(game, topology, initial.delta)
            kq = tuning.gain[:, None] * pert.qbar

            def f(t, yv):
                return -(kq @ yv)

            y0 = initial.u.copy()

        times, states = numerics.integrate_fixed(
            f, initial.t, y0, step, n_steps, record_every=stride
        )
        if not np.all(np.isfinite(states[-1])):
            bad = np.where(~np.all(np.isfinite(states), axis=1))[0]
            raise DivergenceError(times[bad[0]], axis)
        if model == "averaged":
            u_mat = states[:, :n_players]
            d_mat = states[:, n_players:]
        elif model == "reduced":
            d_mat = states
            pert = perturbed_pseudogradient(game, topology, d_mat)
            u_mat = numerics.solve_stack(pert.qbar, -pert.bbar)
            singular = np.flatnonzero(np.isnan(u_mat).any(axis=1))
            if singular.size:  # raise the first singular sample's error
                deceptive_equilibrium(game, topology, d_mat[singular[0]])
        else:
            u_mat = states
            d_mat = np.tile(initial.delta, (len(times), 1))

    meta = TrajectoryMeta(
        model=model,
        time_axis=axis,
        to_physical=to_phys,
        dt=step,
        stride=stride,
        common_period=period_native,
        deceivers=topology.deceivers,
    )
    return _finalize(model, game, topology, tuning, times, u_mat, d_mat, meta)

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

import functools
import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import numerics
from .deception import (
    DeceptionTopology,
    _pseudogradient_basis,
    deceptive_equilibrium,
    lambda_matrix,
    perturbed_pseudogradient,
)
from .oligopoly import QuadraticGame

MODEL_KINDS = ("full", "averaged", "reduced", "boundary")

#: :func:`simulate` refuses a run needing more integration steps than this;
#: the full-frequency deception run of the test suite takes 22.6 M.
MAX_STEPS = 30_000_000

#: ... or recording more samples than this, since every recorded sample is
#: held in memory until the run ends.
MAX_SAMPLES = 4_000_000


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
        try:
            common_period(ratios)
        except OverflowError:
            raise ValueError(
                "the common probing period of these frequency ratios overflows a float"
            ) from None

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
    t: float | np.ndarray,
) -> np.ndarray:
    """Probing offset ``(I + delta . G)(a o sin(w t))`` of every player at
    physical time ``t``.

    Player ``i`` contributes ``a_i sin(w_i t)``; a deceiver additionally
    re-injects each victim's sinusoid scaled by its current gain (``G`` is
    :meth:`DeceptionTopology.injection`).  For an array of times ``delta``
    holds one row per time and the result one row per time.
    """
    return _played_prices(0.0, tuning, topology, delta, t)


def _played_prices(u, tuning, topology, delta, t) -> np.ndarray:
    """``x = u + (I + delta . G)(a o s)``, summed as ``(u + a o s) + (delta .
    G)(a o s)`` like the full model's generated kernel."""
    tones = tuning.amplitude * np.sin(np.multiply.outer(t, tuning.frequencies()))
    g = topology.injection(tuning.n_players)
    d = np.asarray(delta, dtype=float)
    return (u + tones) + np.einsum("...k,kij,...j->...i", d, g, tones)


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

    The probing vector is ``M (a o s)`` with ``M = I + delta . G``; distinct
    tones average to zero against each other and matched tones to one half,
    so deceiver ``k`` sees ``1/4 tr(q[z_k] M D M')`` with ``D = diag(a^2)``.
    Expanding ``M`` gives ``const[k] + lin[k] @ delta + delta @ quad[k] @
    delta``.
    """
    a2 = np.asarray(tuning.amplitude, dtype=float) ** 2
    q = game.q[list(topology.deceivers)]
    g = topology.injection(game.n_players)
    const = 0.25 * np.einsum("kmm,m->k", q, a2)
    lin = 0.5 * np.einsum("kmi,jim,m->kj", q, g, a2)
    quad = 0.25 * np.einsum("kab,jbc,c,lac->kjl", q, g, a2, g)
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
    return AveragedResidual(p_term=const + lin @ d + np.einsum("kjl,j,l->k", quad, d, d))


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


def _pack(model: str, u: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """The integrator state of ``model``, packed as described in :func:`rhs`."""
    if model == "reduced":
        return delta
    if model == "boundary":
        return u
    return np.concatenate([u, delta])


def _polynomial_field(model, game, topology, tuning, delta, freeze_delta):
    """``(c, A, T)`` with the ``averaged`` or ``boundary`` field equal to
    ``c + (A + T @ y) @ y``.

    The averaged field is quadratic in ``y = (u, delta)``: ``T`` carries
    ``delta_k P_k u`` in the price rows and the cost Hessian and residual
    cross terms in the gain rows.  The boundary field is ``-K Qbar(delta)
    y``, so its ``c`` and ``T`` are zero.
    """
    n, n_dec = game.n_players, topology.n_deceivers
    q0, b0 = game.pseudogradient_matrix, game.pseudogradient_offset
    big_p, p = _pseudogradient_basis(game, topology)
    if model == "boundary":
        qbar = q0 + (np.asarray(delta, dtype=float) @ big_p).reshape(n, n)
        return np.zeros(n), -(tuning.gain[:, None] * qbar), np.zeros((n, n, n))
    z, m = list(topology.deceivers), n + n_dec
    k_w = (tuning.gain / tuning.omega)[:, None]
    g = (0.0 if freeze_delta else topology.eps / tuning.omega) \
        * np.asarray(topology.eps_rates, dtype=float)[:, None]
    const, lin, quad = _residual_polynomial(game, topology, tuning)
    c, a, t = np.zeros(m), np.zeros((m, m)), np.zeros((m, m, m))
    c[:n] = -k_w[:, 0] * b0
    a[:n, :n] = -k_w * q0
    a[:n, n:] = -k_w * p.T
    t[:n, :n, n:] = -k_w[:, :, None] * big_p.reshape(n_dec, n, n).transpose(1, 2, 0)
    c[n:] = g[:, 0] * (game.c[z] - np.asarray(topology.cost_refs, dtype=float) + const)
    a[n:, :n] = g * game.b[z]
    a[n:, n:] = g * lin
    t[n:, :n, :n] = g[:, :, None] * 0.5 * game.q[z]
    t[n:, n:, n:] = g[:, :, None] * quad
    return c, a, t


def _vector_field(
    model: str,
    game: QuadraticGame,
    topology: DeceptionTopology,
    tuning: NESTuning,
    delta: np.ndarray,
    freeze_delta: bool,
) -> Callable[[float, np.ndarray], np.ndarray]:
    """The derivative ``f(t, y)`` of ``model`` on its native axis, with ``y``
    packed as in :func:`rhs` and everything that does not depend on the
    state computed once; the dither-free ``averaged`` and ``boundary``
    fields are the polynomial of :func:`_polynomial_field`.

    ``delta`` is the frozen gain of the ``boundary`` model; the other models
    read their gains from ``y``, and ``freeze_delta`` zeroes their gain
    derivative.
    """
    if model not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {model!r}")
    n = game.n_players
    z = list(topology.deceivers)
    refs = np.asarray(topology.cost_refs, dtype=float)
    rates = np.zeros(topology.n_deceivers) if freeze_delta \
        else np.asarray(topology.eps_rates, dtype=float)

    if model == "full":
        w = tuning.frequencies()
        drift = -(2.0 * tuning.gain / tuning.amplitude)
        d_gain = topology.eps * rates

        def f(t, y):
            costs = game.costs(_played_prices(y[:n], tuning, topology, y[n:], t))
            return np.concatenate([
                drift * costs * np.sin(w * t), d_gain * (costs[z] - refs),
            ])
    elif model == "reduced":
        q0, b0 = game.pseudogradient_matrix, game.pseudogradient_offset
        big_p, p = _pseudogradient_basis(game, topology)
        d_gain = rates / tuning.omega

        def f(t, d):
            h = numerics.solve_linear(q0 + (d @ big_p).reshape(n, n), -(b0 + d @ p))
            return d_gain * (game.costs(h)[z] - refs)
    else:
        c, a, tensor = _polynomial_field(model, game, topology, tuning, delta, freeze_delta)

        def f(t, y):
            return c + (a + tensor @ y) @ y
    return f


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
    ``state.delta``.  :func:`simulate` integrates the same vector field.
    """
    f = _vector_field(model, game, topology, tuning, state.delta, freeze_delta=False)
    return f(state.t, _pack(model, state.u, state.delta))


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
        m = max(1, int(round(min(self.meta.common_period / spacing, len(self.times)))))
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
        players = range(1, self.u.shape[1] + 1)
        cols = ["t", *(f"u_{i}" for i in players),
                *(f"delta_{z + 1}" for z in self.meta.deceivers),
                *(f"{c}_{i}" for c in "xJP" for i in players)]
        rows = np.column_stack(
            [self.times, self.u, self.delta, self.x, self.costs, self.profits]
        )
        line = ",".join(["%.12g"] * len(cols)) + "\n"
        with open(path, "w", newline="") as fh:
            fh.write(",".join(cols) + "\n")
            for row in rows.tolist():
                fh.write(line % tuple(row))


# ---------------------------------------------------------------------------
# simulation driver
# ---------------------------------------------------------------------------

#: Above this many players ``simulate("full")`` steps the numpy field of
#: :func:`_vector_field` instead of the generated kernel, whose source and
#: compile time grow with the square of the player count.  Measured per step
#: on 2 cores (Python 3.11, numpy 2.4), generated against numpy: 126 / 196 µs
#: at N = 20, 216-274 / 282-290 µs at 30, 351 / 307 µs at 34, 550 / 339 µs
#: at 40.
MAX_GENERATED_PLAYERS = 30


def _full_kernel(game, topology, tuning, freeze_delta) -> tuple[str, str, dict]:
    """Source of the full model's RK4 ``stage`` and ``run`` loop for this
    market, and the namespace of numbers they read.

    Every player and victim is unrolled and the state travels as separate
    floats.  Every number is a name bound in the namespace, never a literal,
    so the source depends only on the player count, the deceivers and their
    victims.  Sums are flat left-to-right chains from ``0.0``, in the order
    ``x = (u + a o s) + (delta . G)(a o s)`` and ``J_i = x_i (sum_j Q_ij x_j
    - Q_ii x_i / 2) + sum_j b_ij x_j + c_i``.
    """
    n, z = game.n_players, topology.deceivers
    players, decs = range(n), range(len(z))
    names = {"sin": math.sin, "isfinite": math.isfinite, "DivergenceError": DivergenceError}
    for i in players:
        amp = names[f"a{i}"] = float(tuning.amplitude[i])
        names[f"w{i}"] = tuning.omega * float(tuning.omega_ratio[i])
        names[f"m{i}"] = -(2.0 * float(tuning.gain[i]) / amp)
        names[f"c{i}"] = float(game.c[i])
        for j in players:
            names[f"q{i}_{j}"] = float(game.pseudogradient_matrix[i, j])
            names[f"b{i}_{j}"] = float(game.b[i, j])
    for k in decs:
        names[f"g{k}"] = 0.0 if freeze_delta else topology.eps * topology.eps_rates[k]
        names[f"r{k}"] = topology.cost_refs[k]

    def chain(terms):
        return " + ".join(["0.0", *terms])

    u, d = [f"u{i}" for i in players], [f"d{k}" for k in decs]
    state = u + d
    stage = [f"def stage({', '.join(state + [f's{i}' for i in players])}):"]
    stage += [f"    x{i} = u{i} + a{i} * s{i}" for i in players]
    stage += [f"    x{zk} = x{zk} + d{k} * ({chain(f'a{l} * s{l}' for l in vs)})"
              for k, (zk, vs) in enumerate(zip(z, topology.victims))]
    stage += [f"    j{i} = x{i} * ({chain(f'q{i}_{j} * x{j}' for j in players)}"
              f" - 0.5 * q{i}_{i} * x{i}) + ({chain(f'b{i}_{j} * x{j}' for j in players)})"
              f" + c{i}" for i in players]
    # the trailing comma keeps a one-component derivative a tuple
    stage.append("    return " + "".join(
        [*(f"m{i} * j{i} * s{i}, " for i in players),
         *(f"g{k} * (j{zk} - r{k}), " for k, zk in enumerate(z))]))

    def stage_call(r, tones, step):
        """RK4 stage ``r``, at the state plus ``step`` times stage ``r - 1``."""
        at = state if r == 1 else [f"{v} + {step} * f{r - 1}{v}" for v in state]
        return (f"        {''.join(f'f{r}{v}, ' for v in state)}= stage("
                f"{', '.join(at + [f'{tones}{i}' for i in players])})")

    run = [f"def run({', '.join(state)}, t0, dt, n_steps, stride, ts, us, ds):",
           "    half = 0.5 * dt",
           "    sixth = dt / 6.0",
           "    for step in range(n_steps):",
           "        t = t0 + step * dt",
           "        tm = t + half",
           "        te = t + dt"]
    run += [f"        {s}{i} = sin(w{i} * {t})"
            for s, t in (("s", "t"), ("h", "tm"), ("e", "te")) for i in players]
    run += [stage_call(1, "s", None), stage_call(2, "h", "half"),
            stage_call(3, "h", "half"), stage_call(4, "e", "dt")]
    run += [f"        {v} = {v} + sixth * (f1{v} + 2.0 * (f2{v} + f3{v}) + f4{v})"
            for v in state]
    run += ["        if (step + 1) % stride == 0:",
            "            tr = t0 + (step + 1) * dt",
            f"            if not ({' and '.join(f'isfinite({v})' for v in state)}):",
            '                raise DivergenceError(tr, "t")',
            "            ts.append(tr)",
            f"            us.extend([{', '.join(u)}])",
            f"            ds.extend([{', '.join(d)}])"]
    return "\n".join(stage) + "\n", "\n".join(run) + "\n", names


@functools.lru_cache(maxsize=16)
def _compiled(source: str):
    return compile(source, "<full-model kernel>", "exec")


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
    """RK4 loop of the dithered model, run by the straight-line code that
    :func:`_full_kernel` generates for this market.

    This is the hot path (millions of steps at realistic frequencies), so a
    step is plain float arithmetic with every player and victim unrolled.
    ``stage`` and ``run`` are compiled separately, which keeps the
    compiler's peak memory down, and the code of recent market structures
    is kept compiled.  Recorded samples are checked finite and go straight
    into flat float buffers.  :func:`simulate` runs it up to
    :data:`MAX_GENERATED_PLAYERS` players; the test-suite pins it, and the
    numpy route above that bound, against the generic :func:`rhs` +
    :func:`numerics.rk4_step` route.
    """
    *sources, names = _full_kernel(game, topology, tuning, freeze_delta)
    for source in sources:
        exec(_compiled(source), names)
    u = [float(v) for v in initial.u]
    d = [float(v) for v in initial.delta]
    # samples go straight into flat float buffers: 8 bytes a number
    ts, us, ds = array("d", [initial.t]), array("d", u), array("d", d)
    names["run"](*u, *d, initial.t, dt, n_steps, stride, ts, us, ds)
    return (
        np.frombuffer(ts),
        np.frombuffer(us).reshape(len(ts), game.n_players),
        np.frombuffer(ds).reshape(len(ts), topology.n_deceivers),
    )


def _positive_finite(name: str, value: float, axis: str) -> float:
    if not 0.0 < value < math.inf:
        raise ValueError(
            f"the {name} on the {axis} axis is {value:.6g}; "
            "it must be a positive finite float"
        )
    return value


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
    probing injections stay active.  Runs above :data:`MAX_STEPS` steps or
    :data:`MAX_SAMPLES` recorded samples are refused with ``ValueError``, and
    so are runs whose horizon, common probing period or step on the native
    axis is zero or infinite (a float underflow or overflow).
    """
    if model not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {model!r}")
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    if dt is not None and not dt > 0.0:
        raise ValueError("dt must be positive")
    if not 1 <= stride <= MAX_STEPS:
        raise ValueError(f"stride must be an integer in 1..{MAX_STEPS}")
    if not 16 <= oversampling <= MAX_STEPS:   # below 16 does not resolve the dither
        raise ValueError(f"oversampling must be an integer in 16..{MAX_STEPS}")
    topology.validate_against(game.n_players)
    if initial is None:
        initial = default_initial(game, topology)
    if initial.delta.shape != (topology.n_deceivers,):
        raise ValueError(
            f"initial state carries {initial.delta.size} deceiver gains, "
            f"topology has {topology.n_deceivers}"
        )

    if model == "reduced" and topology.n_deceivers == 0:
        raise ValueError("the reduced model needs at least one deceiver")
    period_tau = common_period(tuning.omega_ratio)
    omega = tuning.omega
    axis = {"full": "t", "averaged": "tau", "reduced": "tau_star", "boundary": "t"}[model]
    scale = {"t": 1.0, "tau": omega, "tau_star": topology.eps * omega}[axis]
    native_horizon = _positive_finite("horizon", scale * horizon, axis)
    period_native = _positive_finite("common probing period", {
        "t": period_tau / omega, "tau": period_tau, "tau_star": topology.eps * period_tau,
    }[axis], axis)

    if dt is not None:
        step = float(dt)
    elif model == "full":
        step = 2.0 * math.pi / (float(np.max(tuning.frequencies())) * oversampling)
    else:
        if model == "reduced":
            lam = lambda_matrix(game, topology, initial.delta)
            rate = float(np.linalg.norm(lam, np.inf)) / omega
        else:
            pert = perturbed_pseudogradient(game, topology, initial.delta)
            rate = float(np.linalg.norm(tuning.gain[:, None] * pert.qbar, np.inf)) / scale
        step = 0.2 / rate if rate > 0 else np.inf
        if model == "averaged":
            # keep an integer number of steps per common period so the
            # trailing-period mean tiles exactly; a rate so large that the
            # count overflows leaves a zero step, refused below
            per_period = period_tau / min(period_tau / 64.0, step) if step > 0 else math.inf
            step = period_tau / max(1, round(per_period)) if per_period < math.inf else 0.0
        else:
            step = min(step, native_horizon / 200.0)
    _positive_finite("integration step", step, axis)

    blocks = native_horizon / (step * stride)   # may be huge, inf or NaN
    if not (blocks * stride <= MAX_STEPS and blocks + 1.0 <= MAX_SAMPLES):
        raise ValueError(
            f"the run needs {blocks * stride:.4g} steps and {blocks + 1.0:.4g} "
            f"recorded samples; the caps are {MAX_STEPS} steps and "
            f"{MAX_SAMPLES} samples"
        )
    n_steps = stride * max(1, math.ceil(blocks - 1e-9))

    if model == "full" and game.n_players <= MAX_GENERATED_PLAYERS:
        times, u_mat, d_mat = _integrate_full(
            game, topology, tuning, initial, step, n_steps, stride, freeze_delta
        )
    else:
        y0 = _pack(model, initial.u, initial.delta)
        c, a, tensor = (None, None, None) if model in ("full", "reduced") else \
            _polynomial_field(model, game, topology, tuning, initial.delta, freeze_delta)
        if tensor is not None and not tensor.any():
            # an affine field: each RK4 step is exactly one affine map
            times, states = numerics.integrate_affine(
                a, c, initial.t, y0, step, n_steps, record_every=stride)
        else:
            f = _vector_field(model, game, topology, tuning, initial.delta, freeze_delta)
            times, states = numerics.integrate_fixed(
                f, initial.t, y0, step, n_steps, record_every=stride)
        if not np.all(np.isfinite(states[-1])):
            bad = np.where(~np.all(np.isfinite(states), axis=1))[0]
            raise DivergenceError(times[bad[0]], axis)
        if model in ("full", "averaged"):
            u_mat, d_mat = states[:, :game.n_players], states[:, game.n_players:]
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

    x = _played_prices(u_mat, tuning, topology, d_mat, times) if model == "full" \
        else u_mat.copy()
    costs = game.costs(x)
    return Trajectory(
        times=times, u=u_mat, delta=d_mat, x=x, costs=costs, profits=-costs,
        meta=TrajectoryMeta(
            model=model,
            time_axis=axis,
            to_physical=1.0 / scale,
            dt=step,
            stride=stride,
            common_period=period_native,
            deceivers=topology.deceivers,
        ),
    )

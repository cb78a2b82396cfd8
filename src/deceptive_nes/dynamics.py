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
    _Evaluation,
    _matching_polynomials,
    _pseudogradient_basis,
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
    ``delta_k pi_k o u`` in the price rows and the cost Hessian and residual
    cross terms in the gain rows.  The boundary field is ``-K Qbar(delta)
    y``, so its ``c`` and ``T`` are zero.
    """
    n = game.n_players
    if model == "boundary":
        qbar = _Evaluation(game, topology, delta).pert.qbar
        return np.zeros(n), -(tuning.gain[:, None] * qbar), np.zeros((n, n, n))
    pi, p = _pseudogradient_basis(game, topology)
    z, m, idx = list(topology.deceivers), n + topology.n_deceivers, np.arange(n)
    k_w = (tuning.gain / tuning.omega)[:, None]
    g = (0.0 if freeze_delta else topology.eps / tuning.omega) \
        * np.asarray(topology.eps_rates, dtype=float)[:, None]
    const, lin, quad = _residual_polynomial(game, topology, tuning)
    c, a, t = np.zeros(m), np.zeros((m, m)), np.zeros((m, m, m))
    c[:n] = -k_w[:, 0] * game.pseudogradient_offset
    a[:n, :n] = -k_w * game.pseudogradient_matrix
    a[:n, n:] = -k_w * p.T
    t[idx, idx, n:] = -k_w * pi.T
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
        basis = _pseudogradient_basis(game, topology)
        d_gain = rates / tuning.omega

        def f(t, d):
            return d_gain * _Evaluation(game, topology, d, refs, basis).gaps
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
        text = ",".join(cols) + "\n" + line * len(rows) % tuple(rows.ravel().tolist())
        with open(path, "w", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# simulation driver
# ---------------------------------------------------------------------------

#: Above this many players :func:`simulate` steps the full model with the
#: numpy field of :func:`_vector_field` instead of the generated kernel, whose
#: source and compile time grow with the square of the player count.
#: Measured per step on 2 cores (Python 3.11, numpy 2.4), generated against
#: numpy: 126 / 196 µs at N = 20, 216-274 / 282-290 µs at 30, 351 / 307 µs at
#: 34, 550 / 339 µs at 40.
MAX_GENERATED_PLAYERS = 30

#: The same bound for the averaged model, against its numpy polynomial
#: field: the unrolled price rows ``-(K/w) Q0 u`` cost N**2 float operations
#: in Python.  Measured per step as above (two deceivers, one shared victim),
#: generated against numpy: 5.4 / 13.7 µs at N = 6, 13.4 / 16.6 at 12, 16.8
#: / 16.8 at 14, 20.5 / 18.3 at 16, 29.7 / 21.3 at 20; the kernel also costs
#: 0.5-0.9 ms more to set up.  The reduced model with one deceiver has no
#: bound: its stage reads 3|V| + 2 numbers whatever the player count (1.5
#: against 1670 µs per step at N = 30, 2.5 against 10600 at 60).
MAX_GENERATED_AVERAGED_PLAYERS = 13


def _run_loop(state, records, axis, body, prologue=(), params=()) -> str:
    """Source of ``run``, the loop of every generated kernel.

    ``run(*state, t0, dt, n_steps, stride, ts, *buffers, *params)`` runs the
    ``prologue`` lines, then ``n_steps // stride`` blocks of ``stride``
    ``body`` lines (a part-block would record nothing).  They advance the
    floats named in ``state`` by one step and may read ``step``, the steps
    taken once this one ends, ``half = dt / 2`` and ``sixth = dt / 6``.
    After each block it checks the state finite, raising
    :class:`DivergenceError` on the ``axis`` axis, appends the time to
    ``ts`` and, for each ``(buffer, names)`` of ``records``, those floats to
    that buffer.  ``params`` default to the namespace's values: locals.
    """
    buffers = [buffer for buffer, _ in records]
    args = [*state, "t0", "dt", "n_steps", "stride", "ts", *buffers, *(f"{p}={p}" for p in params)]
    run = [f"def run({', '.join(args)}):",
           "    half = 0.5 * dt",
           "    sixth = dt / 6.0",
           *(f"    {line}" for line in prologue),
           "    for last in range(stride, n_steps + 1, stride):",
           "        for step in range(last - stride + 1, last + 1):"]
    run += [f"            {line}" for line in body]
    run += ["        tr = t0 + last * dt",
            f"        if not ({' and '.join(f'isfinite({v})' for v in state)}):",
            f'            raise DivergenceError(tr, "{axis}")',
            "        ts.append(tr)"]
    run += [f"        {buffer}.extend([{', '.join(names)}])" for buffer, names in records]
    return "\n".join(run) + "\n"


def _rk4_body(state, stage) -> list[str]:
    """The lines of one classical RK4 step of the floats named in ``state``,
    for :func:`_run_loop`.  ``stage(r, at, out)`` gives the lines that set
    the floats named in ``out`` to the derivative of RK4 stage ``r`` at the
    point whose components are the expressions ``at``.
    """
    body = []
    for r, step in enumerate((None, "half", "half", "dt"), 1):
        at = state if step is None else [f"{v} + {step} * f{r - 1}{v}" for v in state]
        body += stage(r, at, [f"f{r}{v}" for v in state])
    return body + [f"{v} = {v} + sixth * (f1{v} + 2.0 * (f2{v} + f3{v}) + f4{v})" for v in state]


def _stage_calls(tones=((),) * 4, clock=()):
    """The ``stage`` of :func:`_rk4_body` for a kernel with a compiled
    ``stage``: stage ``r`` calls it with ``tones[r - 1]`` after the point,
    and the ``clock`` lines open stage 2."""
    # the trailing comma keeps a one-component derivative a tuple
    return lambda r, at, out: [*(clock if r == 2 else ()), "".join(f"{o}, " for o in out)
                               + f"= stage({', '.join([*at, *tones[r - 1]])})"]


def _full_kernel(game, topology, tuning, freeze_delta) -> tuple[str, str, dict]:
    """Source of the full model's RK4 ``stage`` and ``run`` loop for this
    market (:func:`_full_source`), and the namespace of numbers they read.
    """
    n = game.n_players
    q, b = game.pseudogradient_matrix.tolist(), game.b.tolist()
    names = {"sin": math.sin}
    for i in range(n):
        amp = names[f"a{i}"] = float(tuning.amplitude[i])
        names[f"w{i}"] = tuning.omega * float(tuning.omega_ratio[i])
        names[f"m{i}"] = -(2.0 * float(tuning.gain[i]) / amp)
        names[f"c{i}"] = float(game.c[i])
        names[f"hq{i}"] = 0.5 * q[i][i]
        names.update({f"q{i}_{j}": v for j, v in enumerate(q[i])})
        names.update({f"b{i}_{j}": v for j, v in enumerate(b[i])})
    for k in range(topology.n_deceivers):
        names[f"g{k}"] = 0.0 if freeze_delta else topology.eps * topology.eps_rates[k]
        names[f"r{k}"] = topology.cost_refs[k]
    return (*_full_source(n, topology.deceivers, topology.victims), names)


@functools.lru_cache(maxsize=16)
def _full_source(n, deceivers, victims) -> tuple[str, str]:
    """Source of the full model's ``stage`` and ``run`` for ``n`` players
    and these deceivers and victims, built once per structure.

    Every player and victim is unrolled and the state travels as separate
    floats.  Every number is a bound name, never a literal.  Sums are flat
    left-to-right chains, in the order ``x = (u + a o s) + (delta . G)(a o
    s)`` and ``J_i = x_i (sum_j Q_ij x_j - Q_ii x_i / 2) + sum_j b_ij x_j +
    c_i``.  The tones at the end of a step, at ``t0 + step * dt``, are those
    at the start of the next, so a step takes ``2 n`` sines.
    """
    players = range(n)
    u, d = [f"u{i}" for i in players], [f"d{k}" for k in range(len(deceivers))]
    state = u + d
    stage = [f"def stage({', '.join(state + [f's{i}' for i in players])}):"]
    stage += [f"    x{i} = u{i} + a{i} * s{i}" for i in players]
    stage += [f"    x{zk} = x{zk} + d{k} * ({' + '.join(f'a{l} * s{l}' for l in vs)})"
              for k, (zk, vs) in enumerate(zip(deceivers, victims))]
    stage += [f"    j{i} = x{i} * ({' + '.join(f'q{i}_{j} * x{j}' for j in players)}"
              f" - hq{i} * x{i}) + ({' + '.join(f'b{i}_{j} * x{j}' for j in players)})"
              f" + c{i}" for i in players]
    stage.append("    return " + "".join(
        [*(f"m{i} * j{i} * s{i}, " for i in players),
         *(f"g{k} * (j{zk} - r{k}), " for k, zk in enumerate(deceivers))]))

    clock = ["tm = te + half", "te = t0 + step * dt"]
    clock += [f"{s}{i} = sin(w{i} * {t})" for s, t in (("h", "tm"), ("e", "te")) for i in players]
    tones = [[f"{s}{i}" for i in players] for s in "ehhe"]
    prologue = ["te = t0", *(f"e{i} = sin(w{i} * t0)" for i in players)]
    body = _rk4_body(state, _stage_calls(tones, clock))
    run = _run_loop(state, [("us", u), ("ds", d)], "t", body, prologue,
                    ["sin", "stage", *(f"w{i}" for i in players)])
    return "\n".join(stage) + "\n", run


def _averaged_kernel(game, topology, tuning, freeze_delta) -> tuple[str, dict]:
    """Source of the averaged model's RK4 ``run`` for this market
    (:func:`_averaged_source`), and the namespace of numbers it reads."""
    c, a, t = _polynomial_field("averaged", game, topology, tuning, None, freeze_delta)
    run, terms = _averaged_source(game.n_players, topology.deceivers, topology.victims)
    names = {}
    for i, row in enumerate(terms):
        names[f"c{i}"] = float(c[i])
        for j, ls in row:
            names[f"a{i}_{j}"] = float(a[i, j])
            for l in ls:
                names[f"t{i}_{j}_{l}"] = float(t[i, j, l] + t[i, l, j] if l != j else t[i, j, j])
    return run, names


@functools.lru_cache(maxsize=16)
def _averaged_source(n, deceivers, victims) -> tuple[str, tuple]:
    """Source of the averaged model's ``run`` for ``n`` players and these
    deceivers and victims, and its terms, built once per structure.

    The field is the polynomial ``c + (A + T y) y`` of
    :func:`_polynomial_field`, unrolled over its structural nonzeros into
    the loop: row ``i`` is ``c_i + sum_j (A_ij + sum_l S_ijl y_l) y_j`` with
    ``S_ijl = T_ijl + T_ilj`` (``T_ijj`` for ``l = j``), and ``terms[i]``
    holds the pairs ``(j, ls)`` of its products ``y_j y_l``.  Price row
    ``i`` reads every ``u`` and, where ``i`` is a victim of deceiver ``k``,
    ``delta_k`` and ``delta_k u_i``; gain row ``k`` reads every ``y``,
    ``u_{z_k}`` times every ``u`` (``q[z_k] / 2``), and ``delta_k`` times
    the gains of the deceivers whose victims overlap its own (``quad``).
    Every number is a parameter of ``run`` bound to the namespace's value,
    so the source depends only on the structure and the loop reads the
    numbers as locals.
    """
    y = [f"u{i}" for i in range(n)] + [f"d{k}" for k in range(len(deceivers))]
    terms = [dict.fromkeys(range(n), ()) for _ in range(n)]
    terms += [dict.fromkeys(range(len(y)), ()) for _ in deceivers]
    for k, vs in enumerate(victims):
        for i in vs:
            terms[i][i] += (n + k,)
            terms[i][n + k] = ()
        terms[n + k][deceivers[k]] = tuple(range(n))
        terms[n + k][n + k] = tuple(n + l for l, ws in enumerate(victims) if set(vs) & set(ws))
    terms = tuple(tuple(row.items()) for row in terms)
    params = []
    for i, row in enumerate(terms):
        params.append(f"c{i}")
        for j, ls in row:
            params += [f"a{i}_{j}", *(f"t{i}_{j}_{l}" for l in ls)]

    def rows(at):
        """The rows at the point whose components are named ``at``."""
        return [" + ".join([f"c{i}", *(
            f"({' + '.join([f'a{i}_{j}', *(f't{i}_{j}_{l} * {at[l]}' for l in ls)])}) * {at[j]}"
            if ls else f"a{i}_{j} * {at[j]}" for j, ls in row)]) for i, row in enumerate(terms)]

    def step(r, at, out):
        point = y if r == 1 else [f"p{v}" for v in y]
        bind = [] if r == 1 else [f"{p} = {a}" for p, a in zip(point, at)]
        return bind + [f"{o} = {row}" for o, row in zip(out, rows(point))]

    run = _run_loop(y, [("us", y[:n]), ("ds", y[n:])], "tau", _rk4_body(y, step), (), params)
    return run, terms


def _reduced_kernel(game, topology, tuning, delta, freeze_delta) -> tuple[str, str, dict]:
    """Source of the reduced model's RK4 ``stage`` and ``run`` for one
    deceiver, and the namespace of numbers they read.

    The field is ``rate F / D**2`` with the matching polynomials ``(F, D)``
    of :func:`~deceptive_nes.deception._matching_polynomials` on the disc of
    radius ``r = 1 + |o|`` around ``o``, which the stage evaluates by
    Horner's rule in ``x = (d - o) / r``.  A stage outside the disc takes
    the gated numpy field of :func:`_vector_field` and centres the disc on
    its gain, so the run keeps its accuracy however far the gain travels.
    The source depends only on |V| and is built once per |V|
    (:func:`_reduced_source`).
    """
    v = len(topology.victims[0])
    rate = 0.0 if freeze_delta else topology.eps_rates[0] / tuning.omega
    q0 = game.pseudogradient_matrix.tolist()
    basis = _pseudogradient_basis(game, topology)
    pi = [abs(x) for x in basis[0][0].tolist()]
    rows = [math.hypot(*row) for row in q0]
    norm_q0 = max(sum(map(abs, row)) for row in q0)
    field = _vector_field("reduced", game, topology, tuning, delta, freeze_delta)

    def centre(o):
        """Bind the coefficients of ``F`` and ``D`` on the disc around ``o``,
        and the singularity screen over it."""
        r = 1.0 + abs(o)
        f, e = _matching_polynomials(game, topology, basis, topology.cost_refs[0], o, r)
        # Screen.  Partial pivoting keeps every pivot at or above 1 /
        # ||Qbar^-1||: the k-th pivot is the largest entry in the first
        # column of a Schur complement whose inverse is a block of Qbar^-1
        # with permuted columns (norms ||.||_inf).  So the gate, which raises
        # on a pivot below 1e-13 ||Qbar||, fails only where ||Qbar^-1|| > 1 /
        # (1e-13 ||Qbar||), that is where |det Qbar| < 1e-13 ||Qbar|| ||adj
        # Qbar||.  Every (n-1)-minor without row i is at most prod_{l != i}
        # rho_l (Hadamard), rho_l the 2-norm of row l, so ||adj Qbar|| <=
        # prod_l rho_l sum_l 1 / rho_l.  With ||Qbar|| <= ||Q0|| + |d| max |pi|
        # and rho_l <= ||row l of Q0|| + |d| |pi_l|, the bound grows with
        # |d|, so its value at |d| = |o| + r covers the disc.  The screen
        # doubles it for the rounding of the gate and adds 1e-13 sum_k |e_k|
        # for the rounding of D.
        a = abs(o) + r
        rho = [row + a * x for row, x in zip(rows, pi)]
        e, f = e[0].tolist(), f[0].tolist()
        screen = 2e-13 * (norm_q0 + a * max(pi)) * math.prod(rho) * sum(1.0 / x for x in rho) \
            + 1e-13 * sum(map(abs, e))
        if not all(map(math.isfinite, [screen, *e, *f])):
            screen = math.inf   # D or F overflows: every stage takes the gated solve
        names.update(o=o, ir=1.0 / r, screen=screen)
        names.update({f"f{k}": c for k, c in enumerate(f)})
        names.update({f"e{k}": c for k, c in enumerate(e)})

    def exact(d):
        """The field by the gated solve, which raises SingularMatrixError
        where ``Qbar(d)`` fails the pivot gate."""
        return float(field(0.0, np.array([d]))[0])

    def recentre(d):
        """The field outside the disc, which moves to be centred on ``d``."""
        if not math.isfinite(d):
            return exact(d)
        centre(d)
        return names["stage"](d)[0]

    names = {"rate": rate, "exact": exact, "recentre": recentre}
    centre(float(delta[0]))
    return (*_reduced_source(v), names)


@functools.lru_cache(maxsize=16)
def _reduced_source(v) -> tuple[str, str]:
    """Source of the reduced model's ``stage`` and ``run`` for a deceiver
    with ``v`` victims."""
    # where |D| falls under the screen the stage takes the gated route, and
    # the gate decides
    stage = ["def stage(d0):",
             "    x = (d0 - o) * ir",
             "    if not -1.0 <= x <= 1.0:",
             "        return recentre(d0),",
             f"    den = e{v}"]
    stage += [f"    den = den * x + e{k}" for k in range(v - 1, -1, -1)]
    stage += ["    if not abs(den) > screen:",
              "        return exact(d0),",
              f"    num = f{2 * v}"]
    stage += [f"    num = num * x + f{k}" for k in range(2 * v - 1, -1, -1)]
    stage.append("    return rate * (num / den / den),")
    run = _run_loop(["d0"], [("ds", ["d0"])], "tau_star", _rk4_body(["d0"], _stage_calls()),
                    params=["stage"])
    return "\n".join(stage) + "\n", run


@functools.lru_cache(maxsize=16)
def _compiled(source: str):
    return compile(source, "<generated RK4 kernel>", "exec")


def _run_kernel(kernel, groups, t0, dt, n_steps, stride) -> tuple[np.ndarray, ...]:
    """Run a generated kernel, its sources (``stage`` and ``run``, or ``run``
    alone) and the namespace they read, from the state ``groups`` (one float
    vector per record buffer) at ``t0`` for ``n_steps // stride`` blocks of
    ``stride`` steps.

    ``stage`` and ``run`` are compiled separately, which keeps the
    compiler's peak memory down, and the code of recent market structures is
    kept compiled.  Recorded samples go straight into flat float buffers, 8
    bytes a number.  Returns the times and, per group, one row per sample.
    """
    *sources, names = kernel
    names.update(isfinite=math.isfinite, DivergenceError=DivergenceError)
    for source in sources:
        exec(_compiled(source), names)
    state = [[float(v) for v in group] for group in groups]
    ts, buffers = array("d", [t0]), [array("d", group) for group in state]
    names["run"](*(v for group in state for v in group), t0, dt, n_steps, stride, ts, *buffers)
    return (np.frombuffer(ts), *(np.frombuffer(buffer).reshape(len(ts), len(group))
                                 for buffer, group in zip(buffers, state)))


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
    :func:`simulate` runs it up to :data:`MAX_GENERATED_PLAYERS` players;
    the test-suite pins it, and the numpy route above that bound, against
    the generic :func:`rhs` + :func:`numerics.rk4_step` route.
    """
    kernel = _full_kernel(game, topology, tuning, freeze_delta)
    return _run_kernel(kernel, (initial.u, initial.delta), initial.t, dt, n_steps, stride)


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
    probing injections stay active.  The affine fields, ``boundary`` and
    ``averaged`` without deceivers, are stepped by
    :func:`numerics.integrate_affine`, one matrix-vector product per recorded
    sample, at every player count.  A start state or frozen gain that is not
    finite raises :class:`DivergenceError` at ``initial.t``.  Runs above
    :data:`MAX_STEPS` steps or :data:`MAX_SAMPLES` recorded samples are
    refused with ``ValueError``, and so are runs whose horizon, common
    probing period or step on the native axis is zero or infinite (a float
    underflow or overflow).
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

    y0 = _pack(model, initial.u, initial.delta)
    # before the step rule or any route builds a field from the state or
    # the boundary model's frozen gain
    if not (np.isfinite(y0).all() and np.isfinite(initial.delta).all()):
        raise DivergenceError(initial.t, axis)
    if dt is not None:
        step = float(dt)
    elif model == "full":
        step = 2.0 * math.pi / (float(np.max(tuning.frequencies())) * oversampling)
    else:
        if model == "reduced":
            lam = _Evaluation(game, topology, initial.delta).lam
            rate = float(np.linalg.norm(lam, np.inf)) / omega
        else:
            qbar = _Evaluation(game, topology, initial.delta).pert.qbar
            rate = float(np.linalg.norm(tuning.gain[:, None] * qbar, np.inf)) / scale
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

    n = game.n_players
    if model == "full" and n <= MAX_GENERATED_PLAYERS:
        times, u_mat, d_mat = _integrate_full(
            game, topology, tuning, initial, step, n_steps, stride, freeze_delta
        )
    elif model == "averaged" and n <= MAX_GENERATED_AVERAGED_PLAYERS and topology.n_deceivers:
        kernel = _averaged_kernel(game, topology, tuning, freeze_delta)
        times, u_mat, d_mat = _run_kernel(
            kernel, (initial.u, initial.delta), initial.t, step, n_steps, stride)
    elif model == "reduced" and topology.n_deceivers == 1:
        # the stage reads |V| + 1 and 2|V| + 1 coefficients, whatever n
        kernel = _reduced_kernel(game, topology, tuning, initial.delta, freeze_delta)
        times, d_mat = _run_kernel(kernel, (initial.delta,), initial.t, step, n_steps, stride)
    else:
        if model == "boundary" or model == "averaged" and not topology.n_deceivers:
            # the field c + A y is affine: each RK4 step is one affine map
            c, a, _ = _polynomial_field(model, game, topology, tuning, initial.delta,
                                        freeze_delta)
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
        else:
            u_mat = states
            d_mat = np.tile(initial.delta, (len(times), 1))
    if model == "reduced":
        u_mat = _Evaluation(game, topology, d_mat).h
        singular = np.flatnonzero(np.isnan(u_mat).any(axis=1))
        if singular.size:  # raise the first singular sample's error
            _Evaluation(game, topology, d_mat[singular[0]]).h

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

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
import keyword
import math
import numbers
import re
import struct
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice, repeat
from typing import Callable, Sequence

import numpy as np

from . import numerics
from .deception import (
    DeceptionTopology,
    _Evaluation,
    _pseudogradient_basis,
    _quasi_equilibria,
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
        omega = float(self.omega)
        ratios = _fractions(self.omega_ratio)
        object.__setattr__(self, "amplitude", a)
        object.__setattr__(self, "gain", k)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "omega_ratio", ratios)
        if a.ndim != 1 or k.shape != a.shape or len(ratios) != a.size:
            raise ValueError("amplitude, gain and omega_ratio must have equal length")
        # checked on plain floats: numpy reductions cost more on a few entries
        al, kl = a.tolist(), k.tolist()
        if not (all(map(math.isfinite, al)) and all(map(math.isfinite, kl))
                and math.isfinite(omega)):
            raise ValueError("amplitudes, gains and omega must be finite")
        if min((*al, *kl, omega)) <= 0.0:
            raise ValueError("amplitudes, gains and omega must be strictly positive")
        if any(r.numerator <= 0 for r in ratios):
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
        return self._frequencies.copy()

    @functools.cached_property
    def _frequencies(self) -> np.ndarray:
        # built once per tuning: a simulate run reads them up to three times.
        # An overflow to inf leaves the full model a zero step, refused there
        with np.errstate(over="ignore"):
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


def _fractions(ratios) -> tuple[Fraction, ...]:
    """``ratios`` as fractions, building one only from a value that is not
    a fraction already.  A fraction's denominator is positive, so its sign
    is its numerator's."""
    return tuple(r if type(r) is Fraction else Fraction(r) for r in ratios)


def common_period_factor(ratios: Sequence[Fraction]) -> Fraction:
    """Exact least common multiple of the inverse frequency ratios.

    ``sin(r_i * tau)`` is periodic with period ``2*pi / r_i``; the returned
    fraction ``L`` makes ``2*pi*L`` a common period of all of them.
    """
    fr = _fractions(ratios)
    if not fr:
        raise ValueError("need at least one frequency ratio")
    if any(r.numerator <= 0 for r in fr):
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
    re-injects each victim's sinusoid scaled by its current gain (``G[k] =
    e_{z_k} H[k]'``, :meth:`DeceptionTopology.victim_mask`).  For an array
    of times ``delta`` holds one row per time and the result one row per time.
    """
    return _played_prices(0.0, tuning, topology, delta, t)


def _played_prices(u, tuning, topology, delta, t) -> np.ndarray:
    """``x = u + (I + delta . G)(a o s)``: ``u + a o s`` plus ``delta_k H[k]
    . (a o s)`` in entry ``z_k``; the full model's generated kernel sums the
    same terms in its sales-form coordinates (:func:`_full_source`)."""
    tones = tuning.amplitude * np.sin(np.multiply.outer(t, tuning.frequencies()))
    x = u + tones
    x[..., list(topology.deceivers)] += delta * (tones @ topology.victim_mask(tuning.n_players).T)
    return x


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
    z = list(topology.deceivers)
    q = game.hessians(z)
    hit = topology.victim_mask(game.n_players)
    const = 0.25 * np.einsum("kmm,m->k", q, a2)
    # G[j] = e_{z_j} H[j]', so lin[k, j] = q[z_k][V_j, z_j] . a_{V_j}^2 / 2
    # and quad[k, j, l] = q[z_k][z_l, z_j] sum_{c in V_j, V_l} a_c^2 / 4
    lin = 0.5 * np.einsum("kmj,jm,m->kj", q[:, :, z], hit, a2)
    quad = 0.25 * q[:, z][:, :, z].transpose(0, 2, 1) * ((hit * a2) @ hit.T)
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


def _affine_field(model, game, topology, tuning, delta):
    """``(c, A)`` with the ``boundary`` field, or the ``averaged`` field of a
    game without deceivers, equal to ``c + A @ y``: ``c = 0`` and ``A = -K
    Qbar(delta)`` for the boundary, ``-(K / omega)(B0, Q0)`` for the
    averaged prices.
    """
    if model == "boundary":
        qbar = _Evaluation(game, topology, delta).pert.qbar
        return np.zeros(game.n_players), -(tuning.gain[:, None] * qbar)
    k_w = (tuning.gain / tuning.omega)[:, None]
    return -k_w[:, 0] * game.pseudogradient_offset, -k_w * game.pseudogradient_matrix


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
    state computed once.  The ``averaged`` field with deceivers is ``du =
    -(K / omega)(Qbar(delta) u + Bbar(delta))`` and ``ddelta = (eps / omega)
    rates (J_z(u) - ref + residual(delta))``; the affine fields are those of
    :func:`_affine_field`.

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
            if not np.isfinite(d).all():   # NaN, without the warnings of Qbar(d)
                return np.full(d.shape, np.nan)
            try:
                return d_gain * _Evaluation(game, topology, d, refs, basis).gaps
            except numerics.SingularMatrixError:
                # past sum_k |d_k| max |pi_k| = 1e13 ||Q0||_inf the gate's
                # threshold tops every entry of Q0: the gain has run off (NaN)
                if np.abs(d) @ np.max(np.abs(basis[0]), axis=1) \
                        < 1e13 * np.linalg.norm(game.pseudogradient_matrix, np.inf):
                    raise
                return np.full(d.shape, np.nan)
    elif model == "averaged" and topology.n_deceivers:
        pi, p = _pseudogradient_basis(game, topology)
        q0, b0 = game.pseudogradient_matrix, game.pseudogradient_offset
        k_w, d_gain = tuning.gain / tuning.omega, topology.eps * rates / tuning.omega
        const, lin, quad = _residual_polynomial(game, topology, tuning)
        # the deceivers' rows of QuadraticGame.costs
        qz, hz, bz, cz = q0[z], 0.5 * np.diagonal(q0)[z], game.b[z], game.c[z]

        def f(t, y):
            u, d = y[:n], y[n:]
            du = -k_w * (q0 @ u + (d @ pi) * u + b0 + d @ p)
            residual = const + (lin + quad @ d) @ d
            uz = u[z]
            costs = uz * (qz @ u - hz * uz) + bz @ u + cz
            return np.concatenate([du, d_gain * (costs - refs + residual)])
    else:
        c, a = _affine_field(model, game, topology, tuning, delta)

        def f(t, y):
            return c + a @ y
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
        ``P_1..P_N``.  Each block of columns is formatted in one ``%`` pass,
        and reuses strings where the arrays are bitwise equal: ``x`` those of
        ``u``, a constant ``delta`` its first row's, and ``P`` those of ``J``
        sign-flipped where ``profits`` is ``-costs`` and no cost is NaN
        (``%.12g`` prints ``nan`` for either sign).
        """
        players = range(1, self.u.shape[1] + 1)
        cols = ["t", *(f"u_{i}" for i in players),
                *(f"delta_{z + 1}" for z in self.meta.deceivers),
                *(f"{c}_{i}" for c in "xJP" for i in players)]
        m, d = len(self.times), self.delta

        def text(block):   # the block's rows, joined by newlines
            fmt = ",".join(["%.12g"] * block.shape[1])
            return "\n".join([fmt] * len(block)) % tuple(block.ravel().tolist())

        u, costs = text(self.u).splitlines(), text(self.costs)
        x = u if self.x.tobytes() == self.u.tobytes() else text(self.x).splitlines()
        if m and self.profits.tobytes() == (-self.costs).tobytes() \
                and not np.isnan(self.costs).any():
            profits = ("-" + costs.replace("\n", "\n-")).replace(",", ",-").replace("--", "")
        else:
            profits = text(self.profits)
        blocks = [text(self.times[:, None]).splitlines(), u, x, costs.splitlines(),
                  profits.splitlines()]
        if d.shape[1]:
            same = d[1:].tobytes() == d[:1].tobytes() * (m - 1)
            blocks.insert(2, [text(d[:1])] * m if same else text(d).splitlines())
        with open(path, "w", newline="") as fh:
            fh.write("\n".join(chain([",".join(cols)], map(",".join, zip(*blocks)))) + "\n")


# ---------------------------------------------------------------------------
# simulation driver
# ---------------------------------------------------------------------------

def _rk4_body(state, stage) -> list[str]:
    """The lines of one classical RK4 step of the floats named in ``state``.
    ``stage(r, at, out)`` gives the lines that set the floats named in
    ``out`` to the derivative of RK4 stage ``r`` at the point whose
    components are the expressions ``at``.
    """
    body = []
    for r, step in enumerate((None, "half", "half", "dt"), 1):
        at = state if step is None else [f"{v} + {step} * f{r - 1}{v}" for v in state]
        body += stage(r, at, [f"f{r}{v}" for v in state])
    return body + [f"{v} = {v} + sixth * (f1{v} + 2.0 * (f2{v} + f3{v}) + f4{v})" for v in state]


def _block_source(state, carried, stage, prices=0) -> str:
    """Source of a kernel's ``block(*carried, blocks, record, half, sixth,
    dt)``, which integrates a whole record in one call: per item ``rows`` of
    ``blocks``, one RK4 step (:func:`_rk4_body`) of the floats named in
    ``state`` per item ``row`` of ``rows``, then ``record`` of the state as
    a tuple.  It stops after the first recorded state that is not finite,
    where the first ``prices`` floats ``z_i`` count through their prices
    ``u_i = z_i / v_i + m_i``: a sum of ``x - x`` over them and the rest,
    zero unless one is infinite or NaN.  That test reads ``v{i}`` and
    ``m{i}`` from the namespace once a block; every other name the steps
    read and never set, a number of the market, is a parameter bound to the
    namespace's value: a local.
    """
    body = _rk4_body(state, stage)
    tested = [f"u{i}" for i in range(prices)] + state[prices:]
    check = [*(f"u{i} = {state[i]} / v{i} + m{i}" for i in range(prices)),
             f"zero = {' + '.join(f'({x} - {x})' for x in tested)}"]
    # a line "x = ..." or "x, y, = ..." sets the names left of its " = "
    assigned = {x for line in body if " = " in line
                for x in re.findall(r"\w+", line.partition(" = ")[0])}
    read = {x for line in body for x in re.findall(r"[^\W\d]\w*", line)}
    given = {*carried, "row", "half", "sixth", "dt", *keyword.kwlist}
    numbers = sorted(read - assigned - given)
    args = [*carried, "blocks", "record", "half", "sixth", "dt",
            *(f"{x}={x}" for x in numbers)]
    # the trailing comma keeps a one-float state a tuple
    return "\n".join([f"def block({', '.join(args)}):",
                      "    for rows in blocks:",
                      "        for row in rows:",
                      *(f"            {line}" for line in body),
                      f"        record(({', '.join(state)},))",
                      *(f"        {line}" for line in check),
                      "        if zero != zero:",
                      "            break"]) + "\n"


def _sales_costs(y, players, total=None) -> list[str]:
    """Lines setting ``total`` to ``Z`` (the expression ``total``, or the
    sum of every ``y[i]``, left to right) and ``j{i}`` to the sales-form
    cost ``J_i = z_i (th_i z_i + be_i - Z) + ga_i`` of each of ``players``,
    with ``y[i]`` naming ``z_i``."""
    return [f"total = {' + '.join(y) if total is None else total}",
            *(f"j{i} = {y[i]} * (th{i} * {y[i]} + be{i} - total) + ga{i}" for i in players)]


def _full_kernel(game, topology, tuning, freeze_delta) -> tuple:
    """The full model's kernel ``(source, names, v, m, tones)`` for this
    market (:func:`_run_kernel`): its ``block`` (:func:`_full_source`), the
    numbers it reads, the sales form's ``v`` and ``m``, and :func:`_tone_rows`
    on the market's tone numbers.  It steps the coordinates ``z = v o (u -
    m)`` of the game's sales form (:attr:`QuadraticGame.sales_form`); RK4
    commutes with that affine map, so the run equals RK4 on ``u`` up to
    rounding.  Raises ``ValueError`` for a game without the sales form.
    """
    form = game.sales_form
    if form is None:
        raise ValueError("the game's costs have no sales form; step the numpy field")
    v, m, theta, beta, gamma = form
    a = tuning.amplitude * v
    k = -(2.0 * tuning.gain / tuning.amplitude) * v
    injections = [(list(vs), tuning.amplitude[list(vs)] * v[zk])
                  for zk, vs in zip(topology.deceivers, topology.victims)]
    names = {f"{key}{i}": x for key, values in (("th", theta), ("be", beta), ("ga", gamma))
             for i, x in enumerate(values.tolist())}
    for j in range(topology.n_deceivers):
        names[f"g{j}"] = 0.0 if freeze_delta else topology.eps * topology.eps_rates[j]
        names[f"r{j}"] = topology.cost_refs[j]
    tones = functools.partial(_tone_rows, a, k, tuning.frequencies(), injections)
    return _full_source(game.n_players, topology.deceivers, topology.victims), names, v, m, tones


#: Steps of tones that :func:`_tone_rows` computes per fill of its table:
#: enough to spread numpy's per-call cost thin, few enough that its buffers
#: (about 2(5N + 2K) floats a step) stay small next to the recorded
#: samples.
_TONE_CHUNK = 256


def _tone_rows(a, k, w, injections, t0, dt, n_steps):
    """The full model's tones at the points its RK4 steps read them, scaled
    as its kernel uses them, as an iterator of rows.

    A row at time ``t`` holds ``a_i s_i``, ``k_i s_i`` and, per deceiver,
    ``sum_l c_l s_l`` over its victims ``l`` (``injections`` holds their
    indices and coefficients ``c``), with ``s_i = sin(w_i t)``, each float
    as the scalar expression gives it.  The first row is at ``t0``; then
    step ``j`` of ``n_steps`` has one row of two: at its midpoint ``te +
    dt / 2`` and at its end, with ``te = t0 + j dt`` the end of step ``j -
    1`` (``t0`` for the first).  The rows are computed :data:`_TONE_CHUNK`
    steps at a time into one table, filled in place, and read out lazily as
    tuples, so memory stays bounded at any stride or horizon.
    """
    n = w.size
    width = 2 * n + len(injections)
    # one quantity a row, so numpy's loops run along the times, then the
    # table of rows that the kernel reads
    sines, columns = np.empty((n, 2 * _TONE_CHUNK)), np.empty((width, 2 * _TONE_CHUNK))
    table = np.empty((2 * _TONE_CHUNK, width))
    a, k = a[:, None], k[:, None]

    def fill(times):
        """The rows at ``times``: a view of the table."""
        s, cols = sines[:, :len(times)], columns[:, :len(times)]
        np.sin(np.multiply.outer(w, times, out=s), out=s)
        np.multiply(s, a, out=cols[:n])
        np.multiply(s, k, out=cols[n:2 * n])
        for acc, (victims, coeffs) in zip(cols[2 * n:], injections):
            np.multiply(s[victims[0]], coeffs[0], out=acc)
            for l, c in zip(victims[1:], coeffs[1:]):
                acc += s[l] * c
        out = table[:len(times)]
        np.copyto(out, cols.T)
        return out

    def chunks():
        yield fill(np.array([t0])).tolist()
        rows = struct.Struct(f"{2 * width}d")
        for done in range(0, n_steps, _TONE_CHUNK):
            te = t0 + np.arange(done, min(done + _TONE_CHUNK, n_steps) + 1) * dt
            # each step's midpoint, then its end
            yield rows.iter_unpack(fill(np.stack([te[:-1] + 0.5 * dt, te[1:]], axis=1).ravel()))

    # chain hands out the rows in C, with no generator resumed per row
    return chain.from_iterable(chunks())


@functools.lru_cache(maxsize=16)
def _full_source(n, deceivers, victims) -> str:
    """Source of the full model's ``block`` (:func:`_block_source`) for
    ``n`` players and these deceivers and victims, built once per structure.

    The state is ``z_i = v_i (u_i - m_i)`` and ``d_k``, carried with the
    tones at the last step's end; a step unpacks its row of
    :func:`_tone_rows`.  The played price is ``y = (z + a o s) + (delta .
    G)(a o s)`` in the same coordinates (the rows scale ``a o s`` by ``v``,
    and ``(G a o s)_{z_k}`` by ``v_{z_k}``), and a stage is O(n): ``Z =
    sum_j y_j`` and ``J_i = y_i (theta_i y_i + beta_i - Z) + gamma_i``,
    chains summed left to right (:func:`_sales_costs`), and ``dz_i = J_i
    (k_i s_i)``.
    """
    players = range(n)
    z, d = [f"z{i}" for i in players], [f"d{k}" for k in range(len(deceivers))]
    state = z + d

    def tone_names(prefix):
        return [*(f"{prefix}{x}{i}" for x in "ak" for i in players),
                *(f"{prefix}{x}" for x in d)]

    def stage(r, at, out):
        t = "ehhe"[r - 1]
        # stage 1 reads the tones at the step's start, the last row's end
        # ones, before the step's own row is unpacked
        lines = [f"{', '.join(tone_names('h') + tone_names('e'))} = row"] if r == 2 else []
        lines += [f"y{i} = {at[i]} + {t}a{i}" for i in players]
        lines += [f"y{zk} = y{zk} + {at[n + k] if r == 1 else f'({at[n + k]})'} * {t}d{k}"
                  for k, zk in enumerate(deceivers)]
        lines += _sales_costs([f"y{i}" for i in players], players)
        lines += [f"{out[i]} = j{i} * {t}k{i}" for i in players]
        return lines + [f"{out[n + k]} = g{k} * (j{zk} - r{k})" for k, zk in enumerate(deceivers)]

    return _block_source(state, state + tone_names("e"), stage, n)


def _averaged_kernel(game, topology, tuning, freeze_delta) -> tuple:
    """The averaged model's kernel ``(source, names, v, m, None)`` for this
    market (:func:`_run_kernel`), with the source of :func:`_averaged_source`.

    It steps the sales coordinates ``z = v o (u - m)`` of the game's
    :attr:`~QuadraticGame.sales_form`, as the full kernel does.  There the
    price rows of the field of :func:`_vector_field` are ``dz_i = -(k_i v_i^2 /
    omega)((2 theta_i - 1) z_i + beta_i - Z - z_i sum_{k: i in V_k} delta_k
    v_{z_k} / v_i)``, and gain row ``k`` is ``g_k (J_{z_k} - ref_k +
    residual_k)``.
    """
    v, m, theta, beta, gamma = game.sales_form
    const, lin, quad = _residual_polynomial(game, topology, tuning)
    source, residual = _averaged_source(game.n_players, topology.deceivers, topology.victims)
    names = {f"{key}{i}": x for key, values in (
        ("th", theta), ("be", beta), ("ga", gamma),
        ("kv", -(tuning.gain / tuning.omega) * v * v), ("ct", 2.0 * theta - 1.0),
    ) for i, x in enumerate(values.tolist())}
    g = 0.0 if freeze_delta else topology.eps / tuning.omega
    for k, (zk, vs, (js, ls)) in enumerate(zip(topology.deceivers, topology.victims, residual)):
        pair = quad[k, k] + quad[k, :, k]   # of delta_k delta_l, l != k
        pair[k] = quad[k, k, k]             # of delta_k^2
        names.update({f"g{k}": g * topology.eps_rates[k], f"r{k}": topology.cost_refs[k],
                      f"c{k}": float(const[k]), **{f"s{k}_{l}": float(pair[l]) for l in ls},
                      **{f"dv{k}_{i}": float(v[zk] / v[i]) for i in vs},
                      **{f"l{k}_{j}": float(lin[k, j]) for j in js}})
    return source, names, v, m, None


@functools.lru_cache(maxsize=16)
def _averaged_source(n, deceivers, victims) -> tuple[str, tuple]:
    """Source of the averaged model's ``block`` (:func:`_block_source`) for
    ``n`` players and these deceivers and victims, and its residual terms,
    built once per structure.

    A stage is O(n + sum_k |V_k|).  ``residual[k] = (js, ls)`` makes
    deceiver ``k``'s residual ``c_k + delta_k sum_{l in ls} s_kl delta_l +
    sum_{j in js} l_kj delta_j``: ``q[z_k]`` lives in row and column
    ``z_k``, so ``lin[k, j]`` is nonzero only where ``j = k`` or ``z_k`` is
    a victim of ``j``, and ``quad[k, j, l]`` where ``k`` is ``j`` or ``l``
    and the victims of ``j`` and ``l`` overlap.
    """
    players = range(n)
    z, d = [f"z{i}" for i in players], [f"d{k}" for k in range(len(deceivers))]
    state = z + d
    hits = [[k for k, vs in enumerate(victims) if i in vs] for i in players]
    residual = tuple((tuple(j for j, ws in enumerate(victims) if j == k or zk in ws),
                      tuple(l for l, ws in enumerate(victims) if set(vs) & set(ws)))
                     for k, (zk, vs) in enumerate(zip(deceivers, victims)))

    def stage(r, at, out):
        point = state if r == 1 else [f"p{x}" for x in state]
        lines = [] if r == 1 else [f"{p} = {a}" for p, a in zip(point, at)]
        pz, pd = point[:n], point[n:]
        lines += _sales_costs(pz, deceivers)
        for i in players:
            own = "".join(f" - {pd[k]} * dv{k}_{i}" for k in hits[i])
            lines.append(f"{out[i]} = kv{i} * ({pz[i]} * (ct{i}{own}) + be{i} - total)")
        for k, (zk, (js, ls)) in enumerate(zip(deceivers, residual)):
            quad = " + ".join([f"l{k}_{k}", *(f"s{k}_{l} * {pd[l]}" for l in ls)])
            cross = "".join(f" + l{k}_{j} * {pd[j]}" for j in js if j != k)
            row = f"j{zk} - r{k} + c{k} + {pd[k]} * ({quad}){cross}"
            lines.append(f"{out[n + k]} = g{k} * ({row})")
        return lines

    return _block_source(state, state, stage, n), residual


def _reduced_kernel(game, topology, tuning, freeze_delta, basis=None) -> tuple:
    """The reduced model's kernel ``(source, names, v, m, None)`` for this
    market (:func:`_run_kernel`), with the source of :func:`_reduced_source`
    and no prices to map (empty ``v`` and ``m``); ``basis`` is the market's
    :func:`_pseudogradient_basis`, if built.

    In the sales form ``Qbar = diag(D) - v v'``, so Sherman-Morrison gives
    ``h = -(y + g D^-1 v)`` with ``y = D^-1 Bbar``, ``s = 1 - v' D^-1 v``
    and ``g = v'y / s``, and ``Z = v'(h - m) = -g - v'm``.  The rows nobody
    deceives add the same terms at every gain, bound once as ``s0``, ``sy``
    and ``rs``.  The namespace's ``gated`` is the numpy field.
    """
    v, m, theta, beta, gamma = game.sales_form
    pi, p = _pseudogradient_basis(game, topology) if basis is None else basis
    q0, b0 = game.pseudogradient_matrix, game.pseudogradient_offset
    union = set(chain(*topology.victims))
    rest = [i for i in range(game.n_players) if i not in union]
    diag = np.diagonal(q0) + v * v
    # built by the first stage that fails the screen, if one does
    field = functools.cache(lambda: _vector_field("reduced", game, topology, tuning, None,
                                                  freeze_delta))

    def gated(*d):   # raises SingularMatrixError where Qbar(d) fails the gate
        return tuple(field()(0.0, np.array(d)).tolist())

    with np.errstate(divide="ignore", invalid="ignore"):
        # a zero D_i of a row nobody deceives sends every stage to the gate
        r, y = v[rest] / diag[rest], b0[rest] / diag[rest]
        names = {"gated": gated, "s0": 1.0 - float(v[rest] @ r), "sy": float(v[rest] @ y),
                 "rs": float(np.sum(np.abs(r))), "vm": float(v @ m),
                 "iv": 1.0 / float(np.min(np.abs(v))),
                 "tq": 2e-13 * float(np.max(np.sum(np.abs(q0), axis=1)))}
    for key, values in (("v", v), ("m", m), ("th", theta), ("be", beta), ("ga", gamma),
                        ("e", diag), ("b", b0)):
        names.update((f"{key}{i}", x) for i, x in enumerate(values.tolist()))
    names.update(zip([f"y{i}" for i in rest] + [f"r{i}" for i in rest], y.tolist() + r.tolist()))
    for k, vs in enumerate(topology.victims):
        names.update({f"tp{k}": 2e-13 * float(np.max(np.abs(pi[k]))),
                      f"rate{k}": 0.0 if freeze_delta else topology.eps_rates[k] / tuning.omega,
                      f"ref{k}": topology.cost_refs[k]})
        names.update((f"{x}{k}_{i}", float(a[k, i])) for x, a in (("c", pi), ("p", p)) for i in vs)
    return _reduced_source(topology.deceivers, topology.victims), names, v[:0], m[:0], None


@functools.lru_cache(maxsize=16)
def _reduced_source(deceivers, victims) -> str:
    """Source of the reduced model's ``block`` (:func:`_block_source`) for
    these deceivers and victims, built once per structure: a stage is O(|V|
    + K), ``V`` the union of the victim sets.  A stage whose point fails the
    screen takes the namespace's ``gated`` field instead of the closed form.

    The screen.  Partial pivoting keeps every pivot at or above 1 /
    ||Qbar^-1||_inf (the k-th is the largest entry in the first column of a
    Schur complement whose inverse is a block of Qbar^-1), so the gate
    raises only where 1e-13 ||Qbar|| ||Qbar^-1|| >= 1.  With ``r = D^-1 v``
    and ``rho = sum |r_i|``, ``Qbar^-1 = D^-1 + r r' / s`` gives
    ||Qbar^-1|| <= rho / min |v| + rho^2 / |s|.  The closed form runs only
    where that times ``tq + sum_k |d_k| tp_k`` (at least twice the gate's
    threshold) is below 1, multiplied out by ``|s|`` so that no ``D_i`` or
    ``s`` divides unless nonzero; a NaN gain fails the screen.
    """
    d = [f"d{k}" for k in range(len(deceivers))]
    union = sorted(set(chain(*victims)))

    def stage(r, at, out):
        pd = d if r == 1 else [f"p{x}" for x in d]

        def deceived(base, coeff, i):
            return base + "".join(f" + {pd[k]} * {coeff}{k}_{i}"
                                  for k, vs in enumerate(victims) if i in vs)

        tol = "tq" + "".join(f" + abs({x}) * tp{k}" for k, x in enumerate(pd))
        gate = f"{', '.join(out)}, = gated({', '.join(pd)})"
        closed = [*(f"y{i} = ({deceived(f'b{i}', 'p', i)}) / D{i}" for i in union),
                  f"g = (sy{''.join(f' + v{i} * y{i}' for i in union)}) / s",
                  *(f"x{zk} = -v{zk} * (y{zk} + r{zk} * g + m{zk})" for zk in deceivers),
                  *_sales_costs({zk: f"x{zk}" for zk in deceivers}, deceivers, "-g - vm"),
                  *(f"{o} = rate{k} * (j{zk} - ref{k})"
                    for k, (o, zk) in enumerate(zip(out, deceivers)))]
        nonzero = " and ".join(f"D{i}" for i in union)
        return [*(f"{x} = {a}" for x, a in zip(pd, at) if x != a),
                *(f"D{i} = {deceived(f'e{i}', 'c', i)}" for i in union),
                f"if {nonzero}:",
                *(f"    r{i} = v{i} / D{i}" for i in union),
                f"    s = s0{''.join(f' - v{i} * r{i}' for i in union)}",
                f"    rho = rs{''.join(f' + abs(r{i})' for i in union)}",
                "    a = abs(s)",
                f"if {nonzero} and ({tol}) * rho * (a * iv + rho) < a:",
                *(f"    {line}" for line in closed),
                "else:",
                f"    {gate}"]

    return _block_source(d, d, stage)


@functools.lru_cache(maxsize=16)
def _compiled(source: str):
    return compile(source, "<generated RK4 kernel>", "exec")


def _run_kernel(kernel, y0, t0, dt, n_steps, stride) -> tuple[np.ndarray, np.ndarray]:
    """Run a kernel ``(source, names, v, m, tones)`` from the packed state
    ``y0`` at ``t0`` for ``n_steps`` steps, recording as
    :func:`numerics.integrate_fixed` does, ``(times, states)``: ``y0``,
    each block of ``stride`` steps and a trailing part-block, through the
    first block whose end state is not finite, a price ``u`` that overflows
    included.

    The first ``len(v)`` floats are prices, stepped as ``z = v o (u - m)``.
    ``block`` (:func:`_block_source`), compiled once per source, integrates
    the whole record in one call, with ``v`` and ``m`` bound as the numbers
    ``v{i}`` and ``m{i}`` of its price test.  It takes the rows of ``tones(t0,
    dt, n_steps)``, whose first row carries on with the state, or ``None``s,
    one ``islice`` of them per recording block, and extends one flat float
    buffer with each block's end state.  The samples are mapped back in
    place, ``u = z / v + m`` one column at a time, the floats of the price
    test; the times are ``t0 + k dt`` after ``k`` steps.
    """
    source, names, v, m, tones = kernel
    n = len(v)
    names.update(zip([f"{x}{i}" for x in "vm" for i in range(n)], [*v.tolist(), *m.tolist()]))
    exec(_compiled(source), names)
    # a np.float64 step or start time costs the loop 4-5x
    t0, dt = float(t0), float(dt)
    y = np.array(y0, dtype=float)
    ys = array("d", y.tolist())
    y[:n] = v * (y[:n] - m)
    carried = y.tolist()
    if tones is None:
        rows = repeat(None)
    else:
        rows = tones(t0, dt, n_steps)
        carried += next(rows)
    # the steps of each recording block: whole strides, then a part-block
    whole, part = divmod(n_steps, stride)
    counts = chain(repeat(stride, whole), [part] if part else [])
    names["block"](*carried, map(islice, repeat(rows), counts), ys.extend, 0.5 * dt,
                   dt / 6.0, dt)
    states = np.frombuffer(ys).reshape(-1, y.size)
    with np.errstate(over="ignore"):
        for i in range(n):   # a whole-view ufunc would copy the record
            col = states[1:, i]
            np.add(np.divide(col, v[i], out=col), m[i], out=col)
    steps = np.minimum(np.arange(len(states)) * stride, n_steps)
    return t0 + steps * dt, states


def _bounded_int(name: str, value, low: int) -> int:
    """``value`` as an int, if it is an integer (not a bool) in
    ``low..MAX_STEPS``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or not low <= value <= MAX_STEPS:
        raise ValueError(f"{name} must be an integer in {low}..{MAX_STEPS}, got {value!r}")
    return int(value)


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
    axis; ``stride`` records every that-many steps, in whole strides past
    the horizon, or one part-block for a horizon short of a stride: up to the
    first step at or past it.  ``oversampling`` sets
    the full-model step to ``2*pi / (w_max * oversampling)`` (at least 16
    steps per fastest probing period); dither-free models pick their step
    from their own rate bounds unless ``dt`` (native-axis units) is given.
    ``stride`` and ``oversampling`` are integers, not bools.
    ``freeze_delta`` holds deceiver gains at their initial values while the
    probing injections stay active.

    Every route takes the packed state and returns a packed ``(times,
    states)`` record: the affine fields' block maps
    (:func:`numerics.integrate_affine`, ``boundary`` and ``averaged``
    without deceivers), else a generated kernel (:func:`_run_kernel`)
    wherever the costs have the sales form of
    :attr:`QuadraticGame.sales_form`, as every market's do, else the numpy
    field (:func:`numerics.integrate_fixed`).  Each stops after the first block
    whose end state is not finite, and that block's end time is the time of
    the :class:`DivergenceError` raised, so a diverging run costs only the
    steps up to its divergence.  A start state or frozen gain that is not
    finite raises :class:`DivergenceError` at ``initial.t``.  Runs above
    :data:`MAX_STEPS` steps or :data:`MAX_SAMPLES` recorded samples are
    refused with ``ValueError``, and so are runs whose horizon, common
    probing period or step on the native axis is zero or infinite (a float
    underflow or overflow), and runs from a start time that is not finite
    or that one step does not move.
    """
    if model not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {model!r}")
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    if dt is not None and not dt > 0.0:
        raise ValueError("dt must be positive")
    stride = _bounded_int("stride", stride, 1)
    # an oversampling below 16 does not resolve the dither
    oversampling = _bounded_int("oversampling", oversampling, 16)
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
    # one basis for the reduced model's step rule, kernel and prices; one
    # affine field c + A y (:func:`_affine_field`), whose A = -K Qbar(delta0)
    # sets the boundary's step
    basis = _pseudogradient_basis(game, topology) if model == "reduced" else None
    affine = model == "boundary" or model == "averaged" and not topology.n_deceivers
    if affine:   # a gain / omega that overflows leaves a zero step, refused below
        with np.errstate(over="ignore", invalid="ignore"):
            c, a = _affine_field(model, game, topology, tuning, initial.delta)
    step_rule = ""   # what a refusal of the step count should name
    if dt is not None:
        step = float(dt)
    elif model == "full":
        step = 2.0 * math.pi / (float(np.max(tuning.frequencies())) * oversampling)
    else:
        if model == "reduced":
            lam = float(np.linalg.norm(_Evaluation(game, topology, initial.delta,
                                                   basis=basis).lam, np.inf))
            rate = lam / omega
            step_rule = (f"; the reduced model's step is 0.2 / (||Lambda(delta0)||_inf / omega) "
                         f"at the start gain delta0 = {initial.delta.tolist()}, where "
                         f"||Lambda(delta0)||_inf = {lam:.4g}")
        elif model == "boundary":
            rate = float(np.linalg.norm(a, np.inf)) / scale
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
    if not (math.isfinite(initial.t) and initial.t + step != initial.t):
        raise ValueError(
            f"the start time on the {axis} axis is {initial.t:.6g}; it must be "
            f"finite and move by the integration step {step:.6g}"
        )

    blocks = native_horizon / (step * stride)   # may be huge, inf or NaN
    if not (blocks * stride <= MAX_STEPS and blocks + 1.0 <= MAX_SAMPLES):
        raise ValueError(
            f"the run needs {blocks * stride:.4g} steps and {blocks + 1.0:.4g} "
            f"recorded samples; the caps are {MAX_STEPS} steps and "
            f"{MAX_SAMPLES} samples{step_rule}"
        )
    # whole strides, rounded up, or one part-block ending within a step
    n_steps = stride * math.ceil(blocks - 1e-9) if blocks >= 1.0 \
        else max(1, math.ceil(native_horizon / step - 1e-9))

    n = game.n_players
    if affine:   # each RK4 step is one affine map
        times, states = numerics.integrate_affine(
            a, c, initial.t, y0, step, n_steps, record_every=stride)
    elif game.sales_form is not None:
        # unrolled float arithmetic in the sales form, O(n + sum_k |V_k|) a stage
        build = {"full": _full_kernel, "averaged": _averaged_kernel,
                 "reduced": functools.partial(_reduced_kernel, basis=basis)}
        kernel = build[model](game, topology, tuning, freeze_delta)
        times, states = _run_kernel(kernel, y0, initial.t, step, n_steps, stride)
    else:
        f = _vector_field(model, game, topology, tuning, initial.delta, freeze_delta)
        times, states = numerics.integrate_fixed(
            f, initial.t, y0, step, n_steps, record_every=stride)
    # every route stops recording at its first state that is not finite
    if not all(map(math.isfinite, states[-1].tolist())):
        raise DivergenceError(times[-1], axis)
    if model == "reduced":
        d_mat = states
        u_mat = _quasi_equilibria(game, topology, d_mat, basis)
        singular = np.flatnonzero(np.isnan(u_mat).any(axis=1))
        if singular.size:  # raise the first singular sample's error
            _Evaluation(game, topology, d_mat[singular[0]], basis=basis).h
    elif model == "boundary":
        u_mat, d_mat = states, np.tile(initial.delta, (len(times), 1))
    else:
        u_mat, d_mat = states[:, :n], states[:, n:]

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

"""Deception topology, perturbed pseudogradient, stability set and attainability.

A subset of players ("deceivers") each inject copies of selected other
players' ("victims") probing signals, scaled by a gain ``delta_k``.  All of
that is one linear map: the injection tensor ``G`` of
:meth:`DeceptionTopology.injection`, with ``G[k, z_k, l] = 1`` for every
victim ``l`` of deceiver ``z_k``.  The played prices are

    x = u + (I + delta . G)(a o s),      delta . G = sum_k delta_k G[k],

for learned actions ``u`` and probing tones ``a o s``.  On the slow
timescale this perturbs the game's pseudogradient: victim rows of the
pseudogradient matrix pick up delta-dependent terms while everything else is
untouched, ``Qbar(d) = Q0 + sum_k d_k P_k`` and ``Bbar(d) = B0 + sum_k d_k
p_k``.  This module computes that perturbed pair, the resulting
quasi-equilibrium ``h(d) = -Qbar(d)^{-1} Bbar(d)``, membership in the
stability-preserving gain set, and roots of the deceivers' cost-matching
conditions (attainability).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from . import numerics
from .oligopoly import QuadraticGame

#: A matrix ``M`` counts as Hurwitz iff max Re lambda(M) < -HURWITZ_RTOL*(1+||M||_inf).
HURWITZ_RTOL = 1e-8

#: Cost-matching tolerance: a reference is met when
#: ``|J - J_ref| <= MATCH_RTOL * (1 + |J_ref|)``.
MATCH_RTOL = 1e-8


def is_hurwitz(m: np.ndarray) -> bool | np.ndarray:
    """Deterministic Hurwitz test with a relative margin.

    Declares ``m`` Hurwitz iff its spectral abscissa is below
    ``-HURWITZ_RTOL * (1 + ||m||_inf)``, so marginal cases are rejected.
    For a stack of matrices the verdict is an array, one per matrix.
    """
    m = np.asarray(m, dtype=float)
    if m.size == 0:
        return True
    scale = np.max(np.sum(np.abs(m), axis=-1), axis=-1)
    verdict = numerics.spectral_abscissa(m) < -HURWITZ_RTOL * (1.0 + scale)
    return verdict if m.ndim > 2 else bool(verdict)


@dataclass(frozen=True)
class DeceptionTopology:
    """Who deceives whom, and with what gains and target costs.

    ``deceivers`` is an ordered tuple of player indices; entry ``k`` of every
    other field belongs to deceiver ``deceivers[k]``.  ``victims[k]`` lists
    the players whose probing signal deceiver ``k`` re-injects.  ``eps`` is
    the shared slow-timescale gain of the delta adaptation, ``eps_rates`` the
    per-deceiver rates, and ``cost_refs`` the per-deceiver target costs.

    All player indices are 0-based.  An empty topology (no deceivers) is
    valid and reduces every computation to the unperturbed game.
    """

    deceivers: tuple[int, ...]
    victims: tuple[tuple[int, ...], ...]
    eps: float = 1.0
    eps_rates: tuple[float, ...] | None = None
    cost_refs: tuple[float, ...] | None = None

    def __post_init__(self):
        decs = tuple(int(i) for i in self.deceivers)
        vics = tuple(tuple(int(j) for j in v) for v in self.victims)
        object.__setattr__(self, "deceivers", decs)
        object.__setattr__(self, "victims", vics)
        if len(vics) != len(decs):
            raise ValueError(f"{len(decs)} deceivers but {len(vics)} victim sets")
        if len(set(decs)) != len(decs):
            raise ValueError("deceiver indices must be distinct")
        for i, v in zip(decs, vics):
            if not v:
                raise ValueError(f"deceiver {i} has an empty victim set")
            if i in v:
                raise ValueError(f"deceiver {i} cannot target itself")
            if len(set(v)) != len(v):
                raise ValueError(f"duplicate victims for deceiver {i}")
        n = len(decs)
        rates = tuple(map(float, (1.0,) * n if self.eps_rates is None else self.eps_rates))
        refs = tuple(map(float, (0.0,) * n if self.cost_refs is None else self.cost_refs))
        object.__setattr__(self, "eps_rates", rates)
        object.__setattr__(self, "cost_refs", refs)
        object.__setattr__(self, "eps", float(self.eps))
        if len(rates) != n or len(refs) != n:
            raise ValueError("eps_rates and cost_refs must have one entry per deceiver")
        if not np.all(np.isfinite((self.eps, *rates, *refs))):
            raise ValueError("adaptation gains and cost references must be finite")
        if self.eps <= 0.0 or any(r <= 0.0 for r in rates):
            raise ValueError("adaptation gains must be strictly positive")

    @property
    def n_deceivers(self) -> int:
        return len(self.deceivers)

    def validate_against(self, n_players: int) -> None:
        for i, v in zip(self.deceivers, self.victims):
            for j in (i, *v):
                if not 0 <= j < n_players:
                    raise ValueError(f"player index {j} out of range for {n_players} players")

    def injection(self, n_players: int) -> np.ndarray:
        """Injection tensor ``G`` of shape ``(n_deceivers, n, n)``.

        ``G[k, z_k, l] = 1`` for every victim ``l`` of deceiver ``z_k`` and
        zero elsewhere, so deceiver ``k`` adds ``delta_k`` times its victims'
        tones to its own price.  Every other use of the topology in
        arithmetic is algebra on this tensor.
        """
        self.validate_against(n_players)
        g = np.zeros((self.n_deceivers, n_players, n_players))
        for k, (z, vs) in enumerate(zip(self.deceivers, self.victims)):
            g[k, z, list(vs)] = 1.0
        return g

    def attacker_positions(self, n_players: int) -> tuple[tuple[int, ...], ...]:
        """For every player ``j``, the deceiver *positions* ``k`` with ``j`` a victim.

        Positions index into ``deceivers`` / ``delta``; use
        ``deceivers[k]`` to recover the attacking player.
        """
        hit = self.injection(n_players).any(axis=1)   # hit[k, j]: j is a victim of k
        return tuple(tuple(np.flatnonzero(hit[:, j]).tolist()) for j in range(n_players))


@dataclass(frozen=True)
class PerturbedPseudogradient:
    """The pair ``(Qbar(delta), Bbar(delta))`` together with the delta used;
    all three carry the leading axes of a stacked ``delta``."""

    qbar: np.ndarray
    bbar: np.ndarray
    delta: np.ndarray


def _pseudogradient_basis(
    game: QuadraticGame, topology: DeceptionTopology
) -> tuple[np.ndarray, np.ndarray]:
    """``(P, p)`` with ``Qbar(d) = Q0 + (d @ P).reshape(n, n)`` and
    ``Bbar(d) = B0 + d @ p``.

    ``P[k]`` is the flattened ``(n, n)`` matrix whose victim rows ``j`` are
    row ``z_k`` of ``q[j]``, and ``p[k, j] = b[j, z_k]``: the victim sees the
    deceiver's injection of its own tone as its own price moving.
    """
    g = topology.injection(game.n_players)
    n, n_dec = game.n_players, topology.n_deceivers
    big_p = np.einsum("kij,jim->kjm", g, game.q).reshape(n_dec, n * n)
    return big_p, np.einsum("kij,ji->kj", g, game.b)


class _Evaluation:
    """What the attainability conditions read at one gain vector, all from
    one ``Qbar(delta)``: ``h``, the cost gaps, the matching field and
    ``Lambda``, each computed on first use.  Evaluations may share one
    ``basis`` from :func:`_pseudogradient_basis`."""

    def __init__(self, game, topology, delta, refs=None, basis=None):
        d = np.asarray(delta, dtype=float)
        if d.shape[-1:] != (topology.n_deceivers,):
            raise ValueError(f"expected {topology.n_deceivers} delta entries, got shape {d.shape}")
        self.game, self.topology = game, topology
        self.refs = np.asarray(topology.cost_refs if refs is None else refs, dtype=float)
        self.rates = np.asarray(topology.eps_rates, dtype=float)
        self.basis = _pseudogradient_basis(game, topology) if basis is None else basis
        big_p, p = self.basis
        n = game.n_players
        self.pert = PerturbedPseudogradient(
            qbar=game.pseudogradient_matrix + (d @ big_p).reshape(d.shape[:-1] + (n, n)),
            bbar=game.pseudogradient_offset + d @ p,
            delta=d,
        )

    @cached_property
    def h(self) -> np.ndarray:
        """``h(delta)``; for a stack of gains, NaN rows where ``Qbar`` is singular."""
        solve = numerics.solve_stack if self.pert.qbar.ndim == 3 else numerics.solve_linear
        return solve(self.pert.qbar, -self.pert.bbar)

    @cached_property
    def gaps(self) -> np.ndarray:
        return self.game.costs(self.h)[..., list(self.topology.deceivers)] - self.refs

    @cached_property
    def field(self) -> np.ndarray:
        return self.rates * self.gaps

    @cached_property
    def lam(self) -> np.ndarray:
        """``Lambda[j, k] = rate_k grad J_{z_k}(h) . dh/ddelta_j``, where
        differentiating ``Qbar h + Bbar = 0`` gives ``Qbar dh/ddelta_k =
        -(P_k h + p_k)``: one solve with a right-hand side per deceiver."""
        big_p, p = self.basis
        n, z = self.game.n_players, list(self.topology.deceivers)
        dh = numerics.solve_linear(
            self.pert.qbar, -(big_p.reshape(-1, n, n) @ self.h + p).T
        )
        grad = self.game.q[z] @ self.h + self.game.b[z]
        return self.rates * (grad @ dh).T


def perturbed_pseudogradient(
    game: QuadraticGame,
    topology: DeceptionTopology,
    delta: Sequence[float],
) -> PerturbedPseudogradient:
    """Pseudogradient of the game as the victims experience it.

    Victim row ``j`` of the matrix gains ``delta_k`` times row ``z_k`` of
    that victim's own cost matrix, for every deceiver ``z_k`` targeting
    ``j``; the offset entry gains ``delta_k`` times the matching linear
    coefficient.  Rows of players nobody deceives are returned untouched.
    ``delta`` may also be a stack of gain vectors, such as a grid of shape
    ``(m, n_deceivers)``; the matrices are then stacked the same way.
    """
    return _Evaluation(game, topology, delta).pert


def in_stability_set(
    pert: PerturbedPseudogradient, gains: Sequence[float]
) -> bool | np.ndarray:
    """Whether ``-diag(gains) @ Qbar(delta)`` is Hurwitz (delta keeps the
    equilibrium-seeking loop stable); one verdict per stacked delta."""
    k = np.asarray(gains, dtype=float)
    if k.shape != (pert.qbar.shape[-1],):
        raise ValueError("need one positive gain per player")
    if np.any(k <= 0.0):
        raise ValueError("gains must be strictly positive")
    return is_hurwitz(-k[:, None] * pert.qbar)


def deceptive_equilibrium(
    game: QuadraticGame,
    topology: DeceptionTopology,
    delta: Sequence[float],
) -> np.ndarray:
    """Quasi-equilibrium ``h(delta)``: prices where every perceived own-price
    gradient vanishes.

    Requires only invertibility of ``Qbar(delta)``; a singular matrix raises
    :class:`~deceptive_nes.numerics.SingularMatrixError` (which is distinct
    from falling outside the stability set).
    """
    return _Evaluation(game, topology, delta).h


def cost_gaps(
    game: QuadraticGame,
    topology: DeceptionTopology,
    delta: Sequence[float],
    cost_refs: Sequence[float] | None = None,
) -> np.ndarray:
    """Per-deceiver gap ``J_{z_k}(h(delta)) - ref_k`` at the quasi-equilibrium."""
    return _Evaluation(game, topology, delta, cost_refs).gaps


def matching_field(
    game: QuadraticGame,
    topology: DeceptionTopology,
    delta: Sequence[float],
    cost_refs: Sequence[float] | None = None,
) -> np.ndarray:
    """The slow vector field whose roots are candidate deceptive operating
    points: componentwise ``eps_rate_k * (J_{z_k}(h(delta)) - ref_k)``."""
    return _Evaluation(game, topology, delta, cost_refs).field


def lambda_matrix(
    game: QuadraticGame,
    topology: DeceptionTopology,
    delta: Sequence[float],
) -> np.ndarray:
    """Sensitivity of the matching field: entry ``[j, k]`` is the derivative
    of component ``k`` along ``delta_j``, exact by the implicit function
    theorem (it does not depend on the cost references).

    Warns when ``Qbar(delta)`` is badly conditioned (near the edge of
    invertibility) since the entries are then unreliable.
    """
    ev = _Evaluation(game, topology, delta)
    cond = np.linalg.cond(ev.pert.qbar, np.inf)
    if not cond < 1e12:
        warnings.warn(f"perturbed pseudogradient has condition estimate {cond:.2e}; "
                      "sensitivity entries may be inaccurate", RuntimeWarning, stacklevel=2)
    return ev.lam


@dataclass(frozen=True)
class AttainabilitySearch:
    """Search-region / solver controls for :func:`solve_attainability`."""

    delta_max: float = 10.0
    grid_points: int = 400
    max_newton_iter: int = 200


@dataclass(frozen=True)
class AttainabilityResult:
    """Outcome of the attainability search.

    ``attainable`` is true only when all three conditions hold at
    ``delta_star``: the deceivers' costs match their references within
    tolerance, the sensitivity matrix is Hurwitz, and the delta lies in the
    stability set.  When no qualifying root is found, ``delta_star`` holds
    the closest approach and ``message`` says what failed.
    """

    delta_star: np.ndarray
    u_star: np.ndarray
    lambda_mat: np.ndarray
    attainable: bool
    in_stability: bool
    residual: float
    message: str = ""


def solve_attainability(
    game: QuadraticGame,
    topology: DeceptionTopology,
    cost_refs: Sequence[float] | None = None,
    gains: Sequence[float] | None = None,
    search: AttainabilitySearch | None = None,
) -> AttainabilityResult:
    """Find deceiver gains at which every deceiver's cost hits its reference.

    For a single deceiver the matching field is evaluated on a uniform grid
    over ``[-delta_max, delta_max]`` in one stacked solve and its sign
    changes are refined by :func:`~deceptive_nes.numerics.find_root_scalar`,
    nearest to zero first, until a qualifying root is nearer than every
    bracket left; the qualifying root with smallest ``|delta|`` is returned.
    For several deceivers a damped Newton iteration starts from
    ``delta = 0``.  A failed search returns ``attainable=False`` together
    with the closest approach rather than an arbitrary root.
    """
    search = search or AttainabilitySearch()
    refs = np.asarray(topology.cost_refs if cost_refs is None else cost_refs, dtype=float)
    n = topology.n_deceivers
    if refs.shape != (n,):
        raise ValueError(f"expected {n} cost references, got shape {refs.shape}")
    k_gains = np.ones(game.n_players) if gains is None else np.asarray(gains, float)
    basis = _pseudogradient_basis(game, topology)
    seen: dict[bytes, _Evaluation] = {}

    def at(delta) -> _Evaluation:
        """The evaluation at ``delta``; every gain vector is evaluated once.
        Of the points without ``Lambda`` only the newest is kept: an older
        one was a line-search trial that Newton rejected."""
        d = np.asarray(delta, dtype=float)
        if d.tobytes() not in seen:
            newest = next(reversed(seen), None)
            if newest is not None and "lam" not in vars(seen[newest]):
                del seen[newest]
            seen[d.tobytes()] = _Evaluation(game, topology, d, refs, basis)
        return seen[d.tobytes()]

    def field(delta) -> np.ndarray:
        """The matching field, NaN where ``Qbar(delta)`` is singular."""
        try:
            return at(delta).field
        except numerics.SingularMatrixError:
            return np.full(n, np.nan)

    def assess(delta: np.ndarray, message: str = "") -> AttainabilityResult:
        ev = at(delta)
        matched = bool(np.all(np.abs(ev.gaps) <= MATCH_RTOL * (1.0 + np.abs(refs))))
        stable_lam = is_hurwitz(ev.lam)
        in_delta = in_stability_set(ev.pert, k_gains)
        ok = matched and stable_lam and in_delta
        if not message and not ok:
            message = "; ".join(cause for cause, failed in (
                ("cost mismatch", not matched),
                ("sensitivity matrix not Hurwitz", not stable_lam),
                ("outside stability set", not in_delta),
            ) if failed)
        return AttainabilityResult(
            delta_star=ev.pert.delta, u_star=ev.h, lambda_mat=ev.lam, attainable=ok,
            in_stability=in_delta, residual=float(np.max(np.abs(ev.gaps), initial=0.0)),
            message=message,
        )

    if n == 0:
        return assess(np.zeros(0), message="no deceivers")

    if n == 1:
        grid = np.linspace(-search.delta_max, search.delta_max, search.grid_points)
        vals = _Evaluation(game, topology, grid[:, None], refs, basis).field[:, 0]
        # NaN rows (singular Qbar) neither vanish nor change sign; a bracket
        # holds no root nearer to 0 than its nearest end (0 if it spans 0)
        lows = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
        todo = sorted([(abs(g), g, g) for g in grid[vals == 0.0]]
                      + [(max(lo, -hi, 0.0), lo, hi) for lo, hi in zip(grid[lows], grid[lows + 1])])
        if not todo:
            finite = np.where(np.isfinite(vals))[0]
            best = finite[np.argmin(np.abs(vals[finite]))] if finite.size else 0
            return assess(np.array([grid[best]]), message="no sign change of the "
                          "matching field in the search region")
        found: dict[float, AttainabilityResult] = {}
        for near, lo, hi in todo:
            if any(r.attainable and abs(root) < near for root, r in found.items()):
                break
            root = lo if lo == hi else numerics.find_root_scalar(
                lambda g: float(field([g])[0]), lo, hi)
            if root not in found:
                found[root] = assess(np.array([root]))
        ranked = [found[root] for root in sorted(found, key=abs)]
        for r in ranked:
            if r.attainable:
                return r
        return replace(ranked[0], message="no root qualifies: " + "; ".join(
            f"delta={r.delta_star[0]:.12g} ({r.message})" for r in ranked
        ))

    # several deceivers: damped Newton from the undeceived point, with the
    # exact Jacobian Lambda^T of the matching field
    tol = MATCH_RTOL * (1.0 + float(np.max(np.abs(refs)))) * float(np.min(topology.eps_rates))
    try:
        root = numerics.newton_system(field, lambda d: at(d).lam.T, np.zeros(n), tol=tol,
                                      max_iter=search.max_newton_iter, max_step=search.delta_max)
    except numerics.ConvergenceError as exc:
        return assess(exc.best, message=f"search failed: {exc}")
    return assess(root)

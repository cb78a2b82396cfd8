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
untouched, ``Qbar(d) = Q0 + diag(d . pi)`` and ``Bbar(d) = B0 + d . p``.
This module computes that perturbed pair, the resulting
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
    verdict = hurwitz_verdict(m, numerics.spectral_abscissa(m))
    return verdict if m.ndim > 2 else bool(verdict)


def hurwitz_verdict(m: np.ndarray, abscissa: float | np.ndarray) -> np.bool_ | np.ndarray:
    """:func:`is_hurwitz` of ``m`` (one matrix or a stack) from its spectral
    abscissa, for a caller that already has it."""
    scale = np.max(np.sum(np.abs(m), axis=-1), axis=-1)
    return abscissa < -HURWITZ_RTOL * (1.0 + scale)


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
    """``(pi, p)``, two ``(n_deceivers, n)`` arrays with ``Qbar(d) = Q0 +
    diag(d @ pi)`` and ``Bbar(d) = B0 + d @ p``: ``pi[k, j] = Q0[j, z_k]``
    and ``p[k, j] = b[j, z_k]`` for every victim ``j`` of deceiver ``k``.
    ``q[j]`` lives in row and column ``j``, so its row ``z_k`` meets victim
    row ``j`` of ``Qbar`` on the diagonal only.
    """
    g = topology.injection(game.n_players)
    return (np.einsum("kij,ji->kj", g, game.pseudogradient_matrix),
            np.einsum("kij,ji->kj", g, game.b))


def _matching_polynomials(game, topology, basis, ref, centre, radius):
    """Coefficients ``(f, e)``, one row per disc, of ``F = gap D**2`` and
    ``D = det Qbar(d)`` for one deceiver with ``basis`` (from
    :func:`_pseudogradient_basis`), in the monomials of ``x = (d - centre)
    / radius``, where ``gap = J_z(h(d)) - ref``.

    ``d`` enters |V| entries of ``diag(Qbar)``, so by Cramer's rule ``D``
    has degree <= |V| and ``F`` <= 2|V|.  Both are interpolated at 2|V| + 2
    roots of unity, off the real axis and so off every real pole, where the
    monomial basis is orthogonal.  Overflow gives infinite or NaN
    coefficients, without a warning.
    """
    v, z = len(topology.victims[0]), topology.deceivers[0]
    pi, p = basis
    circle = np.exp(1j * np.pi * (2.0 * np.arange(2 * v + 2) + 1.0) / (2 * v + 2))
    d = (np.reshape(centre, (-1, 1)) + np.reshape(radius, (-1, 1)) * circle).reshape(-1, 1)
    qbar = game.pseudogradient_matrix + (d @ pi)[..., None] * np.eye(game.n_players)
    det = np.linalg.det(qbar)
    rhs = -(game.pseudogradient_offset + d @ p)[..., None]
    h = numerics._linalg(np.linalg.solve, qbar, rhs)[..., 0]
    gap = 0.5 * np.einsum("mi,ij,mj->m", h, game.q[z], h) + h @ game.b[z] + game.c[z] - ref
    # the nodes are roots of unity, so the Vandermonde matrix V has V^H V = (2|V| + 2) I
    fit = np.vander(circle, increasing=True).conj().T / circle.size
    with np.errstate(over="ignore", invalid="ignore"):
        coef = (fit @ np.stack([gap * det * det, det], -1).reshape(-1, circle.size, 2)).real
    return coef[:, :2 * v + 1, 0], coef[:, :v + 1, 1]


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
        pi, p = self.basis
        self.pert = PerturbedPseudogradient(
            qbar=game.pseudogradient_matrix + (d @ pi)[..., None] * np.eye(game.n_players),
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
        -(pi_k o h + p_k)``: one solve with a right-hand side per deceiver."""
        pi, p = self.basis
        z = list(self.topology.deceivers)
        dh = numerics.solve_linear(self.pert.qbar, -(pi * self.h + p).T)
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
    max_newton_iter: int = 200

    def __post_init__(self):
        if not (0.0 < self.delta_max < np.inf and self.max_newton_iter >= 1):
            raise ValueError(f"need 0 < delta_max < inf and max_newton_iter >= 1, got {self}")


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

    For a single deceiver every real root in ``[-delta_max, delta_max]``,
    tangential roots included, comes from the roots of one polynomial,
    polished by Newton; they are assessed nearest to ``delta = 0`` first
    and the first qualifying one is returned.  Without a real root the result is the
    closest approach: the window end or stationary point of the gap with the
    smallest ``|gap|``.  For several
    deceivers a damped Newton iteration starts from ``delta = 0``.  A
    failed search returns ``attainable=False`` together with the closest
    approach rather than an arbitrary root.
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
        # The matching polynomials of each piece between the poles -1/mu
        # (mu: real eigenvalues of Q0^-1 diag(pi)), where one window-wide disc
        # turns root pairs flanking a pole complex.  Near-real roots of F are
        # polished in the piece that holds them.
        dm = search.delta_max
        mu = numerics.eigenvalues(numerics.solve_linear(
            game.pseudogradient_matrix, np.diag(basis[0][0])))
        real = (np.abs(mu.imag) <= 1e-6 * np.abs(mu)) & (np.abs(mu.real) * dm > 1.0)
        ends = np.sort(np.append([-dm, dm], -1.0 / mu.real[real]))
        mid, half = (ends[1:] + ends[:-1]) / 2.0, (ends[1:] - ends[:-1]) / 2.0
        f, e = _matching_polynomials(game, topology, basis, refs[0], mid, half)
        finite = np.flatnonzero(np.isfinite(f).all(axis=1) & np.isfinite(e).all(axis=1))
        poly = np.polynomial.polynomial

        def polish(d: float) -> float | None:
            """Newton on ``gap det(Qbar)^2``, with ``det'/det = sum mu / (1 +
            d mu)``, in the piece of ``d``: the root, or None short of 1e-6.
            It stops at the rounding floor: a step below 1e-13 relative, or an
            accepted one no shorter than the step before."""
            k = min(max(int(np.searchsorted(ends, d)) - 1, 0), len(mid) - 1)
            last = np.inf
            for _ in range(8):
                try:
                    ev = at([d])
                    gap = ev.gaps[0]
                    step = gap / (ev.lam[0, 0] / ev.rates[0]
                                  + 2.0 * gap * np.sum(mu / (1.0 + d * mu)).real) if gap else 0.0
                except numerics.SingularMatrixError:
                    return None
                if not ends[k] <= d - step <= ends[k + 1]:
                    return None
                d -= step
                size = abs(step) / (1.0 + abs(d))
                if size <= 1e-13 or last <= size <= 1e-6:
                    break
                last = size
            return d if abs(step) <= 1e-6 * (1.0 + abs(d)) else None

        estimates = []
        for j in finite:
            z = poly.polyroots(poly.polytrim(f[j], 1e-14 * np.max(np.abs(f[j]))))
            estimates += list(mid[j] + half[j] * z.real[np.abs(z.imag) <= 1e-3])
        ranked: list[AttainabilityResult] = []
        for d in sorted(estimates, key=abs):
            root = polish(d) if abs(d) <= dm else None
            if root is None or any(abs(root - r.delta_star[0]) <= 1e-9 * (1.0 + abs(root))
                                   for r in ranked):
                continue
            ranked.append(assess(np.array([root])))
            if ranked[-1].attainable:
                return ranked[-1]
        if not ranked:
            # The closest approach: |gap| is least at a window end or where
            # gap' = (F' D - 2 F D') / D^3 vanishes.
            candidates = [-dm, dm]
            for j in finite:
                z = poly.polyroots(poly.polysub(poly.polymul(poly.polyder(f[j]), e[j]),
                                                2.0 * poly.polymul(f[j], poly.polyder(e[j]))))
                z = z.real[(np.abs(z.imag) <= 1e-3) & (np.abs(z.real) <= 1.0)]
                candidates += list(mid[j] + half[j] * z)
            gaps = np.abs([field([d])[0] for d in candidates])
            best = candidates[int(np.argmin(np.where(np.isnan(gaps), np.inf, gaps)))]
            return assess(np.array([best]), message="no real root of the matching "
                          "field in the search region")
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

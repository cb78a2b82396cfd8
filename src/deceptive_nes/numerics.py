"""Numerical kernels used throughout the package.

Dense linear algebra is ``numpy.linalg`` behind one contract: a matrix whose
partial-pivot elimination meets a pivot below ``1e-13 * ||a||_inf`` is
singular (:class:`SingularMatrixError`, or NaN rows in :func:`solve_stack`),
and ``numpy.linalg`` failures surface as :class:`ConvergenceError`.  Damped
Newton and RK4 are written out here; one-deceiver roots come from
``numpy.polynomial.polynomial`` in :mod:`deceptive_nes.deception`.  The
fixed-step integrators record ``(times, states)`` and stop after the first
recorded state that is not finite, so a diverging run costs the steps up to
its divergence, whatever its horizon.
"""

from __future__ import annotations

import math
import numbers
from array import array
from typing import Callable

import numpy as np

_EPS = float(np.finfo(float).eps)


class SingularMatrixError(ValueError):
    """Raised when Gaussian elimination meets a pivot that is effectively zero.

    ``column`` is the elimination column at which the pivot collapsed and
    ``pivot`` the magnitude of the best pivot available there.
    """

    def __init__(self, column: int, pivot: float):
        self.column = int(column)
        self.pivot = float(pivot)
        super().__init__(
            f"matrix is singular to working precision "
            f"(pivot {pivot:.3e} in column {column})"
        )


class ConvergenceError(RuntimeError):
    """Raised when an iterative routine, here or in ``numpy.linalg``, fails;
    ``best`` is the closest approach of an iteration that has one."""

    def __init__(self, message: str, best: np.ndarray | None = None):
        super().__init__(message)
        self.best = best


def _inf_norm(v: np.ndarray) -> float:
    return float(np.max(np.abs(v))) if v.size else 0.0


def _linalg(routine, *args):
    """Call a ``numpy.linalg`` routine, turning its ``LinAlgError`` (a
    ``ValueError``, which callers read as bad input) into ConvergenceError."""
    try:
        return routine(*args)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"numpy.linalg.{routine.__name__}: {exc}") from exc


def _square(a: np.ndarray, ndim: int | None = None) -> np.ndarray:
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or ndim not in (None, a.ndim):
        raise ValueError(f"expected {ndim or 'n'}-d square matrices, got shape {a.shape}")
    return a


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def _failing_pivot(a: np.ndarray) -> tuple[int, float] | None:
    """``(column, pivot)`` where partial-pivot elimination of ``a`` first
    meets a pivot below ``1e-13 * ||a||_inf``, or None.  The elimination is
    kept only for its pivots, on plain floats: for this package's small
    matrices that beats any numpy call."""
    m = a.tolist()
    n = len(m)
    tiny = 1e-13 * max(max(sum(map(abs, row)) for row in m), _EPS)
    for k in range(n):
        p = max(range(k, n), key=lambda r: abs(m[r][k]))
        pivot = abs(m[p][k])
        if pivot < tiny:
            return k, pivot
        m[k], m[p] = m[p], m[k]
        mk = m[k]
        inv = 1.0 / mk[k]
        for r in range(k + 1, n):
            mr = m[r]
            f = mr[k] * inv
            for c in range(k + 1, n):
                mr[c] -= f * mk[c]
    return None


def solve_linear(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = b``; raises :class:`SingularMatrixError` where
    partial-pivot elimination meets a pivot below ``1e-13 * ||a||_inf``."""
    a = _square(np.asarray(a, dtype=float), ndim=2)
    failure = _failing_pivot(a)
    if failure is not None:
        raise SingularMatrixError(*failure)
    return _linalg(np.linalg.solve, a, np.asarray(b, dtype=float))


def solve_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`solve_linear` for every ``a[i] @ x[i] = b[i]`` in one call.

    ``a`` has shape ``(m, n, n)`` and ``b`` shape ``(m, n)``.  Row ``i`` of
    the result is NaN exactly where :func:`solve_linear` would raise
    :class:`SingularMatrixError` on ``a[i]``.
    """
    a = _square(np.asarray(a, dtype=float), ndim=3)
    b = np.asarray(b, dtype=float)
    # Partial pivoting keeps every pivot at or above 1 / ||a^-1||_inf, so only
    # a matrix with cond_inf(a) > 1e13 can fail the gate; run the gate on
    # those above a tenth of that bound, leaving room for rounding.
    cond = _linalg(np.linalg.cond, a, np.inf)
    suspect = np.flatnonzero(~(cond <= 1e12))
    singular = np.zeros(len(a), dtype=bool)
    singular[suspect] = [_failing_pivot(a[i]) is not None for i in suspect]
    a = np.where(singular[:, None, None], np.eye(a.shape[-1]), a)
    x = _linalg(np.linalg.solve, a, b[..., None])[..., 0]
    x[singular] = np.nan
    return x


def eigenvalues(a: np.ndarray) -> np.ndarray:
    """All eigenvalues of a square matrix, or of each matrix of a stack."""
    return _linalg(np.linalg.eigvals, _square(np.asarray(a)))


def spectral_abscissa(a: np.ndarray) -> float | np.ndarray:
    """Largest real part over the spectrum of ``a``: a float for one matrix,
    an array with one entry per matrix for a stack."""
    abscissa = np.max(eigenvalues(a).real, axis=-1)
    return float(abscissa) if abscissa.ndim == 0 else abscissa


# ---------------------------------------------------------------------------
# Newton's method
# ---------------------------------------------------------------------------

def newton_system(
    f: Callable[[np.ndarray], np.ndarray],
    jac: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    *,
    tol: float = 1e-10,
    max_iter: int = 50,
    max_step: float | None = None,
) -> np.ndarray:
    """Damped Newton iteration for ``f(x) = 0`` with the Jacobian
    ``jac(x)[k, j] = df_k/dx_j``.

    The step is halved (up to 20 times, evaluating only ``f``) whenever it
    fails to reduce ``||f||_inf``.  ``max_step`` clips each raw step to that
    sup-norm length, which keeps a near-singular Jacobian from catapulting
    the iterate out of the region of interest.  Raises
    :class:`ConvergenceError` if the residual never falls below ``tol``, the
    Jacobian is singular or 20 halvings find no decrease; its ``best`` is the
    last accepted iterate, the one with the smallest ``||f||_inf`` (a step
    is accepted only if it lowers that norm).
    """
    x = np.array(x0, dtype=float, copy=True)
    fx = np.atleast_1d(np.asarray(f(x), dtype=float))
    err = _inf_norm(fx)
    for it in range(max_iter):
        if err <= tol:
            return x
        try:
            step = solve_linear(jac(x), -fx)
        except SingularMatrixError as exc:
            raise ConvergenceError(f"singular Jacobian at iteration {it}: {exc}", x) from exc
        if max_step is not None and _inf_norm(step) > max_step:
            step *= max_step / _inf_norm(step)
        for halvings in range(20):
            x_new = x + 0.5 ** halvings * step
            f_new = np.atleast_1d(np.asarray(f(x_new), dtype=float))
            if _inf_norm(f_new) < err:
                break
        else:
            raise ConvergenceError(f"residual {err:.3e}: 20 step halvings found no "
                                   f"decrease at Newton iteration {it}", x)
        x, fx, err = x_new, f_new, _inf_norm(f_new)
    if err <= tol:
        return x
    raise ConvergenceError(f"residual {err:.3e} after {max_iter} Newton iterations", x)


# ---------------------------------------------------------------------------
# ODE stepping
# ---------------------------------------------------------------------------

def rk4_step(
    f: Callable[[float, np.ndarray], np.ndarray],
    t: float,
    y: np.ndarray,
    dt: float,
) -> np.ndarray:
    """One classical fourth-order Runge-Kutta step."""
    k1 = f(t, y)
    k2 = f(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = f(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = f(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_fixed(
    f: Callable[[float, np.ndarray], np.ndarray],
    t0: float,
    y0: np.ndarray,
    dt: float,
    n_steps: int,
    *,
    record_every: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate with :func:`rk4_step` on a fixed grid, recording every
    ``record_every``-th state (the initial state is always recorded).

    Returns ``(times, states)`` with ``states[k]`` the state at ``times[k]``,
    and ``times[k] = t0 + step * dt`` for the state after ``step`` steps:
    ``y0``, each block of ``record_every`` steps and a trailing part-block.
    A state that overflows is recorded as it is, without a floating-point
    warning, and ends the record: after the first recorded state that is not
    finite, ``y0`` included, no step is taken, and the arrays stop at that
    row.  ``record_every`` must be an integer (not a bool) of at least 1,
    else ``ValueError``.
    """
    stride = _stride(record_every)
    y = np.array(y0, dtype=float)
    ts, ys = array("d", [t0]), array("d", y.tobytes())
    end = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while end < n_steps and _finite(y):
            first, end = end, min(end + stride, n_steps)
            for i in range(first, end):
                y = rk4_step(f, t0 + i * dt, y, dt)
            ts.append(t0 + end * dt)
            ys.frombytes(y.tobytes())
    return np.frombuffer(ts), np.frombuffer(ys).reshape((len(ts),) + y.shape)


def integrate_affine(
    a: np.ndarray, c: np.ndarray, t0: float, y0: np.ndarray, dt: float, n_steps: int,
    *, record_every: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`integrate_fixed` of the field ``f(t, y) = a @ y + c``, the
    record built by repeated squaring: O(log samples) matrix products.

    One RK4 step is the affine map ``y <- R y + s`` of :func:`affine_rk4_map`,
    that is ``(y, 1) <- M (y, 1)`` with ``M = [[R, s], [0, 1]]``, so a block
    of ``k = record_every`` steps is ``P = M^k`` (``numpy.linalg.matrix_power``)
    and the recorded states are ``P^j (y0, 1)``.  Given rows ``0 .. L-1``,
    rows ``L .. 2L-1`` are the same rows times ``(P^L)'`` in one product, and
    ``P^2L = P^L P^L``.  The record grows so until it holds every block, and
    stops after the first row that is not finite, so a diverging run costs
    time and memory in proportion to its samples up to divergence.  A
    trailing part-block takes the steps left.  Where a power overflows,
    which an unstable field's does, the record goes on one block at a time:
    by ``P`` where only a doubled power overflows, and by ``k`` maps ``M``
    where ``P`` does.  So an exactly-zero state of a field with ``c = 0``
    stays zero rather than meeting ``inf * 0``.
    """
    k = _stride(record_every)
    r, s = affine_rk4_map(a, c, dt)
    m = len(s)
    step = np.eye(m + 1)
    step[:m, :m], step[:m, m] = r, s
    last = max(n_steps, 0)   # no step count below 0, as in integrate_fixed
    full, left = divmod(last, k)
    ys = np.append(np.asarray(y0, dtype=float), 1.0)[None]
    with np.errstate(over="ignore", invalid="ignore"):
        block, repeats = _block_map(step, k)
        power = block if repeats == 1 else None
        finite = _finite(ys[0])
        while finite and len(ys) <= full:
            if power is not None and np.isfinite(power).all():
                new = ys[:full + 1 - len(ys)] @ power.T
                power = power @ power
            else:
                new = _map_blocks(block, repeats, ys[-1], full + 1 - len(ys))
            ok = np.isfinite(new).all(axis=1)
            finite = bool(ok.all())
            ys = np.concatenate([ys, new if finite else new[:ok.argmin() + 1]])
        if finite and left:
            ys = np.concatenate([ys, _map_blocks(*_block_map(step, left), ys[-1], 1)])
    steps = np.minimum(np.arange(len(ys)) * k, last)
    return t0 + steps * dt, ys[:, :m]


def affine_rk4_map(a: np.ndarray, c: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """``(R, s)`` with one RK4 step of the field ``a @ y + c`` exactly the
    affine map ``y <- R y + s``: ``R = sum_{j<=4} (h a)^j / j!`` and ``s = h
    sum_{j<=3} (h a)^j / (j+1)! c``."""
    ha = dt * np.asarray(a, dtype=float)
    eye = np.eye(len(ha))
    series = eye + ha @ (eye + ha @ (eye + ha / 4.0) / 3.0) / 2.0   # sum_{j<=3} (h a)^j / (j+1)!
    return eye + ha @ series, dt * series @ np.asarray(c, dtype=float)


def _stride(record_every) -> int:
    """``record_every`` as an int, if it is an integer (not a bool) of at
    least 1."""
    if isinstance(record_every, bool) or not isinstance(record_every, numbers.Integral) \
            or record_every < 1:
        raise ValueError(f"record_every must be an integer of at least 1, got {record_every!r}")
    return int(record_every)


def _finite(y: np.ndarray) -> bool:
    # a float sum is finite only if every term is, and costs a fraction of
    # a numpy reduction; the exact test runs where the sum is not
    return math.isfinite(sum(y.ravel().tolist())) or bool(np.isfinite(y).all())


def _block_map(step: np.ndarray, k: int) -> tuple[np.ndarray, int]:
    """``(step^k, 1)``, or ``(step, k)`` where that power is not finite."""
    power = np.linalg.matrix_power(step, k)
    return (power, 1) if np.isfinite(power).all() else (step, k)


def _map_blocks(block: np.ndarray, repeats: int, y: np.ndarray, count: int) -> np.ndarray:
    """The next ``count`` states from ``y``, each ``repeats`` products with
    ``block`` after the last, stopping after the first that is not finite."""
    out = []
    while len(out) < count:
        for _ in range(repeats):
            y = block @ y
        out.append(y)
        if not _finite(y):
            break
    return np.array(out)

"""Linear algebra, eigenvalues, root finding and integration substrate.

Every routine is checked against numpy.linalg (or a closed-form solution).
The package's solves and eigenvalues run on numpy.linalg themselves, so
those tests act as contract tests: they pin the results, the singularity
gate and the error types that the rest of the package relies on.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from deceptive_nes import numerics, perturbed_pseudogradient

import oracles


# ── LU solves ────────────────────────────────────────────────────────────────

def test_solve_matches_numpy_on_random_systems():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        a = rng.normal(size=(n, n)) + n * np.eye(n)
        rhs = rng.normal(size=n)
        x = numerics.solve_linear(a, rhs)
        x_np = oracles.np_solve(a, rhs)
        err = float(np.max(np.abs(x - x_np)) / (1.0 + np.max(np.abs(x_np))))
        worst = max(worst, err)
    assert worst < 1e-12, f"worst solve deviation from numpy {worst:.2e}"


def test_solve_residuals_small_on_random_systems():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 13))
        a = rng.normal(size=(n, n)) + n * np.eye(n)
        rhs = rng.normal(size=n)
        x = numerics.solve_linear(a, rhs)
        res = np.max(np.abs(a @ x - rhs)) / (1.0 + np.max(np.abs(rhs)))
        worst = max(worst, float(res))
    print(f"\n  worst relative residual over 50 systems: {worst:.2e}")
    assert worst <= 1e-10


def test_solve_needs_pivoting():
    # Zero in the (0, 0) position: fails without row exchanges.
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    x = numerics.solve_linear(a, np.array([2.0, 3.0]))
    assert np.allclose(x, [3.0, 2.0])


def test_singular_matrix_raises_with_column():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(numerics.SingularMatrixError) as exc:
        numerics.solve_linear(a, np.array([1.0, 1.0]))
    assert exc.value.column == 1, f"flagged column {exc.value.column}, not 1"


def test_solve_rejects_nonsquare():
    with pytest.raises(ValueError):
        numerics.solve_linear(np.ones((2, 3)), np.ones(2))


def test_solve_stack_matches_solve_linear_row_by_row(game3_published,
                                                     topology3):
    # Well-conditioned rows, the exactly singular [[1, 2], [2, 4]], and the
    # three-firm study around its singular gain 5.631716138867322, 1e-11
    # off which the condition number (~2e12) sends a row through the gate.
    rng = np.random.default_rng(11)
    stacks = [np.concatenate([rng.normal(size=(5, 2, 2)) + 2 * np.eye(2),
                              [[[1.0, 2.0], [2.0, 4.0]]]])]
    deltas = 5.631716138867322 + np.array([-1.0, -1e-11, 0.0, 1e-11, 0.05])
    pert = perturbed_pseudogradient(game3_published, topology3, deltas[:, None])
    stacks.append(pert.qbar)
    for a in stacks:
        b = rng.normal(size=a.shape[:2])
        x = numerics.solve_stack(a, b)
        singular = 0
        for i in range(len(a)):
            try:
                want = numerics.solve_linear(a[i], b[i])
            except numerics.SingularMatrixError:
                singular += 1
                assert np.all(np.isnan(x[i])), f"row {i} should be NaN"
            else:
                assert np.allclose(x[i], want, rtol=1e-12, atol=0.0), (
                    f"row {i}: {x[i]} vs {want}"
                )
        assert singular == 1, f"{singular} singular rows, expected 1"


def test_linalg_errors_stay_inside_the_package():
    # numpy.linalg raises LinAlgError, a ValueError the CLI would report as
    # a validation error; the package turns it into a numerical failure.
    with pytest.raises(numerics.ConvergenceError) as exc:
        numerics.eigenvalues(np.full((3, 3), np.nan))
    assert not isinstance(exc.value, ValueError)


# ── eigenvalues ──────────────────────────────────────────────────────────────

def _sorted_complex(vals):
    return np.array(sorted(vals, key=lambda z: (round(z.real, 9), z.imag)))


def _compare_spectra(a, tol=1e-8):
    mine = _sorted_complex(numerics.eigenvalues(a))
    ref = _sorted_complex(oracles.np_eigvals(a))
    scale = 1.0 + float(np.max(np.abs(ref)))
    return float(np.max(np.abs(mine - ref))) / scale


def test_eigenvalues_match_numpy_random_real():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(60):
        n = int(rng.integers(1, 9))
        a = rng.normal(size=(n, n))
        worst = max(worst, _compare_spectra(a))
    print(f"\n  worst eigenvalue deviation: {worst:.2e}")
    assert worst < 1e-8


def test_eigenvalues_match_numpy_symmetric():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        a = rng.normal(size=(n, n))
        a = a + a.T
        assert _compare_spectra(a) < 1e-8


def test_eigenvalues_complex_pairs():
    # Rotation-like block: eigenvalues 1 ± 2i exactly.
    a = np.array([[1.0, -2.0], [2.0, 1.0]])
    vals = _sorted_complex(numerics.eigenvalues(a))
    assert np.allclose(vals, [1.0 - 2.0j, 1.0 + 2.0j], atol=1e-12)


def test_eigenvalues_defective_jordan_block():
    # Jordan block: repeated eigenvalue 2 with a single eigenvector.
    a = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]])
    vals = numerics.eigenvalues(a)
    assert np.allclose(sorted(v.real for v in vals), [2.0, 2.0, 2.0],
                       atol=1e-5)
    assert max(abs(v.imag) for v in vals) < 1e-5


def test_spectral_abscissa_transpose_invariance():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(40):
        n = int(rng.integers(2, 9))
        a = rng.normal(size=(n, n))
        gap = abs(numerics.spectral_abscissa(a)
                  - numerics.spectral_abscissa(a.T))
        worst = max(worst, gap / (1.0 + abs(numerics.spectral_abscissa(a))))
    print(f"\n  worst transpose abscissa gap: {worst:.2e}")
    assert worst < 1e-9


def test_spectral_abscissa_known():
    a = np.diag([-3.0, -1.0, -2.0])
    assert abs(numerics.spectral_abscissa(a) - (-1.0)) < 1e-13


# ── Newton ──────────────────────────────────────────────────────────────────

def test_newton_solves_nonlinear_system():
    def f(x):
        return np.array([x[0] ** 2 + x[1] ** 2 - 4.0, x[0] - x[1]])

    def jac(x):
        return np.array([[2.0 * x[0], 2.0 * x[1]], [1.0, -1.0]])

    x = numerics.newton_system(f, jac, np.array([1.0, 0.5]))
    assert np.allclose(x, [math.sqrt(2.0), math.sqrt(2.0)], atol=1e-9)


def test_newton_reports_failure():
    # No root: f(x) = 1 + x² never vanishes.
    with pytest.raises(numerics.ConvergenceError):
        numerics.newton_system(lambda x: np.array([1.0 + x[0] ** 2]),
                               lambda x: np.array([[2.0 * x[0]]]),
                               np.array([0.5]), max_iter=25)


# ── integration ──────────────────────────────────────────────────────────────

def test_rk4_is_fourth_order_on_decay():
    # Global error at t=1 on x' = -x must shrink ~16x per dt halving.
    def err(n_steps):
        dt = 1.0 / n_steps
        x = np.array([1.0])
        t = 0.0
        for _ in range(n_steps):
            x = numerics.rk4_step(lambda tt, xx: -xx, t, x, dt)
            t += dt
        return abs(x[0] - math.exp(-1.0))

    e1, e2, e3 = err(25), err(50), err(100)
    r1, r2 = e1 / e2, e2 / e3
    print(f"\n  RK4 error ratios per halving: {r1:.1f}, {r2:.1f}")
    assert r1 >= 14.0 and r2 >= 14.0, f"ratios {r1:.2f}, {r2:.2f} below 14"


def test_rk4_matches_harmonic_oscillator():
    def f(t, y):
        return np.array([y[1], -y[0]])

    times, states = numerics.integrate_fixed(f, 0.0, np.array([1.0, 0.0]),
                                             2.0 * math.pi / 1000, 1000)
    assert abs(states[-1][0] - 1.0) < 1e-9
    assert abs(states[-1][1]) < 1e-9


def test_integrate_fixed_recording():
    times, states = numerics.integrate_fixed(
        lambda t, y: -y, 0.0, np.array([1.0]), 0.01, 100, record_every=10)
    assert len(times) == 11, f"expected 11 records, got {len(times)}"
    assert times[0] == 0.0
    assert abs(times[-1] - 1.0) < 1e-12
    spacings = np.diff(times)
    assert np.allclose(spacings, 0.1, atol=1e-12)
    assert abs(states[-1][0] - math.exp(-1.0)) < 1e-8


def test_integrate_fixed_records_samples_compactly():
    # a recorded sample is t and a 4-vector: 40 bytes of floats
    n_steps = 20_000
    tracemalloc.start()
    try:
        numerics.integrate_fixed(lambda t, y: -y, 0.0, np.ones(4), 1e-4, n_steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (n_steps + 1) <= 100.0, f"{peak / (n_steps + 1):.0f} B per sample"


def test_integrate_affine_is_rk4_on_the_affine_field():
    # One RK4 step of y' = a y + c is exactly the affine map of
    # integrate_affine: 200 steps agree with rk4_step to round-off, on a
    # grid whose stride leaves a trailing sample.
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        m = rng.normal(size=(n, n))
        a = -(m @ m.T + 0.1 * np.eye(n)) + rng.normal(scale=0.5, size=(n, n))
        a -= max(0.0, np.max(np.linalg.eigvals(a).real) + 0.05) * np.eye(n)
        c = rng.normal(size=n)
        y0 = rng.normal(size=n)
        dt = 0.5 / np.linalg.norm(a, np.inf)

        def f(t, y):
            return a @ y + c

        times, states = numerics.integrate_affine(a, c, 0.0, y0, dt, 200,
                                                  record_every=7)
        ref_times, ref_states = numerics.integrate_fixed(f, 0.0, y0, dt, 200,
                                                         record_every=7)
        y = y0
        for k in range(200):
            y = numerics.rk4_step(f, k * dt, y, dt)
        assert np.array_equal(times, ref_times) and len(times) == 30
        scale = 1.0 + np.max(np.abs(ref_states))
        assert np.max(np.abs(states - ref_states)) <= 1e-12 * scale
        assert np.max(np.abs(states[-1] - y)) <= 1e-12 * scale


@pytest.mark.parametrize("record_every", [0, -1, True])
def test_integrators_refuse_a_stride_that_is_not_a_positive_integer(record_every):
    # a stride below 1 would never advance the record, and a bool is no count
    with pytest.raises(ValueError, match="record_every"):
        numerics.integrate_fixed(lambda t, y: -y, 0.0, np.ones(2), 0.1, 10,
                                 record_every=record_every)
    with pytest.raises(ValueError, match="record_every"):
        numerics.integrate_affine(-np.eye(2), np.zeros(2), 0.0, np.ones(2), 0.1, 10,
                                  record_every=record_every)


@pytest.mark.parametrize("n_steps", [0, -3])
def test_integrators_record_only_the_start_without_steps(n_steps):
    for times, states in (
            numerics.integrate_fixed(lambda t, y: -y, 0.5, np.ones(2), 0.1, n_steps,
                                     record_every=2),
            numerics.integrate_affine(-np.eye(2), np.zeros(2), 0.5, np.ones(2), 0.1, n_steps,
                                      record_every=2)):
        assert times.tolist() == [0.5] and states.tolist() == [[1.0, 1.0]]


def test_affine_divergence_costs_only_the_samples_up_to_it():
    # y' = y at dt = 1 overflows a float at t = 713: over a horizon of 4e6
    # samples, the record stops there, and its memory stays that of the
    # samples taken (a record sized by the horizon would take 96 MB).
    tracemalloc.start()
    try:
        times, states = numerics.integrate_affine(np.eye(2), np.zeros(2), 0.0, np.ones(2),
                                                  1.0, 4_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    finite = np.isfinite(states).all(axis=1)
    assert len(times) == len(states) == 714 and times[-1] == 713.0
    assert finite[:-1].all() and not finite[-1]
    assert peak < 200_000, peak


def test_affine_zero_state_stays_zero_where_a_doubled_power_overflows():
    # y' = y at dt = 1: the block map P is finite but P^1024 overflows.  A
    # zero state of this c = 0 field is an equilibrium, recorded as exactly
    # zero to the horizon rather than as inf * 0.
    times, states = numerics.integrate_affine(np.eye(2), np.zeros(2), 0.0, np.zeros(2),
                                              1.0, 3000)
    assert len(times) == 3001 and times[-1] == 3000.0 and not states.any()


@pytest.mark.parametrize("record_every", [1, 3])
def test_integrators_stop_at_the_first_non_finite_block(record_every):
    # y' = y^2 from y(0) = 1 blows up at t = 1, and y' = y overflows a float
    # near t = 709: a horizon far past either ends the record at the first
    # block whose end state is not finite, and no step follows it.
    calls = []

    def square(t, y):
        calls.append(t)
        return y * y

    def check(times, states, t0, dt):
        finite = np.isfinite(states).all(axis=1)
        assert finite[:-1].all() and not finite[-1], finite
        assert len(times) == len(states) < 1000
        steps = np.arange(len(times)) * record_every
        assert np.array_equal(times, t0 + steps * dt)
        return steps[-1]

    steps = check(*numerics.integrate_fixed(square, 0.5, np.array([1.0]), 0.01, 10**5,
                                            record_every=record_every), 0.5, 0.01)
    assert len(calls) == 4 * steps
    check(*numerics.integrate_affine(np.eye(2), np.zeros(2), 0.0, np.ones(2), 1.0, 10**5,
                                     record_every=record_every), 0.0, 1.0)
    # a start state that is not finite is the whole record: no step is taken
    calls.clear()
    for bad in (np.nan, np.inf):
        times, states = numerics.integrate_fixed(square, 0.5, np.array([bad]), 0.01, 10**5,
                                                 record_every=record_every)
        assert times.tolist() == [0.5] and states.shape == (1, 1) and not calls
        times, states = numerics.integrate_affine(np.eye(2), np.zeros(2), 0.0,
                                                  np.array([1.0, bad]), 1.0, 10**5,
                                                  record_every=record_every)
        assert times.tolist() == [0.0] and states.shape == (1, 2)
        assert np.array_equal(states[0], [1.0, bad], equal_nan=True)

"""Tests for the tridiagonal solve."""

import numpy as np
import pytest

from symfd import ZeroPivot
from symfd.errors import ShapeMismatch
from symfd.tridiag import solve


def dense(lower, diag, upper):
    return np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)


def test_identity_system_returns_rhs():
    rhs = np.array([4.0, -1.0, 2.5, 0.25])
    assert np.array_equal(solve(np.zeros(3), np.ones(4), np.zeros(3), rhs), rhs)


def test_three_by_three_hand_oracle():
    # [[2,1,0],[1,2,1],[0,1,2]] x = [1,2,3] has x = (1/2, 0, 3/2)
    x = solve([1.0, 1.0], [2.0, 2.0, 2.0], [1.0, 1.0], [1.0, 2.0, 3.0])
    assert x == pytest.approx([0.5, 0.0, 1.5], abs=1e-14)


@pytest.mark.parametrize("n", list(range(2, 51)))
def test_random_diagonally_dominant_residual(n):
    rng = np.random.default_rng(1000 + n)
    lower = rng.uniform(-1.0, 1.0, n - 1)
    upper = rng.uniform(-1.0, 1.0, n - 1)
    diag = rng.uniform(2.5, 4.0, n) * rng.choice([-1.0, 1.0], n)
    rhs = rng.uniform(-10.0, 10.0, n)
    x = solve(lower, diag, upper, rhs)
    residual = np.abs(dense(lower, diag, upper) @ x - rhs).max()
    assert residual <= 1e-12 * (1.0 + np.abs(rhs).max())
    if n <= 10:
        ref = np.linalg.solve(dense(lower, diag, upper), rhs)
        assert np.abs(x - ref).max() <= 1e-12 * (1.0 + np.abs(ref).max())


def test_inputs_are_left_untouched():
    lower, diag, upper = np.ones(2), np.full(3, 3.0), np.ones(2)
    rhs = np.array([1.0, 2.0, 3.0])
    snapshots = [band.copy() for band in (lower, diag, upper, rhs)]
    solve(lower, diag, upper, rhs)
    for band, before in zip((lower, diag, upper, rhs), snapshots):
        assert np.array_equal(band, before)


def test_many_rhs_matches_column_by_column():
    rng = np.random.default_rng(42)
    n, m = 12, 5
    lower = rng.uniform(-1.0, 1.0, n - 1)
    upper = rng.uniform(-1.0, 1.0, n - 1)
    diag = rng.uniform(3.0, 5.0, n)
    rhs = rng.uniform(-4.0, 4.0, (n, m))
    block = solve(lower, diag, upper, rhs)
    for j in range(m):
        single = solve(lower, diag, upper, rhs[:, j])
        assert np.abs(block[:, j] - single).max() <= 1e-13


def test_zero_pivot_detected_mid_elimination():
    # zero inner diagonal entry with decoupled rows hits the pivot guard
    with pytest.raises(ZeroPivot) as err:
        solve([0.0, 0.0], [1.0, 0.0, 1.0], [0.0, 0.0], np.ones(3))
    assert "zero pivot" in str(err.value)
    assert err.value.index == 1


def test_zero_pivot_detected_in_last_row():
    with pytest.raises(ZeroPivot) as err:
        solve([0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0], np.ones(3))
    assert err.value.index == 2


def test_many_rhs_zero_pivot():
    # raised by the sweep over all the right-hand sides at once
    with pytest.raises(ZeroPivot) as err:
        solve(np.zeros(2), np.array([1.0, 0.0, 1.0]), np.zeros(2), np.ones((3, 4)))
    assert err.value.index == 1


def test_shape_validation():
    with pytest.raises(ShapeMismatch):
        solve([], [1.0], [], [1.0])  # n < 2
    with pytest.raises(ShapeMismatch):
        solve([1.0, 1.0], [1.0, 1.0], [1.0], [1.0, 1.0])  # lower too long
    with pytest.raises(ShapeMismatch):
        solve([1.0], [2.0, 2.0], [1.0], [1.0, 1.0, 1.0])  # rhs too long
    with pytest.raises(ShapeMismatch):
        solve(np.zeros(3), np.ones(3), np.zeros(2), np.ones(3))  # lower too long
    with pytest.raises(ShapeMismatch):
        solve(np.zeros(2), np.ones(3), np.zeros(2), np.ones((4, 2)))  # rhs too long


def thomas(lower, diag, upper, rhs):
    """Elimination of one rhs, as a plain list loop; the reference for solve."""
    a, b, c, d = (list(map(float, v)) for v in (lower, diag, upper, rhs))
    n = len(b)
    for i in range(1, n):
        w = a[i - 1] / b[i - 1]
        b[i] -= w * c[i - 1]
        d[i] -= w * d[i - 1]
    x = [0.0] * n
    x[n - 1] = d[n - 1] / b[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = (d[i] - c[i] * x[i + 1]) / b[i]
    return np.array(x)


def random_bands(rng, n):
    lower = rng.uniform(-1.0, 1.0, n - 1)
    upper = rng.uniform(-1.0, 1.0, n - 1)
    diag = rng.uniform(2.5, 4.0, n) * rng.choice([-1.0, 1.0], n)
    return lower, diag, upper


@pytest.mark.parametrize("n", [2, 26, 256, 257, 801])
def test_substitution_is_bit_identical_to_elimination(n):
    rng = np.random.default_rng(n)
    bands = random_bands(rng, n)
    rhs = rng.uniform(-10.0, 10.0, (n, 3))
    block = solve(*bands, rhs)
    for j in range(3):
        ref = thomas(*bands, rhs[:, j])
        assert np.array_equal(solve(*bands, rhs[:, j]), ref)
        assert np.array_equal(block[:, j], ref)


def test_solve_leaves_rhs_untouched():
    rng = np.random.default_rng(5)
    for n in (12, 257):
        bands = random_bands(rng, n)
        rhs = rng.uniform(-1.0, 1.0, (n, 3))
        before = rhs.copy()
        solve(*bands, rhs)
        solve(*bands, rhs[:, 1])
        assert np.array_equal(rhs, before)

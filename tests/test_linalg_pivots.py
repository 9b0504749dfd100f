"""The LU pivots behind `linalg.inverse`'s singularity test, cross-checked
against scipy's LU (LAPACK getrf), which ccmkit itself no longer imports."""

import numpy as np
import pytest
import scipy.linalg

from ccmkit.linalg import PIVOT_TOL, SingularMatrixError, _smallest_pivots, inverse


def _stack(m, seed):
    """2,000 random m x m members; every 7th has two equal rows (from m = 2)
    and every 11th is zero."""
    a = np.random.default_rng(seed).standard_normal((2000, m, m))
    a[3::7, -1] = a[3::7, 0]
    a[5::11] = 0.0
    return a


def _scipy_pivots(a):
    return np.abs(np.diagonal(scipy.linalg.lu(a)[2], axis1=-2, axis2=-1)).min(axis=-1)


def _flagged(a, pivots):
    scale = np.abs(a).max(axis=(-2, -1))
    return np.flatnonzero(pivots < PIVOT_TOL * np.where(scale > 0.0, scale, 1.0))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_pivots_match_scipy_lu(m):
    a = _stack(m, seed=m)
    pivots = _smallest_pivots(a)
    reference = _scipy_pivots(a)
    assert np.max(np.abs(pivots - reference)) <= 1e-13
    assert np.array_equal(_flagged(a, pivots), _flagged(a, reference))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("start", [0, 1, 4, 997])
def test_first_singular_member_matches_scipy_lu(m, start):
    a = _stack(m, seed=10 + m)[start:]
    first = _flagged(a, _scipy_pivots(a))[0]
    with pytest.raises(SingularMatrixError, match="singular to working precision") as info:
        inverse(a)
    assert info.value.index == first


def test_nonsingular_stack_is_inverted():
    a = _stack(3, seed=20)
    a = a[np.setdiff1d(np.arange(len(a)), _flagged(a, _scipy_pivots(a)))]
    assert np.array_equal(inverse(a), np.linalg.inv(a))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shape", [(2, 2), (4, 3, 3)])
def test_non_finite_input_rejected(bad, shape):
    a = np.ones(shape) + np.eye(shape[-1])
    a[(-1,) * len(shape)] = bad
    with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
        inverse(a)


@pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0), (0, 2, 2), (2, 0, 3, 3)])
def test_empty_input_returns_empty_inverse(shape):
    result = inverse(np.zeros(shape))
    assert result.shape == shape and result.dtype == float

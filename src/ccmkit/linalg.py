"""Dense linear algebra for small matrices (dims <= ~12), on LAPACK.

Thin wrappers over numpy/scipy that add the checks the rest of ccmkit
relies on: eigensolves refuse non-symmetric input (`NonSymmetricError`),
and inversion and the generalized eigensolve report singular or
indefinite blocks as `SingularMatrixError` instead of returning garbage.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgetrf

SYM_TOL = 1e-9


class NonSymmetricError(ValueError):
    pass


class SingularMatrixError(ValueError):
    pass


def require_symmetric(a, tol=SYM_TOL):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSymmetricError(f"expected square matrix, got shape {a.shape}")
    skew = np.max(np.abs(a - a.T)) if a.size else 0.0
    if skew > tol:
        raise NonSymmetricError(f"matrix not symmetric: max |A - A^T| = {skew:g}")
    return 0.5 * (a + a.T)


def sym_eig(a, tol=SYM_TOL):
    """Eigendecomposition of a symmetric matrix.

    Returns (eigenvalues ascending, eigenvectors as columns).
    """
    w, v = np.linalg.eigh(require_symmetric(a, tol))
    return w, v


def inverse(a, pivot_tol=1e-13):
    """Matrix inverse by LU with partial pivoting.

    Raises SingularMatrixError when a pivot falls below pivot_tol times
    the largest entry of a.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected square matrix, got shape {a.shape}")
    scale = np.max(np.abs(a)) or 1.0
    lu, piv, _ = dgetrf(a)
    pivot = np.min(np.abs(lu.diagonal()))
    if pivot < pivot_tol * scale:
        raise SingularMatrixError(
            f"matrix singular to working precision (pivot {pivot:g})"
        )
    return scipy.linalg.lu_solve((lu, piv), np.eye(a.shape[0]), check_finite=False)


def null_space_basis(a, tol=1e-10):
    """Orthonormal basis of the null space of a (m x n, m <= n).

    Right singular vectors with singular value below tol * scale span
    the numerical null space; rank is decided entirely by tol.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    _, sv, vt = np.linalg.svd(a)
    scale = max(float(sv[0]) if sv.size else 0.0, 1.0)
    rank = int(np.sum(sv > tol * scale))
    return vt[rank:].T.copy()


def spectral_norm(a):
    """Largest singular value."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def generalized_sym_eig(a, b):
    """Eigenvalues/vectors of A v = mu B v with A symmetric, B SPD.

    Eigenvectors are B-orthonormal (V^T B V = I).
    """
    a = require_symmetric(a)
    b = require_symmetric(b)
    try:
        return scipy.linalg.eigh(a, b)
    except np.linalg.LinAlgError:
        raise SingularMatrixError("B block not positive definite")

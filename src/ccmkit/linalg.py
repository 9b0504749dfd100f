"""Dense linear algebra for small matrices (dims <= ~12), on LAPACK.

Thin wrappers over numpy/scipy that add the checks the rest of ccmkit
relies on: eigensolves refuse non-symmetric input (`NonSymmetricError`),
and inversion and the generalized eigensolve report singular or
indefinite blocks as `SingularMatrixError` instead of returning garbage.

Every function also takes a stack of matrices, shape `(..., m, n)`, and
solves all of its members with one batched LAPACK call; a 2-D input is
one matrix, as before. An error on a stack names its first failing
member in C order and keeps that flat position in `err.index`.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

SYM_TOL = 1e-9


class _MatrixError(ValueError):
    """A failure on one matrix, or on member `index` of a stack."""

    def __init__(self, reason, index=None):
        self.reason = reason
        self.index = index
        super().__init__(reason if index is None else f"{reason} (stack member {index})")


class NonSymmetricError(_MatrixError):
    pass


class SingularMatrixError(_MatrixError):
    pass


def _member(a, flat_index):
    """`flat_index` for a stack, None for a single matrix."""
    return int(flat_index) if a.ndim > 2 else None


def require_symmetric(a, tol=SYM_TOL):
    """Symmetric part of a (or of each member of a stack), after checking
    that no entry of A - A^T exceeds tol."""
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise NonSymmetricError(f"expected square matrix, got shape {a.shape}")
    a_t = np.swapaxes(a, -1, -2)
    if a.size:
        skew = np.abs(a - a_t).max(axis=(-2, -1)).ravel()
        bad = np.flatnonzero(skew > tol)
        if bad.size:
            raise NonSymmetricError(
                f"matrix not symmetric: max |A - A^T| = {skew[bad[0]]:g}",
                _member(a, bad[0]),
            )
    return 0.5 * (a + a_t)


def sym_eig(a, tol=SYM_TOL):
    """Eigendecomposition of a symmetric matrix or stack of them.

    Returns (eigenvalues ascending, eigenvectors as columns).
    """
    w, v = np.linalg.eigh(require_symmetric(a, tol))
    return w, v


def inverse(a, pivot_tol=1e-13):
    """Inverse of a matrix, or of each member of a stack, after an LU
    factorization with partial pivoting.

    Raises SingularMatrixError when a pivot falls below pivot_tol times
    the largest entry of its matrix.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrix, got shape {a.shape}")
    scale = np.abs(a).max(axis=(-2, -1), initial=0.0)
    scale = np.where(scale > 0.0, scale, 1.0)
    _, _, upper = scipy.linalg.lu(a)
    pivots = np.abs(np.diagonal(upper, axis1=-2, axis2=-1)).min(axis=-1, initial=np.inf)
    bad = np.flatnonzero(pivots < pivot_tol * scale)
    if bad.size:
        raise SingularMatrixError(
            f"matrix singular to working precision (pivot {pivots.flat[bad[0]]:g})",
            _member(a, bad[0]),
        )
    return np.linalg.inv(a)


def null_space_basis(a, tol=1e-10):
    """Orthonormal basis of the null space of a (m x n, m <= n).

    Right singular vectors with singular value below tol * scale span
    the numerical null space; rank is decided entirely by tol. On a 2-D
    input returns the n x k basis. On a stack `(..., m, n)` the rank is
    decided per member and the result is a list of `(index, basis)`
    pairs, one per rank present: `index` holds the flat positions (C
    order, ascending) of the members with that rank and `basis` their
    bases, shape `(len(index), n, k)`.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim > 2:
        return _null_space_groups(a.reshape(-1, *a.shape[-2:]), tol)
    ((_, basis),) = _null_space_groups(np.atleast_2d(a)[None], tol)
    return basis[0]


def _null_space_groups(stack, tol):
    _, sv, vt = np.linalg.svd(stack)
    scale = sv.max(axis=1, initial=1.0)
    ranks = np.count_nonzero(sv > tol * scale[:, None], axis=1)
    groups = []
    for rank in np.unique(ranks):
        index = np.flatnonzero(ranks == rank)
        groups.append((index, np.swapaxes(vt[index, rank:], 1, 2).copy()))
    return groups


def spectral_norm(a):
    """Largest singular value of a matrix, or of each member of a stack."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0:
        return np.zeros(a.shape[:-2])[()]
    return np.linalg.norm(a, 2, axis=(-2, -1))


def generalized_sym_eig(a, b):
    """Eigenvalues/vectors of A v = mu B v with A symmetric, B SPD.

    Works on single matrices and on stacks. With B = L L^T (Cholesky),
    the problem reduces to the standard one for L^-1 A L^-T, solved for
    every member at once. Eigenvectors are B-orthonormal (V^T B V = I).
    """
    a = require_symmetric(a)
    b = require_symmetric(b)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("array must not contain infs or NaNs")
    try:
        chol = np.linalg.cholesky(b)
    except np.linalg.LinAlgError:
        raise _first_indefinite(b) from None
    inv_l = np.linalg.inv(chol)
    inv_l_t = np.swapaxes(inv_l, -1, -2)
    w, y = np.linalg.eigh(inv_l @ a @ inv_l_t)
    return w, inv_l_t @ y


def _first_indefinite(b):
    """SingularMatrixError naming the first member of b with no Cholesky
    factor; the batched factorization does not say which one failed."""
    stack = b.reshape(-1, *b.shape[-2:])
    for flat_index, member in enumerate(stack):
        try:
            np.linalg.cholesky(member)
        except np.linalg.LinAlgError:
            break
    return SingularMatrixError("B block not positive definite", _member(b, flat_index))

"""Dense linear algebra for small matrices (dims <= ~12), on numpy.

Thin wrappers over numpy's LAPACK routines that add the checks the rest
of ccmkit relies on: eigensolves refuse non-symmetric input
(`NonSymmetricError`), and inversion and the generalized eigensolve
report singular or indefinite blocks as `SingularMatrixError` instead of
returning garbage. `inverse` finds its LU pivots in numpy, by partial
pivoting over the whole stack.

Every function also takes a stack of matrices, shape `(..., m, n)`, and
solves all of its members at once, with one batched LAPACK call or one
numpy elimination per column; a 2-D input is one matrix, as before. When
every member of the stack (of both, for `generalized_sym_eig`) has the
bits of member 0, as with a constant M or B, the eigen- and null-space
solves take member 0 alone and repeat its result: the same bits as the
batched solve, in writable arrays that share no memory. An error on a
stack names its first failing member in C order and keeps that flat
position in `err.index`.
"""

from __future__ import annotations

import math

import numpy as np

SYM_TOL = 1e-9      # largest entry of A - A^T accepted, times max(1, largest of A)
PIVOT_TOL = 1e-13   # smallest LU pivot, relative to the largest entry
NULL_TOL = 1e-10    # singular values below NULL_TOL * largest span the null space


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


def _uniform(a):
    """Whether `a` is a stack of two or more members that all have the bits
    of member 0 (so 0.0 and -0.0 differ): then solving member 0 solves
    them all."""
    if not a.size or math.prod(a.shape[:-2]) < 2:
        return False
    bits = a.view(np.uint64)
    return bool((bits == bits[(0,) * (a.ndim - 2)]).all())


def _first(a):
    """Member 0 of a stack, as a one-member stack (an error on it names
    index 0)."""
    return a[(0,) * (a.ndim - 2)][None]


def _repeat(result, a):
    """The result for `_first(a)` repeated over the stack `a`."""
    lead = a.shape[:-2]
    return np.repeat(result, math.prod(lead), axis=0).reshape(lead + result.shape[1:])


def require_symmetric(a):
    """Symmetric part of a (or of each member of a stack), after checking that
    no entry of A - A^T exceeds SYM_TOL times max(1, the member's largest entry)."""
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise NonSymmetricError(f"expected square matrix, got shape {a.shape}")
    a_t = np.swapaxes(a, -1, -2)
    if a.size:
        skew = np.abs(a - a_t).max(axis=(-2, -1)).ravel()
        bad = np.flatnonzero(skew > SYM_TOL)  # rounding in a scaled matrix excuses more
        scale = np.abs(a.reshape(-1, *a.shape[-2:])[bad]).max(axis=(-2, -1), initial=1.0)
        bad = bad[skew[bad] > SYM_TOL * scale]
        if bad.size:
            raise NonSymmetricError(
                f"matrix not symmetric: max |A - A^T| = {skew[bad[0]]:g}",
                _member(a, bad[0]),
            )
    return 0.5 * a + 0.5 * a_t  # exact halves: no overflow near the largest float


def sym_eig(a):
    """Eigendecomposition of a symmetric matrix or stack of them.

    Returns (eigenvalues ascending, eigenvectors as columns).
    """
    a = require_symmetric(a)
    if _uniform(a):
        return tuple(_repeat(r, a) for r in np.linalg.eigh(_first(a)))
    w, v = np.linalg.eigh(a)
    return w, v


def inverse(a):
    """Inverse of a matrix, or of each member of a stack, after an LU
    factorization with partial pivoting.

    Raises SingularMatrixError when a pivot falls below PIVOT_TOL times
    the largest entry of its matrix, and ValueError on infs or NaNs.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("array must not contain infs or NaNs")
    scale = np.abs(a).max(axis=(-2, -1), initial=0.0)
    scale = np.where(scale > 0.0, scale, 1.0)
    pivots = _smallest_pivots(a)
    bad = np.flatnonzero(pivots < PIVOT_TOL * scale)
    if bad.size:
        raise SingularMatrixError(
            f"matrix singular to working precision (pivot {pivots.flat[bad[0]]:g})",
            _member(a, bad[0]),
        )
    return np.linalg.inv(a)


def _smallest_pivots(a):
    """Smallest |pivot| of each member's LU factorization with partial
    pivoting (Golub & Van Loan, Algorithm 3.4.1), all members at once;
    inf for a 0 x 0 matrix."""
    n = a.shape[-1]
    u = a.reshape(math.prod(a.shape[:-2]), n, n).copy()
    rows = np.arange(len(u))
    smallest = np.full(len(u), np.inf)
    for k in range(n):
        p = k + np.abs(u[:, k:, k]).argmax(axis=1)
        pivot_rows = u[rows, p]
        u[rows, p] = u[:, k]
        u[:, k] = pivot_rows
        pivot = u[:, k, k]
        smallest = np.minimum(smallest, np.abs(pivot))
        factors = u[:, k + 1:, k] / np.where(pivot == 0.0, 1.0, pivot)[:, None]
        u[:, k + 1:, k + 1:] -= factors[:, :, None] * u[:, None, k, k + 1:]
    return smallest.reshape(a.shape[:-2])


def null_space_basis(a):
    """Orthonormal basis of the null space of a (m x n, m <= n).

    Right singular vectors with singular value below NULL_TOL * scale
    span the numerical null space; rank is decided entirely by NULL_TOL.
    On a 2-D input returns the n x k basis. On a stack `(..., m, n)` the rank is
    decided per member and the result is a list of `(index, basis)`
    pairs, one per rank present: `index` holds the flat positions (C
    order, ascending) of the members with that rank and `basis` their
    bases, shape `(len(index), n, k)`.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim > 2:
        return _null_space_groups(a.reshape(-1, *a.shape[-2:]))
    ((_, basis),) = _null_space_groups(np.atleast_2d(a)[None])
    return basis[0]


def _null_space_groups(stack):
    if _uniform(stack):
        ((_, basis),) = _null_space_groups(_first(stack))
        return [(np.arange(len(stack)), _repeat(basis, stack))]
    _, sv, vt = np.linalg.svd(stack)
    scale = sv.max(axis=1, initial=1.0)
    ranks = np.count_nonzero(sv > NULL_TOL * scale[:, None], axis=1)
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
    if a.shape == b.shape and _uniform(a) and _uniform(b):
        return tuple(_repeat(r, a) for r in _reduced_eig(_first(a), _first(b)))
    return _reduced_eig(a, b)


def _reduced_eig(a, b):
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

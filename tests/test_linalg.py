"""Dense linear algebra primitives, cross-checked against LAPACK."""

import math

import numpy as np
import pytest
import scipy.linalg

from ccmkit.linalg import (
    NonSymmetricError,
    SingularMatrixError,
    generalized_sym_eig,
    inverse,
    null_space_basis,
    require_symmetric,
    spectral_norm,
    sym_eig,
)

SQRT2 = math.sqrt(2.0)


class TestSymEig:
    def test_reduced_contraction_block(self):
        w, v = sym_eig(np.array([[-2.0, -4.0], [-4.0, -10.0]]))
        # characteristic polynomial t^2 + 12 t + 4 = 0
        assert w == pytest.approx([-6.0 - 4.0 * SQRT2, -6.0 + 4.0 * SQRT2])

    def test_identity(self):
        w, v = sym_eig(np.eye(3))
        assert w == pytest.approx([1.0, 1.0, 1.0])
        assert np.allclose(v @ v.T, np.eye(3), atol=1e-12)

    def test_diagonal_sorted_ascending(self):
        w, _ = sym_eig(np.diag([5.0, -3.0]))
        assert w == pytest.approx([-3.0, 5.0])

    def test_eigenpairs_residual(self):
        rng = np.random.default_rng(1)
        for n in range(2, 9):
            a = rng.standard_normal((n, n))
            a = a + a.T
            w, v = sym_eig(a)
            scale = np.max(np.abs(a))
            for i in range(n):
                assert np.max(np.abs(a @ v[:, i] - w[i] * v[:, i])) <= 1e-9 * scale
            assert np.all(np.diff(w) >= -1e-12)

    def test_trace_det_identities(self):
        rng = np.random.default_rng(2)
        for n in range(1, 9):
            a = rng.standard_normal((n, n))
            a = a + a.T
            w, _ = sym_eig(a)
            assert np.sum(w) == pytest.approx(np.trace(a), rel=1e-8, abs=1e-8)
            assert np.prod(w) == pytest.approx(
                np.linalg.det(a), rel=1e-8, abs=1e-8
            )

    def test_matches_lapack(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 6))
        a = a + a.T
        w, _ = sym_eig(a)
        assert w == pytest.approx(np.linalg.eigvalsh(a), rel=1e-9, abs=1e-9)

    def test_rejects_non_symmetric(self):
        with pytest.raises(NonSymmetricError):
            sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_require_symmetric_shapes(self):
        with pytest.raises(NonSymmetricError):
            require_symmetric(np.zeros((2, 3)))

    def test_symmetry_bound_is_relative(self):
        # rounding of 1e-7 in entries near 1e9 is symmetric, as at scale 1
        a = 1e9 * np.array([[3.0, 1.0], [1.0, 2.0]])
        a[0, 1] += 1.2e-7
        assert np.array_equal(require_symmetric(a), 0.5 * a + 0.5 * a.T)
        sym_eig(np.stack([a, a / 1e9]))
        with pytest.raises(NonSymmetricError):
            sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NonSymmetricError):
            sym_eig(np.array([[1e9, 10.0], [0.0, 1e9]]))


class TestInverse:
    def test_dual_metric_inverse(self):
        a = np.array([[3.0, -1.0], [-1.0, 2.0]])
        assert np.allclose(
            inverse(a), np.array([[2.0, 1.0], [1.0, 3.0]]) / 5.0, atol=1e-14
        )

    def test_identity(self):
        assert np.allclose(inverse(np.eye(4)), np.eye(4), atol=1e-15)

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            inverse(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_random_residual(self):
        rng = np.random.default_rng(4)
        for n in range(1, 7):
            a = rng.standard_normal((n, n)) + n * np.eye(n)
            assert np.max(np.abs(a @ inverse(a) - np.eye(n))) <= 1e-10 * np.linalg.cond(a)

    def test_non_square(self):
        with pytest.raises(ValueError):
            inverse(np.zeros((2, 3)))


class TestNullSpace:
    def test_metric_input_annihilator(self):
        basis = null_space_basis(np.array([[1.0, 3.0]]) / 5.0)
        assert basis.shape == (2, 1)
        expected = np.array([3.0, -1.0]) / math.sqrt(10.0)
        assert np.allclose(np.abs(basis[:, 0] @ expected), 1.0, atol=1e-12)

    def test_coordinate_plane(self):
        basis = null_space_basis(np.array([[0.0, 0.0, 1.0]]))
        assert basis.shape == (3, 2)
        assert np.max(np.abs(basis[2, :])) <= 1e-12

    def test_full_rank_empty(self):
        assert null_space_basis(np.eye(2)).shape == (2, 0)

    def test_contracts(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = rng.integers(1, 4)
            n = rng.integers(m, 7)
            a = rng.standard_normal((m, n))
            basis = null_space_basis(a)
            rank = np.linalg.matrix_rank(a)
            assert basis.shape[1] == n - rank
            if basis.shape[1]:
                assert np.max(np.abs(a @ basis)) <= 1e-10 * max(
                    np.max(np.abs(a)), 1.0
                )
                assert np.allclose(
                    basis.T @ basis, np.eye(basis.shape[1]), atol=1e-10
                )


class TestSpectralNorm:
    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, -7.0])) == pytest.approx(7.0)

    def test_zero(self):
        assert spectral_norm(np.zeros((3, 3))) == 0.0

    def test_damping_magnitude_matrix(self):
        # symmetric 2x2: eigenvalues (-4 +- sqrt(20))/10, norm (2+sqrt 5)/5
        a = np.array([[0.0, 1.0], [1.0, -4.0]]) / 5.0
        assert spectral_norm(a) == pytest.approx((2.0 + math.sqrt(5.0)) / 5.0)

    def test_matches_lapack_svd(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            a = rng.standard_normal((rng.integers(1, 6), rng.integers(1, 6)))
            assert spectral_norm(a) == pytest.approx(
                np.linalg.svd(a, compute_uv=False)[0], rel=1e-9
            )


class TestGeneralizedEig:
    def test_matches_scipy(self):
        rng = np.random.default_rng(7)
        for n in range(2, 6):
            a = rng.standard_normal((n, n))
            a = a + a.T
            b = rng.standard_normal((n, n))
            b = b @ b.T + n * np.eye(n)
            w, v = generalized_sym_eig(a, b)
            assert w == pytest.approx(
                scipy.linalg.eigh(a, b, eigvals_only=True), rel=1e-9, abs=1e-9
            )
            for i in range(n):
                res = a @ v[:, i] - w[i] * (b @ v[:, i])
                assert np.max(np.abs(res)) <= 1e-8 * np.max(np.abs(a))

    def test_indefinite_b_rejected(self):
        with pytest.raises(SingularMatrixError):
            generalized_sym_eig(np.eye(2), np.diag([1.0, -1.0]))


class TestStacks:
    """A (P, n, n) stack gives what P separate 2-D calls give."""

    @staticmethod
    def sym_stack(rng, p, n):
        a = rng.standard_normal((p, n, n))
        return a + np.swapaxes(a, 1, 2)

    def test_sym_eig_matches_members(self):
        a = self.sym_stack(np.random.default_rng(8), 6, 3)
        w, v = sym_eig(a)
        for i in range(6):
            w_i, v_i = sym_eig(a[i])
            assert np.array_equal(w[i], w_i)
            assert np.array_equal(v[i], v_i)

    def test_generalized_matches_members(self):
        rng = np.random.default_rng(9)
        a = self.sym_stack(rng, 5, 3)
        b = rng.standard_normal((5, 3, 3))
        b = b @ np.swapaxes(b, 1, 2) + 3 * np.eye(3)
        w, v = generalized_sym_eig(a, b)
        for i in range(5):
            assert w[i] == pytest.approx(
                scipy.linalg.eigh(a[i], b[i], eigvals_only=True), rel=1e-9, abs=1e-9
            )
            assert np.allclose(v[i].T @ b[i] @ v[i], np.eye(3), atol=1e-10)

    def test_one_non_symmetric_member(self):
        a = np.tile(np.eye(2), (4, 1, 1))
        a[2, 0, 1] = 1.0
        with pytest.raises(NonSymmetricError) as err:
            sym_eig(a)
        assert err.value.index == 2
        with pytest.raises(NonSymmetricError):
            generalized_sym_eig(a, np.tile(np.eye(2), (4, 1, 1)))

    def test_one_indefinite_member(self):
        b = np.tile(np.eye(2), (4, 1, 1))
        b[1] = np.diag([1.0, -1.0])
        b[3] = np.diag([-1.0, 1.0])
        with pytest.raises(SingularMatrixError) as err:
            generalized_sym_eig(np.tile(np.eye(2), (4, 1, 1)), b)
        assert err.value.index == 1

    def test_null_space_groups_by_rank(self):
        # rows [x, 0] have rank 1 except at x = 0, where the null space is
        # the whole plane
        rows = np.array([[[x, 0.0]] for x in (-1.0, 0.0, 2.0, 0.0)])
        groups = null_space_basis(rows)
        assert [list(index) for index, _ in groups] == [[1, 3], [0, 2]]
        for index, bases in groups:
            for i, basis in zip(index, bases):
                assert np.array_equal(basis, null_space_basis(rows[i]))
        assert groups[0][1].shape == (2, 2, 2)
        assert groups[1][1].shape == (2, 2, 1)

    # A stack whose members all have the bits of member 0 solves member 0
    # once. The oracle is the batched call on the same stack with its last
    # member doubled, which has to solve every member.

    @staticmethod
    def uniform_and_oracle(member, p=1000):
        stack = np.repeat(member[None], p, axis=0)
        oracle = stack.copy()
        oracle[-1] *= 2.0
        return stack, oracle

    @staticmethod
    def assert_same_bytes(got, oracle):
        assert len(got) == len(oracle)
        for g, o in zip(got, oracle):
            assert g.shape == o.shape
            assert g[:-1].tobytes() == o[:-1].tobytes()

    SOLVES = {
        "sym_eig": (sym_eig, np.array([[2.0, 0.0, 1.0], [0.0, 3.0, 0.5], [1.0, 0.5, 4.0]])),
        "generalized_sym_eig": (
            lambda ab: generalized_sym_eig(ab[..., 0, :, :], ab[..., 1, :, :]),
            np.array([[[1.0, 0.0, 2.0], [0.0, -3.0, 0.5], [2.0, 0.5, 1.0]],
                      [[4.0, 0.0, 1.0], [0.0, 3.0, 0.5], [1.0, 0.5, 5.0]]])),
        "inverse": (lambda a: (inverse(a),), np.array([[2.0, 0.0, 1.0], [1.0, 3.0, 0.0],
                                                       [0.0, 1.0, 4.0]])),
        "null_space_basis": (lambda a: tuple(b for _, b in null_space_basis(a)),
                             np.array([[1.0, 0.0, 2.0, -1.0], [0.0, 1.0, 0.5, 3.0]])),
    }

    @pytest.mark.parametrize("name", SOLVES)
    def test_uniform_stack_matches_batched(self, name):
        solve, member = self.SOLVES[name]
        stack, oracle = self.uniform_and_oracle(member)
        self.assert_same_bytes(solve(stack), solve(oracle))

    @pytest.mark.parametrize("name", SOLVES)
    def test_signed_zero_stack_matches_batched(self, name):
        # members differ only in the sign of their zero entries: by bits
        # they are not uniform
        solve, member = self.SOLVES[name]
        stack, oracle = self.uniform_and_oracle(member)
        for s in (stack, oracle):
            s[1::2][s[1::2] == 0.0] = -0.0
        assert np.signbit(stack[1]).sum() > np.signbit(stack[0]).sum()
        self.assert_same_bytes(solve(stack), solve(oracle))

    @pytest.mark.parametrize("name", SOLVES)
    def test_uniform_results_writable_and_unshared(self, name):
        solve, member = self.SOLVES[name]
        results = solve(np.repeat(member[None], 4, axis=0))
        for r in results:
            assert r.flags.writeable
            assert not any(np.shares_memory(r[i], r[j])
                           for i in range(4) for j in range(i + 1, 4))
        assert not any(np.shares_memory(r, s)
                       for i, r in enumerate(results) for s in results[i + 1:])

    def test_uniform_multi_axis_stack(self):
        member = self.SOLVES["sym_eig"][1]
        w, v = sym_eig(np.broadcast_to(member, (5, 7, 3, 3)))
        w_0, v_0 = sym_eig(member)
        assert w.shape == (5, 7, 3) and v.shape == (5, 7, 3, 3)
        assert np.array_equal(w[4, 6], w_0) and np.array_equal(v[4, 6], v_0)
        groups = null_space_basis(np.broadcast_to(np.array([[1.0, 0.0, 2.0]]), (2, 3, 1, 3)))
        assert [list(index) for index, _ in groups] == [list(range(6))]

    def test_uniform_non_symmetric_names_member_zero(self):
        a = np.tile(np.array([[1.0, 2.0], [0.0, 1.0]]), (6, 1, 1))
        for call in (sym_eig, lambda x: generalized_sym_eig(x, np.tile(np.eye(2), (6, 1, 1)))):
            with pytest.raises(NonSymmetricError) as err:
                call(a)
            assert err.value.index == 0

    def test_uniform_indefinite_b_names_member_zero(self):
        b = np.tile(np.diag([1.0, -1.0]), (6, 1, 1))
        with pytest.raises(SingularMatrixError) as err:
            generalized_sym_eig(np.tile(np.eye(2), (6, 1, 1)), b)
        assert err.value.index == 0
        assert str(err.value) == "B block not positive definite (stack member 0)"

    def test_uniform_singular_inverse_names_member_zero(self):
        with pytest.raises(SingularMatrixError) as err:
            inverse(np.ones((6, 2, 2)))
        assert err.value.index == 0
        assert str(err.value).endswith("(stack member 0)")

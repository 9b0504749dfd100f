"""Gain synthesis, potentials, and the three controller realizations."""

import math
import random

import numpy as np
import pytest

from ccmkit import expr as ex
from ccmkit.certificates import Grid
from ccmkit.controller import (
    DampingParams,
    DynExtState,
    ExactnessError,
    GainField,
    SynthesisError,
    dynext_beta,
    dynext_control,
    dynext_controller_step,
    exactness_residual,
    gauss_legendre_01,
    khat,
    radial_potential,
    static_exact_controller,
    synthesize_gain,
    upsilon,
)
from ccmkit.model import MetricField, SystemModel

SQRT5 = math.sqrt(5.0)


class TestDampingParams:
    def test_lambda0(self):
        p = DampingParams(r=2.0, gamma0=0.5, lam=1.0)
        # min(lam - 1/(2r), 2/p_lo) with p_lo = 10 -> 0.2 caps the rate
        assert p.lambda0(10.0) == pytest.approx(0.2)
        assert p.lambda0(0.1) == pytest.approx(0.75)

    def test_gamma0_positive(self):
        with pytest.raises(SynthesisError):
            DampingParams(r=2.0, gamma0=0.0, lam=1.0)

    def test_r_lambda_coupling(self):
        with pytest.raises(SynthesisError):
            DampingParams(r=0.5, gamma0=1.0, lam=1.0)  # 2 r lam = 1
        DampingParams(r=0.51, gamma0=1.0, lam=1.0)  # just feasible


class TestUpsilon:
    def test_numex_closed_form(self, numex):
        # at x2 = 0 the contraction-form matrix is [[0,1],[1,-4]]/5
        got = upsilon(numex.metric, numex.system, np.array([0.7, 0.0]))
        assert got == pytest.approx((2.0 + SQRT5) / 5.0, rel=1e-12)

    def test_matches_eig_oracle(self, numex, micro):
        rng = np.random.default_rng(21)
        for bundle in (numex, micro):
            sys, metric = bundle.system, bundle.metric
            for _ in range(10):
                x = rng.uniform(sys.domain_lo, sys.domain_hi)
                m_x = metric.eval(x)
                jac = sys.jac_f(x)
                form = metric.dir_deriv(x, sys.eval_f(x)) + jac.T @ m_x + m_x @ jac
                oracle = np.max(np.abs(np.linalg.eigvalsh(form)))
                assert upsilon(metric, sys, x) == pytest.approx(oracle, rel=1e-10)

    def test_scales_linearly_with_metric(self, numex):
        scaled = MetricField(
            2,
            [["14/5", "7/5"], ["0", "21/5"]],
            7.0 * numex.metric.p_lo,
            7.0 * numex.metric.p_hi,
            0.0,
        )
        x = np.array([1.3, -0.8])
        assert upsilon(scaled, numex.system, x) == pytest.approx(
            7.0 * upsilon(numex.metric, numex.system, x), rel=1e-12
        )


class TestGainField:
    def test_shape_validation(self):
        with pytest.raises(SynthesisError):
            GainField.from_exprs(2, 1, [["x1"]])

    def test_constant_detection(self):
        g = GainField.from_exprs(2, 1, [["1", "2/5"]])
        assert g.is_constant()
        assert np.allclose(g(np.array([9.0, -9.0])), [[1.0, 0.4]])
        assert not GainField.from_exprs(2, 1, [["x1", "0"]]).is_constant()

    def test_symbolic_partial(self, numex_gain):
        x = np.array([0.0, 1.5])
        d2 = numex_gain.partial(x, 1)
        assert np.allclose(d2, [[-3.0, -3.0]], atol=1e-12)
        assert np.allclose(numex_gain.partial(x, 0), 0.0, atol=1e-12)

    def test_constant_partial_zero(self):
        g = GainField.constant([[4.0, -1.0]])
        assert np.array_equal(g.partial(np.ones(2), 0), np.zeros((1, 2)))

    def test_fd_fallback_partial(self):
        g = GainField(2, 1, lambda x: np.array([[x[0] ** 2, x[1]]]))
        d1 = g.partial(np.array([3.0, 0.0]), 0)
        assert np.allclose(d1, [[6.0, 0.0]], atol=1e-8)


class TestSynthesizeGain:
    def test_microactuator_constant_gain(self, micro):
        params = DampingParams(r=1.0, gamma0=1.0, lam=1.0)
        gain = synthesize_gain(micro.system, micro.metric, params,
                               gamma_const=micro.gamma_const)
        assert gain.is_constant()
        assert np.allclose(gain.constant_matrix, [[0.0, 0.0, -2.0]], atol=1e-12)
        assert gain.meta["gamma0"] == 0.0

    def test_numex_direction_and_magnitude(self, numex):
        params = DampingParams(r=2.0, gamma0=0.5, lam=1.0)
        gain = synthesize_gain(numex.system, numex.metric, params)
        assert not gain.is_constant()
        for x2 in (-2.0, 0.0, 1.0, 3.0):
            x = np.array([0.4, x2])
            k = gain(x)[0]
            # damping direction R (MB)^T = [0.5, 1.5] for this metric
            assert k[1] / k[0] == pytest.approx(3.0, rel=1e-10)
            gamma = (params.r / numex.metric.p_lo) * upsilon(
                numex.metric, numex.system, x) ** 2
            assert k[0] == pytest.approx(-(gamma + params.gamma0) * 0.5,
                                         rel=1e-10)
            assert k[0] < 0.0

    def test_requires_primal_metric(self, numex):
        params = DampingParams(r=2.0, gamma0=0.5, lam=1.0)
        with pytest.raises(SynthesisError):
            synthesize_gain(numex.system, numex.dual_metric, params)

    def test_singular_input_direction(self):
        sys = SystemModel(2, 1, ["x2", "0"], [["x1"], ["0"]], [-1, -1], [1, 1])
        metric = MetricField(2, [["1", "0"], ["0", "1"]], 1.0, 1.0, 0.0)
        params = DampingParams(r=2.0, gamma0=0.5, lam=1.0)
        gain = synthesize_gain(sys, metric, params)
        with pytest.raises(SynthesisError):
            gain(np.zeros(2))  # (MB)^T MB = x1^2 loses rank at the origin


class TestExactness:
    def test_builtin_gain_residual(self, numex_gain):
        grid = Grid([-2.0, -2.0], [2.0, 2.0], (9, 9))
        worst, witness = exactness_residual(numex_gain, grid)
        # dK1/dx2 - dK2/dx1 = -2 x2, max 2*|x2| = 4 on the box
        assert worst == pytest.approx(4.0, abs=1e-9)
        assert abs(witness[1]) == pytest.approx(2.0)

    def test_constant_gain_exact(self):
        g = GainField.constant([[1.0, 2.0]])
        worst, witness = exactness_residual(g, Grid([0, 0], [4, 2], (3, 3)))
        assert worst == 0.0
        assert np.allclose(witness, [2.0, 1.0])

    def test_separable_gain_exact(self):
        g = GainField.from_exprs(2, 1, [["-x1", "-x2^3"]])
        worst, _ = exactness_residual(g, Grid([-2, -2], [2, 2], (7, 7)))
        assert worst <= 1e-12


class TestRadialPotentialAndStatic:
    def test_constant_gain_potential(self):
        g = GainField.constant([[0.0, 0.0, -2.0]])
        x = np.array([1.0, 2.0, 3.0])
        assert np.allclose(radial_potential(g, x), [-6.0])

    def test_polynomial_potential_closed_form(self):
        g = GainField.from_exprs(2, 1, [["-x1", "-x2^3"]])
        for x in ([1.0, 1.0], [-2.0, 0.5], [0.0, 3.0]):
            x = np.array(x)
            expected = -x[0] ** 2 / 2.0 - x[1] ** 4 / 4.0
            assert radial_potential(g, x)[0] == pytest.approx(expected,
                                                              abs=1e-13)

    def test_microactuator_static_law(self, micro_gain):
        # u = u_d - 2 (Q - Q_d)
        u = static_exact_controller(
            micro_gain, np.array([1.0, 0.5, 2.0]), np.array([1.0, 0.5, 0.5]),
            np.array([0.25]),
        )
        assert u[0] == pytest.approx(0.25 - 2.0 * 1.5, abs=1e-13)

    def test_refuses_inexact_gain(self, numex_gain):
        grid = Grid([-2.0, -2.0], [2.0, 2.0], (5, 5))
        with pytest.raises(ExactnessError):
            static_exact_controller(
                numex_gain, np.ones(2), np.zeros(2), np.zeros(1),
                grid=grid,
            )

    def test_requires_residual_or_grid(self, numex_gain):
        with pytest.raises(ExactnessError):
            static_exact_controller(
                numex_gain, np.ones(2), np.zeros(2), np.zeros(1)
            )

    def test_accepts_measured_exact_gain(self):
        g = GainField.from_exprs(2, 1, [["-x1", "-x2^3"]])
        grid = Grid([-2, -2], [2, 2], (5, 5))
        u = static_exact_controller(
            g, np.array([1.0, 1.0]), np.zeros(2), np.array([2.0]), grid=grid
        )
        assert u[0] == pytest.approx(2.0 - 0.75, abs=1e-12)

    def test_quadrature_weights(self):
        points, weights = gauss_legendre_01()
        assert np.sum(weights) == pytest.approx(1.0, abs=1e-14)
        assert np.all((points > 0) & (points < 1))
        # exact for high-degree polynomials on [0, 1]
        assert np.sum(weights * points ** 9) == pytest.approx(0.1, abs=1e-14)


class TestDynExt:
    def test_beta_closed_form(self, numex_gain):
        # beta(x, z) = -(z2^2+1) x1 - x2^3/3 for the planar gain
        rng = np.random.default_rng(31)
        for _ in range(10):
            x = rng.uniform(-3, 3, size=2)
            z = rng.uniform(-3, 3, size=2)
            expected = -(z[1] ** 2 + 1.0) * x[0] - x[1] ** 3 / 3.0
            assert dynext_beta(numex_gain, x, z)[0] == pytest.approx(
                expected, abs=1e-12
            )

    def test_beta_z_independent_for_separable_gain(self):
        g = GainField.from_exprs(2, 1, [["-x1", "-x2^3"]])
        x = np.array([1.5, -2.0])
        base = radial_potential(g, x)
        for z in ([0.0, 0.0], [4.0, -4.0], [1.5, -2.0]):
            assert dynext_beta(g, x, np.array(z))[0] == pytest.approx(
                base[0], abs=1e-12
            )

    def test_opaque_gain_matches_symbolic(self, numex_gain):
        # a gain known only as a callable (as a synthesized one is) takes
        # the same quadrature through GainField.column
        opaque = GainField(2, 1, numex_gain)
        rng = np.random.default_rng(37)
        for _ in range(5):
            x = rng.uniform(-3, 3, size=2)
            z = rng.uniform(-3, 3, size=2)
            assert np.array_equal(dynext_beta(opaque, x, z),
                                  dynext_beta(numex_gain, x, z))
            assert np.array_equal(khat(opaque, x, z), khat(numex_gain, x, z))

    def test_khat_diagonal_property(self, numex_gain, micro_gain):
        rng = np.random.default_rng(32)
        for gain in (numex_gain, micro_gain):
            for _ in range(5):
                x = rng.uniform(-2, 2, size=gain.n)
                assert np.allclose(khat(gain, x, x), gain(x), atol=1e-13)

    def test_khat_is_beta_gradient_builtin(self, numex_gain, micro_gain):
        rng = np.random.default_rng(33)
        h = 1e-6
        for gain in (numex_gain, micro_gain):
            for _ in range(5):
                x = rng.uniform(-2, 2, size=gain.n)
                z = rng.uniform(-2, 2, size=gain.n)
                kh = khat(gain, x, z)
                for i in range(gain.n):
                    step = np.zeros(gain.n)
                    step[i] = h
                    fd = (dynext_beta(gain, x + step, z)
                          - dynext_beta(gain, x - step, z)) / (2 * h)
                    assert np.max(np.abs(fd - kh[:, i])) <= 1e-6

    def test_khat_is_beta_gradient_random_gains(self):
        rng = random.Random(34)
        nprng = np.random.default_rng(35)
        h = 1e-5
        for _ in range(20):
            entries = [
                [
                    " + ".join(
                        f"{rng.uniform(-2, 2):.6f}*{term}"
                        for term in ("1", "x1", "x2", "x1*x2", "x2^2")
                    )
                    for _ in range(2)
                ]
            ]
            gain = GainField.from_exprs(2, 1, entries)
            x = nprng.uniform(-1.5, 1.5, size=2)
            z = nprng.uniform(-1.5, 1.5, size=2)
            kh = khat(gain, x, z)
            for i in range(2):
                step = np.zeros(2)
                step[i] = h
                fd = (dynext_beta(gain, x + step, z)
                      - dynext_beta(gain, x - step, z)) / (2 * h)
                assert fd[0] == pytest.approx(kh[0, i], rel=1e-6, abs=1e-6)

    def test_control_invariance_on_reference(self, numex_gain):
        u_d = np.array([0.7])
        xd = np.array([1.2, -0.3])
        for z in ([0.0, 0.0], [5.0, 5.0]):
            u = dynext_control(numex_gain, np.array(z), xd, xd, u_d)
            assert np.allclose(u, u_d, atol=1e-14)

    def test_constant_gain_matches_static(self, micro_gain):
        rng = np.random.default_rng(36)
        for _ in range(5):
            x = rng.uniform(-1, 1, size=3)
            xd = rng.uniform(-1, 1, size=3)
            z = rng.uniform(-1, 1, size=3)
            u_d = rng.uniform(-1, 1, size=1)
            got = dynext_control(micro_gain, z, x, xd, u_d)
            want = u_d + micro_gain.constant_matrix @ (x - xd)
            assert np.allclose(got, want, atol=1e-13)

    def test_state_validation(self):
        with pytest.raises(SynthesisError):
            DynExtState(z=np.zeros(2), ell=0.0)

    def test_step_observer_update(self, numex, numex_gain):
        # z' = f(x) + B(x) u - ell (z - x) with x, u frozen is linear;
        # one RK4 step must agree with the closed-form solution to O(h^5)
        state = DynExtState(z=np.array([1.0, -1.0]), ell=5.0)
        x = np.array([0.5, 0.25])
        xd = np.array([0.0, 0.0])
        u_d = np.array([0.0])
        h = 1e-3
        z0 = state.z.copy()
        u_expected = dynext_control(numex_gain, z0, x, xd, u_d)
        u, z1 = dynext_controller_step(
            numex_gain, state, numex.system, x, xd, u_d, 0.0, h
        )
        assert np.allclose(u, u_expected, atol=1e-14)
        drift = numex.system.eval_f(x) + numex.system.eval_b(x) @ u
        z_inf = x + drift / state.ell
        exact = z_inf + math.exp(-state.ell * h) * (z0 - z_inf)
        assert np.max(np.abs(z1 - exact)) <= 1e-12
        assert np.array_equal(state.z, z1)


class TestClosedLoopAlgebra:
    def test_numex_contraction_form(self, numex, numex_gain):
        # sym(M (J + B K)) = -(2 (x2^2+1)/5) [[1,1],[1,2]] pointwise
        m = numex.metric.eval(np.zeros(2))
        b = numex.system.eval_b(np.zeros(2))
        for x2 in np.linspace(-3.0, 3.0, 13):
            x = np.array([0.0, x2])
            a_cl = numex.system.jac_f(x) + b @ numex_gain(x)
            sym = m @ a_cl + a_cl.T @ m
            scale = 2.0 * (x2 ** 2 + 1.0) / 5.0
            expected = -scale * np.array([[1.0, 1.0], [1.0, 2.0]])
            assert np.allclose(sym, expected, atol=1e-12)


def scalar_dynext_beta(gain, x, z, nodes=32):
    """Oracle: the per-node quadrature, one tree-walking `evaluate` of
    each column entry per Gauss-Legendre node, summed in Python floats."""
    points, weights = gauss_legendre_01(nodes)
    variables = [f"x{i + 1}" for i in range(gain.n)]
    out = [0.0] * gain.m
    for i, xi in enumerate(x):
        if xi == 0.0:
            continue
        acc = [0.0] * gain.m
        for s, w in zip(points, weights):
            env = dict(zip(variables, map(float, z)))
            env[variables[i]] = float(s * xi)
            for r in range(gain.m):
                acc[r] += w * ex.evaluate(gain.exprs[r][i], env)
        for r in range(gain.m):
            out[r] += xi * acc[r]
    return np.array(out)


class TestStackedGain:
    """A gain evaluates a (P, n) stack in one call; every member matches
    the call at that point, and the quadratures match per-node oracles."""

    POINTS = np.random.default_rng(51).uniform(-2, 2, size=(7, 2))

    def gains(self, numex):
        params = DampingParams(r=1.5, gamma0=0.1, lam=2.0 / 3.0)
        return [
            GainField.from_exprs(2, 1, [["-(x2^2 + 1)*exp(x1/5)", "-x2^2 + sin(x1)"]]),
            synthesize_gain(numex.system, numex.metric, params),
            GainField(2, 1, lambda x: np.stack([x[..., 0] * x[..., 1], -x[..., 1] ** 3], -1)[..., None, :]),
        ]

    def test_gain_and_partials_match_per_point(self, numex):
        for gain in self.gains(numex):
            stacked = gain(self.POINTS)
            assert stacked.shape == (7, 1, 2)
            per_point = np.array([gain(x) for x in self.POINTS])
            np.testing.assert_allclose(stacked, per_point, rtol=1e-12, atol=1e-12)
            for axis in range(2):
                stacked = gain.partial(self.POINTS, axis)
                per_point = np.array([gain.partial(x, axis) for x in self.POINTS])
                np.testing.assert_allclose(stacked, per_point, rtol=1e-12, atol=1e-12)

    def test_constant_gain_broadcasts(self):
        gain = GainField.constant([[4.0, -1.0]])
        assert np.array_equal(gain(self.POINTS), np.tile([[4.0, -1.0]], (7, 1, 1)))
        assert np.array_equal(gain.partial(self.POINTS, 1), np.zeros((7, 1, 2)))

    def test_synthesized_singular_direction_names_the_point(self):
        sys = SystemModel(2, 1, ["0", "0"], [["0"], ["x1"]], [-1, -1], [1, 1])
        metric = MetricField(2, [["1", "0"], ["0", "1"]], 1.0, 1.0, 1.0)
        gain = synthesize_gain(sys, metric, DampingParams(r=1.0, gamma0=1.0, lam=1.0))
        points = np.array([[0.5, 0.5], [0.0, 0.25]])
        with pytest.raises(SynthesisError, match=r"x=\[0\.\s+0\.25\]"):
            gain(points)

    def test_dynext_beta_matches_per_node_quadrature(self, numex_gain):
        gain = GainField.from_exprs(2, 1, [["-(x2^2 + 1)*exp(x1/5)", "-x2^2 + sin(x1)"]])
        rng = np.random.default_rng(52)
        for g in (gain, numex_gain):
            for x in ([1.5, -0.5], [0.0, 2.0], [-1.0, 0.0], [0.0, 0.0]):
                x = np.array(x)
                z = rng.uniform(-2, 2, size=2)
                np.testing.assert_allclose(dynext_beta(g, x, z), scalar_dynext_beta(g, x, z),
                                           rtol=1e-12, atol=1e-12)

    def test_dynext_beta_rows_share_z(self, numex_gain):
        z = np.array([0.7, -1.1])
        rows = np.array([[1.5, -0.5], [0.0, 2.0], [0.0, 0.0]])
        stacked = dynext_beta(numex_gain, rows, z)
        assert stacked.shape == (3, 1)
        np.testing.assert_allclose(stacked, [dynext_beta(numex_gain, x, z) for x in rows],
                                   rtol=1e-12, atol=1e-15)
        assert dynext_beta(GainField.constant([[2.0, 1.0]]), rows, z).shape == (3, 1)

    def test_khat_and_radial_potential_match_per_point(self, numex):
        for gain in self.gains(numex):
            x, z = self.POINTS[0], self.POINTS[1]
            expected = np.empty((1, 2))
            for i in range(2):
                point = z.copy()
                point[i] = x[i]
                expected[:, i] = gain(point)[:, i]
            np.testing.assert_allclose(khat(gain, x, z), expected, rtol=1e-12, atol=1e-12)
            points, weights = gauss_legendre_01()
            expected = sum(w * (gain(s * x) @ x) for s, w in zip(points, weights))
            np.testing.assert_allclose(radial_potential(gain, x), expected,
                                       rtol=1e-12, atol=1e-12)

    def test_exactness_residual_matches_per_point_loop(self, numex):
        grid = Grid([-2.0, -2.0], [2.0, 2.0], (5, 5))
        for gain in self.gains(numex):
            worst, witness = 0.0, None
            for x in grid.points():
                d0, d1 = gain.partial(x, 0), gain.partial(x, 1)
                residual = float(np.max(np.abs(d1[:, 0] - d0[:, 1])))
                if residual > worst:
                    worst, witness = residual, x
            got, got_witness = exactness_residual(gain, grid)
            assert got == pytest.approx(worst, rel=1e-9, abs=1e-12)
            assert np.array_equal(got_witness, witness)

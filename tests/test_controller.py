"""Gain synthesis, potentials, and the three controller realizations."""

import math
import random

import numpy as np
import pytest

from ccmkit import controller, sim
from ccmkit import expr as ex
from ccmkit.certificates import Grid
from ccmkit.controller import (
    QUAD_NODES,
    DampingParams,
    DynExtState,
    ExactnessError,
    GainField,
    SynthesisError,
    dynext_beta,
    dynext_control,
    dynext_controller_step,
    dynext_correction_exprs,
    exactness_residual,
    gauss_legendre_01,
    khat,
    radial_potential,
    radial_potential_exprs,
    static_exact_controller,
    synthesize_gain,
    upsilon,
)
from ccmkit.model import MetricField, SystemModel, state_vars
from test_expr import _same_tree

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

    @pytest.mark.parametrize("r, gamma0, lam", [
        (math.nan, 1.0, 1.0), (math.inf, 1.0, 1.0), (2.0, math.nan, 1.0),
        (2.0, math.inf, 1.0), (2.0, 1.0, math.nan), (2.0, 1.0, math.inf)])
    def test_non_finite_rejected(self, r, gamma0, lam):
        # nan passed both `gamma0 <= 0` and `2 r lam <= 1` unnoticed
        with pytest.raises(SynthesisError, match="finite"):
            DampingParams(r=r, gamma0=gamma0, lam=lam)

    @pytest.mark.parametrize("gamma_const", [math.nan, math.inf, -math.inf])
    def test_non_finite_constant_gamma_rejected(self, numex, gamma_const):
        params = DampingParams(r=2.0, gamma0=1.0, lam=1.0)
        with pytest.raises(SynthesisError, match="finite"):
            synthesize_gain(numex.system, numex.metric, params, gamma_const=gamma_const)

    @pytest.mark.parametrize("gamma_const", [-5.0, 0.0])
    def test_non_positive_constant_gamma_rejected(self, numex, gamma_const):
        # -5 gave K_1_1 = 2.5, a gain that pumps energy in; 0 gave K = 0
        params = DampingParams(r=2.0, gamma0=1.0, lam=1.0)
        with pytest.raises(SynthesisError, match="positive"):
            synthesize_gain(numex.system, numex.metric, params, gamma_const=gamma_const)


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
        g = GainField.from_exprs(2, 1, [["4", "-1"]])
        assert np.array_equal(g.partial(np.ones(2), 0), np.zeros((1, 2)))

    def test_synthesized_partial_matches_central_difference(self, numex):
        # a synthesized gain has expressions, so its partials are symbolic
        gain = synthesize_gain(numex.system, numex.metric,
                               DampingParams(r=2.0, gamma0=0.5, lam=1.0))
        h = 1e-6
        for x in ([0.4, -2.0], [1.0, 0.3], [-3.0, 1.7]):
            x = np.array(x)
            for axis in range(2):
                step = np.zeros(2)
                step[axis] = h
                fd = (gain(x + step) - gain(x - step)) / (2 * h)
                np.testing.assert_allclose(gain.partial(x, axis), fd, rtol=1e-6, atol=1e-6)


class TestSynthesizeGain:
    def test_microactuator_constant_gain(self, micro):
        params = DampingParams(r=1.0, gamma0=1.0, lam=1.0)
        gain = synthesize_gain(micro.system, micro.metric, params,
                               gamma_const=2.0)
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
            m_x, jac = numex.metric.eval(x), numex.system.jac_f(x)
            form = numex.metric.dir_deriv(x, numex.system.eval_f(x)) + jac.T @ m_x + m_x @ jac
            gamma = (params.r / numex.metric.p_lo) * np.linalg.norm(form, "fro") ** 2
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
        with pytest.raises(SynthesisError):  # checked once, on the default grid
            synthesize_gain(sys, metric, params)  # (MB)^T MB = x1^2 is 0 at x1 = 0

    @pytest.mark.parametrize("case", ["numex", "n3-m1", "n3-m2"])
    def test_matches_numpy_oracle(self, case, numex):
        # K = -(gamma + gamma0) inv((MB)^T MB) (MB)^T with gamma = (r/p_lo) ||F||_F^2,
        # F = d_f M + M A + A^T M
        sys, metric = self.SYSTEMS[case](numex)
        params = DampingParams(r=1.5, gamma0=0.3, lam=1.0)
        gain = synthesize_gain(sys, metric, params)
        rng = np.random.default_rng(71)
        for x in rng.uniform(sys.domain_lo, sys.domain_hi, size=(50, sys.n)):
            k, _ = numpy_gain(sys, metric, params, x)
            got = gain(x)
            assert got.shape == (sys.m, sys.n)
            np.testing.assert_allclose(got, k, rtol=1e-12, atol=1e-12 * np.max(np.abs(k)))
            np.testing.assert_allclose(gain(x[None])[0], k, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(k)))

    def test_frobenius_bound_dominates_spectral_gamma(self, numex):
        # gamma = (r/p_lo) ||F||_F^2 lies between (r/p_lo) ||F||_2^2 and n times it
        for case in ("numex", "n3-m1", "n3-m2"):
            sys, metric = self.SYSTEMS[case](numex)
            params = DampingParams(r=1.5, gamma0=0.3, lam=1.0)
            gain = synthesize_gain(sys, metric, params)
            rng = np.random.default_rng(72)
            for x in rng.uniform(sys.domain_lo, sys.domain_hi, size=(50, sys.n)):
                _, direction = numpy_gain(sys, metric, params, x)
                largest = np.unravel_index(np.argmax(np.abs(direction)), direction.shape)
                gamma = -gain(x)[largest] / direction[largest] - params.gamma0
                spectral = (params.r / metric.p_lo) * upsilon(metric, sys, x) ** 2
                assert gamma >= spectral * (1.0 - 1e-12)
                assert gamma <= sys.n * spectral * (1.0 + 1e-12)

    SYSTEMS = {
        "numex": lambda numex: (numex.system, numex.metric),
        "n3-m1": lambda _: (
            SystemModel(3, 1, ["x2", "-x1 - x2 + x3^2/4", "-x3 + sin(x1)"],
                        [["0"], ["x1^2/10"], ["1 + x2^2/5"]], [-1, -1, -1], [1, 1, 1]),
            MetricField(3, [["2", "1/2", "0"], ["1/2", "1 + x1^2/10", "x2/10"],
                            ["0", "x2/10", "3/2"]], 0.5, 3.0, 1.0)),
        "n3-m2": lambda _: (
            SystemModel(3, 2, ["x2 - x1^3/3", "-x1 + x3", "-2*x3 + x1*x2"],
                        [["1", "0"], ["x3/5", "1"], ["0", "1 + x1^2/10"]],
                        [-1, -1, -1], [1, 1, 1]),
            MetricField(3, [["1 + x3^2/8", "1/4", "0"], ["1/4", "2", "-x1/10"],
                            ["0", "-x1/10", "1"]], 0.5, 3.0, 1.0)),
    }


class TestExactness:
    def test_builtin_gain_residual(self, numex_gain):
        grid = Grid([-2.0, -2.0], [2.0, 2.0], (9, 9))
        worst, witness = exactness_residual(numex_gain, grid)
        # dK1/dx2 - dK2/dx1 = -2 x2, max 2*|x2| = 4 on the box
        assert worst == pytest.approx(4.0, abs=1e-9)
        assert abs(witness[1]) == pytest.approx(2.0)

    def test_constant_gain_exact(self):
        g = GainField.from_exprs(2, 1, [["1", "2"]])
        worst, witness = exactness_residual(g, Grid([0, 0], [4, 2], (3, 3)))
        assert worst == 0.0
        assert np.allclose(witness, [2.0, 1.0])

    def test_separable_gain_exact(self):
        g = GainField.from_exprs(2, 1, [["-x1", "-x2^3"]])
        worst, _ = exactness_residual(g, Grid([-2, -2], [2, 2], (7, 7)))
        assert worst <= 1e-12


class TestRadialPotentialAndStatic:
    def test_constant_gain_potential(self):
        g = GainField.from_exprs(3, 1, [["0", "0", "-2"]])
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
        assert points.size == QUAD_NODES == 32
        assert np.sum(weights) == pytest.approx(1.0, abs=1e-14)
        assert np.all((points > 0) & (points < 1))
        # exact for high-degree polynomials on [0, 1]
        assert np.sum(weights * points ** 9) == pytest.approx(0.1, abs=1e-14)
        # q nodes are exact up to degree 2q - 1, and no further
        for q in (1, 2, 3, 5):
            points, weights = gauss_legendre_01(q)
            assert points.size == q and gauss_legendre_01(q) is gauss_legendre_01(q)
            assert np.sum(weights * points ** (2 * q - 1)) == pytest.approx(1 / (2 * q), abs=1e-15)
            assert abs(np.sum(weights * points ** (2 * q)) - 1 / (2 * q + 1)) > 1e-6


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

    def test_synthesized_beta_matches_per_node_quadrature(self, numex, closed_loop_parts):
        # a synthesized gain has expressions, so the tree-walking per-node
        # oracle and the correction u - u_d of the generated law both apply to it
        gain = synthesize_gain(numex.system, numex.metric,
                               DampingParams(r=1.5, gamma0=0.1, lam=2.0 / 3.0))
        parts = closed_loop_parts(numex.system, numex.metric, gain, numex.reference,
                                  sim.RunConfig(kind="dynext"))
        law = ex.compile_fn(parts["law"], ["t"] + parts["names"])
        rng = np.random.default_rng(37)
        for _ in range(5):
            x, xd, z = rng.uniform(-3, 3, size=(3, 2))
            want = scalar_dynext_beta(gain, x, z)
            np.testing.assert_allclose(dynext_beta(gain, x, z), want, rtol=1e-12)
            u, ud = law(0.0, *x, *xd, *z)
            generated = [a - b for a, b in zip(u, ud)]
            np.testing.assert_allclose(generated, want - scalar_dynext_beta(gain, xd, z),
                                       rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))

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
    each column entry per Gauss-Legendre node, summed in Python floats.
    The rule is mapped to [0, 1] here from numpy's own Legendre nodes."""
    legendre, weights = np.polynomial.legendre.leggauss(nodes)
    points, weights = 0.5 * (legendre + 1.0), 0.5 * weights
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


def numpy_gain(sys, metric, params, x):
    """Oracle: (K, R (MB)^T) at one point, from numpy evaluations:
    gamma = (r/p_lo) ||d_f M + M A + A^T M||_F^2."""
    m_x, a = metric.eval(x), sys.jac_f(x)
    f = sys.eval_f(x)
    form = sum(f[k] * metric.partial(x, k) for k in range(sys.n)) + m_x @ a + a.T @ m_x
    gamma = (params.r / metric.p_lo) * np.linalg.norm(form, "fro") ** 2
    mb = m_x @ sys.eval_b(x)
    direction = np.linalg.inv(mb.T @ mb) @ mb.T
    return -(gamma + params.gamma0) * direction, direction


class TestStackedGain:
    """A gain evaluates a (P, n) stack in one call; every member matches
    the call at that point, and the quadratures match per-node oracles."""

    POINTS = np.random.default_rng(51).uniform(-2, 2, size=(7, 2))

    def gains(self, numex):
        params = DampingParams(r=1.5, gamma0=0.1, lam=2.0 / 3.0)
        return [
            GainField.from_exprs(2, 1, [["-(x2^2 + 1)*exp(x1/5)", "-x2^2 + sin(x1)"]]),
            synthesize_gain(numex.system, numex.metric, params),
            GainField.from_exprs(2, 1, [["x1*x2", "-x2^3"]]),
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
        gain = GainField.from_exprs(2, 1, [["4", "-1"]])
        assert np.array_equal(gain(self.POINTS), np.tile([[4.0, -1.0]], (7, 1, 1)))
        assert np.array_equal(gain.partial(self.POINTS, 1), np.zeros((7, 1, 2)))

    def test_synthesized_singular_direction_names_the_point(self):
        # the first default-grid point (row-major) where (MB)^T MB = x1^2 is singular
        sys = SystemModel(2, 1, ["0", "0"], [["0"], ["x1"]], [-1, -1], [1, 1])
        metric = MetricField(2, [["1", "0"], ["0", "1"]], 1.0, 1.0, 1.0)
        params = DampingParams(r=1.0, gamma0=1.0, lam=1.0)
        with pytest.raises(SynthesisError, match=r"x=\[ 0\. -1\.\]"):
            synthesize_gain(sys, metric, params)
        # a grid that misses x1 = 0 passes the check (the CLI passes its own grid)
        gain = synthesize_gain(sys, metric, params, grid=Grid([-1, -1], [1, 1], (4, 4)))
        assert gain(np.array([0.5, 0.0])).shape == (1, 2)

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
        assert dynext_beta(GainField.from_exprs(2, 1, [["2", "1"]]), rows, z).shape == (3, 1)

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
            for x in grid.array():
                d0, d1 = gain.partial(x, 0), gain.partial(x, 1)
                residual = float(np.max(np.abs(d1[:, 0] - d0[:, 1])))
                if residual > worst:
                    worst, witness = residual, x
            got, got_witness = exactness_residual(gain, grid)
            assert got == pytest.approx(worst, rel=1e-9, abs=1e-12)
            assert np.array_equal(got_witness, witness)


def polynomial_gain(rng, n, m, axis_degrees, terms=3):
    """A gain whose entries are sums of `terms` monomials c x1^e1 ... xn^en
    with e_i <= axis_degrees[i] in column i and e_k <= 1 for k != i; the
    first monomial of row 0 is x_i^axis_degrees[i]. Returns the gain and
    the largest total degree of its monomials."""
    entries, total = [[] for _ in range(m)], 0
    for r, i in np.ndindex(m, n):
        monomials = []
        for t in range(terms):
            if r == t == 0:
                powers = [axis_degrees[i] * (k == i) for k in range(n)]
            else:
                powers = [int(rng.integers(0, 2)) for _ in range(n)]
                powers[i] = int(rng.integers(axis_degrees[i] + 1))
            total = max(total, sum(powers))
            factors = [f"x{k + 1}^{p}" for k, p in enumerate(powers) if p]
            monomials.append("*".join([f"({rng.uniform(-1, 1):.6f})"] + factors))
        entries[r].append(" + ".join(monomials))
    return GainField.from_exprs(n, m, entries), total


@pytest.fixture
def rule_sizes(monkeypatch):
    """The node count of every rule the potentials ask for, in call order."""
    sizes = []

    def spy(nodes=QUAD_NODES, original=controller.gauss_legendre_01):
        sizes.append(nodes)
        return original(nodes)

    monkeypatch.setattr(controller, "gauss_legendre_01", spy)
    return sizes


def beta_exprs(gain, x, z):
    """The generated dynext beta(x, z): the correction beta(x, z) - beta(x_d, z)
    from x_d = 0."""
    return dynext_correction_exprs(gain, x, [ex.ZERO] * gain.n, z)


def generated_potentials(gain):
    """The generated dynext beta(x1..xn, z1..zn) and radial potential(x1..xn)
    of `gain`, compiled."""
    xs, zs = state_vars(gain.n), [f"z{i + 1}" for i in range(gain.n)]
    beta = ex.compile_fn(beta_exprs(gain, list(map(ex.var, xs)), list(map(ex.var, zs))), xs + zs)
    return beta, ex.compile_fn(radial_potential_exprs(gain, list(map(ex.var, xs))), xs)


def check_potentials(gain, potentials, rng, lo, hi, samples=5):
    """The generated potentials against the 32-node numpy oracles at random
    x and z in [lo, hi], within 1e-12 * max(1, |value|); x1 is exactly 0 in
    every other sample."""
    beta, potential = potentials
    for k in range(samples):
        x, z = rng.uniform(lo, hi, size=gain.n), rng.uniform(lo, hi, size=gain.n)
        x[0] *= k % 2
        got = beta(*x, *z)
        for want in (dynext_beta(gain, x, z), scalar_dynext_beta(gain, x, z)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(potential(*x), radial_potential(gain, x),
                                   rtol=1e-12, atol=1e-12)


class TestSizedRule:
    """Each generated potential integrates on the rule sized from its
    integrand's degree, ceil((d + 1) / 2) nodes for a finite degree d and
    32 for an unbounded one, and agrees with the 32-node numpy oracles."""

    @pytest.mark.parametrize("n, m", [(2, 1), (2, 2), (3, 1), (3, 2)])
    @pytest.mark.parametrize("d", range(6))
    def test_polynomial_gains_match_32_node_oracles(self, n, m, d, rule_sizes):
        rng = np.random.default_rng(100 * d + 10 * n + m)
        axis_degrees = [d] + rng.integers(0, 6, size=n - 1).tolist()
        gain, total = polynomial_gain(rng, n, m, axis_degrees)
        potentials = generated_potentials(gain)
        assert rule_sizes == [math.ceil((d_i + 1) / 2) for d_i in axis_degrees + [total]]
        check_potentials(gain, potentials, rng, -2.0, 2.0, samples=10)

    @pytest.mark.parametrize("entries, sizes", [
        ([["-x1*sin(x2)", "-x2^2"]], [1, 2, 32]),
        ([["-x1^2", "-sqrt(x2^2 + 1)"]], [2, 32, 32]),
        ([["-x1/(x2^2 + 1)", "-x2"]], [1, 1, 32]),
        ([["-1 - abs(x1)", "x1/x2"]], [32, 32, 32]),
        ([["-1", "exp(x3)", "sin(x3)*x3"], ["x1*x3", "-x2^3", "x1^2/(x3 + 2)"]],
         [1, 2, 32, 32]),
    ])
    def test_unbounded_degree_keeps_32_nodes(self, entries, sizes, rule_sizes):
        # 32 nodes on each axis whose column reaches its variable through a
        # function or a division, and for the radial potential of any such gain
        gain = GainField.from_exprs(len(entries[0]), len(entries), entries)
        potentials = generated_potentials(gain)
        assert rule_sizes == sizes
        check_potentials(gain, potentials, np.random.default_rng(len(sizes)), 0.5, 2.0)

    def test_builtin_and_synthesized_numex_gains(self, numex, numex_gain, rule_sizes):
        rng = np.random.default_rng(8)
        potentials = generated_potentials(numex_gain)  # -(x2^2 + 1) and -x2^2
        assert rule_sizes == [1, 2, 2]
        check_potentials(numex_gain, potentials, rng, -2.0, 2.0)
        synthesized = synthesize_gain(numex.system, numex.metric,
                                      DampingParams(r=1.5, gamma0=0.1, lam=2.0 / 3.0))
        rule_sizes.clear()
        potentials = generated_potentials(synthesized)  # free of x1; degree 4 in x2
        assert rule_sizes == [1, 3, 3]
        check_potentials(synthesized, potentials, rng, -2.0, 2.0)

    def test_synthesized_microactuator_gain(self, micro, rule_sizes):
        gain = synthesize_gain(micro.system, micro.metric,
                               DampingParams(r=1.5, gamma0=0.1, lam=2.0 / 3.0))
        potentials = generated_potentials(gain)
        assert rule_sizes == [1, 1, 2, 2]  # column 3 is degree 2 in x3 and in x1
        check_potentials(gain, potentials, np.random.default_rng(7), -2.0, 2.0)

    @pytest.mark.parametrize("entries", [
        [["-1", "-2"]], [["2/5", "0", "-3"], ["1", "7", "0"]], [["0", "0"]]])
    def test_constant_gain_is_the_tree_of_k_times_x(self, entries, rule_sizes):
        # degree 0 on every segment: the 1-node rule of weight 1.0, which
        # `ex.mul` folds away, so both potentials are the tree of K x
        gain = GainField.from_exprs(len(entries[0]), len(entries), entries)
        xs = [ex.var(name) for name in state_vars(gain.n)]
        zs = [ex.var(f"z{i + 1}") for i in range(gain.n)]
        want = ex.matvec(gain.exprs, xs)
        for got in (beta_exprs(gain, xs, zs), radial_potential_exprs(gain, xs)):
            assert len(got) == len(want) and all(map(_same_tree, got, want))
        assert rule_sizes == [1] * (gain.n + 1)

    def test_microactuator_builtin_gain_is_the_tree_of_k_times_x(self, micro_gain):
        # the static gain of sweep_static and of configs/microactuator_static.ini
        xs = [ex.var(name) for name in state_vars(3)]
        want = ex.matvec(micro_gain.exprs, xs)
        got = radial_potential_exprs(micro_gain, xs)
        assert all(map(_same_tree, got, want))
        assert all(map(_same_tree, beta_exprs(micro_gain, xs, xs), want))

"""Fixed-step RK4 and the adaptive RK45 oracle wrapper."""

import math

import numpy as np
import pytest

from ccmkit.integrate import IntegrationError, rk4_solve, rk4_step, rk45_integrate


def decay(t, x):
    return [-v for v in x]


class TestRk4Step:
    def test_exponential_decay(self):
        out = rk4_step(decay, np.array([1.0]), 0.0, 0.1)
        assert out[0] == pytest.approx(math.exp(-0.1), abs=5e-7)
        assert f"{out[0]:.6f}" == "0.904837"

    def test_zero_field(self):
        x = np.array([2.0, -3.0])
        assert np.array_equal(rk4_step(lambda t, x: np.zeros(2), x, 0.0, 0.5), x)

    def test_constant_field_exact(self):
        out = rk4_step(lambda t, x: np.ones(1), np.array([0.0]), 0.0, 0.5)
        assert out[0] == 0.5

    def test_bad_step(self):
        with pytest.raises(ValueError):
            rk4_step(decay, np.array([1.0]), 0.0, 0.0)

    def test_nan_field(self):
        with pytest.raises(IntegrationError) as err:
            rk4_step(lambda t, x: np.array([math.nan]), np.array([1.0]), 3.0, 0.1)
        assert err.value.t == 3.0

    def test_time_dependent_field(self):
        # x' = t integrates exactly (RK4 is exact for cubic-in-t rhs)
        out = rk4_step(lambda t, x: np.array([t]), np.array([0.0]), 0.0, 1.0)
        assert out[0] == pytest.approx(0.5, abs=1e-15)


class TestRk4Solve:
    def test_exponential_endpoint(self):
        times, states = rk4_solve(decay, np.array([1.0]), 0.0, 1.0, 1e-3)
        assert times[-1] == pytest.approx(1.0)
        assert states[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-11)

    def test_order_four_convergence(self):
        def error_at(h):
            _, states = rk4_solve(decay, np.array([1.0]), 0.0, 2.0, h)
            return abs(states[-1, 0] - math.exp(-2.0))

        factor = error_at(0.1) / error_at(0.05)
        assert 12.0 <= factor <= 20.0

    def test_uniform_grid(self):
        times, _ = rk4_solve(decay, np.array([1.0]), 0.0, 1.0, 0.25)
        assert np.allclose(np.diff(times), 0.25)


class TestRk45:
    def test_exponential(self):
        _, states = rk45_integrate(decay, np.array([1.0]), (0.0, 1.0))
        assert states[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_harmonic_energy_conservation(self):
        def osc(t, y):
            return np.array([y[1], -y[0]])

        t_end = 100 * 2.0 * math.pi
        _, states = rk45_integrate(
            osc, np.array([1.0, 0.0]), (0.0, t_end), rel_tol=1e-10, abs_tol=1e-12,
            t_eval=np.linspace(0.0, t_end, 400),
        )
        energy = states[:, 0] ** 2 + states[:, 1] ** 2
        assert np.max(np.abs(energy - 1.0)) <= 1e-7

    def test_zero_field(self):
        _, states = rk45_integrate(
            lambda t, x: np.zeros(2), np.array([1.0, -2.0]), (0.0, 5.0),
            t_eval=np.linspace(0.0, 5.0, 11),
        )
        assert np.allclose(states, [1.0, -2.0], atol=1e-12)

    def test_tolerance_guard(self):
        with pytest.raises(ValueError):
            rk45_integrate(decay, np.array([1.0]), (0.0, 1.0), rel_tol=1e-13)

    def test_agrees_with_rk4(self):
        def field(t, y):
            return np.array([y[1], -math.sin(y[0])])

        y0 = np.array([1.0, 0.0])
        _, fine = rk4_solve(field, y0, 0.0, 10.0, 1e-4)
        _, adaptive = rk45_integrate(field, y0, (0.0, 10.0),
                                     t_eval=np.array([0.0, 10.0]))
        assert np.max(np.abs(adaptive[-1] - fine[-1])) <= 1e-7

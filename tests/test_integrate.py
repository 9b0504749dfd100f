"""Fixed-step RK4 and the adaptive RK45 oracle wrapper."""

import math

import numpy as np
import pytest

from ccmkit import expr as ex
from ccmkit.integrate import (IntegrationError, rk4_exprs, rk4_solve, rk4_step,
                              rk45_integrate, time_grid)


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


class TestRk4Exprs:
    """The generated step against `rk4_step` on the compiled field, bit for bit."""

    NAMES = ["y1", "y2", "y3"]
    # y3' = 0 from y3 = -0.0: a float step gives -0.0 + h/2*0.0 = +0.0 at
    # each stage and at the end, which a folded y + h/2*0 -> y would not
    RATES = ["y2*sin(t) - y1^3/(1 + y3^2)", "v1 - 2*y1 + exp(-t)*y2*y3", "0"]

    def test_matches_rk4_step_bit_for_bit(self):
        variables = ["t"] + self.NAMES + ["v1"]
        rates = [ex.parse(text, variables) for text in self.RATES]
        field = ex.compile_fn(rates, variables)
        step = ex.compile_fn(rk4_exprs(rates, self.NAMES), ["t", "h"] + variables[1:])
        rng = np.random.default_rng(12)
        for _ in range(50):
            y = rng.uniform(-2.0, 2.0, 3).tolist()
            y[2] = -0.0
            t, v = rng.uniform(0.0, 5.0), rng.uniform(-1.0, 1.0)
            for h in (1e-2, 0.37e-2):  # a full and a shortened last step
                want = rk4_step(lambda s, x: field(s, *x, v), y, t, h)
                got = step(t, h, *y, v)
                assert [x.hex() for x in got] == [x.hex() for x in want]
                assert want[2] == 0.0 and math.copysign(1.0, want[2]) == 1.0

    def test_stages_share_subtrees(self):
        # sin(y1) is one node read by both rates; a stage substitutes into
        # all rates at once, so its copy at the stage state is one node too
        y1, y2 = ex.var("y1"), ex.var("y2")
        shared = ex.func("sin", y1)
        new = rk4_exprs([ex.mul(shared, y2), ex.add(shared, y1)], ["y1", "y2"])
        # y + h/6*(((k1 + 2*k2) + 2*k3) + k4) -> k2
        k2 = [e.args[1].args[1].args[0].args[0].args[1].args[1] for e in new]
        assert k2[0].args[0].kind == "sin" and k2[0].args[0] is k2[1].args[0]


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


class TestTimeGrid:
    def test_span_below_the_rounding_margin_is_one_step(self):
        # a span under 1e-6 of a step is still one step, so the grid starts at t0
        assert time_grid(0, 1e-9, 1).tolist() == [0.0, 1e-9]
        assert time_grid(0.0, 1.0, math.inf).tolist() == [0.0, 1.0]


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

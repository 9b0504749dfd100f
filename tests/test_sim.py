"""Closed-loop simulation, diagnostics, and the perturbation sweep."""

import io

import numpy as np
import pytest

from ccmkit.certificates import Grid
from ccmkit.controller import GainField
from ccmkit.integrate import rk45_integrate
from ccmkit.model import ReferenceSpec, SystemModel
from ccmkit.sim import (
    RunConfig,
    SimTrace,
    SimulationError,
    decay_rate,
    perturbation_sweep,
    run_closed_loop,
)


def synthetic_trace(t, err):
    k = len(t)
    return SimTrace(
        t=np.asarray(t, dtype=float),
        x=np.zeros((k, 2)),
        xd=np.zeros((k, 2)),
        u=np.zeros((k, 1)),
        ud=np.zeros((k, 1)),
        err=np.asarray(err, dtype=float),
    )


class TestRunConfig:
    def test_unknown_kind(self):
        with pytest.raises(SimulationError):
            RunConfig(kind="fuzzy")

    def test_positive_horizon_and_step(self):
        with pytest.raises(SimulationError):
            RunConfig(T=0.0)
        with pytest.raises(SimulationError):
            RunConfig(h=-1e-3)

    def test_step_cap(self):
        with pytest.raises(SimulationError):
            RunConfig(T=1e3, h=1e-6)


class TestHorizon:
    def test_covers_horizon_exactly(self):
        # T = 1 is not a multiple of h = 0.4: steps 0.4, 0.4, then 0.2
        sys = SystemModel(2, 1, ["x2", "-2*x1 - 3*x2"], [["0"], ["1"]],
                          [-5, -5], [5, 5])
        ref = ReferenceSpec.from_strings(2, [0.0, 0.0], ["0"])
        cfg = RunConfig(kind="custom", T=1.0, h=0.4,
                        x0=np.array([1.0, 0.0]), custom_u=["0"])
        trace = run_closed_loop(sys, None, None, ref, cfg)
        assert trace.completed
        assert trace.t[-1] == 1.0
        assert np.allclose(np.diff(trace.t), [0.4, 0.4, 0.2], atol=1e-15)
        _, oracle = rk45_integrate(lambda t, x: np.array([x[1], -2 * x[0] - 3 * x[1]]),
                                   [1.0, 0.0], (0.0, 1.0), t_eval=np.array([1.0]))
        assert np.max(np.abs(trace.x[-1] - oracle[-1])) <= 1e-2


class TestInvariance:
    """Starting on the reference must keep every controller on it."""

    def test_numex_kinds(self, numex, numex_gain):
        xd0 = np.asarray(numex.reference.xd0, dtype=float)
        for kind, gain in (
            ("dynext", numex_gain),
            ("geodesic", numex_gain),
            ("static", GainField.constant([[-1.0, -1.0]])),
        ):
            cfg = RunConfig(kind=kind, T=0.5, h=1e-3, x0=xd0.copy(), ell=5.0)
            trace = run_closed_loop(numex.system, numex.metric, gain,
                                    numex.reference, cfg)
            assert trace.completed
            assert np.max(trace.err) <= 1e-10, kind

    def test_micro_kinds(self, micro, micro_gain):
        xd0 = np.asarray(micro.reference.xd0, dtype=float)
        for kind in ("static", "dynext", "geodesic"):
            cfg = RunConfig(kind=kind, T=0.5, h=1e-3, x0=xd0.copy(), ell=5.0)
            trace = run_closed_loop(micro.system, micro.metric, micro_gain,
                                    micro.reference, cfg)
            assert trace.completed
            assert np.max(trace.err) <= 1e-10, kind


class TestObserver:
    def test_exact_exponential_contraction(self, numex):
        # with a z-free control law, d(z - x)/dt = -ell (z - x) exactly
        cfg = RunConfig(kind="custom", T=1.0, h=1e-3,
                        x0=np.array([1.0, -0.5]), z0=np.array([3.0, 1.5]),
                        ell=5.0, custom_u=["sin(t)"])
        trace = run_closed_loop(numex.system, numex.metric, None,
                                numex.reference, cfg)
        assert trace.completed
        gap0 = np.linalg.norm(trace.z[0] - trace.x[0])
        gaps = np.linalg.norm(trace.z - trace.x, axis=1)
        expected = gap0 * np.exp(-cfg.ell * trace.t)
        assert np.max(np.abs(gaps - expected) / expected) <= 1e-6

    def test_z_defaults_to_reference_start(self, numex, numex_gain):
        cfg = RunConfig(kind="dynext", T=0.01, h=1e-3,
                        x0=np.array([0.0, 0.0]), ell=5.0)
        trace = run_closed_loop(numex.system, numex.metric, numex_gain,
                                numex.reference, cfg)
        assert np.allclose(trace.z[0], numex.reference.xd0)


class TestDecayRate:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 5.0, 501)
        rate = decay_rate(synthetic_trace(t, 3.0 * np.exp(-2.0 * t)), (0.5, 4.0))
        assert rate == pytest.approx(2.0, abs=1e-10)

    def test_constant_error(self):
        t = np.linspace(0.0, 5.0, 101)
        assert decay_rate(synthetic_trace(t, np.ones(101)), (0.0, 5.0)) == 0.0

    def test_window_not_covered(self):
        t = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValueError):
            decay_rate(synthetic_trace(t, np.ones(11)), (2.0, 3.0))

    def test_underflow_guard(self):
        t = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValueError):
            decay_rate(synthetic_trace(t, np.full(11, 1e-14)), (0.0, 1.0))


class TestAccuracy:
    def test_static_step_halving(self, micro, micro_gain):
        # stage-evaluated static feedback keeps full RK4 order
        def final(h):
            cfg = RunConfig(kind="static", T=2.0, h=h,
                            x0=np.array([1.5, 1.0, 2.0]))
            return run_closed_loop(micro.system, micro.metric, micro_gain,
                                   micro.reference, cfg).x[-1]

        assert np.max(np.abs(final(2e-3) - final(1e-3))) <= 5e-7

    def test_scenario_tail_decreases(self, scenario_a):
        trace, _ = scenario_a
        mask = (trace.t >= 1.0) & (trace.t <= 8.0)
        errs = trace.err[mask]
        assert errs[-1] < 1e-2 * errs[0]
        # allow sub-0.1% local wiggle around the exponential envelope
        assert np.all(np.diff(errs) <= 1e-3 * errs[:-1])

    def test_scenario_b_tracks(self, scenario_b):
        trace, _ = scenario_b
        assert trace.completed
        assert trace.final_err() < 1e-4


class TestFailureHandling:
    def test_divergence_truncates_and_flags(self):
        sys = SystemModel(2, 1, ["x1^2", "0"], [["0"], ["1"]],
                          [-5, -5], [5, 5])
        ref = ReferenceSpec.from_strings(2, [0.0, 0.0], ["0"])
        cfg = RunConfig(kind="custom", T=5.0, h=1e-3,
                        x0=np.array([2.0, 0.0]), custom_u=["0"])
        trace = run_closed_loop(sys, None, None, ref, cfg)
        assert not trace.completed
        assert any("divergence" in f or "failure" in f for f in trace.flags)
        assert trace.t[-1] < 5.0
        assert len(trace.t) == len(trace.x) == len(trace.err)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_custom_domain_error_flags(self, numex):
        cfg = RunConfig(kind="custom", T=3.0, h=1e-3,
                        x0=np.array([0.0, 0.0]), custom_u=["1/(t-1)"])
        trace = run_closed_loop(numex.system, numex.metric, None,
                                numex.reference, cfg)
        assert not trace.completed
        assert trace.flags
        assert trace.t[-1] <= 1.0 + 1e-9

    def test_custom_reciprocal_time_is_controller_failure(self, numex):
        # u1 = 1/t at t = 0 is a domain error of the controller, not an
        # inf control that surfaces later as a non-finite state
        cfg = RunConfig(kind="custom", T=1.0, h=1e-3,
                        x0=np.array([0.0, 0.0]), custom_u=["1/t"])
        trace = run_closed_loop(numex.system, numex.metric, None,
                                numex.reference, cfg)
        assert not trace.completed
        assert list(trace.t) == [0.0]
        assert trace.flags[0].startswith("controller failure at t=0")

    def test_controller_failure_leaves_no_control_value(self, numex):
        cfg = RunConfig(kind="custom", T=1.0, h=1e-3,
                        x0=np.array([0.0, 0.0]), custom_u=["sqrt(t - 1)"])
        trace = run_closed_loop(numex.system, numex.metric, None,
                                numex.reference, cfg)
        assert not trace.completed
        assert list(trace.t) == [0.0]
        assert "controller failure" in trace.flags[0]
        assert np.all(np.isnan(trace.u))

    def test_non_finite_control_is_controller_failure(self, numex):
        # inf - inf is nan on Python floats, with no domain error; the nan
        # control must end the run as a controller failure at once
        for custom_u in (["1e400*(t + 1) - 1e400*(t + 1)"], ["1e400*(t + 1)"]):
            cfg = RunConfig(kind="custom", T=1.0, h=1e-3,
                            x0=np.array([0.0, 0.0]), custom_u=custom_u)
            trace = run_closed_loop(numex.system, numex.metric, None,
                                    numex.reference, cfg)
            assert not trace.completed
            assert list(trace.t) == [0.0]
            assert trace.flags == ["controller failure at t=0: non-finite control"]
            assert np.all(np.isnan(trace.u))

    def test_infinite_dynext_gain_is_controller_failure(self, numex):
        gain = GainField.from_exprs(2, 1, [["1e400*x1", "0"]])
        cfg = RunConfig(kind="dynext", T=1.0, h=1e-2, x0=np.array([-5.0, 2.0]))
        trace = run_closed_loop(numex.system, numex.metric, gain,
                                numex.reference, cfg)
        assert trace.flags == ["controller failure at t=0: non-finite control"]

    def test_static_refuses_inexact_gain(self, numex, numex_gain):
        cfg = RunConfig(kind="static", T=1.0, h=1e-3, x0=np.zeros(2),
                        exactness_grid=Grid([-2, -2], [2, 2], (5, 5)))
        with pytest.raises(SimulationError):
            run_closed_loop(numex.system, numex.metric, numex_gain,
                            numex.reference, cfg)

    def test_static_needs_grid_for_symbolic_gain(self, numex, numex_gain):
        cfg = RunConfig(kind="static", T=1.0, h=1e-3, x0=np.zeros(2))
        with pytest.raises(SimulationError):
            run_closed_loop(numex.system, numex.metric, numex_gain,
                            numex.reference, cfg)

    def test_custom_needs_right_arity(self, numex):
        cfg = RunConfig(kind="custom", T=1.0, h=1e-3, x0=np.zeros(2),
                        custom_u=["0", "0"])
        with pytest.raises(SimulationError):
            run_closed_loop(numex.system, numex.metric, None,
                            numex.reference, cfg)
        with pytest.raises(SimulationError):
            run_closed_loop(numex.system, numex.metric, None, numex.reference,
                            RunConfig(kind="custom", T=1.0, h=1e-3,
                                      x0=np.zeros(2)))


class TestPerturbationSweep:
    def test_zero_radius_converges(self, numex, numex_gain):
        cfg = RunConfig(kind="dynext", T=5.0, h=5e-3, x0=None,
                        z0=np.zeros(2), ell=5.0)
        results = perturbation_sweep(numex.system, numex.metric,
                                     numex_gain, numex.reference,
                                     cfg, [0.0], samples=2)
        assert results == [(0.0, 1.0)]

    def test_negative_radius_rejected(self, numex, numex_gain):
        cfg = RunConfig(kind="dynext", T=1.0, h=5e-3)
        with pytest.raises(ValueError):
            perturbation_sweep(numex.system, numex.metric, numex_gain,
                               numex.reference, cfg, [-1.0], samples=1)

    def test_linear_system_full_basin(self):
        sys = SystemModel(2, 1, ["x2", "-2*x1 - 3*x2"], [["0"], ["1"]],
                          [-50, -50], [50, 50])
        ref = ReferenceSpec.from_strings(2, [0.0, 0.0], ["0"])
        gain = GainField.constant([[-1.0, -1.0]])
        cfg = RunConfig(kind="static", T=10.0, h=5e-3)
        results = perturbation_sweep(sys, None, gain, ref, cfg,
                                     [1.0, 4.0], samples=3, seed=1)
        assert results == [(1.0, 1.0), (4.0, 1.0)]

    def test_numex_radii(self, numex, numex_gain):
        cfg = RunConfig(kind="dynext", T=10.0, h=5e-3, z0=np.zeros(2),
                        ell=5.0)
        results = perturbation_sweep(numex.system, numex.metric,
                                     numex_gain, numex.reference,
                                     cfg, [1.0, 4.0], samples=2, seed=3)
        assert [r for r, _ in results] == [1.0, 4.0]
        assert all(frac == 1.0 for _, frac in results)


class TestCsv:
    def test_header_and_roundtrip(self, numex, numex_gain):
        cfg = RunConfig(kind="dynext", T=0.02, h=1e-2,
                        x0=np.array([1.0, 2.0]), z0=np.zeros(2), ell=5.0)
        trace = run_closed_loop(numex.system, numex.metric, numex_gain,
                                numex.reference, cfg)
        buf = io.StringIO()
        trace.write_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "t,x1,x2,xd1,xd2,z1,z2,u1,ud1,err"
        names, data = trace.columns()
        parsed = np.array([[float(v) for v in line.split(",")]
                           for line in lines[1:]])
        assert np.array_equal(parsed, data)  # 17-digit exact round trip

    def test_no_z_columns_for_static(self, micro, micro_gain):
        cfg = RunConfig(kind="static", T=0.02, h=1e-2,
                        x0=np.array([1.5, 1.0, 2.0]))
        trace = run_closed_loop(micro.system, micro.metric, micro_gain,
                                micro.reference, cfg)
        names, _ = trace.columns()
        assert trace.z is None
        assert names == ["t", "x1", "x2", "x3", "xd1", "xd2", "xd3",
                         "u1", "ud1", "err"]

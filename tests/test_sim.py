"""Closed-loop simulation, diagnostics, and the perturbation sweep."""

import io
import math

import numpy as np
import pytest

from ccmkit import controller, sim
from ccmkit import expr as ex
from ccmkit.certificates import Grid
from ccmkit.controller import (
    DampingParams,
    GainField,
    dynext_control,
    radial_potential,
    synthesize_gain,
)
from ccmkit.geodesic import GeodesicError, path_integral_controller
from ccmkit.integrate import (
    DIVERGENCE_LIMIT,
    IntegrationError,
    rk45_integrate,
    time_grid,
)
from ccmkit.model import ReferenceSpec, SystemModel, float_args
from ccmkit.sim import (
    RunConfig,
    SimTrace,
    SimulationError,
    decay_rate,
    perturbation_sweep,
    run_closed_loop,
)


def numpy_rk4_step(field, x, t, h):
    k1 = field(t, x)
    k2 = field(t + 0.5 * h, x + 0.5 * h * k1)
    k3 = field(t + 0.5 * h, x + 0.5 * h * k2)
    k4 = field(t + h, x + h * k3)
    out = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise IntegrationError("non-finite state in RK4 step", t)
    return out


def reference_loop(sys, metric, gain, ref, cfg):
    """Oracle for run_closed_loop: the closed loop assembled at every RK4
    stage from eval_f, eval_b, eval_ud and the controller functions on
    numpy arrays, with the same time grid, hold and failure flags."""
    n = sys.n
    xd0 = np.asarray(ref.xd0, dtype=float)
    x0 = np.asarray(cfg.x0 if cfg.x0 is not None else xd0, dtype=float)
    use_z = cfg.kind in ("dynext", "custom")
    z0 = np.asarray(cfg.z0 if cfg.z0 is not None else xd0, dtype=float)
    update = None
    if cfg.kind == "custom":
        names = (["t"] + [f"{p}{i + 1}" for p in ("x", "xd", "z") for i in range(n)])
        custom = ex.compile_fn([ex.parse(e, names) for e in cfg.custom_u], names)

        def law(t, x, xd, z, ud, held):
            return np.array(custom(*float_args((t, *x, *xd, *z))))
    elif cfg.kind == "static":
        def law(t, x, xd, z, ud, held):
            return ud + (radial_potential(gain, x) - radial_potential(gain, xd))
    else:
        def law(t, x, xd, z, ud, held):
            return ud + held

        if cfg.kind == "dynext":
            def update(x, xd, z):
                return dynext_control(gain, z, x, xd, 0.0)
        else:
            warm = None

            def update(x, xd, z):
                nonlocal warm
                held, warm = path_integral_controller(
                    gain, metric, x, xd, np.zeros(sys.m), cfg.geodesic_segments,
                    path=warm)
                return held

    def split(y):
        return y[:n], y[n : 2 * n], y[2 * n :] if use_z else None

    def rhs(t, y):
        x, xd, z = split(y)
        ud = ref.eval_ud(t, xd)
        fx = sys.eval_f(x) + sys.eval_b(x) @ law(t, x, xd, z, ud, held)
        fxd = sys.eval_f(xd) + sys.eval_b(xd) @ ud
        return np.concatenate([fx, fxd, fx - cfg.ell * (z - x)] if use_z else [fx, fxd])

    times = time_grid(0.0, cfg.T, cfg.h)
    state = np.concatenate([x0, xd0, z0] if use_z else [x0, xd0])
    states = np.empty((times.size, state.size))
    us = np.full((times.size, sys.m), np.nan)
    uds = np.empty((times.size, sys.m))
    flags = []
    held = None
    for k in range(times.size):
        t = float(times[k])
        states[k] = state
        x, xd, z = split(state)
        uds[k] = ud = ref.eval_ud(t, xd)
        try:
            if update is not None:
                held = update(x, xd, z)
            u = law(t, x, xd, z, ud, held)
            if not all(map(math.isfinite, u.tolist())):
                raise ArithmeticError("non-finite control")
            us[k] = u
        except (GeodesicError, ArithmeticError, ValueError) as err:
            flags.append(f"controller failure at t={t:g}: {err}")
            break
        if k + 1 == times.size:
            break
        try:
            state = numpy_rk4_step(rhs, state, t, float(times[k + 1]) - t)
            if np.max(np.abs(state)) > DIVERGENCE_LIMIT:
                raise IntegrationError("state divergence", times[k + 1])
        except (IntegrationError, ArithmeticError, ValueError) as err:
            flags.append(f"numerical failure at t={t:g}: {err}")
            break
    completed = not flags
    end = k + 1
    xs, xds = states[:end, :n], states[:end, n : 2 * n]
    exits = times[:end][~sys.in_domain(xs)].tolist()
    if exits:
        flags.append(f"plant left the domain box at t={exits[0]:g} ({len(exits)} samples)")
    return SimTrace(t=times[:end], x=xs, xd=xds, u=us[:end], ud=uds[:end],
                    err=np.linalg.norm(xs - xds, axis=1),
                    z=states[:end, 2 * n :] if use_z else None, flags=flags,
                    completed=completed)


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


ORACLE_CASES = {
    "numex-static-constant": ("numex", "static", "constant", {"x0": [-1.0, 1.0]}),
    "numex-static-exact": ("numex", "static", "exact", {"x0": [-1.0, 1.0]}),
    "numex-dynext": ("numex", "dynext", "builtin", {"x0": [-5.0, 2.0], "z0": [0.0, 0.0]}),
    "numex-dynext-synthesized": ("numex", "dynext", "synthesized",
                                 {"x0": [-5.0, 2.0], "z0": [0.0, 0.0]}),
    "numex-geodesic": ("numex", "geodesic", "builtin", {"x0": [-1.0, 1.0]}),
    "numex-custom": ("numex", "custom", None,
                     {"x0": [1.0, -0.5], "custom_u": ["-x1 - 2*x2 + sin(t)*z1 - xd2"]}),
    "numex-custom-divergence": ("numex", "custom", None,
                                {"x0": [0.0, 2.0], "custom_u": ["x2^4"]}),
    "micro-static-constant": ("micro", "static", "builtin", {"x0": [1.5, 1.0, 2.0]}),
    "micro-dynext": ("micro", "dynext", "builtin", {"x0": [1.5, 1.0, 2.0]}),  # constant K
    "micro-dynext-symbolic": ("micro", "dynext", "symbolic", {"x0": [1.5, 1.0, 2.0]}),
    "micro-geodesic": ("micro", "geodesic", "builtin", {"x0": [1.5, 1.0, 2.0]}),
    "micro-custom": ("micro", "custom", None,
                     {"x0": [1.5, 1.0, 2.0], "custom_u": ["xd3 - 2*(x3 - xd3) + z1 - x1"]}),
}


class TestReferenceLoopOracle:
    """The generated closed loop against the per-stage reference loop."""

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_matches_reference_loop(self, case, request):
        name, kind, gain_key, kwargs = ORACLE_CASES[case]
        bundle = request.getfixturevalue(name)
        gains = {"constant": lambda: GainField.constant([[-1.0, -1.0]]),
                 "exact": lambda: GainField.from_exprs(2, 1, [["-x1", "-x2^3"]]),
                 "symbolic": lambda: GainField.from_exprs(
                     3, 1, [["-x1^2/10", "-sin(x2)/5", "-2 - cos(x1*x3)/5"]]),
                 "synthesized": lambda: synthesize_gain(  # no expressions: dynext_control
                     bundle.system, bundle.metric, DampingParams(r=1.5, gamma0=0.1, lam=2.0 / 3.0))}
        gain = (request.getfixturevalue(f"{name}_gain") if gain_key == "builtin"
                else gains[gain_key]() if gain_key else None)
        kwargs = {k: v if k == "custom_u" else np.array(v) for k, v in kwargs.items()}
        cfg = RunConfig(kind=kind, T=1.0, h=2e-3, ell=5.0,
                        exactness_grid=Grid([-6, -6], [6, 6], (9, 9)), **kwargs)
        got = run_closed_loop(bundle.system, bundle.metric, gain, bundle.reference, cfg)
        want = reference_loop(bundle.system, bundle.metric, gain, bundle.reference, cfg)
        assert got.flags == want.flags
        assert got.completed == want.completed
        assert got.completed != case.endswith("divergence")
        names, data = got.columns()
        want_names, want_data = want.columns()
        assert names == want_names
        for j, column in enumerate(names):
            scale = np.max(np.abs(want_data[:, j]))
            assert np.allclose(data[:, j], want_data[:, j], rtol=1e-9,
                               atol=1e-9 * scale), column


class TestGeneratedDynext:
    """The dynext correction of a gain with expressions is one generated
    function per gain, against `dynext_control` as its oracle."""

    SIN_EXP = [["-(x2^2 + 1)*exp(x1/5)", "-x2^2 + sin(x1)"]]
    SIN_EXP_3x2 = [["-(x2^2 + 1)*exp(x1/5)", "-x2^2 + sin(x3)", "-2 - cos(x1*x2)"],
                   ["sin(x1)*x3", "-1 - exp(x2/3)*x3^2", "x1*x2*x3"]]

    def test_matches_dynext_control(self, numex_gain, micro_gain):
        rng = np.random.default_rng(61)
        gains = [numex_gain, micro_gain, GainField.from_exprs(2, 1, self.SIN_EXP),
                 GainField.from_exprs(3, 2, self.SIN_EXP_3x2)]
        assert micro_gain.is_constant() and numex_gain.exprs is not None
        for gain in gains:
            n = gain.n
            generated = gain.dynext_correction  # what run_closed_loop calls
            states = rng.uniform(-2, 2, size=(40, 3 * n))
            # one exact zero per even row: the numpy kernel skips that axis
            states[np.arange(0, 40, 2), rng.integers(3 * n, size=20)] = 0.0
            states[-1, :] = 0.0
            for y in states:
                x, xd, z = y[:n], y[n : 2 * n], y[2 * n :]
                got = np.array(generated(*y.tolist()))
                want = dynext_control(gain, z, x, xd, 0.0)
                scale = np.max(np.abs(controller.dynext_beta(gain, np.stack([x, xd]), z)))
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)

    def test_symbolic_gain_compiles_once_and_skips_numpy_beta(self, numex, monkeypatch):
        compiled, beta_calls = [], []

        def compile_fn(exprs, variables, original=ex.compile_fn):
            compiled.append(exprs)
            return original(exprs, variables)

        def dynext_beta(*args, original=controller.dynext_beta):
            beta_calls.append(args)
            return original(*args)

        monkeypatch.setattr(ex, "compile_fn", compile_fn)
        monkeypatch.setattr(controller, "dynext_beta", dynext_beta)
        gain = GainField.from_exprs(2, 1, numex.builtin_gain)  # nothing compiled yet
        cfg = RunConfig(kind="dynext", T=0.2, h=1e-2, x0=np.array([-5.0, 2.0]), ell=5.0)
        for _ in range(2):  # a second run (a sweep sample) reuses the gain's correction
            trace = run_closed_loop(numex.system, numex.metric, gain, numex.reference, cfg)
            assert trace.completed and len(trace.t) == 21
        # the field and (u, u_d) read v, per run; the correction is the one that does not
        free = [ex.free_variables(exprs) for exprs in compiled]
        assert len(compiled) == 5
        assert [any(name.startswith("v") for name in names) for names in free].count(False) == 1
        assert beta_calls == []

    def test_gain_without_expressions_uses_dynext_control(self, numex, monkeypatch):
        calls = []

        def dynext_control_counted(*args, original=controller.dynext_control):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(sim, "dynext_control", dynext_control_counted)
        gain = synthesize_gain(numex.system, numex.metric,
                               DampingParams(r=1.5, gamma0=0.1, lam=2.0 / 3.0))
        cfg = RunConfig(kind="dynext", T=0.05, h=1e-2, x0=np.array([-5.0, 2.0]), ell=5.0)
        trace = run_closed_loop(numex.system, numex.metric, gain, numex.reference, cfg)
        assert trace.completed and len(calls) == len(trace.t)


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

    def test_infinite_static_gain_is_controller_failure(self, numex):
        # both cross partials of [1e400*x1, 0] fold to 0, so the gain
        # passes the exactness test; beta(x) - beta(xd) is inf - inf
        gain = GainField.from_exprs(2, 1, [["1e400*x1", "0"]])
        cfg = RunConfig(kind="static", T=1.0, h=1e-2,
                        exactness_grid=Grid([-2, -2], [2, 2], (5, 5)))
        trace = run_closed_loop(numex.system, numex.metric, gain,
                                numex.reference, cfg)
        assert trace.flags == ["controller failure at t=0: non-finite control"]

    def test_feedforward_domain_error_at_start_is_flagged(self, numex):
        # u and u_d come from one generated call, so 1/t in u_d at t = 0
        # ends the run with a flag instead of raising out of it
        ref = ReferenceSpec.from_strings(2, [3.0, -1.0], ["1/t"])
        cfg = RunConfig(kind="static", T=1.0, h=0.25, x0=np.array([1.0, 0.0]))
        trace = run_closed_loop(numex.system, numex.metric,
                                GainField.constant([[-1.0, -1.0]]), ref, cfg)
        assert trace.flags == ["controller failure at t=0: float division by zero"]
        assert np.isnan(trace.u[0, 0]) and np.isnan(trace.ud[0, 0])

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

    def test_matches_per_value_formatting(self):
        specials = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072014e-308,
                    0.1, -1.0 / 3.0, 1e300, 123456789.0]
        k = len(specials)
        values = np.array(specials)
        trace = SimTrace(t=np.arange(k, dtype=float), x=np.stack([values, values[::-1]], 1),
                         xd=np.stack([-values, values], 1), u=values[:, None],
                         ud=values[::-1, None], err=values, z=np.full((k, 2), -0.0))
        buf = io.StringIO()
        trace.write_csv(buf)
        names, data = trace.columns()
        expected = ",".join(names) + "\n" + "".join(
            ",".join(f"{v:.17g}" for v in row) + "\n" for row in data)
        assert buf.getvalue() == expected
        assert "nan" in expected and "-inf" in expected and ",-0," in expected
        assert "4.9406564584124654e-324" in expected

    def test_blocks_match_per_row_format(self, numex):
        # 1/(t - 1) fails in the step to t = 1: 2,000 rows over two blocks
        cfg = RunConfig(kind="custom", T=3.0, h=5e-4, x0=np.array([0.0, 0.0]),
                        custom_u=["1/(t-1)"])
        truncated = run_closed_loop(numex.system, numex.metric, None, numex.reference, cfg)
        # 1/t fails at t = 0: one row with NaN u and u_d
        ref = ReferenceSpec.from_strings(2, [3.0, -1.0], ["1/t"])
        cfg = RunConfig(kind="static", T=1.0, h=0.25, x0=np.array([1.0, 0.0]))
        failed = run_closed_loop(numex.system, numex.metric,
                                 GainField.constant([[-1.0, -1.0]]), ref, cfg)
        assert len(truncated.t) == 2000 and np.isnan(failed.u).all()
        k = 3 * sim.CSV_BLOCK + 5
        nans = np.where(np.arange(k) % 7 == 0, math.nan, np.linspace(-1.0, 1.0, k))
        synthetic = synthetic_trace(np.arange(k, dtype=float), nans)
        for trace in (truncated, failed, synthetic):
            buf = io.StringIO()
            trace.write_csv(buf)
            names, data = trace.columns()
            row_format = ",".join(["%.17g"] * len(names)) + "\n"
            expected = ",".join(names) + "\n" + "".join(
                row_format % tuple(row.tolist()) for row in data)
            assert buf.getvalue() == expected

    def test_no_z_columns_for_static(self, micro, micro_gain):
        cfg = RunConfig(kind="static", T=0.02, h=1e-2,
                        x0=np.array([1.5, 1.0, 2.0]))
        trace = run_closed_loop(micro.system, micro.metric, micro_gain,
                                micro.reference, cfg)
        names, _ = trace.columns()
        assert trace.z is None
        assert names == ["t", "x1", "x2", "x3", "xd1", "xd2", "xd3",
                         "u1", "ud1", "err"]

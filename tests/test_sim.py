"""Closed-loop simulation, diagnostics, and the perturbation sweep."""

import io
import math
import multiprocessing
import os
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ccmkit import cli, controller, sim
from ccmkit import expr as ex
from ccmkit.certificates import Grid
from ccmkit.config import load_config
from ccmkit.controller import (
    DampingParams,
    GainField,
    dynext_control,
    radial_potential,
    synthesize_gain,
)
from ccmkit.geodesic import MAX_SEGMENTS, GeodesicError, path_integral_controller
from ccmkit.integrate import (
    DIVERGENCE_LIMIT,
    IntegrationError,
    rk4_step,
    rk45_integrate,
    time_grid,
)
from ccmkit.model import MetricField, ReferenceSpec, SystemModel, builtin
from ccmkit.sim import (
    RunConfig,
    SimTrace,
    SimulationError,
    decay_rate,
    perturbation_sweep,
    run_closed_loop,
)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def float_args(values):
    """Arguments for an `ex.compile_fn` function: the values as Python floats
    (on numpy scalars a compiled `1/x1` at 0 gives inf, not EvalDomainError)."""
    return np.asarray(values, dtype=float).tolist()


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
    numpy arrays, with the same time grid, geodesic hold and failure flags."""
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
    elif cfg.kind == "dynext":
        def law(t, x, xd, z, ud, held):
            return dynext_control(gain, z, x, xd, ud)
    else:
        def law(t, x, xd, z, ud, held):
            return ud + held

        def update(x, xd, z):
            return path_integral_controller(gain, metric, x, xd, cfg.geodesic_segments)

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


def stepwise_loop(parts, sys, metric, gain, ref, cfg):
    """Oracle for the generated run of run_closed_loop: the law and the RK4
    step it is generated from (`parts`, the `closed_loop_parts` fixture),
    each compiled alone with `ex.compile_fn` and called once per step from a
    Python loop with the same failure checks and flag texts."""
    n, use_z, built = sys.n, cfg.kind in ("dynext", "custom"), parts(sys, metric, gain, ref, cfg)
    names, held = built["names"], built["held"]
    step = ex.compile_fn(built["step"], ["t", "h"] + names + held)
    law = ex.compile_fn(built["law"], ["t"] + names + held)
    xd0 = np.asarray(ref.xd0, dtype=float)
    x0 = np.asarray(cfg.x0 if cfg.x0 is not None else xd0, dtype=float)
    z0 = np.asarray(cfg.z0 if cfg.z0 is not None else xd0, dtype=float)
    v = []
    times = time_grid(0.0, cfg.T, cfg.h)
    state = np.concatenate([x0, xd0, z0] if use_z else [x0, xd0]).tolist()
    states = np.empty((times.size, len(state)))
    us = np.full((times.size, sys.m), np.nan)
    uds = np.full((times.size, sys.m), np.nan)
    flags = []
    for k in range(times.size):
        t = float(times[k])
        states[k] = state
        try:
            if cfg.kind == "geodesic":
                v = path_integral_controller(gain, metric, state[:n], state[n:],
                                             cfg.geodesic_segments).tolist()
            u_k, uds[k] = law(t, *state, *v)
            if not all(map(math.isfinite, u_k)):
                raise ArithmeticError("non-finite control")
            us[k] = u_k
        except (GeodesicError, ArithmeticError, ValueError) as err:
            flags.append(f"controller failure at t={t:g}: {err}")
            break
        if k + 1 == times.size:
            break
        try:
            state = step(t, float(times[k + 1]) - t, *state, *v)
            if not all(map(math.isfinite, state)):
                raise IntegrationError("non-finite state in RK4 step", t)
            if max(map(abs, state)) > DIVERGENCE_LIMIT:
                raise IntegrationError("state divergence", times[k + 1])
        except (IntegrationError, ArithmeticError, ValueError) as err:
            flags.append(f"numerical failure at t={t:g}: {err}")
            break
    completed, end = not flags, k + 1
    xs, xds = states[:end, :n], states[:end, n : 2 * n]
    exits = times[:end][~sys.in_domain(xs)].tolist()
    if exits:
        flags.append(f"plant left the domain box at t={exits[0]:g} ({len(exits)} samples)")
    return SimTrace(t=times[:end], x=xs, xd=xds, u=us[:end], ud=uds[:end],
                    err=np.linalg.norm(xs - xds, axis=1),
                    z=states[:end, 2 * n :] if use_z else None, flags=flags, completed=completed)


def hex_columns(trace):
    names, data = trace.columns()
    return names, [[x.hex() for x in row] for row in data.tolist()]


def joined(blocks):
    """One trace of a run's blocks from `sim.closed_loop_blocks`."""
    end = blocks[-1]
    arrays = {name: np.concatenate([getattr(block, name) for block in blocks])
              for name in ("t", "x", "xd", "u", "ud", "err", "z") if getattr(end, name) is not None}
    return SimTrace(**arrays, flags=end.flags, completed=end.completed)


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

    @pytest.mark.parametrize("key, value", [
        ("T", math.inf), ("h", math.inf), ("ell", math.inf), ("err_threshold", math.nan),
        ("err_threshold", math.inf), ("err_threshold", 0.0),
        ("geodesic_segments", MAX_SEGMENTS + 1)])  # rejected before any allocation
    def test_finite_settings(self, key, value):
        with pytest.raises(SimulationError):
            RunConfig(**{key: value})


class TestHorizon:
    def test_step_longer_than_horizon_starts_at_zero(self):
        sys = SystemModel(2, 1, ["x2", "-x1"], [["0"], ["1"]], [-5, -5], [5, 5])
        ref = ReferenceSpec.from_strings(2, [0.0, 0.0], ["0"])
        cfg = RunConfig(kind="custom", T=1e-9, h=1.0, x0=np.array([1.0, 0.0]), custom_u=["0"])
        trace = run_closed_loop(sys, None, None, ref, cfg)
        assert trace.completed and trace.t.tolist() == [0.0, 1e-9]
        assert trace.x[0].tolist() == [1.0, 0.0]

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
            ("static", GainField.from_exprs(2, 1, [["-1", "-1"]])),
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

    @pytest.mark.parametrize("window", [(0.25, 0.35), (0.5, 0.5)])
    def test_window_with_one_sample(self, window):
        t = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValueError, match="holds 1 samples; a rate needs two"):
            decay_rate(synthetic_trace(t, np.exp(-t)), window)

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

    def test_scenario_a_matches_dop853(self, numex, numex_gain, scenario_a):
        # the continuous ODE in (x, x_d, z), with v = beta(x, z) - beta(x_d, z)
        # evaluated wherever the solver asks; holding v over each RK4 step
        # would put the run 4.3e-3 off at t = 5
        from scipy.integrate import solve_ivp

        trace, _ = scenario_a
        sys_, ref = numex.system, numex.reference

        def rhs(t, y):
            x, xd, z = y[:2], y[2:4], y[4:]
            ud = ref.eval_ud(t, xd)
            fx = sys_.eval_f(x) + sys_.eval_b(x) @ dynext_control(numex_gain, z, x, xd, ud)
            fxd = sys_.eval_f(xd) + sys_.eval_b(xd) @ ud
            return np.concatenate([fx, fxd, fx - 5.0 * (z - x)])  # the fixture's ell

        steps = [round(t / 1e-3) for t in (5.0, 10.0, 20.0)]
        y0 = np.concatenate([trace.x[0], trace.xd[0], trace.z[0]])
        want = solve_ivp(rhs, (0.0, 20.0), y0, method="DOP853", rtol=1e-12, atol=1e-14,
                         t_eval=trace.t[steps]).y.T
        got = np.hstack([trace.x, trace.xd, trace.z])[steps]
        errors = np.max(np.abs(got - want), axis=1)
        assert np.all(errors <= 1e-8), errors

    def test_scenario_a_flags(self, scenario_a):
        trace, _ = scenario_a
        assert trace.completed
        assert trace.flags == ["plant left the domain box at t=0.241 (32 samples)"]

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


def oracle_inputs(case, request):
    """(bundle, gain, cfg) of an ORACLE_CASES entry; a fresh grid each call."""
    name, kind, gain_key, kwargs = ORACLE_CASES[case]
    bundle = request.getfixturevalue(name)
    gains = {"constant": lambda: GainField.from_exprs(2, 1, [["-1", "-1"]]),
             "exact": lambda: GainField.from_exprs(2, 1, [["-x1", "-x2^3"]]),
             "symbolic": lambda: GainField.from_exprs(
                 3, 1, [["-x1^2/10", "-sin(x2)/5", "-2 - cos(x1*x3)/5"]]),
             "synthesized": lambda: synthesize_gain(
                 bundle.system, bundle.metric, DampingParams(r=1.5, gamma0=0.1, lam=2.0 / 3.0))}
    gain = (request.getfixturevalue(f"{name}_gain") if gain_key == "builtin"
            else gains[gain_key]() if gain_key else None)
    kwargs = {k: v if k == "custom_u" else np.array(v) for k, v in kwargs.items()}
    cfg = RunConfig(kind=kind, T=1.0, h=2e-3, ell=5.0,
                    exactness_grid=Grid([-6, -6], [6, 6], (9, 9)), **kwargs)
    return bundle, gain, cfg


class TestReferenceLoopOracle:
    """The generated closed loop against the per-stage reference loop."""

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_matches_reference_loop(self, case, request):
        bundle, gain, cfg = oracle_inputs(case, request)
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


def _squaring_run(u, x0, xd0=(0.0, 0.0), ud="0"):
    """x1' = x1^2 and x2' = u: from x1 = 2 x1 diverges; u = 1e300 (1 + x2) overflows
    to inf inside the first RK4 step without an exception. The reference, with u_d
    for u, does the same from xd0 = (2, 0) or under u_d = 1e300 (1 + xd2)."""
    sys = SystemModel(2, 1, ["x1^2", "0"], [["0"], ["1"]], [-5, -5], [5, 5])
    return lambda bundle: (sys, None, None, ReferenceSpec.from_strings(2, xd0, [ud]),
                           RunConfig(kind="custom", T=5.0, h=1e-3, x0=np.array(x0), custom_u=[u]))


def _custom_run(u, T):
    return lambda bundle: (bundle.system, bundle.metric, None, bundle.reference, RunConfig(
        kind="custom", T=T, h=1e-3, x0=np.zeros(2), custom_u=[u]))


def _gain_run(kind, gain, ref=None, **kwargs):
    return lambda bundle: (bundle.system, bundle.metric, GainField.from_exprs(2, 1, gain),
                           ref or bundle.reference, RunConfig(kind=kind, T=1.0, **kwargs))


# The runs of TestFailureHandling and a non-finite state: name -> (numex bundle ->
# run_closed_loop arguments)
FAILURE_CASES = {
    "divergence": _squaring_run("0", [2.0, 0.0]),
    "non-finite-state": _squaring_run("1e300*(1 + x2)", [0.0, 0.0]),
    "reference-divergence": _squaring_run("-x2", [0.0, 0.0], xd0=(2.0, 0.0)),
    "reference-non-finite": _squaring_run("-x2", [0.0, 0.0], ud="1e300*(1 + xd2)"),
    "reference-law-finite-u": _squaring_run("-x2", [0.0, 0.0], ud="1/t"),  # u reads no u_d
    "custom-domain-error": _custom_run("1/(t-1)", 3.0),
    "custom-reciprocal-time": _custom_run("1/t", 1.0),
    "custom-sqrt": _custom_run("sqrt(t - 1)", 1.0),
    "custom-nan": _custom_run("1e400*(t + 1) - 1e400*(t + 1)", 1.0),
    "custom-inf": _custom_run("1e400*(t + 1)", 1.0),
    "infinite-dynext-gain": _gain_run("dynext", [["1e400*x1", "0"]], h=1e-2,
                                      x0=np.array([-5.0, 2.0])),
    "infinite-static-gain": _gain_run("static", [["1e400*x1", "0"]], h=1e-2,
                                      exactness_grid=Grid([-2, -2], [2, 2], (5, 5))),
    "feedforward-reciprocal-time": _gain_run(
        "static", [["-1", "-1"]], ReferenceSpec.from_strings(2, [3.0, -1.0], ["1/t"]),
        h=0.25, x0=np.array([1.0, 0.0])),
}


class TestStepwiseOracle:
    """The generated run against `stepwise_loop`, float for float, with the
    same flags and the same NaN u and u_d rows."""

    @staticmethod
    def check(parts, *args):
        got, want = run_closed_loop(*args), stepwise_loop(parts, *args)
        assert (got.flags, got.completed) == (want.flags, want.completed)
        assert hex_columns(got) == hex_columns(want)
        return want

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_oracle_cases(self, case, request, closed_loop_parts):
        bundle, gain, cfg = oracle_inputs(case, request)
        want = self.check(closed_loop_parts, bundle.system, bundle.metric, gain,
                          bundle.reference, cfg)
        assert want.completed != case.endswith("divergence")

    @pytest.mark.parametrize("case", sorted(FAILURE_CASES))
    def test_failure_cases(self, case, numex, closed_loop_parts):
        want = self.check(closed_loop_parts, *FAILURE_CASES[case](numex))
        assert not want.completed and want.flags[0].split(" at ")[0] in (
            "controller failure", "numerical failure")
        assert ("non-finite state" in want.flags[0]) == (
            case in ("non-finite-state", "reference-non-finite"))


class TestGeneratedStep:
    """The RK4 step generated into each closed loop, compiled alone, against
    `rk4_step` on the compiled closed-loop field, float for float."""

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_matches_rk4_step_bit_for_bit(self, case, request, closed_loop_parts):
        bundle, gain, cfg = oracle_inputs(case, request)
        parts = closed_loop_parts(bundle.system, bundle.metric, gain, bundle.reference, cfg)
        state_names, held = parts["names"], parts["held"]
        step = ex.compile_fn(parts["step"], ["t", "h"] + state_names + held)
        field = ex.compile_fn(parts["rates"], ["t"] + state_names + held)
        rng = np.random.default_rng(len(case))
        for _ in range(20):
            y = rng.uniform(-1.5, 1.5, len(state_names)).tolist()
            v = rng.uniform(-1.0, 1.0, len(held)).tolist()
            t = rng.uniform(0.0, cfg.T)
            for h in (cfg.h, 0.37 * cfg.h):  # a full and a shortened last step
                want = rk4_step(lambda s, x: field(s, *x, *v), y, t, h)
                got = step(t, h, *y, *v)
                assert [x.hex() for x in got] == [x.hex() for x in want]


class TestGeneratedDynext:
    """The dynext correction v = beta(x, z) - beta(xd, z) is u - u_d of the
    generated law, against `dynext_control` as its oracle."""

    SIN_EXP = [["-(x2^2 + 1)*exp(x1/5)", "-x2^2 + sin(x1)"]]
    SIN_EXP_3x2 = [["-(x2^2 + 1)*exp(x1/5)", "-x2^2 + sin(x3)", "-2 - cos(x1*x2)"],
                   ["sin(x1)*x3", "-1 - exp(x2/3)*x3^2", "x1*x2*x3"]]
    # rules of 3, 3 and 1 nodes: degree 4 in x1, 5 in x2 and 0 in x3
    POLY_3x2 = [["-1 - x1^4*x2 + x2^2", "-x2^5 + x1*x2^3", "x1^2*x2 - 2"],
                ["x1^3 - x3", "x3*x2^2 - x1", "-3 + x2*x1"]]

    @staticmethod
    def dynext_law(gain, parts):
        """The law run_closed_loop generates for `gain` on a plant of its size,
        compiled alone."""
        n, m = gain.n, gain.m
        plant = SystemModel(n, m, ["0"] * n, [[str(int(i == j)) for j in range(m)]
                                              for i in range(n)], [-2] * n, [2] * n)
        ref = ReferenceSpec.from_strings(n, [0.0] * n, [f"sin(t) + xd{j + 1}" for j in range(m)])
        built = parts(plant, None, gain, ref, RunConfig(kind="dynext"))
        return ex.compile_fn(built["law"], ["t"] + built["names"])

    def test_matches_dynext_control(self, numex_gain, micro_gain, closed_loop_parts):
        rng = np.random.default_rng(61)
        gains = [numex_gain, micro_gain, GainField.from_exprs(2, 1, self.SIN_EXP),
                 GainField.from_exprs(3, 2, self.SIN_EXP_3x2),
                 GainField.from_exprs(3, 2, self.POLY_3x2)]
        assert micro_gain.is_constant() and numex_gain.exprs is not None
        for gain in gains:
            n = gain.n
            law = self.dynext_law(gain, closed_loop_parts)
            states = rng.uniform(-2, 2, size=(40, 3 * n))
            # one exact zero per even row: the numpy kernel skips that axis
            states[np.arange(0, 40, 2), rng.integers(3 * n, size=20)] = 0.0
            states[-1, :] = 0.0
            for y in states:
                x, xd, z = y[:n], y[n : 2 * n], y[2 * n :]
                u, ud = law(0.5, *y.tolist())
                v = [a - b for a, b in zip(u, ud)]
                want = dynext_control(gain, z, x, xd, 0.0)
                scale = np.max(np.abs(controller.dynext_beta(gain, np.stack([x, xd]), z)))
                np.testing.assert_allclose(np.array(v), want, rtol=1e-12, atol=1e-12 * scale)

    def test_symbolic_gain_compiles_once_and_skips_numpy_beta(self, numex, monkeypatch):
        beta_calls = []

        def dynext_beta(*args, original=controller.dynext_beta):
            beta_calls.append(args)
            return original(*args)

        compiled = TestBuildOnce.count_compiles(monkeypatch)
        monkeypatch.setattr(controller, "dynext_beta", dynext_beta)
        gain = GainField.from_exprs(2, 1, numex.builtin_gain)  # nothing compiled yet
        cfg = RunConfig(kind="dynext", T=0.2, h=1e-2, x0=np.array([-5.0, 2.0]), ell=5.0)
        for _ in range(2):  # a second run (a sweep sample) reuses the run
            trace = run_closed_loop(numex.system, numex.metric, gain, numex.reference, cfg)
            assert trace.completed and len(trace.t) == 21
        # u = u_d + beta(x, z) - beta(xd, z) at every stage, with no held v
        [reference, plant] = compiled
        assert re.search(r"\bv\d", reference + plant) is None
        assert beta_calls == []

    def test_synthesized_gain_uses_generated_correction(self, numex, monkeypatch):
        calls = []

        def counted(name):
            def call(*args, original=getattr(controller, name)):
                calls.append(name)
                return original(*args)
            return call

        for name in ("dynext_beta", "dynext_control", "radial_potential"):
            monkeypatch.setattr(controller, name, counted(name))
        gain = synthesize_gain(numex.system, numex.metric,
                               DampingParams(r=1.5, gamma0=0.1, lam=2.0 / 3.0))
        compiled = TestBuildOnce.count_compiles(monkeypatch)
        cfg = RunConfig(kind="dynext", T=0.05, h=1e-2, x0=np.array([-5.0, 2.0]), ell=5.0)
        trace = run_closed_loop(numex.system, numex.metric, gain, numex.reference, cfg)
        assert trace.completed and len(trace.t) == 6
        assert calls == []
        assert len(compiled) == 2  # the reference and plant passes, nothing per gain


class TestGeneratedStatic:
    """An exact static gain is folded into the generated field."""

    def test_exact_gain_reads_no_held_correction(self, numex, monkeypatch):
        potential_calls = []

        def radial_potential(*args, original=controller.radial_potential):
            potential_calls.append(args)
            return original(*args)

        compiled = TestBuildOnce.count_compiles(monkeypatch)
        monkeypatch.setattr(controller, "radial_potential", radial_potential)
        gain = GainField.from_exprs(2, 1, [["-x1", "-x2^3"]])
        cfg = RunConfig(kind="static", T=0.2, h=1e-2, x0=np.array([-1.0, 1.0]),
                        exactness_grid=Grid([-2, -2], [2, 2], (5, 5)))
        trace = run_closed_loop(numex.system, numex.metric, gain, numex.reference, cfg)
        assert trace.completed and len(trace.t) == 21
        [reference, plant] = compiled  # the radial potential in their steps
        assert re.search(r"\bv\d", reference + plant) is None
        assert potential_calls == []

    def test_user_gain_with_a_kink_is_exact(self):
        # 2|x2| has no derivative at x2 = 0, a grid point; the exactness
        # check reads only the mixed partials, which exist
        sys = SystemModel(2, 1, ["-x1 + x2^2", "-x2"], [["0"], ["1"]], [-2, -2], [2, 2])
        metric = MetricField(2, [["1", "0"], ["0", "1"]], 1.0, 1.0, 0.5)
        gain = GainField.from_exprs(2, 1, [["-1", "-2 - 2*abs(x2)"]])
        grid = Grid([-2, -2], [2, 2], (5, 5))
        assert controller.exactness_residual(gain, grid) == (0.0, None)
        ref = ReferenceSpec.from_strings(2, [0.0, 0.0], ["0"])
        cfg = RunConfig(kind="static", T=0.2, h=1e-2, x0=np.array([0.5, 0.5]),
                        exactness_grid=grid)
        assert run_closed_loop(sys, metric, gain, ref, cfg).completed

    def test_radial_potential_exprs_match_numpy(self):
        gain = GainField.from_exprs(2, 1, [["-x1*exp(x2/5)", "-x2^3 - x1^2*exp(x2/5)/5"]])
        x = [ex.var("x1"), ex.var("x2")]
        beta = ex.compile_fn(controller.radial_potential_exprs(gain, x), ["x1", "x2"])
        for point in ([1.5, -0.5], [0.0, 2.0], [-1.0, 0.0], [0.0, 0.0]):
            np.testing.assert_allclose(beta(*point), radial_potential(gain, np.array(point)),
                                       rtol=1e-13, atol=1e-13)
        constant = GainField.from_exprs(2, 1, [["-1", "-2"]])
        assert ex.to_string(controller.radial_potential_exprs(constant, x)[0]) == \
            "(-1.0)*x1 + (-2.0)*x2"  # K x, no quadrature


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
                                GainField.from_exprs(2, 1, [["-1", "-1"]]), ref, cfg)
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

    @pytest.mark.parametrize("kind", ["custom", "static", "dynext", "geodesic"])
    @pytest.mark.parametrize("key, value", [
        pytest.param("x0", [1.0, 0.0, 0.0], id="x0-three"), pytest.param("z0", [0.0], id="z0-one"),
        pytest.param("x0", [[1.0], [0.0]], id="x0-column"), pytest.param("z0", 0.0, id="z0-scalar")])
    def test_wrong_length_initial_state_is_rejected(self, numex, numex_gain, kind, key, value):
        cfg = RunConfig(kind=kind, T=0.1, h=1e-2, custom_u=["0"], **{key: np.array(value)})
        gain = GainField.from_exprs(2, 1, [["-1", "-1"]]) if kind == "static" else numex_gain
        with pytest.raises(SimulationError, match="x0 and z0 need 2 entries"):
            run_closed_loop(numex.system, numex.metric, gain, numex.reference, cfg)
        if key == "z0":  # a sweep sets x0 per sample and counts the error as not converged
            assert perturbation_sweep(numex.system, numex.metric, gain, numex.reference,
                                      cfg, [0.0], 1) == [(0.0, 0.0)]

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


class TestUndefinedGainPartial:
    """K = [-sqrt(x1^2 + x2^2), -1] has no partials at the origin, a grid point."""

    KINK = [["-sqrt(x1^2 + x2^2)", "-1"]]

    def cfg(self, **kwargs):
        return RunConfig(kind="static", T=0.1, h=1e-2,
                         exactness_grid=Grid([-2, -2], [2, 2], (5, 5)), **kwargs)

    def test_static_run_names_the_check_and_the_point(self, numex):
        gain = GainField.from_exprs(2, 1, self.KINK)
        for _ in range(2):  # the failed build is not cached: the second run fails the same way
            with pytest.raises(SimulationError,
                               match=r"exactness check failed: .* at x=\[0\. 0\.\]"):
                run_closed_loop(numex.system, numex.metric, gain, numex.reference,
                                self.cfg(x0=np.array([1.0, 1.0])))
        assert all(entry is not gain for entry in sim._BUILT[0][0])

    def test_sweep_counts_every_sample_as_not_converged(self, numex):
        gain = GainField.from_exprs(2, 1, self.KINK)
        result = perturbation_sweep(numex.system, numex.metric, gain, numex.reference,
                                    self.cfg(), [0.0, 0.5], 2)
        assert result == [(0.0, 0.0), (0.5, 0.0)]


class TestBuildOnce:
    """Runs that differ only in x0 (a sweep) share one compiled closed loop."""

    @staticmethod
    def count_compiles(monkeypatch):
        """The source of each compiled closed-loop run, in order."""
        compiled = []

        def compile_source(src, names, original=ex.compile_source):
            compiled.append(src)
            return original(src, names)

        monkeypatch.setattr(ex, "compile_source", compile_source)
        return compiled

    @staticmethod
    def spy_passes(monkeypatch):
        """The rows each call of a closed-loop pass puts, per pass, in call order:
        {"reference": [...], "plant": [...]}, each call's rows one flat list."""
        calls = {"reference": [], "plant": []}

        def spied(name, run):
            def call(rows, first, last, times, put, *state):
                calls[name].append([])
                return run(rows, first, last, times,
                           lambda row: (calls[name][-1].extend(row), put(row)), *state)
            return call

        def closed_loop(*args, original=sim._closed_loop):
            reference, plant = original(*args)
            return spied("reference", reference), spied("plant", plant)

        monkeypatch.setattr(sim, "_closed_loop", closed_loop)
        return calls

    @staticmethod
    def spy_runs(monkeypatch):
        """The blocks of each run of `sim.closed_loop_blocks`, in order."""
        runs = []

        def walk(*args, original=sim._walk):
            mine = {}
            for i, trace in original(*args):
                mine.setdefault(i, []).append(trace)
                yield i, trace
            runs.extend(mine[i] for i in sorted(mine))

        monkeypatch.setattr(sim, "_walk", walk)
        return runs

    def test_static_sweep_compiles_once(self, micro, monkeypatch):
        gain = GainField.from_exprs(3, 1, micro.builtin_gain)  # a new key
        compiled = self.count_compiles(monkeypatch)
        passes = self.spy_passes(monkeypatch)
        cfg = RunConfig(kind="static", T=0.2, h=1e-2)
        perturbation_sweep(micro.system, micro.metric, gain, micro.reference, cfg,
                           [0.25, 0.5, 0.75, 1.0], 4, seed=3)
        assert (len(passes["reference"]), len(passes["plant"])) == (1, 16)
        assert len(compiled) == 2  # one build of both passes for the whole sweep

    def test_geodesic_sweep_matches_fresh_runs(self, monkeypatch):
        def inputs():
            demo = load_config(str(CONFIGS / "geodesic_demo.ini"))
            gain = GainField.from_exprs(2, 1, [["-1", "-(1 + x2^2)"]])
            ref = ReferenceSpec.from_strings(2, [0.0, 0.0], ["sin(t)"])
            return demo.system, demo.metric, gain, ref

        runs = self.spy_runs(monkeypatch)
        cfg = RunConfig(kind="geodesic", T=0.2, h=0.05, geodesic_segments=16)
        perturbation_sweep(*inputs(), cfg, [1.0], 2, seed=5)
        traces = [joined(blocks) for blocks in runs]
        assert len(traces) == 2 and traces[0].x[0, 0] != traces[1].x[0, 0]
        monkeypatch.undo()  # the spy would record the fresh runs too
        for trace in traces:  # each sample again, on objects built for it alone
            fresh = run_closed_loop(*inputs(), replace(cfg, x0=trace.x[0]))
            assert trace.completed and fresh.flags == trace.flags
            assert np.array_equal(fresh.columns()[1], trace.columns()[1])

    def test_changed_ell_or_custom_u_recompiles(self, monkeypatch):
        bundle = builtin("numex")  # a new key
        compiled = self.count_compiles(monkeypatch)
        cfg = RunConfig(kind="custom", T=0.1, h=1e-2, x0=np.array([1.0, -0.5]),
                        custom_u=["-x1 - 2*x2 + z1 - xd2"], ell=5.0)
        counts, z_ends = [], []
        for changed in ({}, {"x0": np.array([0.5, 0.5])}, {"ell": 3.0},
                        {"custom_u": ["-x1 - x2 + z1 - xd2"]}, {}):
            cfg = replace(cfg, **changed)
            trace = run_closed_loop(bundle.system, bundle.metric, None, bundle.reference, cfg)
            counts.append(len(compiled) / 2)  # builds, of two passes each
            z_ends.append(trace.z[-1].tolist())
        assert counts == [1, 1, 2, 3, 3]
        assert z_ends[2] != z_ends[1]  # the new ell is the one simulated


class TestSharedStepStart:
    """The law and the RK4 step are one program split into a reference pass and a
    plant pass: the step reads the values the law computed at the step's start,
    and the plant pass those of the reference pass, instead of computing them again."""

    @staticmethod
    def blocks(src):
        """The right-hand sides assigned in the law's try block and in the step's."""
        law, step = (block.split("        except")[0] for block in src.split("try:")[1:])
        return [re.findall(r"^ +[\w, ]+ = (.+)$", block, re.M) for block in (law, step)]

    @pytest.mark.parametrize("bundle, kind, lines", [
        ("numex", "dynext", ["sin(t)", "cos(t)"]),
        ("microactuator", "static", ["cos(t)"]),
    ])
    def test_step_start_values_computed_once(self, bundle, kind, lines, monkeypatch):
        bundle = builtin(bundle)  # a new key
        gain = GainField.from_exprs(bundle.system.n, 1, bundle.builtin_gain)
        compiled = TestBuildOnce.count_compiles(monkeypatch)
        cfg = RunConfig(kind=kind, T=0.05, h=1e-2)
        assert run_closed_loop(bundle.system, bundle.metric, gain, bundle.reference,
                               cfg).completed
        [reference, plant] = compiled
        # no v1..vm: the first RK4 stage reads the law's u, the dynext v included
        assert re.search(r"\bv\d", reference + plant) is None
        for rhs in lines:  # in the reference pass alone
            assert len(re.findall(rf" = {re.escape(rhs)}$", reference, re.M)) == 1
            assert f" = {rhs}\n" not in plant
        blocks = self.blocks(reference) + self.blocks(plant)
        assert all(blocks)
        assigned = [rhs for block in blocks for rhs in block]
        assert len(set(assigned)) == len(assigned)


class TestSweepPasses:
    """A sweep runs the reference pass once and one plant pass per sample; each
    sample's trace equals the single run from its x0, float for float."""

    SWEEPS = {
        "static": lambda b: (b.system, b.metric, GainField.from_exprs(2, 1, [["-1", "-1"]]),
                             b.reference, RunConfig(kind="static", T=0.5, h=1e-2)),
        "dynext": lambda b: (b.system, b.metric, GainField.from_exprs(2, 1, b.builtin_gain),
                             b.reference, RunConfig(kind="dynext", T=0.5, h=1e-2, z0=np.zeros(2))),
        "geodesic": lambda b: (b.system, b.metric, GainField.from_exprs(2, 1, b.builtin_gain),
                               b.reference, RunConfig(kind="geodesic", T=0.2, h=2e-2)),
        "custom": lambda b: (b.system, b.metric, None, b.reference, RunConfig(
            kind="custom", T=0.5, h=1e-2, custom_u=["-x1 - 2*x2 + sin(t)*z1 - xd2"])),
    }

    @staticmethod
    def sweep_traces(monkeypatch, args, radii=(0.0, 0.5, 2.0), samples=2):
        """The sweep's result and the blocks of each of its samples."""
        runs = TestBuildOnce.spy_runs(monkeypatch)
        result = perturbation_sweep(*args, radii, samples, seed=11)
        monkeypatch.undo()
        assert len(runs) == len(radii) * samples
        return result, runs

    @staticmethod
    def assert_single_runs(runs, args):
        sys_, metric, gain, ref, cfg = args
        for blocks in runs:
            trace = joined(blocks)
            single = run_closed_loop(sys_, metric, gain, ref, replace(cfg, x0=trace.x[0]))
            assert (trace.flags, trace.completed) == (single.flags, single.completed)
            assert hex_columns(trace) == hex_columns(single)
        # no memory shared between the blocks of different samples
        arrays = [[a for block in blocks for a in (block.xd, block.ud)] for blocks in runs]
        assert not any(np.shares_memory(a, b) for i, mine in enumerate(arrays)
                       for theirs in arrays[i + 1 :] for a in mine for b in theirs)

    @pytest.mark.parametrize("kind", sorted(SWEEPS))
    def test_samples_equal_single_runs(self, numex, monkeypatch, kind):
        args = self.SWEEPS[kind](numex)
        result, runs = self.sweep_traces(monkeypatch, args)
        self.assert_single_runs(runs, args)
        hits = [blocks[-1].completed and blocks[-1].final_err() < args[4].err_threshold
                for blocks in runs]
        assert [fraction for _, fraction in result] == [
            (hits[i] + hits[i + 1]) / 2 for i in range(0, len(hits), 2)]

    @pytest.mark.parametrize("kind", sorted(SWEEPS))
    def test_passes_share_one_loop(self, numex, monkeypatch, kind):
        # both passes come from one template: the same control flow, line for line
        # up to each line's first parenthesis
        monkeypatch.setattr(sim, "_BUILT", [((), None)])  # a fresh build
        compiled = TestBuildOnce.count_compiles(monkeypatch)
        run_closed_loop(*self.SWEEPS[kind](numex))
        reference, plant = (re.findall(r"^ *(?:for|try|except|if|return)\b[^(\n]*", src, re.M)
                            for src in compiled)
        assert len(reference) == 16 and reference == plant

    @pytest.mark.parametrize("ud", ["0", "xd2", "sin(t)"])
    @pytest.mark.parametrize("kind", sorted(SWEEPS))
    def test_reference_puts_the_row_the_plant_reads(self, numex, monkeypatch, kind, ud):
        # one row layout: the names the reference pass puts per grid point are the
        # names the plant pass unpacks, whether u_d is a literal, a variable or a local
        sys_, metric, gain, ref, cfg = self.SWEEPS[kind](numex)
        ref = ReferenceSpec.from_strings(2, ref.xd0, [ud])
        monkeypatch.setattr(sim, "_BUILT", [((), None)])  # a fresh build
        compiled = TestBuildOnce.count_compiles(monkeypatch)
        run_closed_loop(sys_, metric, gain, ref, cfg)
        put = re.findall(r"^ *_put\(\((.*),\)\)$", compiled[0], re.M)[-1]  # after the step
        row = re.search(r"for _k, \((.*)\) in enumerate", compiled[1]).group(1)
        assert put.split(", ") == row.split(", ")

    def test_reference_pass_runs_once_per_sweep(self, numex, monkeypatch):
        sys_, metric, gain, ref, cfg = self.SWEEPS["static"](numex)
        passes = TestBuildOnce.spy_passes(monkeypatch)
        moved = ReferenceSpec(ref.xd0 + 0.25, ref.ud_exprs)
        for sweep_ref, sweep_cfg in ((ref, cfg), (moved, cfg), (ref, replace(cfg, h=2e-2))):
            perturbation_sweep(sys_, metric, gain, sweep_ref, sweep_cfg, [0.5, 1.0], 3)
        rows = passes["reference"]
        assert len(rows) == 3 and len(passes["plant"]) == 18  # one per sweep, none per sample
        assert rows[1][1] == rows[0][1] + 0.25  # xd1 at t = 0 of the moved reference
        assert len(rows[2]) < len(rows[0])  # half the grid points at twice the step

    @pytest.mark.parametrize("kind", sorted(SWEEPS))
    def test_sweep_over_several_blocks(self, numex, monkeypatch, kind):
        # blocks of 4 grid points: one reference pass per block for all samples, one
        # plant pass per block for each sample still running
        monkeypatch.setattr(sim, "CSV_BLOCK", 4)
        args = self.SWEEPS[kind](numex)
        passes, runs = TestBuildOnce.spy_passes(monkeypatch), TestBuildOnce.spy_runs(monkeypatch)
        result = perturbation_sweep(*args, (0.0, 0.5, 2.0), 2, seed=11)
        monkeypatch.undo()  # single runs in one block
        blocks = -(-len(time_grid(0.0, args[4].T, args[4].h)) // 4)
        assert len(passes["reference"]) == max(map(len, runs)) == blocks
        assert len(passes["plant"]) == sum(map(len, runs))
        self.assert_single_runs(runs, args)
        assert result == perturbation_sweep(*args, (0.0, 0.5, 2.0), 2, seed=11)

    @pytest.mark.parametrize("case", ["feedforward-reciprocal-time", "custom-reciprocal-time",
                                      "custom-sqrt", "custom-inf", "custom-nan",
                                      "custom-domain-error", "reference-divergence",
                                      "reference-non-finite", "reference-law-finite-u"])
    def test_reference_failures_match_single_runs(self, numex, monkeypatch, case):
        # u_d, a custom u over t alone, or the x_d step fails in the reference pass
        args = FAILURE_CASES[case](numex)
        _, runs = self.sweep_traces(monkeypatch, args)
        assert not any(blocks[-1].completed for blocks in runs)
        self.assert_single_runs(runs, args)

    def test_reference_error_wins_a_tie(self, numex):
        # at t = 0 from x1 = 0 both 1/x1 (plant) and sqrt(t - 1) (reference)
        # raise in the law block; the generated program meets 1/x1 first
        trace = run_closed_loop(numex.system, numex.metric, None, numex.reference, RunConfig(
            kind="custom", T=1.0, h=1e-2, x0=np.zeros(2), custom_u=["1/x1 + sqrt(t - 1)"]))
        assert trace.flags == ["controller failure at t=0: sqrt of negative value -1.0"]
        assert np.isnan(trace.u).all() and np.isnan(trace.ud).all()


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

    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_non_finite_radius_rejected(self, numex, numex_gain, radius):
        cfg = RunConfig(kind="dynext", T=1.0, h=5e-3)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            perturbation_sweep(numex.system, numex.metric, numex_gain,
                               numex.reference, cfg, [0.0, radius], samples=1)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_sample_count_below_one_rejected(self, numex, numex_gain, samples):
        cfg = RunConfig(kind="dynext", T=1.0, h=5e-3)
        with pytest.raises(ValueError, match="samples must be at least 1"):
            perturbation_sweep(numex.system, numex.metric, numex_gain,
                               numex.reference, cfg, [0.0], samples=samples)

    def test_linear_system_full_basin(self):
        sys = SystemModel(2, 1, ["x2", "-2*x1 - 3*x2"], [["0"], ["1"]],
                          [-50, -50], [50, 50])
        ref = ReferenceSpec.from_strings(2, [0.0, 0.0], ["0"])
        gain = GainField.from_exprs(2, 1, [["-1", "-1"]])
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


def whole_run_output(args):
    """What `ccmkit simulate` printed from one whole trace: the CSV of
    `run_closed_loop`, then the summary lines, and the exit code."""
    trace, cfg = run_closed_loop(*args), args[4]
    out = io.StringIO()
    trace.write_csv(out)
    lines = [f"final_err: {trace.final_err():.17g}"]
    try:
        lines.append(f"decay_rate: {decay_rate(trace, (cfg.T / 4, 3 * cfg.T / 4)):.6g}")
    except ValueError:
        lines.append("decay_rate: n/a")
    lines += [f"flag: {flag}" for flag in trace.flags] + [f"completed: {trace.completed}"]
    code = 3
    if trace.completed:
        passed = trace.final_err() < cfg.err_threshold
        lines.append(f"threshold_pass: {passed}")
        code = 0 if passed else 1
    return out.getvalue(), "".join(f"# {line}\n" for line in lines), code


def streamed_output(args):
    out, summary = io.StringIO(), io.StringIO()
    code = cli.write_simulation(*args, out, summary)
    return out.getvalue(), summary.getvalue(), code


def _scenario_a_start(bundle):
    """Scenario A's first 0.5 s, where x2 leaves the box for 32 samples from t = 0.241."""
    return (bundle.system, bundle.metric, GainField.from_exprs(2, 1, bundle.builtin_gain),
            bundle.reference, RunConfig(kind="dynext", T=0.5, h=1e-3, x0=np.array([-5.0, 2.0]),
                                        z0=np.zeros(2), ell=5.0))


class TestBlocks:
    """The closed loop runs in blocks of `sim.CSV_BLOCK` grid points, which
    `simulate` streams: its output equals the whole trace's, byte for byte,
    wherever a failure or a domain exit falls."""

    @staticmethod
    def check_sizes(args, rows, monkeypatch):
        """Streamed = whole at the default block size and with row `rows` the
        first row of a block and the last one."""
        want = whole_run_output(args)
        for size in sorted({max(rows, 1), rows + 1}):
            monkeypatch.setattr(sim, "CSV_BLOCK", size)
            assert whole_run_output(args) == want
            assert streamed_output(args) == want
        return want

    @pytest.mark.parametrize("case", sorted(FAILURE_CASES))
    def test_failure_on_a_block_edge(self, case, numex, monkeypatch):
        args = FAILURE_CASES[case](numex)
        k = len(run_closed_loop(*args).t) - 1  # the failing grid point
        _, summary, code = self.check_sizes(args, k, monkeypatch)
        assert code == 3 and "# completed: False\n" in summary

    @pytest.mark.parametrize("edge", ["first", "last"])
    def test_domain_exit_on_a_block_edge(self, numex, monkeypatch, edge):
        args = _scenario_a_start(numex)
        trace = run_closed_loop(*args)
        outside = np.flatnonzero(~numex.system.in_domain(trace.x))
        assert len(outside) == 32 and outside[-1] - outside[0] == 31
        _, summary, _ = self.check_sizes(args, outside[0 if edge == "first" else -1], monkeypatch)
        assert "# flag: plant left the domain box at t=0.241 (32 samples)\n" in summary

    @pytest.mark.parametrize("steps", [1023, 1024, 1025])
    def test_horizon_around_one_block(self, numex, steps):
        args = _scenario_a_start(numex)
        args = args[:4] + (replace(args[4], T=steps * 1e-3),)
        want = whole_run_output(args)
        assert want[0].count("\n") == steps + 2  # the header and every grid point
        assert streamed_output(args) == want

    def test_blocks_concatenate_to_the_time_grid(self, monkeypatch):
        # t0 + h k from each block's own first index, the last point T
        monkeypatch.setattr(sim, "CSV_BLOCK", 7)
        for T, h in ((1.0, 1e-2), (0.999, 1e-2), (5.0, 0.3), (1e-9, 1.0)):
            last = len(time_grid(0.0, T, h)) - 1
            parts = [time_grid(0.0, T, h, first, min(first + 7, last + 1))
                     for first in range(0, last + 1, 7)]
            assert np.concatenate(parts).tobytes() == time_grid(0.0, T, h).tobytes()

    def test_decay_fit_by_blocks_matches_whole_trace(self, scenario_a):
        trace, _ = scenario_a
        for window in ((5.0, 15.0), (0.0, 20.0), (0.3, 0.31)):
            whole = decay_rate(trace, window)
            fit = sim.DecayFit(window)
            for first in range(0, len(trace.t), 1000):
                fit.add(trace.t[first : first + 1000], trace.err[first : first + 1000])
            assert fit.rate() == pytest.approx(whole, rel=1e-12, abs=0.0)


_PARENT = os.getpid()


def _dies_in_worker(data):
    """`format_rows` here, but a worker process that calls it exits at once."""
    if os.getpid() != _PARENT:
        os._exit(1)
    return sim.format_rows(data)


class _FailingStream(io.StringIO):
    """A stream whose write number `fails` (from 1) raises ENOSPC."""

    def __init__(self, fails):
        super().__init__()
        self.writes, self.fails = 0, fails

    def write(self, text):
        self.writes += 1
        if self.writes == self.fails:
            raise OSError(28, "No space left on device")
        return super().write(text)


def _marks_in_worker(data):
    """`format_rows`, with a mark line first where a worker process calls it."""
    return ("# worker\n" if os.getpid() != _PARENT else "") + sim.format_rows(data)


class TestFormatWorker:
    """A run of `cli.FORK_BLOCKS` blocks or more formats each block's CSV in one
    forked worker while it computes the next: the output is the same bytes as a
    whole trace's, whether the worker runs, cannot start or dies, and no worker
    outlives the run."""

    @pytest.fixture
    def pools(self, monkeypatch):
        """The worker pools started, in order."""
        import concurrent.futures

        started = []

        class Counted(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                started.append(self)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
        return started

    @staticmethod
    def run_of(numex, blocks):
        """Scenario A for `blocks` blocks, the last one of 6 rows."""
        args = _scenario_a_start(numex)
        return args[:4] + (replace(args[4], T=((blocks - 1) * sim.CSV_BLOCK + 5) * 1e-3),)

    @pytest.mark.skipif(not cli._may_fork(), reason="needs fork and two CPUs")
    def test_worker_starts_at_fork_blocks(self, numex, pools):
        for blocks in (cli.FORK_BLOCKS - 1, cli.FORK_BLOCKS):
            args = self.run_of(numex, blocks)
            assert streamed_output(args) == whole_run_output(args)
        assert len(pools) == 1
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not cli._may_fork(), reason="needs fork and two CPUs")
    def test_worker_formats_every_block(self, numex, pools, monkeypatch):
        monkeypatch.setattr(cli, "FORK_BLOCKS", 2)
        monkeypatch.setattr(cli, "format_rows", _marks_in_worker)
        csv, _, _ = streamed_output(self.run_of(numex, 4))
        assert csv.startswith("t,x1,x2,xd1,xd2,z1,z2,u1,ud1,err\n# worker\n")
        assert csv.count("# worker\n") == 4

    @pytest.mark.skipif(not cli._may_fork(), reason="needs fork and two CPUs")
    def test_dead_worker_costs_no_output(self, numex, pools, monkeypatch):
        monkeypatch.setattr(cli, "FORK_BLOCKS", 2)
        monkeypatch.setattr(cli, "format_rows", _dies_in_worker)
        args = self.run_of(numex, 4)
        assert streamed_output(args) == whole_run_output(args)
        assert len(pools) == 1
        assert multiprocessing.active_children() == []

    def test_one_cpu_formats_in_process(self, numex, pools, monkeypatch):
        monkeypatch.setattr(cli, "FORK_BLOCKS", 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        args = self.run_of(numex, 4)
        assert streamed_output(args) == whole_run_output(args)
        assert pools == []

    def test_at_most_two_blocks_wait(self, numex):
        args = self.run_of(numex, 4)
        traces = [trace for _, trace in sim.closed_loop_blocks(*args, [args[4].x0])]
        out = io.StringIO()
        lines = [out.getvalue().count("\n") for _ in cli._written(out, traces, False)]
        rows = [len(trace.t) for trace in traces]
        assert lines == [1, 1, 1 + rows[0], 1 + rows[0] + rows[1]]
        assert out.getvalue().count("\n") == 1 + sum(rows)

    def test_no_affinity_call_formats_in_process(self, numex, pools, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert not cli._may_fork()
        args = self.run_of(numex, cli.FORK_BLOCKS)
        assert streamed_output(args) == whole_run_output(args)
        assert pools == []

    @pytest.mark.skipif(not cli._may_fork(), reason="needs fork and two CPUs")
    def test_failed_write_mid_run_joins_the_worker(self, numex, pools, monkeypatch):
        # the third write, block 1's, fails while block 2 is with the worker
        monkeypatch.setattr(cli, "FORK_BLOCKS", 2)
        out = _FailingStream(fails=3)
        with pytest.raises(OSError):
            cli.write_simulation(*self.run_of(numex, 5), out, io.StringIO())
        assert len(pools) == 1 and out.writes == 3
        assert multiprocessing.active_children() == []


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
                                 GainField.from_exprs(2, 1, [["-1", "-1"]]), ref, cfg)
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

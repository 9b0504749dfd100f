"""End-to-end acceptance checks for the toolkit.

Each test exercises one headline guarantee: certificate values on the
two builtin models, controller consistency, geodesic correctness,
closed-loop tracking scenarios with runtime bounds, and the supporting
numerical property suites.
"""

import math
import random
import time

import numpy as np
import pytest

from ccmkit import expr as ex
from ccmkit.certificates import (
    Grid,
    check_c1,
    check_dual_w,
    check_killing_pde,
    check_robust,
    contraction_quadratic,
)
from ccmkit.controller import (
    GainField,
    dynext_control,
    exactness_residual,
    static_exact_controller,
)
from ccmkit.geodesic import (
    path_integral_controller,
    riemann_energy,
    solve_geodesic,
)
from ccmkit.integrate import rk4_solve, rk45_integrate
from ccmkit.linalg import sym_eig
from ccmkit.model import MetricField
from ccmkit.sim import RunConfig, run_closed_loop

from test_geodesic import chord, lattice_shortest_path, valley_x2_metric

SQRT2 = math.sqrt(2.0)


def test_01_numex_certificate_suite(numex):
    start = time.perf_counter()
    grid = Grid.for_system(numex.system, 41)  # [-6,6]^2, 41 points per axis
    c1 = check_c1(numex.system, numex.metric, grid)
    killing = check_killing_pde(numex.system, numex.metric, grid)
    elapsed = time.perf_counter() - start
    assert c1.passed
    assert c1.certified_rate == pytest.approx(2.0 / 3.0, abs=1e-6)
    assert killing.passed
    assert killing.worst_margin <= 1e-12
    assert elapsed < 5.0


def test_02_primal_dual_discrimination(numex):
    grid = Grid.for_system(numex.system, 21)
    entries = [["3", "-1"], ["0", "2"]]
    as_primal = MetricField(2, entries, 1.0, 4.0, 0.0, role="primal")
    report = check_c1(numex.system, as_primal, grid)
    assert not report.passed
    # restricted quadratic form is positive at every grid point
    assert report.margins_min > 0.0
    assert report.margins_min == pytest.approx(1.0, abs=1e-9)

    as_dual = MetricField(2, entries, 1.0, 4.0, 0.0, role="dual")
    report = check_dual_w(numex.system, as_dual, grid)
    assert report.passed
    assert report.worst_margin == pytest.approx(-2.0, abs=1e-9)


def test_03_microactuator_certificate(micro):
    grid = Grid.for_system(micro.system, 11)
    report = check_c1(micro.system, micro.metric, grid)
    assert report.passed
    assert report.certified_rate == pytest.approx(2.0 - SQRT2, abs=1e-9)
    # the input annihilator is span(e1, e2), so the restricted matrix is
    # the top-left block of the contraction form at every grid point
    expected = np.array([[-2.0, -4.0], [-4.0, -10.0]])
    eigs_expected = np.array([-6.0 - 4.0 * SQRT2, -6.0 + 4.0 * SQRT2])
    for x in grid.array():
        q_x, _ = contraction_quadratic(micro.system, micro.metric, x)
        reduced = q_x[:2, :2]
        assert np.max(np.abs(reduced - expected)) <= 1e-9
        eigs, _ = sym_eig(reduced)
        assert np.max(np.abs(eigs - eigs_expected)) <= 1e-9


def test_04_exactness_residuals(numex_gain):
    grid = Grid([-2.0, -2.0], [2.0, 2.0], (21, 21))
    worst, witness = exactness_residual(numex_gain, grid)
    assert worst == pytest.approx(4.0, abs=1e-6)
    # residual is 2|x2| pointwise: spot-check interior magnitudes
    half = Grid([-2.0, -1.0], [2.0, 1.0], (5, 5))
    inner, _ = exactness_residual(numex_gain, half)
    assert inner == pytest.approx(2.0, abs=1e-6)
    for constant in ([["1", "2"]], [["0", "0"]], [["-3.5", "7.25"]]):
        residual, _ = exactness_residual(GainField.from_exprs(2, 1, constant), grid)
        assert residual <= 1e-12


def test_05_invariance_all_controllers(numex, micro, numex_gain,
                                       micro_gain):
    cases = [
        (numex, "dynext", numex_gain),
        (numex, "geodesic", numex_gain),
        (numex, "static", GainField.from_exprs(2, 1, [["-1", "-1"]])),
        (micro, "dynext", micro_gain),
        (micro, "geodesic", micro_gain),
        (micro, "static", micro_gain),
    ]
    for bundle, kind, gain in cases:
        cfg = RunConfig(kind=kind, T=20.0, h=1e-3,
                        x0=np.asarray(bundle.reference.xd0, dtype=float),
                        ell=5.0)
        trace = run_closed_loop(bundle.system, bundle.metric, gain,
                                bundle.reference, cfg)
        assert trace.completed, (bundle.system.name, kind)
        assert np.max(trace.err) <= 1e-8, (bundle.system.name, kind)


def test_06_planar_tracking_scenario(numex, numex_gain, scenario_a):
    trace, elapsed = scenario_a
    assert elapsed < 10.0
    assert trace.completed
    assert trace.final_err() < 1e-2

    # observer gap contracts at exactly the injection rate ell = 5
    mask = (trace.t >= 0.2) & (trace.t <= 1.5)
    gaps = np.linalg.norm(trace.z[mask] - trace.x[mask], axis=1)
    slope, _ = np.polyfit(trace.t[mask], -np.log(gaps), 1)
    assert abs(slope - 5.0) <= 0.02 * 5.0

    # adaptive high-accuracy integration of the same closed loop agrees
    from ccmkit.controller import dynext_beta

    sys, ref = numex.system, numex.reference

    def rhs(t, y):
        x, xd, z = y[:2], y[2:4], y[4:]
        ud = ref.eval_ud(t, xd)
        u = (ud + dynext_beta(numex_gain, x, z)
             - dynext_beta(numex_gain, xd, z))
        fx = sys.eval_f(x) + sys.eval_b(x) @ u
        fxd = sys.eval_f(xd) + sys.eval_b(xd) @ ud
        return np.concatenate([fx, fxd, fx - 5.0 * (z - x)])

    y0 = np.concatenate([[-5.0, 2.0], np.asarray(ref.xd0), [0.0, 0.0]])
    _, states = rk45_integrate(rhs, y0, (0.0, 20.0), rel_tol=1e-10,
                               abs_tol=1e-12, t_eval=np.array([0.0, 20.0]))
    oracle_err = float(np.linalg.norm(states[-1, :2] - states[-1, 2:4]))
    assert abs(trace.final_err() - oracle_err) <= 1e-4


def test_07_microactuator_tracking_scenario(micro, micro_gain, scenario_b):
    trace, elapsed = scenario_b
    assert elapsed < 10.0
    assert trace.completed
    assert trace.final_err() < 1e-2

    cfg = RunConfig(kind="static", T=30.0, h=2e-3,
                    x0=np.array([1.5, 1.0, 2.0]))
    halved = run_closed_loop(micro.system, micro.metric, micro_gain,
                             micro.reference, cfg)
    rel = abs(halved.final_err() - trace.final_err()) / trace.final_err()
    assert rel < 1e-4


def test_08_geodesic_correctness(numex):
    # constant metric: straight nodes, exact distance
    a, b = np.zeros(2), np.array([1.0, 2.0])
    path = solve_geodesic(numex.metric, a, b, 32)
    straight = chord(a, b, 32)
    assert np.max(np.abs(path.nodes - straight)) <= 1e-9
    delta = b - a
    exact = math.sqrt(delta @ numex.metric.eval(a) @ delta)
    assert abs(path.length() - exact) <= 1e-10

    # curved metric: within 2% of a fine-lattice shortest path, with
    # monotonically non-increasing energy per optimizer iteration
    metric = valley_x2_metric()
    a, b = np.array([-1.0, 0.5]), np.array([1.0, 0.5])
    energies = []
    path = solve_geodesic(metric, a, b, 32,
                          on_iteration=lambda i, e: energies.append(e))
    assert path.converged
    assert all(e1 >= e2 for e1, e2 in zip(energies, energies[1:]))
    assert path.energy < riemann_energy(metric, chord(a, b, 32))
    xs = np.linspace(-1.2, 1.2, 121)
    ys = np.linspace(-0.3, 1.3, 81)
    oracle = lattice_shortest_path(metric, xs, ys, a, b)
    assert abs(path.length() - oracle) / oracle <= 0.02


def test_09_controller_cross_consistency(numex, micro_gain, scenario_a):
    # exact gain: potential-difference and path-integral feedback agree
    # at every sampled state of a full closed-loop run
    trace, _ = scenario_a
    gain = GainField.from_exprs(2, 1, [["-x1", "-x2^3"]])
    residual, _ = exactness_residual(gain, Grid([-6, -6], [6, 6], (9, 9)))
    assert residual <= 1e-12
    for k in range(0, len(trace.t), 200):
        x, xd, ud = trace.x[k], trace.xd[k], trace.ud[k]
        u_static = static_exact_controller(gain, x, xd, ud, residual=residual)
        u_geo = ud + path_integral_controller(gain, numex.metric, x, xd, n_segments=1024)
        assert abs(u_static[0] - u_geo[0]) <= 1e-4

    # constant gain: dynamic-extension law collapses to the static law
    rng = np.random.default_rng(90)
    for _ in range(20):
        x = rng.uniform(-2, 2, size=3)
        xd = rng.uniform(-2, 2, size=3)
        z = rng.uniform(-2, 2, size=3)
        ud = rng.uniform(-1, 1, size=1)
        u_dyn = dynext_control(micro_gain, z, x, xd, ud)
        u_static = static_exact_controller(micro_gain, x, xd, ud)
        assert np.max(np.abs(u_dyn - u_static)) <= 1e-10


def test_10_property_suites(numex):
    # symbolic derivatives vs central differences
    rng = random.Random(101)
    h = 1e-6
    for text in ["(1/3)*x2^3 + x2", "-(x2^2+1)", "sin(x1)*x2^2",
                 "sqrt(x1^2+1)", "abs(x2)*x1"]:
        e = ex.parse(text, ["x1", "x2"])
        for name in ("x1", "x2"):
            d = ex.differentiate(e, name)
            for _ in range(5):
                env = {"x1": rng.uniform(0.2, 2.0),
                       "x2": rng.uniform(0.2, 2.0)}
                hi, lo = dict(env), dict(env)
                hi[name] += h
                lo[name] -= h
                fd = (ex.evaluate(e, hi) - ex.evaluate(e, lo)) / (2 * h)
                assert ex.evaluate(d, env) == pytest.approx(fd, rel=1e-5,
                                                            abs=1e-5)

    # eigenvalue identities
    nprng = np.random.default_rng(102)
    for n in range(2, 7):
        a = nprng.standard_normal((n, n))
        a = a + a.T
        w, _ = sym_eig(a)
        assert np.sum(w) == pytest.approx(np.trace(a), rel=1e-8, abs=1e-8)
        assert np.prod(w) == pytest.approx(np.linalg.det(a), rel=1e-8,
                                           abs=1e-8)

    # fixed-step integrator shows fourth-order convergence
    def error_at(step):
        _, states = rk4_solve(lambda t, x: [-v for v in x], np.array([1.0]), 0.0, 2.0, step)
        return abs(states[-1, 0] - math.exp(-2.0))

    factor = error_at(0.1) / error_at(0.05)
    assert 12.0 <= factor <= 20.0

    # robust block condition: generous gamma0 passes, vanishing fails
    grid = Grid.for_system(numex.system, 7)
    big = 1e3 * numex.metric.p_hi ** 2
    assert check_robust(numex.system, numex.metric, grid, lam=0.1,
                        gamma0=big).passed
    assert not check_robust(numex.system, numex.metric, grid, lam=0.1,
                            gamma0=1e-8).passed

"""Discrete geodesic solver, distances, and the path-integral controller."""

import heapq
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from ccmkit import geodesic
from ccmkit.config import load_config
from ccmkit.controller import GainField, radial_potential
from ccmkit.geodesic import (
    MAX_SEGMENTS,
    _gradient_and_hessian,
    _kernel,
    _newton,
    geodesic_distance,
    path_integral_controller,
    riemann_energy,
    solve_geodesic,
)
from ccmkit.model import MetricField

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def identity_metric():
    return MetricField(2, [["1", "0"], ["0", "1"]], 1.0, 1.0, 0.0)


def valley_x1_metric():
    # second direction gets cheap as |x1| grows; x1 distance stays flat
    return MetricField(2, [["1", "0"], ["0", "1/(1+x1^2)^2"]], 0.03, 1.0, 0.0)


def valley_x2_metric():
    # first direction gets cheap as |x2| grows, so paths bow in x2
    return MetricField(2, [["1/(1+x2^2)^2", "0"], ["0", "1"]], 0.05, 1.0, 0.0)


def coupled_3d_metric():
    # state-dependent off-diagonal entries; positive definite near the paths below
    return MetricField(3, [["2 + x2^2", "x1*x3/4", "sin(x2)/5"],
                           ["0", "1 + x3^2", "x1/4"],
                           ["0", "0", "3 + cos(x1)"]], 0.5, 5.0, 0.0)


def demo_metric():
    return load_config(str(CONFIGS / "geodesic_demo.ini")).metric


def twin_valley_3d_metric():
    # diag(w, 1, 1), w even in x2 and x3 and cheapest off the x1 axis along
    # x3: from (-2, 0, 0) to (2, 0, 0) the chord is a saddle in both x2 and x3
    return MetricField(3, [["1/(1 + x2^2 + 2*x3^2)^2", "0", "0"], ["0", "1", "0"],
                           ["0", "0", "1"]], 0.05, 1.0, 0.0)


def saddle_3d_metric():
    # diag(w, 1, 1) with w even in x2 and x3 and varying in x1
    return MetricField(3, [["(1 + x1^2/4)/(1 + x2^2 + 3*x3^2)^2", "0", "0"], ["0", "1", "0"],
                           ["0", "0", "1"]], 0.05, 3.0, 0.0)


def chord(x_a, x_b, n_segments):
    fr = np.linspace(0.0, 1.0, n_segments + 1)[:, None]
    return (1.0 - fr) * np.asarray(x_a) + fr * np.asarray(x_b)


def lattice_shortest_path(metric, xs, ys, x_a, x_b, reach=3):
    """Dijkstra on a lattice graph with edge lengths from the midpoint
    metric. Both endpoints must lie exactly on the lattice: snapping
    them shortens/stretches the problem and corrupts the reference.
    The lengths of all edges along one offset come from one stacked
    `metric.eval` before the search."""
    ia, ja = np.argmin(np.abs(xs - x_a[0])), np.argmin(np.abs(ys - x_a[1]))
    ib, jb = np.argmin(np.abs(xs - x_b[0])), np.argmin(np.abs(ys - x_b[1]))
    assert abs(xs[ia] - x_a[0]) < 1e-12 and abs(ys[ja] - x_a[1]) < 1e-12
    assert abs(xs[ib] - x_b[0]) < 1e-12 and abs(ys[jb] - x_b[1]) < 1e-12
    offsets = [
        (di, dj)
        for di in range(-reach, reach + 1)
        for dj in range(-reach, reach + 1)
        if (di, dj) != (0, 0) and math.gcd(abs(di), abs(dj)) == 1
    ]
    nx, ny = len(xs), len(ys)
    lattice = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1)
    lengths = {}  # offset -> [i][j] length of the edge from (i, j), inf off the lattice
    for di, dj in offsets:
        start = (slice(max(0, -di), nx - max(0, di)), slice(max(0, -dj), ny - max(0, dj)))
        end = (slice(max(0, di), nx + min(0, di)), slice(max(0, dj), ny + min(0, dj)))
        p, q = lattice[start], lattice[end]
        delta = q - p
        m_mid = metric.eval((0.5 * (p + q)).reshape(-1, 2)).reshape(p.shape + (2,))
        length = np.full((nx, ny), math.inf)
        length[start] = np.sqrt(np.einsum("...i,...ij,...j->...", delta, m_mid, delta))
        lengths[di, dj] = length.tolist()

    dist = {(ia, ja): 0.0}
    queue = [(0.0, (ia, ja))]
    while queue:
        d, (i, j) = heapq.heappop(queue)
        if (i, j) == (ib, jb):
            return d
        if d > dist.get((i, j), math.inf):
            continue
        for di, dj in offsets:
            ni, nj = i + di, j + dj
            if 0 <= ni < nx and 0 <= nj < ny:
                nd = d + lengths[di, dj][i][j]
                if nd < dist.get((ni, nj), math.inf):
                    dist[(ni, nj)] = nd
                    heapq.heappush(queue, (nd, (ni, nj)))
    raise AssertionError("lattice search exhausted without reaching the goal")


class TestEnergy:
    def test_euclidean_chord(self):
        for n_seg in (2, 8, 32):
            e = riemann_energy(identity_metric(), chord([0, 0], [3, 4], n_seg))
            assert e == pytest.approx(25.0, abs=1e-12)

    def test_constant_metric_value(self, numex):
        e = riemann_energy(numex.metric, chord([0, 0], [1, 0], 16))
        assert e == pytest.approx(0.4, abs=1e-14)

    def test_too_few_nodes(self):
        with pytest.raises(ValueError):
            riemann_energy(identity_metric(), np.array([[0.0, 0.0]]))


class TestSolve:
    def test_constant_metric_exact(self, numex):
        path = solve_geodesic(numex.metric, np.zeros(2), np.array([1.0, 2.0]), 16)
        assert path.converged and path.iterations == 0
        assert np.allclose(path.nodes, chord([0, 0], [1, 2], 16), atol=1e-15)
        delta = np.array([1.0, 2.0])
        assert path.energy == pytest.approx(
            delta @ numex.metric.eval(np.zeros(2)) @ delta, abs=1e-14
        )

    def test_euclidean_distance(self):
        d = geodesic_distance(identity_metric(), np.zeros(2), np.array([3.0, 4.0]))
        assert d == pytest.approx(5.0, abs=1e-10)

    def test_segment_count_guard(self):
        with pytest.raises(ValueError):
            solve_geodesic(identity_metric(), np.zeros(2), np.ones(2), 1)
        with pytest.raises(ValueError):  # rejected before the dense Hessian
            solve_geodesic(identity_metric(), np.zeros(2), np.ones(2), MAX_SEGMENTS + 1)

    def test_flat_valley_chord_is_minimal(self):
        # x1-cost is identically 1, so any bow only adds x2-cost and the
        # straight chord is globally minimal despite the curved metric
        metric = valley_x1_metric()
        a, b = np.array([-1.0, 0.5]), np.array([1.0, 0.5])
        path = solve_geodesic(metric, a, b, 32)
        assert path.converged
        assert path.length() == pytest.approx(2.0, abs=1e-9)
        assert np.max(np.abs(path.nodes[:, 1] - 0.5)) <= 1e-9
        xs = np.linspace(-1.2, 1.2, 121)
        ys = np.linspace(-0.3, 1.3, 81)
        oracle = lattice_shortest_path(metric, xs, ys, a, b)
        assert oracle == pytest.approx(2.0, abs=1e-12)

    def test_bowed_valley_matches_lattice_oracle(self):
        metric = valley_x2_metric()
        a, b = np.array([-1.0, 0.5]), np.array([1.0, 0.5])
        energies = []
        path = solve_geodesic(metric, a, b, 32,
                              on_iteration=lambda i, e: energies.append(e))
        assert path.converged
        straight = riemann_energy(metric, chord(a, b, 32))
        assert straight == pytest.approx(2.56, abs=1e-12)
        assert path.energy < straight - 0.1
        assert 0.6 <= np.max(path.nodes[:, 1]) <= 0.9  # genuinely bows
        assert all(e1 >= e2 for e1, e2 in zip(energies, energies[1:]))
        xs = np.linspace(-1.2, 1.2, 121)
        ys = np.linspace(-0.3, 1.3, 81)
        oracle = lattice_shortest_path(metric, xs, ys, a, b)
        assert abs(path.length() - oracle) / oracle <= 0.02

    def test_reversal_symmetry(self):
        metric = valley_x2_metric()
        a, b = np.array([-1.0, 0.5]), np.array([1.0, 0.5])
        fwd = solve_geodesic(metric, a, b, 32)
        rev = solve_geodesic(metric, b, a, 32)
        assert fwd.energy == pytest.approx(rev.energy, rel=1e-8)
        assert np.allclose(fwd.nodes, rev.nodes[::-1], atol=1e-5)

    def test_refinement_stability(self):
        metric = valley_x2_metric()
        a, b = np.array([-1.0, 0.5]), np.array([1.0, 0.5])
        coarse = solve_geodesic(metric, a, b, 32)
        fine = solve_geodesic(metric, a, b, 64)
        assert coarse.converged and fine.converged
        assert abs(coarse.length() - fine.length()) <= 0.01 * fine.length()

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 4.0])
    def test_metric_scale_does_not_stall_the_descent(self, c):
        # largest eigenvalue of M along the path near 2, 4 or 8 for c = 0.5,
        # 1, 2: a descent scaled by M^-1 at one point ran out of iterations
        metric = MetricField(3, [[f"{c}*(2 + x2^2)", f"{c}*x1*x3/4", f"{c}*sin(x2)/5"],
                                 ["0", f"{c}*(1 + x3^2)", f"{c}*x1/4"],
                                 ["0", "0", f"{c}*(3 + cos(x1))"]], 0.5 * c, 5.0 * c, 0.0)
        path = solve_geodesic(metric, np.array([-1.0, 0.5, 0.2]), np.array([1.0, -0.3, 0.4]), 16)
        assert path.converged and path.iterations <= 30

    def test_iteration_cap_flags_nonconvergence(self, monkeypatch):
        monkeypatch.setattr(geodesic, "MAX_ITERS", 1)
        metric = valley_x2_metric()
        path = solve_geodesic(metric, np.array([-1.0, 0.5]),
                              np.array([1.0, 0.5]), 32)
        assert not path.converged

    def test_tangents_telescope(self):
        metric = valley_x2_metric()
        a, b = np.array([-1.0, 0.5]), np.array([1.0, 0.5])
        path = solve_geodesic(metric, a, b, 32)
        assert np.allclose(path.tangents().sum(axis=0), b - a, atol=1e-12)

    @pytest.mark.parametrize("far", [1e200, 1e308])
    @pytest.mark.parametrize("curved", [False, True], ids=["numex", "demo"])
    def test_non_finite_energy_raises(self, numex, curved, far):
        # the chord 2e200 squares past the float range; 2e308 is out of it itself
        metric = demo_metric() if curved else numex.metric
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(geodesic.GeodesicError, match="not finite"):
                solve_geodesic(metric, np.array([far, 0.0]), np.array([-far, 0.0]), 32)


class TestSaddleEscape:
    """diag(m, 1) with m even in x2 and varying in x1: from the chord
    (-2, 0) -> (2, 0) the gradient has no x2 component, so only the
    Hessian's negative curvature leaves the line x2 = 0, a saddle."""

    A, B = np.array([-2.0, 0.0]), np.array([2.0, 0.0])
    WEIGHTS_ALL = ("(1 + x1^2/4)/(1 + x2^2)^2", "(2 + sin(x1))/(1 + x2^2)^2")
    WEIGHTS = pytest.mark.parametrize("weight", WEIGHTS_ALL, ids=["quadratic", "sine"])

    @staticmethod
    def metric(weight):
        return MetricField(2, [[weight, "0"], ["0", "1"]], 0.05, 3.0, 0.0)

    @WEIGHTS
    def test_escape_matches_lattice_oracle(self, weight):
        metric = self.metric(weight)
        path = solve_geodesic(metric, self.A, self.B, 32)
        assert path.converged
        assert np.max(np.abs(path.nodes[:, 1])) >= 1.0
        xs = np.linspace(-2.4, 2.4, 121)
        ys = np.linspace(-1.6, 1.6, 81)
        oracle = lattice_shortest_path(metric, xs, ys, self.A, self.B)
        assert abs(path.length() - oracle) / oracle <= 0.02


def saddle_quadratic():
    return TestSaddleEscape.metric(TestSaddleEscape.WEIGHTS_ALL[0])


def saddle_sine():
    return TestSaddleEscape.metric(TestSaddleEscape.WEIGHTS_ALL[1])


def hessian_by_differences(metric, nodes, h=1e-6):
    """Oracle: the energy Hessian w.r.t. the interior nodes, by central
    differences of `looped_gradient`."""
    size = (nodes.shape[0] - 2) * nodes.shape[1]
    columns = []
    for k in range(size):
        up, down = nodes.copy(), nodes.copy()
        up[1:-1].reshape(-1)[k] += h
        down[1:-1].reshape(-1)[k] -= h
        columns.append((looped_gradient(metric, up) - looped_gradient(metric, down)).ravel() / (2 * h))
    return np.array(columns).T


def assert_strict_minimum(metric, path):
    """The largest node gradient is at most GRAD_TOL max |M_ij| (M at the
    chord midpoint) and the Hessian, by central differences, is positive
    definite."""
    tol = geodesic.GRAD_TOL * np.abs(metric.eval(0.5 * (path.nodes[0] + path.nodes[-1]))).max()
    assert np.linalg.norm(looped_gradient(metric, path.nodes), axis=1).max() <= tol
    hess = hessian_by_differences(metric, path.nodes)
    assert np.linalg.eigvalsh(0.5 * (hess + hess.T)).min() > 0.0


class TestScreenedEscape:
    """The cases the screened saddle escape (2n half-sine bumps after a
    gradient descent) was checked on; `PARENT` is the energy at N = 32 that
    a sequential escape, one bump at a time, converged to. The Newton solve
    reaches a strict local minimum no higher."""

    CASES = pytest.mark.parametrize("make, x_a, x_b", [
        (demo_metric, (-1.0, 0.5), (1.0, 0.5)),  # the config's run line: a minimum
        (demo_metric, (-2.0, 0.0), (2.0, 0.0)),  # a stationary chord
        (saddle_quadratic, (-2.0, 0.0), (2.0, 0.0)),
        (saddle_sine, (-2.0, 0.0), (2.0, 0.0)),
        (valley_x1_metric, (-1.0, -0.5), (1.0, 0.5)),
        (coupled_3d_metric, (-1.0, 0.5, 0.2), (1.0, -0.3, 0.4)),
        (twin_valley_3d_metric, (-2.0, 0.0, 0.0), (2.0, 0.0, 0.0)),  # a saddle in x2 and x3
    ], ids=["run-line", "stationary-chord", "saddle-quadratic", "saddle-sine",
            "valley-x1", "coupled-3d", "twin-valley-3d"])
    PARENT = {"run-line": 2.226200698841085, "stationary-chord": 11.666410892338435,
              "saddle-quadratic": 13.583440437410523, "saddle-sine": 16.488277869043237,
              "valley-x1": 4.53233671018376, "coupled-3d": 9.053055613727999,
              "twin-valley-3d": 8.409030762488541}
    # lattices for the 2-D cases, each with both ends on it
    LATTICES = {(-1.0, 0.5): (np.linspace(-1.2, 1.2, 121), np.linspace(-0.3, 1.3, 81)),
                (-2.0, 0.0): (np.linspace(-2.4, 2.4, 121), np.linspace(-1.6, 1.6, 81)),
                (-1.0, -0.5): (np.linspace(-1.2, 1.2, 121), np.linspace(-1.3, 1.3, 131))}

    @CASES
    def test_matches_sequential_oracle(self, request, make, x_a, x_b):
        metric = make()
        path = solve_geodesic(metric, np.array(x_a), np.array(x_b), 32)
        assert path.converged
        assert path.energy <= self.PARENT[request.node.callspec.id] * (1.0 + 1e-12)
        if metric.n == 2:
            xs, ys = self.LATTICES[x_a]
            oracle = lattice_shortest_path(metric, xs, ys, np.array(x_a), np.array(x_b))
            assert abs(path.length() - oracle) / oracle <= 0.02

    @CASES
    def test_iterations_count_every_descent(self, make, x_a, x_b):
        steps = []
        path = solve_geodesic(make(), np.array(x_a), np.array(x_b), 32,
                              on_iteration=lambda i, e: steps.append(i))
        assert steps == list(range(1, path.iterations + 1))
        assert path.iterations <= geodesic.MAX_ITERS

    @pytest.mark.parametrize("make, cap", [
        (demo_metric, 5), (saddle_quadratic, 4), (saddle_sine, 5),
    ], ids=["demo", "quadratic", "sine"])
    def test_iteration_budget_holds_in_all(self, monkeypatch, make, cap):
        # the stationary chord converges in 9, 8 and 10 Newton steps: cut at
        # the cap, the solve runs exactly MAX_ITERS steps and says it did not
        # converge
        monkeypatch.setattr(geodesic, "MAX_ITERS", cap)
        path = solve_geodesic(make(), TestSaddleEscape.A, TestSaddleEscape.B, 32)
        assert path.iterations == cap
        assert not path.converged


class TestSecondOrderStop:
    """A solve converges only at a largest node gradient of at most GRAD_TOL
    max |M_ij| (M at the chord midpoint) with a positive-definite Hessian.
    The two 3-D saddles below once ended unconverged after MAX_ITERS, or
    converged on a small energy decrease with a largest node gradient of
    8e-6."""

    A, B = np.array([-2.0, 0.0, 0.0]), np.array([2.0, 0.0, 0.0])

    def test_plain_3d_saddle_converges(self):
        metric = saddle_3d_metric()
        path = solve_geodesic(metric, self.A, self.B, 32)
        assert path.converged and path.iterations <= 20
        assert path.energy <= 7.689460505857586
        assert np.max(np.abs(path.nodes[:, 1:])) >= 0.5  # left the chord line
        assert_strict_minimum(metric, path)

    def test_twin_valley_converges_to_the_gradient_tolerance(self):
        metric = twin_valley_3d_metric()
        path = solve_geodesic(metric, self.A, self.B, 32)
        assert path.converged
        assert path.energy <= 8.409030762488541
        assert_strict_minimum(metric, path)

    @pytest.mark.parametrize("n_segments", [16, 32, 64, 128])
    def test_newton_steps_do_not_grow_with_the_mesh(self, n_segments):
        path = solve_geodesic(demo_metric(), np.array([-1.0, 0.5]), np.array([1.0, 0.5]),
                              n_segments)
        assert path.converged and path.iterations <= 6

    @pytest.mark.parametrize("scale", [1e-6, 1e6, 1e9])
    def test_stop_follows_the_metric_scale(self, scale):
        # c M has the geodesics of M and c times its energy; with an absolute
        # gradient tolerance these stopped short of the minimum after 2 steps
        # (c = 1e-6), took 5 (c = 1e6) or ran all MAX_ITERS unconverged (c = 1e9)
        scaled = MetricField(2, [[f"{scale!r}/(1+x2^2)^2", "0"], ["0", repr(scale)]],
                             0.01 * scale, scale, 0.0)
        a, b = np.array([-1.0, 0.5]), np.array([1.0, 0.5])
        want = solve_geodesic(demo_metric(), a, b, 32)
        path = solve_geodesic(scaled, a, b, 32)
        assert path.converged and path.iterations == want.iterations == 4
        assert path.energy / scale == pytest.approx(want.energy, rel=1e-12)
        assert_strict_minimum(scaled, path)

    def test_endpoints_1e_9_apart_converge_at_the_chord(self):
        a = np.array([0.3, 0.5])
        path = solve_geodesic(demo_metric(), a, a + np.array([1e-9, -1e-9]), 32)
        assert path.converged and path.iterations == 0

    def test_negative_curvature_step_needs_no_eigenvectors(self, monkeypatch):
        # lambda_min comes from eigvalsh and its eigenvector from inverse
        # iteration, so with eigh unavailable the stationary chord and the
        # plain 3-D saddle still reach their minima
        def no_eigh(*args, **kwargs):
            raise AssertionError("np.linalg.eigh called")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        path = solve_geodesic(demo_metric(), TestSaddleEscape.A, TestSaddleEscape.B, 32)
        assert path.converged and path.iterations == 9
        assert path.energy == pytest.approx(11.666410892336033, rel=1e-12)
        path = solve_geodesic(saddle_3d_metric(), self.A, self.B, 32)
        assert path.converged and path.iterations == 9
        assert path.energy == pytest.approx(7.689460505715175, rel=1e-12)

    def test_singular_shifted_hessian_raises(self, monkeypatch):
        # a zero Hessian fails its Cholesky and makes every shifted system
        # singular: a GeodesicError, not numpy's LinAlgError
        def zero_hessian(kernel, dim):
            size = (len(kernel) - 1) * dim
            return np.ones((len(kernel) - 1, dim)), np.zeros((size, size))

        monkeypatch.setattr(geodesic, "_gradient_and_hessian", zero_hessian)
        with pytest.raises(geodesic.GeodesicError, match="singular"):
            solve_geodesic(demo_metric(), TestSaddleEscape.A, TestSaddleEscape.B, 32)

    def test_saddle_is_not_converged(self, monkeypatch):
        # the stationary chord of the config's metric has a zero gradient and
        # an indefinite Hessian: cut before any step, it is not a minimum
        monkeypatch.setattr(geodesic, "MAX_ITERS", 0)
        path = solve_geodesic(demo_metric(), TestSaddleEscape.A, TestSaddleEscape.B, 32)
        assert path.iterations == 0 and not path.converged
        grad, hess = _gradient_and_hessian(_kernel(demo_metric(), path.nodes)[0], 2)
        assert np.abs(grad).max() <= geodesic.GRAD_TOL
        assert np.linalg.eigvalsh(hess).min() < 0.0


class TestPathIntegralController:
    def test_constant_gain_closed_form(self, micro_gain):
        metric = MetricField(
            3,
            [["1", "1", "0"], ["0", "3", "0"], ["0", "0", "1"]],
            0.1, 4.0, 0.0,
        )
        x = np.array([1.0, 0.5, 2.0])
        x_d = np.array([1.0, 0.5, 0.5])
        u = 0.25 + path_integral_controller(micro_gain, metric, x, x_d)
        assert u[0] == pytest.approx(0.25 - 2.0 * 1.5, abs=1e-13)

    def test_invariance_on_reference(self, numex, numex_gain):
        x_d = np.array([0.7, -0.4])
        u = 1.5 + path_integral_controller(numex_gain, numex.metric, x_d, x_d)
        assert u[0] == pytest.approx(1.5, abs=1e-13)

    def test_exact_gain_path_independence(self, numex):
        # for a curl-free gain the line integral equals the potential
        # difference; midpoint sums converge to it at second order
        gain = GainField.from_exprs(2, 1, [["-x1", "-x2^3"]])
        x = np.array([1.0, 1.5])
        x_d = np.array([-0.5, 0.25])
        want = radial_potential(gain, x) - radial_potential(gain, x_d)

        def err(n_segments):
            u = path_integral_controller(gain, numex.metric, x, x_d, n_segments=n_segments)
            return abs(u[0] - want[0])

        assert err(1024) <= 1e-6
        assert err(64) <= 0.35 * err(32) + 1e-14  # ~4x per doubling


def looped_energy(metric, nodes):
    """Oracle: the discrete energy summed one segment at a time."""
    n_seg = nodes.shape[0] - 1
    total = 0.0
    for k in range(n_seg):
        delta = nodes[k + 1] - nodes[k]
        total += float(delta @ metric.eval(0.5 * (nodes[k + 1] + nodes[k])) @ delta)
    return n_seg * total


def looped_gradient(metric, nodes):
    """Oracle: the energy gradient built one interior node at a time."""
    n_seg = nodes.shape[0] - 1
    deltas = np.diff(nodes, axis=0)
    mids = 0.5 * (nodes[1:] + nodes[:-1])
    grad = np.zeros((n_seg - 1, nodes.shape[1]))
    for j in range(1, n_seg):
        g = 2.0 * (metric.eval(mids[j - 1]) @ deltas[j - 1]) - 2.0 * (metric.eval(mids[j]) @ deltas[j])
        for i in range(nodes.shape[1]):
            g[i] += 0.5 * float(deltas[j - 1] @ metric.partial(mids[j - 1], i) @ deltas[j - 1])
            g[i] += 0.5 * float(deltas[j] @ metric.partial(mids[j], i) @ deltas[j])
        grad[j - 1] = n_seg * g
    return grad


def energy_terms(metric, nodes):
    """The energy, its gradient and its Hessian from one kernel call."""
    kernel, energy = _kernel(metric, nodes)
    return (energy, *_gradient_and_hessian(kernel, metric.n))


def spy_kernel(monkeypatch):
    """Records the segment count of every kernel call."""
    rows, kernel = [], MetricField.segment

    def segment(self, x, d):
        rows.append(len(x))
        return kernel(self, x, d)

    monkeypatch.setattr(MetricField, "segment", segment)
    return rows


class TestStackedEnergy:
    """The energy, its gradient and its Hessian come from one call of the
    metric's segment kernel on the whole segment stack; they match the
    per-segment loops and central differences."""

    METRICS = (valley_x1_metric, valley_x2_metric, identity_metric, coupled_3d_metric)

    @staticmethod
    def bent_path(seed, n_seg=16, dim=2):
        rng = np.random.default_rng(seed)
        nodes = chord([-1.0, 0.5, 0.2][:dim], [1.0, -0.3, 0.4][:dim], n_seg)
        nodes[1:-1] += rng.uniform(-0.2, 0.2, size=(n_seg - 1, dim))
        return nodes

    def test_energy_matches_loop(self):
        for make in self.METRICS:
            metric = make()
            nodes = self.bent_path(61, dim=metric.n)
            energy = energy_terms(metric, nodes)[0]
            assert energy == pytest.approx(looped_energy(metric, nodes), rel=1e-13)
            assert riemann_energy(metric, nodes) == energy

    def test_gradient_matches_loop(self):
        for make in self.METRICS:
            metric = make()
            nodes = self.bent_path(62, dim=metric.n)
            np.testing.assert_allclose(energy_terms(metric, nodes)[1],
                                       looped_gradient(metric, nodes),
                                       rtol=1e-12, atol=1e-12)

    def test_gradient_matches_finite_difference(self):
        for metric in (valley_x2_metric(), coupled_3d_metric()):
            nodes = self.bent_path(63, n_seg=8, dim=metric.n)
            grad = energy_terms(metric, nodes)[1]
            h = 1e-6
            for j in range(1, nodes.shape[0] - 1):
                for i in range(metric.n):
                    up, down = nodes.copy(), nodes.copy()
                    up[j, i] += h
                    down[j, i] -= h
                    fd = (looped_energy(metric, up) - looped_energy(metric, down)) / (2 * h)
                    assert grad[j - 1, i] == pytest.approx(fd, rel=1e-6, abs=1e-6)

    @pytest.mark.parametrize("make", [valley_x2_metric, coupled_3d_metric])
    def test_kernel_curvature_columns(self, make):
        # M, the rows (dM/dx_a) d and d^T (d^2 M/dx_a dx_b) d, the last
        # against central differences of d^T (dM/dx_a) d
        metric, h = make(), 1e-6
        dim = metric.n
        nodes = self.bent_path(65, n_seg=8, dim=dim)
        mids, deltas = 0.5 * (nodes[1:] + nodes[:-1]), np.diff(nodes, axis=0)
        kernel = metric.segment(mids, deltas)
        assert kernel.shape == (8, 1 + 2 * dim + 3 * dim * dim)
        m, p, curv = kernel[:, 1 + 2 * dim:].reshape(8, 3, dim, dim).transpose(1, 0, 2, 3)
        for k, (x, d) in enumerate(zip(mids, deltas)):
            np.testing.assert_allclose(m[k], metric.eval(x), rtol=1e-13, atol=1e-15)
            for a in range(dim):
                np.testing.assert_allclose(p[k, a], metric.partial(x, a) @ d,
                                           rtol=1e-12, atol=1e-15)
                for b in range(dim):
                    step = h * np.eye(dim)[b]
                    fd = (d @ metric.partial(x + step, a) @ d
                          - d @ metric.partial(x - step, a) @ d) / (2 * h)
                    assert curv[k, a, b] == pytest.approx(fd, rel=1e-6, abs=1e-6)
            assert np.array_equal(curv[k], curv[k].T)

    @pytest.mark.parametrize("make", [valley_x2_metric, coupled_3d_metric])
    def test_hessian_matches_finite_difference(self, make):
        metric = make()
        nodes = self.bent_path(66, n_seg=8, dim=metric.n)
        hess = energy_terms(metric, nodes)[2]
        assert np.array_equal(hess, hess.T)
        np.testing.assert_allclose(hess, hessian_by_differences(metric, nodes),
                                   rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("make", [valley_x2_metric, coupled_3d_metric])
    def test_descent_calls_the_kernel_once_per_trial(self, monkeypatch, make):
        metric = make()
        inputs, trials = [], []
        kernel = MetricField.segment

        def spy(self, x, d):
            inputs.append(np.concatenate([x, d], axis=-1).tobytes())
            return kernel(self, x, d)

        def forbidden(*args):
            raise AssertionError("the Newton loop evaluates M only through the segment kernel")

        class CountedArmijo(float):  # ARMIJO_C enters each trial's test once
            def __mul__(self, other):
                trials.append(other)
                return float(self) * other

            __rmul__ = __mul__

        monkeypatch.setattr(MetricField, "segment", spy)
        monkeypatch.setattr(MetricField, "eval", forbidden)
        monkeypatch.setattr(MetricField, "partials", forbidden)
        monkeypatch.setattr(geodesic, "ARMIJO_C", CountedArmijo(geodesic.ARMIJO_C))
        start = self.bent_path(64, n_seg=16, dim=metric.n)
        _, _, iterations, converged = _newton(metric, start, 0.1, geodesic.GRAD_TOL, None)
        assert converged and iterations > 2
        assert len(trials) >= iterations
        assert len(inputs) == 1 + len(trials)  # the start, then one per trial
        assert len(set(inputs)) == len(inputs)  # no node set is evaluated twice

    def test_minimum_is_screened_with_one_kernel_call(self, monkeypatch):
        # the config's run line: every Newton step is a full step, and the
        # minimum's gradient and Hessian come from the last step's kernel
        # call, so the solve calls the kernel once for the chord and once per step
        rows = spy_kernel(monkeypatch)
        path = solve_geodesic(demo_metric(), np.array([-1.0, 0.5]), np.array([1.0, 0.5]), 32)
        assert path.converged and path.iterations == 4
        assert rows == [32] * 5

    def test_stationary_chord_passes_the_screen(self, monkeypatch):
        # (-2, 0) -> (2, 0) under the config's metric: the chord is stationary
        # with an indefinite Hessian, the negative-curvature step leaves it, and
        # each of the 9 steps is a full step: one kernel call for each and the chord
        rows = spy_kernel(monkeypatch)
        path = solve_geodesic(demo_metric(), np.array([-2.0, 0.0]), np.array([2.0, 0.0]), 32)
        assert path.converged and path.iterations == 9
        assert rows == [32] * 10
        assert np.max(np.abs(path.nodes[:, 1])) >= 1.0

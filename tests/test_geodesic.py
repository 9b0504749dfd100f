"""Discrete geodesic solver, distances, and the path-integral controller."""

import heapq
import math

import numpy as np
import pytest

from ccmkit.controller import GainField, radial_potential
from ccmkit.geodesic import (
    _energy_gradient,
    geodesic_distance,
    path_integral_controller,
    riemann_energy,
    solve_geodesic,
)
from ccmkit.model import MetricField


def identity_metric():
    return MetricField(2, [["1", "0"], ["0", "1"]], 1.0, 1.0, 0.0)


def valley_x1_metric():
    # second direction gets cheap as |x1| grows; x1 distance stays flat
    return MetricField(2, [["1", "0"], ["0", "1/(1+x1^2)^2"]], 0.03, 1.0, 0.0)


def valley_x2_metric():
    # first direction gets cheap as |x2| grows, so paths bow in x2
    return MetricField(2, [["1/(1+x2^2)^2", "0"], ["0", "1"]], 0.05, 1.0, 0.0)


def chord(x_a, x_b, n_segments):
    fr = np.linspace(0.0, 1.0, n_segments + 1)[:, None]
    return (1.0 - fr) * np.asarray(x_a) + fr * np.asarray(x_b)


def lattice_shortest_path(metric, xs, ys, x_a, x_b, reach=3):
    """Dijkstra on a lattice graph with edge lengths from the midpoint
    metric. Both endpoints must lie exactly on the lattice: snapping
    them shortens/stretches the problem and corrupts the reference."""
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

    def edge(i, j, di, dj):
        p = np.array([xs[i], ys[j]])
        q = np.array([xs[i + di], ys[j + dj]])
        delta = q - p
        return math.sqrt(delta @ metric.eval(0.5 * (p + q)) @ delta)

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
                nd = d + edge(i, j, di, dj)
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

    def test_warm_start_accepted(self):
        metric = valley_x2_metric()
        a, b = np.array([-1.0, 0.5]), np.array([1.0, 0.5])
        cold = solve_geodesic(metric, a, b, 32)
        warm = solve_geodesic(metric, a, b, 32, init=cold.nodes)
        assert warm.converged
        assert warm.energy <= cold.energy + 1e-12
        assert warm.iterations <= cold.iterations

    def test_bad_warm_start_discarded(self):
        metric = valley_x2_metric()
        a, b = np.array([-1.0, 0.5]), np.array([1.0, 0.5])
        garbage = chord(a, b, 32)
        garbage[1:-1] += 50.0
        cold = solve_geodesic(metric, a, b, 32)
        warm = solve_geodesic(metric, a, b, 32, init=garbage)
        assert warm.energy == pytest.approx(cold.energy, rel=1e-8)

    def test_iteration_cap_flags_nonconvergence(self):
        metric = valley_x2_metric()
        path = solve_geodesic(metric, np.array([-1.0, 0.5]),
                              np.array([1.0, 0.5]), 32, max_iters=1)
        assert not path.converged

    def test_tangents_telescope(self):
        metric = valley_x2_metric()
        a, b = np.array([-1.0, 0.5]), np.array([1.0, 0.5])
        path = solve_geodesic(metric, a, b, 32)
        assert np.allclose(path.tangents().sum(axis=0), b - a, atol=1e-12)


class TestPathIntegralController:
    def test_constant_gain_closed_form(self, micro_gain):
        metric = MetricField(
            3,
            [["1", "1", "0"], ["0", "3", "0"], ["0", "0", "1"]],
            0.1, 4.0, 0.0,
        )
        x = np.array([1.0, 0.5, 2.0])
        x_d = np.array([1.0, 0.5, 0.5])
        u, path = path_integral_controller(micro_gain, metric, x, x_d,
                                           np.array([0.25]))
        assert path.converged
        assert u[0] == pytest.approx(0.25 - 2.0 * 1.5, abs=1e-13)

    def test_invariance_on_reference(self, numex, numex_gain):
        x_d = np.array([0.7, -0.4])
        u, _ = path_integral_controller(numex_gain, numex.metric,
                                        x_d, x_d, np.array([1.5]))
        assert u[0] == pytest.approx(1.5, abs=1e-13)

    def test_exact_gain_path_independence(self, numex):
        # for a curl-free gain the line integral equals the potential
        # difference; midpoint sums converge to it at second order
        gain = GainField.from_exprs(2, 1, [["-x1", "-x2^3"]])
        x = np.array([1.0, 1.5])
        x_d = np.array([-0.5, 0.25])
        want = radial_potential(gain, x) - radial_potential(gain, x_d)

        def err(n_segments):
            u, _ = path_integral_controller(gain, numex.metric, x, x_d,
                                            np.zeros(1), n_segments=n_segments)
            return abs(u[0] - want[0])

        assert err(1024) <= 1e-6
        assert err(64) <= 0.35 * err(32) + 1e-14  # ~4x per doubling

    def test_warm_start_reuse(self, numex, numex_gain):
        x = np.array([1.0, 1.0])
        x_d = np.zeros(2)
        u1, path = path_integral_controller(numex_gain, numex.metric,
                                            x, x_d, np.zeros(1))
        u2, _ = path_integral_controller(numex_gain, numex.metric,
                                         x, x_d, np.zeros(1), path=path)
        assert u1[0] == pytest.approx(u2[0], abs=1e-12)


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


class TestStackedEnergy:
    """The energy and its gradient evaluate the metric on the whole
    midpoint stack at once; they match the per-segment loops."""

    @staticmethod
    def bent_path(seed, n_seg=16):
        rng = np.random.default_rng(seed)
        nodes = chord([-1.0, 0.5], [1.0, -0.3], n_seg)
        nodes[1:-1] += rng.uniform(-0.2, 0.2, size=(n_seg - 1, 2))
        return nodes

    def test_energy_matches_loop(self):
        for metric in (valley_x1_metric(), valley_x2_metric(), identity_metric()):
            nodes = self.bent_path(61)
            assert riemann_energy(metric, nodes) == pytest.approx(
                looped_energy(metric, nodes), rel=1e-13)

    def test_gradient_matches_loop(self):
        for metric in (valley_x1_metric(), valley_x2_metric(), identity_metric()):
            nodes = self.bent_path(62)
            np.testing.assert_allclose(_energy_gradient(metric, nodes),
                                       looped_gradient(metric, nodes),
                                       rtol=1e-12, atol=1e-12)

    def test_gradient_matches_finite_difference(self):
        metric = valley_x2_metric()
        nodes = self.bent_path(63, n_seg=8)
        grad = _energy_gradient(metric, nodes)
        h = 1e-6
        for j in range(1, nodes.shape[0] - 1):
            for i in range(2):
                up, down = nodes.copy(), nodes.copy()
                up[j, i] += h
                down[j, i] -= h
                fd = (riemann_energy(metric, up) - riemann_energy(metric, down)) / (2 * h)
                assert grad[j - 1, i] == pytest.approx(fd, rel=1e-6, abs=1e-6)

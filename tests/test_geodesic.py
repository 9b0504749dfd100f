"""Discrete geodesic solver, distances, and the path-integral controller."""

import heapq
import math
from pathlib import Path

import numpy as np
import pytest

from ccmkit import geodesic
from ccmkit.config import load_config
from ccmkit.controller import GainField, radial_potential
from ccmkit.geodesic import (
    MAX_SEGMENTS,
    _chain_preconditioner,
    _descend,
    _energy_and_gradient,
    _escape_starts,
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
    # x3: from (-2, 0, 0) to (2, 0, 0) the escape along x2 lands on a path
    # that the x3 bump of the same pass lowers again
    return MetricField(3, [["1/(1 + x2^2 + 2*x3^2)^2", "0", "0"], ["0", "1", "0"],
                           ["0", "0", "1"]], 0.05, 1.0, 0.0)


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
        with pytest.raises(ValueError):  # rejected before the dense preconditioner
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
        # 1, 2: without M^-1 in the direction these ran out of iterations
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


@pytest.mark.parametrize("n_segments", [2, 3, 4, 7, 32])
def test_chain_preconditioner_is_the_inverse_laplacian(n_segments):
    size = n_segments - 1
    lap = 2.0 * n_segments * (2.0 * np.eye(size) - np.eye(size, k=1) - np.eye(size, k=-1))
    np.testing.assert_allclose(_chain_preconditioner(n_segments), np.linalg.inv(lap),
                               rtol=1e-13, atol=0.0)


class TestSaddleEscape:
    """diag(m, 1) with m even in x2 and varying in x1: the descent from the
    chord (-2, 0) -> (2, 0) moves along x1 but stays on the line x2 = 0, a
    saddle, so the escape has to leave a path that has already moved."""

    A, B = np.array([-2.0, 0.0]), np.array([2.0, 0.0])
    WEIGHTS_ALL = ("(1 + x1^2/4)/(1 + x2^2)^2", "(2 + sin(x1))/(1 + x2^2)^2")
    WEIGHTS = pytest.mark.parametrize("weight", WEIGHTS_ALL, ids=["quadratic", "sine"])

    @staticmethod
    def metric(weight):
        return MetricField(2, [[weight, "0"], ["0", "1"]], 0.05, 3.0, 0.0)

    @WEIGHTS
    def test_descent_alone_stays_on_the_chord_line(self, weight):
        metric, start = self.metric(weight), chord(self.A, self.B, 32)
        m_inv = np.linalg.inv(metric.eval(0.5 * (self.A + self.B)))
        nodes, _, iterations, converged = _descend(
            metric, start, geodesic.MAX_ITERS, None, _chain_preconditioner(32), m_inv)
        assert converged and iterations > 0
        assert not np.array_equal(nodes, start)
        assert np.max(np.abs(nodes[:, 1])) == 0.0

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


def sequential_escape(metric, x_a, x_b, n_segments):
    """Oracle: the chord descent, then the saddle escape one bump at a time
    (axis by axis, + then -), each bumped start priced alone by
    `riemann_energy` and descended from only when it starts below the
    current energy. Returns (nodes, energy, iterations, converged)."""
    x_a, x_b = np.asarray(x_a, dtype=float), np.asarray(x_b, dtype=float)
    precond = _chain_preconditioner(n_segments)
    m_inv = np.linalg.inv(metric.eval(0.5 * (x_a + x_b)))
    nodes, energy, iterations, converged = _descend(
        metric, chord(x_a, x_b, n_segments), geodesic.MAX_ITERS, None, precond, m_inv)
    if converged and energy > geodesic.ENERGY_TOL and geodesic.MAX_ITERS > iterations:
        scale = 0.05 * float(np.linalg.norm(x_b - x_a))
        bump = scale * np.sin(np.pi * np.linspace(0.0, 1.0, n_segments + 1)[1:-1])
        for axis in range(metric.n):
            for sign in (1.0, -1.0):
                bumped = nodes.copy()
                bumped[1:-1, axis] += sign * bump
                if riemann_energy(metric, bumped) < energy - geodesic.ENERGY_TOL:
                    new_nodes, new_energy, extra, reconverged = _descend(
                        metric, bumped, geodesic.MAX_ITERS - iterations, None, precond, m_inv)
                    if new_energy < energy - geodesic.ENERGY_TOL:
                        nodes, energy = new_nodes, new_energy
                        iterations += extra
                        converged = reconverged
    return nodes, energy, iterations, converged


def spy_solve(monkeypatch):
    """Records the segment count of every kernel call, and per `_descend`
    call its kernel calls and iterations."""
    rows, descents = [], []
    kernel, descend = MetricField.segment, geodesic._descend

    def segment(self, x, d):
        rows.append(len(x))
        return kernel(self, x, d)

    def spy(*args):
        before = len(rows)
        result = descend(*args)
        descents.append((len(rows) - before, result[2]))
        return result

    monkeypatch.setattr(MetricField, "segment", segment)
    monkeypatch.setattr(geodesic, "_descend", spy)
    return rows, descents


class TestScreenedEscape:
    """The saddle escape prices the 2n bumped starts with one stacked call of
    the segment kernel and descends only from a start below the current
    energy, re-pricing the untried bumps after each descent."""

    CASES = pytest.mark.parametrize("make, x_a, x_b", [
        (demo_metric, (-1.0, 0.5), (1.0, 0.5)),  # the config's run line: a minimum
        (demo_metric, (-2.0, 0.0), (2.0, 0.0)),  # a stationary chord
        (saddle_quadratic, (-2.0, 0.0), (2.0, 0.0)),
        (saddle_sine, (-2.0, 0.0), (2.0, 0.0)),
        (valley_x1_metric, (-1.0, -0.5), (1.0, 0.5)),
        (coupled_3d_metric, (-1.0, 0.5, 0.2), (1.0, -0.3, 0.4)),
        (twin_valley_3d_metric, (-2.0, 0.0, 0.0), (2.0, 0.0, 0.0)),  # two escapes
    ], ids=["run-line", "stationary-chord", "saddle-quadratic", "saddle-sine",
            "valley-x1", "coupled-3d", "twin-valley-3d"])

    @pytest.mark.parametrize("make", [valley_x2_metric, coupled_3d_metric])
    def test_stacked_prices_equal_per_bump_prices(self, make):
        metric = make()
        nodes = TestStackedEnergy.bent_path(65, dim=metric.n)
        bump = 0.1 * np.sin(np.pi * np.linspace(0.0, 1.0, nodes.shape[0])[1:-1])
        starts, prices = _escape_starts(metric, nodes, bump)
        assert starts.shape == (2 * metric.n,) + nodes.shape
        k = 0
        for axis in range(metric.n):
            for sign in (1.0, -1.0):
                bumped = nodes.copy()
                bumped[1:-1, axis] += sign * bump
                assert np.array_equal(starts[k], bumped)
                assert prices[k] == _energy_and_gradient(metric, bumped)[0]
                k += 1

    @CASES
    def test_matches_sequential_oracle(self, make, x_a, x_b):
        metric = make()
        path = solve_geodesic(metric, np.array(x_a), np.array(x_b), 32)
        nodes, energy, iterations, converged = sequential_escape(metric, x_a, x_b, 32)
        assert np.array_equal(path.nodes, nodes)
        assert path.energy == energy
        assert path.iterations == iterations
        assert path.converged == converged

    @CASES
    def test_iterations_count_every_descent(self, monkeypatch, make, x_a, x_b):
        descents = spy_solve(monkeypatch)[1]
        path = solve_geodesic(make(), np.array(x_a), np.array(x_b), 32)
        assert sum(it for _, it in descents) == path.iterations <= geodesic.MAX_ITERS

    @pytest.mark.parametrize("make, cap", [
        (demo_metric, 20), (saddle_quadratic, 150), (saddle_sine, 40),
    ], ids=["demo", "quadratic", "sine"])
    def test_iteration_budget_holds_in_all(self, monkeypatch, make, cap):
        # the chord descent converges within the cap (in 0, 137 and 22
        # iterations) and the escape runs out of it: the solve still runs at
        # most MAX_ITERS iterations in all, and says it did not converge
        monkeypatch.setattr(geodesic, "MAX_ITERS", cap)
        descents = spy_solve(monkeypatch)[1]
        path = solve_geodesic(make(), TestSaddleEscape.A, TestSaddleEscape.B, 32)
        assert len(descents) >= 2
        assert sum(it for _, it in descents) == path.iterations == cap
        assert not path.converged


class TestPathIntegralController:
    def test_constant_gain_closed_form(self, micro_gain):
        metric = MetricField(
            3,
            [["1", "1", "0"], ["0", "3", "0"], ["0", "0", "1"]],
            0.1, 4.0, 0.0,
        )
        x = np.array([1.0, 0.5, 2.0])
        x_d = np.array([1.0, 0.5, 0.5])
        u = path_integral_controller(micro_gain, metric, x, x_d, np.array([0.25]))
        assert u[0] == pytest.approx(0.25 - 2.0 * 1.5, abs=1e-13)

    def test_invariance_on_reference(self, numex, numex_gain):
        x_d = np.array([0.7, -0.4])
        u = path_integral_controller(numex_gain, numex.metric, x_d, x_d, np.array([1.5]))
        assert u[0] == pytest.approx(1.5, abs=1e-13)

    def test_exact_gain_path_independence(self, numex):
        # for a curl-free gain the line integral equals the potential
        # difference; midpoint sums converge to it at second order
        gain = GainField.from_exprs(2, 1, [["-x1", "-x2^3"]])
        x = np.array([1.0, 1.5])
        x_d = np.array([-0.5, 0.25])
        want = radial_potential(gain, x) - radial_potential(gain, x_d)

        def err(n_segments):
            u = path_integral_controller(gain, numex.metric, x, x_d,
                                         np.zeros(1), n_segments=n_segments)
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


class TestStackedEnergy:
    """The energy and its gradient come from one call of the metric's
    segment kernel on the whole segment stack; they match the per-segment
    loops."""

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
            energy = _energy_and_gradient(metric, nodes)[0]
            assert energy == pytest.approx(looped_energy(metric, nodes), rel=1e-13)
            assert riemann_energy(metric, nodes) == energy

    def test_gradient_matches_loop(self):
        for make in self.METRICS:
            metric = make()
            nodes = self.bent_path(62, dim=metric.n)
            np.testing.assert_allclose(_energy_and_gradient(metric, nodes)[1],
                                       looped_gradient(metric, nodes),
                                       rtol=1e-12, atol=1e-12)

    def test_gradient_matches_finite_difference(self):
        for metric in (valley_x2_metric(), coupled_3d_metric()):
            nodes = self.bent_path(63, n_seg=8, dim=metric.n)
            grad = _energy_and_gradient(metric, nodes)[1]
            h = 1e-6
            for j in range(1, nodes.shape[0] - 1):
                for i in range(metric.n):
                    up, down = nodes.copy(), nodes.copy()
                    up[j, i] += h
                    down[j, i] -= h
                    fd = (looped_energy(metric, up) - looped_energy(metric, down)) / (2 * h)
                    assert grad[j - 1, i] == pytest.approx(fd, rel=1e-6, abs=1e-6)

    @pytest.mark.parametrize("make", [valley_x2_metric, coupled_3d_metric])
    def test_descent_calls_the_kernel_once_per_trial(self, monkeypatch, make):
        metric = make()
        inputs, trials = [], []
        kernel = MetricField.segment

        def spy(self, x, d):
            inputs.append(np.concatenate([x, d], axis=-1).tobytes())
            return kernel(self, x, d)

        def forbidden(*args):
            raise AssertionError("the descent evaluates M only through the segment kernel")

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
        _, _, iterations, _ = _descend(metric, start, 12, None, _chain_preconditioner(16),
                                       np.eye(metric.n))
        assert iterations > 2
        assert len(trials) >= iterations
        assert len(inputs) == 1 + len(trials)  # the start, then one per trial
        assert len(set(inputs)) == len(inputs)  # no node set is evaluated twice

    def test_minimum_is_screened_with_one_kernel_call(self, monkeypatch):
        # the config's run line descends to a minimum, where no bump lowers
        # the energy: the 2n = 4 bumps cost one stacked call of 4 N segments
        rows, descents = spy_solve(monkeypatch)
        solve_geodesic(demo_metric(), np.array([-1.0, 0.5]), np.array([1.0, 0.5]), 32)
        assert len(descents) == 1
        assert len(rows) == descents[0][0] + 1
        assert rows[-1] == 4 * 32

    def test_stationary_chord_passes_the_screen(self, monkeypatch):
        # (-2, 0) -> (2, 0) under the config's metric: the chord is stationary,
        # the + x2 bump starts below it, and the untried - x2 bump is re-priced
        # on the escaped path
        rows, descents = spy_solve(monkeypatch)
        path = solve_geodesic(demo_metric(), np.array([-2.0, 0.0]), np.array([2.0, 0.0]), 32)
        assert descents == [(1, 0), (114, 77)]
        assert rows == [32, 4 * 32] + [32] * 114 + [4 * 32]
        assert path.iterations == 77

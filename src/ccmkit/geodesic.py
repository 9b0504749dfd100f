"""Discretized minimal geodesics under a state-dependent metric.

A path is a polyline with pinned endpoints; its Riemannian energy
N * sum_k dx_k^T M(mid_k) dx_k is minimized over the interior nodes by
gradient descent (preconditioned by the inverse chain Laplacian so the
node count does not dictate the step size) with an Armijo backtracking
line search. For constant
metrics the straight chord is already optimal. The path-integral
controller consumes the optimized tangents directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ARMIJO_C = 1e-4
GRAD_TOL = 1e-8
ENERGY_TOL = 1e-12
MAX_ITERS = 500
DEFAULT_NODES = 32


class GeodesicError(RuntimeError):
    pass


@dataclass
class GeodesicPath:
    nodes: np.ndarray  # (N+1) x n, nodes[0] = start, nodes[-1] = end
    energy: float
    iterations: int
    converged: bool

    @property
    def segments(self):
        return self.nodes.shape[0] - 1

    def tangents(self):
        """Per-segment dx; sums telescope to end - start."""
        return np.diff(self.nodes, axis=0)

    def midpoints(self):
        return 0.5 * (self.nodes[1:] + self.nodes[:-1])

    def length(self):
        return float(np.sqrt(max(self.energy, 0.0)))


def riemann_energy(metric, nodes):
    """Discrete energy with midpoint metric evaluation."""
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    if nodes.shape[0] < 2:
        raise ValueError("need at least 2 nodes")
    n_seg = nodes.shape[0] - 1
    deltas = np.diff(nodes, axis=0)
    mids = 0.5 * (nodes[1:] + nodes[:-1])
    m_mid = metric.eval(mids, stacked=True)
    return n_seg * float(np.einsum("ki,kij,kj->", deltas, m_mid, deltas))


def _energy_gradient(metric, nodes):
    """Gradient of the discrete energy w.r.t. interior nodes.

    Node j sits between segments j-1 and j, so it gets
    2 M(mid_{j-1}) dx_{j-1} - 2 M(mid_j) dx_j plus, per axis i, half of
    dx^T dM/dx_i dx from both segments, all times N.
    """
    n_seg = nodes.shape[0] - 1
    deltas = np.diff(nodes, axis=0)
    mids = 0.5 * (nodes[1:] + nodes[:-1])
    pulls = 2.0 * np.einsum("kij,kj->ki", metric.eval(mids, stacked=True), deltas)
    grad = pulls[:-1] - pulls[1:]
    if not metric.constant:
        bends = 0.5 * np.stack(
            [np.einsum("ki,kij,kj->k", deltas, metric.partial(mids, i, stacked=True), deltas)
             for i in range(nodes.shape[1])],
            axis=1,
        )
        grad += bends[:-1] + bends[1:]
    return n_seg * grad


def _chain_preconditioner(n_segments):
    """Inverse of the Euclidean discrete-energy Hessian 2N tridiag(-1,2,-1).

    Preconditioning the gradient with it removes the O(N^2) stiffness of
    the node chain, which plain gradient descent cannot cope with.
    """
    size = n_segments - 1
    lap = 2.0 * n_segments * (
        2.0 * np.eye(size) - np.eye(size, k=1) - np.eye(size, k=-1)
    )
    return np.linalg.inv(lap)


def _descend(metric, nodes, energy, max_iters, grad_tol, on_iteration, precond):
    """Preconditioned gradient descent with Armijo backtracking."""
    converged = False
    iterations = 0
    step = 1.0
    for iterations in range(1, max_iters + 1):
        grad = _energy_gradient(metric, nodes)
        grad_norm = float(np.max(np.linalg.norm(grad, axis=1))) if grad.size else 0.0
        if grad_norm <= grad_tol:
            converged = True
            iterations -= 1
            break
        direction = precond @ grad
        slope = float(np.sum(grad * direction))  # > 0, precond is SPD
        accepted = False
        step = min(step * 2.0, 1.0)
        while step > 1e-16:
            trial = nodes.copy()
            trial[1:-1] -= step * direction
            trial_energy = riemann_energy(metric, trial)
            if trial_energy <= energy - ARMIJO_C * step * slope:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            # no descent step exists at working precision
            converged = True
            break
        decrease = energy - trial_energy
        nodes, energy = trial, trial_energy
        if on_iteration is not None:
            on_iteration(iterations, energy)
        if decrease < ENERGY_TOL:
            converged = True
            break
    return nodes, energy, iterations, converged


def solve_geodesic(metric, x_a, x_b, n_segments=DEFAULT_NODES, max_iters=MAX_ITERS,
                   grad_tol=GRAD_TOL, init=None, on_iteration=None):
    """Minimize discrete energy between x_a and x_b at fixed node count.

    init optionally warm-starts from a previous node array (endpoints are
    re-pinned); it is discarded if it starts above the straight chord.
    A converged path is re-tested once from a small deterministic
    perturbation so symmetric saddles (straight chords can be exactly
    stationary) do not masquerade as minima.
    """
    if n_segments < 2:
        raise ValueError("need at least 2 segments")
    x_a = np.asarray(x_a, dtype=float)
    x_b = np.asarray(x_b, dtype=float)
    fractions = np.linspace(0.0, 1.0, n_segments + 1)[:, None]
    straight = (1.0 - fractions) * x_a + fractions * x_b
    if getattr(metric, "constant", False):
        # uniform chord is the exact minimizer under a constant metric;
        # its energy telescopes to the endpoint quadratic form
        delta = x_b - x_a
        return GeodesicPath(
            nodes=straight,
            energy=float(delta @ metric.eval(x_a) @ delta),
            iterations=0,
            converged=True,
        )
    nodes = straight.copy()
    if init is not None and np.asarray(init).shape == nodes.shape:
        warm = np.asarray(init, dtype=float).copy()
        warm[0] = x_a
        warm[-1] = x_b
        if riemann_energy(metric, warm) <= riemann_energy(metric, straight):
            nodes = warm

    precond = _chain_preconditioner(n_segments)
    energy = riemann_energy(metric, nodes)
    nodes, energy, iterations, converged = _descend(
        metric, nodes, energy, max_iters, grad_tol, on_iteration, precond
    )
    if converged and energy > ENERGY_TOL and max_iters > iterations:
        # saddle escape: bow the interior by a half-sine bump along each
        # coordinate axis and keep the lowest-energy result. Straight
        # chords can be exactly stationary without being minimal.
        scale = 0.05 * float(np.linalg.norm(x_b - x_a))
        bump = scale * np.sin(np.pi * fractions[1:-1])
        dim = nodes.shape[1]
        for axis in range(dim):
            for sign in (1.0, -1.0):
                bumped = nodes.copy()
                bumped[1:-1, axis] += sign * bump[:, 0]
                bumped_energy = riemann_energy(metric, bumped)
                new_nodes, new_energy, extra, reconverged = _descend(
                    metric, bumped, bumped_energy, max_iters - iterations,
                    grad_tol, None, precond,
                )
                if new_energy < energy - ENERGY_TOL:
                    nodes, energy = new_nodes, new_energy
                    iterations += extra
                    converged = reconverged
    return GeodesicPath(nodes=nodes, energy=energy, iterations=iterations,
                        converged=converged)


def geodesic_distance(metric, x_a, x_b, n_segments=DEFAULT_NODES):
    return solve_geodesic(metric, x_a, x_b, n_segments).length()


def path_integral_controller(gain, metric, x, x_d, u_d, n_segments=DEFAULT_NODES,
                             path=None):
    """u = u_d + sum_k K(mid_k) dx_k along the minimal geodesic from x_d
    to x. Returns (u, path) so callers can warm-start the next solve."""
    x = np.asarray(x, dtype=float)
    x_d = np.asarray(x_d, dtype=float)
    if path is None:
        init = None
    else:
        init = path.nodes
    path = solve_geodesic(metric, x_d, x, n_segments, init=init)
    if not path.converged:
        raise GeodesicError(
            f"geodesic solve did not converge in {path.iterations} iterations "
            f"(energy {path.energy:g})"
        )
    u = np.asarray(u_d, dtype=float)
    if gain.is_constant():
        return u + gain.constant_matrix @ (x - x_d), path
    return u + np.einsum("kij,kj->i", gain(path.midpoints()), path.tangents()), path

"""Discretized minimal geodesics under a state-dependent metric.

A path is a polyline with pinned endpoints; its Riemannian energy
N * sum_k dx_k^T M(mid_k) dx_k is minimized over the interior nodes by
gradient descent with an Armijo backtracking line search, starting from
the straight chord. The gradient is preconditioned by the inverse chain
Laplacian along the nodes, so the node count does not dictate the step
size, and by M^-1 at the chord midpoint across the axes, so the metric's
scale does not either. The energy and its gradient come from one call of
the metric's segment kernel (`MetricField.segment`) on the whole segment
stack, one for the start and one per line-search trial; the accepted
trial's gradient starts the next iteration. A converged path is then
bumped by a half-sine along each axis, both ways, to leave a saddle: one
kernel call on the stack of all 2n bumped paths prices them, and only a
bump that starts below the converged energy is descended from. For
constant metrics the straight chord is already optimal. The path-integral
controller consumes the optimized tangents directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import PIVOT_TOL

ARMIJO_C = 1e-4
GRAD_TOL = 1e-8
ENERGY_TOL = 1e-12
MAX_ITERS = 500
DEFAULT_NODES = 32
MAX_SEGMENTS = 4096  # the chain preconditioner is a dense (N-1) x (N-1) matrix


class GeodesicError(RuntimeError):
    pass


@dataclass
class GeodesicPath:
    nodes: np.ndarray  # (N+1) x n, nodes[0] = start, nodes[-1] = end
    energy: float
    iterations: int
    converged: bool

    def __post_init__(self):  # only an M that is not positive definite gives energy < 0
        if self.energy < 0.0:
            raise GeodesicError(f"metric not positive definite along the path "
                                f"(energy {self.energy:g})")

    def tangents(self):
        """Per-segment dx; sums telescope to end - start."""
        return np.diff(self.nodes, axis=0)

    def midpoints(self):
        return 0.5 * (self.nodes[1:] + self.nodes[:-1])

    def length(self):
        return float(np.sqrt(self.energy))


def riemann_energy(metric, nodes):
    """Discrete energy with midpoint metric evaluation."""
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    if nodes.shape[0] < 2:
        raise ValueError("need at least 2 nodes")
    return _energy_and_gradient(metric, nodes)[0]


def _energy_and_gradient(metric, nodes):
    """The discrete energy and its gradient w.r.t. the interior nodes, from
    one call of the metric's segment kernel.

    Node j sits between segments j-1 and j, so it gets
    2 M(mid_{j-1}) dx_{j-1} - 2 M(mid_j) dx_j plus, per axis a, half of
    dx^T dM/dx_a dx from both segments, all times N.
    """
    n_seg, dim = nodes.shape[0] - 1, nodes.shape[1]
    kernel = metric.segment(0.5 * (nodes[1:] + nodes[:-1]), nodes[1:] - nodes[:-1])
    pulls, bends = kernel[:, 1:dim + 1], kernel[:, dim + 1:]
    grad = 2.0 * (pulls[:-1] - pulls[1:]) + 0.5 * (bends[:-1] + bends[1:])
    return n_seg * float(kernel[:, 0].sum()), n_seg * grad


def _escape_starts(metric, nodes, bump):
    """The 2n saddle-escape starts of `nodes` as one `(2n, N+1, n)` stack
    (the interior plus `bump` along axis 0, minus it along axis 0, plus it
    along axis 1, and so on) and their energies, from one call of the
    segment kernel on all 2n N segments."""
    n_seg, dim = nodes.shape[0] - 1, nodes.shape[1]
    starts = np.repeat(nodes[None], 2 * dim, axis=0)
    rows = np.arange(2 * dim)
    starts[rows, 1:-1, rows // 2] += np.outer(np.tile([1.0, -1.0], dim), bump)
    kernel = metric.segment((0.5 * (starts[:, 1:] + starts[:, :-1])).reshape(-1, dim),
                            (starts[:, 1:] - starts[:, :-1]).reshape(-1, dim))
    return starts, n_seg * kernel[:, 0].reshape(2 * dim, n_seg).sum(axis=1)


def _chain_preconditioner(n_segments):
    """Inverse of the Euclidean discrete-energy Hessian 2N tridiag(-1,2,-1),
    in closed form: entry (i, j), 1-based, is min(i, j) (N - max(i, j)) / (2N^2).

    Preconditioning the gradient with it removes the O(N^2) stiffness of
    the node chain, which plain gradient descent cannot cope with.
    """
    k = np.arange(1.0, n_segments)
    # i (N - j) is the entry where i <= j, and there it is below j (N - i)
    upper = np.outer(k, n_segments - k) / (2.0 * n_segments * n_segments)
    return np.minimum(upper, upper.T)


def _descend(metric, nodes, max_iters, on_iteration, precond, m_inv):
    """Gradient descent with Armijo backtracking from the node array
    `nodes`, preconditioned by `precond` along the nodes and by `m_inv`
    across the axes; the start and each trial is one evaluation of the
    energy and the gradient."""
    converged = False
    iterations = 0
    step = 1.0
    energy, grad = _energy_and_gradient(metric, nodes)
    for iterations in range(1, max_iters + 1):
        grad_norm = float(np.max(np.linalg.norm(grad, axis=1))) if grad.size else 0.0
        if grad_norm <= GRAD_TOL:
            converged = True
            iterations -= 1
            break
        direction = precond @ grad @ m_inv
        slope = float(np.sum(grad * direction))  # > 0, precond and m_inv are SPD
        accepted = False
        step = min(step * 2.0, 1.0)
        while step > 1e-16:
            trial = nodes.copy()
            trial[1:-1] -= step * direction
            trial_energy, trial_grad = _energy_and_gradient(metric, trial)
            if trial_energy <= energy - ARMIJO_C * step * slope:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            # no descent step exists at working precision
            converged = True
            break
        decrease = energy - trial_energy
        nodes, energy, grad = trial, trial_energy, trial_grad
        if on_iteration is not None:
            on_iteration(iterations, energy)
        if decrease < ENERGY_TOL:
            converged = True
            break
    return nodes, energy, iterations, converged


def solve_geodesic(metric, x_a, x_b, n_segments=DEFAULT_NODES, on_iteration=None):
    """Minimize discrete energy between x_a and x_b at fixed node count,
    in at most MAX_ITERS descent iterations in all, starting from the
    straight chord.

    A converged path is re-tested from small deterministic perturbations
    so symmetric saddles (straight chords can be exactly stationary) do
    not masquerade as minima: the 2n half-sine bumps of the path are
    priced with one stacked kernel call, and a bump is descended from only
    when it starts below the current energy, so every descent that runs is
    kept and counted. A bump that starts above the current energy is not
    explored, even if its descent would reach a lower basin.
    """
    if not 2 <= n_segments <= MAX_SEGMENTS:
        raise ValueError(f"need 2 to {MAX_SEGMENTS} segments")
    x_a = np.asarray(x_a, dtype=float)
    x_b = np.asarray(x_b, dtype=float)
    fractions = np.linspace(0.0, 1.0, n_segments + 1)[:, None]
    straight = (1.0 - fractions) * x_a + fractions * x_b
    mid = 0.5 * (x_a + x_b)
    m_mid = metric.eval(mid)
    try:
        chol = np.linalg.cholesky(m_mid)
        # cholesky accepts some singular M, whose inverse a curved solve needs: its
        # pivots L_kk^2 face the relative tolerance of linalg.inverse's LU pivots,
        # as calling linalg.inverse would cost about a tenth of a curved solve
        if not metric.constant and np.diagonal(chol).min() ** 2 < PIVOT_TOL * np.abs(m_mid).max():
            raise np.linalg.LinAlgError("singular matrix")
    except np.linalg.LinAlgError:
        raise GeodesicError(f"metric not positive definite at the chord midpoint "
                            f"{mid.tolist()}") from None
    if metric.constant:
        # uniform chord is the exact minimizer under a constant metric;
        # its energy telescopes to the endpoint quadratic form
        delta = x_b - x_a
        return GeodesicPath(
            nodes=straight,
            energy=float(delta @ m_mid @ delta),
            iterations=0,
            converged=True,
        )
    m_inv = np.linalg.inv(m_mid)
    precond = _chain_preconditioner(n_segments)
    nodes, energy, iterations, converged = _descend(
        metric, straight, MAX_ITERS, on_iteration, precond, m_inv
    )
    if converged and energy > ENERGY_TOL and MAX_ITERS > iterations:
        # saddle escape, axis by axis, + then -. The descent is monotone,
        # so a descended bump ends below the current energy and is kept;
        # the untried bumps are then re-priced on the new path.
        bump = 0.05 * float(np.linalg.norm(x_b - x_a)) * np.sin(np.pi * fractions[1:-1, 0])
        starts, prices = _escape_starts(metric, nodes, bump)
        for k in range(len(starts)):
            if prices[k] < energy - ENERGY_TOL:
                nodes, energy, extra, converged = _descend(
                    metric, starts[k], MAX_ITERS - iterations, None, precond, m_inv,
                )
                iterations += extra
                starts, prices = _escape_starts(metric, nodes, bump)
    return GeodesicPath(nodes=nodes, energy=energy, iterations=iterations,
                        converged=converged)


def geodesic_distance(metric, x_a, x_b, n_segments=DEFAULT_NODES):
    return solve_geodesic(metric, x_a, x_b, n_segments).length()


def path_integral_controller(gain, metric, x, x_d, u_d, n_segments=DEFAULT_NODES):
    """u = u_d + sum_k K(mid_k) dx_k along the minimal geodesic from x_d
    to x."""
    x = np.asarray(x, dtype=float)
    x_d = np.asarray(x_d, dtype=float)
    path = solve_geodesic(metric, x_d, x, n_segments)
    if not path.converged:
        raise GeodesicError(
            f"geodesic solve did not converge in {path.iterations} iterations "
            f"(energy {path.energy:g})"
        )
    u = np.asarray(u_d, dtype=float)
    if gain.is_constant():
        return u + gain.constant_matrix @ (x - x_d)
    return u + np.einsum("kij,kj->i", gain(path.midpoints()), path.tangents())

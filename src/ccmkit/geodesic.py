"""Discretized minimal geodesics under a state-dependent metric.

A path is a polyline with pinned endpoints; its Riemannian energy
N * sum_k dx_k^T M(mid_k) dx_k is minimized over the interior nodes by
Newton's method with an Armijo backtracking line search, starting from
the straight chord. The energy, its gradient and its block-tridiagonal
Hessian come from one call of the metric's segment kernel
(`MetricField.segment`) on the whole segment stack, one for the start and
one per line-search trial; the Hessian is held as a dense matrix. Where
its Cholesky fails the Hessian is not positive definite, and the step is
the shifted Newton step plus a step along the eigenvector of its most
negative eigenvalue, found by inverse iteration (no dense eigenvector
solve), which leaves a saddle such as a stationary chord. A path is
`converged` only where its largest node gradient is at most GRAD_TOL max |M_ij|
(M at the chord midpoint) and its Hessian is positive definite, a strict local
minimum of the discrete energy. For constant metrics the straight chord
is already optimal. The path-integral controller consumes the optimized
tangents directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import PIVOT_TOL

ARMIJO_C = 1e-4
GRAD_TOL = 1e-8
MAX_ITERS = 500
DEFAULT_NODES = 32
MAX_SEGMENTS = 1024  # the Hessian is a dense ((N-1) n)^2 matrix


class GeodesicError(RuntimeError):
    pass


@dataclass
class GeodesicPath:
    nodes: np.ndarray  # (N+1) x n, nodes[0] = start, nodes[-1] = end
    energy: float
    iterations: int
    converged: bool

    def __post_init__(self):  # only an M that is not positive definite gives energy < 0
        if not np.isfinite(self.energy):
            raise GeodesicError(f"path energy is not finite ({self.energy:g})")
        if self.energy < 0.0:
            raise GeodesicError(f"metric not positive definite along the path "
                                f"(energy {self.energy:g})")

    def tangents(self):
        """Per-segment dx; sums telescope to end - start."""
        return np.diff(self.nodes, axis=0)

    def midpoints(self):
        return 0.5 * self.nodes[1:] + 0.5 * self.nodes[:-1]

    def length(self):
        return float(np.sqrt(self.energy))


def riemann_energy(metric, nodes):
    """Discrete energy with midpoint metric evaluation."""
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    if nodes.shape[0] < 2:
        raise ValueError("need at least 2 nodes")
    return _kernel(metric, nodes)[1]


def _kernel(metric, nodes):
    """The segment kernel's rows on the path `nodes`, and its energy."""
    kernel = metric.segment(0.5 * nodes[1:] + 0.5 * nodes[:-1], nodes[1:] - nodes[:-1])
    return kernel, len(kernel) * float(kernel[:, 0].sum())


def _gradient_and_hessian(kernel, dim):
    """The energy's gradient w.r.t. the interior nodes, `(N-1, n)`, and its
    dense `((N-1) n)^2` Hessian, from the segment kernel's rows.

    Node j sits between segments j-1 and j, so it gets
    2 M(mid_{j-1}) dx_{j-1} - 2 M(mid_j) dx_j plus, per axis a, half of
    dx^T dM/dx_a dx from both segments, all times N. With P the matrix
    whose row a is (dM/dx_a) dx and D = dx^T (d^2 M/dx_a dx_b) dx, a
    segment adds 2M -+ (P + P^T) + D/4 to its start and end node's
    diagonal block and -2M + P - P^T + D/4 to their coupling block.
    """
    n_seg = len(kernel)
    rows = n_seg * kernel
    pulls, bends = rows[:, 1:dim + 1], rows[:, dim + 1:2 * dim + 1]
    m, p, curv = rows[:, 2 * dim + 1:].reshape(n_seg, 3, dim, dim).transpose(1, 0, 2, 3)
    grad = 2.0 * (pulls[:-1] - pulls[1:]) + 0.5 * (bends[:-1] + bends[1:])
    m2, c4 = 2.0 * m, 0.25 * curv
    sym, skew = p + p.transpose(0, 2, 1), p - p.transpose(0, 2, 1)
    base, coupling = m2 + c4, (c4 - m2 + skew)[1:-1]
    hess = np.zeros((grad.size, grad.size))
    blocks = hess.reshape(n_seg - 1, dim, n_seg - 1, dim)
    # writable views of the diagonal, upper and lower block diagonals
    np.einsum("kakb->kab", blocks)[...] = (base + sym)[:-1] + (base - sym)[1:]
    np.einsum("kakb->kab", blocks[:-1, :, 1:])[...] = coupling
    np.einsum("kakb->kab", blocks[1:, :, :-1])[...] = coupling.transpose(0, 2, 1)
    return grad, hess


def _newton(metric, nodes, amplitude, grad_tol, on_iteration):
    """Newton's method with Armijo backtracking from the node array `nodes` to
    a node gradient of at most `grad_tol`: the start and each line-search trial
    is one call of the segment kernel; a segment with d^T M d < 0 raises.

    Where the Hessian H is not positive definite (its Cholesky fails) the
    step is -(H + tau I)^-1 g with tau = |lambda_min| - lambda_min (0 for a
    near-singular H >= 0), plus the unit eigenvector of lambda_min (from
    `eigvalsh`) times `amplitude`, pointed downhill (or, where g is
    orthogonal to it, with its largest entry positive). The eigenvector
    comes from three steps of inverse iteration on H - (lambda_min - delta) I,
    delta = 1e-6 max |H_ij|, from a fixed pseudo-random start (g is zero on
    a stationary chord); a singular shifted system, or an iterate whose norm
    is 0 or not finite, raises GeodesicError.
    """
    dim = nodes.shape[1]

    def price(trial):
        kernel, energy = _kernel(metric, trial)
        k = int(np.argmin(kernel[:, 0]))
        if kernel[k, 0] < 0.0:  # d^T M d < 0 at one midpoint
            raise GeodesicError(f"metric not positive definite at "
                                f"{(0.5 * trial[k] + 0.5 * trial[k + 1]).tolist()}")
        return kernel, energy

    kernel, energy = price(nodes)
    for iterations in range(MAX_ITERS + 1):
        grad, hess = _gradient_and_hessian(kernel, dim)
        try:
            np.linalg.cholesky(hess)
            definite = True
        except np.linalg.LinAlgError:
            definite = False
        if definite and np.linalg.norm(grad, axis=1).max() <= grad_tol:
            return nodes, energy, iterations, True
        if iterations == MAX_ITERS:
            break
        grad = grad.ravel()
        if definite:
            direction = -np.linalg.solve(hess, grad)
        else:
            try:
                low, eye = np.linalg.eigvalsh(hess)[0], np.eye(grad.size)
                direction = -np.linalg.solve(hess + (abs(low) - low) * eye, grad)
                shifted = hess - (low - 1e-6 * np.abs(hess).max()) * eye
                lowest = np.random.default_rng(0).standard_normal(grad.size)
                for _ in range(3):
                    lowest = np.linalg.solve(shifted, lowest)
                    norm = np.linalg.norm(lowest)
                    if not 0.0 < norm < np.inf:
                        raise GeodesicError(f"inverse iteration vector has norm {norm:g}")
                    lowest /= norm
            except np.linalg.LinAlgError:
                raise GeodesicError("shifted Hessian is singular") from None
            lowest *= np.sign(lowest[np.argmax(np.abs(lowest))])
            direction += amplitude * (-lowest if grad @ lowest > 0.0 else lowest)
        slope = float(grad @ direction)  # < 0: a descent direction
        step = 1.0
        while step > 1e-16:
            trial = nodes.copy()
            trial[1:-1] += step * direction.reshape(-1, dim)
            trial_kernel, trial_energy = price(trial)
            if trial_energy <= energy + ARMIJO_C * step * slope:
                break
            step *= 0.5
        else:
            break  # no descent step exists at working precision
        nodes, kernel, energy = trial, trial_kernel, trial_energy
        if on_iteration is not None:
            on_iteration(iterations + 1, energy)
    return nodes, energy, iterations, False


def solve_geodesic(metric, x_a, x_b, n_segments=DEFAULT_NODES, on_iteration=None):
    """Minimize discrete energy between x_a and x_b at fixed node count,
    in at most MAX_ITERS Newton steps, starting from the straight chord.

    The path is converged only where its largest node gradient is at most
    GRAD_TOL max |M_ij| (M at the chord midpoint, so c M takes the steps of M)
    and its Hessian is positive definite: a strict local minimum.
    A saddle (a straight chord can be exactly stationary) has a negative
    Hessian eigenvalue, and the step along its eigenvector, 0.05 |x_b - x_a|
    long, leaves it. A chord whose length, or a path whose energy, is not
    finite raises GeodesicError.
    """
    if not 2 <= n_segments <= MAX_SEGMENTS:
        raise ValueError(f"need 2 to {MAX_SEGMENTS} segments")
    x_a = np.asarray(x_a, dtype=float)
    x_b = np.asarray(x_b, dtype=float)
    fractions = np.linspace(0.0, 1.0, n_segments + 1)[:, None]
    straight = (1.0 - fractions) * x_a + fractions * x_b
    mid = 0.5 * x_a + 0.5 * x_b  # exact halves: no overflow for finite ends
    m_mid = metric.eval(mid)
    try:
        chol = np.linalg.cholesky(m_mid)
        # refuse an M that is not positive definite; cholesky accepts some
        # singular M, so a curved metric's pivots L_kk^2 also face the relative
        # tolerance of linalg.inverse's LU pivots
        if not metric.constant and np.diagonal(chol).min() ** 2 < PIVOT_TOL * np.abs(m_mid).max():
            raise np.linalg.LinAlgError("singular matrix")
    except np.linalg.LinAlgError:
        raise GeodesicError(f"metric not positive definite at the chord midpoint "
                            f"{mid.tolist()}") from None
    with np.errstate(over="ignore", invalid="ignore"):  # what overflows fails below
        delta = x_b - x_a
        if metric.constant:
            # uniform chord is the exact minimizer under a constant metric;
            # its energy telescopes to the endpoint quadratic form
            return GeodesicPath(
                nodes=straight,
                energy=float(delta @ m_mid @ delta),
                iterations=0,
                converged=True,
            )
        length = float(np.linalg.norm(delta))
    if not np.isfinite(length):
        raise GeodesicError(f"chord length is not finite ({length:g})")
    nodes, energy, iterations, converged = _newton(
        metric, straight, 0.05 * length, GRAD_TOL * np.abs(m_mid).max(), on_iteration)
    return GeodesicPath(nodes=nodes, energy=energy, iterations=iterations,
                        converged=converged)


def geodesic_distance(metric, x_a, x_b, n_segments=DEFAULT_NODES):
    return solve_geodesic(metric, x_a, x_b, n_segments).length()


def path_integral_controller(gain, metric, x, x_d, n_segments=DEFAULT_NODES):
    """The correction v = sum_k K(mid_k) dx_k along the minimal geodesic
    from x_d to x; the control is u = u_d + v."""
    x = np.asarray(x, dtype=float)
    x_d = np.asarray(x_d, dtype=float)
    path = solve_geodesic(metric, x_d, x, n_segments)
    if not path.converged:
        raise GeodesicError(
            f"geodesic solve did not converge in {path.iterations} iterations "
            f"(energy {path.energy:g})"
        )
    if gain.is_constant():
        return gain.constant_matrix @ (x - x_d)
    return np.einsum("kij,kj->i", gain(path.midpoints()), path.tangents())

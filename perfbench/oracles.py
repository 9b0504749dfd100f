"""Independent reference answers for the benchmark's output checks.

Nothing here shares code with the ccmkit routine it checks: geodesic
lengths come from Dijkstra on a lattice graph (and chord lengths from a
quadrature along the segment), and the dynamic-extension
tracking error from scipy's adaptive RK45 on the closed-loop ODE.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

LATTICE_STEPS = 48     # lattice steps along the longer side of the chord box
LATTICE_PAD = 0.6      # margin around the chord box, as a share of the chord
LATTICE_REACH = 4      # edges join nodes up to 4 steps apart per axis


def curved_demo_metric(points):
    """M(x) = diag(1/(1+x2^2)^2, 1) of configs/geodesic_demo.ini, batched."""
    points = np.atleast_2d(points)
    out = np.zeros((points.shape[0], 2, 2))
    out[:, 0, 0] = 1.0 / (1.0 + points[:, 1] ** 2) ** 2
    out[:, 1, 1] = 1.0
    return out


def lattice_distance(metric_fn, x_a, x_b):
    """Shortest path from x_a to x_b on a planar lattice through both points.

    Edge lengths use the metric at the edge midpoint; the lattice spacing is
    |x_b - x_a| / LATTICE_STEPS, and edges in every direction of reach
    LATTICE_REACH keep the angular error of straight runs below 1%.
    """
    x_a = np.asarray(x_a, dtype=float)
    x_b = np.asarray(x_b, dtype=float)
    delta = x_b - x_a
    spacing = float(np.max(np.abs(delta))) / LATTICE_STEPS
    steps = np.rint(np.abs(delta) / spacing).astype(int)
    step_len = np.where(steps > 0, delta / np.maximum(steps, 1), spacing)
    pad = int(math.ceil(LATTICE_PAD * LATTICE_STEPS))
    index = [np.arange(-pad, steps[d] + pad + 1) for d in range(2)]
    coords = [x_a[d] + step_len[d] * index[d] for d in range(2)]
    nx, ny = coords[0].size, coords[1].size
    gi, gj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    gi, gj = gi.ravel(), gj.ravel()
    rows, cols, weights = [], [], []
    for di in range(-LATTICE_REACH, LATTICE_REACH + 1):
        for dj in range(-LATTICE_REACH, LATTICE_REACH + 1):
            if (di, dj) == (0, 0) or math.gcd(abs(di), abs(dj)) != 1:
                continue
            ok = (gi + di >= 0) & (gi + di < nx) & (gj + dj >= 0) & (gj + dj < ny)
            i0, j0 = gi[ok], gj[ok]
            i1, j1 = i0 + di, j0 + dj
            p = np.stack([coords[0][i0], coords[1][j0]], axis=1)
            q = np.stack([coords[0][i1], coords[1][j1]], axis=1)
            d = q - p
            m = metric_fn(0.5 * (p + q))
            rows.append(i0 * ny + j0)
            cols.append(i1 * ny + j1)
            weights.append(np.sqrt(np.einsum("ki,kij,kj->k", d, m, d)))
    graph = coo_matrix(
        (np.concatenate(weights), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nx * ny, nx * ny),
    ).tocsr()
    source = pad * ny + pad
    target = (pad + steps[0]) * ny + (pad + steps[1])
    return float(dijkstra(graph, indices=source)[target])


def chord_length(metric_fn, x_a, x_b, samples=4000):
    """Length of the straight segment from x_a to x_b under the metric
    (midpoint rule); a geodesic is never longer."""
    x_a = np.asarray(x_a, dtype=float)
    delta = np.asarray(x_b, dtype=float) - x_a
    s = (np.arange(samples) + 0.5) / samples
    m = metric_fn(x_a + s[:, None] * delta)
    return float(np.sqrt(np.einsum("i,kij,j->k", delta, m, delta)).mean())


def dynext_final_error(system, reference, gain_beta, x0, z0, ell, T):
    """Tracking error |x(T) - xd(T)| of the dynamic-extension closed loop,
    integrated by RK45 at rtol 1e-10 (the oracle of the scenario-A test)."""
    n = system.n

    def rhs(t, y):
        x, xd, z = y[:n], y[n:2 * n], y[2 * n:]
        ud = reference.eval_ud(t, xd)
        u = ud + gain_beta(x, z) - gain_beta(xd, z)
        fx = system.eval_f(x) + system.eval_b(x) @ u
        fxd = system.eval_f(xd) + system.eval_b(xd) @ ud
        return np.concatenate([fx, fxd, fx - ell * (z - x)])

    y0 = np.concatenate([x0, reference.xd0, z0])
    sol = solve_ivp(rhs, (0.0, T), y0, method="RK45", rtol=1e-10, atol=1e-12,
                    t_eval=[T])
    if not sol.success:
        raise RuntimeError(f"RK45 oracle failed: {sol.message}")
    y = sol.y[:, -1]
    return float(np.linalg.norm(y[:n] - y[n:2 * n]))

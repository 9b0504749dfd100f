"""Fixed-step RK4 integration plus an adaptive RK45 oracle.

Every fixed-step run steps with `rk4_step` on `time_grid`, which ends
exactly at the final time, and counts as diverged once its state passes
`DIVERGENCE_LIMIT`. The adaptive integrator (scipy's Dormand-Prince
pair) is kept as an independent cross-check and never shares code with
RK4.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

DIVERGENCE_LIMIT = 1e9


class IntegrationError(RuntimeError):
    def __init__(self, message, t):
        super().__init__(f"{message} at t = {t:g}")
        self.t = t


def rk4_step(field, x, t, h):
    """One classical 4th-order Runge-Kutta step of x' = field(t, x)."""
    if h <= 0.0:
        raise ValueError("step size must be positive")
    x = np.asarray(x, dtype=float)
    k1 = np.asarray(field(t, x), dtype=float)
    k2 = np.asarray(field(t + 0.5 * h, x + 0.5 * h * k1), dtype=float)
    k3 = np.asarray(field(t + 0.5 * h, x + 0.5 * h * k2), dtype=float)
    k4 = np.asarray(field(t + h, x + h * k3), dtype=float)
    out = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise IntegrationError("non-finite state in RK4 step", t)
    return out


def time_grid(t0, t1, h):
    """Times t0, t0 + h, ... of a fixed-step run over [t0, t1].

    The final step is shortened so the grid ends exactly at t1.
    """
    # a remainder below 1e-6 of a step is rounding error, not a step
    n_steps = int(np.ceil((t1 - t0) / h - 1e-6))
    times = t0 + h * np.arange(n_steps + 1)
    times[-1] = t1
    return times


def rk4_solve(field, x0, t0, t1, h):
    """Integrate on `time_grid(t0, t1, h)`; returns (times, states) arrays."""
    x = np.asarray(x0, dtype=float)
    times = time_grid(t0, t1, h)
    states = np.empty((times.size, x.size))
    states[0] = x
    for k in range(times.size - 1):
        x = rk4_step(field, x, times[k], times[k + 1] - times[k])
        states[k + 1] = x
    return times, states


def rk45_integrate(field, x0, t_span, rel_tol=1e-10, abs_tol=1e-12, t_eval=None):
    """Adaptive 4(5) integration; oracle for cross-checking RK4 runs."""
    if rel_tol < 1e-12:
        raise ValueError("rel_tol must be >= 1e-12")
    sol = solve_ivp(
        field,
        t_span,
        np.asarray(x0, dtype=float),
        method="RK45",
        rtol=rel_tol,
        atol=abs_tol,
        t_eval=t_eval,
        dense_output=t_eval is None,
    )
    if not sol.success:
        raise IntegrationError(f"adaptive integration failed: {sol.message}", sol.t[-1])
    return sol.t, sol.y.T

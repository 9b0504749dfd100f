"""Fixed-step RK4 integration plus an adaptive RK45 oracle.

Every fixed-step run steps on `time_grid`, which ends exactly at the
final time, with `rk4_step` or its generated twin `rk4_exprs`, and
counts as diverged past `DIVERGENCE_LIMIT`. The adaptive integrator
(scipy's Dormand-Prince pair) is an independent cross-check sharing no
code with RK4; no command calls it, and scipy, which it imports when it
runs, comes with the `test` extra only.
"""

from __future__ import annotations

import math

import numpy as np

from . import expr as ex

DIVERGENCE_LIMIT = 1e9


class IntegrationError(RuntimeError):
    def __init__(self, message, t):
        super().__init__(f"{message} at t = {t:g}")
        self.t = t


def rk4_step(field, x, t, h):
    """One classical 4th-order Runge-Kutta step of x' = field(t, x) on
    Python floats: x and the values of field (called with a list) may be
    any float sequences; the new state is returned as a list."""
    if h <= 0.0:
        raise ValueError("step size must be positive")
    x = [float(v) for v in x]
    half = 0.5 * h
    k1 = field(t, x)
    k2 = field(t + half, [a + half * b for a, b in zip(x, k1, strict=True)])
    k3 = field(t + half, [a + half * b for a, b in zip(x, k2, strict=True)])
    k4 = field(t + h, [a + h * b for a, b in zip(x, k3, strict=True)])
    sixth = h / 6.0
    out = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
           for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4, strict=True)]
    if not all(map(math.isfinite, out)):
        raise IntegrationError("non-finite state in RK4 step", t)
    return out


def rk4_exprs(rates, state_names):
    """`rk4_step` of y' = rates, operation for operation, as expressions over t,
    h, `state_names` and what else the rates read; each inner stage is one
    substitution into the rates. Raw nodes: on floats y + h/2*0 is not y at y = -0.0."""
    def op(kind, a, b):
        return ex.Expr(kind, args=(a, b))

    t, h, ys = ex.var("t"), ex.var("h"), [ex.var(name) for name in state_names]
    half, two, ks = op("mul", ex.const(0.5), h), ex.const(2.0), [rates]
    for time, step in [(op("add", t, half), half)] * 2 + [(op("add", t, h), h)]:
        moved = {y.name: op("add", y, op("mul", step, k)) for y, k in zip(ys, ks[-1], strict=True)}
        ks.append(ex.substitute(rates, {"t": time, **moved}))
    sixth = op("div", h, ex.const(6.0))
    return [op("add", y, op("mul", sixth, op("add", op("add", op("add", k1, op("mul", two, k2)),
                                                         op("mul", two, k3)), k4)))
            for y, k1, k2, k3, k4 in zip(ys, *ks, strict=True)]


def grid_steps(t0, t1, h):
    """The number of steps of `time_grid(t0, t1, h)`: at least one."""
    # a remainder below 1e-6 of a step is rounding error, not a step
    return max(1, int(np.ceil((t1 - t0) / h - 1e-6)))


def time_grid(t0, t1, h, start=0, stop=None):
    """Times t0, t0 + h, ... of a fixed-step run over [t0, t1], or its points
    start to stop - 1, which are the same floats.

    The final step is shortened so the grid ends exactly at t1; there is
    at least one step, so the grid starts at t0 even when h exceeds t1 - t0.
    """
    last = grid_steps(t0, t1, h)
    stop = last + 1 if stop is None else stop
    inner = t0 + h * np.arange(max(start, 1), min(stop, last), dtype=float)
    return np.concatenate([[t0] if start == 0 else [], inner, [t1] if stop > last else []])


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
    from scipy.integrate import solve_ivp

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
    )
    if not sol.success:
        raise IntegrationError(f"adaptive integration failed: {sol.message}", sol.t[-1])
    return sol.t, sol.y.T

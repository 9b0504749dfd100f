"""Closed-loop simulation of plant + reference (+ observer state z).

Each run generates its closed loop, one ODE in x, x_d and z, as one
compiled field with u = u_d(t, x_d) + v, stepped by `integrate.rk4_step`
on `integrate.time_grid` (so every trace ends exactly at T). u_d and the
custom or static feedback are folded into the field; the static law
u_d + beta(x) - beta(x_d) is the radial potential generated on the gain's
expressions (`controller.radial_potential_exprs`). The dynamic-extension
and geodesic corrections are computed once per step and passed as v over
it (zero-order hold); the dynext one is compiled once per gain
(`GainField.dynext_correction`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import expr as ex
from .controller import EXACTNESS_TOL, exactness_residual, radial_potential_exprs
from .geodesic import DEFAULT_NODES, GeodesicError, path_integral_controller
from .integrate import DIVERGENCE_LIMIT, IntegrationError, rk4_step, time_grid
from .model import _parse_entry, state_vars

CONTROLLER_KINDS = ("static", "dynext", "geodesic", "custom")
CSV_BLOCK = 1024  # rows formatted per % in SimTrace.write_csv


class SimulationError(RuntimeError):
    pass


@dataclass
class RunConfig:
    kind: str = "dynext"
    T: float = 20.0
    h: float = 1e-3
    x0: np.ndarray = None
    z0: np.ndarray = None
    ell: float = 5.0
    geodesic_segments: int = DEFAULT_NODES
    custom_u: list = None      # m expressions over {t, x*, xd*, z*}
    exactness_grid: object = None
    err_threshold: float = 1e-2

    def __post_init__(self):
        if self.kind not in CONTROLLER_KINDS:
            raise SimulationError(f"unknown controller kind {self.kind!r}")
        if not (self.T > 0 and self.h > 0):  # also rejects nan
            raise SimulationError("need T > 0 and h > 0")
        if self.T / self.h > 1e7:
            raise SimulationError("T/h exceeds the 1e7 step cap")
        if self.geodesic_segments < 2:
            raise SimulationError("need geodesic_N >= 2 segments")
        if not self.ell > 0:  # also rejects nan
            raise SimulationError("need ell > 0")


@dataclass
class SimTrace:
    t: np.ndarray
    x: np.ndarray
    xd: np.ndarray
    u: np.ndarray
    ud: np.ndarray
    err: np.ndarray
    z: np.ndarray = None
    flags: list = field(default_factory=list)
    completed: bool = True

    def final_err(self):
        return float(self.err[-1])

    def columns(self):
        groups = [("x", self.x), ("xd", self.xd), ("z", self.z), ("u", self.u),
                  ("ud", self.ud)]
        groups = [(name, block) for name, block in groups if block is not None]
        names = ["t"]
        names += [f"{name}{i + 1}" for name, block in groups
                  for i in range(block.shape[1])]
        blocks = [self.t[:, None]] + [block for _, block in groups]
        return names + ["err"], np.hstack(blocks + [self.err[:, None]])

    def write_csv(self, stream):
        names, data = self.columns()
        stream.write(",".join(names) + "\n")
        row_format = ",".join(["%.17g"] * len(names)) + "\n"
        for start in range(0, len(data), CSV_BLOCK):  # one % per block of rows
            block = data[start : start + CSV_BLOCK]
            stream.write((row_format * len(block)) % tuple(block.ravel().tolist()))


def _require_exact(gain, grid):
    if gain.is_constant():
        return
    if grid is None:
        raise SimulationError(
            "static controller on a non-constant gain needs exactness_grid"
        )
    residual, witness = exactness_residual(gain, grid)
    if residual > EXACTNESS_TOL:
        raise SimulationError(
            f"static controller needs an exact gain: residual "
            f"{residual:g} at x={witness}; use dynext or geodesic"
        )


def _plant(sys, u, rename):
    """f + B u with the state variables renamed by the `rename` mapping."""
    b = [[ex.substitute(entry, rename) for entry in row] for row in sys.b_exprs]
    return [ex.add(ex.substitute(f, rename), bu) for f, bu in zip(sys.f_exprs, ex.matvec(b, u))]


def _controller(sys, metric, gain, cfg, variables, x, xd, ud, v):
    """Resolve cfg.kind into (u, correction): u holds m control expressions
    over `variables` (t, x, xd, z) and v; correction(*y), when not None,
    gives v at state y, held over the step."""
    n = sys.n
    if cfg.kind == "custom":
        if not cfg.custom_u:
            raise SimulationError("custom controller needs expressions")
        u = [_parse_entry(e, variables) for e in cfg.custom_u]
        if len(u) != sys.m:
            raise SimulationError(f"custom controller needs {sys.m} expressions")
        return u, None
    if cfg.kind == "static":
        _require_exact(gain, cfg.exactness_grid)
        beta_x, beta_xd = radial_potential_exprs(gain, x), radial_potential_exprs(gain, xd)
        return [ex.add(a, ex.sub(b, c)) for a, b, c in zip(ud, beta_x, beta_xd)], None
    u = [ex.add(a, b) for a, b in zip(ud, v)]
    if cfg.kind == "dynext":
        return u, gain.dynext_correction
    warm = None

    def correction(*y):
        nonlocal warm
        held, warm = path_integral_controller(
            gain, metric, y[:n], y[n : 2 * n], np.zeros(sys.m), cfg.geodesic_segments, path=warm
        )
        return held.tolist()

    return u, correction


def run_closed_loop(sys, metric, gain, ref, cfg: RunConfig):
    """Simulate tracking of the reference under the configured controller.

    Failures (divergence, NaN, a non-finite control, geodesic breakdown)
    truncate the trace and set a flag instead of raising, so sweeps
    survive bad samples.
    """
    n = sys.n
    xd0 = np.asarray(ref.xd0, dtype=float)
    x0 = np.asarray(cfg.x0 if cfg.x0 is not None else xd0, dtype=float)
    use_z = cfg.kind in ("dynext", "custom")
    z0 = np.asarray(cfg.z0 if cfg.z0 is not None else xd0, dtype=float)
    names = ["t"] + state_vars(n) + [f"xd{i + 1}" for i in range(n)]
    names += [f"z{i + 1}" for i in range(n)] if use_z else []
    x, xd, z = ([ex.var(name) for name in names[1 + i * n : 1 + (i + 1) * n]] for i in range(3))
    v = [ex.var(f"v{j + 1}") for j in range(sys.m)]
    u, correction = _controller(sys, metric, gain, cfg, names, x, xd, ref.ud_exprs, v)

    # x' = f(x) + B(x) u, xd' = f(xd) + B(xd) ud and z' = x' - ell (z - x)
    fx = _plant(sys, u, {})
    rates = fx + _plant(sys, ref.ud_exprs, dict(zip(state_vars(n), xd)))
    if use_z:
        rates += [ex.sub(a, ex.mul(ex.const(cfg.ell), ex.sub(c, b))) for a, b, c in zip(fx, x, z)]
    names += [e.name for e in v] if correction else []
    closed_loop = ex.compile_fn(rates, names)
    law = ex.compile_fn([u, ref.ud_exprs], names)
    held = []

    def stage(t, y):
        return closed_loop(t, *y, *held)

    times = time_grid(0.0, cfg.T, cfg.h)
    state = np.concatenate([x0, xd0, z0] if use_z else [x0, xd0]).tolist()
    states = np.empty((times.size, len(state)))
    # NaN where the controller failed; u and ud come from one call
    us = np.full((times.size, sys.m), np.nan)
    uds = np.full((times.size, sys.m), np.nan)
    flags = []
    for k in range(times.size):
        t = float(times[k])  # Python floats: 1/0 raises instead of giving inf
        states[k] = state
        try:
            if correction is not None:
                held = correction(*state)
            u_k, uds[k] = law(t, *state, *held)
            if not all(map(math.isfinite, u_k)):
                raise ArithmeticError("non-finite control")
            us[k] = u_k
        except (GeodesicError, ArithmeticError, ValueError) as err:
            flags.append(f"controller failure at t={t:g}: {err}")
            break
        if k + 1 == times.size:
            break
        try:
            state = rk4_step(stage, state, t, float(times[k + 1]) - t)
            if max(map(abs, state)) > DIVERGENCE_LIMIT:
                raise IntegrationError("state divergence", times[k + 1])
        except (IntegrationError, ArithmeticError, ValueError) as err:
            flags.append(f"numerical failure at t={t:g}: {err}")
            break

    completed = not flags
    end = k + 1
    xs, xds = states[:end, :n], states[:end, n : 2 * n]
    domain_exits = times[:end][~sys.in_domain(xs)].tolist()
    if domain_exits:
        flags.append(
            f"plant left the domain box at t={domain_exits[0]:g} "
            f"({len(domain_exits)} samples)"
        )
    return SimTrace(
        t=times[:end],
        x=xs,
        xd=xds,
        u=us[:end],
        ud=uds[:end],
        err=np.linalg.norm(xs - xds, axis=1),
        z=states[:end, 2 * n :] if use_z else None,
        flags=flags,
        completed=completed,
    )


def decay_rate(trace, window):
    """Least-squares slope of -log err(t) over [t_a, t_b]."""
    t_a, t_b = window
    mask = (trace.t >= t_a) & (trace.t <= t_b)
    if not np.any(mask):
        raise ValueError(f"window [{t_a}, {t_b}] not covered by the trace")
    errs = trace.err[mask]
    if np.any(errs <= 1e-12):
        raise ValueError("err underflows 1e-12 on the window; rate fit unreliable")
    ts = trace.t[mask]
    slope, _ = np.polyfit(ts, -np.log(errs), 1)
    return float(slope)


def perturbation_sweep(sys, metric, gain, ref, cfg, radii, samples, seed=0):
    """Convergence fraction vs initial-offset radius.

    For each radius, x0 is sampled uniformly on the sphere around xd0;
    a run converges when it completes with err(T) < cfg.err_threshold.
    """
    rng = np.random.default_rng(seed)
    xd0 = np.asarray(ref.xd0, dtype=float)
    results = []
    for radius in radii:
        if radius < 0:
            raise ValueError("radii must be nonnegative")
        hits = 0
        for _ in range(samples):
            if radius == 0.0:
                x0 = xd0.copy()
            else:
                direction = rng.standard_normal(sys.n)
                direction /= np.linalg.norm(direction)
                x0 = xd0 + radius * direction
            try:
                trace = run_closed_loop(sys, metric, gain, ref, replace(cfg, x0=x0))
            except SimulationError:
                continue
            if trace.completed and trace.final_err() < cfg.err_threshold:
                hits += 1
        results.append((float(radius), hits / samples))
    return results

"""Closed-loop simulation of plant + reference (+ observer state z).

Plant, reference and z are integrated as one coupled state vector with
`integrate.rk4_step` on `integrate.time_grid`, so there is no
interpolation skew between them and every trace ends exactly at T. The
feedforward u_d(t, x_d) is evaluated at every RK4 stage, and so is the
feedback of the static and custom kinds. The geodesic and
dynamic-extension corrections, whose per-evaluation cost dominates, are
computed once per step and held over it (zero-order hold).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import expr as ex
from .controller import EXACTNESS_TOL, dynext_control, exactness_residual, radial_potential
from .geodesic import GeodesicError, path_integral_controller
from .integrate import DIVERGENCE_LIMIT, IntegrationError, rk4_step, time_grid
from .model import float_args, state_vars

CONTROLLER_KINDS = ("static", "dynext", "geodesic", "custom")


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
    geodesic_segments: int = 32
    custom_u: list = None      # m expressions over {t, x*, xd*, z*}
    exactness_grid: object = None
    err_threshold: float = 1e-2

    def __post_init__(self):
        if self.kind not in CONTROLLER_KINDS:
            raise SimulationError(f"unknown controller kind {self.kind!r}")
        if self.T <= 0 or self.h <= 0:
            raise SimulationError("need T > 0 and h > 0")
        if self.T / self.h > 1e7:
            raise SimulationError("T/h exceeds the 1e7 step cap")


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
        for row in data:
            stream.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _custom_controller_fn(sys, exprs):
    variables = (
        ["t"]
        + state_vars(sys.n)
        + [f"xd{i + 1}" for i in range(sys.n)]
        + [f"z{i + 1}" for i in range(sys.n)]
    )
    parsed = [e if isinstance(e, ex.Expr) else ex.parse(e, variables) for e in exprs]
    if len(parsed) != sys.m:
        raise SimulationError(f"custom controller needs {sys.m} expressions")
    fn = ex.compile_fn(parsed, variables)

    def control(t, x, xd, z):
        return np.array(fn(*float_args((t, *x, *xd, *z))))

    return control


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


def _controller(sys, metric, gain, cfg):
    """Resolve cfg.kind into (law, update).

    law(t, x, xd, z, ud, held) gives u at any RK4 stage. update(x, xd, z),
    when not None, runs once per step and its result is passed to law as
    `held` for the whole step.
    """
    if cfg.kind == "custom":
        if not cfg.custom_u:
            raise SimulationError("custom controller needs expressions")
        custom_fn = _custom_controller_fn(sys, cfg.custom_u)
        return (lambda t, x, xd, z, ud, held: custom_fn(t, x, xd, z)), None
    if cfg.kind == "static":
        _require_exact(gain, cfg.exactness_grid)
        return (lambda t, x, xd, z, ud, held:
                ud + (radial_potential(gain, x) - radial_potential(gain, xd))), None
    if cfg.kind == "dynext":

        # beta(x) - beta(xd) may be inf - inf; the loop flags a non-finite u
        @np.errstate(invalid="ignore", over="ignore")
        def update(x, xd, z):
            return dynext_control(gain, z, x, xd, 0.0)
    else:
        warm = None

        def update(x, xd, z):
            nonlocal warm
            held, warm = path_integral_controller(
                gain, metric, x, xd, np.zeros(sys.m), cfg.geodesic_segments, path=warm
            )
            return held

    return (lambda t, x, xd, z, ud, held: ud + held), update


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
    law, update = _controller(sys, metric, gain, cfg)

    def split(y):
        return y[:n], y[n : 2 * n], y[2 * n :] if use_z else None

    def rhs(t, y):
        x, xd, z = split(y)
        ud = ref.eval_ud(t, xd)
        fx = sys.eval_f(x) + sys.eval_b(x) @ law(t, x, xd, z, ud, held)
        fxd = sys.eval_f(xd) + sys.eval_b(xd) @ ud
        return np.concatenate([fx, fxd, fx - cfg.ell * (z - x)] if use_z else [fx, fxd])

    times = time_grid(0.0, cfg.T, cfg.h)
    state = np.concatenate([x0, xd0, z0] if use_z else [x0, xd0])
    states = np.empty((times.size, state.size))
    us = np.full((times.size, sys.m), np.nan)  # NaN where the controller failed
    uds = np.empty((times.size, sys.m))
    flags = []
    held = None
    for k, t in enumerate(times):
        states[k] = state
        x, xd, z = split(state)
        uds[k] = ud = ref.eval_ud(t, xd)
        try:
            if update is not None:
                held = update(x, xd, z)
            u = law(t, x, xd, z, ud, held)
            if not all(map(math.isfinite, u.tolist())):
                raise ArithmeticError("non-finite control")
            us[k] = u
        except (GeodesicError, ArithmeticError, ValueError) as err:
            flags.append(f"controller failure at t={t:g}: {err}")
            break
        if k + 1 == times.size:
            break
        try:
            state = rk4_step(rhs, state, t, times[k + 1] - t)
            if np.max(np.abs(state)) > DIVERGENCE_LIMIT:
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

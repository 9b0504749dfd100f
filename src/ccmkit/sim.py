"""Closed-loop simulation of plant + reference (+ observer state z).

The closed loop, one ODE in x, x_d and z with u = u_d(t, x_d) + v, runs as one
generated function (`_RUN`) over the whole `integrate.time_grid`, which ends at
T: per grid point the law (u, u_d, v), then one RK4 step (`integrate.rk4_exprs`)
with v held, both one straight-line program, so the step reads the step-start
values the law computed; each keeps its own failure checks. The static law is the
gain's radial potential (`controller.radial_potential_exprs`), the dynext v comes
from `controller.dynext_beta_exprs` and the geodesic v from a Python callback. It
is built once for runs that differ only in x0, z0, T, h or the geodesic settings.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field, replace

import numpy as np

from . import expr as ex
from .controller import (EXACTNESS_TOL, dynext_beta_exprs, exactness_residual,
                         radial_potential_exprs)
from .geodesic import DEFAULT_NODES, MAX_SEGMENTS, GeodesicError, path_integral_controller
from .integrate import DIVERGENCE_LIMIT, IntegrationError, rk4_exprs, time_grid
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
        if not (0 < self.T < math.inf and 0 < self.h < math.inf):  # also rejects nan
            raise SimulationError("need finite T > 0 and h > 0")
        if self.T / self.h > 1e7:
            raise SimulationError("T/h exceeds the 1e7 step cap")
        if not 2 <= self.geodesic_segments <= MAX_SEGMENTS:
            raise SimulationError(f"need 2 <= geodesic_N <= {MAX_SEGMENTS} segments")
        if not 0 < self.ell < math.inf:
            raise SimulationError("need finite ell > 0")
        if not 0 < self.err_threshold < math.inf:
            raise SimulationError("need finite err_threshold > 0")


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
        groups = [("x", self.x), ("xd", self.xd), ("z", self.z), ("u", self.u), ("ud", self.ud)]
        groups = [(name, block) for name, block in groups if block is not None]
        names = ["t"] + [f"{name}{i + 1}" for name, block in groups for i in range(block.shape[1])]
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
        raise SimulationError("static controller on a non-constant gain needs exactness_grid")
    try:
        residual, witness = exactness_residual(gain, grid)
    except ArithmeticError as err:
        raise SimulationError(f"exactness check failed: {err}") from None
    if residual > EXACTNESS_TOL:
        raise SimulationError(f"static controller needs an exact gain: residual {residual:g} "
                              f"at x={witness}; use dynext or geodesic")


def _plant(sys, u, rename):
    """f + B u with the state variables renamed by the `rename` mapping."""
    b = [[ex.substitute(entry, rename) for entry in row] for row in sys.b_exprs]
    return [ex.add(ex.substitute(f, rename), bu) for f, bu in zip(sys.f_exprs, ex.matvec(b, u))]


_BUILT = [((), None)]  # (key, run) of the last closed loop built, read and set at once
# A closed loop's run over the time grid `_times`: per grid point the law's lines,
# then the RK4 step's lines with v held, each in its own try block. It passes each
# state, u and u_d row to its _put_* callables and returns (k, stage, error) at the
# first failure, else (k, None, None) at the last grid index k.
_RUN = """def fn(_times, _put_y, _put_u, _put_ud, {y}, _correction):
    for _k in range(len(_times)):
        t = _times[_k]
        _put_y(({y},))
        try:
            {law}
            _put_ud(({ud},))
            if not ({u_finite}):
                raise ArithmeticError("non-finite control")
        except (GeodesicError, ArithmeticError, ValueError) as _err:
            return _k, "controller", _err
        _put_u(({u},))
        if _k + 1 == len(_times):
            return _k, None, None
        h = _times[_k + 1] - t
        try:
            {step}
            {y} = {y_next}
            if not ({y_finite}):
                raise IntegrationError("non-finite state in RK4 step", t)
            if {y_diverged}:
                raise IntegrationError("state divergence", _times[_k + 1])
        except (IntegrationError, ArithmeticError, ValueError) as _err:
            return _k, "numerical", _err
"""
_RUN_NAMES = {"len": len, "range": range, "isfinite": math.isfinite, "ValueError": ValueError,
              "ArithmeticError": ArithmeticError, "GeodesicError": GeodesicError,
              "IntegrationError": IntegrationError, "DIVERGENCE_LIMIT": DIVERGENCE_LIMIT}
_NEXT_LINE = "\n" + " " * 12  # of a block in _RUN


def _closed_loop(sys, metric, gain, ref, cfg):
    """The closed loop's `_RUN`, compiled unless the last call had the same objects
    (held, so `is` cannot alias) and settings."""
    key = (sys, metric, gain, ref, cfg.exactness_grid, cfg.kind, cfg.ell, tuple(cfg.custom_u or ()))
    last, built = _BUILT[0]
    if key[5:] == last[5:] and all(a is b for a, b in zip(key[:5], last)):
        return built
    n, m, ud, use_z = sys.n, sys.m, ref.ud_exprs, cfg.kind in ("dynext", "custom")
    names = ["t"] + [f"{p}{i + 1}" for p in ("x", "xd", "z")[: 3 if use_z else 2] for i in range(n)]
    x, xd, z = ([ex.var(name) for name in names[1 + i * n : 1 + (i + 1) * n]] for i in range(3))
    held = [f"v{j + 1}" for j in range(m)] if cfg.kind in ("dynext", "geodesic") else []
    v = [ex.var(name) for name in held]
    if cfg.kind == "custom":  # m expressions over t, x, xd and z
        if len(cfg.custom_u or ()) != m:
            raise SimulationError(f"custom controller needs {m} expressions")
        u = [_parse_entry(e, names) for e in cfg.custom_u]
    elif cfg.kind == "static":
        _require_exact(gain, cfg.exactness_grid)
        beta_x, beta_xd = radial_potential_exprs(gain, x), radial_potential_exprs(gain, xd)
        u = [ex.add(a, ex.sub(b, c)) for a, b, c in zip(ud, beta_x, beta_xd)]
    else:  # u_d plus the held correction v
        u = [ex.add(a, b) for a, b in zip(ud, v)]
    # x' = f(x) + B(x) u, xd' = f(xd) + B(xd) ud and z' = x' - ell (z - x)
    fx = _plant(sys, u, {})
    rates = fx + _plant(sys, ud, dict(zip(state_vars(n), xd)))
    if use_z:
        rates += [ex.sub(a, ex.mul(ex.const(cfg.ell), ex.sub(c, b))) for a, b, c in zip(fx, x, z)]
    if cfg.kind == "dynext":  # the law computes v = beta(x, z) - beta(xd, z)
        beta = zip(dynext_beta_exprs(gain, x, z), dynext_beta_exprs(gain, xd, z))
        v = [ex.sub(a, b) for a, b in beta]
        u = [ex.add(a, b) for a, b in zip(ud, v)]
    # one program, law first: the law's lines end at the last local its entries name
    lines, texts = ex._straight_line([u, ud, v, rk4_exprs(rates, names[1:])])
    k = 2 * m + len(v)  # the law's entries
    split = max((int(a[1:]) + 1 for a in texts[:k] if a.startswith("_")), default=0)
    (law, step), y = (lines[:split], lines[split:]), ", ".join(names[1:])
    if cfg.kind == "geodesic":  # the law reads v from the run's callback
        law.insert(0, f"{', '.join(held)}, = _correction({y})")
    law += [f"{a} = {b}" for a, b in zip(held, texts[2 * m :]) if a != b]  # v, held over the step
    built = ex.compile_source(_RUN.format(
        y=y, y_next=", ".join(texts[k:]), u=", ".join(texts[:m]), ud=", ".join(texts[m : 2 * m]),
        law=_NEXT_LINE.join(law), step=_NEXT_LINE.join(step),
        u_finite=" and ".join(f"isfinite({a})" for a in texts[:m]),
        y_finite=" and ".join(f"isfinite({a})" for a in names[1:]),
        y_diverged=" or ".join(f"abs({a}) > DIVERGENCE_LIMIT" for a in names[1:])), _RUN_NAMES)
    _BUILT[0] = key, built
    return built


def run_closed_loop(sys, metric, gain, ref, cfg: RunConfig):
    """Simulate tracking of the reference under the configured controller. Failures
    (divergence, NaN, a non-finite control, geodesic breakdown) truncate the trace
    and set a flag instead of raising, so sweeps survive bad samples."""
    n, use_z = sys.n, cfg.kind in ("dynext", "custom")
    xd0 = np.asarray(ref.xd0, dtype=float)
    x0 = np.asarray(cfg.x0 if cfg.x0 is not None else xd0, dtype=float)
    z0 = np.asarray(cfg.z0 if cfg.z0 is not None else xd0, dtype=float)
    if x0.shape != (n,) or z0.shape != (n,):
        raise SimulationError(f"x0 and z0 need {n} entries, got shapes {x0.shape} and {z0.shape}")
    run = _closed_loop(sys, metric, gain, ref, cfg)
    times = time_grid(0.0, cfg.T, cfg.h)
    state = np.concatenate([x0, xd0, z0] if use_z else [x0, xd0]).tolist()
    bufs = array("d"), array("d"), array("d")  # states, u and u_d, row by row

    def correction(*y):  # the geodesic v at state y
        return path_integral_controller(gain, metric, y[:n], y[n:], np.zeros(sys.m),
                                        cfg.geodesic_segments).tolist()
    # the run reads and writes Python floats: 1/0 raises instead of giving inf
    k, stage, err = run(array("d", times.tobytes()), *(b.extend for b in bufs), *state, correction)
    flags = [f"{stage} failure at t={times[k]:g}: {err}"] if stage else []
    completed, end = not flags, k + 1
    for buf in bufs[1:]:  # NaN u and u_d where the law failed
        buf.extend([math.nan] * (end * sys.m - len(buf)))
    states, us, uds = (np.frombuffer(buf).reshape(end, -1) for buf in bufs)
    xs, xds = states[:, :n], states[:, n : 2 * n]
    exits = times[:end][~sys.in_domain(xs)].tolist()
    if exits:
        flags.append(f"plant left the domain box at t={exits[0]:g} ({len(exits)} samples)")
    return SimTrace(t=times[:end], x=xs, xd=xds, u=us, ud=uds,
                    err=np.linalg.norm(xs - xds, axis=1),
                    z=states[:, 2 * n :] if use_z else None, flags=flags, completed=completed)


def decay_rate(trace, window):
    """Least-squares slope of -log err(t) over [t_a, t_b]."""
    t_a, t_b = window
    mask = (trace.t >= t_a) & (trace.t <= t_b)
    if np.count_nonzero(mask) < 2:
        raise ValueError(f"window [{t_a}, {t_b}] holds {np.count_nonzero(mask)} samples; "
                         "a rate needs two")
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
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if not all(np.isfinite(radius) and radius >= 0 for radius in radii):
        raise ValueError("radii must be finite and nonnegative")
    rng = np.random.default_rng(seed)
    xd0 = np.asarray(ref.xd0, dtype=float)
    results = []
    for radius in radii:
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

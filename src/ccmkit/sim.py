"""Closed-loop simulation of plant + reference (+ observer state z).

The closed loop, one ODE in x, x_d and z with u = u_d(t, x_d) + v, is one
straight-line program per grid point of `integrate.time_grid`, which ends at T:
the law (u, u_d), then one RK4 step (`integrate.rk4_exprs`), which reads the
step-start values the law computed. The static v = beta(x) - beta(x_d)
(`controller.radial_potential_exprs`) and the dynext v = beta(x, z) - beta(x_d, z)
(`controller.dynext_correction_exprs`) are part of the rates, so every RK4 stage
evaluates them; the geodesic v comes from a Python callback at the step start and
is held over the step, a sampled-data law. It runs as two passes of one generated
template: the reference pass, over the lines that read only t, h, x_d and literals
(u_d, the x_d step, beta(x_d) of the static law), stores one row per grid point,
and the plant pass runs the other lines on those rows. A sweep runs the reference
pass once and the plant pass per sample; a single run is a sweep of one sample.
Each block keeps its own failure checks, the same in both passes. Both passes are
built once for runs that differ only in x0, z0, T, h or the geodesic settings.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from . import expr as ex
from .controller import (EXACTNESS_TOL, dynext_correction_exprs, exactness_residual,
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


_BUILT = [((), None)]  # (key, passes) of the last closed loop built, read and set at once
# A closed loop runs as two passes of one template over the time grid `_times`: per
# row of `_rows`, read into the names `row`, a law block and, but at row `_last`, an
# RK4 step block on the state `y`. Each pass hands `_put` the law's values, with NaN
# for all but the first `kept` where the law failed, then the step's values, if it
# has any, with NaN where the step did not run. The reference pass, on rows (t, h),
# runs the lines that read only t, h, xd* and literals and passes one row per point:
# (t, x_d, u_d, h, the reference values the plant pass reads). The plant pass runs
# the other lines on those rows and passes (x, z, u) per point; when the rows end
# before row `_last`, it records x there with NaN u. Each returns (k, stage, error)
# at its first failure, stage "law" (a law line raised), "control" (a non-finite u)
# or "step", else (k, None, None) at its last grid index k.
_PASS = """def fn(_rows, _last, _times, _put, {y}, _correction):
    for _k, ({row}) in enumerate(_rows):
        try:
            {law}
        except (GeodesicError, ArithmeticError, ValueError) as _err:
            _put(({no_law},))
            return _k, "law", _err
        if not ({u_test}):
            _put(({no_law},))
            return _k, "control", ArithmeticError("non-finite control")
        _put(({law_out},))
        if _k == _last:
            {no_step}
            return _k, None, None
        try:
            {step}
        except (ArithmeticError, ValueError) as _err:
            {no_step}
            return _k, "step", _err
        {step_out}
        {y} = {y_next}
        if not ({bounded}):
            if not ({finite}):
                return _k, "step", IntegrationError("non-finite state in RK4 step", t)
            return _k, "step", IntegrationError("state divergence", _times[_k + 1])
    _put(({no_law},))
    return _last, None, None
"""
_RUN_NAMES = {"enumerate": enumerate, "isfinite": math.isfinite, "ValueError": ValueError,
              "ArithmeticError": ArithmeticError, "GeodesicError": GeodesicError,
              "IntegrationError": IntegrationError}
_NEXT_LINE = "\n" + " " * 12  # of a block in _PASS
_FAILURES = {"law": "controller", "control": "controller", "step": "numerical"}


def _block(lines):
    return _NEXT_LINE.join(lines) or "pass"


def _put_line(values):
    return f"_put(({', '.join(values)},))" if values else "pass"


def _pass(y, row, law, step, y_next, law_out, kept, step_out, u_test):
    """One pass compiled from `_PASS`; its divergence test of y ("bounded") has the
    finiteness test on its failure branch ("finite"): a NaN fails the first as well."""
    limit, missing = repr(DIVERGENCE_LIMIT), len(law_out) + len(step_out) - kept
    return ex.compile_source(_PASS.format(
        y=", ".join(y), row=", ".join(row), law=_block(law), step=_block(step),
        y_next=", ".join(y_next), law_out=", ".join(law_out), u_test=u_test,
        no_law=", ".join(law_out[:kept] + ["nan"] * missing),
        step_out=_put_line(step_out), no_step=_put_line(["nan"] * len(step_out)),
        bounded=" and ".join(f"-{limit} <= {a} <= {limit}" for a in y),
        finite=" and ".join(f"isfinite({a})" for a in y)), _RUN_NAMES)


def _closed_loop(sys, metric, gain, ref, cfg):
    """The closed loop's passes (reference, plant, row width), compiled unless the last
    call had the same objects (held, so `is` cannot alias) and settings."""
    key = (sys, metric, gain, ref, cfg.exactness_grid, cfg.kind, cfg.ell, tuple(cfg.custom_u or ()))
    last, built = _BUILT[0]
    if key[5:] == last[5:] and all(a is b for a, b in zip(key[:5], last)):
        return built
    n, m, ud, use_z = sys.n, sys.m, ref.ud_exprs, cfg.kind in ("dynext", "custom")
    names = ["t"] + [f"{p}{i + 1}" for p in ("x", "xd", "z")[: 3 if use_z else 2] for i in range(n)]
    x, xd, z = ([ex.var(name) for name in names[1 + i * n : 1 + (i + 1) * n]] for i in range(3))
    held = [f"v{j + 1}" for j in range(m)] if cfg.kind == "geodesic" else []
    if cfg.kind == "custom":  # m expressions over t, x, xd and z
        if len(cfg.custom_u or ()) != m:
            raise SimulationError(f"custom controller needs {m} expressions")
        u = [_parse_entry(e, names) for e in cfg.custom_u]
    elif cfg.kind == "static":
        _require_exact(gain, cfg.exactness_grid)
        beta_x, beta_xd = radial_potential_exprs(gain, x), radial_potential_exprs(gain, xd)
        u = [ex.add(a, ex.sub(b, c)) for a, b, c in zip(ud, beta_x, beta_xd)]
    elif cfg.kind == "dynext":  # u_d + beta(x, z) - beta(xd, z), at every RK4 stage
        u = [ex.add(a, b) for a, b in zip(ud, dynext_correction_exprs(gain, x, xd, z))]
    else:  # u_d plus the geodesic v, held over the step
        u = [ex.add(a, ex.var(b)) for a, b in zip(ud, held)]
    # x' = f(x) + B(x) u, xd' = f(xd) + B(xd) ud and z' = x' - ell (z - x)
    fx = _plant(sys, u, {})
    rates = fx + _plant(sys, ud, dict(zip(state_vars(n), xd)))
    if use_z:
        rates += [ex.sub(a, ex.mul(ex.const(cfg.ell), ex.sub(c, b))) for a, b, c in zip(fx, x, z)]
    # one program, law first: the law's lines end at the last local its entries name
    lines, texts, operands = ex._straight_line([u, ud, rk4_exprs(rates, names[1:])])
    k = 2 * m  # the law's entries
    split = max((int(a[1:]) + 1 for a in texts[:k] if a.startswith("_")), default=0)
    # line j, `_j = ...`, is the plant's when it reads x, z, v or a plant line
    xds, ys = names[n + 1 : 2 * n + 1], names[1 : n + 1] + names[2 * n + 1 :]
    plant, read = set(ys + held), set()  # and what the plant's lines read
    blocks = [[], [], [], []]  # the reference's law and step, the plant's law and step
    for j, (line, args) in enumerate(zip(lines, operands)):
        on_plant = not plant.isdisjoint(args)
        if on_plant:
            plant.add(f"_{j}")
            read.update(args)
        blocks[2 * on_plant + (j >= split)].append(line)
    ref_law, ref_step, law, step = blocks
    if cfg.kind == "geodesic":  # the plant's law reads v from the run's callback
        law.insert(0, f"{', '.join(held)}, = _correction({', '.join(names[1 : 2 * n + 1])})")
    y_next, xd_next = texts[k : k + n] + texts[k + 2 * n :], texts[k + n : k + 2 * n]
    read.update(texts[:m], y_next)
    # a row: t, x_d, u_d, h and the other reference locals the plant pass reads; in
    # the plant pass a u_d that is a literal or a variable unpacks to "_"
    ud_row = [a if a.startswith("_") else "_" for a in texts[m : 2 * m]]
    shared = read - plant - set(ud_row)
    law_row = ["t", *xds, *texts[m : 2 * m], "h"]
    law_row += [f"_{j}" for j in range(split) if f"_{j}" in shared]
    step_row = [f"_{j}" for j in range(split, len(lines)) if f"_{j}" in shared]
    reference = _pass(xds, ["t", "h"], ref_law, ref_step, xd_next, law_row, 1 + n, step_row,
                      "True")  # the reference pass checks no u
    row = ["t", *xds, *ud_row, *law_row[1 + n + m :], *step_row]
    plant_pass = _pass(ys, row, law, step, y_next, ys + texts[:m], len(ys), [],
                       " and ".join(f"isfinite({a})" for a in texts[:m]))
    built = reference, plant_pass, len(row)
    _BUILT[0] = key, built
    return built


def _start(sys, ref, cfg, x0):
    """The plant pass's initial state, x0 and, for dynext and custom, cfg.z0 (both
    default to the reference's xd0), as a list of floats."""
    xd0 = np.asarray(ref.xd0, dtype=float)
    x0 = np.asarray(x0 if x0 is not None else xd0, dtype=float)
    z0 = np.asarray(cfg.z0 if cfg.z0 is not None else xd0, dtype=float)
    if x0.shape != (sys.n,) or z0.shape != (sys.n,):
        raise SimulationError(f"x0 and z0 need {sys.n} entries, "
                              f"got shapes {x0.shape} and {z0.shape}")
    return np.concatenate([x0, z0] if cfg.kind in ("dynext", "custom") else [x0]).tolist()


def _reference_pass(sys, metric, gain, ref, cfg):
    """Build the closed loop and run its reference pass once, for any number of plant
    passes: (passes, times, the times as floats, rows, its (k, stage, error))."""
    passes = _closed_loop(sys, metric, gain, ref, cfg)
    times = time_grid(0.0, cfg.T, cfg.h)
    grid, rows = array("d", times.tobytes()), array("d")
    steps = zip(grid, np.diff(times).tolist() + [math.nan])  # rows (t, h)
    # the passes read and write Python floats: 1/0 raises instead of giving inf
    result = passes[0](steps, len(grid) - 1, grid, rows.extend,
                       *np.asarray(ref.xd0, dtype=float).tolist(), None)
    return passes, times, grid, rows, result


def _plant_pass(sys, metric, gain, cfg, reference, state):
    """One plant pass from `state` (see `_start`) on the rows of `_reference_pass`,
    as a SimTrace. A plant failure at an earlier grid point or block than the
    reference's wins; in the same block the reference's error is reported."""
    (_, plant, width), times, grid, rows, (k, stage, err) = reference
    n, m = sys.n, sys.m

    def correction(*y):  # the geodesic v at (x, xd) = y
        return path_integral_controller(gain, metric, y[:n], y[n:], np.zeros(m),
                                        cfg.geodesic_segments).tolist()
    row_iter = zip(*[iter(rows)] * width)
    if stage == "law":  # row k holds only t and x_d; the plant records x there
        row_iter = islice(row_iter, k)
    out = array("d")  # (x, z, u) per grid point
    found = plant(row_iter, k, grid, out.extend, *state, correction)
    if found[1] or not stage:  # a plant failure comes first: the plant stops at the k
        k, stage, err = found
    end = k + 1
    flags = [f"{_FAILURES[stage]} failure at t={times[k]:g}: {err}"] if stage else []
    states = np.frombuffer(out).reshape(end, -1)
    xs, us = states[:, :n], states[:, len(state):]
    ref_rows = np.frombuffer(rows).reshape(-1, width)[:end]
    xds, uds = ref_rows[:, 1 : n + 1].copy(), ref_rows[:, n + 1 : n + 1 + m].copy()
    if stage == "law":  # no u_d where the law raised
        uds[k] = math.nan
    exits = times[:end][~sys.in_domain(xs)].tolist()
    if exits:
        flags.append(f"plant left the domain box at t={exits[0]:g} ({len(exits)} samples)")
    return SimTrace(t=times[:end], x=xs, xd=xds, u=us, ud=uds, err=np.linalg.norm(xs - xds, axis=1),
                    z=states[:, n : len(state)] if len(state) > n else None, flags=flags,
                    completed=not stage)


def run_closed_loop(sys, metric, gain, ref, cfg: RunConfig):
    """Simulate tracking of the reference under the configured controller. Failures
    (divergence, NaN, a non-finite control, geodesic breakdown) truncate the trace
    and set a flag instead of raising, so sweeps survive bad samples."""
    state = _start(sys, ref, cfg, cfg.x0)
    return _plant_pass(sys, metric, gain, cfg, _reference_pass(sys, metric, gain, ref, cfg), state)


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
    try:  # the z0 shape, then one build and one reference pass for every sample
        _start(sys, ref, cfg, xd0)
        reference = _reference_pass(sys, metric, gain, ref, cfg)
    except SimulationError:
        return [(float(radius), 0.0) for radius in radii]
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
            trace = _plant_pass(sys, metric, gain, cfg, reference, _start(sys, ref, cfg, x0))
            if trace.completed and trace.final_err() < cfg.err_threshold:
                hits += 1
        results.append((float(radius), hits / samples))
    return results

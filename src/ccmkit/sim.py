"""Closed-loop simulation of plant + reference (+ observer state z).

The closed loop, one ODE in x, x_d and z with u = u_d(t, x_d) + v, is one
straight-line program per grid point of `integrate.time_grid`, which ends at T:
the law (u, u_d), then one RK4 step (`integrate.rk4_exprs`), which reads the
step-start values the law computed. The static v = beta(x) - beta(x_d)
(`controller.radial_potential_exprs`) and the dynext v = beta(x, z) - beta(x_d, z)
(`controller.dynext_correction_exprs`) are part of the rates, so every RK4 stage
evaluates them; the geodesic v comes from a Python callback at the step start and
is held over the step, a sampled-data law. It runs as two passes of one generated
template over blocks of CSV_BLOCK grid points, each pass carrying its state from
block to block: the reference pass, over the lines that read only t, h, x_d and
literals (u_d, the x_d step, beta(x_d) of the static law), stores one row per grid
point of the block, (t, x_d, h, the reference values the plant reads), and the plant
pass unpacks that row and runs the other lines on it. A sweep runs the reference
pass once per block and the plant pass per block and sample; a single run is a sweep
of one sample, and `simulate` writes each block as it comes. The law and the step
keep their own failure checks, the same in both passes. Both passes are built once
for runs that differ only in x0, z0, T, h or the geodesic settings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import expr as ex
from .controller import (EXACTNESS_TOL, dynext_correction_exprs, exactness_residual,
                         radial_potential_exprs)
from .geodesic import DEFAULT_NODES, MAX_SEGMENTS, GeodesicError, path_integral_controller
from .integrate import DIVERGENCE_LIMIT, IntegrationError, grid_steps, rk4_exprs, time_grid
from .model import _parse_entry, state_vars

CONTROLLER_KINDS = ("static", "dynext", "geodesic", "custom")
CSV_BLOCK = 1024  # grid points per block of a closed loop, rows per write of write_table


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

    def write_csv(self, stream, header=True):
        write_table(stream, *self.columns(), header)


def write_table(stream, names, data, header=True):
    """CSV: the header `names` (unless `header` is false), then the rows of `data`
    at %.17g, one write per block of CSV_BLOCK rows. A block's text is joined from
    one % per 16 rows, so it is sized once: one % over the whole block grows its
    text by reallocation, which fragments the heap of a long streamed run (about
    3 kB more resident memory per block), and one % per row costs a tuple per row."""
    if header:
        stream.write(",".join(names) + "\n")
    row_format, step = ",".join(["%.17g"] * len(names)) + "\n", 16 * len(names)
    for start in range(0, len(data), CSV_BLOCK):
        values = data[start : start + CSV_BLOCK].ravel().tolist()
        chunks = [values[at : at + step] for at in range(0, len(values), step)]
        stream.write("".join([(row_format * (len(chunk) // len(names))) % tuple(chunk)
                              for chunk in chunks]))


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
# A closed loop runs as two passes of one template over a block of the time grid: per
# row of `_rows`, read into the names `row`, from grid index `_first` on, a law block
# and, but at grid index `_last`, an RK4 step block on the state `y`. Each pass hands
# `_put` one row per grid point: the law's values, then the step's, if it has any,
# with NaN for all but the first `kept` law values where the law failed and for the
# step's where the step did not run. `_times` holds the block's times and the next
# one. The reference pass, on rows (t, h), runs the lines that read only t, h, xd* and
# literals and puts the plant pass's rows: (t, x_d, h, the reference locals it reads,
# u_d's among them). The plant pass runs the other lines on them and puts (x, z, u_d,
# u), u_d as row names or literals. Each returns (k, stage, error) at its first
# failure, stage "law" (a law line raised), "control" (a non-finite u) or "step"; (k,
# None, None) at grid index `_last`; and (None, None, y), its carried state, when its
# rows end first.
_PASS = """def fn(_rows, _first, _last, _times, _put, {y}, _correction):
    for _k, ({row}) in enumerate(_rows, _first):
        try:
            {law}
        except (GeodesicError, ArithmeticError, ValueError) as _err:
            _put(({no_law},))
            return _k, "law", _err
        if not ({u_test}):
            _put(({no_law},))
            return _k, "control", ArithmeticError("non-finite control")
        if _k == _last:
            _put(({no_step},))
            return _k, None, None
        try:
            {step}
        except (ArithmeticError, ValueError) as _err:
            _put(({no_step},))
            return _k, "step", _err
        _put(({out},))
        {y} = {y_next}
        if not ({bounded}):
            if not ({finite}):
                return _k, "step", IntegrationError("non-finite state in RK4 step", t)
            return _k, "step", IntegrationError("state divergence", _times[_k + 1 - _first])
    return None, None, ({y},)
"""
_RUN_NAMES = {"enumerate": enumerate, "isfinite": math.isfinite, "ValueError": ValueError,
              "ArithmeticError": ArithmeticError, "GeodesicError": GeodesicError,
              "IntegrationError": IntegrationError}
_NEXT_LINE = "\n" + " " * 12  # of a block in _PASS
_FAILURES = {"law": "controller", "control": "controller", "step": "numerical"}


def _block(lines):
    return _NEXT_LINE.join(lines) or "pass"


def _pass(y, row, law, step, y_next, law_out, kept, step_out, u_test):
    """One pass compiled from `_PASS`; its divergence test of y ("bounded") has the
    finiteness test on its failure branch ("finite"): a NaN fails the first as well."""
    limit, nans = repr(DIVERGENCE_LIMIT), ["nan"] * len(step_out)
    return ex.compile_source(_PASS.format(
        y=", ".join(y), row=", ".join(row), law=_block(law), step=_block(step),
        y_next=", ".join(y_next), u_test=u_test, out=", ".join(law_out + step_out),
        no_law=", ".join(law_out[:kept] + ["nan"] * (len(law_out) - kept) + nans),
        no_step=", ".join(law_out + nans),
        bounded=" and ".join(f"-{limit} <= {a} <= {limit}" for a in y),
        finite=" and ".join(f"isfinite({a})" for a in y)), _RUN_NAMES)


def _closed_loop(sys, metric, gain, ref, cfg):
    """The closed loop's passes (reference, plant), compiled unless the last
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
    read.update(texts[:k], y_next)
    # a row: t, x_d, h and the reference locals the plant pass reads, u_d's among them
    shared = read - plant
    law_row = ["t", *xds, "h"] + [f"_{j}" for j in range(split) if f"_{j}" in shared]
    step_row = [f"_{j}" for j in range(split, len(lines)) if f"_{j}" in shared]
    reference = _pass(xds, ["t", "h"], ref_law, ref_step, xd_next, law_row, 1 + n, step_row,
                      "True")  # the reference pass checks no u
    plant_pass = _pass(ys, law_row + step_row, law, step, y_next, ys + texts[m:k] + texts[:m],
                       len(ys) + m, [], " and ".join(f"isfinite({a})" for a in texts[:m]))
    built = reference, plant_pass
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


def closed_loop_blocks(sys, metric, gain, ref, cfg, x0s):
    """The closed loop from each initial state in `x0s` (None: the reference's xd0),
    run over the time grid in blocks of CSV_BLOCK grid points: block by block, (index
    in x0s, the block's SimTrace) for every run not yet ended. The reference pass
    runs once per block for all runs; a run's last block carries its flags and
    `completed`, and its blocks concatenate to its `run_closed_loop` trace. The
    closed loop is built, and the inputs checked, at the call."""
    states = [_start(sys, ref, cfg, x0) for x0 in x0s]
    return _walk(sys, metric, gain, ref, cfg, _closed_loop(sys, metric, gain, ref, cfg), states)


def _walk(sys, metric, gain, ref, cfg, passes, states):
    """`closed_loop_blocks`'s blocks. The plant pass runs on every row the reference
    pass put; a plant failure before the reference's last row wins, as does a plant
    law failure where the reference's step failed; else the run ends as the reference."""
    (reference, plant), n = passes, sys.n
    last = grid_steps(0.0, cfg.T, cfg.h)  # the last grid index

    def correction(*y):  # the geodesic v at (x, xd) = y
        return path_integral_controller(gain, metric, y[:n], y[n:], cfg.geodesic_segments).tolist()
    xd = np.asarray(ref.xd0, dtype=float).tolist()
    # per run: its plant state, the time of its first domain exit and the count of exits
    runs = {i: [state, None, 0] for i, state in enumerate(states)}
    for first in range(0, last + 1, CSV_BLOCK):
        stop = min(first + CSV_BLOCK, last + 1)
        times = time_grid(0.0, cfg.T, cfg.h, first, min(stop, last) + 1)  # and the next time
        grid, rows = times.tolist(), []
        steps = zip(grid[: stop - first], np.diff(times).tolist() + [math.nan])  # rows (t, h)
        # the passes read and write Python floats: 1/0 raises instead of giving inf
        ref_k, ref_stage, ref_found = reference(steps, first, last, grid, rows.append, *xd, None)
        xds = _matrix([row[1 : n + 1] for row in rows])
        for i, run in list(runs.items()):
            out = []  # (x, z, u_d, u) per grid point
            k, stage, found = plant(rows, first, ref_k, grid, out.append, *run[0], correction)
            if k == ref_k is not None and (ref_stage == "law" or not stage):
                k, stage, found = ref_k, ref_stage, ref_found  # the reference's end or failure
            trace = _block_trace(sys, times, xds, out, len(run[0]), stage)
            exits = trace.t[~sys.in_domain(trace.x)].tolist()
            if exits and run[1] is None:
                run[1] = exits[0]
            run[2] += len(exits)
            if k is None:  # the rows end first: carry the state into the next block
                run[0] = found
            else:
                del runs[i]
                trace.completed = not stage
                if stage:
                    trace.flags.append(f"{_FAILURES[stage]} failure at t={grid[k - first]:g}: "
                                       f"{found}")
                if run[2]:
                    trace.flags.append(f"plant left the domain box at t={run[1]:g} "
                                       f"({run[2]} samples)")
            yield i, trace
        if not runs:
            return
        xd = ref_found


def _block_trace(sys, times, xds, out, size, stage):
    """A block's SimTrace from the plant's values `out`, (x, z, u_d, u) with `size`
    state entries per grid point, and the reference's x_d rows `xds`, copied since the
    runs of a sweep share them; no u_d or u where the law raised."""
    n, values = sys.n, _matrix(out)
    if stage == "law":
        values[-1, size:] = math.nan
    xs, xds, u_at = values[:, :n], xds[: len(values)].copy(), size + sys.m
    return SimTrace(t=times[: len(xs)], x=xs, xd=xds, u=values[:, u_at:], ud=values[:, size:u_at],
                    err=np.linalg.norm(xs - xds, axis=1), z=values[:, n:size] if size > n else None)


def _matrix(rows):
    """The float matrix of a list of equally long tuples (faster than np.array)."""
    return np.fromiter(chain.from_iterable(rows), float).reshape(len(rows), -1)


def run_closed_loop(sys, metric, gain, ref, cfg: RunConfig):
    """Simulate tracking of the reference under the configured controller. Failures
    (divergence, NaN, a non-finite control, geodesic breakdown) truncate the trace
    and set a flag instead of raising, so sweeps survive bad samples."""
    blocks = [trace for _, trace in closed_loop_blocks(sys, metric, gain, ref, cfg, [cfg.x0])]
    end = blocks[-1]
    return SimTrace(**{name: np.concatenate([getattr(block, name) for block in blocks])
                       for name in ("t", "x", "xd", "u", "ud", "err", "z")
                       if getattr(end, name) is not None}, flags=end.flags, completed=end.completed)


class DecayFit:
    """Least-squares slope of -log err(t) over the window [t_a, t_b], folded in
    block by block: the count, the means and the co-moments of (t, -log err) of
    each block merge into the running ones (Chan, Golub and LeVeque's update)."""

    def __init__(self, window):
        self.window = window
        self.count, self.underflow = 0, False
        self.mean_t = self.mean_y = self.s_tt = self.s_ty = 0.0

    def add(self, t, err):
        inside = (t >= self.window[0]) & (t <= self.window[1])
        ts, errs = t[inside], err[inside]
        before, self.count = self.count, self.count + len(ts)
        self.underflow = self.underflow or bool(np.any(errs <= 1e-12))
        if self.underflow or not len(ts):
            return
        ys = -np.log(errs)
        mean_t, mean_y, share = ts.mean(), ys.mean(), len(ts) / self.count
        d_t, d_y, dev = mean_t - self.mean_t, mean_y - self.mean_y, ts - mean_t
        self.s_tt += dev @ dev + d_t * d_t * before * share
        self.s_ty += dev @ (ys - mean_y) + d_t * d_y * before * share
        self.mean_t += d_t * share
        self.mean_y += d_y * share

    def rate(self):
        if self.count < 2:
            raise ValueError(f"window [{self.window[0]}, {self.window[1]}] holds {self.count} "
                             "samples; a rate needs two")
        if self.underflow:
            raise ValueError("err underflows 1e-12 on the window; rate fit unreliable")
        return float(self.s_ty / self.s_tt)


def decay_rate(trace, window):
    """Least-squares slope of -log err(t) over [t_a, t_b]: a `DecayFit` of the
    whole trace as one block."""
    fit = DecayFit(window)
    fit.add(trace.t, trace.err)
    return fit.rate()


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
    xd0, x0s = np.asarray(ref.xd0, dtype=float), []
    for radius in radii:
        for _ in range(samples):
            if radius == 0.0:
                x0s.append(xd0)
            else:
                direction = rng.standard_normal(sys.n)
                x0s.append(xd0 + radius * (direction / np.linalg.norm(direction)))
    try:  # one build and one reference pass per block for every sample
        blocks = closed_loop_blocks(sys, metric, gain, ref, cfg, x0s)
    except SimulationError:
        return [(float(radius), 0.0) for radius in radii]
    hits = [False] * len(x0s)  # as each run's last block sets it
    for i, trace in blocks:
        hits[i] = trace.completed and trace.final_err() < cfg.err_threshold
    return [(float(radius), sum(hits[j * samples : (j + 1) * samples]) / samples)
            for j, radius in enumerate(radii)]

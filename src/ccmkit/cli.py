"""Command line front end: certify, synthesize, geodesic, simulate.

Exit codes: 0 success / all checks pass, 1 certificate or threshold
failure, 2 usage or config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys as _sys
from collections import deque

import numpy as np

from . import certificates as certs
from .config import ConfigError, _vector, load_config
from .controller import (
    DampingParams,
    GainField,
    SynthesisError,
    synthesize_gain,
)
from .expr import ExprSyntaxError, UnknownIdentifierError, to_string
from .geodesic import GeodesicError, solve_geodesic
from .integrate import IntegrationError, grid_steps
from .model import ModelError
from .sim import CSV_BLOCK, DecayFit, SimulationError, closed_loop_blocks, format_rows, write_table

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


class _CliFailure(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _out_stream(args):
    if not args.out:
        return _sys.stdout
    try:
        return open(args.out, "w")
    except OSError as err:
        raise _CliFailure(EXIT_USAGE, f"cannot write --out: {err}") from None


def _grid_for(cfg, args):
    points = args.grid if args.grid is not None else cfg.cert.grid_points
    try:
        return certs.Grid.for_system(cfg.system, points)
    except ValueError as err:
        raise _CliFailure(EXIT_USAGE, f"bad grid: {err}") from None


def _resolve_gain(cfg, grid):
    spec = cfg.gain
    if spec.source != "synthesized":
        if spec.entries is None:  # source=builtin on a custom system
            raise ConfigError("gain source=builtin needs a builtin system")
        return GainField.from_exprs(cfg.system.n, cfg.system.m, spec.entries)
    if cfg.metric is None:
        raise ConfigError("gain synthesis needs a primal [metric]")
    report = certs.check_c1(cfg.system, cfg.metric, grid, rate=cfg.metric.lam)
    if not report.passed:
        raise _CliFailure(
            EXIT_FAIL,
            "metric failed C1 certification; cannot synthesize "
            f"(worst margin {report.worst_margin:g})",
        )
    lam = cfg.metric.lam if cfg.metric.lam > 0 else report.certified_rate
    r = spec.r if spec.r is not None else 1.0 / lam
    params = DampingParams(r=r, gamma0=spec.gamma0, lam=lam)
    return synthesize_gain(cfg.system, cfg.metric, params,
                           gamma_const=spec.gamma_const, grid=grid)


def cmd_certify(cfg, args, out):
    checks = cfg.cert.checks
    if not checks:
        raise _CliFailure(EXIT_USAGE, "empty check list")
    grid = _grid_for(cfg, args)
    reports = []
    for check in checks:
        dual = check == "dual-w"
        metric = cfg.dual_metric if dual else cfg.metric
        if metric is None:
            raise ConfigError(f"{check} check needs "
                              + ("a metric with role=dual" if dual else "a primal metric"))
        lam = cfg.cert.lam if cfg.cert.lam is not None else metric.lam
        if check == "c1":
            reports.append(certs.check_c1(cfg.system, metric, grid, cfg.cert.tol, lam))
        elif check == "killing":
            reports.append(certs.check_killing_pde(cfg.system, metric, grid, cfg.cert.tol))
        elif dual:
            reports.append(certs.check_dual_w(cfg.system, metric, grid, cfg.cert.tol))
        else:  # robust, the one check left
            reports.append(certs.check_robust(cfg.system, metric, grid, lam, cfg.cert.gamma0,
                                              cfg.cert.tol, cfg.cert.robust_lambda_form))
    all_pass = all(r.passed for r in reports)
    out.write(f"system: {cfg.system.name}\n")
    out.write(f"grid_points_per_axis: {grid.counts[0]}\n")
    for report in reports:
        out.write("\n")
        for line in report.summary_lines():
            out.write(line + "\n")
    out.write(f"\nall_pass: {all_pass}\n")
    return EXIT_OK if all_pass else EXIT_FAIL


def cmd_synthesize(cfg, args, out):
    grid = _grid_for(cfg, args)
    gain = _resolve_gain(cfg, grid)
    lines = ["[gain]", "source = user"]  # floats or formulas; both reload as a user gain
    if gain.is_constant():
        lines += [f"K_{i + 1}_{j + 1} = {float(gain.constant_matrix[i, j])!r}"
                  for i in range(gain.m) for j in range(gain.n)]
    else:
        lines += [f"K_{i + 1}_{j + 1} = {to_string(entry)}"
                  for i, row in enumerate(gain.exprs) for j, entry in enumerate(row)]
    lines += [f"# {key} = {value}" for key, value in gain.meta.items()]
    out.write("".join(line + "\n" for line in lines))
    return EXIT_OK


def cmd_geodesic(cfg, args, out):
    if cfg.metric is None:
        raise ConfigError("geodesic command needs a [metric]")
    n = cfg.system.n
    x_a = _vector(args.from_point, n, "--from")
    x_b = _vector(args.to_point, n, "--to")
    path = solve_geodesic(cfg.metric, x_a, x_b, cfg.sim.geodesic_segments)
    mus = np.linspace(0.0, 1.0, path.nodes.shape[0])
    write_table(out, ["mu"] + cfg.system.vars, np.column_stack([mus, path.nodes]))
    out.write(f"# energy: {path.energy:.17g}\n")
    out.write(f"# distance: {path.length():.17g}\n")
    out.write(f"# iterations: {path.iterations}\n")
    out.write(f"# converged: {path.converged}\n")
    return EXIT_OK if path.converged else EXIT_NUMERICAL


def cmd_simulate(cfg, args, out):
    if cfg.reference is None:
        raise ConfigError("[reference] missing xd0")
    if cfg.sim.kind == "geodesic" and cfg.metric is None:
        raise ConfigError("geodesic controller needs a primal [metric]")
    grid = _grid_for(cfg, args)
    gain = None if cfg.sim.kind == "custom" else _resolve_gain(cfg, grid)  # u reads no gain
    run_cfg = dataclasses.replace(cfg.sim, exactness_grid=grid)
    summary = _sys.stderr if out is not _sys.stdout else out
    return write_simulation(cfg.system, cfg.metric, gain, cfg.reference, run_cfg, out, summary)


def write_simulation(system, metric, gain, ref, run_cfg, out, summary):
    """Stream one run's CSV to `out` a block at a time (`_written`), then its
    summary lines to `summary`; the exit code."""
    fit = DecayFit((run_cfg.T / 4, 3 * run_cfg.T / 4))
    blocks = grid_steps(0.0, run_cfg.T, run_cfg.h) // CSV_BLOCK + 1
    fork = blocks >= FORK_BLOCKS and _may_fork()
    traces = (trace for _, trace in
              closed_loop_blocks(system, metric, gain, ref, run_cfg, [run_cfg.x0]))
    for trace in _written(out, traces, fork):  # a block at a time: its rows, its share of the fit
        fit.add(trace.t, trace.err)
    summary.write(f"# final_err: {trace.final_err():.17g}\n")
    try:
        summary.write(f"# decay_rate: {fit.rate():.6g}\n")
    except ValueError:
        summary.write("# decay_rate: n/a\n")
    for flag in trace.flags:
        summary.write(f"# flag: {flag}\n")
    summary.write(f"# completed: {trace.completed}\n")
    if not trace.completed:
        return EXIT_NUMERICAL
    passed = trace.final_err() < run_cfg.err_threshold
    summary.write(f"# threshold_pass: {passed}\n")
    return EXIT_OK if passed else EXIT_FAIL


# the fewest blocks of a run that the formatting worker makes faster. Its start-up
# (importing multiprocessing, the fork, the join) costs about 20 ms in a fresh
# process, and it saves about 2.5 ms a block: a numex dynext run of 2, 4, 8, 10
# and 12 blocks took 19, 17, 6 and 3 ms longer and 7 ms shorter with the worker
FORK_BLOCKS = 12


def _written(out, traces, fork):
    """Each of `traces` in turn, its rows written to `out` as one CSV, in order,
    by this process. With `fork`, one forked worker turns each block's rows into
    text (`format_rows`) while the caller computes the next block; at most two
    blocks wait to be written. Without it, the same formatter runs here, as it
    does for the blocks still held when the worker dies. When the traces end the
    rest is written, after an exception nothing more is, and the worker is joined
    either way."""
    held, pool = deque(), None

    def write_oldest():
        data, job = held.popleft()
        out.write((job and _unbroken(job.result)) or format_rows(data))
    try:
        for k, trace in enumerate(traces):
            names, data = trace.columns()
            if k == 0:
                write_table(out, names, data[:0])  # the header
                if fork:
                    from concurrent.futures import ProcessPoolExecutor
                    from multiprocessing import get_context

                    out.flush()  # else the child inherits the buffered header
                    pool = ProcessPoolExecutor(1, mp_context=get_context("fork"))
            if len(held) > 1:
                write_oldest()
            held.append((data, pool and _unbroken(pool.submit, format_rows, data)))
            yield trace
        while held:
            write_oldest()
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def _unbroken(call, *args):
    """call(*args), or None where the worker has died: its blocks cost time, not output."""
    from concurrent.futures.process import BrokenProcessPool

    try:
        return call(*args)
    except BrokenProcessPool:
        return None


def _may_fork():
    """Whether this process may use two CPUs or more for a forked worker. Only
    platforms with the fork start method report affinity."""
    return hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ccmkit",
        description="contraction-metric certification and tracking control",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("certify", "synthesize", "geodesic", "simulate"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="INI config file")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--grid", type=int, default=None,
                       help="grid points per axis override")
    sub.choices["geodesic"].add_argument("--from", dest="from_point", required=True)
    sub.choices["geodesic"].add_argument("--to", dest="to_point", required=True)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else 0
    handlers = {
        "certify": cmd_certify,
        "synthesize": cmd_synthesize,
        "geodesic": cmd_geodesic,
        "simulate": cmd_simulate,
    }
    out = None
    try:
        cfg = load_config(args.config)
        out = _out_stream(args)
        try:
            return handlers[args.command](cfg, args, out)
        finally:  # a failed write may surface in this flush or close
            if out is _sys.stdout:
                out.flush()
            else:
                out.close()
    except (ConfigError, ModelError, ExprSyntaxError, UnknownIdentifierError) as err:
        _sys.stderr.write(f"config error: {err}\n")
        return EXIT_USAGE
    except _CliFailure as err:
        _sys.stderr.write(f"{err}\n")
        return err.code
    except (certs.CertificateError, SimulationError, SynthesisError,
            GeodesicError, IntegrationError, ArithmeticError) as err:
        _sys.stderr.write(f"numerical failure: {err}\n")
        return EXIT_NUMERICAL
    except OSError as err:
        if out is None:
            raise
        if out is _sys.stdout:  # the interpreter's last flush of stdout must not fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        _sys.stderr.write(f"cannot write {'stdout' if out is _sys.stdout else '--out'}: {err}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())

"""Command line front end: certify, synthesize, geodesic, simulate.

Exit codes: 0 success / all checks pass, 1 certificate or threshold
failure, 2 usage or config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys as _sys
from pathlib import Path

import numpy as np

from . import certificates as certs
from .config import ConfigError, load_config
from .controller import (
    DampingParams,
    GainField,
    SynthesisError,
    synthesize_gain,
)
from .expr import ExprSyntaxError, UnknownIdentifierError, to_string
from .geodesic import GeodesicError, solve_geodesic
from .integrate import IntegrationError
from .model import ModelError
from .sim import SimulationError, decay_rate, run_closed_loop

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


class _CliFailure(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _out_stream(args):
    if args.out:
        return open(args.out, "w")
    return _sys.stdout


def _grid_for(cfg, args):
    points = args.grid if args.grid else cfg.cert.grid_points
    return certs.Grid.for_system(cfg.system, points)


def _resolve_gain(cfg, grid):
    spec = cfg.gain
    if spec.source == "user":
        return GainField.from_exprs(cfg.system.n, cfg.system.m, spec.entries)
    if spec.source == "builtin":
        if cfg.bundle is None or cfg.bundle.builtin_gain is None:
            raise ConfigError("gain source=builtin needs a builtin system")
        return GainField.from_exprs(cfg.system.n, cfg.system.m,
                                    cfg.bundle.builtin_gain)
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
                           gamma_const=spec.gamma_const)


def cmd_certify(cfg, args, out):
    checks = cfg.cert.checks
    if not checks:
        raise _CliFailure(EXIT_USAGE, "empty check list")
    grid = _grid_for(cfg, args)
    reports = []
    for check in checks:
        if check == "c1":
            if cfg.metric is None:
                raise ConfigError("c1 check needs a primal metric")
            rate = cfg.cert.lam if cfg.cert.lam is not None else cfg.metric.lam
            reports.append(
                certs.check_c1(cfg.system, cfg.metric, grid, cfg.cert.tol,
                               rate=rate if rate > 0 else None)
            )
        elif check == "killing":
            if cfg.metric is None:
                raise ConfigError("killing check needs a primal metric")
            reports.append(
                certs.check_killing_pde(cfg.system, cfg.metric, grid, cfg.cert.tol)
            )
        elif check == "dual-w":
            if cfg.dual_metric is None:
                raise ConfigError("dual-w check needs a metric with role=dual")
            reports.append(
                certs.check_dual_w(cfg.system, cfg.dual_metric, grid, cfg.cert.tol)
            )
        elif check == "robust":
            if cfg.metric is None:
                raise ConfigError("robust check needs a primal metric")
            lam = cfg.cert.lam if cfg.cert.lam is not None else cfg.metric.lam
            if cfg.cert.gamma0 == "auto":
                gamma0, report = certs.min_feasible_gamma0(
                    cfg.system, cfg.metric, grid, lam, cfg.cert.tol,
                    cfg.cert.robust_lambda_form,
                )
                reports.append(report)
            else:
                reports.append(
                    certs.check_robust(cfg.system, cfg.metric, grid, lam,
                                       float(cfg.cert.gamma0), cfg.cert.tol,
                                       cfg.cert.robust_lambda_form)
                )
        else:
            raise _CliFailure(EXIT_USAGE, f"unknown check {check!r}")
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
    lines = ["[gain]", "source = user"]
    if gain.exprs is not None:
        lines += [f"K_{i + 1}_{j + 1} = {to_string(entry)}"
                  for i, row in enumerate(gain.exprs) for j, entry in enumerate(row)]
    elif gain.is_constant():
        lines += [f"K_{i + 1}_{j + 1} = {float(gain.constant_matrix[i, j])!r}"
                  for i in range(gain.m) for j in range(gain.n)]
    else:
        lines += ["# gain is not symbolic; sampled table follows",
                  "# columns: x1..xn, K_1_1..K_m_n (row-major)"]
        points = certs.Grid.for_system(cfg.system, 5).array()
        table = np.hstack([points, gain(points).reshape(len(points), -1)])
        lines += ["# sample " + " ".join(f"{v:.17g}" for v in row) for row in table]
    lines += [f"# {key} = {value}" for key, value in gain.meta.items()]
    out.write("".join(line + "\n" for line in lines))
    return EXIT_OK


def cmd_geodesic(cfg, args, out):
    if cfg.metric is None:
        raise ConfigError("geodesic command needs a [metric]")
    n = cfg.system.n
    x_a = np.array([float(v) for v in args.from_point.replace(",", " ").split()])
    x_b = np.array([float(v) for v in args.to_point.replace(",", " ").split()])
    if x_a.size != n or x_b.size != n:
        raise _CliFailure(EXIT_USAGE, f"--from/--to need {n} coordinates")
    path = solve_geodesic(cfg.metric, x_a, x_b, cfg.sim.geodesic_segments)
    header = "mu," + ",".join(f"x{i + 1}" for i in range(n))
    out.write(header + "\n")
    mus = np.linspace(0.0, 1.0, path.nodes.shape[0])
    for mu, node in zip(mus, path.nodes):
        out.write(",".join(f"{v:.17g}" for v in np.r_[mu, node]) + "\n")
    out.write(f"# energy: {path.energy:.17g}\n")
    out.write(f"# distance: {path.length():.17g}\n")
    out.write(f"# iterations: {path.iterations}\n")
    out.write(f"# converged: {path.converged}\n")
    return EXIT_OK if path.converged else EXIT_NUMERICAL


def cmd_simulate(cfg, args, out):
    grid = _grid_for(cfg, args)
    gain = _resolve_gain(cfg, grid)
    run_cfg = dataclasses.replace(cfg.sim, exactness_grid=grid)
    trace = run_closed_loop(cfg.system, cfg.metric, gain, cfg.reference, run_cfg)
    trace.write_csv(out)
    summary = _sys.stderr if out is not _sys.stdout else out
    summary.write(f"# final_err: {trace.final_err():.17g}\n")
    try:
        window = (cfg.sim.T / 4, 3 * cfg.sim.T / 4)
        summary.write(f"# decay_rate: {decay_rate(trace, window):.6g}\n")
    except ValueError:
        summary.write("# decay_rate: n/a\n")
    for flag in trace.flags:
        summary.write(f"# flag: {flag}\n")
    summary.write(f"# completed: {trace.completed}\n")
    if not trace.completed:
        return EXIT_NUMERICAL
    passed = trace.final_err() < cfg.sim.err_threshold
    summary.write(f"# threshold_pass: {passed}\n")
    return EXIT_OK if passed else EXIT_FAIL


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
        if not Path(args.config).exists():
            raise ConfigError(f"config file not found: {args.config}")
        cfg = load_config(args.config)
        out = _out_stream(args)
        return handlers[args.command](cfg, args, out)
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
    finally:
        if out is not None and out is not _sys.stdout:
            out.close()


if __name__ == "__main__":
    raise SystemExit(main())

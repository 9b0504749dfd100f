"""Span tracing of ccmkit from the outside, for the traced benchmark run.

`Tracer.install()` replaces the public functions and hot methods of every
ccmkit module with wrappers that record one span per call: name, start,
end and parent span. A function is replaced everywhere a caller looks it
up -- its home module, every ccmkit module that imported it by name
(`from .linalg import sym_eig`) and the package namespace -- so calls
made through either route are seen. Spans are kept in flat in-memory
arrays and written out once at the end. `expr.compile_fn` additionally
returns counting callables, which gives an exact count of compiled
expression evaluations.

A call to a function from inside another call of the same function
(recursion through the module global, as in `expr.differentiate`) is not
a new span: counts and times belong to the outermost call.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# (module, attribute path, span name). A dotted path names a method; a
# classmethod is unwrapped and rewrapped.
TRACED = [
    ("expr", "parse", "expr.parse"),
    ("expr", "differentiate", "expr.differentiate"),
    ("expr", "compile_fn", "expr.compile_fn"),
    ("expr", "evaluate", "expr.evaluate"),
    ("expr", "free_variables", "expr.free_variables"),
    ("expr", "to_string", "expr.to_string"),
    ("linalg", "sym_eig", "linalg.sym_eig"),
    ("linalg", "generalized_sym_eig", "linalg.generalized_sym_eig"),
    ("linalg", "null_space_basis", "linalg.null_space_basis"),
    ("linalg", "inverse", "linalg.inverse"),
    ("linalg", "spectral_norm", "linalg.spectral_norm"),
    ("integrate", "rk4_step", "integrate.rk4_step"),
    ("integrate", "rk4_solve", "integrate.rk4_solve"),
    ("integrate", "rk45_integrate", "integrate.rk45_integrate"),
    ("model", "SystemModel.__init__", "model.SystemModel"),
    ("model", "SystemModel.eval_f", "model.eval_f"),
    ("model", "SystemModel.eval_b", "model.eval_b"),
    ("model", "SystemModel.jac_f", "model.jac_f"),
    ("model", "SystemModel.jac_b_col", "model.jac_b_col"),
    ("model", "SystemModel.a_matrix", "model.a_matrix"),
    ("model", "SystemModel.in_domain", "model.in_domain"),
    ("model", "MetricField.__init__", "model.MetricField"),
    ("model", "MetricField.eval", "model.metric_eval"),
    ("model", "MetricField.partial", "model.metric_partial"),
    ("model", "MetricField.dir_deriv", "model.dir_deriv"),
    ("model", "ReferenceSpec.from_strings", "model.ReferenceSpec"),
    ("model", "ReferenceSpec.eval_ud", "model.eval_ud"),
    ("model", "builtin", "model.builtin"),
    ("model", "generate_reference", "model.generate_reference"),
    ("certificates", "contraction_quadratic", "certificates.contraction_quadratic"),
    ("certificates", "check_c1", "certificates.check_c1"),
    ("certificates", "check_killing_pde", "certificates.check_killing_pde"),
    ("certificates", "check_dual_w", "certificates.check_dual_w"),
    ("certificates", "check_robust", "certificates.check_robust"),
    ("certificates", "min_feasible_gamma0", "certificates.min_feasible_gamma0"),
    ("certificates", "dual_flow_diagnostic", "certificates.dual_flow_diagnostic"),
    ("certificates", "CertificateReport.summary_lines", "cli.report_lines"),
    ("controller", "GainField.from_exprs", "controller.GainField"),
    ("controller", "GainField.__call__", "controller.gain_eval"),
    ("controller", "GainField.partial", "controller.gain_partial"),
    ("controller", "upsilon", "controller.upsilon"),
    ("controller", "synthesize_gain", "controller.synthesize_gain"),
    ("controller", "exactness_residual", "controller.exactness_residual"),
    ("controller", "radial_potential", "controller.radial_potential"),
    ("controller", "static_exact_controller", "controller.static_exact_controller"),
    ("controller", "dynext_beta", "controller.dynext_beta"),
    ("controller", "khat", "controller.khat"),
    ("controller", "dynext_control", "controller.dynext_control"),
    ("controller", "dynext_controller_step", "controller.dynext_controller_step"),
    ("geodesic", "riemann_energy", "geodesic.riemann_energy"),
    ("geodesic", "solve_geodesic", "geodesic.solve_geodesic"),
    ("geodesic", "geodesic_distance", "geodesic.geodesic_distance"),
    ("geodesic", "path_integral_controller", "geodesic.path_integral_controller"),
    ("sim", "run_closed_loop", "sim.run_closed_loop"),
    ("sim", "perturbation_sweep", "sim.perturbation_sweep"),
    ("sim", "decay_rate", "sim.decay_rate"),
    ("sim", "SimTrace.write_csv", "cli.write_csv"),
    ("config", "load_config", "config.load_config"),
    ("cli", "main", "cli.main"),
]

# Spans whose outermost instances make up model build and expression set-up.
BUILD_SPANS = ("model.builtin", "model.SystemModel", "model.MetricField",
               "model.ReferenceSpec", "controller.GainField")
EXPR_SETUP_SPANS = ("expr.parse", "expr.differentiate", "expr.compile_fn")
# The CLI writes its output through SimTrace.write_csv and
# CertificateReport.summary_lines, so those spans are named as cli output.
OUTPUT_SPANS = ("cli.write_csv", "cli.report_lines")
CHECKS = ("check_c1", "check_killing_pde", "check_dual_w", "check_robust")
MODEL_METHODS = ("eval_f", "eval_b", "jac_f", "jac_b_col", "eval_ud",
                 "metric_eval", "metric_partial", "dir_deriv")
LINALG = ("sym_eig", "generalized_sym_eig", "null_space_basis", "inverse")


def _grid_points(args, report):
    return len(args[2])


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.fn_calls = [0]
        self.results = {}     # span name -> values observed per call
        self._restore = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, observe=None):
        nid = self._id(name)
        stack, name_id, parent = self._stack, self.name_id, self.parent
        start, end, clock = self.start, self.end, time.perf_counter
        seen = self.results.setdefault(name, []) if observe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and name_id[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if seen is not None:
                seen.append(observe(args, result))
            return result

        return traced

    def _counting_compile(self, compile_fn):
        cell = self.fn_calls

        def compile_counted(expr, variables):
            fn = compile_fn(expr, variables)

            def counted(*args):
                cell[0] += 1
                return fn(*args)

            return counted

        return compile_counted

    def install(self):
        homes = {name: importlib.import_module(f"ccmkit.{name}")
                 for name in {entry[0] for entry in TRACED}}
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "ccmkit" or key.startswith("ccmkit."))]
        observers = {
            "geodesic.solve_geodesic": lambda args, path: path.iterations,
            "sim.run_closed_loop": lambda args, trace: len(trace.t) - 1,
        }
        for check in CHECKS:
            observers[f"certificates.{check}"] = _grid_points
        for mod_name, path, span in TRACED:
            home = homes[mod_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[attr]
                is_classmethod = isinstance(raw, classmethod)
                func = raw.__func__ if is_classmethod else raw
                wrapped = self.wrap(span, func, observers.get(span))
                setattr(cls, attr, classmethod(wrapped) if is_classmethod else wrapped)
                self._restore.append((cls, attr, raw))
                continue
            original = getattr(home, path)
            target = original
            if span == "expr.compile_fn":
                target = self._counting_compile(original)
            wrapped = self.wrap(span, target, observers.get(span))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        self._restore.append((module, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def mark(self):
        """Index of the next span; separates phases of a traced run."""
        return len(self.start)

    def save(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


class SpanTable:
    """Per-name aggregates over the spans of one phase of a traced run.

    Durations are multiplied by `scale`, which turns the phase's seconds
    into reference seconds (see timing.py).
    """

    def __init__(self, tracer, lo, hi, scale=1.0):
        self.names = tracer.names
        name_id = np.frombuffer(tracer.name_id, dtype=np.int32)[lo:hi]
        parent = np.frombuffer(tracer.parent, dtype=np.int32)[lo:hi]
        start = np.frombuffer(tracer.start, dtype=np.float64)[lo:hi]
        end = np.frombuffer(tracer.end, dtype=np.float64)[lo:hi]
        dur = (end - start) * scale
        local_parent = np.where(parent >= lo, parent - lo, -1)
        child = np.bincount(local_parent[local_parent >= 0],
                            weights=dur[local_parent >= 0], minlength=dur.size)
        self.name_id, self.parent, self.dur = name_id, local_parent, dur
        self.self_time = dur - child

    def _mask(self, name):
        if name not in self.names:
            return np.zeros(self.dur.size, dtype=bool)
        return self.name_id == self.names.index(name)

    def calls(self, name):
        return int(np.count_nonzero(self._mask(name)))

    def total_s(self, name):
        return float(self.dur[self._mask(name)].sum())

    def self_s(self, name):
        return float(self.self_time[self._mask(name)].sum())

    def percentile(self, name, pct, scale):
        durs = self.dur[self._mask(name)]
        return float(np.percentile(durs, pct)) * scale if durs.size else 0.0

    def top_level_s(self):
        return float(self.dur[self.parent < 0].sum())

    def outermost_s(self, group):
        """Total time of spans in `group` with no ancestor in `group`."""
        ids = {self.names.index(n) for n in group if n in self.names}
        total = 0.0
        for idx in np.flatnonzero(np.isin(self.name_id, list(ids))):
            up = self.parent[idx]
            while up >= 0 and self.name_id[up] not in ids:
                up = self.parent[up]
            if up < 0:
                total += float(self.dur[idx])
        return total


def layer_metrics(tracer, setup, section, body_wall_s, untraced_wall_s,
                  gate_s=None):
    """Per-layer metrics of one traced run.

    `setup` and `section` are SpanTables of the traced set-up and of set-up
    plus timed body; counts cover the whole section, set-up times only the
    set-up. All times are in reference seconds. `gate_s` is the wall-clock gate the run's closed loop is held to,
    if any; its headroom is gate / (closed-loop span / trace overhead).
    """
    out = {}
    overhead = body_wall_s / untraced_wall_s
    for name in ("parse", "differentiate", "compile_fn"):
        out[f"expr.{name}.calls"] = section.calls(f"expr.{name}")
    out["expr.setup_s"] = setup.outermost_s(EXPR_SETUP_SPANS)
    out["expr.fn_calls"] = tracer.fn_calls[0]
    for name in MODEL_METHODS:
        span = f"model.{name}"
        out[f"{span}.calls"] = section.calls(span)
        out[f"{span}.p50_us"] = section.percentile(span, 50, 1e6)
        out[f"{span}.p99_us"] = section.percentile(span, 99, 1e6)
        out[f"{span}.self_s"] = section.self_s(span)
    out["model.build_s"] = setup.outermost_s(BUILD_SPANS)
    out["config.load_config_s"] = setup.total_s("config.load_config")
    for name in LINALG:
        span = f"linalg.{name}"
        out[f"{span}.calls"] = section.calls(span)
        out[f"{span}.p50_us"] = section.percentile(span, 50, 1e6)
        out[f"{span}.self_s"] = section.self_s(span)
    for name in CHECKS:
        span = f"certificates.{name}"
        points = sum(tracer.results.get(span, []))
        out[f"{span}.self_s"] = section.self_s(span)
        out[f"{span}.us_per_point"] = section.total_s(span) / points * 1e6 if points else 0.0
    out["certificates.check_robust.calls"] = section.calls("certificates.check_robust")
    out["certificates.min_feasible_gamma0.s"] = section.total_s("certificates.min_feasible_gamma0")
    span = "controller.dynext_beta"
    out[f"{span}.calls"] = section.calls(span)
    out[f"{span}.p50_us"] = section.percentile(span, 50, 1e6)
    out[f"{span}.p99_us"] = section.percentile(span, 99, 1e6)
    out[f"{span}.self_s"] = section.self_s(span)
    out["controller.radial_potential.calls"] = section.calls("controller.radial_potential")
    out["controller.radial_potential.self_s"] = section.self_s("controller.radial_potential")
    out["controller.gain_eval.calls"] = section.calls("controller.gain_eval")
    span = "geodesic.solve_geodesic"
    iterations = tracer.results.get(span, [])
    out[f"{span}.calls"] = section.calls(span)
    out[f"{span}.p50_ms"] = section.percentile(span, 50, 1e3)
    out[f"{span}.p99_ms"] = section.percentile(span, 99, 1e3)
    out[f"{span}.self_s"] = section.self_s(span)
    out["geodesic.iterations_per_solve.mean"] = (
        sum(iterations) / len(iterations) if iterations else 0.0)
    out["geodesic.iterations_per_solve.max"] = max(iterations, default=0)
    energy_calls = section.calls("geodesic.riemann_energy")
    out["geodesic.riemann_energy.calls"] = energy_calls
    out["geodesic.energy_evals_per_iteration"] = (
        energy_calls / sum(iterations) if sum(iterations) else 0.0)
    steps = sum(tracer.results.get("sim.run_closed_loop", []))
    loop_self = section.self_s("sim.run_closed_loop")
    out["sim.run_closed_loop.calls"] = section.calls("sim.run_closed_loop")
    out["sim.run_closed_loop.self_s"] = loop_self
    out["sim.steps"] = steps
    out["sim.step_self_us"] = loop_self / steps * 1e6 if steps else 0.0
    out["sim.perturbation_sweep.s"] = section.total_s("sim.perturbation_sweep")
    loop_s = section.total_s("sim.run_closed_loop")
    out["sim.gate_headroom_a"] = gate_s * overhead / loop_s if gate_s and loop_s else 0.0
    out["integrate.rk4_step.calls"] = section.calls("integrate.rk4_step")
    out["integrate.rk4_step.self_s"] = section.self_s("integrate.rk4_step")
    out["cli.output_s"] = sum(section.total_s(span) for span in OUTPUT_SPANS)
    out["trace_overhead"] = overhead
    return out

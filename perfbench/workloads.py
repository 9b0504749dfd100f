"""The four benchmark workloads.

Each workload is a closed loop in one process: `setup()` loads configs and
builds models (what `setup_s` measures), `run()` is the timed body and
returns the program's output, `check(output)` compares that output with an
independent oracle and returns (attempted, failed, problems), and
`digest(output)` fingerprints it bit for bit. ccmkit functions are looked
up through their modules at call time so the traced run sees them.

Why these four (see README.md): `certify` is the only workload that
exercises `certificates` and `linalg`; `track_dynext` is one long
trajectory dominated by `controller.dynext_beta`; `sweep_static` is many
short runs with a negligible controller, so it bypasses `controller`;
`geodesic_track` is the only workload on a curved metric, so the only one
where `geodesic` does real work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from pathlib import Path

import numpy as np

from ccmkit import cli, config, controller, model, sim

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class _CliOutput:
    """Stand-in for stdout that hashes the CLI's text as it is written.

    It keeps only what the checks read: the number of CSV rows (lines that
    start with a digit), the first and last of them, and every other line.
    A streamed trace of ccmkit simulate therefore costs no memory here, so
    peak_rss_mb stays the program's own.
    """

    def __init__(self):
        self._sha = hashlib.sha256()
        self._partial = ""
        self.rows = 0
        self.first_row = self.last_row = None
        self.lines = []
        self.code = None

    def write(self, text):
        self._sha.update(text.encode())
        *complete, self._partial = (self._partial + text).split("\n")
        for line in complete:
            if line[:1].isdigit():
                self.rows += 1
                if self.first_row is None:
                    self.first_row = line
                self.last_row = line
            else:
                self.lines.append(line)
        return len(text)

    def flush(self):
        pass

    def close(self):
        if self._partial:
            self.write("\n")

    @property
    def text(self):
        """Everything but the CSV rows."""
        return "\n".join(self.lines)

    def digest(self):
        sha = self._sha.copy()
        sha.update(f"exit code {self.code}".encode())
        return sha.hexdigest()


def _run_cli(argv):
    out = _CliOutput()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        out.code = cli.main(argv)
    out.close()
    return out


def _report_blocks(text):
    """`condition -> {key: value}` from `ccmkit certify` output."""
    blocks, current = {}, None
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if not sep:
            continue
        if key == "condition":
            current = blocks.setdefault(value, {})
        elif current is not None:
            current[key] = value
    return blocks


def _close(block, key, expected, tol):
    try:
        return abs(float(block[key]) - expected) <= tol
    except (KeyError, ValueError):
        return False


class Certify:
    """`ccmkit certify` on the shipped numex suite (c1, killing, robust with
    gamma0 = auto, 41x41) and on a microactuator suite (c1, killing, dual-w,
    17^3) owned by the benchmark. The seed does not change the inputs."""

    unit = "check"
    SUITES = (
        (ROOT / "configs" / "numex_certify.ini", {
            "c1": ("certified_rate", 2.0 / 3.0, 1e-6),
            "killing_pde": ("worst_margin", 0.0, 1e-12),
            "robust": ("gamma0_min", 1.0, 1e-6),
        }),
        (HERE / "configs" / "micro_certify.ini", {
            "c1": ("certified_rate", 2.0 - math.sqrt(2.0), 1e-9),
            "killing_pde": ("worst_margin", 0.0, 1e-12),
            "dual_w": ("worst_margin", -1.0, 1e-9),
        }),
    )

    def __init__(self, seed):
        self.configs = None

    def setup(self):
        self.configs = [config.load_config(str(path)) for path, _ in self.SUITES]

    def items(self):
        """Requested grid points x requested checks, per run."""
        return sum(cfg.cert.grid_points ** cfg.system.n * len(cfg.cert.checks)
                   for cfg in self.configs)

    def run(self):
        return [_run_cli(["certify", "--config", str(path)]) for path, _ in self.SUITES]

    def digest(self, output):
        return hashlib.sha256(" ".join(out.digest() for out in output).encode()).hexdigest()

    def check(self, output):
        attempted = failed = 0
        problems = []
        for (path, expected), out in zip(self.SUITES, output):
            blocks = _report_blocks(out.text)
            for condition, (key, value, tol) in expected.items():
                attempted += 1
                block = blocks.get(condition, {})
                if block.get("pass") != "True" or not _close(block, key, value, tol):
                    failed += 1
                    problems.append(f"{path.name} {condition}: {key}={block.get(key)}")
            if out.code != 0:
                problems.append(f"{path.name}: exit code {out.code}")
        return attempted, failed, problems


class TrackDynext:
    """`ccmkit simulate` on the shipped configs/numex_dynext.ini (acceptance
    scenario A). The seed does not change the inputs."""

    unit = "run"
    CONFIG = ROOT / "configs" / "numex_dynext.ini"

    def __init__(self, seed):
        self.cfg = None
        self._oracle = None

    def setup(self):
        self.cfg = config.load_config(str(self.CONFIG))

    def items(self):
        return int(round(self.cfg.sim.T / self.cfg.sim.h))

    def run(self):
        return _run_cli(["simulate", "--config", str(self.CONFIG)])

    def digest(self, output):
        return output.digest()

    def oracle(self):
        if self._oracle is None:
            from oracles import dynext_final_error

            cfg = self.cfg
            gain = controller.GainField.from_exprs(
                cfg.system.n, cfg.system.m, cfg.bundle.builtin_gain)
            self._oracle = dynext_final_error(
                cfg.system, cfg.reference,
                lambda x, z: controller.dynext_beta(gain, x, z),
                cfg.sim.x0, cfg.sim.z0, cfg.sim.ell, cfg.sim.T)
        return self._oracle

    def check(self, output):
        problems = []
        if output.code != 0:
            problems.append(f"exit code {output.code}")
        summary = dict(line[2:].split(": ", 1) for line in output.lines
                       if line.startswith("# ") and ": " in line)
        rows = (output.first_row, output.last_row)
        times = [float(row.split(",", 1)[0]) for row in rows] if output.rows else []
        if times != [0.0, self.cfg.sim.T] or output.rows != self.items() + 1:
            problems.append(f"trace covers {times} in {output.rows} rows, "
                            f"not [0, {self.cfg.sim.T}]")
        try:
            final_err = float(summary["final_err"])
        except (KeyError, ValueError):
            problems.append("no final_err in the output")
        else:
            if not abs(final_err - self.oracle()) <= 1e-4:
                problems.append(f"final_err {final_err:g} vs RK45 {self.oracle():g}")
        return 1, int(bool(problems)), problems


class SweepStatic:
    """`sim.perturbation_sweep` on the microactuator with its constant
    builtin gain, kind static: 4 seeded directions at each of 4 radii, each
    run T = 10 with h = 0.01. Every run converges at these radii."""

    unit = "sample"
    RADII = (0.25, 0.5, 0.75, 1.0)
    SAMPLES = 4
    T, H = 10.0, 1e-2

    def __init__(self, seed):
        self.seed = seed
        self.bundle = self.gain = self.cfg = None

    def setup(self):
        self.bundle = model.builtin("microactuator")
        self.gain = controller.GainField.from_exprs(
            self.bundle.system.n, self.bundle.system.m, self.bundle.builtin_gain)
        self.cfg = sim.RunConfig(kind="static", T=self.T, h=self.H)

    def items(self):
        return len(self.RADII) * self.SAMPLES * int(round(self.T / self.H))

    def run(self):
        b = self.bundle
        return sim.perturbation_sweep(b.system, b.metric, self.gain, b.reference,
                                      self.cfg, self.RADII, self.SAMPLES, seed=self.seed)

    def digest(self, output):
        return hashlib.sha256(repr(output).encode()).hexdigest()

    def check(self, output):
        attempted = len(self.RADII) * self.SAMPLES
        problems = []
        failed = 0
        for (radius, fraction), expected in zip(output, self.RADII):
            misses = int(round((1.0 - fraction) * self.SAMPLES))
            if radius != expected or misses:
                failed += misses or self.SAMPLES
                problems.append(f"radius {radius}: converged fraction {fraction}")
        # The sweep hides its traces; every run shares T and h, so one
        # replayed first sample shows whether a trace covers [0, T].
        b = self.bundle
        direction = np.random.default_rng(self.seed).standard_normal(b.system.n)
        x0 = b.reference.xd0 + self.RADII[0] * direction / np.linalg.norm(direction)
        cfg = sim.RunConfig(kind="static", T=self.T, h=self.H, x0=x0)
        trace = sim.run_closed_loop(b.system, b.metric, self.gain, b.reference, cfg)
        if not (trace.completed and trace.t[0] == 0.0 and trace.t[-1] == self.T):
            failed = attempted
            problems.append(f"trace covers [{trace.t[0]}, {trace.t[-1]}], not [0, {self.T}]")
        return attempted, min(failed, attempted), problems


class GeodesicTrack:
    """`sim.run_closed_loop(kind="geodesic")` on the curved metric of
    configs/geodesic_demo.ini, with gain K = [-1, -(1 + x2^2)], reference
    xd0 = (0, 0), ud1 = sin(t), geodesic_N from the config (32), T = 1,
    h = 0.05, and x0 = (1, 0.5) + a seeded offset in [-0.02, 0.02]^2. The
    offset is small because the work of the geodesic solves follows x0
    (about +-9% over [-0.1, 0.1]^2), and the seeds must not spread the
    timings."""

    unit = "step"
    CONFIG = ROOT / "configs" / "geodesic_demo.ini"
    T, H = 1.0, 0.05

    def __init__(self, seed):
        offset = np.random.default_rng(seed).uniform(-0.02, 0.02, size=2)
        self.x0 = np.array([1.0, 0.5]) + offset
        self.cfg = self.gain = self.ref = self.run_cfg = None

    def setup(self):
        self.cfg = config.load_config(str(self.CONFIG))
        self.gain = controller.GainField.from_exprs(2, 1, [["-1", "-(1 + x2^2)"]])
        self.ref = model.ReferenceSpec.from_strings(2, [0.0, 0.0], ["sin(t)"])
        self.run_cfg = sim.RunConfig(
            kind="geodesic", T=self.T, h=self.H, x0=self.x0,
            geodesic_segments=self.cfg.sim.geodesic_segments)

    def items(self):
        return int(round(self.T / self.H))

    def run(self):
        return sim.run_closed_loop(self.cfg.system, self.cfg.metric, self.gain,
                                   self.ref, self.run_cfg)

    def digest(self, output):
        blob = b"".join(np.ascontiguousarray(a).tobytes() for a in
                        (output.t, output.x, output.xd, output.u, output.err))
        return hashlib.sha256(blob + repr(output.flags).encode()).hexdigest()

    def check(self, output):
        from ccmkit import geodesic
        from oracles import chord_length, curved_demo_metric, lattice_distance

        attempted = self.items() + 1     # one geodesic solve per control step
        problems = list(output.flags)
        if not output.completed:
            problems.append(f"stopped at t={output.t[-1]}")
        if not (output.t[0] == 0.0 and output.t[-1] == self.T
                and output.t.size == attempted):
            problems.append(f"trace covers [{output.t[0]}, {output.t[-1]}], not [0, {self.T}]")
        elif not output.err[-1] < output.err[0]:
            problems.append(f"err(T) = {output.err[-1]:g} >= err(0) = {output.err[0]:g}")
        else:
            metric = self.cfg.metric
            probe = np.array([[0.3, -0.7], [1.0, 1.5]])
            if not np.allclose([metric.eval(p) for p in probe], curved_demo_metric(probe),
                               rtol=1e-12, atol=0.0):
                problems.append("configs/geodesic_demo.ini metric differs from the oracle's")
            # First, middle and last trace samples, re-solved against the
            # lattice. Near x = xd the geodesic is within 2% of the chord, so
            # the pair of test_08_geodesic_correctness (tests/test_acceptance.py)
            # is added: there the chord is 7% longer than the geodesic, so a
            # solver returning the chord fails.
            pairs = [(f"t={output.t[k]:g}", output.xd[k], output.x[k])
                     for k in (0, attempted // 2, attempted - 1)]
            pairs.append(("test_08", np.array([-1.0, 0.5]), np.array([1.0, 0.5])))
            bent = False
            for label, xd, x in pairs:
                length = geodesic.solve_geodesic(
                    metric, xd, x, self.cfg.sim.geodesic_segments).length()
                oracle = lattice_distance(curved_demo_metric, xd, x)
                bent |= oracle < 0.98 * chord_length(curved_demo_metric, xd, x)
                if not abs(length - oracle) <= 0.02 * oracle:
                    problems.append(f"{label}: geodesic length {length:.6g} "
                                    f"vs lattice {oracle:.6g}")
            if not bent:
                problems.append("no checked pair tells a geodesic from its chord")
        return attempted, attempted if problems else 0, problems


WORKLOADS = {
    "certify": Certify,
    "track_dynext": TrackDynext,
    "sweep_static": SweepStatic,
    "geodesic_track": GeodesicTrack,
}


def make(name, seed):
    return WORKLOADS[name](seed)

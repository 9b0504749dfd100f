"""Grid-based numerical checks of contraction-metric conditions.

Four conditions are checked over a sampled domain box: the primal
contraction condition (with certified rate), the metric-invariance PDE
along input columns, the dual-metric form projected by the input
annihilator, and the robust block condition. They share one set-up
(`_checked_points`, `_annihilated`), one solver protocol (each hands
`_per_rank` the pencil to solve per group of points) and the metric's
forms along the drift and the input columns, `MetricField.form` compiled
once per system and metric (`_form_fields`). A dual-flow
diagnostic integrates the adjoint variable along a trajectory as a
sanity instrument (no pass/fail).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .integrate import rk4_step
from .linalg import (
    NonSymmetricError,
    SingularMatrixError,
    generalized_sym_eig,
    null_space_basis,
    sym_eig,
)
from .model import _Field

DEFAULT_TOL = 1e-8
DEFAULT_POINTS_PER_AXIS = 21
MAX_GRID_POINTS = 10**6
BOUND_TOL = 1e-9   # slack on the declared metric eigenvalue bounds
GAMMA0_CAP = 1e6   # check_robust at gamma0="auto" reports larger values as infeasible


class CertificateError(RuntimeError):
    pass


@dataclass
class Grid:
    """Uniform sample grid over a domain box, points in row-major order."""

    lo: np.ndarray
    hi: np.ndarray
    counts: tuple

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        self.counts = tuple(int(c) for c in self.counts)
        if any(c < 2 for c in self.counts):
            raise ValueError("need at least 2 samples per axis")
        total = math.prod(self.counts)
        if total > MAX_GRID_POINTS:
            raise ValueError(f"grid has {total} points, cap is {MAX_GRID_POINTS}")

    @classmethod
    def for_system(cls, sys, points_per_axis=DEFAULT_POINTS_PER_AXIS):
        return cls(sys.domain_lo, sys.domain_hi, (points_per_axis,) * sys.n)

    def axes(self):
        return [
            np.linspace(self.lo[i], self.hi[i], self.counts[i])
            for i in range(len(self.counts))
        ]

    def array(self):
        """All grid points as a (P, n) array, in row-major order."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([axis.ravel() for axis in mesh], axis=1)

    def __len__(self):
        return math.prod(self.counts)


@dataclass
class CertificateReport:
    condition: str
    passed: bool
    worst_margin: float
    witness_state: np.ndarray = None
    witness_direction: np.ndarray = None
    tolerance: float = DEFAULT_TOL
    certified_rate: float = None
    margins_mean: float = None
    margins_max: float = None
    margins_min: float = None
    details: dict = field(default_factory=dict)

    def summary_lines(self):
        lines = [
            f"condition: {self.condition}",
            f"pass: {self.passed}",
            f"worst_margin: {self.worst_margin:.12g}",
            f"tolerance: {self.tolerance:.3g}",
        ]
        if self.certified_rate is not None:
            lines.append(f"certified_rate: {self.certified_rate:.12g}")
        if self.witness_state is not None:
            lines.append(
                "witness_state: " + " ".join(f"{v:.9g}" for v in self.witness_state)
            )
        if self.witness_direction is not None:
            lines.append(
                "witness_direction: "
                + " ".join(f"{v:.9g}" for v in self.witness_direction)
            )
        if self.margins_min is not None:
            lines.append(
                f"margin_stats: min={self.margins_min:.9g} "
                f"mean={self.margins_mean:.9g} max={self.margins_max:.9g}"
            )
        for key, value in self.details.items():
            lines.append(f"{key}: {value}")
        return lines


def _finish(condition, points, margins, directions, passed, tol, **kwargs):
    """Report over the per-point margins; the witness is the first grid
    point in row-major order that attains the worst margin."""
    worst = int(np.argmax(margins))
    report = CertificateReport(
        condition=condition,
        passed=passed,
        worst_margin=float(margins[worst]),
        witness_state=points[worst].copy(),
        witness_direction=None if directions is None else directions[worst],
        tolerance=tol,
        margins_mean=float(margins.mean()),
        margins_max=float(margins.max()),
        margins_min=float(margins.min()),
        **kwargs,
    )
    report.details["worst_points"] = int(
        np.count_nonzero(margins >= margins[worst] - tol)
    )
    return report


@lru_cache(maxsize=8)  # test oracles ask for the form once per grid point
def _form_fields(sys, metric):
    """Fields of the metric's form along the drift, (n, n), and the input columns, (m, n, n)."""
    columns = [metric.form(b, db) for b, db in zip(zip(*sys.b_exprs), zip(*sys.db_exprs))]
    return _Field(metric.form(sys.f_exprs, sys.df_exprs), sys.vars), _Field(columns, sys.vars)


def _finite(what, field, x):
    """field(x) at one point or a stack x, after a test that raises at the first point
    where an entry is not finite, such as an inf literal that the expression builders fold."""
    values, points = field(x), np.reshape(x, (-1, np.shape(x)[-1]))
    finite = np.isfinite(values).reshape(len(points), -1).all(axis=1)
    if not finite.all():
        raise CertificateError(f"{what} not finite at x={points[np.argmin(finite)]}")
    return values


def _killing_margins(sys, metric, points):
    """Largest |entry| of the metric's form along the input columns per grid point."""
    return np.abs(_finite("metric form", _form_fields(sys, metric)[1], points)).max(axis=(1, 2, 3))


def _project(basis, a):
    """basis^T a basis over a stack."""
    return np.swapaxes(basis, 1, 2) @ a @ basis


def _per_rank(points, groups, pencil, width):
    """Largest eigenvalue and its eigenvector per grid point, solved once
    per group of points whose null-space bases share a dimension.

    `groups` is `null_space_basis` of a stack; `pencil(index, basis)`
    returns (a, b, lift) for the points `index`: the eigenproblem of a
    (`sym_eig`) when b is None, else of the pencil (a, b)
    (`generalized_sym_eig`). The witness direction is lift @ (top
    eigenvector), of length `width`. A linear-algebra error names the
    first failing grid point in row-major order.
    """
    margins = np.empty(len(points))
    directions = np.empty((len(points), width))
    failures = []
    for index, basis in groups:
        try:
            a, b, lift = pencil(index, basis)
            w, vecs = sym_eig(a) if b is None else generalized_sym_eig(a, b)
        except (NonSymmetricError, SingularMatrixError) as err:
            failures.append((index[err.index], err))
            continue
        margins[index] = w[:, -1]
        directions[index] = (lift @ vecs[:, :, -1:])[:, :, 0]
    if failures:
        at, err = min(failures, key=lambda item: item[0])
        raise type(err)(f"{err.reason} at x={points[at]}") from err
    return margins, directions


def _checked_points(metric, grid, role, check, tol):
    """The grid's points, after the role test, the tol test and a test that
    raises at the first point where M is not finite or an eigenvalue is NaN
    or outside [p_lo, p_hi]. A constant M is tested at the first point alone."""
    if metric.role != role:
        wanted = "a primal metric" if role == "primal" else "a metric with role=dual"
        raise CertificateError(f"{check} check needs {wanted}")
    if not 0 <= tol < math.inf:  # also rejects nan
        raise CertificateError("need a finite tol >= 0")
    points = grid.array()
    w, _ = sym_eig(_finite("metric", metric.eval, points[:1] if metric.constant else points))
    bad = np.flatnonzero(~((w[:, 0] >= metric.p_lo - BOUND_TOL)
                           & (w[:, -1] <= metric.p_hi + BOUND_TOL)))
    if bad.size:
        at = bad[0]
        raise CertificateError(
            f"metric eigenvalue bounds violated at x={points[at]}: "
            f"eigs in [{w[at, 0]:.6g}, {w[at, -1]:.6g}], "
            f"declared [{metric.p_lo:g}, {metric.p_hi:g}]")
    return points


def _annihilated(sys, metric, grid, role, check, tol):
    """The checked points, the form along the drift, M and the input
    annihilator's `null_space_basis` groups: of (M B)^T, or B^T if dual."""
    points = _checked_points(metric, grid, role, check, tol)
    form, m_x = contraction_quadratic(sys, metric, points)
    b = sys.eval_b(points)
    groups = null_space_basis(np.swapaxes(m_x @ b if role == "primal" else b, 1, 2))
    return points, form, m_x, groups


def contraction_quadratic(sys, metric, x):
    """The metric's form along the drift at x (`MetricField.form`), and M(x):
    for a primal metric the contraction matrix d_f M + M df/dx + (df/dx)^T M."""
    return _finite("metric form", _form_fields(sys, metric)[0], x), metric.eval(x)


def check_killing_pde(sys, metric, grid, tol=DEFAULT_TOL):
    """Residual of d_{B_i} M + (dB_i/dx)^T M + M (dB_i/dx) = 0 per column."""
    points = _checked_points(metric, grid, "primal", "Killing", tol)
    margins = _killing_margins(sys, metric, points)
    return _finish("killing_pde", points, margins, None, margins.max() <= tol, tol)


def check_c1(sys, metric, grid, tol=DEFAULT_TOL, rate=0.0):
    """Primal contraction condition restricted to the annihilator of (MB)^T.

    Margin at x is the largest generalized eigenvalue of
    (N^T Q N, N^T M N) with N the null basis of (M(x)B(x))^T and
    Q = sym(d_f M + 2 M df/dx). The certified rate is -worst_margin.
    Pass criterion: worst_margin <= -rate + tol for a rate > 0, else
    worst_margin < -tol (asymptotic).
    """
    if not 0 <= rate < math.inf:  # also rejects nan
        raise CertificateError("need a finite rate >= 0")
    points, q, m_x, groups = _annihilated(sys, metric, grid, "primal", "C1", tol)
    try:
        margins, directions = _per_rank(points, groups, lambda index, basis: (
            _project(basis, q[index]), _project(basis, m_x[index]), basis), sys.n)
    except SingularMatrixError as err:
        raise CertificateError(f"metric bound violation: {err}") from None
    worst = margins.max()
    passed = worst <= -rate + tol if rate > 0 else worst < -tol
    report = _finish("c1", points, margins, directions, passed, tol,
                     certified_rate=-worst)
    report.details["requested_rate"] = rate
    return report


def check_dual_w(sys, w_metric, grid, tol=DEFAULT_TOL):
    """Dual-metric conditions projected by the input annihilator.

    (a) largest eigenvalue of B_perp^T (-d_f W + J W + W J^T) B_perp must
    be strictly negative; (b) Killing residual in W-form must vanish.
    """
    points, flow, _, groups = _annihilated(sys, w_metric, grid, "dual", "dual-W", tol)
    margins, directions = _per_rank(
        points, groups, lambda index, basis: (_project(basis, flow[index]), None, basis), sys.n)
    killing_worst = float(_killing_margins(sys, w_metric, points).max())
    passed = margins.max() < -tol and killing_worst <= tol
    report = _finish("dual_w", points, margins, directions, passed, tol)
    report.details["killing_residual"] = killing_worst
    return report


def check_robust(sys, metric, grid, lam, gamma0, tol=DEFAULT_TOL, lambda_form="identity"):
    """Robust block condition on the doubled state space.

    The (1,1) block S is Q + lam*I as displayed, or Q + lam*M when
    lambda_form="metric"; the test direction is restricted to
    blockdiag(N, I_n) with N the null basis of (MB)^T. gamma0 is a number
    > 0 or "auto". The restricted block [[N^T S N, N^T M], [M N, -gamma0 I]]
    has every eigenvalue below -tol exactly when C = -(N^T S N + tol I) is
    positive definite and gamma0 - tol > lambda_max(N^T M^2 N, C) (Schur
    complement), so "auto" checks at the smallest such gamma0,

        gamma0_min = (tol + max_x lambda_max(N^T M^2 N, C)) * (1 + 1e-9),

    whose factor passes the strict test despite rounding, and also reports
    it as details["gamma0_min"]. Where C is indefinite at some grid point
    or gamma0_min exceeds GAMMA0_CAP, it checks at GAMMA0_CAP and fails.
    The model is evaluated once.
    """
    if not 0 <= lam < math.inf or gamma0 != "auto" and (
            isinstance(gamma0, str) or not 0 < gamma0 < math.inf):  # also rejects nan
        raise CertificateError('need finite lam >= 0 and gamma0 "auto" or finite > 0')
    if lambda_form not in ("identity", "metric"):
        raise CertificateError(f"unknown lambda_form {lambda_form!r}")
    points, q, m_x, groups = _annihilated(sys, metric, grid, "primal", "robust", tol)
    n = sys.n
    s = q + lam * (np.eye(n) if lambda_form == "identity" else m_x)

    def bound(index, basis):
        m_n = m_x[index] @ basis
        c = -(_project(basis, s[index]) + tol * np.eye(basis.shape[2]))
        return np.swapaxes(m_n, 1, 2) @ m_n, c, basis

    minimal = gamma0 == "auto"  # checked at gamma0_min, where it is at most GAMMA0_CAP
    if minimal:
        try:
            bounds, _ = _per_rank(points, groups, bound, n)
            gamma0 = (tol + float(bounds.max())) * (1.0 + 1e-9)
        except SingularMatrixError:
            gamma0 = np.inf
        minimal = gamma0 <= GAMMA0_CAP
        gamma0 = gamma0 if minimal else GAMMA0_CAP
    corner = np.broadcast_to(-gamma0 * np.eye(n), (len(points), n, n))
    big = np.block([[s, m_x], [m_x, corner]])

    def pencil(index, basis):
        k = basis.shape[2]
        lift = np.zeros((index.size, 2 * n, k + n))
        lift[:, :n, :k] = basis
        lift[:, n:, k:] = np.eye(n)
        return _project(lift, big[index]), None, lift

    margins, directions = _per_rank(points, groups, pencil, 2 * n)
    report = _finish("robust", points, margins, directions, margins.max() < -tol, tol)
    report.details.update({"lambda": lam, "gamma0": gamma0, "lambda_form": lambda_form})
    if minimal:
        report.details["gamma0_min"] = gamma0
    return report


def min_feasible_gamma0(sys, metric, grid, lam, tol=DEFAULT_TOL, lambda_form="identity"):
    """check_robust at gamma0="auto": (gamma0_min, or None where no gamma0
    up to GAMMA0_CAP passes, and the report)."""
    report = check_robust(sys, metric, grid, lam, "auto", tol, lambda_form)
    return report.details.get("gamma0_min"), report


def dual_flow_diagnostic(sys, metric, times, states, p0):
    """Integrate the adjoint flow p' = (df/dx)^T p along a state trace.

    Returns dict with V(t) = p^T M(x) p and the detectability output
    y_p = (M B)^T p on the same time grid. Diagnostic only.
    """
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    if times.ndim != 1 or states.shape[0] != times.size:
        raise ValueError("trace and time grid lengths differ")
    if not np.all(np.isfinite(p0)):
        raise ValueError("p0 must be finite")

    def x_at(t):
        # linear interpolation between trace samples for RK4 inner stages
        idx = np.searchsorted(times, t, side="right") - 1
        idx = min(max(idx, 0), times.size - 2)
        t0, t1 = times[idx], times[idx + 1]
        frac = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
        return (1 - frac) * states[idx] + frac * states[idx + 1]

    def field_fn(t, p):
        return sys.jac_f(x_at(t)).T @ p

    p = p0.copy()
    v_series = np.empty(times.size)
    y_series = np.empty((times.size, sys.m))
    for k, t in enumerate(times):
        x = states[k]
        m_x = metric.eval(x)
        v_series[k] = float(p @ m_x @ p)
        y_series[k] = (m_x @ sys.eval_b(x)).T @ p
        if k + 1 < times.size:
            p = rk4_step(field_fn, p, t, times[k + 1] - t)
    return {"t": times, "V": v_series, "y_p": y_series}

"""Grid-based numerical checks of contraction-metric conditions.

Four conditions are checked over a sampled domain box: the primal
contraction condition (with certified rate), the metric-invariance PDE
along input columns, the dual-metric form projected by the input
annihilator, and the robust block condition. A dual-flow diagnostic
integrates the adjoint variable along a trajectory as a sanity
instrument (no pass/fail).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .integrate import rk4_step
from .linalg import (
    NonSymmetricError,
    SingularMatrixError,
    generalized_sym_eig,
    null_space_basis,
    sym_eig,
)

DEFAULT_TOL = 1e-8
DEFAULT_POINTS_PER_AXIS = 21
MAX_GRID_POINTS = 10**6


class CertificateError(RuntimeError):
    pass


@dataclass
class Grid:
    """Uniform sample grid over a domain box, iterated row-major."""

    lo: np.ndarray
    hi: np.ndarray
    counts: tuple

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        self.counts = tuple(int(c) for c in self.counts)
        if any(c < 2 for c in self.counts):
            raise ValueError("need at least 2 samples per axis")
        total = int(np.prod(self.counts))
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

    def points(self):
        yield from self.array()

    def __len__(self):
        return int(np.prod(self.counts))


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


def _primal_stacks(sys, metric, points):
    """(Q, M, B) at every grid point as stacks, Q as in contraction_quadratic."""
    m_x = metric.eval(points, stacked=True)
    jac = sys.jac_f(points, stacked=True)
    dm_f = metric.dir_deriv(points, sys.eval_f(points, stacked=True), stacked=True)
    q = dm_f + m_x @ jac + np.swapaxes(jac, 1, 2) @ m_x
    return q, m_x, sys.eval_b(points, stacked=True)


def _column_stacks(sys, metric, points, b):
    """(dB_j/dx, d_{B_j} M) at every grid point, shape (P, m, n, n) each,
    from the stack b of B."""
    columns = range(sys.m)
    db = np.stack([sys.jac_b_col(points, j, stacked=True) for j in columns], axis=1)
    dm_b = np.stack([metric.dir_deriv(points, b[:, :, j], stacked=True)
                     for j in columns], axis=1)
    return db, dm_b


def _project(basis, a):
    """basis^T a basis over a stack."""
    return np.swapaxes(basis, 1, 2) @ a @ basis


def _per_rank(points, groups, solve, width):
    """Largest eigenvalue and its eigenvector per grid point, solved once
    per group of points whose null-space bases share a dimension.

    `groups` is `null_space_basis` of a stack; `solve(index, basis)`
    returns (eigenvalues, eigenvectors, lift) for the points `index`,
    and the witness direction is lift @ (top eigenvector), of length
    `width`. A linear-algebra error names the first failing grid point
    in row-major order.
    """
    margins = np.empty(len(points))
    directions = np.empty((len(points), width))
    failures = []
    for index, basis in groups:
        try:
            w, vecs, lift = solve(index, basis)
        except (NonSymmetricError, SingularMatrixError) as err:
            failures.append((index[err.index], err))
            continue
        margins[index] = w[:, -1]
        directions[index] = (lift @ vecs[:, :, -1:])[:, :, 0]
    if failures:
        at, err = min(failures, key=lambda item: item[0])
        raise type(err)(f"{err.reason} at x={points[at]}") from err
    return margins, directions


def _check_metric_bounds(metric, points, m_x, tol=1e-9):
    w, _ = sym_eig(m_x)
    bad = np.flatnonzero((w[:, 0] < metric.p_lo - tol) | (w[:, -1] > metric.p_hi + tol))
    if bad.size:
        at = bad[0]
        raise CertificateError(
            f"metric eigenvalue bounds violated at x={points[at]}: "
            f"eigs in [{w[at, 0]:.6g}, {w[at, -1]:.6g}], "
            f"declared [{metric.p_lo:g}, {metric.p_hi:g}]"
        )


def contraction_quadratic(sys, metric, x):
    """Symmetrized contraction matrix sym(d_f M + 2 M df/dx) at x."""
    m_x = metric.eval(x)
    jac = sys.jac_f(x)
    dm_f = metric.dir_deriv(x, sys.eval_f(x))
    return dm_f + m_x @ jac + jac.T @ m_x, m_x


def check_killing_pde(sys, metric, grid, tol=DEFAULT_TOL):
    """Residual of d_{B_i} M + (dB_i/dx)^T M + M (dB_i/dx) = 0 per column."""
    if metric.role != "primal":
        raise CertificateError("Killing check needs a primal metric")
    points = grid.array()
    m_x = metric.eval(points, stacked=True)[:, None]
    db, dm_b = _column_stacks(sys, metric, points, sys.eval_b(points, stacked=True))
    residual = dm_b + np.swapaxes(db, -1, -2) @ m_x + m_x @ db
    margins = np.abs(residual).max(axis=(1, 2, 3))
    passed = margins.max() <= tol
    return _finish("killing_pde", points, margins, None, passed, tol)


def check_c1(sys, metric, grid, tol=DEFAULT_TOL, rate=None):
    """Primal contraction condition restricted to the annihilator of (MB)^T.

    Margin at x is the largest generalized eigenvalue of
    (N^T Q N, N^T M N) with N the null basis of (M(x)B(x))^T and
    Q = sym(d_f M + 2 M df/dx). The certified rate is -worst_margin.
    Pass criterion: worst_margin < -tol (asymptotic) or
    worst_margin <= -rate + tol when a rate is requested.
    """
    if metric.role != "primal":
        raise CertificateError("C1 check needs a primal metric")
    if metric.p_lo <= 0:
        raise CertificateError("C1 check needs p_lo > 0")
    points = grid.array()
    q, m_x, b = _primal_stacks(sys, metric, points)
    _check_metric_bounds(metric, points, m_x)

    def solve(index, basis):
        w, vecs = generalized_sym_eig(
            _project(basis, q[index]), _project(basis, m_x[index])
        )
        return w, vecs, basis

    groups = null_space_basis(np.swapaxes(m_x @ b, 1, 2))
    try:
        margins, directions = _per_rank(points, groups, solve, sys.n)
    except SingularMatrixError as err:
        raise CertificateError(f"metric bound violation: {err}") from None
    worst = margins.max()
    if rate is not None:
        passed = worst <= -rate + tol
    else:
        passed = worst < -tol
    report = _finish("c1", points, margins, directions, passed, tol,
                     certified_rate=-worst)
    report.details["requested_rate"] = metric.lam if rate is None else rate
    return report


def check_dual_w(sys, w_metric, grid, tol=DEFAULT_TOL):
    """Dual-metric conditions projected by the input annihilator.

    (a) largest eigenvalue of B_perp^T (d_f W + J W + W J^T) B_perp must
    be strictly negative; (b) Killing residual in W-form must vanish.
    """
    if w_metric.role != "dual":
        raise CertificateError("dual-W check needs a metric with role=dual")
    points = grid.array()
    w_x = w_metric.eval(points, stacked=True)
    jac = sys.jac_f(points, stacked=True)
    dw_f = w_metric.dir_deriv(points, sys.eval_f(points, stacked=True), stacked=True)
    flow = dw_f + jac @ w_x + w_x @ np.swapaxes(jac, 1, 2)

    def solve(index, basis):
        w, vecs = sym_eig(_project(basis, flow[index]))
        return w, vecs, basis

    b = sys.eval_b(points, stacked=True)
    groups = null_space_basis(np.swapaxes(b, 1, 2))
    margins, directions = _per_rank(points, groups, solve, sys.n)
    db, dw_b = _column_stacks(sys, w_metric, points, b)
    w_x = w_x[:, None]
    residual = dw_b - db @ w_x - w_x @ np.swapaxes(db, -1, -2)
    killing_worst = float(np.abs(residual).max())
    passed = margins.max() < -tol and killing_worst <= tol
    report = _finish("dual_w", points, margins, directions, passed, tol)
    report.details["killing_residual"] = killing_worst
    return report


def _robust_stacks(sys, metric, grid, lam, gamma0, lambda_form):
    """Validated inputs and the stacks both robust computations share:
    grid points, S = Q + lam*I (or Q + lam*M), M, and the null-space
    groups of (MB)^T."""
    if metric.role != "primal":
        raise CertificateError("robust check needs a primal metric")
    if lam < 0 or gamma0 <= 0:
        raise CertificateError("need lam >= 0 and gamma0 > 0")
    if lambda_form not in ("identity", "metric"):
        raise CertificateError(f"unknown lambda_form {lambda_form!r}")
    points = grid.array()
    q, m_x, b = _primal_stacks(sys, metric, points)
    shift = lam * (np.eye(sys.n) if lambda_form == "identity" else m_x)
    groups = null_space_basis(np.swapaxes(m_x @ b, 1, 2))
    return points, q + shift, m_x, groups


def _robust_report(points, s, m_x, groups, lam, gamma0, tol, lambda_form):
    p, n = m_x.shape[:2]
    corner = np.broadcast_to(-gamma0 * np.eye(n), (p, n, n))
    big = np.block([[s, m_x], [m_x, corner]])

    def solve(index, basis):
        k = basis.shape[2]
        lift = np.zeros((index.size, 2 * n, k + n))
        lift[:, :n, :k] = basis
        lift[:, n:, k:] = np.eye(n)
        w, vecs = sym_eig(_project(lift, big[index]))
        return w, vecs, lift

    margins, directions = _per_rank(points, groups, solve, 2 * n)
    passed = margins.max() < -tol
    report = _finish("robust", points, margins, directions, passed, tol)
    report.details["lambda"] = lam
    report.details["gamma0"] = gamma0
    report.details["lambda_form"] = lambda_form
    return report


def check_robust(sys, metric, grid, lam, gamma0, tol=DEFAULT_TOL, lambda_form="identity"):
    """Robust block condition on the doubled state space.

    The (1,1) block is Q + lam*I as displayed, or Q + lam*M when
    lambda_form="metric"; the test direction is restricted to
    blockdiag(N, I_n) with N the null basis of (MB)^T.
    """
    stacks = _robust_stacks(sys, metric, grid, lam, gamma0, lambda_form)
    return _robust_report(*stacks, lam, gamma0, tol, lambda_form)


def min_feasible_gamma0(sys, metric, grid, lam, tol=DEFAULT_TOL,
                        lambda_form="identity", hi=1e6):
    """Smallest gamma0 for which check_robust passes, in closed form.

    With S the (1,1) block of check_robust and N the null basis of
    (MB)^T, the restricted block [[N^T S N, N^T M], [M N, -gamma0 I]]
    has every eigenvalue below -tol exactly when C = -(N^T S N + tol I)
    is positive definite and gamma0 - tol > lambda_max(N^T M^2 N, C)
    (Schur complement). Hence

        gamma0_min = tol + max_x lambda_max(N^T M^2 N, C),

    returned times (1 + 1e-9) so that it passes the strict test despite
    rounding. Returns (gamma0_min, report at gamma0_min), or
    (None, failing report at `hi`) when C is indefinite at some grid
    point or gamma0_min exceeds `hi`. The model is evaluated once; both
    results come from the same stacks.
    """
    stacks = _robust_stacks(sys, metric, grid, lam, hi, lambda_form)
    points, s, m_x, groups = stacks

    def solve(index, basis):
        m_n = m_x[index] @ basis
        c = -(_project(basis, s[index]) + tol * np.eye(basis.shape[2]))
        w, vecs = generalized_sym_eig(np.swapaxes(m_n, 1, 2) @ m_n, c)
        return w, vecs, basis

    try:
        bounds, _ = _per_rank(points, groups, solve, sys.n)
        gamma0 = (tol + float(bounds.max())) * (1.0 + 1e-9)
    except SingularMatrixError:
        gamma0 = None
    if gamma0 is None or gamma0 > hi:
        return None, _robust_report(*stacks, lam, hi, tol, lambda_form)
    report = _robust_report(*stacks, lam, gamma0, tol, lambda_form)
    report.details["gamma0_min"] = gamma0
    return gamma0, report


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

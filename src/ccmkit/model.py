"""Control-affine system models, candidate metrics and reference specs.

Everything is defined through scalar expression ASTs so that all the
Jacobians and metric derivatives consumed by the certificate checks and
the controller synthesis come from exact symbolic differentiation. Each
expression-defined array (f, B, M, their derivatives, u_d, symbolic gains)
is one `_Field` (a column of dB/dx or an axis of dM/dx is a slice), one
numpy program for one point or a stack of them. The metric's form along a
vector field, d_v M + M A + A^T M, is built as expressions too
(`MetricField.form`), for the certificates and the synthesized gain.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expr as ex
from .integrate import DIVERGENCE_LIMIT, IntegrationError, rk4_solve


class ModelError(ValueError):
    pass


def state_vars(n):
    return [f"x{i + 1}" for i in range(n)]


class _Field:
    """An expression or nested list of them over `variables`, compiled on first
    use to one numpy program (`expr.compile_array_fn`) for one point `(n,)` or a
    stack `(..., n)`; an EvalDomainError, overflow included, re-runs it on halved
    prefixes of the stack to name the first failing point in C order."""

    def __init__(self, exprs, variables):
        self.exprs = exprs
        self.variables = variables

    @cached_property
    def constant(self):  # no entry depends on a variable
        return not ex.free_variables(self.exprs)

    @cached_property
    def _program(self):
        return ex.compile_array_fn(self.exprs, self.variables)

    def __call__(self, x):
        try:
            return self._program(x)
        except ex.EvalDomainError:  # the stacked call names no point: bisect the prefixes
            x = np.asarray(x, dtype=float)
            points = x.reshape(-1, x.shape[-1])
            good, bad = 0, len(points)  # the first `bad` points fail, the first `good` not
            while bad - good > 1:
                middle = (good + bad) // 2
                try:
                    self._program(points[:middle])
                    good = middle
                except ex.EvalDomainError:
                    bad = middle
            try:
                self._program(points[bad - 1])
            except ex.EvalDomainError as err:
                raise ex.EvalDomainError(f"{err} at x={points[bad - 1]}") from None
            raise


def _parse_entry(text, variables):
    if isinstance(text, ex.Expr):
        return text
    return ex.parse(text, variables)


class SystemModel:
    """x' = f(x) + B(x) u on an axis-aligned domain box.

    The evaluation methods take one point, shape `(n,)`, or a stack of
    points, shape `(P, n)`, evaluated in one call, giving `(P, ...)`.
    """

    def __init__(self, n, m, f_exprs, b_exprs, domain_lo, domain_hi, name=""):
        if not (all(isinstance(k, (int, np.integer)) for k in (n, m)) and 1 <= m < n):
            raise ModelError(f"need integers 1 <= m < n, got n={n!r}, m={m!r}")
        self.n = int(n)
        self.m = int(m)
        self.name = name
        self.vars = state_vars(n)
        self.f_exprs = [_parse_entry(e, self.vars) for e in f_exprs]
        self.b_exprs = [[_parse_entry(e, self.vars) for e in row] for row in b_exprs]
        if len(self.f_exprs) != n or len(self.b_exprs) != n:
            raise ModelError("f must have n entries and B must have n rows")
        if any(len(row) != m for row in self.b_exprs):
            raise ModelError("B must have m columns")
        self.domain_lo = np.asarray(domain_lo, dtype=float)
        self.domain_hi = np.asarray(domain_hi, dtype=float)
        if self.domain_lo.shape != (n,) or self.domain_hi.shape != (n,):
            raise ModelError("domain bounds must have n entries")
        if not np.all(np.isfinite(self.domain_lo) & np.isfinite(self.domain_hi)
                      & (self.domain_lo < self.domain_hi)):  # also rejects nan
            raise ModelError("domain box needs finite bounds and positive extent")

        self.df_exprs = [
            [ex.differentiate(fi, v) for v in self.vars] for fi in self.f_exprs
        ]
        self.db_exprs = [
            [[ex.differentiate(bij, v) for v in self.vars] for bij in row]
            for row in self.b_exprs
        ]
        self._f = _Field(self.f_exprs, self.vars)
        self._b = _Field(self.b_exprs, self.vars)
        self._df = _Field(self.df_exprs, self.vars)
        self._db = _Field([[row[j] for row in self.db_exprs] for j in range(m)], self.vars)

    def in_domain(self, x):
        """Whether x lies in the domain box; per point for a (P, n) stack."""
        x = np.asarray(x, dtype=float)
        inside = np.all((x >= self.domain_lo - 1e-12) & (x <= self.domain_hi + 1e-12), axis=-1)
        return inside if inside.ndim else bool(inside)

    def eval_f(self, x):
        return self._f(x)

    def eval_b(self, x):
        return self._b(x)

    def jac_f(self, x):
        """Jacobian of the drift, (i, j) entry = d f_i / d x_j."""
        return self._df(x)

    def jac_b(self, x):
        """Jacobians of the columns of B, (j, i, k) entry = d B_ij / d x_k."""
        return self._db(x)

    def jac_b_col(self, x, j):
        """Jacobian of the j-th column of B, (i, k) entry = d B_ij / d x_k."""
        return self.jac_b(x)[..., j, :, :]

    def a_matrix(self, x, u):
        """Differential-dynamics matrix: jac_f + sum_j u_j * d(B col j)/dx."""
        return self.jac_f(x) + np.tensordot(np.asarray(u, dtype=float), self.jac_b(x), axes=1)


class MetricField:
    """Symmetric state-dependent metric with eigenvalue bounds and rate.

    role is "primal" (M itself) or "dual" (W = M^-1). The upper triangle
    of the given entries is mirrored so symmetry is exact. As on
    SystemModel, a `(P, n)` stack of points is evaluated in one call.
    """

    def __init__(self, n, m_exprs, p_lo, p_hi, lam, role="primal"):
        if role not in ("primal", "dual"):
            raise ModelError(f"metric role must be primal or dual, got {role!r}")
        if not 0 < p_lo <= p_hi < np.inf:  # also rejects nan
            raise ModelError(f"need finite 0 < p_lo <= p_hi, got p_lo={p_lo}, p_hi={p_hi}")
        if not 0 <= lam < np.inf:
            raise ModelError(f"contraction rate must be finite and nonnegative, got {lam}")
        self.n = int(n)
        self.role = role
        self.p_lo = float(p_lo)
        self.p_hi = float(p_hi)
        self.lam = float(lam)
        self.vars = state_vars(n)
        parsed = [[_parse_entry(e, self.vars) for e in row] for row in m_exprs]
        if len(parsed) != n or any(len(row) != n for row in parsed):
            raise ModelError("metric must be n x n")
        # mirror the upper triangle so M(x) = M(x)^T holds exactly
        self.m_exprs = [
            [parsed[i][j] if i <= j else parsed[j][i] for j in range(n)]
            for i in range(n)
        ]
        self.dm_exprs = [
            [[ex.differentiate(mij, v) for v in self.vars] for mij in row]
            for row in self.m_exprs
        ]
        self._m = _Field(self.m_exprs, self.vars)
        self._dm = _Field(self.dm_exprs, self.vars)
        self.constant = self._m.constant

    def eval(self, x):
        return self._m(x)

    def partials(self, x):
        """The derivatives of M, (i, j, k) entry = d M_ij / d x_k."""
        return self._dm(x)

    def partial(self, x, k):
        """d M / d x_k, entrywise."""
        return self.partials(x)[..., k]

    @cached_property
    def _segment(self):
        d = [ex.var(f"d{i + 1}") for i in range(self.n)]
        m_d = ex.matvec(self.m_exprs, d)
        dm_d = [ex.matvec([[mij[a] for mij in row] for row in self.dm_exprs], d)
                for a in range(self.n)]
        energy, *bends = ex.matvec([m_d, *dm_d], d)
        # d^T (d^2 M/dx_a dx_b) d = d bends[a] / dx_b, mirrored so it is symmetric
        curvature = [[ex.differentiate(bends[min(a, b)], self.vars[max(a, b)])
                      for b in range(self.n)] for a in range(self.n)]
        entries = [energy, *m_d, *bends] + [e for rows in (self.m_exprs, dm_d, curvature)
                                            for row in rows for e in row]
        return _Field(entries, self.vars + [v.name for v in d])

    def segment(self, x, d):
        """The segment kernel at `(P, n)` stacks of midpoints x and segments
        d: `(P, 1 + 2n + 3n^2)` columns d^T M d, then M d, then d^T (dM/dx_a) d
        per axis a, then row-major n x n blocks M, (dM/dx_a) d as row a, and
        d^T (d^2 M/dx_a dx_b) d. Built and compiled on first use."""
        return self._segment(np.concatenate([x, d], axis=-1))

    def dir_deriv(self, x, v):
        """Directional derivative sum_k v_k dM/dx_k (per point of a stack
        x, with v of the same shape)."""
        v = np.asarray(v, dtype=float)
        if self.constant:
            return np.zeros(v.shape[:-1] + (self.n, self.n))
        return (self.partials(x) * v[..., None, None, :]).sum(axis=-1)

    def form(self, v, a):
        """The metric's form along a vector field, n expressions v with n x n Jacobian
        expressions a, as n x n expressions: d_v M + M a + a^T M, or -d_v W + a W + W a^T
        for role dual (the primal form at -v and a^T)."""
        if self.role == "dual":
            v, a = [ex.neg(e) for e in v], list(zip(*a))
        d_v = [ex.matvec(rows, v) for rows in self.dm_exprs]
        m_a = [ex.matvec(self.m_exprs, col) for col in zip(*a)]  # m_a[j][i] = (M a)_ij = (a^T M)_ji
        return [[ex.add(ex.add(d_v[i][j], m_a[j][i]), m_a[i][j]) for j in range(self.n)]
                for i in range(self.n)]


def _reference_vars(n):
    return ["t"] + [f"xd{i + 1}" for i in range(n)]


@dataclass
class ReferenceSpec:
    """Target initial state plus feedforward expressions over {t, xd1..xdn}."""

    xd0: np.ndarray
    ud_exprs: list

    @classmethod
    def from_strings(cls, n, xd0, ud_texts):
        variables = _reference_vars(n)
        exprs = [_parse_entry(s, variables) for s in ud_texts]
        return cls(np.asarray(xd0, dtype=float), exprs)

    @cached_property
    def _ud(self):
        return _Field(self.ud_exprs, _reference_vars(len(self.xd0)))

    def eval_ud(self, t, xd):
        """u_d at time t and one target state xd."""
        return self._ud(np.concatenate(([t], xd)))


def generate_reference(sys, ref, T, h):
    """Integrate the target dynamics xd' = f(xd) + B(xd) ud(t, xd).

    Returns dict with keys t, xd, ud (arrays); flags domain violations.
    """
    if T <= 0 or h <= 0:
        raise ValueError("need T > 0 and h > 0")

    def field_fn(t, xd):
        if np.max(np.abs(xd)) > DIVERGENCE_LIMIT:
            raise IntegrationError("reference diverged (forward completeness)", t)
        ud = ref.eval_ud(t, xd)
        return sys.eval_f(xd) + sys.eval_b(xd) @ ud

    times, xd = rk4_solve(field_fn, ref.xd0, 0.0, T, h)
    ud = ref._ud(np.column_stack([times, xd]))  # one call for the whole trace
    violations = times[1:][~sys.in_domain(xd[1:])].tolist()
    if violations:
        warnings.warn(
            f"reference leaves the domain box at t = {violations[0]:g} "
            f"({len(violations)} samples)",
            stacklevel=2,
        )
    return {"t": times, "xd": xd, "ud": ud, "domain_violations": violations}


@dataclass
class BuiltinBundle:
    system: SystemModel
    metric: MetricField          # primal, role-checked
    dual_metric: MetricField     # W = M^-1 where available
    reference: ReferenceSpec
    builtin_gain: list           # m x n expression strings


def _numex():
    # planar system: x1' = x2^3/3 + x2, x2' = -x2 + u
    system = SystemModel(
        n=2,
        m=1,
        f_exprs=["(1/3)*x2^3 + x2", "-x2"],
        b_exprs=[["0"], ["1"]],
        domain_lo=[-6.0, -6.0],
        domain_hi=[6.0, 6.0],
        name="numex",
    )
    # The matrix [[3,-1],[-1,2]] satisfies the dual-form condition; its
    # inverse (1/5)[[2,1],[1,3]] is the primal metric. Eigenvalues of the
    # primal are (1 -+ 1/sqrt(5))/2, bounds below are slightly loosened.
    metric = MetricField(
        2,
        [["2/5", "1/5"], ["1/5", "3/5"]],
        p_lo=0.27,
        p_hi=0.73,
        lam=2.0 / 3.0,
        role="primal",
    )
    dual = MetricField(
        2,
        [["3", "-1"], ["-1", "2"]],
        p_lo=1.3,
        p_hi=3.7,
        lam=2.0 / 3.0,
        role="dual",
    )
    reference = ReferenceSpec.from_strings(
        2, [3.0, -1.0], ["sin(t) - cos(t)^2 * xd1"]
    )
    return BuiltinBundle(
        system=system,
        metric=metric,
        dual_metric=dual,
        reference=reference,
        builtin_gain=[["-(x2^2 + 1)", "-x2^2"]],
    )


def _microactuator():
    # electrostatic microactuator, normalized parameters
    # m = 1, k = 1, b = 2, R = 1, A = 3, eps = 1/2 (so R*A*eps = 3/2)
    # state (x1, x2, x3) = (air gap q, momentum p, charge Q)
    system = SystemModel(
        n=3,
        m=1,
        f_exprs=[
            "x2",
            "-(x1 - 1) - x3^2/3 - 2*x2",
            "-(2/3)*x1*x3",
        ],
        b_exprs=[["0"], ["0"], ["1"]],
        domain_lo=[0.0, -3.0, -0.5],
        domain_hi=[2.0, 3.0, 3.0],
        name="microactuator",
    )
    # inverse of the feasible dual solution blockdiag([[3/2,-1/2],[-1/2,1/2]], 1)
    metric = MetricField(
        3,
        [["1", "1", "0"], ["1", "3", "0"], ["0", "0", "1"]],
        p_lo=0.58,
        p_hi=3.42,
        lam=0.5,
        role="primal",
    )
    dual = MetricField(
        3,
        [["3/2", "-1/2", "0"], ["-1/2", "1/2", "0"], ["0", "0", "1"]],
        p_lo=0.29,
        p_hi=1.71,
        lam=0.5,
        role="dual",
    )
    reference = ReferenceSpec.from_strings(
        3, [0.2, 0.0, 0.0], ["abs(sin(t/5) + cos(t))*0.5"]
    )
    return BuiltinBundle(
        system=system,
        metric=metric,
        dual_metric=dual,
        reference=reference,
        builtin_gain=[["0", "0", "-2"]],
    )


_BUILTINS = {"numex": _numex, "microactuator": _microactuator}


def builtin_names():
    return sorted(_BUILTINS)


def builtin(name):
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise ModelError(
            f"unknown builtin {name!r}; available: {', '.join(builtin_names())}"
        )
    return factory()

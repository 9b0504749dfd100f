"""Tracking-gain synthesis and controller realizations.

The differential gain is damping injection along the detectable output
(MB)^T dx: K(x) = -[gamma(x) + gamma0] R(x) (M(x)B(x))^T with damping
matrix R = [(MB)^T MB]^-1 and gamma from the metric's form along the
drift (`MetricField.form`), built as expressions like every GainField.
Three realizations turn it into an actual feedback: an exact potential
when the gain field is curl-free, a geodesic path integral (see the
geodesic module), and a dynamic extension with an observer-like state z;
`sim` compiles the potentials' expressions into its closed loop. Both are
line integrals of K along straight segments from one builder, each on a
Gauss-Legendre rule sized from its integrand's polynomial degree
(`expr.degree`), QUAD_NODES nodes when the degree is unbounded; the numpy
oracles keep QUAD_NODES nodes throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, reduce

import numpy as np

from . import expr as ex
from .certificates import Grid, contraction_quadratic
from .integrate import rk4_step
from .linalg import SingularMatrixError, inverse, spectral_norm
from .model import _Field, _parse_entry, state_vars

EXACTNESS_TOL = 1e-10
QUAD_NODES = 32   # Gauss-Legendre nodes of an integrand of unbounded degree


class SynthesisError(RuntimeError):
    pass


class ExactnessError(RuntimeError):
    pass


@cache
def gauss_legendre_01(nodes=QUAD_NODES):
    """The `nodes`-point Gauss-Legendre nodes/weights on [0, 1], exact for
    polynomials of degree up to 2 nodes - 1."""
    points, weights = np.polynomial.legendre.leggauss(nodes)
    return 0.5 * (points + 1.0), 0.5 * weights


@dataclass
class DampingParams:
    """r > 1/(2*lambda) and the extra damping gamma0 > 0.

    lambda0 = min(lambda - 1/(2r), 2/p_lo) is the rate the damping
    argument guarantees; reported as metadata, never asserted.
    """

    r: float
    gamma0: float
    lam: float

    def __post_init__(self):
        if not 0 < self.gamma0 < np.inf:  # also rejects nan
            raise SynthesisError(f"gamma0 must be finite and positive, got {self.gamma0:g}")
        if not (0 < self.lam < np.inf and 1.0 < 2.0 * self.r * self.lam < np.inf):
            raise SynthesisError(
                f"need finite r > 1/(2*lambda): r={self.r:g}, lambda={self.lam:g}"
            )

    def lambda0(self, p_lo):
        return min(self.lam - 1.0 / (2.0 * self.r), 2.0 / p_lo)


def upsilon(metric, sys, x):
    """Upsilon(x) = ||F(x)||_2, the spectral norm of the metric's form
    F = d_f M + M (df/dx) + (df/dx)^T M (`contraction_quadratic`), at one
    point or at each point of a (P, n) stack: the lower bound that the
    Frobenius norm of `synthesize_gain`'s gamma dominates."""
    return spectral_norm(contraction_quadratic(sys, metric, x)[0])


class GainField:
    """Differential gain K(x) in R^{m x n}: m x n expressions over x1..xn.
    It is a `model._Field`: one point (n,) gives (m, n), a (P, n) stack
    (P, m, n) in one call; its partials are one more, of shape (n, m, n).
    `constant_matrix` is K when no entry has a variable, else None."""

    def __init__(self, n, m, exprs, meta=None):
        if len(exprs) != m or any(len(row) != n for row in exprs):
            raise SynthesisError(f"gain must be {m} x {n}")
        self.n = n
        self.m = m
        self.exprs = exprs
        self.meta = meta or {}
        self._k = _Field(exprs, state_vars(n))
        self.constant_matrix = self._k(np.zeros(n)) if self._k.constant else None

    @classmethod
    def from_exprs(cls, n, m, entries):
        variables = state_vars(n)
        return cls(n, m, [[_parse_entry(e, variables) for e in row] for row in entries])

    def __call__(self, x):
        return self._k(np.asarray(x, dtype=float))

    def is_constant(self):
        return self.constant_matrix is not None

    @cached_property
    def _partials(self):  # (k, r, i) entry = dK_ri/dx_k
        xs = state_vars(self.n)
        return _Field([[[ex.differentiate(e, v) for e in row] for row in self.exprs] for v in xs],
                      xs)

    @cached_property
    def _curl(self):  # dK_ri/dx_j - dK_rj/dx_i for each row r and i < j; no diagonal partial
        d = self._partials.exprs
        pairs = [(i, j) for i in range(self.n) for j in range(i + 1, self.n)]
        return _Field([ex.sub(d[j][r][i], d[i][r][j]) for r in range(self.m) for i, j in pairs],
                      state_vars(self.n))

    def partial(self, x, axis):
        """dK/dx_axis, from the symbolic derivatives of the entries."""
        return self._partials(np.asarray(x, dtype=float))[..., axis, :, :]


def _solve_spd(g, rhs):
    """g^-1 rhs as expressions, for a symmetric positive definite m x m g
    and m rows of rhs: Gauss-Jordan elimination without pivoting (one
    division per entry for m = 1)."""
    rows = [g_r + r_r for g_r, r_r in zip(g, rhs)]
    for i in range(len(g)):
        rows[i] = [ex.div(a, rows[i][i]) for a in rows[i]]
        for r in [r for r in range(len(g)) if r != i]:
            rows[r] = [ex.sub(a, ex.mul(rows[r][i], b)) for a, b in zip(rows[r], rows[i])]
    return [row[len(g):] for row in rows]


def synthesize_gain(sys, metric, params: DampingParams, gamma_const=None, grid=None):
    """Damping-injection gain K(x) = -[gamma(x)+gamma0] R(x) (MB)^T, as
    expressions built from those of the system and the metric.

    gamma(x) defaults to (r/p_lo) ||F(x)||_F^2 with F the metric's form along the drift
    (`MetricField.form`), an admissible bound of (r/p_lo) Upsilon(x)^2 for every n; gamma_const
    replaces it with a fixed positive constant (bounded-domain mode, gamma0
    is then folded to zero). (MB)^T MB must be invertible at each point of
    `grid` (default: `Grid.for_system(sys)`).
    """
    if metric.role != "primal":
        raise SynthesisError("gain synthesis needs a primal metric")
    if gamma_const is not None and not 0 < gamma_const < np.inf:  # also rejects nan
        raise SynthesisError(f"constant gamma must be finite and positive, got {gamma_const:g}")
    mb_t = [ex.matvec(metric.m_exprs, col) for col in zip(*sys.b_exprs)]
    gram = [ex.matvec(mb_t, row) for row in mb_t]
    points = (grid if grid is not None else Grid.for_system(sys)).array()
    try:
        inverse(_Field(gram, sys.vars)(points))
    except SingularMatrixError as err:
        raise SynthesisError(
            f"(MB)^T MB singular at x={points[err.index]}: input matrix loses rank"
        ) from None

    if gamma_const is not None:
        magnitude = ex.const(gamma_const)
        meta = {"gamma": f"const {gamma_const:g}", "gamma0": 0.0,
                "proviso": "constant gamma relies on a bounded operating domain"}
    else:
        squares = [ex.pow_int(e, 2) for row in metric.form(sys.f_exprs, sys.df_exprs) for e in row]
        magnitude = ex.add(ex.mul(ex.const(params.r / metric.p_lo), reduce(ex.add, squares)),
                           ex.const(params.gamma0))
        meta = {"gamma": f"(r/p_lo)*||d_f M + M A + A^T M||_F^2 with r={params.r:g}",
                "gamma0": params.gamma0}
    meta["lambda0"] = params.lambda0(metric.p_lo)
    k = [[ex.neg(ex.mul(magnitude, d)) for d in row] for row in _solve_spd(gram, mb_t)]
    return GainField(sys.n, sys.m, k, meta=meta)


def exactness_residual(gain, grid):
    """Mixed-partials integrability defect of the gain field.

    Returns (max residual, witness state); zero means dK is symmetric in
    every input row, so a potential exists. An undefined partial raises
    EvalDomainError naming the first grid point where it is undefined.
    """
    if gain.is_constant():
        lo = np.asarray(grid.lo)
        return 0.0, 0.5 * (lo + np.asarray(grid.hi))
    points = grid.array()
    residuals = np.abs(gain._curl(points)).max(axis=1)
    worst = int(np.argmax(residuals))
    if residuals[worst] == 0.0:
        return 0.0, None
    return float(residuals[worst]), points[worst]


def radial_potential(gain, x):
    """beta(x) = integral_0^1 K(s x) x ds via Gauss-Legendre."""
    x = np.asarray(x, dtype=float)
    if gain.is_constant():
        return gain.constant_matrix @ x
    points, weights = gauss_legendre_01()
    return weights @ (gain(points[:, None] * x) @ x)


def _line_integral_exprs(gain, start, tangent):
    """integral_0^1 K(start + s tangent) ds tangent as m Exprs: K is
    substituted along the segment once, with s a variable, summed as
    w_q K(p(s_q)) on the Gauss-Legendre rule exact for the integrand's
    degree in s (QUAD_NODES nodes when unbounded), then applied to the
    tangent. A constant K gets 1 node of weight 1.0, so K tangent."""
    path = {name: ex.add(a, ex.mul(ex.var("_s"), b))
            for name, a, b in zip(state_vars(gain.n), start, tangent)}
    k_s = [ex.substitute(row, path) for row in gain.exprs]
    d = min(max(ex.degree(ex.matvec(k_s, tangent), ["_s"])), 2 * QUAD_NODES - 1)  # inf included
    points, weights = gauss_legendre_01(d // 2 + 1)
    k_sum = [[ex.ZERO] * gain.n for _ in k_s]
    for s_q, w_q in zip(points.tolist(), weights.tolist()):
        k_q = [ex.substitute(row, {"_s": ex.const(s_q)}) for row in k_s]
        k_sum = [[ex.add(a, ex.mul(ex.const(w_q), b)) for a, b in zip(*rows)]
                 for rows in zip(k_sum, k_q)]
    return ex.matvec(k_sum, tangent)


def radial_potential_exprs(gain, x):
    """`radial_potential` as m Exprs in x: the line integral of K from 0 to x."""
    return _line_integral_exprs(gain, [ex.ZERO] * gain.n, x)


def static_exact_controller(gain, x, x_d, u_d, residual=None, grid=None):
    """u = u_d + beta(x) - beta(x_d); requires a curl-free gain field.

    Pass either a precomputed exactness residual or a grid to measure it.
    """
    if residual is None:
        if gain.is_constant():
            residual = 0.0
        elif grid is not None:
            residual, _ = exactness_residual(gain, grid)
        else:
            raise ExactnessError("provide an exactness residual or a grid")
    if residual > EXACTNESS_TOL:
        raise ExactnessError(
            f"gain field is not exact (residual {residual:g} > {EXACTNESS_TOL:g}); "
            "use the dynamic-extension or geodesic controller"
        )
    return np.asarray(u_d, dtype=float) + radial_potential(gain, x) - radial_potential(gain, x_d)


def dynext_beta(gain, x, z):
    """Mixed-coordinate potential of the dynamic extension.

    beta(x, z) = sum_i integral_0^{x_i} K_col_i(z_1,..,mu,..,z_n) dmu
    with mu in the i-th slot; each 1-D integral by Gauss-Legendre. x is
    one point, giving (m,), or a (B, n) stack sharing z, giving (B, m);
    the nodes of every row and axis are evaluated in one gain call.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if gain.is_constant():
        return x @ gain.constant_matrix.T
    points, weights = gauss_legendre_01()
    rows = x.reshape(-1, gain.n)
    row, axis = rows.nonzero()  # an axis with x_i = 0 adds nothing
    reach = rows[row, axis]
    slot = np.arange(row.size)
    node = np.empty((row.size, points.size, gain.n))
    node[:] = z
    node[slot, :, axis] = reach[:, None] * points
    k = gain(node.reshape(-1, gain.n)).reshape(node.shape[:2] + (gain.m, gain.n))
    out = np.zeros((len(rows), gain.m))
    np.add.at(out, row, reach[:, None] * (weights @ k[slot, :, :, axis]))
    return out.reshape(x.shape[:-1] + (gain.m,))


def dynext_correction_exprs(gain, x, x_d, z):
    """beta(x, z) - beta(x_d, z) of `dynext_control` as m Exprs in x, x_d and z:
    the sum over the axes i of the line integral of K along (x_i - x_d,i) e_i
    from z with slot i at x_d,i. With x_d = 0 it is `dynext_beta`."""
    per_axis = [_line_integral_exprs(gain, [a if k == i else z_k for k, z_k in enumerate(z)],
                                     [ex.sub(b, a) if k == i else ex.ZERO for k in range(gain.n)])
                for i, (a, b) in enumerate(zip(x_d, x))]
    return [reduce(ex.add, terms) for terms in zip(*per_axis)]


def khat(gain, x, z):
    """dbeta/dx(x, z): column i of K evaluated with x_i in slot i and z
    elsewhere. khat(x, x) = K(x)."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    diag = np.arange(gain.n)
    points = np.tile(z, (gain.n, 1))
    points[diag, diag] = x
    return gain(points)[diag, :, diag].T


@dataclass
class DynExtState:
    """Observer-like state of the dynamic extension; single-owner mutable."""

    z: np.ndarray
    ell: float

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=float)
        if self.ell <= 0:
            raise SynthesisError("ell must be positive")


def dynext_control(gain, z, x, x_d, u_d):
    """u = u_d + beta(x, z) - beta(x_d, z) with the current z."""
    beta = dynext_beta(gain, np.stack([x, x_d]), z)
    return np.asarray(u_d, dtype=float) + beta[0] - beta[1]


def dynext_controller_step(gain, state: DynExtState, sys, x, x_d, u_d, t, h):
    """Compute u from the current z, then advance z one RK4 step of
    z' = f(x) + B(x) u - ell (z - x) with x and u held over the step."""
    u = dynext_control(gain, state.z, x, x_d, u_d)
    fx = sys.eval_f(x)
    bx = sys.eval_b(x)

    def field_fn(_t, z):
        return fx + bx @ u - state.ell * (z - x)

    state.z = rk4_step(field_fn, state.z, t, h)
    return u, state.z

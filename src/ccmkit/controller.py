"""Tracking-gain synthesis and controller realizations.

The differential gain is damping injection along the detectable output
(MB)^T dx: K(x) = -[gamma(x) + gamma0] R(x) (M(x)B(x))^T with damping
matrix R = [(MB)^T MB]^-1. Three realizations turn the differential
gain into an actual feedback: an exact potential when the gain field is
curl-free, a geodesic path integral (see the geodesic module), and a
dynamic extension with an observer-like state z.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from . import expr as ex
from .integrate import rk4_step
from .linalg import SingularMatrixError, inverse, spectral_norm
from .model import _Field, state_vars

EXACTNESS_TOL = 1e-10
QUAD_NODES = 32   # Gauss-Legendre nodes of every potential quadrature
FD_STEP = 1e-6    # central-difference step of a gain without expressions


class SynthesisError(RuntimeError):
    pass


class ExactnessError(RuntimeError):
    pass


@cache
def gauss_legendre_01():
    """The QUAD_NODES-point Gauss-Legendre nodes/weights on [0, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(QUAD_NODES)
    return 0.5 * (nodes + 1.0), 0.5 * weights


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
        if self.gamma0 <= 0:
            raise SynthesisError("gamma0 must be positive")
        if self.lam <= 0 or 2.0 * self.r * self.lam <= 1.0:
            raise SynthesisError(
                f"need r > 1/(2*lambda): r={self.r:g}, lambda={self.lam:g}"
            )

    def lambda0(self, p_lo):
        return min(self.lam - 1.0 / (2.0 * self.r), 2.0 / p_lo)


def upsilon(metric, sys, x):
    """Norm bound used for the damping magnitude:
    || d_f M + (df/dx)^T M + M (df/dx) || (spectral norm), at one point
    or at each point of a (P, n) stack."""
    m_x = metric.eval(x)
    jac = sys.jac_f(x)
    flow = metric.dir_deriv(x, sys.eval_f(x))
    return spectral_norm(flow + np.swapaxes(jac, -1, -2) @ m_x + m_x @ jac)


class GainField:
    """Differential gain K(x) in R^{m x n}; user-defined or synthesized.

    The evaluator, and so the gain itself and its partials, takes one
    point, shape (n,), giving (m, n), or a stack of points, shape (P, n),
    giving (P, m, n) in one call; a gain from expressions is a `model._Field`.
    """

    def __init__(self, n, m, evaluator, exprs=None, constant_matrix=None, meta=None):
        self.n = n
        self.m = m
        self._evaluator = evaluator
        self.exprs = exprs  # m x n expression ASTs when symbolic
        self.constant_matrix = constant_matrix
        self.meta = meta or {}

    @classmethod
    def from_exprs(cls, n, m, entries):
        variables = state_vars(n)
        exprs = [
            [e if isinstance(e, ex.Expr) else ex.parse(e, variables) for e in row]
            for row in entries
        ]
        if len(exprs) != m or any(len(row) != n for row in exprs):
            raise SynthesisError(f"gain must be {m} x {n}")
        k = _Field(exprs, variables)
        constant = k(np.zeros(n)) if k.constant else None
        return cls(n, m, k, exprs=exprs, constant_matrix=constant)

    @classmethod
    def constant(cls, matrix):
        matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        m, n = matrix.shape
        return cls(n, m, None, constant_matrix=matrix)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.constant_matrix is not None:
            return np.broadcast_to(self.constant_matrix,
                                   x.shape[:-1] + self.constant_matrix.shape)
        return self._evaluator(x)

    def is_constant(self):
        return self.constant_matrix is not None

    @cached_property
    def _partials(self):
        xs = state_vars(self.n)
        return [_Field([[ex.differentiate(e, v) for e in row] for row in self.exprs], xs)
                for v in xs]

    @cached_property
    def dynext_correction(self):
        """beta(x, z) - beta(xd, z) over (x1..xn, xd1..xdn, z1..zn), compiled once."""
        x, xd, z = ([ex.var(f"{p}{i + 1}") for i in range(self.n)] for p in ("x", "xd", "z"))
        beta = zip(dynext_beta_exprs(self, x, z), dynext_beta_exprs(self, xd, z))
        return ex.compile_fn([ex.sub(a, b) for a, b in beta], [e.name for e in x + xd + z])

    def partial(self, x, axis):
        """dK/dx_axis; symbolic when expressions exist, else central FD."""
        x = np.asarray(x, dtype=float)
        if self.constant_matrix is not None:
            return np.zeros(x.shape[:-1] + (self.m, self.n))
        if self.exprs is not None:
            return self._partials[axis](x)
        step = np.zeros(self.n)
        step[axis] = FD_STEP
        return (self(x + step) - self(x - step)) / (2.0 * FD_STEP)


def synthesize_gain(sys, metric, params: DampingParams, gamma_const=None):
    """Damping-injection gain K(x) = -[gamma(x)+gamma0] R(x) (MB)^T.

    gamma(x) defaults to its minimal admissible value (r/p_lo) * Up(x)^2;
    gamma_const replaces it with a fixed constant (bounded-domain mode,
    gamma0 is then folded to zero).
    """
    if metric.role != "primal":
        raise SynthesisError("gain synthesis needs a primal metric")

    def direction(points):
        mb = metric.eval(points) @ sys.eval_b(points)
        mb_t = np.swapaxes(mb, 1, 2)
        try:
            damping = inverse(mb_t @ mb)
        except SingularMatrixError as err:
            raise SynthesisError(
                f"(MB)^T MB singular at x={points[err.index]}: input matrix loses rank"
            ) from None
        return damping @ mb_t

    if gamma_const is not None:

        def magnitude(points):
            return np.full(len(points), gamma_const)

        meta = {"gamma": f"const {gamma_const:g}", "gamma0": 0.0,
                "proviso": "constant gamma relies on a bounded operating domain"}
    else:
        scale = params.r / metric.p_lo

        def magnitude(points):
            return scale * upsilon(metric, sys, points) ** 2 + params.gamma0

        meta = {"gamma": f"(r/p_lo)*upsilon(x)^2 with r={params.r:g}",
                "gamma0": params.gamma0}

    def evaluator(x):
        points = x.reshape(-1, sys.n)
        k = -magnitude(points)[:, None, None] * direction(points)
        return k.reshape(x.shape[:-1] + k.shape[1:])

    meta["lambda0"] = params.lambda0(metric.p_lo)
    gain = GainField(sys.n, sys.m, evaluator, meta=meta)
    if metric.constant and sys.b_constant and gamma_const is not None:
        gain.constant_matrix = evaluator(np.zeros(sys.n))
    return gain


def exactness_residual(gain, grid):
    """Mixed-partials integrability defect of the gain field.

    Returns (max residual, witness state); zero means dK is symmetric in
    every input row, so a potential exists.
    """
    if gain.is_constant():
        lo = np.asarray(grid.lo)
        return 0.0, 0.5 * (lo + np.asarray(grid.hi))
    points = grid.array()
    partials = [gain.partial(points, j) for j in range(gain.n)]
    residuals = np.zeros(len(points))
    for i in range(gain.n):
        for j in range(i + 1, gain.n):
            defect = np.abs(partials[j][:, :, i] - partials[i][:, :, j]).max(axis=1)
            residuals = np.maximum(residuals, defect)
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


def dynext_beta_exprs(gain, x, z):
    """`dynext_beta` as m Exprs in x and z (gain with expressions or constant),
    one `gain.exprs` substitution per node; an axis with x_i = 0 is multiplied by 0."""
    if gain.is_constant():
        return ex.matvec([[ex.const(k) for k in row] for row in gain.constant_matrix.tolist()], x)
    names = state_vars(gain.n)
    points, weights = gauss_legendre_01()
    beta = [ex.ZERO] * gain.m
    for i, x_i in enumerate(x):
        quad = [ex.ZERO] * gain.m
        for s, w in zip(points.tolist(), weights.tolist()):
            slots = {**dict(zip(names, z)), names[i]: ex.mul(ex.const(s), x_i)}
            quad = [ex.add(q, ex.mul(ex.const(w), ex.substitute(row[i], slots)))
                    for q, row in zip(quad, gain.exprs)]
        beta = [ex.add(b, ex.mul(x_i, q)) for b, q in zip(beta, quad)]
    return beta


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

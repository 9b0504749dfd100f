"""Grid-based certificate checks, with closed-form and dense-eig oracles."""

import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from ccmkit import certificates, cli
from ccmkit.certificates import (
    DEFAULT_TOL,
    CertificateError,
    Grid,
    check_c1,
    check_dual_w,
    check_killing_pde,
    check_robust,
    contraction_quadratic,
    dual_flow_diagnostic,
    min_feasible_gamma0,
)
from ccmkit.config import load_config
from ccmkit.linalg import generalized_sym_eig, null_space_basis, sym_eig
from ccmkit.model import MetricField, SystemModel, builtin, generate_reference

SQRT2 = math.sqrt(2.0)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def small_grid(sys, points=9):
    return Grid.for_system(sys, points)


def bisect_gamma0(sys, metric, grid, lam, tol=DEFAULT_TOL,
                  lambda_form="identity", hi=1e6, iters=60):
    """Smallest gamma0 passing check_robust by bisection: the oracle for
    the closed form of min_feasible_gamma0. None when even `hi` fails."""
    if not check_robust(sys, metric, grid, lam, hi, tol, lambda_form).passed:
        return None
    lo = 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid <= 0.0:
            break
        if check_robust(sys, metric, grid, lam, mid, tol, lambda_form).passed:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-9 * max(hi, 1.0):
            break
    return hi


# Per-point recomputations of the grid checks from contraction_quadratic
# and one 2-D linalg call per point: (margins, [(state, direction)]).

def c1_per_point(sys, metric, grid):
    margins, witnesses = [], []
    for x in grid.array():
        q, m_x = contraction_quadratic(sys, metric, x)
        basis = null_space_basis((m_x @ sys.eval_b(x)).T)
        w, vecs = generalized_sym_eig(basis.T @ q @ basis, basis.T @ m_x @ basis)
        margins.append(w[-1])
        witnesses.append((x, basis @ vecs[:, -1]))
    return margins, witnesses


def killing_per_point(sys, metric, grid):
    margins, witnesses = [], []
    for x in grid.array():
        m_x = metric.eval(x)
        b = sys.eval_b(x)
        worst = 0.0
        for j in range(sys.m):
            dbj = sys.jac_b_col(x, j)
            residual = metric.dir_deriv(x, b[:, j]) + dbj.T @ m_x + m_x @ dbj
            worst = max(worst, float(np.max(np.abs(residual))))
        margins.append(worst)
        witnesses.append((x, None))
    return margins, witnesses


def robust_per_point(sys, metric, grid, lam, gamma0, lambda_form):
    n = sys.n
    margins, witnesses = [], []
    for x in grid.array():
        q, m_x = contraction_quadratic(sys, metric, x)
        shift = lam * np.eye(n) if lambda_form == "identity" else lam * m_x
        big = np.block([[q + shift, m_x], [m_x, -gamma0 * np.eye(n)]])
        basis = null_space_basis((m_x @ sys.eval_b(x)).T)
        k = basis.shape[1]
        restricted = np.zeros((2 * n, k + n))
        restricted[:n, :k] = basis
        restricted[n:, k:] = np.eye(n)
        w, vecs = sym_eig(restricted.T @ big @ restricted)
        margins.append(w[-1])
        witnesses.append((x, restricted @ vecs[:, -1]))
    return margins, witnesses


def assert_matches_per_point(report, margins, witnesses, atol=1e-12):
    margins = np.array(margins)
    worst = int(np.argmax(margins))
    assert abs(report.worst_margin - margins[worst]) <= atol
    assert abs(report.margins_min - margins.min()) <= atol
    assert abs(report.margins_mean - margins.mean()) <= atol
    state, direction = witnesses[worst]
    assert np.max(np.abs(report.witness_state - state)) <= atol
    if direction is None:
        assert report.witness_direction is None
    else:
        sign = 1.0 if report.witness_direction @ direction >= 0 else -1.0
        assert np.max(np.abs(sign * report.witness_direction - direction)) <= atol


class TestGrid:
    def test_row_major_order(self):
        grid = Grid([0.0, 0.0], [1.0, 1.0], (2, 2))
        pts = grid.array()
        assert np.allclose(pts, [[0, 0], [0, 1], [1, 0], [1, 1]])
        assert len(grid) == 4

    def test_min_samples(self):
        with pytest.raises(ValueError):
            Grid([0.0], [1.0], (1,))

    def test_point_cap(self):
        with pytest.raises(ValueError):
            Grid([0.0] * 4, [1.0] * 4, (100,) * 4)


class TestKillingPde:
    def test_numex_passes(self, numex):
        report = check_killing_pde(numex.system, numex.metric,
                                   small_grid(numex.system))
        assert report.passed
        assert report.worst_margin == 0.0

    def test_microactuator_passes(self, micro):
        report = check_killing_pde(micro.system, micro.metric,
                                   small_grid(micro.system, 5))
        assert report.passed
        assert report.worst_margin == 0.0

    def test_state_dependent_b_fails(self):
        sys = SystemModel(2, 1, ["0", "0"], [["0"], ["x1"]], [-2, -2], [2, 2])
        metric = MetricField(2, [["1", "0"], ["0", "1"]], 0.5, 1.5, 0.0)
        report = check_killing_pde(sys, metric, small_grid(sys))
        assert not report.passed
        # dB/dx has a single unit entry; symmetrizing puts 1 in both
        # off-diagonal slots, so the max-entry residual is 1
        assert report.worst_margin == pytest.approx(1.0)

    def test_requires_primal(self, numex):
        with pytest.raises(CertificateError):
            check_killing_pde(numex.system, numex.dual_metric,
                              small_grid(numex.system))


class TestC1:
    def test_numex_certified_rate(self, numex):
        grid = small_grid(numex.system, 11)
        report = check_c1(numex.system, numex.metric, grid, rate=2.0 / 3.0)
        assert report.passed
        # margin is -2(x2^2+1)/3, maximized (least negative) at x2 = 0
        assert report.certified_rate == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert abs(report.witness_state[1]) <= 1e-12
        v = report.witness_direction
        assert v[0] * (-1.0) == pytest.approx(v[1] * 3.0, abs=1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("rate", [-0.5, math.nan, math.inf])
    def test_rate_validation(self, numex, rate):
        with pytest.raises(CertificateError, match="finite rate"):
            check_c1(numex.system, numex.metric, small_grid(numex.system, 5), rate=rate)

    def test_numex_margin_closed_form(self, numex):
        # at each grid point the single restricted eigenvalue is
        # -2(x2^2+1)/3; cross-check via a dense generalized eigensolve
        sys, metric = numex.system, numex.metric
        for x2 in (-2.0, 0.0, 1.5):
            x = np.array([0.7, x2])
            q, m_x = contraction_quadratic(sys, metric, x)
            basis = null_space_basis((m_x @ sys.eval_b(x)).T)
            w, _ = generalized_sym_eig(basis.T @ q @ basis, basis.T @ m_x @ basis)
            assert w[-1] == pytest.approx(-2.0 * (x2 * x2 + 1.0) / 3.0, abs=1e-10)
            oracle = scipy.linalg.eigh(
                basis.T @ q @ basis, basis.T @ m_x @ basis, eigvals_only=True
            )
            assert w[-1] == pytest.approx(oracle[-1], abs=1e-10)

    def test_dual_matrix_fails_as_primal(self, numex):
        wrong = MetricField(2, [["3", "-1"], ["-1", "2"]], 1.3, 3.7,
                            0.0, role="primal")
        report = check_c1(numex.system, wrong, small_grid(numex.system))
        assert not report.passed
        assert report.worst_margin > 0.0
        v = report.witness_direction
        assert v[0] * 1.0 == pytest.approx(v[1] * 2.0, abs=1e-9)  # v prop (2,1)
        # unnormalized quadratic form along (2,1) is +10(x2^2+1)
        x = np.array([0.0, 0.0])
        q, _ = contraction_quadratic(numex.system, wrong, x)
        vv = np.array([2.0, 1.0])
        assert vv @ q @ vv == pytest.approx(10.0)

    def test_microactuator_reduced_block(self, micro):
        sys, metric = micro.system, micro.metric
        grid = small_grid(sys, 5)
        report = check_c1(sys, metric, grid)
        assert report.passed
        assert report.certified_rate == pytest.approx(2.0 - SQRT2, abs=1e-9)
        # the quadratic form restricted to span{e1, e2} is constant
        fixed = np.eye(3)[:, :2]
        for x in grid.array():
            q, _ = contraction_quadratic(sys, metric, x)
            reduced = fixed.T @ q @ fixed
            assert np.allclose(reduced, [[-2.0, -4.0], [-4.0, -10.0]], atol=1e-9)

    def test_margin_invariant_under_basis_scaling(self, numex):
        sys, metric = numex.system, numex.metric
        x = np.array([1.0, -2.0])
        q, m_x = contraction_quadratic(sys, metric, x)
        basis = null_space_basis((m_x @ sys.eval_b(x)).T)
        w1, _ = generalized_sym_eig(basis.T @ q @ basis, basis.T @ m_x @ basis)
        scaled = 7.0 * basis
        w2, _ = generalized_sym_eig(scaled.T @ q @ scaled, scaled.T @ m_x @ scaled)
        assert abs(w1[-1] - w2[-1]) < 1e-10

    def test_grid_refinement_monotonicity(self, numex):
        coarse = check_c1(numex.system, numex.metric, small_grid(numex.system, 5))
        fine = check_c1(numex.system, numex.metric, small_grid(numex.system, 9))
        assert fine.worst_margin >= coarse.worst_margin - 1e-9

    def test_metric_bound_violation_detected(self, numex):
        lying = MetricField(2, [["2/5", "1/5"], ["1/5", "3/5"]],
                            0.5, 0.73, 0.0)  # claims p_lo above true min eig
        with pytest.raises(CertificateError):
            check_c1(numex.system, lying, small_grid(numex.system))


class TestDualW:
    def test_numex_dual_passes(self, numex):
        report = check_dual_w(numex.system, numex.dual_metric,
                              small_grid(numex.system))
        assert report.passed
        # value is -2(x2^2+1), least negative at x2 = 0
        assert report.worst_margin == pytest.approx(-2.0, abs=1e-10)
        assert report.details["killing_residual"] == 0.0

    def test_value_at_sample(self, numex):
        sys, w_metric = numex.system, numex.dual_metric
        x = np.array([0.0, 1.0])
        jac = sys.jac_f(x)
        w_x = w_metric.eval(x)
        b_perp = null_space_basis(sys.eval_b(x).T)
        val = b_perp.T @ (jac @ w_x + w_x @ jac.T) @ b_perp
        assert val[0, 0] == pytest.approx(-4.0)

    def test_expanding_flow_fails(self):
        sys = SystemModel(2, 1, ["x1", "x2"], [["0"], ["1"]], [-2, -2], [2, 2])
        w = MetricField(2, [["1", "0"], ["0", "1"]], 0.5, 1.5, 0.0, role="dual")
        report = check_dual_w(sys, w, small_grid(sys))
        assert not report.passed
        assert report.worst_margin == pytest.approx(2.0)

    def test_microactuator_dual_passes(self, micro):
        report = check_dual_w(micro.system, micro.dual_metric,
                              small_grid(micro.system, 5))
        assert report.passed

    def test_role_enforced(self, numex):
        with pytest.raises(CertificateError):
            check_dual_w(numex.system, numex.metric, small_grid(numex.system))

    def test_duality_consistency_constant_metrics(self):
        # for constant metrics, and for the state-dependent pair at the
        # end, primal and dual verdicts must agree
        rng = np.random.default_rng(21)
        agreements = 0
        for _ in range(10):
            n, m = 3, 1
            a = rng.standard_normal((n, n)) - 1.5 * np.eye(n)
            b = rng.standard_normal((n, m))
            p = rng.standard_normal((n, n))
            m_mat = p @ p.T + 0.5 * np.eye(n)
            w_mat = np.linalg.inv(m_mat)
            f = [
                " + ".join(f"({a[i, j]:.17g})*x{j + 1}" for j in range(n))
                for i in range(n)
            ]
            b_entries = [[f"{b[i, 0]:.17g}"] for i in range(n)]
            sys = SystemModel(n, m, f, b_entries, [-1] * n, [1] * n)
            eig_m = np.linalg.eigvalsh(m_mat)
            eig_w = np.linalg.eigvalsh(w_mat)
            primal = MetricField(
                n, [[f"{m_mat[i, j]:.17g}" for j in range(n)] for i in range(n)],
                eig_m[0] - 1e-9, eig_m[-1] + 1e-9, 0.0, role="primal",
            )
            dual = MetricField(
                n, [[f"{w_mat[i, j]:.17g}" for j in range(n)] for i in range(n)],
                eig_w[0] - 1e-9, eig_w[-1] + 1e-9, 0.0, role="dual",
            )
            grid = Grid([-1] * n, [1] * n, (2,) * n)
            r1 = check_c1(sys, primal, grid)
            r2 = check_dual_w(sys, dual, grid)
            assert r1.passed == r2.passed
            agreements += 1
        assert agreements == 10
        # an exactly dual pair with W = M^-1 = diag(exp(x1), 1), so d_f W != 0
        sys = SystemModel(2, 1, ["-x1", "-x2"], [["0"], ["1"]], [-3, -1], [1, 1])
        primal = MetricField(2, [["exp(-x1)", "0"], ["0", "1"]],
                             math.exp(-1) - 1e-9, math.exp(3) + 1e-9, 0.0)
        dual = MetricField(2, [["exp(x1)", "0"], ["0", "1"]],
                           math.exp(-3) - 1e-9, math.exp(1) + 1e-9, 0.0, role="dual")
        grid = Grid([-3, -1], [1, 1], (21, 21))
        r1, r2 = check_c1(sys, primal, grid), check_dual_w(sys, dual, grid)
        assert r1.passed and r2.passed
        # e1^T (-d_f W + J W + W J^T) e1 = (x1 - 2) exp(x1), worst at x1 = -3
        assert r2.worst_margin == pytest.approx(-5.0 * math.exp(-3.0), rel=1e-12)
        assert r2.details["killing_residual"] == 0.0


class TestRobust:
    def test_large_gamma0_passes(self, numex, micro):
        for bundle, pts in ((numex, 7), (micro, 5)):
            gamma0 = 1e3 * bundle.metric.p_hi**2
            report = check_robust(
                bundle.system, bundle.metric, small_grid(bundle.system, pts),
                lam=0.1, gamma0=gamma0,
            )
            assert report.passed

    def test_tiny_gamma0_fails(self, numex):
        report = check_robust(numex.system, numex.metric,
                              small_grid(numex.system), lam=0.1, gamma0=1e-8)
        assert not report.passed

    def test_bisection_boundary(self, numex):
        grid = small_grid(numex.system, 5)
        gamma0_min, report = min_feasible_gamma0(numex.system, numex.metric,
                                                 grid, lam=0.1)
        assert report.passed
        assert gamma0_min > 0
        assert check_robust(numex.system, numex.metric, grid, 0.1,
                            gamma0_min * 1.01).passed
        assert not check_robust(numex.system, numex.metric, grid, 0.1,
                                gamma0_min * 0.9).passed

    def test_lambda_forms(self, numex):
        grid = small_grid(numex.system, 5)
        for form in ("identity", "metric"):
            report = check_robust(numex.system, numex.metric, grid,
                                  0.1, 100.0, lambda_form=form)
            assert report.details["lambda_form"] == form
        with pytest.raises(CertificateError):
            check_robust(numex.system, numex.metric, grid, 0.1, 100.0,
                         lambda_form="bogus")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_parameter_validation(self, numex):
        grid = small_grid(numex.system, 5)
        for lam, gamma0 in [(-1.0, 1.0), (0.1, 0.0), (-1.0, "auto"), (0.1, "Auto"),
                            (0.1, math.nan), (0.1, math.inf), (math.inf, 1.0),
                            (math.inf, "auto"), (math.nan, 1.0)]:
            with pytest.raises(CertificateError, match="need finite lam"):
                check_robust(numex.system, numex.metric, grid, lam, gamma0)


class TestClosedFormGamma0:
    @pytest.mark.parametrize("name, points, lambda_form, lam, feasible", [
        ("numex", 9, "identity", 0.1, True),
        ("numex", 9, "identity", 0.5, False),
        ("numex", 9, "metric", 0.1, True),
        ("numex", 9, "metric", 0.5, True),
        ("microactuator", 5, "identity", 0.1, True),
        ("microactuator", 5, "identity", 0.5, False),
        ("microactuator", 5, "metric", 0.1, True),
        ("microactuator", 5, "metric", 0.5, True),
    ])
    def test_matches_bisection(self, name, points, lambda_form, lam, feasible):
        bundle = builtin(name)
        sys, metric = bundle.system, bundle.metric
        grid = small_grid(sys, points)
        gamma0, report = min_feasible_gamma0(sys, metric, grid, lam,
                                             lambda_form=lambda_form)
        oracle = bisect_gamma0(sys, metric, grid, lam, lambda_form=lambda_form)
        if not feasible:
            assert gamma0 is None and oracle is None
            assert not report.passed and report.details["gamma0"] == 1e6
            return
        assert gamma0 == pytest.approx(oracle, rel=1e-8)
        assert report.passed and report.details["gamma0_min"] == gamma0
        assert check_robust(sys, metric, grid, lam, gamma0,
                            lambda_form=lambda_form).passed
        assert not check_robust(sys, metric, grid, lam, gamma0 * (1 - 1e-6),
                                lambda_form=lambda_form).passed

    def test_report_matches_check_robust(self, numex):
        grid = small_grid(numex.system, 7)
        gamma0, report = min_feasible_gamma0(numex.system, numex.metric, grid, 0.1)
        direct = check_robust(numex.system, numex.metric, grid, 0.1, gamma0)
        assert report.worst_margin == direct.worst_margin
        assert np.array_equal(report.witness_direction, direct.witness_direction)

    def test_gamma0_above_hi_is_infeasible(self, numex, monkeypatch):
        monkeypatch.setattr(certificates, "GAMMA0_CAP", 0.5)
        grid = small_grid(numex.system, 5)
        gamma0, report = min_feasible_gamma0(numex.system, numex.metric, grid, 0.1)
        assert gamma0 is None
        assert not report.passed and report.details["gamma0"] == 0.5


def geodesic_demo():
    cfg = load_config(str(CONFIGS / "geodesic_demo.ini"))
    return cfg.system, cfg.metric


def rank_changing():
    # (MB)^T = x1 (1, 1/5) vanishes at x1 = 0, where the null space is
    # the whole plane instead of a line
    sys = SystemModel(2, 1, ["x2 - x1", "-x1 - x2^3"], [["x1"], ["0"]],
                      [-2, -2], [2, 2])
    metric = MetricField(2, [["1 + x2^2/4", "1/5"], ["1/5", "1"]], 0.5, 2.5, 0.0)
    return sys, metric


class TestStackedMatchesPerPoint:
    """The stacked checks against a loop of 2-D calls, one per point."""

    SYSTEMS = [geodesic_demo, rank_changing]

    @pytest.mark.parametrize("make", SYSTEMS)
    def test_c1(self, make):
        sys, metric = make()
        grid = small_grid(sys, 9)
        assert_matches_per_point(check_c1(sys, metric, grid),
                                 *c1_per_point(sys, metric, grid))

    @pytest.mark.parametrize("make", SYSTEMS)
    def test_killing(self, make):
        sys, metric = make()
        grid = small_grid(sys, 9)
        assert_matches_per_point(check_killing_pde(sys, metric, grid),
                                 *killing_per_point(sys, metric, grid))

    @pytest.mark.parametrize("make", SYSTEMS)
    @pytest.mark.parametrize("lambda_form", ["identity", "metric"])
    def test_robust(self, make, lambda_form):
        sys, metric = make()
        grid = small_grid(sys, 9)
        report = check_robust(sys, metric, grid, 0.3, 2.0, lambda_form=lambda_form)
        assert_matches_per_point(
            report, *robust_per_point(sys, metric, grid, 0.3, 2.0, lambda_form))

    def test_rank_change_is_on_the_grid(self):
        sys, metric = rank_changing()
        points = small_grid(sys, 9).array()
        mb_t = np.array([(metric.eval(x) @ sys.eval_b(x)).T for x in points])
        dims = sorted(basis.shape[2] for _, basis in null_space_basis(mb_t))
        assert dims == [1, 2]

    def test_singular_metric_names_first_point(self):
        # N^T M N = x1^2 is singular on the x1 = 0 row; its first point in
        # row-major order is (0, -1)
        sys = SystemModel(2, 1, ["-x1", "-x2"], [["0"], ["1"]], [-1, -1], [1, 1])
        metric = MetricField(2, [["x1^2", "0"], ["0", "1"]], 1e-30, 1.0, 0.0)
        with pytest.raises(CertificateError, match=r"at x=\[ 0\. -1\.\]"):
            check_c1(sys, metric, Grid([-1, -1], [1, 1], (3, 3)))


class TestConstantStacksSolveOnce:
    """On both builtins M and B are constant, so every null-space stack is
    uniform and LAPACK's SVD sees one member, not one per grid point."""

    @pytest.fixture
    def svd_shapes(self, monkeypatch):
        shapes = []
        svd = np.linalg.svd

        def recording_svd(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        return shapes

    def test_certify_cli(self, svd_shapes, capsys):
        assert cli.main(["certify", "--config", str(CONFIGS / "numex_certify.ini")]) == 0
        assert "all_pass: True" in capsys.readouterr().out
        assert svd_shapes and all(shape[:-2] == (1,) for shape in svd_shapes)

    def test_microactuator_c1_and_dual_w(self, micro, svd_shapes):
        grid = Grid.for_system(micro.system, 17)
        assert check_c1(micro.system, micro.metric, grid).passed
        assert check_dual_w(micro.system, micro.dual_metric, grid).passed
        assert len(svd_shapes) == 2 and all(shape[:-2] == (1,) for shape in svd_shapes)


class TestReportInvariants:
    def test_witness_attains_worst(self, numex):
        report = check_c1(numex.system, numex.metric, small_grid(numex.system))
        assert report.margins_max == report.worst_margin
        assert report.margins_min <= report.margins_mean <= report.margins_max
        assert report.passed == (report.worst_margin < -report.tolerance)

    def test_worst_points_counts_ties(self, numex, micro):
        # numex margin -2(x2^2+1)/3 is worst along the whole x2 = 0 row
        report = check_c1(numex.system, numex.metric, small_grid(numex.system, 11))
        assert report.details["worst_points"] == 11
        assert "worst_points: 11" in report.summary_lines()
        # constant microactuator margins tie at every point
        report = check_dual_w(micro.system, micro.dual_metric,
                              small_grid(micro.system, 3))
        assert report.details["worst_points"] == 27

    def test_summary_lines_parse(self, numex):
        report = check_c1(numex.system, numex.metric, small_grid(numex.system))
        lines = report.summary_lines()
        keys = [line.split(":")[0] for line in lines]
        assert "condition" in keys and "pass" in keys and "worst_margin" in keys


class TestDualFlow:
    def test_linear_decay(self):
        # f = (-x1, -x2): adjoint flow p' = -p, V = |p|^2 e^{-2t}
        sys = SystemModel(2, 1, ["-x1", "-x2"], [["0"], ["1"]], [-5, -5], [5, 5])
        metric = MetricField(2, [["1", "0"], ["0", "1"]], 0.5, 1.5, 0.0)
        times = np.linspace(0.0, 2.0, 201)
        states = np.zeros((201, 2))
        out = dual_flow_diagnostic(sys, metric, times, states, [1.0, 2.0])
        assert np.allclose(out["V"], 5.0 * np.exp(-2.0 * times), rtol=1e-8)
        # y_p = (M B)^T p = p2
        assert np.allclose(out["y_p"][:, 0], 2.0 * np.exp(-times), rtol=1e-8)

    def test_zero_initial_adjoint(self, numex):
        times = np.linspace(0.0, 1.0, 11)
        states = np.tile(numex.reference.xd0, (11, 1))
        out = dual_flow_diagnostic(numex.system, numex.metric, times, states,
                                   [0.0, 0.0])
        assert np.max(np.abs(out["V"])) == 0.0
        assert np.max(np.abs(out["y_p"])) == 0.0

    def test_numex_adjoint_against_oracle(self, numex):
        # p0 = (3, -1) annihilates (M B)^T so y_p(0) = 0; the adjoint
        # flow then leaves that subspace and the diagnostic makes no
        # decay claim, so we check it against an independent integrator
        trace = generate_reference(numex.system, numex.reference, 10.0, 1e-2)
        out = dual_flow_diagnostic(numex.system, numex.metric, trace["t"],
                                   trace["xd"], [3.0, -1.0])
        assert abs(out["y_p"][0, 0]) <= 1e-12
        assert out["V"][0] == pytest.approx(3.0, abs=1e-12)
        assert np.all(np.isfinite(out["V"]))

        from ccmkit.integrate import rk45_integrate

        def coupled(t, y):
            xd, p = y[:2], y[2:]
            ud = numex.reference.eval_ud(t, xd)
            dxd = numex.system.eval_f(xd) + numex.system.eval_b(xd) @ ud
            return np.concatenate([dxd, numex.system.jac_f(xd).T @ p])

        y0 = np.concatenate([numex.reference.xd0, [3.0, -1.0]])
        _, oracle = rk45_integrate(coupled, y0, (0.0, 10.0),
                                   t_eval=np.array([0.0, 10.0]))
        p_end = oracle[-1, 2:]
        m_end = numex.metric.eval(trace["xd"][-1])
        assert out["V"][-1] == pytest.approx(float(p_end @ m_end @ p_end),
                                             rel=1e-4)

    def test_length_mismatch(self, numex):
        with pytest.raises(ValueError):
            dual_flow_diagnostic(numex.system, numex.metric,
                                 np.linspace(0, 1, 5), np.zeros((4, 2)), [1, 0])

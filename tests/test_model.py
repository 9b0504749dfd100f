"""System models, metric fields, references, and the builtin registry."""

import math
import warnings

import numpy as np
import pytest

from ccmkit import expr as ex
from ccmkit.controller import GainField
from ccmkit.expr import EvalDomainError
from ccmkit.integrate import rk45_integrate
from ccmkit.model import (
    MetricField,
    ModelError,
    ReferenceSpec,
    SystemModel,
    builtin,
    builtin_names,
    generate_reference,
)


@pytest.fixture(scope="module")
def linear_sys():
    # x' = A x + B u with A = [[0,1],[-2,-3]], B = [0,1]^T
    return SystemModel(
        2, 1, ["x2", "-2*x1 - 3*x2"], [["0"], ["1"]], [-5, -5], [5, 5]
    )


class TestSystemModel:
    def test_numex_jacobian(self, numex):
        jac = numex.system.jac_f(np.array([0.0, 2.0]))
        assert np.allclose(jac, [[0.0, 5.0], [0.0, -1.0]], atol=1e-14)

    def test_microactuator_jacobian(self, micro):
        jac = micro.system.jac_f(np.array([1.0, 0.0, 0.0]))
        expected = [[0.0, 1.0, 0.0], [-1.0, -2.0, 0.0], [0.0, 0.0, -2.0 / 3.0]]
        assert np.allclose(jac, expected, atol=1e-14)

    def test_linear_jacobian_constant(self, linear_sys):
        a = np.array([[0.0, 1.0], [-2.0, -3.0]])
        for x in ([0.0, 0.0], [1.0, -2.0], [4.0, 4.0]):
            assert np.allclose(linear_sys.jac_f(np.array(x)), a, atol=1e-14)

    def test_a_matrix_constant_b(self, numex):
        x = np.array([1.0, 2.0])
        for u in ([0.0], [3.0], [-7.0]):
            assert np.allclose(
                numex.system.a_matrix(x, np.array(u)), numex.system.jac_f(x)
            )

    def test_a_matrix_state_dependent_b(self):
        sys = SystemModel(
            3, 2,
            ["0", "0", "0"],
            [["0", "0"], ["x3^2 + 1", "0"], ["0", "1"]],
            [-5, -5, -5], [5, 5, 5],
        )
        x = np.array([0.0, 0.0, 1.0])
        contrib = sys.a_matrix(x, np.array([1.0, 0.0])) - sys.jac_f(x)
        expected = np.zeros((3, 3))
        expected[1, 2] = 2.0  # d/dx3 of (x3^2+1)*u1 at x3 = 1
        assert np.allclose(contrib, expected, atol=1e-14)

    def test_eval_f_jac_f_fd_consistency(self):
        rng = np.random.default_rng(11)
        h = 1e-6
        for name in builtin_names():
            sys = builtin(name).system
            for _ in range(50):
                x = rng.uniform(sys.domain_lo, sys.domain_hi)
                jac = sys.jac_f(x)
                for j in range(sys.n):
                    step = np.zeros(sys.n)
                    step[j] = h
                    fd = (sys.eval_f(x + step) - sys.eval_f(x - step)) / (2 * h)
                    assert np.max(np.abs(jac[:, j] - fd)) <= 1e-5

    def test_validation(self):
        with pytest.raises(ModelError):
            SystemModel(1, 1, ["x1"], [["1"]], [-1], [1])  # m must be < n
        with pytest.raises(ModelError):
            SystemModel(2, 1, ["x1"], [["0"], ["1"]], [-1, -1], [1, 1])
        with pytest.raises(ModelError):
            SystemModel(2, 1, ["x1", "x2"], [["0"], ["1"]], [1, -1], [1, 1])
        # a nan bound passed lo < hi unnoticed, and an infinite one fed inf into the grid
        for lo, hi in [([math.nan, -1], [1, 1]), ([-1, -1], [1, math.nan]),
                       ([-math.inf, -1], [1, 1]), ([-1, -1], [math.inf, 1])]:
            with pytest.raises(ModelError, match="finite bounds"):
                SystemModel(2, 1, ["x2", "-x2"], [["0"], ["1"]], lo, hi)

    @pytest.mark.parametrize("n, m", [(0, -1), (2, 0), (2, -1), (2.0, 1), (2, 1.0)])
    def test_dimensions_are_integers_with_one_le_m_lt_n(self, n, m):
        with pytest.raises(ModelError, match="1 <= m < n"):
            SystemModel(n, m, ["x1", "x2"], [["0"], ["1"]], [-1, -1], [1, 1])
        SystemModel(np.int64(2), np.int64(1), ["x1", "x2"], [["0"], ["1"]], [-1, -1], [1, 1])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_division_by_zero_on_arrays_raises(self):
        # compiled expressions see Python floats, not numpy scalars, so
        # 1/0 is a domain error rather than inf with a RuntimeWarning
        sys = SystemModel(2, 1, ["1/x1", "x2"], [["0"], ["1/x1"]], [-1, -1], [1, 1])
        metric = MetricField(2, [["1 + 1/x1", "0"], ["0", "1"]], 0.5, 2.0, 0.0)
        ref = ReferenceSpec.from_strings(2, [0.0, 0.0], ["1/t"])
        gain = GainField.from_exprs(2, 1, [["1/x1", "x2"]])
        x = np.array([0.0, 1.0])
        calls = [
            lambda: sys.eval_f(x),
            lambda: sys.eval_b(x),
            lambda: sys.jac_f(x),
            lambda: sys.jac_b_col(x, 0),
            lambda: metric.eval(x),
            lambda: metric.partial(x, 0),
            lambda: ref.eval_ud(np.float64(0.0), x),
            lambda: gain(x),
            lambda: gain.partial(x, 0),
        ]
        for call in calls:
            with pytest.raises(EvalDomainError):
                call()


class TestMetricField:
    def test_upper_triangle_mirrored(self):
        m = MetricField(2, [["1", "x1"], ["999", "2"]], 0.1, 10.0, 0.0)
        x = np.array([3.0, 0.0])
        got = m.eval(x)
        assert got[1, 0] == got[0, 1] == 3.0

    def test_constant_dir_deriv_zero(self, numex):
        assert np.array_equal(
            numex.metric.dir_deriv(np.array([1.0, 2.0]), np.array([5.0, -1.0])),
            np.zeros((2, 2)),
        )

    def test_diagonal_chain_rule(self):
        m = MetricField(2, [["x1^2 + 1", "0"], ["0", "1"]], 0.5, 30.0, 0.0)
        got = m.dir_deriv(np.array([2.0, 0.0]), np.array([1.0, 0.0]))
        assert np.allclose(got, np.diag([4.0, 0.0]), atol=1e-14)

    def test_polynomial_dir_deriv_vs_fd(self):
        m = MetricField(
            2,
            [["x1^2 + x2^2 + 2", "x1*x2"], ["0", "x2^4 + 1"]],
            0.1, 1e3, 0.0,
        )
        rng = np.random.default_rng(12)
        h = 1e-6
        for _ in range(20):
            x = rng.uniform(-2, 2, size=2)
            v = rng.uniform(-1, 1, size=2)
            fd = (m.eval(x + h * v) - m.eval(x - h * v)) / (2 * h)
            assert np.max(np.abs(m.dir_deriv(x, v) - fd)) <= 1e-5

    def test_form_primal_dual_and_columns(self):
        entries = [["x1^2 + 2", "x1*x2"], ["0", "x2^4 + 1"]]
        rng = np.random.default_rng(13)
        x = rng.uniform(-1, 1, size=(5, 2))
        v = rng.normal(size=(5, 3, 2))
        a = rng.normal(size=(5, 3, 2, 2))
        for role in ("primal", "dual"):
            m = MetricField(2, entries, 0.1, 1e3, 0.0, role=role)
            got, m_x = m.form(x[:, None], v, a)
            assert got.shape == (5, 3, 2, 2)
            for p in range(5):
                assert np.array_equal(m_x[p, 0], m.eval(x[p]))
                for j in range(3):
                    d, aj, mp = m.dir_deriv(x[p], v[p, j]), a[p, j], m_x[p, 0]
                    want = (d + mp @ aj + aj.T @ mp if role == "primal"
                            else -d + aj @ mp + mp @ aj.T)
                    np.testing.assert_allclose(got[p, j], want, rtol=1e-12, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ModelError):
            MetricField(2, [["1", "0"], ["0", "1"]], -1.0, 1.0, 0.0)
        with pytest.raises(ModelError):
            MetricField(2, [["1", "0"], ["0", "1"]], 1.0, 1.0, -0.5)
        with pytest.raises(ModelError):
            MetricField(2, [["1", "0"], ["0", "1"]], 1.0, 1.0, 0.0, role="bogus")

    @pytest.mark.parametrize("p_lo, p_hi, lam", [
        (math.nan, math.nan, 0.0), (math.nan, 1.0, 0.0), (1.0, math.nan, 0.0),
        (1.0, math.inf, 0.0), (math.inf, math.inf, 0.0), (1.0, 1.0, math.nan),
        (1.0, 1.0, math.inf)])
    def test_non_finite_bounds_and_rate_rejected(self, p_lo, p_hi, lam):
        with pytest.raises(ModelError, match="finite"):
            MetricField(2, [["1", "0"], ["0", "1"]], p_lo, p_hi, lam)


class TestReference:
    def test_numex_initial_velocity(self, numex):
        # xd' (0) from f(xd0) + B ud(0, xd0) with ud(0) = 0 - 1*3 = -3
        sys = numex.system
        xd0 = numex.reference.xd0
        ud0 = numex.reference.eval_ud(0.0, xd0)
        assert ud0[0] == pytest.approx(-3.0)
        vel = sys.eval_f(xd0) + sys.eval_b(xd0) @ ud0
        assert np.allclose(vel, [-4.0 / 3.0, -2.0], atol=1e-12)
        # forward difference of the generated trace agrees
        trace = generate_reference(sys, numex.reference, 0.01, 1e-4)
        fd = (trace["xd"][1] - trace["xd"][0]) / 1e-4
        assert np.allclose(fd, vel, atol=1e-3)

    def test_covers_horizon_exactly(self, linear_sys):
        # T = 1 is not a multiple of h = 0.4: steps 0.4, 0.4, then 0.2
        ref = ReferenceSpec.from_strings(2, [1.0, 0.0], ["0"])
        trace = generate_reference(linear_sys, ref, 1.0, 0.4)
        assert trace["t"][-1] == 1.0
        assert np.allclose(np.diff(trace["t"]), [0.4, 0.4, 0.2], atol=1e-15)
        assert trace["xd"].shape == (4, 2) and trace["ud"].shape == (4, 1)
        _, oracle = rk45_integrate(lambda t, x: np.array([x[1], -2 * x[0] - 3 * x[1]]),
                                   [1.0, 0.0], (0.0, 1.0), t_eval=np.array([1.0]))
        assert np.max(np.abs(trace["xd"][-1] - oracle[-1])) <= 1e-2

    def test_equilibrium_constant_trace(self, linear_sys):
        ref = ReferenceSpec.from_strings(2, [0.0, 0.0], ["0"])
        trace = generate_reference(linear_sys, ref, 1.0, 1e-2)
        assert np.max(np.abs(trace["xd"])) == 0.0
        assert np.max(np.abs(trace["ud"])) == 0.0

    def test_microactuator_reference_stays_in_domain(self, micro):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any domain-violation warning fails
            trace = generate_reference(micro.system, micro.reference, 30.0, 1e-3)
        assert trace["domain_violations"] == []
        assert np.all(trace["xd"][:, 0] >= 0.0)
        assert np.all(trace["xd"][:, 0] <= 2.0)
        assert np.all(trace["xd"][:, 2] >= -1e-9)
        # independent adaptive oracle agrees on the final state
        sys = micro.system
        ref = micro.reference

        def field(t, xd):
            return sys.eval_f(xd) + sys.eval_b(xd) @ ref.eval_ud(t, xd)

        _, oracle = rk45_integrate(field, ref.xd0, (0.0, 30.0),
                                   t_eval=np.array([0.0, 30.0]))
        assert np.max(np.abs(trace["xd"][-1] - oracle[-1])) <= 1e-6

    def test_divergence_reported(self):
        sys = SystemModel(2, 1, ["x1^2", "0"], [["0"], ["1"]], [-5, -5], [5, 5])
        ref = ReferenceSpec.from_strings(2, [2.0, 0.0], ["0"])
        from ccmkit.integrate import IntegrationError

        with pytest.raises(IntegrationError):
            generate_reference(sys, ref, 5.0, 1e-3)


class TestBuiltins:
    def test_names(self):
        assert builtin_names() == ["microactuator", "numex"]
        with pytest.raises(ModelError):
            builtin("nope")

    def test_numex_metric_pair(self, numex):
        x = np.array([0.3, -1.2])
        w = numex.dual_metric.eval(x)
        m = numex.metric.eval(x)
        assert np.allclose(w, [[3.0, -1.0], [-1.0, 2.0]], atol=1e-14)
        assert np.allclose(m @ w, np.eye(2), atol=1e-12)
        assert numex.metric.role == "primal"
        assert numex.dual_metric.role == "dual"

    def test_microactuator_metric_pair(self, micro):
        x = np.array([1.0, 0.0, 1.0])
        m = micro.metric.eval(x)
        expected = np.array([[1.0, 1.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.allclose(m, expected, atol=1e-14)
        w = micro.dual_metric.eval(x)
        assert np.allclose(m @ w, np.eye(3), atol=1e-12)

    def test_metric_bounds_on_grid(self):
        for name in builtin_names():
            bundle = builtin(name)
            for metric in (bundle.metric, bundle.dual_metric):
                sys = bundle.system
                axes = [np.linspace(lo, hi, 5)
                        for lo, hi in zip(sys.domain_lo, sys.domain_hi)]
                for x in np.stack(np.meshgrid(*axes), -1).reshape(-1, sys.n):
                    eigs = np.linalg.eigvalsh(metric.eval(x))
                    assert eigs[0] >= metric.p_lo - 1e-9
                    assert eigs[-1] <= metric.p_hi + 1e-9

    def test_numex_primal_eigs_match_bounds(self, numex):
        # exact eigenvalues (1 -+ 1/sqrt 5)/2 of the primal metric
        eigs = np.linalg.eigvalsh(numex.metric.eval(np.zeros(2)))
        lo = (1.0 - 1.0 / math.sqrt(5.0)) / 2.0
        hi = (1.0 + 1.0 / math.sqrt(5.0)) / 2.0
        assert eigs == pytest.approx([lo, hi], abs=1e-12)


def tree_walked(exprs, env):
    """Each entry of an expression or nested list of them by `evaluate`."""
    if isinstance(exprs, ex.Expr):
        return ex.evaluate(exprs, env)
    return [tree_walked(e, env) for e in exprs]


class TestStackedEvaluation:
    """The argument's shape picks the back end: a (P, n) stack is evaluated
    in one call on the array back end, and each member matches the
    one-point call, which runs on the float back end and equals the tree
    walker bit for bit. Each back end is compiled on its first use."""

    @staticmethod
    def curved():
        sys = SystemModel(
            3, 1,
            ["x2*x3", "-sin(x1) + x3^2/3", "exp(x1/4)*x2"],
            [["x1^2 + 1"], ["0"], ["cos(x2)"]],
            [-2, -2, -2], [2, 2, 2],
        )
        metric = MetricField(
            3,
            [["2 + x1^2", "x1*x2", "0"], ["0", "3 + sin(x3)", "x2/5"], ["0", "0", "1 + x3^2"]],
            0.1, 20.0, 0.0,
        )
        return sys, metric

    @staticmethod
    def fields(sys, metric, gain):
        """(call, exprs) of every expression field over the state: `call(x)`
        evaluates `exprs` at x."""
        xs = sys.vars
        d_gain = [[[ex.differentiate(e, v) for e in row] for row in gain.exprs] for v in xs]
        out = [(sys.eval_f, sys.f_exprs), (sys.eval_b, sys.b_exprs),
               (sys.jac_f, sys.df_exprs), (metric.eval, metric.m_exprs), (gain, gain.exprs),
               (sys.jac_b, [[row[j] for row in sys.db_exprs] for j in range(sys.m)]),
               (metric.partials, metric.dm_exprs), (gain._partials, d_gain)]
        # the slices below read the last three fields
        for j in range(sys.m):
            out.append((lambda x, j=j: sys.jac_b_col(x, j), [row[j] for row in sys.db_exprs]))
        for k in range(sys.n):
            out.append((lambda x, k=k: metric.partial(x, k),
                        [[d[k] for d in row] for row in metric.dm_exprs]))
            out.append((lambda x, k=k: gain.partial(x, k), d_gain[k]))
        return out

    def cases(self, numex):
        sys, metric = self.curved()
        gain = GainField.from_exprs(3, 1, [["x1*x2", "sin(x3) - x1^2", "exp(x2/3)"]])
        ref = ReferenceSpec.from_strings(3, [0.0, 0.5, 1.0], ["cos(t)*xd2 - xd3^3"])
        yield sys, metric, gain, ref
        yield (numex.system, numex.metric, GainField.from_exprs(2, 1, numex.builtin_gain),
               numex.reference)

    def test_one_point_equals_tree_walker_bit_for_bit(self, numex):
        rng = np.random.default_rng(43)
        for sys, metric, gain, ref in self.cases(numex):
            for call, exprs in self.fields(sys, metric, gain):
                for x in rng.uniform(-2, 2, size=(5, sys.n)):
                    got = call(x)
                    want = np.array(tree_walked(exprs, dict(zip(sys.vars, x.tolist()))))
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes()
                    one = call(x[None])
                    assert one.shape == (1,) + got.shape
                    np.testing.assert_allclose(one[0], got, rtol=1e-12, atol=1e-12)
            ts = ["t"] + [f"xd{i + 1}" for i in range(sys.n)]
            for y in rng.uniform(-2, 2, size=(5, sys.n + 1)):
                want = np.array(tree_walked(ref.ud_exprs, dict(zip(ts, y.tolist()))))
                assert ref.eval_ud(y[0], y[1:]).tobytes() == want.tobytes()

    def test_building_compiles_nothing(self, monkeypatch):
        compiled = {"compile_fn": 0, "compile_array_fn": 0}
        for name in compiled:
            def counted(*args, name=name, original=getattr(ex, name)):
                compiled[name] += 1
                return original(*args)

            monkeypatch.setattr(ex, name, counted)
        bundle = builtin("numex")
        gain = GainField.from_exprs(2, 1, bundle.builtin_gain)
        ref = ReferenceSpec.from_strings(2, [3.0, -1.0], ["sin(t) - cos(t)^2 * xd1"])
        assert compiled == {"compile_fn": 0, "compile_array_fn": 0}
        point = np.array([0.5, 1.5])
        fields = self.fields(bundle.system, bundle.metric, gain)
        for number, (call, _) in enumerate(fields):
            once = int(number < 8)  # one compile per back end of a field; a slice adds none
            call(point)
            call(point)
            assert compiled == {"compile_fn": once, "compile_array_fn": 0}
            call(np.stack([point, -point]))
            call(point[None])
            assert compiled == {"compile_fn": once, "compile_array_fn": once}
            compiled.update(compile_fn=0, compile_array_fn=0)
        assert len(fields) == 8 + 1 + 2 * 2  # the slices: one column of B, two axes each
        ref.eval_ud(0.5, point)
        ref.eval_ud(1.0, point)
        assert compiled == {"compile_fn": 1, "compile_array_fn": 0}

    def test_segment_kernel(self, monkeypatch):
        """One array-back-end compile on first use; the entries are
        d^T M d, M d, d^T (dM/dx_a) d, M and the rows (dM/dx_a) d of the
        per-point fields, then the 3 x 3 curvature block."""
        compiled = []
        for name in ("compile_fn", "compile_array_fn"):
            def counted(*args, name=name, original=getattr(ex, name)):
                compiled.append(name)
                return original(*args)

            monkeypatch.setattr(ex, name, counted)
        _, metric = self.curved()
        rng = np.random.default_rng(44)
        x, d = rng.uniform(-2, 2, size=(2, 7, 3))
        got = metric.segment(x, d)
        metric.segment(x[:1], d[:1])
        assert compiled == ["compile_array_fn"]
        assert got.shape == (7, 1 + 6 + 27)
        for row, xk, dk in zip(got, x, d):
            m_d = metric.eval(xk) @ dk
            pulls = [metric.partial(xk, a) @ dk for a in range(3)]
            bends = [dk @ pull for pull in pulls]
            np.testing.assert_allclose(row[:25], [dk @ m_d, *m_d, *bends, *metric.eval(xk).ravel(),
                                                  *np.ravel(pulls)], rtol=1e-12, atol=1e-12)

    def test_matches_per_point(self, micro):
        points = np.random.default_rng(41).uniform(-2, 2, size=(9, 3))
        for sys, metric in (self.curved(), (micro.system, micro.metric)):
            v = np.random.default_rng(42).normal(size=(9, 3))
            pairs = [
                (sys.eval_f, ()), (sys.eval_b, ()), (sys.jac_f, ()),
                (sys.jac_b_col, (0,)), (sys.jac_b, ()), (metric.eval, ()),
                (metric.partial, (0,)), (metric.partial, (2,)), (metric.partials, ()),
            ]
            for method, extra in pairs:
                stacked = method(points, *extra)
                per_point = np.array([method(x, *extra) for x in points])
                assert stacked.shape == per_point.shape
                np.testing.assert_allclose(stacked, per_point, rtol=1e-12, atol=1e-12)
            stacked = metric.dir_deriv(points, v)
            per_point = np.array([metric.dir_deriv(x, vx) for x, vx in zip(points, v)])
            np.testing.assert_allclose(stacked, per_point, rtol=1e-12, atol=1e-12)

    def test_constant_entries_fill_the_stack(self, numex):
        points = np.zeros((4, 2))
        assert np.array_equal(numex.metric.eval(points),
                              np.broadcast_to(numex.metric.eval(points[0]), (4, 2, 2)))
        assert numex.system.eval_b(points).shape == (4, 2, 1)
        assert np.array_equal(numex.metric.dir_deriv(points, points),
                              np.zeros((4, 2, 2)))

    def test_domain_error_in_one_member_raises(self):
        sys = SystemModel(2, 1, ["1/x1", "x2"], [["0"], ["1/x1"]], [-1, -1], [1, 1])
        metric = MetricField(2, [["1 + 1/x1", "0"], ["0", "1"]], 0.5, 2.0, 0.0)
        points = np.ones((5, 2))
        points[3, 0] = 0.0
        for call in (sys.eval_f, sys.eval_b, sys.jac_f, metric.eval):
            with pytest.raises(EvalDomainError):
                call(points)
        with pytest.raises(EvalDomainError):
            metric.partial(points, 0)

    def test_in_domain_per_point(self, micro):
        sys = micro.system
        points = np.array([[1.0, 0.0, 0.0], [2.5, 0.0, 0.0], [1.0, 0.0, 3.0]])
        assert sys.in_domain(points).tolist() == [sys.in_domain(x) for x in points]
        assert sys.in_domain(points).tolist() == [True, False, True]

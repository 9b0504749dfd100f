"""Expression DSL: parsing, evaluation, differentiation, round-trip."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccmkit import expr as ex

XY = ["x1", "x2"]


def ev(text, variables, **env):
    return ex.evaluate(ex.parse(text, variables), env)


class TestParse:
    def test_simple_arithmetic(self):
        assert ev("x2^2 + 1", XY, x2=2.0) == 5.0

    def test_incomplete_expression_offset(self):
        with pytest.raises(ex.ExprSyntaxError) as err:
            ex.parse("x1 + ", XY)
        assert err.value.offset == 5

    def test_feedforward_expression(self):
        e = ex.parse("sin(t) - cos(t)^2 * xd1", ["t", "xd1"])
        assert ex.evaluate(e, {"t": 0.0, "xd1": 3.0}) == -3.0

    def test_unknown_identifier(self):
        with pytest.raises(ex.UnknownIdentifierError) as err:
            ex.parse("x1 + bogus", XY)
        assert err.value.name == "bogus"

    def test_unknown_function(self):
        with pytest.raises(ex.UnknownIdentifierError):
            ex.parse("tan(x1)", XY)

    def test_no_implicit_multiplication(self):
        with pytest.raises(ex.ExprSyntaxError):
            ex.parse("2x1", XY)

    def test_empty_expression(self):
        with pytest.raises(ex.ExprSyntaxError):
            ex.parse("   ", XY)

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(ex.ExprSyntaxError):
            ex.parse("x1^2.5", XY)
        with pytest.raises(ex.ExprSyntaxError):
            ex.parse("x1^x2", XY)

    def test_negative_integer_exponent(self):
        assert ev("x1^-2", XY, x1=2.0) == 0.25

    def test_precedence(self):
        # ^ binds tighter than unary minus: -x^2 = -(x^2)
        assert ev("-x1^2", XY, x1=3.0) == -9.0
        assert ev("2 + 3 * 4", XY) == 14.0
        assert ev("2 - 3 - 4", XY) == -5.0  # left associative
        assert ev("12 / 3 / 2", XY) == 2.0
        assert ev("(2 + 3) * 4", XY) == 20.0

    def test_scientific_notation(self):
        assert ev("1e-3 + 2E2", XY) == pytest.approx(200.001)


class TestEvaluate:
    def test_cubic(self):
        assert ev("(1/3)*x2^3", XY, x2=3.0) == 9.0

    def test_division_by_zero(self):
        with pytest.raises(ex.EvalDomainError):
            ev("1/x1", XY, x1=0.0)

    def test_abs_feedforward(self):
        assert ev("abs(sin(t/5)+cos(t))*0.5", ["t"], t=0.0) == 0.5

    def test_sqrt_negative(self):
        with pytest.raises(ex.EvalDomainError):
            ev("sqrt(x1)", XY, x1=-1.0)

    def test_unbound_variable(self):
        with pytest.raises(ex.EvalDomainError):
            ex.evaluate(ex.parse("x1 + x2", XY), {"x1": 1.0})

    def test_zero_to_negative_power(self):
        with pytest.raises(ex.EvalDomainError):
            ev("x1^-1", XY, x1=0.0)

    def test_functions(self):
        assert ev("sin(x1)", XY, x1=math.pi / 2) == pytest.approx(1.0)
        assert ev("exp(x1)", XY, x1=1.0) == pytest.approx(math.e)
        assert ev("sqrt(x1)", XY, x1=4.0) == 2.0
        assert ev("sign(x1)", XY, x1=-3.0) == -1.0
        assert ev("sign(x1)", XY, x1=0.0) == 0.0


class TestDifferentiate:
    def test_cubic_derivative(self):
        d = ex.differentiate(ex.parse("(1/3)*x2^3", XY), "x2")
        for v in (-2.0, -0.5, 0.0, 1.0, 3.0):
            assert ex.evaluate(d, {"x1": 0.0, "x2": v}) == pytest.approx(v * v)

    def test_derivative_of_other_variable(self):
        d = ex.differentiate(ex.parse("x2^2", XY), "x1")
        assert d.kind == "const" and d.value == 0.0

    def test_quadratic_vs_finite_difference(self):
        e = ex.parse("-(x2^2+1)", XY)
        d = ex.differentiate(e, "x2")
        rng = random.Random(7)
        h = 1e-6
        for _ in range(10):
            v = rng.uniform(-4.0, 4.0)
            fd = (
                ex.evaluate(e, {"x1": 0.0, "x2": v + h})
                - ex.evaluate(e, {"x1": 0.0, "x2": v - h})
            ) / (2.0 * h)
            assert ex.evaluate(d, {"x1": 0.0, "x2": v}) == pytest.approx(
                fd, abs=1e-6
            )
            assert ex.evaluate(d, {"x1": 0.0, "x2": v}) == pytest.approx(-2.0 * v)

    def test_abs_derivative_sign_convention(self):
        d = ex.differentiate(ex.parse("abs(x1)", XY), "x1")
        assert ex.evaluate(d, {"x1": 2.0, "x2": 0.0}) == 1.0
        assert ex.evaluate(d, {"x1": -2.0, "x2": 0.0}) == -1.0
        assert ex.evaluate(d, {"x1": 0.0, "x2": 0.0}) == 0.0

    def test_quotient_rule(self):
        e = ex.parse("x1/(x2+2)", XY)
        d = ex.differentiate(e, "x2")
        assert ex.evaluate(d, {"x1": 6.0, "x2": 1.0}) == pytest.approx(-6.0 / 9.0)

    def test_sqrt_chain_rule(self):
        d = ex.differentiate(ex.parse("sqrt(x1^2+1)", XY), "x1")
        assert ex.evaluate(d, {"x1": 2.0, "x2": 0.0}) == pytest.approx(
            2.0 / math.sqrt(5.0)
        )


# -- random AST machinery for the property suites ---------------------------

def _random_ast(rng, depth):
    """Smooth, total expression tree (no div/sqrt singularities)."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return ex.const(round(rng.uniform(-3.0, 3.0), 3))
        return ex.var(rng.choice(XY))
    op = rng.choice(["add", "sub", "mul", "neg", "pow", "sin", "cos"])
    if op in ("add", "sub", "mul"):
        return ex.Expr(op, args=(_random_ast(rng, depth - 1),
                                 _random_ast(rng, depth - 1)))
    if op == "pow":
        return ex.Expr("pow", value=float(rng.choice([2, 3])),
                       args=(_random_ast(rng, depth - 1),))
    return ex.Expr(op, args=(_random_ast(rng, depth - 1),))


def test_random_derivatives_match_finite_difference():
    rng = random.Random(42)
    h = 1e-5
    checked = 0
    for _ in range(100):
        e = _random_ast(rng, 3)
        for name in XY:
            d = ex.differentiate(e, name)
            env = {"x1": rng.uniform(-1.5, 1.5), "x2": rng.uniform(-1.5, 1.5)}
            hi = dict(env)
            lo = dict(env)
            hi[name] += h
            lo[name] -= h
            fd = (ex.evaluate(e, hi) - ex.evaluate(e, lo)) / (2.0 * h)
            sym = ex.evaluate(d, env)
            assert sym == pytest.approx(fd, rel=1e-5, abs=1e-5)
            checked += 1
    assert checked == 200


def test_builtin_expression_derivatives_match_finite_difference():
    from ccmkit.model import builtin

    rng = random.Random(3)
    h = 1e-5
    for name in ("numex", "microactuator"):
        bundle = builtin(name)
        sys = bundle.system
        exprs = list(sys.f_exprs) + [e for row in sys.b_exprs for e in row]
        exprs += [e for row in bundle.metric.m_exprs for e in row]
        for e in exprs:
            for v in sys.vars:
                d = ex.differentiate(e, v)
                env = {
                    var: rng.uniform(lo_i, hi_i)
                    for var, lo_i, hi_i in zip(
                        sys.vars, sys.domain_lo, sys.domain_hi
                    )
                }
                hi_env, lo_env = dict(env), dict(env)
                hi_env[v] += h
                lo_env[v] -= h
                fd = (ex.evaluate(e, hi_env) - ex.evaluate(e, lo_env)) / (2 * h)
                assert ex.evaluate(d, env) == pytest.approx(fd, rel=1e-5, abs=1e-5)


def _round_trips(e):
    """print-parse normalizes once and is then a fixed point."""
    normalized = ex.parse(ex.to_string(e), XY)
    return ex.parse(ex.to_string(normalized), XY) == normalized


def test_round_trip_random_asts():
    rng = random.Random(99)
    for _ in range(200):
        assert _round_trips(_random_ast(rng, 4))


def test_round_trip_parsed_sources():
    for text in ["(1/3)*x2^3 + x2", "-(x2^2+1)", "x1 - x2 - 1", "-x1^2",
                 "abs(sin(x1/5)+cos(x2))*0.5", "x1^-2/(x2^2+2)"]:
        e = ex.parse(text, XY)
        assert ex.parse(ex.to_string(e), XY) == e


def test_round_trip_derivative_asts():
    # derivatives introduce sign() nodes; their printed form must reparse
    rng = random.Random(5)
    sources = ["abs(x1*x2)", "sqrt(x1^2+1)", "x1/(x2^2+2)", "-(x2^2+1)"]
    for text in sources:
        e = ex.parse(text, XY)
        for name in XY:
            d = ex.differentiate(e, name)
            assert ex.parse(ex.to_string(d), XY) == d
    for _ in range(50):
        d = ex.differentiate(_random_ast(rng, 3), "x1")
        assert _round_trips(d)


@settings(max_examples=100, deadline=None)
@given(
    a=st.floats(-1e3, 1e3),
    b=st.floats(-1e3, 1e3),
)
def test_compile_fn_matches_evaluate(a, b):
    e = ex.parse("x1^3 - 2*x2 + sin(x1*x2) + abs(x2)", XY)
    fn = ex.compile_fn(e, XY)
    assert fn(a, b) == ex.evaluate(e, {"x1": a, "x2": b})
    # a 2x2 field: sin(x1*x2) repeats inside an entry and across entries,
    # the derivative shares nodes with its source, and -0.0 stays apart
    # from 0.0
    shared = ex.parse("x1^3 - 2*x2 + sin(x1*x2) + abs(x2)*sin(x1*x2)", XY)
    field = [
        [shared, ex.differentiate(shared, "x1")],
        [ex.parse("(-0.0)*x1", XY), ex.parse("0.0*x1", XY)],
    ]
    values = ex.compile_fn(field, XY)(a, b)
    assert len(values) == 2 and all(len(row) == 2 for row in values)
    for row, entries in zip(values, field):
        for value, entry in zip(row, entries):
            assert value.hex() == ex.evaluate(entry, {"x1": a, "x2": b}).hex()


def test_compile_fn_propagates_domain_errors():
    fn = ex.compile_fn(ex.parse("sqrt(x1)", XY), XY)
    with pytest.raises(ex.EvalDomainError):
        fn(-1.0, 0.0)
    for text, x1 in (("1/x1", 0.0), ("x1^-1", 0.0), ("exp(x1)", 1000.0),
                     ("x1^3", 1e200)):
        e = ex.parse(text, XY)
        with pytest.raises(ex.EvalDomainError):
            ex.evaluate(e, {"x1": x1, "x2": 0.0})
        with pytest.raises(ex.EvalDomainError):
            ex.compile_fn(e, XY)(x1, 0.0)


class TestDeepNesting:
    """Trees too deep for the recursive walkers (parse, differentiate,
    to_string) are syntax errors; compile_fn has no depth limit."""

    def test_compile_250_term_sum(self):
        e = ex.parse(" + ".join(["x1"] * 250), XY)
        assert ex.evaluate(e, {"x1": 1.0, "x2": 0.0}) == 250.0
        assert ex.compile_fn(e, XY)(1.0, 0.0) == 250.0

    def test_differentiate_3000_term_sum(self):
        e = ex.parse(" + ".join(["x1"] * 3000), XY)
        with pytest.raises(ex.ExprSyntaxError):
            ex.differentiate(e, "x1")
        with pytest.raises(ex.ExprSyntaxError):
            ex.to_string(e)
        assert ex.compile_fn(e, XY)(1.0, 0.0) == 3000.0

    def test_compile_10000_term_sum(self):
        e = ex.parse(" + ".join(["x1"] * 10000), XY)
        assert ex.free_variables(e) == {"x1"}
        assert ex.compile_fn(e, XY)(1.0, 0.0) == 10000.0

    def test_parse_deep_parentheses(self):
        with pytest.raises(ex.ExprSyntaxError):
            ex.parse("(" * 1000 + "x1" + ")" * 1000, XY)


def test_compile_fn_overflowing_literals():
    e = ex.parse("1e400*x1", XY)
    assert ex.compile_fn(e, XY)(2.0, 0.0) == ex.evaluate(e, {"x1": 2.0}) == math.inf
    # constant folding turns inf - inf into a nan literal
    d = ex.differentiate(ex.parse("1e400*x1 - 1e400*x1", XY), "x1")
    assert d.kind == "const" and math.isnan(d.value)
    assert math.isnan(ex.compile_fn(d, XY)(1.0, 0.0))


def test_free_variables():
    assert ex.free_variables(ex.parse("x1*x2 + 1", XY)) == {"x1", "x2"}
    assert ex.free_variables(ex.parse("2/5", XY)) == set()


# -- array back end ----------------------------------------------------------

# Denominators stay >= 1 and exponents small on [-10, 10], so no entry
# overflows there; x1^-2 raises at 0 on both back ends.
_ARRAY_FIELD_TEXTS = [
    ["x1^3 - 2*x2 + sin(x1*x2) + abs(x2)*sin(x1*x2)", "exp(x1/2)*cos(x2) - 2/5"],
    ["sqrt(x1^2 + 1)/(x2^2 + 1) + sign(x1 - x2)", "x1^-2 + (-0.0)*x2"],
    ["3", "-x1^2 + x1*x2^4"],
]


def _array_field():
    field = [[ex.parse(text, XY) for text in row] for row in _ARRAY_FIELD_TEXTS]
    field.append([ex.differentiate(field[0][0], "x1"), ex.differentiate(field[1][0], "x2")])
    return field


@settings(max_examples=100, deadline=None)
@given(points=st.lists(st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
                       min_size=1, max_size=12))
def test_array_back_end_matches_float_back_end(points):
    # not bit-for-bit: numpy's power and exp may differ from libm in the
    # last bit
    field = _array_field()
    point_fn = ex.compile_fn(field, XY)
    stack_fn = ex.compile_array_fn(field, XY)
    try:
        expected = np.array([point_fn(*p) for p in points])
    except ex.EvalDomainError:
        with pytest.raises(ex.EvalDomainError):
            stack_fn(np.array(points))
        return
    got = stack_fn(np.array(points))
    assert got.shape == (len(points), 4, 2)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(stack_fn(np.array(points[0])), expected[0],
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("member", [0, 2, 4])
@pytest.mark.parametrize("text, x1", [("1/x1", 0.0), ("x1^-1", 0.0), ("sqrt(x1)", -1.0),
                                      ("exp(x1)", 1000.0), ("x1^3", 1e200)])
def test_array_back_end_domain_errors(text, x1, member):
    fn = ex.compile_array_fn(ex.parse(text, XY), XY)
    points = np.ones((5, 2))
    assert np.all(np.isfinite(fn(points)))
    points[member, 0] = x1
    with pytest.raises(ex.EvalDomainError):
        fn(points)
    with pytest.raises(ex.EvalDomainError):
        fn(points[member])


def test_array_back_end_broadcasts_constants():
    points = np.arange(14.0).reshape(7, 2)
    assert np.array_equal(ex.compile_array_fn(ex.parse("2/5", XY), XY)(points),
                          np.full(7, 0.4))
    field = [[ex.parse("x1", XY), ex.parse("3", XY)]]
    got = ex.compile_array_fn(field, XY)(points)
    assert got.shape == (7, 1, 2)
    assert np.array_equal(got[:, 0, 0], points[:, 0])
    assert np.array_equal(got[:, 0, 1], np.full(7, 3.0))
    assert ex.compile_array_fn(field, XY)(points[3]).shape == (1, 2)

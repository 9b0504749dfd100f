"""Expression DSL: parsing, evaluation, differentiation, round-trip."""

import math
import random
import sys
import time
from functools import reduce
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
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

    @pytest.mark.parametrize("text, error, message, offset", [
        ("1.2.3", ex.ExprSyntaxError, "bad number '1.2.3'", 0),
        ("x1 + .", ex.ExprSyntaxError, "bad number '.'", 5),
        ("x1 $ 2", ex.ExprSyntaxError, "unexpected character '$'", 3),
        ("x1 x2", ex.ExprSyntaxError, "trailing input", 3),
        ("2x1", ex.ExprSyntaxError, "trailing input", 1),
        ("x1)", ex.ExprSyntaxError, "trailing input", 2),
        ("(x1 + 1", ex.ExprSyntaxError, "expected ')'", 7),
        ("sin(x1", ex.ExprSyntaxError, "expected ')'", 6),
        ("x1^2.5", ex.ExprSyntaxError, "exponent must be an integer constant", 3),
        ("x1^x2", ex.ExprSyntaxError, "exponent must be an integer constant", 3),
        ("x1^-x2", ex.ExprSyntaxError, "exponent must be an integer constant", 4),
        ("x1^", ex.ExprSyntaxError, "exponent must be an integer constant", 3),
        ("x1 + ", ex.ExprSyntaxError, "expected expression", 5),
        ("*x1", ex.ExprSyntaxError, "expected expression", 0),
        ("x1 * ()", ex.ExprSyntaxError, "expected expression", 6),
        ("", ex.ExprSyntaxError, "empty expression", 0),
        ("   ", ex.ExprSyntaxError, "empty expression", 0),
        ("x1^1e20", ex.ExprSyntaxError, "exponent exceeds 2^53 in magnitude", 3),
        ("x1^-9007199254740993", ex.ExprSyntaxError, "exponent exceeds 2^53 in magnitude", 4),
        ("x1^9007199254740994 + 1", ex.ExprSyntaxError, "exponent exceeds 2^53 in magnitude", 3),
        ("x1^4503599627370495.5", ex.ExprSyntaxError, "exponent must be an integer constant", 3),
        ("x1^1e-999999999", ex.ExprSyntaxError, "exponent must be an integer constant", 3),
        ("x1 + ٣", ex.ExprSyntaxError, "unexpected character '٣'", 5),
        ("x1 * 2٣", ex.ExprSyntaxError, "unexpected character '٣'", 6),
        ("2 * 1e٣", ex.ExprSyntaxError, "unexpected character '٣'", 6),
        ("x1²", ex.ExprSyntaxError, "unexpected character '²'", 2),
        ("ξ + x1", ex.ExprSyntaxError, "unexpected character 'ξ'", 0),
        ("x1 + bogus", ex.UnknownIdentifierError, "unknown identifier 'bogus'", 5),
        ("2 * tan(x1)", ex.UnknownIdentifierError, "unknown identifier 'tan'", 4),
        ("sin x1", ex.UnknownIdentifierError, "unknown identifier 'sin'", 0),
    ])
    def test_error_table(self, text, error, message, offset):
        with pytest.raises(error) as err:
            ex.parse(text, XY)
        assert type(err.value) is error
        assert str(err.value) == f"{message} (offset {offset})"
        assert err.value.offset == offset

    @pytest.mark.parametrize("text", ["(" * 5000 + "x1" + ")" * 5000, "-" * 5000 + "x1"],
                             ids=["deep-parentheses", "deep-unary-minus"])
    def test_deep_input_parses_and_round_trips(self, text):
        e = ex.parse(text, XY)
        want = reduce(lambda a, _: ex.Expr("neg", args=(a,)), range(text.count("-")), ex.var("x1"))
        assert _same_tree(e, want)
        assert _same_tree(ex.parse(ex.to_string(e), XY), e)

    def test_largest_exponent_keeps_its_parity(self):
        # 2^53 - 1, the derivative's exponent, is odd and exact as a float
        e = ex.parse("x1^9007199254740992", XY)
        assert ex.evaluate(ex.differentiate(e, "x1"), {"x1": -1.0}) == -(2.0**53)
        assert ex.evaluate(ex.parse("x1^-9007199254740992", XY), {"x1": -1.0}) == 1.0

    def test_derivative_beyond_largest_exponent_raises(self):
        # x1^-2^53 parses; its derivative needs -2^53 - 1, which a float
        # rounds to the even -2^53 (the wrong sign at x1 = -1)
        e = ex.parse("x1^-9007199254740992", XY)
        with pytest.raises(ex.ExponentRangeError, match="exponent -9007199254740993 exceeds"):
            ex.differentiate(e, "x1")
        assert isinstance(ex.ExponentRangeError("x"), ArithmeticError)
        for n in (2**53 + 1, -(2**53) - 1):
            with pytest.raises(ex.ExponentRangeError, match=str(n)):
                ex.pow_int(ex.var("x1"), n)
        assert ex.pow_int(ex.var("x1"), -(2**53)).value == -(2.0**53)

    @pytest.mark.parametrize("text, n", [("x1^2.0", 2), ("x1^1e1", 10), ("x1^250e-1", 25),
                                         ("x1^-0.3e1", -3), ("x1^0e99999999999", 0)])
    def test_exponent_literal_read_exactly(self, text, n):
        e = ex.parse(text, XY)
        assert e.kind == "pow" and e.value == n

    @pytest.mark.parametrize("text", ["x1^1e400", "x1^-1e400", "x1^1e999 + 1"])
    def test_infinite_exponent_rejected(self, text):
        with pytest.raises(ex.ExprSyntaxError) as err:
            ex.parse(text, XY)
        assert str(err.value) == f"exponent must be an integer constant (offset {text.index('1e')})"


# Oracles: the hand-written scanner and digit arithmetic that `_tokens` (one
# `re` pattern) and `_integer` (`decimal`) replaced.
_DIGITS, _NAME_START = "0123456789", "_ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
_NUMBER_CHARS, _NAME_CHARS = _DIGITS + ".", _NAME_START + _DIGITS


def _scanned_tokens(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c, j = text[i], i + 1
        if c in "+-*/^()":
            tokens.append((c, c, i))
        elif c in _NUMBER_CHARS:
            while j < n and text[j] in _NUMBER_CHARS:
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k] in _DIGITS:
                    j = k
                    while j < n and text[j] in _DIGITS:
                        j += 1
            try:
                float(text[i:j])
            except ValueError:
                raise ex.ExprSyntaxError(f"bad number '{text[i:j]}'", i) from None
            tokens.append(("num", text[i:j], i))
        elif c in _NAME_START:
            while j < n and text[j] in _NAME_CHARS:
                j += 1
            tokens.append(("ident", text[i:j], i))
        elif not c.isspace():
            raise ex.ExprSyntaxError(f"unexpected character '{c}'", i)
        i = j
    return tokens + [("end", None, n)]


def _digit_integer(literal):
    mantissa, _, exponent = literal.lower().partition("e")
    whole, _, fraction = mantissa.partition(".")
    digits = (whole + fraction).rstrip("0")
    if not digits:
        return 0
    shift = int(exponent or 0) - len(fraction) + len(whole + fraction) - len(digits)
    return int(digits) * 10**shift if shift >= 0 else None


def _token_outcome(tokens, text):
    try:
        return tokens(text)
    except ex.ExprSyntaxError as err:
        return type(err), str(err), err.offset


# ASCII and Unicode digits (Arabic-Indic, superscript, fullwidth), Greek,
# ASCII and Unicode whitespace (\x1c is a separator `isspace` accepts),
# exponent letters, signs and operators
_SCAN_ALPHABET = list("0123456789.eE+-*/^()x_Zs \t\n\x1c$") + [
    "\u0663", "\u00b2", "\uff11", "\u03be", "\u00a0", "\u2028", "\u3000", "\x85", "\u200b"]


@settings(max_examples=2000, derandomize=True, deadline=None)
@given(text=st.text(st.sampled_from(_SCAN_ALPHABET), max_size=24))
@example(text="2 * 1e\u0663 + x1\u00b2")
@example(text="1.e+5E-3e.2 x1_e2 \t\n\x1c 3")
def test_tokens_match_scanner(text):
    """The same tokens, or the same error type, message and offset, as the
    hand-written scanner."""
    assert _token_outcome(ex._tokens, text) == _token_outcome(_scanned_tokens, text)


_LITERAL_EXPONENTS = st.integers(-400, 400) | st.sampled_from(
    [-999999999, 99999999999, -(10**20), 10**20, 10**30])


@settings(max_examples=2000, derandomize=True, deadline=None)
@given(whole=st.text("0123456789", max_size=60), fraction=st.none() | st.text("0123456789",
       max_size=60), mark=st.sampled_from("eE"), exponent=st.none() | _LITERAL_EXPONENTS)
@example(whole="1", fraction=None, mark="e", exponent=-999999999)
@example(whole="1" * 60, fraction="0" * 60, mark="e", exponent=-60)
@example(whole="0", fraction="000", mark="E", exponent=10**20)
def test_integer_matches_digit_arithmetic(whole, fraction, mark, exponent):
    """`_integer` gives the digit arithmetic's integer, or None, for every
    literal with a finite float: long mantissas, exponents beyond the float
    range and beyond decimal's."""
    literal = whole + ("" if fraction is None else "." + fraction)
    literal += "" if exponent is None else f"{mark}{exponent}"
    try:
        finite = math.isfinite(float(literal))
    except ValueError:  # no digit at all
        finite = False
    if finite:
        assert ex._integer(literal) == _digit_integer(literal)


def test_whitespace_is_what_isspace_says():
    # over every code point, the pattern's whitespace runs hold exactly the
    # characters that `str.isspace`, the hand-written scanner's test, accepts
    text = "".join(map(chr, range(sys.maxunicode + 1)))
    runs = "".join(m.group() for m in ex._TOKEN.finditer(text) if m.lastgroup == "space")
    assert runs == "".join(c for c in text if c.isspace())


@pytest.mark.parametrize("text, names", [("x1" + " " * 200_000, [("ident", "x1", 0)]),
                                         (" " * 200_000, [])], ids=["trailing-blanks", "blanks"])
def test_tokens_take_linear_time(text, names):
    start = time.perf_counter()
    tokens = ex._tokens(text)
    assert time.perf_counter() - start < 1.0
    assert tokens == names + [("end", None, len(text))]


# Oracle: the recursive-descent parser that the one-loop `parse` replaced.
_BINARY_LEVELS = ({"+": "add", "-": "sub"}, {"*": "mul", "/": "div"})


class _RecursiveParser:
    """Recursive descent over the token list, kept as a stack with the next
    token last; one method per level of binary operators. Raises
    RecursionError on input nested beyond the interpreter's limit."""

    def __init__(self, text, variables):
        self.tokens = _scanned_tokens(text)[::-1]
        self.variables = set(variables)

    def parse(self):
        e = self._binary(0)
        kind, _, off = self.tokens[-1]
        if kind != "end":
            raise ex.ExprSyntaxError("trailing input", off)
        return e

    def _binary(self, level):
        if level == len(_BINARY_LEVELS):
            return self._factor()
        ops = _BINARY_LEVELS[level]
        e = self._binary(level + 1)
        while self.tokens[-1][0] in ops:
            e = ex.Expr(ops[self.tokens.pop()[0]], args=(e, self._binary(level + 1)))
        return e

    def _factor(self):
        if self.tokens[-1][0] == "-":
            self.tokens.pop()
            return ex.neg(self._factor())
        base = self._atom()
        if self.tokens[-1][0] != "^":
            return base
        self.tokens.pop()
        sign = 1
        kind, value, off = self.tokens.pop()
        if kind == "-":
            sign = -1
            kind, value, off = self.tokens.pop()
        exact = _digit_integer(value) if kind == "num" and math.isfinite(float(value)) else None
        if exact is None:
            raise ex.ExprSyntaxError("exponent must be an integer constant", off)
        if abs(exact) > ex._MAX_EXPONENT:
            raise ex.ExprSyntaxError("exponent exceeds 2^53 in magnitude", off)
        return ex.Expr("pow", value=float(sign * exact), args=(base,))

    def _atom(self):
        kind, value, off = self.tokens.pop()
        if kind == "num":
            return ex.const(float(value))
        if kind == "ident" and self.tokens[-1][0] != "(":
            if value not in self.variables:
                raise ex.UnknownIdentifierError(value, off)
            return ex.var(value)
        if kind == "ident":  # a function call
            if value not in ex.FUNCTIONS:
                raise ex.UnknownIdentifierError(value, off)
            self.tokens.pop()
        elif kind != "(":
            raise ex.ExprSyntaxError("expected expression", off)
        inner = self._binary(0)
        close, _, close_off = self.tokens.pop()
        if close != ")":
            raise ex.ExprSyntaxError("expected ')'", close_off)
        return inner if kind == "(" else ex.Expr(value, args=(inner,))


def _recursive_parse(text, variables):
    if not text or not text.strip():
        raise ex.ExprSyntaxError("empty expression", 0)
    return _RecursiveParser(text, variables).parse()


def _parse_outcome(parse, text):
    """The tree `parse` gives for `text`, or its error's type, message and offset."""
    try:
        return parse(text, XY)
    except (ex.ExprSyntaxError, ex.UnknownIdentifierError) as err:
        return type(err), str(err), err.offset


_LEAVES = ["x1", "x2", "2", "0", "0.5", "3e-1", "1e400"] * 3 + ["t", "1.2.3", "$"]
_BINARY_OPS = [" + ", "-", "*", "/", " - "]
_CALLS = [*ex.FUNCTIONS, "tan", "x1"]
_EXPONENTS = ["2", "-3", "0", "-0", "1", "2.0", "2.5", "1e20", "- 2", "x1", "-x1", "",
              "9007199254740992", "-9007199254740993"]
_EDITS = ["", "(", ")", "-", "^", " ", "x1"]
_SOUP = ["(", ")", "+", "-", "*", "/", "^", "x1", "x2", "sin", "tan", "bogus", "2", "0.5",
         "1e400", "9007199254740993"]


def _text_from(data):
    """Parser input read off the bytes `data`, one choice per byte: token
    soup, or expression-shaped text as it is or with one character replaced.
    Fewer bytes give shorter text, so hypothesis shrinks toward short input."""
    mode, pos, edit, *rest = data.ljust(3, b"\0")
    if mode % 3 == 0:
        return "".join(_SOUP[b % len(_SOUP)] + " " * (b >= 128) for b in rest)
    choices = iter(rest)

    def expr(depth):
        kind, pick = divmod(next(choices, 0), 32)  # kind 0..7, pick 0..31
        if kind < 3 or depth > 6:
            return _LEAVES[pick % len(_LEAVES)]
        if kind == 3:
            return expr(depth + 1) + _BINARY_OPS[pick % len(_BINARY_OPS)] + expr(depth + 1)
        if kind == 4:
            return "-" + expr(depth + 1)
        if kind == 5:
            return f"({expr(depth + 1)})"
        if kind == 6:
            return f"{_CALLS[pick % len(_CALLS)]}({expr(depth + 1)})"
        return expr(depth + 1) + "^" + _EXPONENTS[pick % len(_EXPONENTS)]

    text = expr(0)
    if mode % 3 == 2:
        i = pos % len(text)
        text = text[:i] + _EDITS[edit % len(_EDITS)] + text[i + 1:]
    return text


@settings(max_examples=2000, derandomize=True, deadline=None)
@given(data=st.binary(max_size=40))
def test_parse_matches_recursive_parser(data):
    """The same tree, or the same error type, message and offset, as the
    recursive-descent oracle wherever the oracle does not recurse too deeply."""
    text = _text_from(data)
    try:
        want = _parse_outcome(_recursive_parse, text)
    except RecursionError:
        return
    got = _parse_outcome(ex.parse, text)
    if isinstance(want, ex.Expr):
        assert isinstance(got, ex.Expr) and _same_tree(got, want)
    else:
        assert got == want


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


def _random_tree(rng, depth, shared=()):
    """Any-kind expression tree for structural checks (not evaluated);
    leaves may be drawn from `shared`, so subtrees repeat by identity."""
    if depth == 0 or rng.random() < 0.25:
        if shared and rng.random() < 0.3:
            return rng.choice(shared)
        if rng.random() < 0.4:
            return ex.const(rng.choice([0.0, 1.0, -0.0, round(rng.uniform(-3, 3), 3)]))
        return ex.var(rng.choice(XY))
    op = rng.choice(["add", "sub", "mul", "div", "neg", "pow", *ex.FUNCTIONS])
    if op in ("add", "sub", "mul", "div"):
        return ex.Expr(op, args=(_random_tree(rng, depth - 1, shared),
                                 _random_tree(rng, depth - 1, shared)))
    arg = _random_tree(rng, depth - 1, shared)
    if op == "pow":
        # a constant base could be 0 to a negative power, which pow_int
        # refuses to fold
        base = ex.var("x1") if arg.kind == "const" else arg
        return ex.Expr("pow", value=float(rng.choice([-3, -1, 2, 3])), args=(base,))
    return ex.Expr(op, args=(arg,))


def _same_tree(a, b):
    """Structural equality without recursion (Expr.__eq__ recurses)."""
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if (a.kind, a.value, a.name, len(a.args)) != (b.kind, b.value, b.name, len(b.args)):
            return False
        stack += zip(a.args, b.args)
    return True


# Oracles: the recursive walkers that differentiate and to_string replaced.
def _recursive_differentiate(expr, name):
    kind = expr.kind
    if kind == "const":
        return ex.ZERO
    if kind == "var":
        return ex.ONE if expr.name == name else ex.ZERO
    if kind in ("add", "sub"):
        da = _recursive_differentiate(expr.args[0], name)
        db = _recursive_differentiate(expr.args[1], name)
        return ex.add(da, db) if kind == "add" else ex.sub(da, db)
    if kind == "mul":
        a, b = expr.args
        return ex.add(ex.mul(_recursive_differentiate(a, name), b),
                      ex.mul(a, _recursive_differentiate(b, name)))
    if kind == "div":
        a, b = expr.args
        da, db = _recursive_differentiate(a, name), _recursive_differentiate(b, name)
        if db.kind == "const" and db.value == 0.0:
            return ex.div(da, b)
        return ex.div(ex.sub(ex.mul(da, b), ex.mul(a, db)), ex.pow_int(b, 2))
    if kind == "pow":
        a = expr.args[0]
        n = int(expr.value)
        return ex.mul(ex.mul(ex.const(n), ex.pow_int(a, n - 1)),
                      _recursive_differentiate(a, name))
    if kind == "neg":
        return ex.neg(_recursive_differentiate(expr.args[0], name))
    a = expr.args[0]
    da = _recursive_differentiate(a, name)
    if kind == "sin":
        return ex.mul(ex.func("cos", a), da)
    if kind == "cos":
        return ex.neg(ex.mul(ex.func("sin", a), da))
    if kind == "exp":
        return ex.mul(ex.func("exp", a), da)
    if kind == "abs":
        return ex.mul(ex.func("sign", a), da)
    if kind == "sqrt":
        return ex.div(da, ex.mul(ex.const(2.0), ex.func("sqrt", a)))
    if kind == "sign":
        return ex.ZERO
    raise ValueError(f"unknown node kind '{kind}'")


_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4}


def _recursive_to_string(expr, parent_prec=0):
    kind = expr.kind
    if kind == "const":
        v = expr.value
        return repr(v) if v >= 0 else f"({v!r})"
    if kind == "var":
        return expr.name
    if kind in ("add", "sub", "mul", "div"):
        op = {"add": " + ", "sub": " - ", "mul": "*", "div": "/"}[kind]
        prec = _PREC[kind]
        left = _recursive_to_string(expr.args[0], prec - 1)
        right = _recursive_to_string(expr.args[1], prec)
        s = f"{left}{op}{right}"
        return f"({s})" if prec <= parent_prec else s
    if kind == "neg":
        s = "-" + _recursive_to_string(expr.args[0], _PREC["neg"] - 1)
        return f"({s})" if _PREC["neg"] <= parent_prec else s
    if kind == "pow":
        n = int(expr.value)
        base = _recursive_to_string(expr.args[0], _PREC["pow"])
        exp = str(n) if n >= 0 else f"-{-n}"
        s = f"{base}^{exp}"
        return f"({s})" if _PREC["pow"] <= parent_prec else s
    return f"{kind}({_recursive_to_string(expr.args[0], 0)})"


def _recursive_free_variables(expr):
    if expr.kind == "var":
        return {expr.name}
    return set().union(*(_recursive_free_variables(a) for a in expr.args))


_GAIN_TERMS = ["x1*x2", "sin(x1)", "x2^2", "-x1", "exp(x1)/x2",
               "sqrt(x1^2+1)", "abs(x1-x2)", "x1^-2"]


class TestRecursiveOracle:
    """The iterative walkers agree with the recursive ones they replaced."""

    def test_random_trees(self):
        rng = random.Random(17)
        for _ in range(300):
            shared = tuple(_random_tree(rng, 2) for _ in range(2))
            e = _random_tree(rng, 6, shared)
            assert ex.to_string(e) == _recursive_to_string(e)
            for name in XY:
                d = ex.differentiate(e, name)
                assert d == _recursive_differentiate(e, name)
                assert ex.to_string(d) == _recursive_to_string(d)

    def test_free_variables_random_trees(self):
        # the trees of test_random_trees, alone and in a nested list
        rng, trees = random.Random(17), []
        for _ in range(300):
            shared = tuple(_random_tree(rng, 2) for _ in range(2))
            trees.append(_random_tree(rng, 6, shared))
            assert ex.free_variables(trees[-1]) == _recursive_free_variables(trees[-1])
        for k in range(0, 300, 3):
            nested = [trees[k], [[trees[k + 1]], [], trees[k + 2]]]
            assert ex.free_variables(nested) == set().union(
                *map(_recursive_free_variables, trees[k : k + 3]))

    def test_derivative_of_shared_subtree_is_shared(self):
        s = ex.parse("sin(x1)*x2", XY)
        d = ex.differentiate(ex.Expr("add", args=(s, s)), "x1")
        assert d.kind == "add" and d.args[0] is d.args[1]
        assert d == _recursive_differentiate(ex.Expr("add", args=(s, s)), "x1")

    def test_compiled_derivatives_match(self):
        rng = random.Random(23)
        for _ in range(50):
            e = _random_ast(rng, 4)
            point = (rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            for name in XY:
                got = ex.compile_fn(ex.differentiate(e, name), XY)(*point)
                want = ex.compile_fn(_recursive_differentiate(e, name), XY)(*point)
                assert got == want or (math.isnan(got) and math.isnan(want))


def test_quotient_by_free_denominator_matches_quotient_rule():
    """d(u/b) is du/b when b is free of the variable: within 1e-15 of the full
    quotient rule (du*b - u*db)/b^2 wherever that one is finite, and finite
    where b^2 overflows or underflows."""
    rng = random.Random(31)
    checked = 0
    for _ in range(200):
        u = _random_ast(rng, 3)
        b = ex.const(rng.choice([-1, 1]) * 10 ** rng.uniform(-150, 150))
        if rng.random() < 0.5:
            b = ex.Expr("add", args=(b, ex.var("x2")))
        e = ex.Expr("div", args=(u, b))
        du = ex.differentiate(u, "x1")
        quotient_rule = ex.div(ex.mul(du, b), ex.pow_int(b, 2))  # db = 0
        env = {"x1": rng.uniform(-1.5, 1.5), "x2": rng.uniform(-1.5, 1.5)}
        got = ex.evaluate(ex.differentiate(e, "x1"), env)
        try:
            want = ex.evaluate(quotient_rule, env)
        except ex.EvalDomainError:
            continue
        if math.isfinite(want):
            assert math.isclose(got, want, rel_tol=1e-15, abs_tol=0.0)
            checked += 1
    assert checked >= 150
    for literal in (1e200, 1e-200):
        d = ex.differentiate(ex.parse(f"x1/{literal!r}", XY), "x1")
        assert ex.evaluate(d, {"x1": 0.0}) == 1.0 / literal


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
    lines, _, _ = ex._straight_line(field)
    rhs = dict(line.split(" = ") for line in lines)  # local -> right-hand side
    assert len(set(rhs.values())) == len(rhs)  # no right-hand side repeats
    product = [name for name, text in rhs.items() if text == "x1 * x2"]
    assert len(product) == 1
    assert list(rhs.values()).count(f"sin({product[0]})") == 1
    values = ex.compile_fn(field, XY)(a, b)
    assert len(values) == 2 and all(len(row) == 2 for row in values)
    for row, entries in zip(values, field):
        for value, entry in zip(row, entries):
            assert value.hex() == ex.evaluate(entry, {"x1": a, "x2": b}).hex()


def test_straight_line_order():
    # children first, first operand first, first entry first
    lines, texts, operands = ex._straight_line([ex.parse("sin(x1) * cos(x2)", XY),
                                                ex.parse("-x2 + sin(x1)", XY), ex.parse("x1", XY)])
    assert lines == ["_0 = sin(x1)", "_1 = cos(x2)", "_2 = _0 * _1", "_3 = -x2", "_4 = _3 + _0"]
    assert texts == ["_2", "_4", "x1"]
    assert operands == [("x1",), ("x2",), ("_0", "_1"), ("x2",), ("_3", "_0")]


def test_compiled_functions_profile_apart():
    import cProfile
    import pstats

    first = ex.compile_fn(ex.parse("x1 + x2", XY), XY)
    second = ex.compile_fn(ex.parse("x1 * x2", XY), XY)
    assert first.__code__.co_filename != second.__code__.co_filename
    profile = cProfile.Profile()
    profile.enable()
    for _ in range(1000):
        first(1.0, 2.0)
    for _ in range(3000):
        second(1.0, 2.0)
    profile.disable()
    calls = {key[0]: value[1] for key, value in pstats.Stats(profile).stats.items()
             if key[2] == "fn"}
    assert calls[first.__code__.co_filename] == 1000
    assert calls[second.__code__.co_filename] == 3000


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
    """parse, differentiate, to_string and compile_fn have no depth limit:
    nested parentheses, unary minus and function calls included."""

    def test_compile_250_term_sum(self):
        e = ex.parse(" + ".join(["x1"] * 250), XY)
        assert ex.evaluate(e, {"x1": 1.0, "x2": 0.0}) == 250.0
        assert ex.compile_fn(e, XY)(1.0, 0.0) == 250.0

    def test_differentiate_3000_term_sum(self):
        e = ex.parse(" + ".join(["x1"] * 3000), XY)
        assert ex.differentiate(e, "x1") == ex.const(3000.0)
        assert ex.differentiate(e, "x2") == ex.ZERO
        assert _same_tree(ex.parse(ex.to_string(e), XY), e)
        assert ex.compile_fn(e, XY)(1.0, 0.0) == 3000.0

    def test_10000_term_gain_round_trips(self):
        # a K_1_1 far deeper than the recursion limit differentiates,
        # prints and reparses to an equal tree
        e = ex.parse(" + ".join(_GAIN_TERMS[i % len(_GAIN_TERMS)]
                                for i in range(10000)), XY)
        assert _same_tree(ex.parse(ex.to_string(e), XY), e)
        for name in XY:
            d = ex.differentiate(e, name)
            assert _same_tree(ex.parse(ex.to_string(d), XY), d)
            assert ex.compile_fn(d, XY)(0.7, 1.3) == pytest.approx(
                10000 / len(_GAIN_TERMS) * sum(
                    ex.evaluate(ex.differentiate(ex.parse(t, XY), name),
                                {"x1": 0.7, "x2": 1.3}) for t in _GAIN_TERMS))

    def test_compile_10000_term_sum(self):
        e = ex.parse(" + ".join(["x1"] * 10000), XY)
        assert ex.free_variables(e) == {"x1"}
        assert ex.compile_fn(e, XY)(1.0, 0.0) == 10000.0

    def test_free_variables_of_10000_term_sum(self):
        names = [f"v{i}" for i in range(10000)]
        e = reduce(ex.add, map(ex.var, names))
        assert ex.free_variables(e) == set(names)
        assert ex.free_variables([[e, ex.ONE], [[ex.var("x1")]], []]) == {*names, "x1"}
        assert ex.free_variables([]) == set()

    def test_parse_deep_parentheses(self):
        assert ex.parse("(" * 1000 + "x1" + ")" * 1000, XY) == ex.var("x1")

    def test_derivative_of_250_factor_product_round_trips(self):
        # d/dx1 of (x1 + 1)*...*(x1 + 250) prints with 249 nested parentheses
        e = ex.parse("*".join(f"(x1 + {k})" for k in range(1, 251)), XY)
        d = ex.differentiate(e, "x1")
        text = ex.to_string(d)
        assert max(accumulate({"(": 1, ")": -1}.get(c, 0) for c in text)) == 249
        assert _same_tree(ex.parse(text, XY), d)


class TestSubstitute:
    def test_10000_term_sum(self):
        # deeper than the recursion limit: the walk must be iterative
        e = ex.parse(" + ".join(["x1"] * 10000), XY)
        out = ex.substitute(e, {"x1": ex.parse("2*x2", XY)})
        assert ex.free_variables(out) == {"x2"}
        assert ex.compile_fn(out, XY)(0.0, 1.5) == 30000.0

    def test_unmapped_variables_left_alone(self):
        e = ex.parse("x1*x2 + sin(x2)", XY)
        out = ex.substitute(e, {"x1": ex.var("y1")})
        assert out == ex.parse("y1*x2 + sin(x2)", ["y1", "x2"])
        assert out.args[1] is e.args[1]  # sin(x2) has nothing to replace
        assert ex.substitute(e, {}) is e
        assert ex.substitute(e, {"z9": ex.ONE}) is e

    def test_matches_evaluate_under_renamed_env(self):
        rng = random.Random(61)
        rename = {"x1": ex.var("xd1"), "x2": ex.var("xd2")}
        for _ in range(50):
            e = _random_ast(rng, 4)
            env = {"x1": rng.uniform(-2, 2), "x2": rng.uniform(-2, 2)}
            renamed = {"xd1": env["x1"], "xd2": env["x2"]}
            out = ex.substitute(e, rename)
            assert not ex.free_variables(out) & set(XY)
            assert ex.evaluate(out, renamed) == ex.evaluate(e, env)

    def test_shared_subtree_stays_shared(self):
        shared = ex.parse("x1*x2", XY)
        e = ex.Expr("add", args=(ex.func("sin", shared), ex.func("cos", shared)))
        out = ex.substitute(e, {"x1": ex.var("y")})
        assert out.args[0].args[0] is out.args[1].args[0]
        assert out.args[0].args[0] == ex.parse("y*x2", ["y", "x2"])
        # and between the entries of a list, which gives a list
        entries = ex.substitute([ex.func("sin", shared), ex.func("cos", shared)],
                                {"x1": ex.var("y")})
        assert isinstance(entries, list) and entries[0].args[0] is entries[1].args[0]


class TestDegree:
    """`degree`: the polynomial degree in a set of variables, inf otherwise."""

    @staticmethod
    def deg(text, names=("x1",)):
        return ex.degree(ex.parse(text, XY), names)

    @pytest.mark.parametrize("text, d", [
        ("3", 0), ("x1", 1), ("x2", 0), ("-x1", 1), ("-(x2 + 1)", 0),
        ("x1 + x1*x1", 2), ("x1^3 - x1", 3), ("x1 - x1", 1),  # an upper bound
        ("x1*x2", 1), ("x1^2*x1^3", 5), ("(x1 + x2)*(x1 - 1)", 2),
        ("x1^0", 0), ("x1^1", 1), ("(x1 + 1)^3", 3), ("(x1*x2^2)^3", 3),
        ("x1/3", 1), ("x1^2/(x2 + 1)", 2), ("(x1 + 1)/sin(x2)", 1),
        ("x1^-1", math.inf), ("x2^-1", 0), ("1/x1", math.inf), ("x2/(x1 + 1)", math.inf),
        ("x1/x1", math.inf), ("sin(x1)^0", 0), ("x1^2 + sqrt(x1)", math.inf),
    ])
    def test_node_kinds(self, text, d):
        assert self.deg(text) == d

    @pytest.mark.parametrize("name", ex.FUNCTIONS)
    def test_functions(self, name):
        assert self.deg(f"{name}(x1)") == math.inf
        assert self.deg(f"{name}(x1^2 + 1)*x2") == math.inf
        assert self.deg(f"{name}(x2)") == 0
        assert self.deg(f"x1^2*{name}(x2 + 3)") == 2

    def test_names_set(self):
        assert self.deg("x1^2*x2^3 + x2", XY) == 5
        assert self.deg("x1^2*x2^3", ()) == 0
        assert self.deg("sin(x1*x2)", ["x2"]) == math.inf
        assert ex.degree([ex.parse("x1^2", XY), ex.parse("x2", XY)], ["x1"]) == [2, 0]

    def test_shared_subtree(self):
        shared = ex.parse("x1^2 + x2", XY)
        e = ex.mul(shared, ex.func("cos", ex.var("x2")))
        assert ex.degree(ex.mul(e, shared), ["x1"]) == 4
        assert ex.degree([shared, ex.func("exp", shared)], ["x1"]) == [2, math.inf]
        assert ex.degree([shared, ex.func("exp", shared)], ["x3"]) == [0, 0]

    def test_10000_term_sum(self):
        # deeper than the recursion limit: the fold is iterative
        e = ex.parse(" + ".join(f"x1^{k % 7}*x2" for k in range(10000)), XY)
        assert ex.degree(e, ["x1"]) == 6
        assert ex.degree(e, XY) == 7
        assert ex.degree(ex.func("sqrt", e), ["x2"]) == math.inf


def test_compile_fn_overflowing_literals():
    e = ex.parse("1e400*x1", XY)
    assert ex.compile_fn(e, XY)(2.0, 0.0) == ex.evaluate(e, {"x1": 2.0}) == math.inf
    # constant folding turns inf - inf into a nan literal
    d = ex.differentiate(ex.parse("1e400*x1 - 1e400*x1", XY), "x1")
    assert d.kind == "const" and math.isnan(d.value)
    assert math.isnan(ex.compile_fn(d, XY)(1.0, 0.0))


def test_overflowing_literal_power_is_not_folded():
    # 1e200^2 overflows and 0^-1 divides by zero where they are evaluated, not where built
    for base, n in ((1e200, 2), (-1e200, 3), (0.0, -1)):
        e = ex.pow_int(ex.const(base), n)
        assert e.kind == "pow" and e.args[0].value == base and e.value == n
        with pytest.raises(ex.EvalDomainError):
            ex.evaluate(e, {})
        with pytest.raises(ex.EvalDomainError):
            ex.compile_fn(e, XY)(0.0, 0.0)
    assert ex.pow_int(ex.const(1e-200), 2) == ex.const(0.0)


@pytest.mark.parametrize("value, text", [(math.inf, "1e999"), (-math.inf, "(-1e999)")])
def test_infinite_literal_prints_as_one_that_reads_back(value, text):
    e = ex.mul(ex.const(value), ex.var("x1"))
    assert ex.to_string(e) == text + "*x1"
    assert ex.parse(ex.to_string(e), XY) == e


def test_literal_only_arithmetic_is_folded():
    """Arithmetic over literals alone runs in the compiled code as the tree has
    it, in Python floats, so both back ends keep `evaluate`'s bits."""
    e = ex.parse("(2/3)*x1 - -(1/3) + 2^3*x2 + sqrt(4)", XY)
    for x1, x2 in ((1.0, 2.0), (-3.7, 0.1), (1e-300, -1e300)):
        assert (ex.compile_fn(e, XY)(x1, x2).hex()
                == ex.evaluate(e, {"x1": x1, "x2": x2}).hex())
    assert ex.compile_array_fn(e, XY)(np.array([1.0, 2.0])) == ex.compile_fn(e, XY)(1.0, 2.0)


def test_raising_or_overflowing_literals_are_not_folded():
    # 1/0 still raises at its point, 1e200*1e200 still gives inf at run time
    e = ex.parse("1/0 + x1", XY)
    assert ex._straight_line(e)[0][0] == "_0 = 1.0 / 0.0"
    with pytest.raises(ex.EvalDomainError):
        ex.compile_fn(e, XY)(1.0, 0.0)
    e = ex.parse("1e200*1e200 + x1", XY)
    assert ex._straight_line(e)[0][0] == "_0 = 1e+200 * 1e+200"
    assert ex.compile_fn(e, XY)(1.0, 0.0) == ex.evaluate(e, {"x1": 1.0}) == math.inf


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

"""Scalar expression DSL: parsing, evaluation, symbolic differentiation.

Expressions over a declared variable table are used to define vector
fields, input matrices, metrics, feedforward inputs and gain entries in
configuration files.  Grammar (precedence high to low): ^ with integer
exponent, unary minus, * /, + -.  Functions: sin, cos, exp, abs, sqrt
(plus sign, which only appears in derivatives of abs but is accepted by
the parser so printed derivatives round-trip).

Expressions compile to straight-line code with two back ends: on Python
floats for one point (`compile_fn`, bit-for-bit `evaluate`) and on numpy
arrays for a stack of points in one call (`compile_array_fn`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np


class ExprSyntaxError(ValueError):
    """Raised on malformed expression text; carries the byte offset."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ValueError):
    def __init__(self, name, offset):
        super().__init__(f"unknown identifier '{name}' (offset {offset})")
        self.name = name
        self.offset = offset


class EvalDomainError(ArithmeticError):
    """Division by zero, sqrt of a negative, overflow, or an unbound variable."""


def _sign(v):
    return 0.0 if v == 0.0 else math.copysign(1.0, v)


def _sqrt_checked(v):
    if v < 0.0:
        raise EvalDomainError(f"sqrt of negative value {v}")
    return math.sqrt(v)


# The one function table, shared by `evaluate` and `compile_fn`.
_FUNCTION_TABLE = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "abs": abs,
    "sqrt": _sqrt_checked,
    "sign": _sign,
}
FUNCTIONS = tuple(_FUNCTION_TABLE)


@dataclass(frozen=True)
class Expr:
    """Immutable expression node.

    kind is one of: "const" (value), "var" (name),
    "neg"/"sin"/"cos"/"exp"/"abs"/"sqrt"/"sign" (a,),
    "add"/"sub"/"mul"/"div" (a, b), "pow" (a, integer exponent).
    """

    kind: str
    value: float = 0.0
    name: str = ""
    args: tuple = ()

    def __call__(self, env):
        return evaluate(self, env)


def const(v):
    return Expr("const", value=float(v))


def var(name):
    return Expr("var", name=name)


ZERO = const(0.0)
ONE = const(1.0)


def _is_const(e, v=None):
    return e.kind == "const" and (v is None or e.value == v)


def add(a, b):
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if _is_const(a) and _is_const(b):
        return const(a.value + b.value)
    return Expr("add", args=(a, b))


def sub(a, b):
    if _is_const(b, 0.0):
        return a
    if _is_const(a) and _is_const(b):
        return const(a.value - b.value)
    return Expr("sub", args=(a, b))


def mul(a, b):
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if _is_const(a) and _is_const(b):
        return const(a.value * b.value)
    return Expr("mul", args=(a, b))


def div(a, b):
    if _is_const(a, 0.0) and not _is_const(b, 0.0):
        return ZERO
    if _is_const(b, 1.0):
        return a
    return Expr("div", args=(a, b))


def neg(a):
    if _is_const(a):
        return const(-a.value)
    return Expr("neg", args=(a,))


def pow_int(a, n):
    n = int(n)
    if n == 0:
        return ONE
    if n == 1:
        return a
    if _is_const(a):
        return const(a.value**n)
    return Expr("pow", value=float(n), args=(a,))


def func(name, a):
    if name == "neg":
        return neg(a)
    return Expr(name, args=(a,))


def matvec(rows, point):
    """The products rows @ point as expressions, summed left to right."""
    return [reduce(add, [mul(entry, p) for entry, p in zip(row, point)]) for row in rows]


class _Tokenizer:
    def __init__(self, text):
        self.text = text
        self.tokens = []
        self._scan()
        self.idx = 0

    def _scan(self):
        text = self.text
        i = 0
        n = len(text)
        while i < n:
            c = text[i]
            if c.isspace():
                i += 1
                continue
            if c in "+-*/^()":
                self.tokens.append((c, c, i))
                i += 1
                continue
            if c.isdigit() or c == ".":
                j = i
                while j < n and (text[j].isdigit() or text[j] == "."):
                    j += 1
                if j < n and text[j] in "eE":
                    k = j + 1
                    if k < n and text[k] in "+-":
                        k += 1
                    if k < n and text[k].isdigit():
                        j = k
                        while j < n and text[j].isdigit():
                            j += 1
                try:
                    value = float(text[i:j])
                except ValueError:
                    raise ExprSyntaxError(f"bad number '{text[i:j]}'", i)
                self.tokens.append(("num", value, i))
                i = j
                continue
            if c.isalpha() or c == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("ident", text[i:j], i))
                i = j
                continue
            raise ExprSyntaxError(f"unexpected character '{c}'", i)
        self.tokens.append(("end", None, n))

    def peek(self):
        return self.tokens[self.idx]

    def next(self):
        tok = self.tokens[self.idx]
        if tok[0] != "end":
            self.idx += 1
        return tok


class _Parser:
    """Recursive descent; ^ binds tighter than unary minus, so -x^2
    means -(x^2)."""

    def __init__(self, text, variables):
        self.tok = _Tokenizer(text)
        self.variables = set(variables)

    def parse(self):
        e = self._expr()
        kind, _, off = self.tok.peek()
        if kind != "end":
            raise ExprSyntaxError("trailing input", off)
        return e

    def _expr(self):
        e = self._term()
        while True:
            kind, _, _ = self.tok.peek()
            if kind == "+":
                self.tok.next()
                e = Expr("add", args=(e, self._term()))
            elif kind == "-":
                self.tok.next()
                e = Expr("sub", args=(e, self._term()))
            else:
                return e

    def _term(self):
        e = self._factor()
        while True:
            kind, _, _ = self.tok.peek()
            if kind == "*":
                self.tok.next()
                e = Expr("mul", args=(e, self._factor()))
            elif kind == "/":
                self.tok.next()
                e = Expr("div", args=(e, self._factor()))
            else:
                return e

    def _factor(self):
        kind, _, _ = self.tok.peek()
        if kind == "-":
            self.tok.next()
            inner = self._factor()
            if inner.kind == "const":
                return const(-inner.value)
            return Expr("neg", args=(inner,))
        return self._power()

    def _power(self):
        base = self._atom()
        kind, _, _ = self.tok.peek()
        if kind != "^":
            return base
        self.tok.next()
        sign = 1
        kind, value, off = self.tok.next()
        if kind == "-":
            sign = -1
            kind, value, off = self.tok.next()
        if kind != "num" or value != int(value):
            raise ExprSyntaxError("exponent must be an integer constant", off)
        return Expr("pow", value=float(sign * int(value)), args=(base,))

    def _atom(self):
        kind, value, off = self.tok.next()
        if kind == "num":
            return const(value)
        if kind == "(":
            e = self._expr()
            k, _, o = self.tok.next()
            if k != ")":
                raise ExprSyntaxError("expected ')'", o)
            return e
        if kind == "ident":
            nxt_kind, _, _ = self.tok.peek()
            if nxt_kind == "(":
                if value not in FUNCTIONS:
                    raise UnknownIdentifierError(value, off)
                self.tok.next()
                arg = self._expr()
                k, _, o = self.tok.next()
                if k != ")":
                    raise ExprSyntaxError("expected ')'", o)
                return Expr(value, args=(arg,))
            if value not in self.variables:
                raise UnknownIdentifierError(value, off)
            return var(value)
        raise ExprSyntaxError("expected expression", off)


def parse(text, variables):
    """Parse expression text over the given iterable of variable names."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    try:
        return _Parser(text, variables).parse()
    except RecursionError:
        raise ExprSyntaxError("expression nests too deeply", 0) from None


def evaluate(expr, env):
    """Evaluate to a float under the variable binding env."""
    kind = expr.kind
    if kind == "const":
        return expr.value
    if kind == "var":
        try:
            return float(env[expr.name])
        except KeyError:
            raise EvalDomainError(f"unbound variable '{expr.name}'")
    if kind in ("add", "sub", "mul", "div"):
        a = evaluate(expr.args[0], env)
        b = evaluate(expr.args[1], env)
        if kind == "add":
            return a + b
        if kind == "sub":
            return a - b
        if kind == "mul":
            return a * b
        if b == 0.0:
            raise EvalDomainError("division by zero")
        return a / b
    if kind == "pow":
        base = evaluate(expr.args[0], env)
        n = int(expr.value)
        if base == 0.0 and n < 0:
            raise EvalDomainError("zero raised to a negative power")
        try:
            return base**n
        except OverflowError:
            raise EvalDomainError(f"overflow in {base}^{n}")
    a = evaluate(expr.args[0], env)
    if kind == "neg":
        return -a
    try:
        return _FUNCTION_TABLE[kind](a)
    except OverflowError:
        raise EvalDomainError(f"overflow in {kind}({a})")


def free_variables(expr):
    """Names of the variables in an expression or a nested list of them."""
    out = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, list):
            stack += node
            continue
        if node.kind == "var":
            out.add(node.name)
        stack.extend(node.args)
    return out


def _fold(expr, combine):
    """`combine(node, results for its operands)`, applied bottom-up.

    Walks post-order with an explicit stack, so depth is not limited,
    and combines each node once, so a shared subtree's result is shared.
    """
    done = {}  # id(node) -> its result
    stack = [expr]
    while stack:
        node = stack[-1]
        pending = [a for a in node.args if id(a) not in done]
        if pending:
            stack += pending
            continue
        stack.pop()
        if id(node) not in done:
            done[id(node)] = combine(node, [done[id(a)] for a in node.args])
    return done[id(expr)]


def substitute(expr, mapping):
    """`expr` with every variable named in `mapping` replaced by its Expr.

    A subtree without substituted variables is returned as is.
    """

    def rebuild(node, args):
        if node.kind == "var":
            return mapping.get(node.name, node)
        same = all(new is old for new, old in zip(args, node.args))
        return node if same else Expr(node.kind, node.value, node.name, tuple(args))

    return _fold(expr, rebuild)


def differentiate(expr, name):
    """Symbolic partial derivative d expr / d name.

    d|u|/dx is sign(u) * du/dx with sign(0) = 0, so the result is total.
    """
    return _fold(expr, lambda node, d_args: _derivative(node, d_args, name))


def _derivative(expr, d_args, name):
    """d expr / d name, given the derivatives `d_args` of its operands."""
    kind = expr.kind
    if kind in ("const", "sign"):
        return ZERO
    if kind == "var":
        return ONE if expr.name == name else ZERO
    if kind in ("add", "sub"):
        return add(*d_args) if kind == "add" else sub(*d_args)
    if kind == "mul":
        (a, b), (da, db) = expr.args, d_args
        return add(mul(da, b), mul(a, db))
    if kind == "div":
        (a, b), (da, db) = expr.args, d_args
        return div(sub(mul(da, b), mul(a, db)), pow_int(b, 2))
    (a,), (da,) = expr.args, d_args
    if kind == "pow":
        n = int(expr.value)
        return mul(mul(const(n), pow_int(a, n - 1)), da)
    if kind == "neg":
        return neg(da)
    if kind == "sin":
        return mul(func("cos", a), da)
    if kind == "cos":
        return neg(mul(func("sin", a), da))
    if kind == "exp":
        return mul(func("exp", a), da)
    if kind == "abs":
        return mul(func("sign", a), da)
    if kind == "sqrt":
        return div(da, mul(const(2.0), func("sqrt", a)))
    raise ValueError(f"unknown node kind '{kind}'")


_COMPILE_GLOBALS = {
    "__builtins__": {},
    "inf": math.inf,
    "nan": math.nan,
    "EvalDomainError": EvalDomainError,
    "ZeroDivisionError": ZeroDivisionError,
    "OverflowError": OverflowError,
    "FloatingPointError": FloatingPointError,
}

# The array back end's table: numpy ufuncs plus what its code calls.
_ARRAY_TABLE = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "abs": np.abs,
    "sqrt": np.sqrt,
    "sign": np.sign,
    "asarray": np.asarray,
    "float64": np.float64,
    "empty": np.empty,
}
# As a decorator, errstate sets and resets the state per call (and per
# thread); as a `with` block in the generated code it costs more.
_RAISE_ON_FP_ERRORS = np.errstate(divide="raise", over="raise", invalid="raise")

_TEMPLATES = {"add": "{0} + {1}", "sub": "{0} - {1}", "mul": "{0} * {1}",
              "div": "{0} / {1}", "pow": "{0} ** {n}", "neg": "-{0}"}


def _entries(item, index=()):
    """(index, Expr) of every expression in a nested list, row-major."""
    if isinstance(item, Expr):
        return [(index, item)]
    return [e for i, sub in enumerate(item) for e in _entries(sub, index + (i,))]


def _shape(item):
    return () if isinstance(item, Expr) else (len(item),) + _shape(item[0])


def _shaped(item, operands):
    if isinstance(item, Expr):
        return operands[id(item)]
    return "(" + "".join(f"{_shaped(sub, operands)}, " for sub in item) + ")"


def _straight_line(expr):
    """Assignments and operands of the straight-line code for `expr`.

    Returns (lines, operands): one `_k = ...` line per distinct subtree,
    children first, and the variable, literal or local that holds each
    node, keyed by id(node). Subtrees are shared by their right-hand-side
    text and by node identity.
    """
    operands = {}  # id(node) -> its variable, literal or local
    locals_ = {}   # right-hand side -> local; insertion order is children first
    stack = [e for _, e in _entries(expr)][::-1]
    while stack:
        node = stack.pop()
        if id(node) in operands:
            continue
        pending = [a for a in node.args if id(a) not in operands]
        if pending:
            stack += [node] + pending[::-1]
            continue
        if node.kind == "var":
            text = node.name
        elif node.kind == "const":
            text = repr(node.value)  # keeps -0.0 apart from 0.0
            text = f"({text})" if text.startswith("-") else text
        else:
            template = _TEMPLATES.get(node.kind, node.kind + "({0})")
            args = [operands[id(a)] for a in node.args]
            text = locals_.setdefault(template.format(*args, n=int(node.value)),
                                      f"_{len(locals_)}")
        operands[id(node)] = text
    return [f"{name} = {rhs}" for rhs, name in locals_.items()], operands


def _exec(src, table):
    namespace = {**_COMPILE_GLOBALS, **table}
    exec(src, namespace)  # noqa: S102 - generated from our own AST
    return namespace["fn"]


def compile_fn(expr, variables):
    """Compile an expression, or a nested list of them, to one function.

    The result takes one float per name in `variables` (in order) and
    returns a float for a single expression, or nested tuples of the
    list's shape. Its body is straight-line code with one assignment per
    distinct subtree, so a subtree shared between entries (or repeated
    within one) is computed once, and depth is not limited. On Python
    floats every entry matches `evaluate` bit-for-bit; an EvalDomainError
    in any entry raises for the whole result.
    """
    lines, operands = _straight_line(expr)
    src = (
        f"def fn({', '.join(variables)}):\n"
        f"    try:\n"
        + "".join(f"        {line}\n" for line in lines)
        + f"        return {_shaped(expr, operands)}\n"
        f"    except (ZeroDivisionError, OverflowError) as err:\n"
        f"        raise EvalDomainError(err) from None\n"
    )
    return _exec(src, _FUNCTION_TABLE)


def compile_array_fn(expr, variables):
    """The array back end: the straight-line code of `compile_fn` on numpy.

    The result takes one array of points, shape `(..., len(variables))`
    (a single point or a `(P, n)` stack), and returns one array of shape
    `(..., *shape)` for an expression or a nested list of that shape;
    constant entries are broadcast. It runs under an errstate that
    raises on division by zero, overflow and invalid operations, so an
    EvalDomainError in any entry at any point raises for the whole
    result. Entries agree with `compile_fn` to the last bits: numpy's
    power and exp are not libm's.
    """
    lines, operands = _straight_line(expr)
    src = (
        "def fn(_points):\n"
        "    _points = asarray(_points, dtype=float64)\n"
        + "".join(f"    {name} = _points[..., {i}]\n" for i, name in enumerate(variables))
        + "    try:\n"
        + "".join(f"        {line}\n" for line in lines)
        + f"        _out = empty(_points.shape[:-1] + {_shape(expr)!r})\n"
        + "".join(f"        _out[...{''.join(f', {i}' for i in index)}] = "
                  f"{operands[id(e)]}\n" for index, e in _entries(expr))
        + "        return _out\n"
        "    except (FloatingPointError, ZeroDivisionError, OverflowError) as err:\n"
        "        raise EvalDomainError(err) from None\n"
    )
    return _RAISE_ON_FP_ERRORS(_exec(src, _ARRAY_TABLE))


_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4}
_OPS = {"add": " + ", "sub": " - ", "mul": "*", "div": "/"}


def to_string(expr):
    """Pretty-print; output reparses to a structurally equal tree.

    Emits text left to right from an explicit stack of text pieces and
    (node, parent precedence) pairs, so depth is not limited.
    """
    out = []
    stack = [(expr, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, parent_prec = item
        kind = node.kind
        if kind == "const":
            out.append(repr(node.value) if node.value >= 0 else f"({node.value!r})")
        elif kind == "var":
            out.append(node.name)
        elif kind not in _PREC:  # function call
            stack += [")", (node.args[0], 0), kind + "("]
        else:
            prec = _PREC[kind]
            if kind == "neg":
                pieces = ["-", (node.args[0], prec - 1)]
            elif kind == "pow":
                pieces = [(node.args[0], prec), f"^{int(node.value)}"]
            else:
                # right operand needs full precedence to keep left associativity
                pieces = [(node.args[0], prec - 1), _OPS[kind], (node.args[1], prec)]
            if prec <= parent_prec:
                pieces = ["(", *pieces, ")"]
            stack += pieces[::-1]
    return "".join(out)

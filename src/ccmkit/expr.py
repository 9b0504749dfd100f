"""Scalar expression DSL: parsing, evaluation, symbolic differentiation.

Expressions over a declared variable table are used to define vector
fields, input matrices, metrics, feedforward inputs and gain entries in
configuration files.  Grammar (precedence high to low): ^ with an
integer exponent of magnitude at most 2^53, unary minus, * /, + -, over
ASCII digits and names.  Functions: sin, cos, exp, abs, sqrt (plus sign,
which only appears in derivatives of abs but is accepted by the parser
so printed derivatives round-trip).  `parse` is one loop over the token
list of `_tokens` with no depth limit.

`substitute`, `differentiate`, `degree`, `free_variables`, `to_string`
and the code generator are one post-order walk, `_fold`, which combines
each shared subtree once and has no depth limit; only `evaluate` (the
test reference) walks on its own. Expressions compile to
straight-line code: on numpy for one point or a stack of points in one
call (`compile_array_fn`, the program of every `model._Field`), and on
Python floats (`compile_fn`, bit-for-bit `evaluate`, its compiled oracle).
`compile_source` compiles other generated code around such a program (the
closed-loop run of `sim`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import count

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


class ExponentRangeError(ArithmeticError):
    """A power built with an exponent beyond 2^53 in magnitude, where a float
    exponent loses its parity (the derivative of x^-2^53 needs -2^53 - 1)."""


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
    if abs(n) > _MAX_EXPONENT:
        raise ExponentRangeError(f"exponent {n} exceeds 2^53 in magnitude")
    if n == 0:
        return ONE
    if n == 1:
        return a
    if _is_const(a):
        return const(a.value**n)
    return Expr("pow", value=float(n), args=(a,))


def func(name, a):
    return Expr(name, args=(a,))


def matvec(rows, point):
    """The products rows @ point as expressions, summed left to right."""
    return [reduce(add, [mul(entry, p) for entry, p in zip(row, point)]) for row in rows]


_DIGITS, _NAME_START = "0123456789", "_ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
_NUMBER_CHARS, _NAME_CHARS = _DIGITS + ".", _NAME_START + _DIGITS
_MAX_EXPONENT = 2**53  # beyond it a float exponent loses its parity


def _tokens(text):
    """The (kind, value, offset) tokens of `text`, then ("end", None, len(text));
    a number's value is its text. Digits and names are ASCII, so text means
    what it shows."""
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
                raise ExprSyntaxError(f"bad number '{text[i:j]}'", i) from None
            tokens.append(("num", text[i:j], i))
        elif c in _NAME_START:
            while j < n and text[j] in _NAME_CHARS:
                j += 1
            tokens.append(("ident", text[i:j], i))
        elif not c.isspace():
            raise ExprSyntaxError(f"unexpected character '{c}'", i)
        i = j
    return tokens + [("end", None, n)]


def _integer(literal):
    """The integer that a number literal with a finite float denotes exactly
    (not its float), or None if it denotes none."""
    mantissa, _, exponent = literal.lower().partition("e")
    whole, _, fraction = mantissa.partition(".")
    digits = (whole + fraction).rstrip("0")
    if not digits:
        return 0
    shift = int(exponent or 0) - len(fraction) + len(whole + fraction) - len(digits)
    return int(digits) * 10**shift if shift >= 0 else None  # a finite float bounds shift


# Binary operators: node kind and binding level; each level associates to the left.
_BINARY = {"+": ("add", 1), "-": ("sub", 1), "*": ("mul", 2), "/": ("div", 2)}


def _exponent(tokens):
    """The integer exponent after a ^, popped from `tokens`, as a float."""
    sign = 1
    kind, value, off = tokens.pop()
    if kind == "-":
        sign = -1
        kind, value, off = tokens.pop()
    exact = _integer(value) if kind == "num" and math.isfinite(float(value)) else None
    if exact is None:
        raise ExprSyntaxError("exponent must be an integer constant", off)
    if abs(exact) > _MAX_EXPONENT:
        raise ExprSyntaxError("exponent exceeds 2^53 in magnitude", off)
    return float(sign * exact)


def parse(text, variables):
    """Parse expression text over the given iterable of variable names.

    Reads the token list as a stack, next token last; an open group (a
    parenthesis or a call) saves its level's pending unary minuses, operands
    and operators on `groups`. ^ binds tighter than unary minus, so -x^2 is
    -(x^2); a unary minus on a literal folds into it. The end token always
    ends the loop, so it is never taken twice."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    variables, tokens = set(variables), _tokens(text)[::-1]
    groups, minuses, operands, operators = [], 0, [], []
    while True:
        kind, value, off = tokens.pop()  # an operand is due
        if kind == "-":
            minuses += 1
            continue
        call = kind == "ident" and tokens[-1][0] == "("
        if kind == "ident" and value not in (FUNCTIONS if call else variables):
            raise UnknownIdentifierError(value, off)
        if call:
            kind = tokens.pop()[0]
        if kind == "(":  # value is "(" or the function's name
            groups.append((minuses, operands, operators, value))
            minuses, operands, operators = 0, [], []
            continue
        if kind not in ("num", "ident"):
            raise ExprSyntaxError("expected expression", off)
        base = const(float(value)) if kind == "num" else var(value)
        while True:  # a base is done: its exponent, its minuses, then an operator
            if tokens[-1][0] == "^":
                tokens.pop()
                base = Expr("pow", value=_exponent(tokens), args=(base,))
            for _ in range(minuses):
                base = neg(base)
            operands.append(base)
            kind, value, off = tokens.pop()
            level = _BINARY[kind][1] if kind in _BINARY else 0
            while operators and _BINARY[operators[-1]][1] >= level:
                b = operands.pop()
                operands[-1] = Expr(_BINARY[operators.pop()][0], args=(operands[-1], b))
            if level:
                operators.append(kind)
                minuses = 0
                break
            if not groups:
                if kind != "end":
                    raise ExprSyntaxError("trailing input", off)
                return operands[0]
            if kind != ")":
                raise ExprSyntaxError("expected ')'", off)
            inner = operands[0]
            minuses, operands, operators, opener = groups.pop()
            base = inner if opener == "(" else Expr(opener, args=(inner,))


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
    names = set()
    _fold([e for _, e in _entries(expr)],
          lambda node, _: names.add(node.name) if node.kind == "var" else None)
    return names


def _fold(expr, combine):
    """`combine(node, results for its operands)`, applied bottom-up to an
    Expr or to each entry of a list (giving a list). Walks post-order with
    an explicit stack, so depth is not limited, first entry and first
    operand first, and combines each node once, so a shared subtree's
    result is shared, also between entries.
    """
    roots = expr if isinstance(expr, list) else [expr]
    done = {}  # id(node) -> its result
    stack = roots[::-1]
    while stack:
        node = stack[-1]
        pending = [a for a in node.args if id(a) not in done]
        if pending:
            stack += pending[::-1]
            continue
        stack.pop()
        if id(node) not in done:
            done[id(node)] = combine(node, [done[id(a)] for a in node.args])
    results = [done[id(root)] for root in roots]
    return results if isinstance(expr, list) else results[0]


def substitute(expr, mapping):
    """`expr` (or a list) with every variable named in `mapping` replaced by its Expr.

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


def degree(expr, names):
    """The polynomial degree of `expr` (or of each entry of a list) in the
    variables `names`, or `math.inf` when it is not a polynomial in them by
    these rules: a variable in `names` has degree 1 and a subtree of degree
    0 is constant in them; `add`/`sub`/`neg` take the max, `mul` the sum,
    `pow` by n >= 0 n times the degree, `div` by a free subtree keeps it.
    Anything else that depends on `names` (a negative power, a division by
    a dependent subtree, any function) has degree inf. It bounds the
    degree from above: x1 - x1 has degree 1."""
    names = set(names)
    return _fold(expr, lambda node, d_args: _degree(node, d_args, names))


def _degree(expr, d_args, names):
    """The degree of `expr`, given the degrees `d_args` of its operands."""
    kind = expr.kind
    if kind == "var":
        return int(expr.name in names)
    if not any(d_args):  # a constant, or a node of free operands
        return 0
    if kind in ("add", "sub", "neg"):
        return max(d_args)
    if kind == "mul":
        return sum(d_args)
    if kind == "div":
        return d_args[0] if d_args[1] == 0 else math.inf
    if kind == "pow" and expr.value >= 0:
        return d_args[0] * int(expr.value) if expr.value else 0
    return math.inf


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


def _shaped(item, texts):
    """The tuple display of `item`'s shape, taking entries from `texts` in order."""
    if isinstance(item, Expr):
        return next(texts)
    return "(" + "".join(f"{_shaped(sub, texts)}, " for sub in item) + ")"


def _straight_line(expr):
    """Assignments and operands of the straight-line code for `expr`.

    Returns (lines, texts, operands): line k is `_k = ...`, one per distinct
    right-hand side, children first and entry by entry (an entry's lines
    precede those first needed by a later entry); the variable, literal or
    local that holds each entry of `_entries(expr)`, in that order; and the
    operand texts that line k's right-hand side reads, as a tuple. Subtrees
    are shared by node identity and by right-hand-side text.
    """
    locals_ = {}  # right-hand side -> local; insertion order is children first
    operands = []

    def operand(node, args):
        if node.kind == "var":
            return node.name
        if node.kind == "const":
            text = repr(node.value)  # keeps -0.0 apart from 0.0
            return f"({text})" if text.startswith("-") else text
        rhs = _TEMPLATES.get(node.kind, node.kind + "({0})").format(*args, n=int(node.value))
        if rhs not in locals_:
            locals_[rhs] = f"_{len(locals_)}"
            operands.append(tuple(args))
        return locals_[rhs]

    texts = _fold([e for _, e in _entries(expr)], operand)
    return [f"{name} = {rhs}" for rhs, name in locals_.items()], texts, operands


_FN_IDS = count(1)


def _exec(src, table):
    # a file name of its own per function keeps profiler entries apart
    code = compile(src, f"<ccmkit fn {next(_FN_IDS)}>", "exec")
    namespace = {**_COMPILE_GLOBALS, **table}
    exec(code, namespace)  # noqa: S102 - generated from our own AST
    return namespace["fn"]


def compile_source(src, names):
    """The function `fn` that the generated source `src` defines, with the
    functions of `compile_fn` and the mapping `names` in scope."""
    return _exec(src, {**_FUNCTION_TABLE, **names})


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
    lines, texts, _ = _straight_line(expr)
    src = (
        f"def fn({', '.join(variables)}):\n"
        f"    try:\n"
        + "".join(f"        {line}\n" for line in lines)
        + f"        return {_shaped(expr, iter(texts))}\n"
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
    lines, texts, _ = _straight_line(expr)
    src = (
        "def fn(_points):\n"
        "    _points = asarray(_points, dtype=float64)\n"
        + "".join(f"    {name} = _points[..., {i}]\n" for i, name in enumerate(variables))
        + "    try:\n"
        + "".join(f"        {line}\n" for line in lines)
        + f"        _out = empty(_points.shape[:-1] + {_shape(expr)!r})\n"
        + "".join(f"        _out[...{''.join(f', {i}' for i in index)}] = {text}\n"
                  for (index, _), text in zip(_entries(expr), texts))
        + "        return _out\n"
        "    except (FloatingPointError, ZeroDivisionError, OverflowError) as err:\n"
        "        raise EvalDomainError(err) from None\n"
    )
    return _RAISE_ON_FP_ERRORS(_exec(src, _ARRAY_TABLE))


_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4}
_OPS = {"add": " + ", "sub": " - ", "mul": "*", "div": "/"}


def to_string(expr):
    """Pretty-print; output reparses to a structurally equal tree.

    `_fold` gives each node its precedence and a nested tuple of text
    pieces; one explicit-stack join flattens the root's, so depth is not
    limited and the output is linear in its length.
    """
    out, stack = [], [_fold(expr, _text)[1]]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        else:
            stack += item[::-1]
    return "".join(out)


def _text(node, args):
    """(precedence, text pieces) of `node`, given those of its operands;
    constants, variables and calls bind tightest (inf)."""
    kind = node.kind
    if kind == "const":
        return math.inf, repr(node.value) if node.value >= 0 else f"({node.value!r})"
    if kind == "var":
        return math.inf, node.name
    if kind not in _PREC:  # function call
        return math.inf, (kind + "(", args[0][1], ")")
    prec = _PREC[kind]
    if kind == "neg":
        return prec, ("-", _operand(args[0], prec - 1))
    if kind == "pow":
        return prec, (_operand(args[0], prec), f"^{int(node.value)}")
    # right operand needs full precedence to keep left associativity
    return prec, (_operand(args[0], prec - 1), _OPS[kind], _operand(args[1], prec))


def _operand(arg, bound):
    """An operand's pieces, in parentheses unless it binds tighter than `bound`."""
    prec, pieces = arg
    return pieces if prec > bound else ("(", pieces, ")")

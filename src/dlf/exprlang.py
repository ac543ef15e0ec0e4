"""A tiny arithmetic expression language: parse, evaluate, differentiate.

The language covers exactly what residuals, boundary data, and map
definitions need: real literals, the constants ``pi`` and ``e``, named
variables (including derivative symbols such as ``du``, ``d2u`` and
multi-index names like ``u_2,0``), the binary operators ``+ - * / ^``
(with ``^`` right-associative and binding tighter than unary minus), and
single-argument calls of ``sin cos exp ln sqrt abs tanh``.

Expressions are immutable trees; parsing, printing, and structural
equality are mutually consistent, so ``parse_expr(format_expr(t)) == t``
for any tree ``t`` produced by :func:`parse_expr` or :func:`diff_expr`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ExprDiffError, ExprEvalError, ExprSyntaxError

__all__ = [
    "Expr",
    "Num",
    "Const",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "parse_expr",
    "eval_expr",
    "diff_expr",
    "format_expr",
    "expr_variables",
]

FUNCTIONS = ("sin", "cos", "exp", "ln", "sqrt", "abs", "tanh")
CONSTANTS = {"pi": np.pi, "e": np.e}


@dataclass(frozen=True)
class Expr:
    """Base class for expression nodes."""

    def __str__(self) -> str:
        return format_expr(self)


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Const(Expr):
    name: str


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr


# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------

_NUMBER = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")
# Multi-index derivative symbols use underscore-comma syntax, e.g. u_2,0.
_MULTI_INDEX = re.compile(r"[A-Za-z_][A-Za-z0-9_]*_\d+(?:,\d+)+")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class _Token:
    kind: str  # num | name | op | lparen | rparen | end
    text: str
    offset: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    pos = 0
    n = len(src)
    while pos < n:
        ch = src[pos]
        if ch.isspace():
            pos += 1
            continue
        m = _NUMBER.match(src, pos)
        if m:
            tokens.append(_Token("num", m.group(), pos))
            pos = m.end()
            continue
        m = _MULTI_INDEX.match(src, pos) or _IDENT.match(src, pos)
        if m:
            tokens.append(_Token("name", m.group(), pos))
            pos = m.end()
            continue
        if ch in "+-*/^":
            tokens.append(_Token("op", ch, pos))
            pos += 1
            continue
        if ch == "(":
            tokens.append(_Token("lparen", ch, pos))
            pos += 1
            continue
        if ch == ")":
            tokens.append(_Token("rparen", ch, pos))
            pos += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", pos)
    tokens.append(_Token("end", "", n))
    return tokens


# ---------------------------------------------------------------------------
# recursive-descent parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(f"expected {what}", tok.offset)
        return self.advance()

    def parse(self) -> Expr:
        expr = self.sum_expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected {tok.text!r}", tok.offset)
        return expr

    def sum_expr(self) -> Expr:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            inner = self.unary()
            if isinstance(inner, Num):
                return Num(-inner.value)
            return Neg(inner)
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            # right-associative; the exponent may carry its own sign
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "name":
            self.advance()
            if self.peek().kind == "lparen":
                if tok.text not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {tok.text!r}", tok.offset)
                self.advance()
                arg = self.sum_expr()
                self.expect("rparen", "')'")
                return Call(tok.text, arg)
            if tok.text in CONSTANTS:
                return Const(tok.text)
            return Var(tok.text)
        if tok.kind == "lparen":
            self.advance()
            inner = self.sum_expr()
            self.expect("rparen", "')'")
            return inner
        if tok.kind == "end":
            raise ExprSyntaxError("unexpected end of input", tok.offset)
        raise ExprSyntaxError(f"unexpected {tok.text!r}", tok.offset)


def parse_expr(src: str) -> Expr:
    """Parse source text into an expression tree.

    Raises :class:`ExprSyntaxError` (with the byte offset of the failure)
    for malformed input or calls of unknown functions.
    """
    if not isinstance(src, str):
        raise ExprSyntaxError("expression source must be a string", 0)
    return _Parser(src).parse()


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

_NUMPY_FN = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "ln": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "tanh": np.tanh,
}


def _is_real_scalar(v) -> bool:
    return np.isscalar(v) and not isinstance(v, (complex, np.complexfloating))


def eval_expr(expr: Expr, env: dict | None = None):
    """Evaluate an expression under a variable binding.

    ``env`` maps variable names to numbers (or numpy arrays, which are
    handled elementwise).  Real scalar evaluation raises
    :class:`ExprEvalError` on domain failures such as ``ln`` of a
    non-positive number or division by zero; array and complex evaluation
    raise if the result is not finite.
    """
    env = env or {}
    result = _eval(expr, env)
    if not _is_real_scalar(result):
        with np.errstate(all="ignore"):
            bad = not np.all(np.isfinite(result))
        if bad:
            raise ExprEvalError(f"non-finite result evaluating {format_expr(expr)!r}")
    return result


def _eval(expr: Expr, env: dict):
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Const):
        return CONSTANTS[expr.name]
    if isinstance(expr, Var):
        try:
            return env[expr.name]
        except KeyError:
            raise ExprEvalError(f"unbound variable {expr.name!r}") from None
    if isinstance(expr, Neg):
        return -_eval(expr.operand, env)
    if isinstance(expr, BinOp):
        left = _eval(expr.left, env)
        right = _eval(expr.right, env)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "/":
            if _is_real_scalar(right) and right == 0:
                raise ExprEvalError("division by zero")
            with np.errstate(all="ignore"):
                return left / right
        if expr.op == "^":
            if _is_real_scalar(left) and _is_real_scalar(right):
                if left == 0 and right < 0:
                    raise ExprEvalError("zero raised to a negative power")
                if left < 0 and right != int(right):
                    raise ExprEvalError(
                        "negative base with non-integer exponent"
                    )
            with np.errstate(all="ignore"):
                return left ** right
        raise ExprEvalError(f"unknown operator {expr.op!r}")
    if isinstance(expr, Call):
        arg = _eval(expr.arg, env)
        if _is_real_scalar(arg):
            if expr.fn == "ln" and arg <= 0:
                raise ExprEvalError(f"ln of non-positive value {arg!r}")
            if expr.fn == "sqrt" and arg < 0:
                raise ExprEvalError(f"sqrt of negative value {arg!r}")
        return _NUMPY_FN[expr.fn](arg)
    raise ExprEvalError(f"cannot evaluate node {expr!r}")


# ---------------------------------------------------------------------------
# differentiation with light simplification
# ---------------------------------------------------------------------------


def _num(v: float) -> Num:
    return Num(float(v))


_ZERO = Num(0.0)
_ONE = Num(1.0)


def _is_num(e: Expr, v: float | None = None) -> bool:
    return isinstance(e, Num) and (v is None or e.value == v)


def _add(a: Expr, b: Expr) -> Expr:
    if _is_num(a) and _is_num(b):
        return _num(a.value + b.value)
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    return BinOp("+", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_num(a) and _is_num(b):
        return _num(a.value - b.value)
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return _neg(b)
    return BinOp("-", a, b)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Num):
        return _num(-a.value)
    if isinstance(a, Neg):
        return a.operand
    return Neg(a)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_num(a) and _is_num(b):
        return _num(a.value * b.value)
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return _ZERO
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    # fold numeric prefactors: c1 * (c2 * rest) -> (c1*c2) * rest
    if _is_num(a) and isinstance(b, BinOp) and b.op == "*" and _is_num(b.left):
        return _mul(_num(a.value * b.left.value), b.right)
    if _is_num(b):
        return _mul(b, a)
    return BinOp("*", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_num(b, 1.0):
        return a
    if _is_num(a, 0.0):
        return _ZERO
    if _is_num(a) and _is_num(b) and b.value != 0:
        return _num(a.value / b.value)
    return BinOp("/", a, b)


def _pow(a: Expr, b: Expr) -> Expr:
    if _is_num(b, 1.0):
        return a
    if _is_num(b, 0.0):
        return _ONE
    if _is_num(a) and _is_num(b):
        return _num(a.value ** b.value)
    return BinOp("^", a, b)


def _d(expr: Expr, var: str) -> Expr:
    if isinstance(expr, (Num, Const)):
        return _ZERO
    if isinstance(expr, Var):
        return _ONE if expr.name == var else _ZERO
    if isinstance(expr, Neg):
        return _neg(_d(expr.operand, var))
    if isinstance(expr, BinOp):
        f, g = expr.left, expr.right
        df, dg = _d(f, var), _d(g, var)
        if expr.op == "+":
            return _add(df, dg)
        if expr.op == "-":
            return _sub(df, dg)
        if expr.op == "*":
            return _add(_mul(df, g), _mul(f, dg))
        if expr.op == "/":
            return _div(_sub(_mul(df, g), _mul(f, dg)), _pow(g, _num(2)))
        if expr.op == "^":
            if _is_num(dg, 0.0):
                # constant exponent: power rule
                return _mul(_mul(g, _pow(f, _sub(g, _ONE))), df)
            # general case via f^g = exp(g ln f)
            return _mul(
                _pow(f, g),
                _add(_mul(dg, Call("ln", f)), _div(_mul(g, df), f)),
            )
    if isinstance(expr, Call):
        a = expr.arg
        da = _d(a, var)
        if _is_num(da, 0.0):
            # constant in var, so abs of an argument free of var is fine too
            return _ZERO
        if expr.fn == "sin":
            return _mul(Call("cos", a), da)
        if expr.fn == "cos":
            return _mul(_neg(Call("sin", a)), da)
        if expr.fn == "exp":
            return _mul(Call("exp", a), da)
        if expr.fn == "ln":
            return _div(da, a)
        if expr.fn == "sqrt":
            return _div(da, _mul(_num(2), Call("sqrt", a)))
        if expr.fn == "tanh":
            return _mul(_sub(_ONE, _pow(Call("tanh", a), _num(2))), da)
        if expr.fn == "abs":
            raise ExprDiffError("abs is not differentiable")
    raise ExprDiffError(f"no derivative rule for node {expr!r}")


def diff_expr(expr: Expr, var: str, order: int = 1) -> Expr:
    """Differentiate ``expr`` with respect to ``var``, ``order`` times.

    Other variables are held constant.  The result is lightly simplified
    (constant folding, elimination of zero and one factors).
    """
    if order < 0 or order != int(order):
        raise ExprDiffError(f"derivative order must be a non-negative integer, got {order}")
    out = expr
    for _ in range(int(order)):
        out = _d(out, var)
    return out


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

_PREC = {"+": 10, "-": 10, "*": 20, "/": 20, "neg": 25, "^": 30}


def _prec(expr: Expr) -> int:
    if isinstance(expr, BinOp):
        return _PREC[expr.op]
    if isinstance(expr, Neg):
        return _PREC["neg"]
    return 100


def _fmt(expr: Expr, *, is_child: bool = False) -> str:
    if isinstance(expr, Num):
        text = repr(expr.value)
        if expr.value < 0 and is_child:
            return f"({text})"
        return text
    if isinstance(expr, Const):
        return expr.name
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Call):
        return f"{expr.fn}({_fmt(expr.arg)})"
    if isinstance(expr, Neg):
        inner = _fmt(expr.operand, is_child=True)
        if _prec(expr.operand) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(expr, BinOp):
        p = _PREC[expr.op]
        left = _fmt(expr.left, is_child=True)
        right = _fmt(expr.right, is_child=True)
        if expr.op == "^":
            # right-associative: parenthesize a left child of equal precedence
            if _prec(expr.left) <= p:
                left = f"({left})"
            if _prec(expr.right) < p:
                right = f"({right})"
            return f"{left}^{right}"
        # left-associative: parenthesize a right child of equal precedence
        if _prec(expr.left) < p:
            left = f"({left})"
        if _prec(expr.right) <= p:
            right = f"({right})"
        return f"{left} {expr.op} {right}"
    raise ExprEvalError(f"cannot format node {expr!r}")


def format_expr(expr: Expr) -> str:
    """Render an expression as parseable text (inverse of :func:`parse_expr`)."""
    return _fmt(expr)


def expr_variables(expr: Expr) -> set[str]:
    """The set of variable names referenced by an expression."""
    if isinstance(expr, Var):
        return {expr.name}
    if isinstance(expr, Neg):
        return expr_variables(expr.operand)
    if isinstance(expr, BinOp):
        return expr_variables(expr.left) | expr_variables(expr.right)
    if isinstance(expr, Call):
        return expr_variables(expr.arg)
    return set()

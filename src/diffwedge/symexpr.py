"""Closed-form expressions in one real variable.

Coefficient functions everywhere in this package are expressions in a
single chart coordinate ``x``, built from rational constants, the four
arithmetic operations, integer powers, and exp/sin/cos.  They evaluate
exactly (as ``Fraction``) whenever no transcendental node is involved
and the input is rational, and they are closed under differentiation.
"""

from __future__ import annotations

import math
from fractions import Fraction


class Expr:
    """Base class for expression nodes.

    Nodes are immutable; operators build new trees.  Python numbers are
    coerced to constant nodes.
    """

    def __add__(self, other):
        return Add(self, _coerce(other))

    def __radd__(self, other):
        return Add(_coerce(other), self)

    def __sub__(self, other):
        return Add(self, Neg(_coerce(other)))

    def __rsub__(self, other):
        return Add(_coerce(other), Neg(self))

    def __mul__(self, other):
        return Mul(self, _coerce(other))

    def __rmul__(self, other):
        return Mul(_coerce(other), self)

    def __truediv__(self, other):
        return Div(self, _coerce(other))

    def __rtruediv__(self, other):
        return Div(_coerce(other), self)

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        return Pow(self, k)

    def __neg__(self):
        return Neg(self)

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(repr, self.children))})"

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and getattr(self, "value", None) == getattr(other, "value", None)
            and getattr(self, "exponent", None) == getattr(other, "exponent", None)
            and self.children == other.children
        )

    def __hash__(self):
        return hash((type(self), getattr(self, "value", None),
                     getattr(self, "exponent", None), self.children))

    children: tuple = ()


def _coerce(v):
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, Fraction)):
        return Const(Fraction(v))
    if isinstance(v, float):
        return Const(Fraction(v).limit_denominator(10**12))
    raise TypeError(f"cannot use {type(v).__name__} as an expression")


class Const(Expr):
    def __init__(self, value):
        self.value = Fraction(value)

    def __repr__(self):
        return f"Const({self.value})"


class Var(Expr):
    def __repr__(self):
        return "Var()"


class Neg(Expr):
    def __init__(self, a):
        self.children = (a,)


class Add(Expr):
    def __init__(self, a, b):
        self.children = (a, b)


class Mul(Expr):
    def __init__(self, a, b):
        self.children = (a, b)


class Div(Expr):
    def __init__(self, a, b):
        self.children = (a, b)


class Pow(Expr):
    def __init__(self, a, exponent):
        self.children = (a,)
        self.exponent = int(exponent)


class Exp(Expr):
    def __init__(self, a):
        self.children = (a,)


class Sin(Expr):
    def __init__(self, a):
        self.children = (a,)


class Cos(Expr):
    def __init__(self, a):
        self.children = (a,)


X = Var()
ZERO = Const(0)
ONE = Const(1)

_FUNCTIONS = {"exp": Exp, "sin": Sin, "cos": Cos}


class ExprSyntaxError(ValueError):
    """Raised on malformed input; carries the 1-based column."""

    def __init__(self, message, column):
        super().__init__(f"{message} (column {column})")
        self.column = column


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append((ch, i))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                seen_dot = seen_dot or text[j] == "."
                j += 1
            tokens.append(("num", i, text[i:j]))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", i, text[i:j]))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i + 1)
    tokens.append(("end", n))
    return tokens


class _Parser:
    """Recursive-descent parser; +,- < *,/ < unary - < ^."""

    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ExprSyntaxError(message, tok[1] + 1)

    def parse(self):
        e = self.sum()
        if self.peek()[0] != "end":
            self.error(f"unexpected {self.peek()[0]!r}")
        return e

    def sum(self):
        e = self.term()
        while self.peek()[0] in "+-":
            op = self.next()[0]
            rhs = self.term()
            e = Add(e, rhs) if op == "+" else Add(e, Neg(rhs))
        return e

    def term(self):
        e = self.unary()
        while self.peek()[0] in "*/":
            op = self.next()[0]
            rhs = self.unary()
            e = Mul(e, rhs) if op == "*" else Div(e, rhs)
        return e

    def unary(self):
        if self.peek()[0] == "-":
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.next()
            sign = 1
            if self.peek()[0] == "-":
                self.next()
                sign = -1
            tok = self.peek()
            if tok[0] != "num" or "." in tok[2]:
                self.error("exponent must be an integer")
            self.next()
            base = Pow(base, sign * int(tok[2]))
        return base

    def atom(self):
        tok = self.next()
        kind = tok[0]
        if kind == "num":
            text = tok[2]
            if "." in text:
                whole, frac = text.split(".")
                value = Fraction(int(whole or 0)) + Fraction(int(frac or 0), 10 ** len(frac))
            else:
                value = Fraction(int(text))
            return Const(value)
        if kind == "name":
            name = tok[2]
            if name == "x":
                return Var()
            if name in _FUNCTIONS:
                if self.peek()[0] != "(":
                    self.error(f"{name} must be followed by '('")
                self.next()
                arg = self.sum()
                if self.peek()[0] != ")":
                    self.error("expected ')'")
                self.next()
                return _FUNCTIONS[name](arg)
            self.error(f"unknown identifier {name!r}", tok)
        if kind == "(":
            e = self.sum()
            if self.peek()[0] != ")":
                self.error("expected ')'")
            self.next()
            return e
        self.error(f"unexpected {kind!r}", tok)


def parse_expr(text):
    """Parse ``text`` into an expression tree."""
    return _Parser(text).parse()


def evaluate(e, x):
    """Evaluate ``e`` at the point ``x``.

    Returns a ``Fraction`` when the result is exact (rational input, no
    transcendental nodes on the evaluated path), otherwise a float.
    """
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return Fraction(x) if isinstance(x, (int, Fraction)) else x
    if isinstance(e, Neg):
        return -evaluate(e.children[0], x)
    if isinstance(e, Add):
        return evaluate(e.children[0], x) + evaluate(e.children[1], x)
    if isinstance(e, Mul):
        return evaluate(e.children[0], x) * evaluate(e.children[1], x)
    if isinstance(e, Div):
        num = evaluate(e.children[0], x)
        den = evaluate(e.children[1], x)
        if den == 0:
            raise ZeroDivisionError(f"division by zero at x={x}")
        return num / den
    if isinstance(e, Pow):
        base = evaluate(e.children[0], x)
        if e.exponent < 0 and base == 0:
            raise ZeroDivisionError(f"zero raised to {e.exponent} at x={x}")
        return base ** e.exponent
    arg = evaluate(e.children[0], x)
    if isinstance(e, Exp):
        return math.exp(arg)
    if isinstance(e, Sin):
        return math.sin(arg)
    if isinstance(e, Cos):
        return math.cos(arg)
    raise TypeError(f"not an expression node: {e!r}")


def max_residual(pairs, points):
    """Worst sampled residual of the identities ``lhs = rhs`` in ``pairs``.

    The residual at x is ``float(abs(lhs(x) - rhs(x)))``.  Returns
    (worst, x) with x the first point whose residual exceeds every
    earlier one; x is None while every residual is 0.
    """
    worst, at = 0.0, None
    for lhs, rhs in pairs:
        for x in points:
            r = float(abs(evaluate(lhs, x) - evaluate(rhs, x)))
            if r > worst:
                worst, at = r, x
    return worst, at


def differentiate(e):
    """Symbolic d/dx; the result is again an expression tree."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE
    if isinstance(e, Neg):
        return simplify(Neg(differentiate(e.children[0])))
    if isinstance(e, Add):
        a, b = e.children
        return simplify(Add(differentiate(a), differentiate(b)))
    if isinstance(e, Mul):
        a, b = e.children
        return simplify(Add(Mul(differentiate(a), b), Mul(a, differentiate(b))))
    if isinstance(e, Div):
        a, b = e.children
        num = Add(Mul(differentiate(a), b), Neg(Mul(a, differentiate(b))))
        return simplify(Div(num, Pow(b, 2)))
    if isinstance(e, Pow):
        a = e.children[0]
        k = e.exponent
        if k == 0:
            return ZERO
        return simplify(Mul(Mul(Const(k), Pow(a, k - 1)), differentiate(a)))
    arg = e.children[0]
    darg = differentiate(arg)
    if isinstance(e, Exp):
        return simplify(Mul(Exp(arg), darg))
    if isinstance(e, Sin):
        return simplify(Mul(Cos(arg), darg))
    if isinstance(e, Cos):
        return simplify(Neg(Mul(Sin(arg), darg)))
    raise TypeError(f"not an expression node: {e!r}")


def simplify(e):
    """Best-effort cleanup: constant folding plus 0/1 identities only."""
    if isinstance(e, (Const, Var)):
        return e
    kids = [simplify(c) for c in e.children]
    if isinstance(e, Neg):
        (a,) = kids
        if isinstance(a, Const):
            return Const(-a.value)
        if isinstance(a, Neg):
            return a.children[0]
        return Neg(a)
    if isinstance(e, Add):
        a, b = kids
        if isinstance(a, Const) and isinstance(b, Const):
            return Const(a.value + b.value)
        if isinstance(a, Const) and a.value == 0:
            return b
        if isinstance(b, Const) and b.value == 0:
            return a
        return Add(a, b)
    if isinstance(e, Mul):
        a, b = kids
        if isinstance(a, Const) and isinstance(b, Const):
            return Const(a.value * b.value)
        if (isinstance(a, Const) and a.value == 0) or (isinstance(b, Const) and b.value == 0):
            return ZERO
        if isinstance(a, Const) and a.value == 1:
            return b
        if isinstance(b, Const) and b.value == 1:
            return a
        return Mul(a, b)
    if isinstance(e, Div):
        a, b = kids
        if isinstance(b, Const) and b.value == 1:
            return a
        if isinstance(a, Const) and isinstance(b, Const) and b.value != 0:
            return Const(a.value / b.value)
        if isinstance(a, Const) and a.value == 0 and not isinstance(b, Const):
            return ZERO
        return Div(a, b)
    if isinstance(e, Pow):
        (a,) = kids
        if e.exponent == 1:
            return a
        if e.exponent == 0:
            return ONE
        if isinstance(a, Const):
            if a.value == 0 and e.exponent < 0:
                return Pow(a, e.exponent)
            return Const(a.value ** e.exponent)
        return Pow(a, e.exponent)
    (a,) = kids
    return type(e)(a)


def to_str(e, parent_prec=0):
    """Print with standard precedence; parse(to_str(e)) evaluates like e."""
    if isinstance(e, Const):
        v = e.value
        s = str(v.numerator) if v.denominator == 1 else f"({v.numerator}/{v.denominator})"
        if v < 0 and parent_prec >= 2 and v.denominator == 1:
            return f"({s})"
        return s
    if isinstance(e, Var):
        return "x"
    if isinstance(e, Neg):
        s = f"-{to_str(e.children[0], 3)}"
        return f"({s})" if parent_prec >= 3 else s
    if isinstance(e, Add):
        s = f"{to_str(e.children[0], 1)}+{to_str(e.children[1], 1)}"
        return f"({s})" if parent_prec > 1 else s
    if isinstance(e, Mul):
        s = f"{to_str(e.children[0], 2)}*{to_str(e.children[1], 2)}"
        return f"({s})" if parent_prec > 2 else s
    if isinstance(e, Div):
        s = f"{to_str(e.children[0], 2)}/{to_str(e.children[1], 3)}"
        return f"({s})" if parent_prec > 2 else s
    if isinstance(e, Pow):
        k = e.exponent
        exp_s = str(k)
        return f"{to_str(e.children[0], 4)}^{exp_s}"
    name = {Exp: "exp", Sin: "sin", Cos: "cos"}[type(e)]
    return f"{name}({to_str(e.children[0])})"

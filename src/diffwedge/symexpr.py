"""Closed-form expressions in one real variable.

Coefficient functions everywhere in this package are expressions in a
single chart coordinate ``x``, built from rational constants, the four
arithmetic operations, integer powers, and exp/sin/cos.  They evaluate
exactly (as ``Fraction``) whenever no transcendental node is involved
and the input is rational, and they are closed under differentiation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd


class Expr:
    """Base class for expression nodes.

    Nodes are immutable; operators build new trees.  Python numbers are
    coerced to constant nodes.

    A node caches what is derived from it: its simplified form and its
    derivative.  The caches hold only nodes built from the node's own
    subtrees, never the node itself, so caching creates no reference
    cycle.  A compiled tape lives for one ``evaluate_all`` or
    ``max_residuals`` call and is stored on no node.
    """

    __slots__ = ("children", "_simple", "_deriv")

    def __init__(self, *children):
        self.children = children
        # _simple: None, True (this node is simplified) or its simplified form
        self._simple = self._deriv = None

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


def _coerce(v):
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, Fraction)):
        return Const(Fraction(v))
    raise TypeError(f"cannot use {type(v).__name__} as an expression")


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        Expr.__init__(self)
        self.value = value if type(value) is Fraction else Fraction(value)

    def __repr__(self):
        return f"Const({self.value})"


class Var(Expr):
    __slots__ = ()

    def __repr__(self):
        return "Var()"


class Neg(Expr):
    __slots__ = ()


class Add(Expr):
    __slots__ = ()


class Mul(Expr):
    __slots__ = ()


class Div(Expr):
    __slots__ = ()


class Pow(Expr):
    __slots__ = ("exponent",)

    def __init__(self, a, exponent):
        Expr.__init__(self, a)
        self.exponent = int(exponent)


class Exp(Expr):
    __slots__ = ()


class Sin(Expr):
    __slots__ = ()


class Cos(Expr):
    __slots__ = ()


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


# Deepest expression parse_expr accepts, both as tree depth and as nesting
# of parentheses and function calls.  Parsing spends six stack frames per
# nested group and evaluate/simplify/differentiate/to_str one per tree
# level; derivatives are a few times deeper than their input.  All of this
# stays well under Python's default recursion limit of 1000.
MAX_DEPTH = 100


class _Parser:
    """Recursive-descent parser; +,- < *,/ < unary - < ^.

    Each parsing method returns (expression, tree depth).
    """

    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.groups = 0     # open parentheses and function calls

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ExprSyntaxError(message, tok[1] + 1)

    def deeper(self, depth, tok):
        """Depth of a node at ``tok`` over a child of ``depth``, bounded."""
        if depth >= MAX_DEPTH:
            self.error(f"expression nested deeper than {MAX_DEPTH} levels", tok)
        return depth + 1

    def group(self, tok):
        """The sum inside a group opened at ``tok``, up to its ')'."""
        self.groups += 1
        if self.groups > MAX_DEPTH:
            self.error(f"expression nested deeper than {MAX_DEPTH} levels", tok)
        e, d = self.sum()
        if self.peek()[0] != ")":
            self.error("expected ')'")
        self.next()
        self.groups -= 1
        return e, d

    def parse(self):
        e, _ = self.sum()
        if self.peek()[0] != "end":
            self.error(f"unexpected {self.peek()[0]!r}")
        return e

    def sum(self):
        e, d = self.term()
        while self.peek()[0] in "+-":
            tok = self.next()
            rhs, dr = self.term()
            if tok[0] == "-":
                rhs, dr = Neg(rhs), self.deeper(dr, tok)
            e, d = Add(e, rhs), self.deeper(max(d, dr), tok)
        return e, d

    def term(self):
        e, d = self.unary()
        while self.peek()[0] in "*/":
            tok = self.next()
            rhs, dr = self.unary()
            e = Mul(e, rhs) if tok[0] == "*" else Div(e, rhs)
            d = self.deeper(max(d, dr), tok)
        return e, d

    def unary(self):
        signs = []
        while self.peek()[0] == "-":
            signs.append(self.next())
        e, d = self.power()
        for tok in reversed(signs):
            e, d = Neg(e), self.deeper(d, tok)
        return e, d

    def power(self):
        base, d = self.atom()
        if self.peek()[0] == "^":
            caret = self.next()
            sign = 1
            if self.peek()[0] == "-":
                self.next()
                sign = -1
            tok = self.peek()
            if tok[0] != "num" or "." in tok[2]:
                self.error("exponent must be an integer")
            self.next()
            base, d = Pow(base, sign * int(tok[2])), self.deeper(d, caret)
        return base, d

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
            return Const(value), 1
        if kind == "name":
            name = tok[2]
            if name == "x":
                return Var(), 1
            if name in _FUNCTIONS:
                if self.peek()[0] != "(":
                    self.error(f"{name} must be followed by '('")
                arg, d = self.group(self.next())
                return _FUNCTIONS[name](arg), self.deeper(d, tok)
            self.error(f"unknown identifier {name!r}", tok)
        if kind == "(":
            return self.group(tok)
        self.error(f"unexpected {kind!r}", tok)


def parse_expr(text):
    """Parse ``text`` into an expression tree.

    Raises ExprSyntaxError on malformed text and on a tree or a nesting of
    groups deeper than MAX_DEPTH.
    """
    return _Parser(text).parse()


def evaluate(e, x):
    """Evaluate ``e`` at the point ``x``.

    Returns a ``Fraction`` when the result is exact (rational input, no
    transcendental nodes on the evaluated path), otherwise a float.

    Exact values are carried as unreduced ``(numerator, denominator)``
    pairs of ints, and one ``Fraction`` is built from the result.  A pair
    meets a float the way a ``Fraction`` does, as ``n / d``, so float
    results equal those of ``Fraction`` arithmetic to the bit.

    The tree is walked once, computing each subtree object once.  To
    evaluate many expressions at many points, ``evaluate_all`` compiles
    them into one tape.
    """
    try:
        v = _walk(e, _value(x), {})
    except ArithmeticError as exc:      # a zero divisor or a float overflow
        raise type(exc)(f"{exc} at x={x}") from None
    return Fraction(*v) if type(v) is tuple else v


def evaluate_all(exprs, xs):
    """``[[evaluate(e, x) for e in exprs] for x in xs]``, each value of the
    same type and, for a float, the same bits.

    ``exprs`` are compiled into one tape, which runs once per point, so a
    subtree shared by any of them is computed once per point; the tape is
    stored on no node.  At the first point where some expression raises,
    an ``ArithmeticError`` of the type ``evaluate`` would raise for one of
    them names the point.
    """
    return [[Fraction(*a) if type(a) is tuple else a for a in v]
            for v in _runs(exprs, xs)]


# Values: an exact value is a pair (n, d) of ints with d != 0, neither
# reduced nor sign-normalised; any other value is a float.  Each operation
# takes two arguments: a unary one ignores its second, and a power's second
# is its int exponent.  A zero divisor or a float overflow raises without
# the point, which evaluate and max_residuals append.

def _float(a):
    """A value as a float, as ``Fraction.__float__`` converts: n / d.

    A zero over a negative d gives 0.0, not the -0.0 of 0 / d, as the
    normalised ``Fraction`` would.
    """
    if type(a) is tuple:
        return a[0] / a[1] if a[0] else 0.0
    return a


def _neg(a, _):
    return (-a[0], a[1]) if type(a) is tuple else -a


def _add(a, b):
    if type(a) is tuple is type(b):
        n, d = a
        m, f = b
        if d == f:
            return n + m, d
        g = gcd(d, f)                       # over lcm(d, f), up to sign
        return n * (f // g) + m * (d // g), d // g * f
    return _float(a) + _float(b)


def _mul(a, b):
    if type(a) is tuple is type(b):
        return a[0] * b[0], a[1] * b[1]
    return _float(a) * _float(b)


def _div(a, b):
    if (b[0] if type(b) is tuple else b) == 0:
        raise ZeroDivisionError("division by zero")
    if type(a) is tuple is type(b):
        return a[0] * b[1], a[1] * b[0]
    return _float(a) / _float(b)


def _pow(a, k):
    if type(a) is tuple:
        n, d = a
        if k >= 0:
            return n ** k, d ** k
        if n == 0:
            raise ZeroDivisionError(f"zero raised to {k}")
        return d ** -k, n ** -k
    if k < 0 and a == 0:
        raise ZeroDivisionError(f"zero raised to {k}")
    return a ** k


def _exp(a, _):
    return math.exp(_float(a))


def _sin(a, _):
    return math.sin(_float(a))


def _cos(a, _):
    return math.cos(_float(a))


_OPS = {Neg: _neg, Add: _add, Mul: _mul, Div: _div, Pow: _pow, Exp: _exp,
        Sin: _sin, Cos: _cos}
_EXACT = (int, bool, Fraction)      # the types of exact numbers


def _value(x):
    """``x`` as a value: an int pair for an int or a Fraction (by type: an
    isinstance test of the ABC is slow), else ``x`` itself."""
    return (x.numerator, x.denominator) if type(x) in _EXACT else x


def _walk(e, x, memo):
    """Value of ``e`` at the value ``x`` by recursion over the tree; ``memo``
    maps id(node) to the value of each composite node walked so far, so a
    subtree object shared within ``e`` is computed, and raises, once."""
    kids = e.children
    if not kids:
        return e.value.as_integer_ratio() if type(e) is Const else x
    v = memo.get(id(e))
    if v is None:
        a = _walk(kids[0], x, memo)
        if type(e) is Pow:
            v = _pow(a, e.exponent)
        else:
            v = _OPS[type(e)](a, _walk(kids[1], x, memo) if len(kids) == 2 else None)
        memo[id(e)] = v
    return v


def _compile(roots):
    """Tape of the expressions ``roots``: (registers, register of x or None,
    instructions, register of each root).

    The registers start as the distinct constants, the distinct exponents
    and a slot for x.  Each instruction ``(operation, a, b)`` appends the
    value of one structurally distinct composite subtree, computed from
    registers a and b (b = a for a unary operation), in the order of first
    occurrence in the walk's children-first traversal of each root in
    turn.  A walk that raises at a subtree raises at its first occurrence,
    and no earlier subtree raises, so the tape of one root raises at the
    same subtree.
    """
    registers, code = [], []
    leaves = {}        # leaf value -> register
    classes = {}       # structural key -> ~(index of its instruction)
    memo = {}          # id(node) -> register, or ~instruction index

    def leaf(value):
        r = leaves.get(value)
        if r is None:
            r = leaves[value] = len(registers)
            registers.append(value)
        return r

    def visit(n):
        r = memo.get(id(n))
        if r is None:
            kids = n.children
            if not kids:
                r = leaf(n.value.as_integer_ratio() if type(n) is Const else None)
            else:
                a = visit(kids[0])
                key = (_OPS[type(n)], a,
                       leaf(n.exponent) if type(n) is Pow else visit(kids[-1]))
                r = classes.get(key)
                if r is None:
                    r = classes[key] = ~len(code)
                    code.append(key)
            memo[id(n)] = r
        return r

    try:
        outs = [visit(e) for e in roots]
    finally:
        del visit          # it refers to itself through its closure cell
    top = len(registers)     # instruction j appends register top + j
    code = [(op, a if a >= 0 else top + ~a, b if b >= 0 else top + ~b)
            for op, a, b in code]
    return (registers, leaves.get(None), code,
            [r if r >= 0 else top + ~r for r in outs])


def _run(tape, x):
    """Values of a compiled tape's roots at the value ``x``; see
    ``_compile``."""
    registers, var, code, outs = tape
    r = registers[:]
    if var is not None:
        r[var] = x
    push = r.append
    for op, a, b in code:
        push(op(r[a], r[b]))
    return [r[i] for i in outs]


def _runs(roots, xs):
    """The values of ``roots`` at each point of ``xs``, from one tape run
    once per point; an ``ArithmeticError`` names the point."""
    tape = _compile(roots) if xs else None
    for x in xs:
        try:
            yield _run(tape, _value(x))
        except ArithmeticError as exc:     # e.g. h^2 overflows a float
            raise type(exc)(f"{exc} at x={x}") from None


TOL = 1e-10     # the tolerance of the package's checks, every tol's default


def compare(u, v, tol):
    """(residual, agree) of values u, v (Fractions, ints, floats or exact
    pairs) by the rule of every check: exact values agree when equal, others
    when |u - v| <= tol * max(1, |u|, |v|), never at a NaN or an infinity."""
    u, v = _value(u), _value(v)
    if type(u) is tuple is type(v):     # n / d is correctly rounded
        n, d = _add(u, _neg(v, None))
        return (abs(n / d) if n else 0.0), n == 0
    u, v = _float(u), _float(v)
    r = abs(u - v)
    return r, r <= tol or r <= tol * max(1, abs(u), abs(v)) < math.inf


def _first_worst(samples):
    """(worst, at, ok) of ((residual, agree), at) ``samples``: the first one
    above all earlier ones, NaN above any, else (0.0, None); ok if all agree."""
    worst, at, ok = 0.0, None, True
    for (r, agree), x in samples:
        if worst == worst and not r <= worst:
            worst, at = r, x
        ok = ok and agree
    return worst, at, ok


def max_residuals(groups, points, tol):
    """Worst sampled (residual, x, ok) of each (key, [(lhs, rhs)]) group.

    A group's identities are sampled at ``points[key]`` (none when the key
    is absent).  The sides at x are compared by ``compare``, and each group's
    result is taken over its pairs, then its points, by ``_first_worst``.

    Every side of every group on one key is compiled into one tape, which
    runs once per point, so a subtree shared by any sides is computed once
    per point.  A side that raises at some point raises with the first
    point at which any side of its key raises: an ``ArithmeticError`` of
    the same type that names the point and carries the key as ``key``.
    """
    sides = {}         # key -> every side of its groups, pair by pair
    for key, pairs in groups:
        sides.setdefault(key, []).extend(s for pair in pairs for s in pair)
    compared = {}      # key -> per point, (residual, agree) of each pair
    for key, roots in sides.items():
        try:
            compared[key] = [[compare(v[i], v[i + 1], tol)
                              for i in range(0, len(v), 2)]
                             for v in _runs(roots, points.get(key, ()))]
        except ArithmeticError as exc:
            exc.key = key
            raise
    out = []
    start = dict.fromkeys(sides, 0)     # key -> its next group's first pair
    for key, pairs in groups:
        rows, xs, i = compared[key], points.get(key, ()), start[key]
        start[key] = i + len(pairs)
        out.append(_first_worst((row[j], x) for j in range(i, i + len(pairs))
                                for x, row in zip(xs, rows)))
    return out


@dataclass(frozen=True)
class Verdict:
    """What a checker found, truthy exactly when ``ok``: the worst residual
    of a sampled check (None where there is none) and a witness naming the
    worst or failing case."""

    ok: bool
    residual: float | None = None
    witness: str = ""

    def __bool__(self):
        return self.ok

    @classmethod
    def fold(cls, samples):
        """Verdict on ((residual, agree), witness) samples: ``_first_worst``."""
        worst, at, ok = _first_worst(samples)
        return cls(ok, worst, "" if at is None else at)

    @classmethod
    def within(cls, tol, samples):
        """``fold`` of (u, v, witness) samples compared by ``compare``."""
        return cls.fold((compare(u, v, tol), at) for u, v, at in samples)


def differentiate(e):
    """Symbolic d/dx; the result is again an expression tree.

    The result is simplified and cached on ``e``.  A node whose simplified
    form is a constant, such as the literal ``(-4/3)`` parsed as
    ``Div(Neg(4), 3)``, has the derivative ``ZERO`` at once, which is what
    the rules below would build for it.
    """
    d = e._deriv
    if d is not None:
        return d
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE
    if type(simplify(e)) is Const:
        d = ZERO
    elif isinstance(e, Neg):
        d = simplify(Neg(differentiate(e.children[0])))
    elif isinstance(e, Add):
        a, b = e.children
        d = simplify(Add(differentiate(a), differentiate(b)))
    elif isinstance(e, Mul):
        a, b = e.children
        d = simplify(Add(Mul(differentiate(a), b), Mul(a, differentiate(b))))
    elif isinstance(e, Div):
        a, b = e.children
        num = Add(Mul(differentiate(a), b), Neg(Mul(a, differentiate(b))))
        d = simplify(Div(num, Pow(b, 2)))
    elif isinstance(e, Pow):
        a = e.children[0]
        k = e.exponent
        d = simplify(Mul(Mul(Const(k), Pow(a, k - 1)), differentiate(a)))
    else:
        arg = e.children[0]
        darg = differentiate(arg)
        if isinstance(e, Exp):
            d = simplify(Mul(Exp(arg), darg))
        elif isinstance(e, Sin):
            d = simplify(Mul(Cos(arg), darg))
        elif isinstance(e, Cos):
            d = simplify(Neg(Mul(Sin(arg), darg)))
        else:
            raise TypeError(f"not an expression node: {e!r}")
    e._deriv = d
    return d


def simplify(e):
    """Best-effort cleanup: constant folding plus 0/1 identities only.

    The result is cached on ``e`` and marked as simplified, so simplifying
    it again returns it at once and a tree built over simplified parts
    costs only its new nodes.  A leaf, and a node whose rule does not
    fire over children that simplify to themselves, is returned itself.
    """
    done = e._simple
    if done is not None:
        return e if done is True else done
    kids = e.children
    if not kids:
        e._simple = True
        return e
    out = _RULES[type(e)](e, *map(simplify, kids))
    if out is e:
        e._simple = True
    else:
        e._simple = out
        out._simple = True
    return out


# One rule per node type.  A rule gets the node and its simplified
# children, and returns the node itself when those are its own children.

def _simplify_neg(e, a):
    if type(a) is Const:
        return Const(-a.value)
    if type(a) is Neg:
        return a.children[0]
    return e if a is e.children[0] else Neg(a)


def _simplify_add(e, a, b):
    if type(a) is Const:
        if type(b) is Const:
            return Const(a.value + b.value)
        if a.value == 0:
            return b
    elif type(b) is Const and b.value == 0:
        return a
    return e if a is e.children[0] and b is e.children[1] else Add(a, b)


def _simplify_mul(e, a, b):
    if type(a) is Const:
        if type(b) is Const:
            return Const(a.value * b.value)
        if a.value == 0:
            return ZERO
        if a.value == 1:
            return b
    elif type(b) is Const:
        if b.value == 0:
            return ZERO
        if b.value == 1:
            return a
    return e if a is e.children[0] and b is e.children[1] else Mul(a, b)


def _simplify_div(e, a, b):
    if type(b) is Const:
        if b.value == 1:
            return a
        if type(a) is Const and b.value != 0:
            return Const(a.value / b.value)
    elif type(a) is Const and a.value == 0:
        return ZERO
    return e if a is e.children[0] and b is e.children[1] else Div(a, b)


def _simplify_pow(e, a):
    k = e.exponent
    if k == 1:
        return a
    if k == 0:
        return ONE
    if type(a) is Const and not (a.value == 0 and k < 0):
        return Const(a.value ** k)
    return e if a is e.children[0] else Pow(a, k)


def _simplify_call(e, a):
    return e if a is e.children[0] else type(e)(a)


_RULES = {Neg: _simplify_neg, Add: _simplify_add, Mul: _simplify_mul,
          Div: _simplify_div, Pow: _simplify_pow, Exp: _simplify_call,
          Sin: _simplify_call, Cos: _simplify_call}


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

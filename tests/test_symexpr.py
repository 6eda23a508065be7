import gc
import math
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from diffwedge import symexpr
from diffwedge.connection import _chartwise
from diffwedge.symexpr import (Add, Const, Cos, Div, Exp, ExprSyntaxError,
                               Mul, Neg, Pow, Sin, TOL, ZERO, ONE, Verdict,
                               X, compare, differentiate, evaluate,
                               evaluate_all, max_residuals, parse_expr,
                               simplify, to_str)


def test_parse_and_exact_eval():
    e = parse_expr("(x^2+1)/3 - 2*x")
    assert evaluate(e, Fraction(1, 2)) == Fraction(5, 12) - 1
    assert isinstance(evaluate(e, Fraction(2)), Fraction)


def test_decimal_literals():
    assert evaluate(parse_expr("0.25*x"), 4) == 1


def test_precedence():
    assert evaluate(parse_expr("2+3*4"), 0) == 14
    assert evaluate(parse_expr("2*3^2"), 0) == 18
    assert evaluate(parse_expr("-x^2"), 3) == -9
    assert evaluate(parse_expr("(2+3)*4"), 0) == 20


def test_unary_minus_chain():
    assert evaluate(parse_expr("--x"), 5) == 5
    assert evaluate(parse_expr("2--3"), 0) == 5


def test_functions():
    assert evaluate(parse_expr("exp(0)"), 0) == pytest.approx(1.0)
    assert evaluate(parse_expr("sin(x)+cos(x)"), 0.0) == pytest.approx(1.0)


def test_syntax_error_column():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expr("x^^2")
    assert exc.value.column == 3


def test_unknown_identifier():
    with pytest.raises(ExprSyntaxError):
        parse_expr("x + y")


def test_function_needs_parens():
    with pytest.raises(ExprSyntaxError):
        parse_expr("exp x")


def test_zero_division():
    with pytest.raises(ZeroDivisionError):
        evaluate(parse_expr("1/x"), 0)
    with pytest.raises(ZeroDivisionError):
        evaluate(parse_expr("x^-1"), 0)


CASES = [
    "x^3 - 2*x + 5",
    "exp(2*x)",
    "sin(x)*cos(x)",
    "(x^2+1)/(x-3)",
    "exp(sin(x))",
    "x*exp(x) - cos(x^2)",
    "1/(x^2+1)",
    "-x^4/2 + sin(2*x+1)",
]


@pytest.mark.parametrize("text", CASES)
def test_derivative_against_sympy(text):
    e = parse_expr(text)
    de = differentiate(e)
    xs = sympy.Symbol("x")
    ref = sympy.diff(sympy.sympify(text.replace("^", "**")), xs)
    for pt in [-1.5, -0.5, 0.1, 1.0, 2.5]:
        got = float(evaluate(de, pt))
        want = float(ref.subs(xs, pt))
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


exprs = st.deferred(lambda: st.one_of(
    st.integers(-5, 5).map(lambda v: Const(Fraction(v))),
    st.just(X),
    st.tuples(exprs, exprs).map(lambda t: t[0] + t[1]),
    st.tuples(exprs, exprs).map(lambda t: t[0] * t[1]),
    exprs.map(lambda e: -e),
))


@given(exprs)
def test_print_parse_round_trip(e):
    text = to_str(e)
    again = parse_expr(text)
    for pt in [Fraction(-2), Fraction(1, 3), Fraction(5)]:
        assert evaluate(e, pt) == evaluate(again, pt)


@given(exprs)
def test_simplify_preserves_value(e):
    s = simplify(e)
    for pt in [Fraction(-1), Fraction(0), Fraction(7, 2)]:
        assert evaluate(e, pt) == evaluate(s, pt)


def test_simplify_identities():
    assert simplify(ZERO + X) == X
    assert simplify(X * ONE) == X
    assert simplify(X * ZERO) == ZERO
    assert simplify(Const(2) + Const(3)) == Const(5)


def test_operator_overloading():
    e = (X + 1) * (X - 1)
    assert evaluate(e, Fraction(3)) == 8
    assert evaluate(X ** 3, Fraction(2)) == 8
    assert evaluate(X / 2, Fraction(5)) == Fraction(5, 2)


def test_a_float_operand_is_refused():
    # a float would be rounded to a nearby rational; say so instead
    for build in (lambda: X * 0.1, lambda: 0.1 + X, lambda: X - 0.5,
                  lambda: 2.0 / X):
        with pytest.raises(TypeError, match="cannot use float"):
            build()


def test_max_residual_keeps_the_first_worst_point():
    pts = [Fraction(-2), Fraction(1), Fraction(2)]
    # residuals 4, 1, 4: the later tie does not move the witness
    assert max_residuals([(None, [(X * X, ZERO)])], {None: pts}, TOL)[0] \
        == (4.0, Fraction(-2), False)
    # nor does an equal residual in a later pair
    pairs = [(X * X, ZERO), (Const(4), ZERO), (X, Const(-2))]
    assert max_residuals([(None, pairs)], {None: pts}, TOL)[0] \
        == (4.0, Fraction(-2), False)
    # residuals 4, 2, 12: a strictly larger later one does move it
    worst, at, ok = max_residuals([(None, [(ZERO, X * X * X + X * X)])],
                                  {None: pts}, TOL)[0]
    assert (worst, at, ok) == (12.0, Fraction(2), False)
    assert isinstance(worst, float)
    # Verdict.within folds (u, v, witness) samples by the same rule
    ties = [(4.0, 0.0, "x = -2"), (1.0, 0.0, "x = 1"), (0.0, 4.0, "x = 2")]
    assert Verdict.within(1e-10, ties) == Verdict(False, 4.0, "x = -2")
    assert Verdict.within(1e-10, ties + [(4, 0, "next pair")]).witness \
        == "x = -2"
    assert Verdict.within(1e-10, [(4.0, 0.0, "x = -2"), (2.0, 0.0, "x = 1"),
                                  (12.0, 0.0, "x = 2")]).witness == "x = 2"
    assert Verdict.within(0, [(1.0, 1.0, "x = 1"), (2, 2, "x = 2")]) \
        == Verdict(True, 0.0, "")
    assert Verdict.within(0, []) == Verdict(True, 0.0, "")
    # ok exactly at residual == tol * max(1, |u|, |v|), here tol * 4
    assert Verdict.within(1.0, ties).ok
    assert not Verdict.within(math.nextafter(1.0, 0), ties)
    # the worst residual agrees relative to its sides; a smaller one that
    # does not fails the verdict, which still reports the worst
    v = Verdict.within(0.5, [(300.0, 200.0, "x = 0"), (2.0, 0.0, "x = 1")])
    assert v == Verdict(False, 100.0, "x = 0")


def test_a_nan_residual_fails_and_is_the_worst():
    nan = math.nan
    # a NaN never agrees, and it is worse than any residual before or after
    for samples in ([(nan, 0.0, "x = 0")],
                    [(1.0, 0.0, "x = 1"), (nan, 0.0, "x = 0"),
                     (math.inf, 0.0, "x = 2"), (nan, nan, "x = 3")]):
        v = Verdict.within(1e-10, samples)
        assert v.ok is False and math.isnan(v.residual)
        assert v.witness == "x = 0"
    v = Verdict.fold([((0.0, True), "x = 1"), ((nan, True), "x = 0")])
    assert math.isnan(v.residual) and v.witness == "x = 0" and v.ok
    # the sampler: x * x overflows to inf at x = 1e200, and inf - inf
    big = Mul(X, X)
    worst, at, ok = max_residuals([(None, [(big, big), (X, ONE)])],
                                  {None: [Fraction(2), 1e200]}, 1.0)[0]
    assert math.isnan(worst) and at == 1e200 and ok is False


def test_the_comparison_rule():
    big = Fraction(10 ** 400)
    # exact values agree exactly when equal, whatever the tolerance
    assert compare(Fraction(1, 3), (2, 6), 0) == (0.0, True)
    assert compare(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**30),
                   TOL) == (float(Fraction(1, 10**30)), False)
    # a nonzero difference that underflows to a 0.0 residual still differs
    assert compare(big, big + Fraction(1, 10**400), 1.0) == (0.0, False)
    assert compare((7, -2), Fraction(-7, 2), 0) == (0.0, True)
    # a float pair is relative to max(1, |u|, |v|)
    assert compare(1e20, 1e20 + 2 ** 20, 1e-10) == (2.0 ** 20, True)
    assert compare(1e20, 1e20 + 2 ** 40, 1e-10)[1] is False
    assert compare(0.5, 0.5 + 2 ** -34, 2 ** -34) == (2 ** -34, True)
    assert compare(0.5, 0.5 + 2 ** -33, 2 ** -34)[1] is False
    # one float side makes the pair a float pair, compared with the float
    # of the exact side
    assert compare(Fraction(5, 3), 5 / 3, TOL) \
        == (abs(5 / 3 - float(Fraction(5, 3))), True)
    assert compare(Fraction(1), 1.0, 0) == (0.0, True)
    # NaN and infinite values never agree
    for u, v in ((math.nan, 1.0), (math.inf, math.inf), (math.inf, 1),
                 (-math.inf, 0.0)):
        assert compare(u, v, 1.0)[1] is False
        assert compare(u, v, 0)[1] is False
    # a Fraction beyond the floats raises as float(Fraction) does
    with pytest.raises(OverflowError):
        compare(big, 1.0, TOL)


def test_an_exact_sampled_pair_agrees_only_when_equal():
    # a gap of 1e-20, far below tol: exact sides differ, float sides agree
    groups = [("a", [(X + Const(Fraction(1, 10**20)), X)])]
    assert _chartwise(groups, {"a": [Fraction(0), Fraction(1)]}, TOL) \
        == Verdict(False, 1e-20, "chart a, x = 0")
    assert _chartwise(groups, {"a": [0.0, 1.0]}, TOL) \
        == Verdict(True, 1e-20, "chart a, x = 0.0")


def test_max_residual_is_zero_and_none_on_an_identity():
    e = parse_expr("(x+1)^2")
    same = parse_expr("x^2+2*x+1")
    pts = [Fraction(i, 3) for i in range(-5, 6)]
    assert max_residuals([(None, [(e, same)])], {None: pts}, 0)[0] \
        == (0.0, None, True)
    assert max_residuals([(None, [(e, ZERO)])], {None: []}, 0)[0] \
        == (0.0, None, True)
    assert max_residuals([(None, [])], {None: [Fraction(1)]}, 0)[0] \
        == (0.0, None, True)


def test_max_residual_mixes_exact_and_float_sides():
    third = Fraction(1, 3)
    pairs = [(parse_expr("x/3"), ZERO),          # exact: 1/9 at x = 1/3
             (parse_expr("exp(x)"), ONE)]        # float: e^(1/3) - 1
    pts = {None: [Fraction(0), third]}
    worst, at, ok = max_residuals([(None, pairs)], pts, 1.0)[0]
    assert worst == math.exp(third) - 1 and at == third
    assert isinstance(worst, float)
    # the float pair agrees within 1.0, the exact pair does not
    assert not ok
    assert max_residuals([(None, pairs[1:])], pts, 1.0)[0][2]
    worst, at, ok = max_residuals([(None, pairs[:1])], pts, 1.0)[0]
    assert worst == float(Fraction(1, 9)) and at == third and not ok


# ---------------------------------------------------------------------------
# node caches and the compiled tape; the tree walk is the reference

def _copy(e):
    """A structurally equal tree that shares no composite node with ``e``."""
    if not e.children:
        return e
    kids = [_copy(c) for c in e.children]
    return Pow(kids[0], e.exponent) if isinstance(e, Pow) else type(e)(*kids)


def _caches(es):
    """The identities of every cache of every node under ``es``."""
    seen, out, todo = set(), [], list(es)
    while todo:
        n = todo.pop()
        if id(n) not in seen:
            seen.add(id(n))
            out.append((id(n), id(n._simple), id(n._deriv)))
            todo.extend(n.children)
    return out


def _unary(e, kind):
    return Pow(e, kind) if isinstance(kind, int) else kind(e)


# Each shared-subtree level doubles the tree that _copy builds and the
# uncached passes walk, so the depth is bounded: with max_leaves=64,
# hypothesis nests extend at most log2(64) + 1 times, so a tree has at
# most eight levels and 255 nodes.  Unbounded, a 20-level DAG expanded
# to 28681 nodes, whose fresh differentiate alone took 0.5 s and broke
# the 200 ms deadline; the cost is linear in the expanded tree.
rich = st.recursive(
    st.one_of(st.fractions(-3, 3, max_denominator=4).map(Const), st.just(X)),
    lambda sub: st.one_of(
        st.tuples(sub, st.sampled_from([-3, -1, 0, 2, 3, Neg, Exp, Sin, Cos]))
          .map(lambda t: _unary(*t)),
        st.tuples(sub, sub, st.sampled_from([Add, Mul, Div])).map(lambda t: t[2](t[0], t[1])),
        # shared subtrees: one object used twice, and an equal copy of it
        st.tuples(sub, st.sampled_from([Add, Mul, Div])).map(lambda t: t[1](t[0], t[0])),
        st.tuples(sub, st.sampled_from([Add, Mul, Div])).map(lambda t: t[1](t[0], _copy(t[0]))),
    ),
    max_leaves=64)
# points: denominators up to 10^6, negative and int points, and floats
points = st.one_of(st.fractions(-3, 3, max_denominator=5),
                   st.fractions(-3, 3, max_denominator=10**6), st.integers(-3, 3),
                   st.floats(-3, 3, allow_nan=False))


def _fraction_walk(e, x):
    """Reference evaluation: recursion over the tree in Fraction arithmetic."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, symexpr.Var):
        return Fraction(x) if isinstance(x, (int, Fraction)) else x
    if isinstance(e, Neg):
        return -_fraction_walk(e.children[0], x)
    if isinstance(e, Add):
        return _fraction_walk(e.children[0], x) + _fraction_walk(e.children[1], x)
    if isinstance(e, Mul):
        return _fraction_walk(e.children[0], x) * _fraction_walk(e.children[1], x)
    if isinstance(e, Div):
        num = _fraction_walk(e.children[0], x)
        den = _fraction_walk(e.children[1], x)
        if den == 0:
            raise ZeroDivisionError(f"division by zero at x={x}")
        return num / den
    if isinstance(e, Pow):
        base = _fraction_walk(e.children[0], x)
        if e.exponent < 0 and base == 0:
            raise ZeroDivisionError(f"zero raised to {e.exponent} at x={x}")
        return base ** e.exponent
    arg = _fraction_walk(e.children[0], x)
    return {Exp: math.exp, Sin: math.sin, Cos: math.cos}[type(e)](arg)


def _walk_naming_the_point(e, x):
    """``_fraction_walk``, naming the point in a float overflow as it names
    it in a zero divisor; evaluate names it in both."""
    try:
        return _fraction_walk(e, x)
    except OverflowError as exc:
        raise OverflowError(f"{exc} at x={x}") from None


def _outcome(f, e, x):
    """What f(e, x) gives: its type and value (Fractions by numerator and
    denominator, floats by bits), or its error type and message."""
    try:
        v = f(e, x)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    if isinstance(v, Fraction):
        return type(v), v.numerator, v.denominator
    return type(v), v.hex() if isinstance(v, float) else v


def _tape_at(e, x):
    """``e`` at ``x`` from a tape compiled for ``e`` alone."""
    return evaluate_all([e], [x])[0][0]


def _matches_the_fraction_walk(e, xs):
    """On a fresh copy of ``e``, evaluate (the walk) and a tape at each
    point give what the Fraction walk gives, and so does one tape run at
    every point in turn, xs[0] twice: its values, or the error of the
    first point that raises."""
    e = _copy(e)
    want = [_outcome(_walk_naming_the_point, e, x) for x in xs[:1] + xs]
    for x, w in zip(xs, want[1:]):
        assert _outcome(evaluate, e, x) == w, (e, x)
        assert _outcome(_tape_at, e, x) == w, (e, x)
    try:
        rows = evaluate_all([e], xs[:1] + xs)
    except (ArithmeticError, ValueError) as exc:
        assert (type(exc), str(exc)) == next(
            w for w in want if issubclass(w[0], BaseException))
    else:
        assert [_outcome(lambda v, _: v, v, None) for (v,) in rows] == want


@given(rich, st.lists(points, min_size=1, max_size=4))
def test_compiled_evaluation_matches_the_walk(e, xs):
    _matches_the_fraction_walk(e, xs)


@given(st.lists(rich, min_size=1, max_size=4), st.lists(points, max_size=4))
def test_evaluate_all_matches_evaluate(es, xs):
    # evaluate on fresh copies is the reference: the rows hold its values,
    # and an error is one it raises at the first point where any raises
    want = [[_outcome(evaluate, _copy(e), x) for e in es] for x in xs]
    caches = _caches(es)
    raised = [[o for o in row if issubclass(o[0], ArithmeticError)]
              for row in want]
    try:
        rows = symexpr.evaluate_all(es, xs)
    except ArithmeticError as exc:
        first = next(errors for errors in raised if errors)
        assert (type(exc), str(exc)) in first
    else:
        assert not any(raised)
        assert [[_outcome(lambda v, _: v, v, None) for v in row]
                for row in rows] == want
    assert _caches(es) == caches        # the tape is stored on no node


_SUM60 = Const(0)
for _k in range(1, 61):                # 60 terms of distinct denominators
    _SUM60 = Add(_SUM60, Div(Const(Fraction(_k % 7 - 3, _k)), X + Const(_k)))
_FLOAT = Exp(X) - 2                      # float-valued, changes sign near 0.69
_EXACT = Div(X + Fraction(1, 3), Neg(X) - 7) * Fraction(-5, 11)


_CASES = {
    "sum60": _SUM60,
    # negative divisors and zero numerators
    "x/-3": Div(X, Const(-3)), "0/(x-1)": Div(ZERO, X - 1),
    "-x/-(x+1)": Div(Neg(X), Neg(X + 1)),
    "0/-2+0x/(x-2)": Div(ZERO, Const(-2)) + Div(X * 0, X - 2),
    "1/x*x/(1-x)": Div(ONE, X) * Div(X, ONE - X),
    # negative bases under negative exponents, exact and float
    "(-x-1)^-3": Pow(Neg(X) - 1, -3), "(-2/3)^-2*x": Pow(Const(Fraction(-2, 3)), -2) * X,
    "float^-3": Pow(_FLOAT, -3), "(-x)^0+(x-x)^2": Pow(Neg(X), 0) + Pow(X - X, 2),
    "exact^-1-(-sum60)^-1": Pow(_EXACT, -1) - Pow(Neg(_SUM60), -1),
    # a float operand on either side of every binary operation
    **{f"{op.__name__}({a},{b})": op(*(dict(float=_FLOAT, exact=_EXACT, sum60=_SUM60)[v]
                                       for v in (a, b)))
       for op in (Add, Mul, Div)
       for a, b in [("float", "exact"), ("exact", "float"), ("float", "sum60"),
                    ("sum60", "float"), ("float", "float")]},
    "sin,cos,exp": Sin(_SUM60) + Cos(_EXACT) * Exp(Neg(_SUM60)),
}


@pytest.mark.parametrize("e", _CASES.values(), ids=_CASES.keys())
def test_pair_arithmetic_matches_the_fraction_walk(e):
    xs = [Fraction(-999_983, 1_000_000), Fraction(1, 7), Fraction(-7, 3), -2, 0,
          3, Fraction(693_147, 1_000_000), 0.1, -1.5, 1e-300]
    _matches_the_fraction_walk(e, xs)


def test_compiled_zero_divisor_raises_the_walk_message():
    # at 0 both 1/x and x^-2 fail, and the walk reaches 1/x first
    e = Div(ONE, X) + Pow(X, -2) * Div(X, X - 1)
    f = Pow(X - 1, -3) + Div(ONE, X - 1)
    for g, x, message in [(e, Fraction(0), "division by zero at x=0"),
                          (e, 1, "division by zero at x=1"),
                          (f, 1, "zero raised to -3 at x=1")]:
        # the walk, then a tape that first runs at a point where g is defined
        for run in (lambda: evaluate(g, x),
                    lambda: evaluate_all([g], [Fraction(1, 2), x, x])):
            with pytest.raises(ZeroDivisionError, match=f"^{message}$"):
                run()


@given(rich)
def test_simplify_and_differentiate_are_cached(e):
    s = simplify(e)
    assert simplify(e) is s and simplify(s) is s
    d = differentiate(e)
    assert differentiate(e) is d and simplify(d) is d
    fresh = _copy(e)
    assert simplify(fresh) == s and differentiate(_copy(e)) == d


def _rule_derivative(e):
    """The reference: d/dx by the rules alone, with no cache and no
    shortcut for a subtree that simplifies to a constant."""
    d = _rule_derivative
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, symexpr.Var):
        return ONE
    kids = e.children
    if isinstance(e, Neg):
        return simplify(Neg(d(kids[0])))
    if isinstance(e, Add):
        return simplify(Add(d(kids[0]), d(kids[1])))
    if isinstance(e, Mul):
        a, b = kids
        return simplify(Add(Mul(d(a), b), Mul(a, d(b))))
    if isinstance(e, Div):
        a, b = kids
        return simplify(Div(Add(Mul(d(a), b), Neg(Mul(a, d(b)))), Pow(b, 2)))
    if isinstance(e, Pow):
        k = e.exponent
        return ZERO if k == 0 else simplify(
            Mul(Mul(Const(k), Pow(kids[0], k - 1)), d(kids[0])))
    a = kids[0]
    if isinstance(e, Exp):
        return simplify(Mul(Exp(a), d(a)))
    if isinstance(e, Sin):
        return simplify(Mul(Cos(a), d(a)))
    return simplify(Neg(Mul(Sin(a), d(a))))


@given(rich)
def test_differentiate_matches_the_rules(e):
    assert repr(differentiate(_copy(e))) == repr(_rule_derivative(_copy(e)))


def _rewrite(e, kids):
    """The isinstance chain that the table of simplify rules replaced: one
    simplification step of ``e`` over its simplified children."""
    if isinstance(e, Neg):
        (a,) = kids
        if isinstance(a, Const):
            return Const(-a.value)
        if isinstance(a, Neg):
            return a.children[0]
        return _rebuild(e, kids)
    if isinstance(e, Add):
        a, b = kids
        if isinstance(a, Const) and isinstance(b, Const):
            return Const(a.value + b.value)
        if isinstance(a, Const) and a.value == 0:
            return b
        if isinstance(b, Const) and b.value == 0:
            return a
        return _rebuild(e, kids)
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
        return _rebuild(e, kids)
    if isinstance(e, Div):
        a, b = kids
        if isinstance(b, Const) and b.value == 1:
            return a
        if isinstance(a, Const) and isinstance(b, Const) and b.value != 0:
            return Const(a.value / b.value)
        if isinstance(a, Const) and a.value == 0 and not isinstance(b, Const):
            return ZERO
        return _rebuild(e, kids)
    if isinstance(e, Pow):
        (a,) = kids
        if e.exponent == 1:
            return a
        if e.exponent == 0:
            return ONE
        if isinstance(a, Const) and not (a.value == 0 and e.exponent < 0):
            return Const(a.value ** e.exponent)
        return _rebuild(e, kids)
    return _rebuild(e, kids)


def _rebuild(e, kids):
    """``e`` over ``kids``: ``e`` itself when they are its own children."""
    if all(k is c for k, c in zip(kids, e.children)):
        return e
    if isinstance(e, Pow):
        return Pow(kids[0], e.exponent)
    return type(e)(*kids)


def _chain_simplify(e):
    """The reference: simplify by the isinstance chain, with no cache."""
    return _rewrite(e, [_chain_simplify(c) for c in e.children])


@given(rich)
@example(Neg(Neg(X)))
@example(Neg(Neg(Neg(Exp(X)))))
@example(Div(ONE, ZERO))
@example(Div(ZERO, ZERO))
@example(Div(ZERO, Mul(X, ONE)))
@example(Pow(ZERO, -2))
@example(Pow(Add(X, ZERO), 3))
@example(Mul(Const(Fraction(1, 2)), Add(ONE, Neg(ONE))))
@example(Cos(Sin(Exp(X))))
def test_simplify_matches_the_isinstance_chain(e):
    s = simplify(e)
    assert repr(s) == repr(_chain_simplify(_copy(e)))
    assert simplify(s) is s
    # a node whose simplified children are its own comes back as itself
    for n in (e, s):
        kids = [simplify(c) for c in n.children]
        if kids and all(k is c for k, c in zip(kids, n.children)) \
                and _rewrite(n, kids) is n:
            fresh = (Pow(kids[0], n.exponent) if isinstance(n, Pow)
                     else type(n)(*kids))
            assert simplify(fresh) is fresh


def test_a_constant_literal_has_derivative_zero_at_once():
    e = parse_expr("(-4/3)")
    assert repr(e) == "Div(Neg(Const(4)), Const(3))"
    assert differentiate(e) is ZERO
    # 1/0 simplifies to no constant: its derivative still raises
    d = differentiate(parse_expr("1/0+x"))
    assert repr(d) == repr(_rule_derivative(parse_expr("1/0+x")))
    with pytest.raises(ZeroDivisionError):
        evaluate(d, 1)


def test_caches_make_no_reference_cycles():
    gc.collect()
    gc.disable()
    try:
        e = parse_expr("(x^2+1)/(x-3)*exp(sin(x)) - cos(2*x)^-2 + 0*x")
        trees = [e, simplify(e), differentiate(e), differentiate(differentiate(e))]
        xs = [Fraction(1, 2), Fraction(1, 2), 0.25]
        for t in trees:
            for x in xs:
                evaluate(t, x)
        # the tapes of evaluate_all and max_residuals, with every cache set
        evaluate_all(trees, xs)
        max_residuals([(None, list(zip(trees, trees[1:])))], {None: xs}, TOL)
        del e, t, trees
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_nodes_have_no_instance_dict():
    for e in (X, ONE, parse_expr("-exp(x)^2/sin(x)+cos(x)*x")):
        assert not hasattr(e, "__dict__")


def test_first_evaluation_walks_a_shared_node_once():
    # 64 doublings of one object: a tree of 2^65 - 1 nodes, a DAG of 65
    e = X
    for _ in range(64):
        e = e + e
    xs = [Fraction(1, 3), Fraction(1, 3), 0.5]
    for x in xs:                                    # the walk, at each point
        assert evaluate(e, x) == 2 ** 64 * x
    assert evaluate_all([e], xs) == [[2 ** 64 * x] for x in xs]   # the tape


# ---------------------------------------------------------------------------
# the joint sampler; the scalar loop it replaced is the reference

def _agrees(u, v, tol):
    """The comparison rule as stated, on the values of ``evaluate``."""
    if isinstance(u, Fraction) and isinstance(v, Fraction):
        return u == v
    r = float(abs(u - v))
    return math.isfinite(r) and r <= tol * max(1, abs(float(u)), abs(float(v)))


def _scalar_max_residual(pairs, points, tol):
    """(worst, at, ok) by one evaluate per side and point, pair by pair; a
    NaN residual is worse than any other."""
    worst, at, ok = 0.0, None, True
    for lhs, rhs in pairs:
        for x in points:
            u, v = evaluate(lhs, x), evaluate(rhs, x)
            r = float(abs(u - v))
            if r > worst or math.isnan(r) and not math.isnan(worst):
                worst, at = r, x
            ok = ok and _agrees(u, v, tol)
    return worst, at, ok


def _first_failure(groups, points):
    """What the joint sampler raises, from the scalar evaluations: on the
    first key, at the first point, the first side's error, else the first
    pair's residual error; None when nothing raises."""
    sides = {}
    for key, pairs in groups:
        sides.setdefault(key, []).extend(pairs)
    for key, pairs in sides.items():
        for x in points.get(key, ()):
            for side in (s for pair in pairs for s in pair):
                try:
                    evaluate(side, x)
                except (ArithmeticError, ValueError) as exc:
                    return type(exc), str(exc)
            for lhs, rhs in pairs:
                try:
                    float(abs(evaluate(lhs, x) - evaluate(rhs, x)))
                except (ArithmeticError, ValueError) as exc:
                    return type(exc), str(exc)
    return None


def _bits(worst_at_ok):
    worst, at, ok = worst_at_ok
    return worst.hex(), type(at), at, ok


# polynomials of degree <= 3, whose exact residuals are rarely dyadic
polys = st.lists(st.fractions(-3, 3, max_denominator=7), min_size=1,
                 max_size=4).map(lambda cs: sum((Const(c) * Pow(X, k)
                                                for k, c in enumerate(cs)),
                                               ZERO))


@st.composite
def sampled_groups(draw):
    """(groups, points, tol) on charts a and b: sides drawn from a small
    pool as the same object, an equal copy or a tree over pool members, so
    sides share subtrees; pairs drawn from a small pool, so groups on both
    charts repeat them and residuals tie; points of every kind, repeated,
    shared by both charts or none."""
    pool = draw(st.lists(st.one_of(rich, polys), min_size=1, max_size=3))
    member = st.sampled_from(pool)
    op = st.sampled_from([Add, Mul, Div])
    side = st.one_of(
        member, member.map(_copy), st.sampled_from([X, ZERO, ONE]),
        st.tuples(member, member, op).map(lambda t: t[2](t[0], t[1])),
        st.tuples(member, op).map(lambda t: t[1](t[0], X)),
        st.tuples(member, st.sampled_from([-2, -1, Neg, Exp, Cos]))
          .map(lambda t: _unary(*t)))
    pairs = st.sampled_from(draw(st.lists(st.tuples(side, side),
                                          min_size=1, max_size=3)))
    groups = draw(st.lists(
        st.tuples(st.sampled_from("ab"), st.lists(pairs, max_size=3)),
        min_size=2, max_size=6))
    xs = st.lists(st.one_of(points, st.sampled_from([0, Fraction(1, 2), -1.5])),
                  min_size=2, max_size=5)
    pts = {"a": draw(xs)}
    if draw(st.integers(0, 3)):           # else chart b has no points entry
        pts["b"] = draw(st.one_of(st.just(pts["a"]), xs, st.just([])))
    return groups, pts, draw(st.sampled_from([0.0, 1e-10, 1.0]))


@settings(deadline=None)
@given(sampled_groups())
# chart b's group ties a later group of chart a
@example(([("a", [(X, X)]), ("b", [(X * X, ZERO)]), ("a", [(X * X, ZERO)])],
          {"a": [-2, 2], "b": [2, -2]}, 1.0))
# an exact residual that float(lhs) - float(rhs) rounds differently
@example(([("a", [(ONE, Const(Fraction(1, 3)))])], {"a": [0, 1]}, 0.0))
# a composite side whose value changes from point to point
@example(([("a", [(X * X + 1, ZERO)])], {"a": [1, 3, 2]}, 0.0))
# a side whose square overflows a float at the second point
@example(([("a", [(Pow(Exp(X), 2), ZERO)])], {"a": [1, 700]}, 0.0))
def test_joint_sampler_matches_the_scalar_loop(case):
    groups, pts, tol = case
    failure = _first_failure(groups, pts)
    if failure is not None:
        with pytest.raises((ArithmeticError, ValueError)) as exc:
            max_residuals(groups, pts, tol)
        assert (exc.type, str(exc.value)) == failure
        with pytest.raises(exc.type):
            _chartwise(groups, pts, tol)
        return
    want = [_scalar_max_residual(pairs, pts.get(key, []), tol)
            for key, pairs in groups]
    got = max_residuals(groups, pts, tol)
    assert list(map(_bits, got)) == list(map(_bits, want))
    assert _chartwise(groups, pts, tol) == Verdict.fold(
        ((r, ok), f"chart {key}, x = {x}")
        for (key, _), (r, x, ok) in zip(groups, want))
    for (key, pairs), w in zip(groups, want):     # each group on its own
        assert _bits(max_residuals([(key, pairs)], pts, tol)[0]) == _bits(w)


def test_joint_sampler_keeps_group_order_and_exact_residuals():
    # chart b's group comes first and ties chart a's later one
    groups = [("a", [(X, X)]), ("b", [(X * X, ZERO)]), ("a", [(X * X, ZERO)])]
    pts = {"a": [Fraction(-2), Fraction(2)], "b": [Fraction(2), Fraction(-2)]}
    assert max_residuals(groups, pts, 1) == [
        (0.0, None, True), (4.0, Fraction(2), False), (4.0, Fraction(-2), False)]
    assert _chartwise(groups, pts, 1) == Verdict(False, 4.0, "chart b, x = 2")
    # the exact difference, not float(1) - float(1/3)
    third = Const(Fraction(1, 3))
    assert float(1) - float(Fraction(1, 3)) != float(Fraction(2, 3))
    assert max_residuals([(None, [(ONE, third)])], {None: [0]}, 1)[0] \
        == (float(Fraction(2, 3)), 0, False)
    # registers start afresh at each point
    assert max_residuals([("a", [(X * X + 1, ZERO)])], {"a": [1, 3, 2]}, 1) \
        == [(10.0, 3, False)]


def test_joint_sampler_names_the_first_failing_point():
    # 1/(x-1) fails at 1 and x^-2 at 0; the points come in the order 1/2, 0, 1
    groups = [("a", [(Div(ONE, X - 1), ZERO)]), ("a", [(Pow(X, -2), ONE)])]
    pts = {"a": [Fraction(1, 2), Fraction(0), Fraction(1)]}
    with pytest.raises(ZeroDivisionError, match="^zero raised to -2 at x=0$"):
        max_residuals(groups, pts, TOL)
    with pytest.raises(ZeroDivisionError, match="at x=1$"):
        max_residuals(groups[:1], pts, TOL)
    assert max_residuals(groups, {"b": pts["a"]}, TOL) \
        == [(0.0, None, True)] * 2
    # a float overflow names its point too, and the error its group's key
    big = [("a", [(X, X)]), ("b", [(Pow(Exp(X), 2), ZERO)])]
    with pytest.raises(OverflowError, match="at x=700$") as exc:
        max_residuals(big, {"a": [700], "b": [1, 700]}, TOL)
    assert exc.value.key == "b"
    with pytest.raises(OverflowError, match="at x=700$"):
        evaluate(big[1][1][0][0], 700)


def test_chartwise_computes_a_repeated_side_once_per_point(monkeypatch):
    # the value numbering: ten groups over equal sides run the side's
    # distinct operations once per point, not once per group and side
    calls = Counter()
    for kind, op in list(symexpr._OPS.items()):
        def counted(a, b, kind=kind, op=op):
            calls[kind] += 1
            return op(a, b)
        monkeypatch.setitem(symexpr._OPS, kind, counted)
    text = "(x^2+1)/(x-3)*exp(x) - cos(2*x)^-2"
    groups = [("a", [(parse_expr(text), parse_expr(text))]) for _ in range(10)]
    pts = {"a": [Fraction(i, 5) for i in range(-4, 5)]}
    assert _chartwise(groups, pts, 0) == Verdict(True, 0.0, "")

    def composite(e):
        return {e}.union(*map(composite, e.children)) if e.children else set()

    side = parse_expr(text)
    assert sum(calls.values()) == len(composite(side)) * len(pts["a"])
    assert calls[Exp] == calls[Cos] == len(pts["a"])


# ---------------------------------------------------------------------------
# depth bound

def test_depth_bound_is_a_syntax_error():
    n = symexpr.MAX_DEPTH
    ok = ["(" * n + "x" + ")" * n, "+".join(["x"] * n), "-" * (n - 1) + "x",
          "sin(" * (n - 1) + "x" + ")" * (n - 1), "1/(" * (n // 2) + "x" + ")" * (n // 2)]
    for text in ok:
        e = parse_expr(text)
        d = differentiate(e)
        for t in (e, simplify(e), d):
            to_str(t)
            evaluate(t, Fraction(1, 3))
            evaluate(t, 0.5)
    for text in ["(" * (n + 1) + "x" + ")" * (n + 1), "+".join(["x"] * (n + 1)),
                 "-" * n + "x", "sin(" * n + "x" + ")" * n, "(" * 3000 + "x" + ")" * 3000,
                 "+".join(["x"] * 3000), "-" * 3000 + "x"]:
        with pytest.raises(ExprSyntaxError, match=f"deeper than {n} levels"):
            parse_expr(text)
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expr("+".join(["x"] * (n + 1)))
    assert exc.value.column == 2 * n          # the n-th '+'

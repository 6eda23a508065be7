from fractions import Fraction

import pytest

from diffwedge import symexpr
from diffwedge.forms import (differential, dual_metric_sum,
                             dual_metric_identity_check, g_lambda,
                             g_lambda_dual, lambda1)
from diffwedge.wedge import glue_complexes, line


def wedge2(h1="exp(x)", h2="exp(-x)"):
    g = glue_complexes(line("a"), line("b"), [(("a", 0), ("b", 0))])
    return lambda1(g, {"a": h1, "b": h2})


def wedge3(h1="1", h2="2", h3="x^2+1"):
    g1 = glue_complexes(line("a"), line("b"), [(("a", 0), ("b", 0))])
    g2 = glue_complexes(g1.result, line("c"), [(("a", 0), ("c", 0))])
    return lambda1(g2, {"a": h1, "b": h2, "c": h3})


def test_single_chart_is_line_bundle():
    lam = lambda1(line("a"), {"a": "1"})
    assert lam.fibre_dim(("a", 0)) == 1
    assert lam.fibre_dim(("a", 3)) == 1


def test_wedge_fibre_dimensions():
    lam = wedge2()
    assert lam.fibre_dim(("a", 0)) == 2
    assert lam.fibre_dim(("a", 1)) == 1
    assert wedge3().fibre_dim(("c", 0)) == 3


def test_positivity_gate():
    with pytest.raises(ValueError, match="positive"):
        lambda1(line("a"), {"a": "x"})


def test_differential_assembly():
    lam = wedge2()
    d = differential(lam.base, {"a": "x^2", "b": "sin(x)"})
    assert symexpr.evaluate(d["a"], Fraction(0)) == 0
    assert symexpr.evaluate(d["b"], Fraction(0)) == 1.0


def test_differential_constant_and_single_chart():
    lam = wedge2()
    d = differential(lam.base, {"a": "7", "b": "7"})
    assert all(symexpr.evaluate(e, 1) == 0 for e in d.values())
    single = differential(line("a").__class__(line("a").charts),
                          {"a": "exp(x)"})
    assert symexpr.evaluate(single["a"], 0) == pytest.approx(1.0)


def test_differential_rejects_disagreement():
    lam = wedge2()
    with pytest.raises(ValueError, match="disagree"):
        differential(lam.base, {"a": "x", "b": "x+1"})


def test_differential_leibniz_sampled():
    lam = wedge2()
    h = {"a": "x^2+1", "b": "cos(x)"}
    k = {"a": "exp(x)", "b": "x+1"}
    hk = {c: symexpr.parse_expr(h[c]) * symexpr.parse_expr(k[c])
          for c in h}
    # d(hk) = h dk + k dh chartwise at samples
    dh = {c: symexpr.differentiate(symexpr.parse_expr(h[c])) for c in h}
    dk = {c: symexpr.differentiate(symexpr.parse_expr(k[c])) for c in k}
    dhk = {c: symexpr.differentiate(hk[c]) for c in hk}
    for c in h:
        for x in [Fraction(t, 2) for t in range(-5, 6)]:
            lhs = symexpr.evaluate(dhk[c], x)
            rhs = (symexpr.evaluate(symexpr.parse_expr(h[c]), x)
                   * symexpr.evaluate(dk[c], x)
                   + symexpr.evaluate(symexpr.parse_expr(k[c]), x)
                   * symexpr.evaluate(dh[c], x))
            assert abs(lhs - rhs) <= 1e-10


def test_g_lambda_regular_and_wedge():
    lam = wedge2("x^2+1", "3-x")
    assert g_lambda(lam, ("a", 1)) == [[Fraction(2)]]
    at_wedge = g_lambda(lam, ("a", 0))
    assert at_wedge == [[Fraction(1, 2), 0], [0, Fraction(3, 2)]]


def test_g_lambda_half_weights_unit_case():
    lam = wedge2("1", "1")
    assert g_lambda(lam, ("a", 0)) == [[Fraction(1, 2), 0],
                                       [0, Fraction(1, 2)]]


def test_g_lambda_positive_definite_samples():
    lam = wedge2("x^2+1", "exp(-x)")
    for x in [Fraction(t, 2) for t in range(-4, 5)]:
        g = g_lambda(lam, ("a", x))
        assert all(g[i][i] > 0 for i in range(len(g)))


def test_dual_metric_values():
    lam = wedge2("x^2+1", "3-x")
    assert g_lambda_dual(lam, ("a", 1)) == [[Fraction(1, 2)]]
    at_wedge = g_lambda_dual(lam, ("a", 0))
    assert at_wedge[0][0] == Fraction(2)
    assert at_wedge[1][1] == Fraction(2, 3)


def test_dual_metric_coincidence_exact():
    # the branch-sum dual metric equals the glue dual metric, exactly,
    # on rational data, at two- and three-branch fibres
    lam = wedge2("x^2+1", "3-x")
    v = dual_metric_identity_check(lam)
    assert v.ok, v.witness
    lam3 = wedge3()
    v = dual_metric_identity_check(lam3)
    assert v.ok, v.witness
    assert dual_metric_sum(lam3, ("a", 0)) == g_lambda_dual(lam3, ("a", 0))

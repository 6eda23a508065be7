import random
from fractions import Fraction

import pytest

from diffwedge.bundle import as_expr, glue_bundles, trivial_bundle
from diffwedge.connection import (Connection, _bracket, apply_connection,
                                  check_leibniz, check_metric_compatibility,
                                  connection_value_at, covariant_derivative,
                                  dual_connection, glue_connections,
                                  is_symmetric_connection, koszul_check,
                                  levi_civita, sum_connection,
                                  tensor_connection, torsion)
from diffwedge.dvspace import standard_model
from diffwedge.forms import lambda1
from diffwedge.symexpr import ZERO, evaluate, parse_expr, simplify
from diffwedge.wedge import glue_complexes, line

GRID = [Fraction(t, 5) for t in range(-10, 11)]


def glued_lambda(h1="exp(x)", h2="exp(-x)"):
    g = glue_complexes(line("a"), line("b"), [(("a", 0), ("b", 0))])
    return lambda1(g, {"a": h1, "b": h2})


def pts(*cids):
    return {c: GRID for c in cids}


def rnd_poly(rng):
    c = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
    return parse_expr(f"({c[0]})+({c[1]})*x+({c[2]})*x^2")


def test_levi_civita_exponential_half():
    lam = glued_lambda()
    lc = levi_civita(lam)
    for x in GRID:
        assert abs(evaluate(lc.gamma["a"][0][0], x) - 0.5) < 1e-12
        assert abs(evaluate(lc.gamma["b"][0][0], x) + 0.5) < 1e-12


def test_levi_civita_constant_metric_is_flat():
    lam = lambda1(line("a"), {"a": "1"})
    lc = levi_civita(lam)
    assert all(evaluate(lc.gamma["a"][0][0], x) == 0 for x in GRID)


def test_levi_civita_rational_metric():
    lam = lambda1(line("a"), {"a": "x^2+1"})
    lc = levi_civita(lam)
    for x in GRID:
        want = Fraction(x) / (Fraction(x) ** 2 + 1)
        assert evaluate(lc.gamma["a"][0][0], x) == want


def test_levi_civita_finite_difference_oracle():
    # independent oracle: Gamma = h'/(2h) via central differences
    lam = lambda1(line("a"), {"a": "exp(sin(x))"})
    lc = levi_civita(lam)
    eps = 1e-6
    h = lam.h["a"]
    for x in [-1.3, 0.4, 1.7]:
        dh = (evaluate(h, x + eps) - evaluate(h, x - eps)) / (2 * eps)
        want = dh / (2 * evaluate(h, x))
        assert evaluate(lc.gamma["a"][0][0], x) == pytest.approx(want, rel=1e-6)


def test_apply_flat_and_levi_civita():
    lam = lambda1(line("a"), {"a": "exp(x)"})
    flat = Connection(lam, {"a": [[ZERO]]})
    out = apply_connection(flat, {"a": ["x^2"]})
    assert evaluate(out["a"][0], Fraction(3)) == 6
    lc = levi_civita(lam)
    out = apply_connection(lc, {"a": ["x"]})
    # (s' + s/2) with s = x
    for x in GRID:
        assert abs(evaluate(out["a"][0], x) - (1 + float(x) / 2)) < 1e-12


def test_covariant_derivative_examples():
    lam = lambda1(line("a"), {"a": "exp(x)"})
    flat = Connection(lam, {"a": [[ZERO]]})
    out = covariant_derivative(flat, {"a": "1"}, {"a": ["x^2"]})
    assert evaluate(out["a"][0], Fraction(5)) == 10
    lc = levi_civita(lam)
    out = covariant_derivative(lc, {"a": "x"}, {"a": ["1"]})
    for x in GRID:
        assert abs(evaluate(out["a"][0], x) - float(x) / 2) < 1e-12


def test_covariant_derivative_linear_in_t_over_functions():
    lam = glued_lambda()
    lc = levi_civita(lam)
    s = {"a": ["x^2+1"], "b": ["exp(x)"]}
    t = {"a": "x", "b": "x^2"}
    f = {"a": "x-1", "b": "cos(x)"}
    ft = {c: parse_expr(f[c]) * parse_expr(t[c]) for c in t}
    lhs = covariant_derivative(lc, ft, s)
    rhs = covariant_derivative(lc, t, s)
    for c in t:
        for x in GRID:
            assert abs(evaluate(lhs[c][0], x)
                       - evaluate(parse_expr(f[c]), x)
                       * evaluate(rhs[c][0], x)) < 1e-10


def bracket(t1, t2):
    """The vector-field bracket the torsion and Koszul checkers use."""
    return simplify(_bracket(as_expr(t1), as_expr(t2)))


def test_lie_bracket():
    br = bracket("1", "x")
    assert all(evaluate(br, x) == 1 for x in GRID)
    same = bracket("x^2", "x^2")
    assert all(evaluate(same, x) == 0 for x in GRID)


def test_jacobi_identity_sampled():
    rng = random.Random(1)
    t1, t2, t3 = (rnd_poly(rng) for _ in range(3))
    j = bracket(t1, bracket(t2, t3))
    k = bracket(t2, bracket(t3, t1))
    l = bracket(t3, bracket(t1, t2))
    for x in GRID:
        total = evaluate(j, x) + evaluate(k, x) + evaluate(l, x)
        assert abs(total) < 1e-9


def test_torsion_vanishes():
    lam = glued_lambda()
    dual = dual_connection(levi_civita(lam))
    fields = [{"a": "x", "b": "1"}, {"a": "x^2+1", "b": "exp(x)"},
              {"a": "cos(x)", "b": "x^2"}]
    assert is_symmetric_connection(dual, fields, pts("a", "b"), 1e-10)
    # the cancellation is automatic in one dimension, any Christoffel
    arbitrary = Connection(lam, {"a": [[as_expr(1)]], "b": [[as_expr("x")]]})
    assert is_symmetric_connection(arbitrary, fields, pts("a", "b"), 1e-10)
    tt = torsion(dual, fields[0], fields[0])
    assert all(evaluate(e, Fraction(1)) == 0 for e in tt.values())


def test_leibniz_random_battery():
    lam = glued_lambda()
    lc = levi_civita(lam)
    rng = random.Random(7)
    trials = [({c: rnd_poly(rng) for c in ("a", "b")},
               {c: [rnd_poly(rng)] for c in ("a", "b")}) for _ in range(5)]
    v = check_leibniz(lc, trials, pts("a", "b"), 1e-10)
    assert v.ok, v.residual


def test_metric_compatibility_pass_and_fail():
    lam = glued_lambda()
    rng = random.Random(11)
    pairs = [({c: [rnd_poly(rng)] for c in ("a", "b")},
              {c: [rnd_poly(rng)] for c in ("a", "b")}) for _ in range(3)]
    v = check_metric_compatibility(levi_civita(lam), pairs,
                                   pts("a", "b"), 1e-10)
    assert v.ok, v.residual
    flat = Connection(lam, {"a": [[ZERO]], "b": [[ZERO]]})
    v = check_metric_compatibility(flat, pairs, pts("a", "b"), 1e-10)
    assert not v.ok and v.residual > 1e-3


def test_metric_compatibility_trivial_zero_sections():
    lam = glued_lambda()
    flat = Connection(lam, {"a": [[ZERO]], "b": [[ZERO]]})
    pairs = [({"a": ["0"], "b": ["0"]}, {"a": ["0"], "b": ["0"]})]
    v = check_metric_compatibility(flat, pairs, pts("a", "b"))
    assert v.ok and v.residual == 0


def test_koszul_battery():
    lam = glued_lambda()
    rng = random.Random(23)
    triples = [tuple({c: rnd_poly(rng) for c in ("a", "b")}
                     for _ in range(3)) for _ in range(10)]
    v = koszul_check(lam, triples, pts("a", "b"), 1e-9)
    assert v.ok, v.residual


def test_glued_connection_restricts_to_legs():
    lam = glued_lambda()
    lam1 = lambda1(line("a"), {"a": "exp(x)"})
    lam2 = lambda1(line("b"), {"b": "exp(-x)"})
    glued = glue_connections(levi_civita(lam1), levi_civita(lam2), lam)
    lc = levi_civita(lam)
    for c in ("a", "b"):
        for x in GRID:
            if x == 0:
                continue
            assert abs(evaluate(glued.gamma[c][0][0], x)
                       - evaluate(lc.gamma[c][0][0], x)) < 1e-12


def test_glued_connection_symmetric_and_compatible():
    lam = glued_lambda()
    lam1 = lambda1(line("a"), {"a": "exp(x)"})
    lam2 = lambda1(line("b"), {"b": "exp(-x)"})
    glued = glue_connections(levi_civita(lam1), levi_civita(lam2), lam)
    rng = random.Random(5)
    fields = [{c: rnd_poly(rng) for c in ("a", "b")} for _ in range(3)]
    assert is_symmetric_connection(dual_connection(glued), fields,
                                   pts("a", "b"), 1e-10)
    pairs = [({c: [rnd_poly(rng)] for c in ("a", "b")},
              {c: [rnd_poly(rng)] for c in ("a", "b")}) for _ in range(3)]
    v = check_metric_compatibility(glued, pairs, pts("a", "b"), 1e-10)
    assert v.ok, v.residual


def test_glue_value_branch_diagonal():
    # the one-form mode value at the wedge is the tuple of leg values
    lam = glued_lambda()
    lc = levi_civita(lam)
    s = {"a": ["x+1"], "b": ["2*x+1"]}
    val = connection_value_at(lc, s, ("a", 0))
    legs = apply_connection(lc, s)
    assert val[("a", Fraction(0))] == [evaluate(legs["a"][0], Fraction(0))]
    assert val[("b", Fraction(0))] == [evaluate(legs["b"][0], Fraction(0))]


def test_generic_glue_value_pushes_fibre_maps():
    # a glued module bundle with a non-identity fibre map: the wedge value
    # carries each branch slot into the representative fibre
    b1 = trivial_bundle(line("a"), {"a": standard_model(1)}, {"a": [["4"]]})
    b2 = trivial_bundle(line("b"), {"b": standard_model(1)}, {"b": [["1"]]})
    g = glue_bundles(b1, b2, [(("a", 0), ("b", 0))], [[2]])
    conn = Connection(g, {"a": [[ZERO]], "b": [[ZERO]]})
    s = {"a": ["x+1"], "b": ["2*x+2"]}
    val = connection_value_at(conn, s, ("a", 0))
    # branch a slot: f~ (s_a') = 2 * 1; branch b slot: s_b' = 2
    assert val[("a", Fraction(0))] == [Fraction(2)]
    assert val[("b", Fraction(0))] == [Fraction(2)]


def test_sum_and_tensor_connections():
    lam = lambda1(line("a"), {"a": "exp(x)"})
    lc = levi_civita(lam)
    flat = Connection(lam, {"a": [[ZERO]]})
    s = sum_connection(lc, flat)
    assert evaluate(s.gamma["a"][0][0], 1) == pytest.approx(0.5)
    assert s.gamma["a"][0][1] == ZERO and s.gamma["a"][1][0] == ZERO
    assert evaluate(s.gamma["a"][1][1], 1) == 0
    t = tensor_connection(lc, lc)
    assert evaluate(t.gamma["a"][0][0], 1) == pytest.approx(1.0)
    # Leibniz survives the constructions
    rng = random.Random(2)
    trials = [({"a": rnd_poly(rng)}, {"a": [rnd_poly(rng), rnd_poly(rng)]})
              for _ in range(3)]
    v = check_leibniz(s, trials, pts("a"), 1e-10)
    assert v.ok, v.residual
    trials1 = [({"a": rnd_poly(rng)}, {"a": [rnd_poly(rng)]})
               for _ in range(3)]
    v = check_leibniz(t, trials1, pts("a"), 1e-10)
    assert v.ok, v.residual


def test_flat_sum_flat_is_flat():
    lam = lambda1(line("a"), {"a": "1"})
    flat = Connection(lam, {"a": [[ZERO]]})
    s = sum_connection(flat, flat)
    assert all(e == ZERO for row in s.gamma["a"] for e in row)


def test_tensor_connection_is_kron_sum():
    # Gamma1 kron I + I kron Gamma2, entry (i k, j l), for full 2x2 matrices
    lam = lambda1(line("a"), {"a": "1"})
    g1 = [[as_expr(e) for e in row] for row in [["x", "1"], ["x^2", "-2"]]]
    g2 = [[as_expr(e) for e in row] for row in [["3", "exp(x)"], ["x+1", "x"]]]
    t = tensor_connection(Connection(lam, {"a": g1}),
                          Connection(lam, {"a": g2}))
    gamma = t.gamma["a"]
    assert len(gamma) == 4 and all(len(row) == 4 for row in gamma)
    for x in (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(3)):
        for i in range(2):
            for k in range(2):
                for j in range(2):
                    for l in range(2):
                        want = ((evaluate(g1[i][j], x) if k == l else 0)
                                + (evaluate(g2[k][l], x) if i == j else 0))
                        got = evaluate(gamma[2 * i + k][2 * j + l], x)
                        assert got == want, (x, i, k, j, l)

import random
from fractions import Fraction

import pytest

from diffwedge.bundle import eval_vector
from diffwedge.connection import Connection, levi_civita
from diffwedge.dirac import (CliffordModule, DiracOperator,
                             apply_dirac_chart,
                             check_action_compatibility,
                             check_algebra_morphism, check_clifford_connection,
                             check_clifford_product, check_unitarity,
                             clifford_connection, dirac, dirac_value_at,
                             dirac_values, exterior_module, glue_dirac,
                             single_chart_module, verify_splitting)
from diffwedge.forms import lambda1
from diffwedge.symexpr import (ZERO, Verdict, evaluate, evaluate_all,
                               parse_expr)
from diffwedge.wedge import _as_point, line

GRID = [Fraction(t, 5) for t in range(-10, 11)]


def leg(cid, h):
    return lambda1(line(cid), {cid: h})


def wedge_module(h1="exp(x)", h2="exp(-x)", scale=1):
    return exterior_module(leg("a", h1), leg("b", h2),
                           [(("a", 0), ("b", 0))], scale)


def rnd_poly(rng, shift=0):
    c = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
    return f"({c[0] + shift})+({c[1]})*x+({c[2]})*x^2"


def compatible_sections(rng, scale=1):
    # constant shifts so u1(0) = u2(0) and a w1(0) = w2(0)
    u1, w1 = rnd_poly(rng), rnd_poly(rng)
    u2, w2 = rnd_poly(rng), rnd_poly(rng)
    du = evaluate(parse_expr(u1), 0) - evaluate(parse_expr(u2), 0)
    dw = Fraction(scale) * evaluate(parse_expr(w1), 0) \
        - evaluate(parse_expr(w2), 0)
    s1 = {"a": [u1, w1]}
    s2 = {"b": [f"({du})+{u2}", f"({dw})+{w2}"]}
    return s1, s2


def test_module_fibres_and_metric():
    m = wedge_module()
    assert m.bundle.fibres["a"].dim == 2
    assert m.bundle.metric_at(("a", 1))[1][1] == pytest.approx(2.718281828459045)
    assert m.bundle.metric_at(("a", 1))[0][0] == 1


def test_action_matrix_examples():
    m = single_chart_module(leg("a", "1"))
    c = m.action_matrix("a", Fraction(0), 1)
    # c(dx) 1 = dx, c(dx) dx = -h 1
    assert [c[0][0], c[1][0]] == [0, 1]
    assert [c[0][1], c[1][1]] == [-1, 0]
    m2 = single_chart_module(leg("a", "x^2+1"))
    c2 = m2.action_matrix("a", Fraction(2), 1)
    assert c2[0][1] == -5


def test_action_squares_to_minus_h():
    m = single_chart_module(leg("a", "exp(x)"))
    for x in [Fraction(0), Fraction(1), Fraction(-3, 2)]:
        c = m.action_matrix("a", x, 1)
        sq = [[sum(c[i][k] * c[k][j] for k in range(2)) for j in range(2)]
              for i in range(2)]
        h = m.lam.h_at("a", x)
        assert sq[0][1] == 0 and sq[1][0] == 0
        assert sq[0][0] == pytest.approx(-h)
        assert sq[1][1] == pytest.approx(-h)


def test_metric_gate_rejects_scale_two_with_unit_metrics():
    with pytest.raises(ValueError, match="incompatible"):
        wedge_module("1", "1", scale=2)


def test_metric_gate_accepts_matched_scale():
    # h1(0) = 4 = a^2 h2(0) with a = 2
    m = wedge_module("x^2+4", "1", scale=2)
    v = check_action_compatibility(m)
    assert v.ok, v.witness
    assert m.scales[("a", 0)] == 2


def test_action_compatibility_and_morphism():
    m = wedge_module()
    v = check_action_compatibility(m)
    assert v.ok, v.witness
    v = check_algebra_morphism(m, ("a", 0))
    assert v.ok, v.witness
    m2 = wedge_module("x^2+4", "1", scale=2)
    v = check_algebra_morphism(m2, ("a", 0))
    assert v.ok, v.witness


def test_glue_fibre_checks_compare_within_tol():
    # the float exp(1) against a rational 4e-13 above it: within tol
    m = exterior_module(leg("a", "exp(x)"),
                        leg("b", "2718281828459445/1000000000000000"),
                        [(("a", 1), ("b", 0))], 1)
    assert check_action_compatibility(m) and check_algebra_morphism(m, ("a", 1))
    # but not within 0; the witness prints rationals as p/q, floats as floats
    assert not check_action_compatibility(m, 0)
    v = check_algebra_morphism(m, ("a", 1), 0)
    assert not v.ok
    assert v.witness == ("products differ on (0, 1), (0, 1): "
                         "(-543656365691889/200000000000000, 0) "
                         "!= (-2.718281828459045, 0)")


def test_clifford_product_against_the_rank_one_formula():
    for h in ("x^2+1", "exp(x)", "(x^2+3)/(x+5)"):
        v = check_clifford_product(wedge_module(h, h), "a", 0)
        assert v == Verdict(True, 0.0, ""), h
    # an exact product beyond the floats names its point and chart
    m = wedge_module("10^307*exp(x)", "10^307*exp(x)")
    with pytest.raises(OverflowError, match="at x=2$") as exc:
        check_clifford_product(m, "b")
    assert exc.value.key == "b"


def test_clifford_connection_leibniz_pass_and_flat_fail():
    m = wedge_module()
    lam_lc = levi_civita(m.lam)
    conn = clifford_connection(m)
    batteries = [({"a": "x", "b": "1"}, {"a": "x^2+1", "b": "cos(x)"},
                  {"a": ["x", "exp(x)"], "b": ["1", "x^2"]}),
                 ({"a": "1", "b": "x^2"}, {"a": "exp(x)", "b": "x"},
                  {"a": ["x^2+1", "x"], "b": ["sin(x)", "x+1"]})]
    pts = {c: GRID for c in ("a", "b")}
    v = check_clifford_connection(m, conn, lam_lc, batteries, pts, 1e-9)
    assert v.ok, v.residual
    flat = Connection(m.bundle, {c: [[ZERO, ZERO], [ZERO, ZERO]]
                                 for c in ("a", "b")})
    v = check_clifford_connection(m, flat, lam_lc, batteries, pts, 1e-9)
    assert not v.ok and v.residual > 1.0


def test_unitarity():
    m = wedge_module()
    v = check_unitarity(m, {c: GRID for c in ("a", "b")}, tol=1e-9)
    assert v.ok, v.residual


def test_apply_dirac_flat_unit_metric():
    m = single_chart_module(leg("a", "1"))
    flat = Connection(m.bundle, {"a": [[ZERO, ZERO], [ZERO, ZERO]]})
    d = DiracOperator(m, flat)
    # D(u + w dx) = -h w' + u' dx
    out = apply_dirac_chart(d, {"a": ["x", "0"]}, "a")
    assert evaluate(out[0], 1) == 0 and evaluate(out[1], 1) == 1
    out = apply_dirac_chart(d, {"a": ["0", "x"]}, "a")
    assert evaluate(out[0], 1) == -1 and evaluate(out[1], 1) == 0
    out = apply_dirac_chart(d, {"a": ["0", "0"]}, "a")
    assert all(evaluate(e, 1) == 0 for e in out)


def test_dirac_squares_against_laplacian_flat_case():
    # with h = 1 and zero connection, D^2 = -d^2/dx^2 on both slots
    m = single_chart_module(leg("a", "1"))
    flat = Connection(m.bundle, {"a": [[ZERO, ZERO], [ZERO, ZERO]]})
    d = DiracOperator(m, flat)
    s = {"a": ["x^3", "cos(x)"]}
    once = apply_dirac_chart(d, s, "a")
    twice = apply_dirac_chart(d, {"a": once}, "a")
    import math
    for x in GRID:
        assert abs(evaluate(twice[0], x) + 6 * float(x)) < 1e-12
        assert abs(evaluate(twice[1], x) - math.cos(float(x))) < 1e-12


def test_dirac_value_at_wedge_hand_checked():
    m = wedge_module()
    d = glue_dirac(dirac_leg(m, "a"), dirac_leg(m, "b"), m)
    s1 = {"a": ["x+3", "x+1"]}
    s2 = {"b": ["x+3", "exp(x)"]}
    val = dirac_value_at(d, {**s1, **s2}, ("a", 0))
    # D2 s2 at 0 with h2 = exp(-x), Gamma2 = -1/2: (-1/2, 1)
    assert val[0] == pytest.approx(-0.5, abs=1e-12)
    assert val[1] == pytest.approx(1.0, abs=1e-12)


def dirac_leg(m, cid):
    lam = leg(cid, next(h for c, h in {"a": "exp(x)", "b": "exp(-x)",
                                       }.items() if c == cid))
    mm = single_chart_module(lam)
    return dirac(mm)


def test_splitting_random_battery():
    m = wedge_module()
    d1 = dirac_leg(m, "a")
    d2 = dirac_leg(m, "b")
    d = glue_dirac(d1, d2, m)
    rng = random.Random(13)
    for _ in range(5):
        s1, s2 = compatible_sections(rng)
        v = verify_splitting(d, s1, s2, 1e-10)
        assert v.ok, v.residual


def test_splitting_leg_restriction():
    # away from the wedge the glued operator is the leg operator
    m = wedge_module()
    d = glue_dirac(dirac_leg(m, "a"), dirac_leg(m, "b"), m)
    s = {"a": ["x^2+1", "x+2"], "b": ["x+1", "2*x+2"]}
    leg_a = apply_dirac_chart(dirac_leg(m, "a"), {"a": s["a"]}, "a")
    for x in [Fraction(1), Fraction(-2), Fraction(1, 3)]:
        got = dirac_value_at(d, s, ("a", x))
        want = eval_vector(leg_a, x)
        assert all(abs(g - w) < 1e-12 for g, w in zip(got, want))


def test_glue_dirac_rejects_incompatible_actions():
    # bypass the constructor gate to hit the action check directly
    m = wedge_module()
    bad = CliffordModule(m.bundle, m.lam,
                         {p: Fraction(3) for p in m.scales})
    with pytest.raises(ValueError, match="not compatible"):
        glue_dirac(dirac_leg(m, "a"), dirac_leg(m, "b"), bad)


# dirac_values against the per-point dirac_value_at: (h1, h2, glue scale)
# with h1(0) = scale^2 h2(0), exact on polynomial and rational charts and
# float on exp and cos charts
DIRAC_MODULES = {
    "poly": ("x^2+1", "4*x^2+1/4", 2),
    "rational": ("1/(1+x^2)", "(x^2+x+1)/(x^2+1)", 1),
    "exp": ("exp(x)", "exp(-x)", 1),
    "cos": ("cos(x)+3", "16+x", Fraction(1, 2)),
}
SECTION_KINDS = ["{p}", "({p})/(x^2+2)", "exp({p})", "cos({p})*x"]


def _value_bits(v):
    """A Dirac value by the type of each component and its exact value or
    float bits."""
    return [(type(c), c.hex() if isinstance(c, float) else c) for c in v]


def _outcomes(f):
    try:
        return f()
    except ArithmeticError as exc:
        return type(exc), str(exc), getattr(exc, "index", None)


def _per_point(d, sections, points):
    """The reference: section by section, point by point."""
    for s in sections:
        for k, p in enumerate(points):
            try:
                dirac_value_at(d, s, p)
            except ArithmeticError as exc:
                return type(exc), str(exc), k
    return [[_value_bits(dirac_value_at(d, s, p)) for p in points]
            for s in sections]


def _random_sections(rng, n):
    return [{cid: [rng.choice(SECTION_KINDS).format(p=rnd_poly(rng))
                   for _ in range(2)] for cid in "ab"} for _ in range(n)]


@pytest.mark.parametrize("h1, h2, scale", DIRAC_MODULES.values(),
                         ids=DIRAC_MODULES.keys())
def test_dirac_values_match_the_per_point_values(h1, h2, scale):
    rng = random.Random(h1)
    points = ([("a", 0), ("b", 0)] + [("a", x) for x in GRID[::3]]
              + [("b", x) for x in GRID[1::4]] + [("a", 0), ("b", "1/3")])
    for n in (1, 3, 6):
        sections = _random_sections(rng, n)
        got = _outcomes(lambda: [[_value_bits(v) for v in row] for row in
                                 dirac_values(dirac(wedge_module(h1, h2, scale)),
                                              sections, points)])
        assert got == _per_point(dirac(wedge_module(h1, h2, scale)), sections,
                                 points)
        assert isinstance(got, list) and len(got) == n


def _splitting_per_point(d, s1_comps, s2_comps, points, tol):
    """The reference: the splitting check as it was before it compared only
    at the glue, point by point, each side through dirac_value_at and
    eval_vector."""
    module = d.module
    comps = {**s1_comps, **s2_comps}
    legs = {cid: apply_dirac_chart(d, comps, cid) for cid in comps}
    samples = []
    for p in points:
        p = _as_point(p)
        lhs = dirac_value_at(d, comps, p)
        i = module.bundle.base.class_of(p)
        q = module.bundle.rep_point(i) if i is not None else p
        rhs = eval_vector(legs[q[0]], q[1])
        samples += [(l, r, f"chart {p[0]}, x = {p[1]}")
                    for l, r in zip(lhs, rhs)]
    return Verdict.within(tol, samples)


class _Doubled(CliffordModule):
    """A module whose action is twice the exterior one: the glue-fibre
    assembly then departs from the chart formula, so the splitting check
    has residuals at glue points."""

    def action_matrix(self, cid, x, alpha):
        return super().action_matrix(cid, x, 2 * alpha)


# the points `diffeo check` passed to the splitting check, for a gluing of
# ("a", 0) to ("b", 0): thirds off the glue on both legs, then the glue
# point of the first leg, which is not its class's representative
OFF_GLUE = ([("a", Fraction(i, 3)) for i in range(-6, 7) if i]
            + [("b", Fraction(i, 3)) for i in range(1, 7)])
CLI_POINTS = OFF_GLUE + [("a", Fraction(0))]


def _section_pairs(rng, scale):
    """Two section pairs that match through the glue map, then four that
    do not."""
    pairs = [compatible_sections(rng, scale) for _ in range(2)]
    return pairs + [({"a": s["a"]}, {"b": s["b"]})
                    for s in _random_sections(rng, 4)]


@pytest.mark.parametrize("h1, h2, scale", DIRAC_MODULES.values(),
                         ids=DIRAC_MODULES.keys())
def test_splitting_off_the_glue_compares_a_value_with_itself(h1, h2, scale):
    # off the glue, dirac_values is the chart's D s through the same tape:
    # the splitting check had nothing to compare there
    d = dirac(wedge_module(h1, h2, scale))
    for s1, s2 in _section_pairs(random.Random(h1), scale):
        comps = {**s1, **s2}
        got = dirac_values(d, [comps], OFF_GLUE)[0]
        for cid in "ab":
            ks = [k for k, p in enumerate(OFF_GLUE) if p[0] == cid]
            want = evaluate_all(apply_dirac_chart(d, comps, cid),
                                [OFF_GLUE[k][1] for k in ks])
            assert [_value_bits(got[k]) for k in ks] \
                == [_value_bits(v) for v in want]


@pytest.mark.parametrize("h1, h2, scale", DIRAC_MODULES.values(),
                         ids=DIRAC_MODULES.keys())
def test_verify_splitting_matches_the_per_point_loop(h1, h2, scale):
    d = dirac(wedge_module(h1, h2, scale))
    m = d.module
    doubled = DiracOperator(_Doubled(m.bundle, m.lam, m.scales), d.connection)
    for op in (d, doubled):
        for s1, s2 in _section_pairs(random.Random(h1), scale):
            for tol in (0.0, 1e-10):
                got = verify_splitting(op, s1, s2, tol)
                want = _splitting_per_point(op, s1, s2, CLI_POINTS, tol)
                assert (got.ok, got.residual.hex(), got.witness) \
                    == (want.ok, want.residual.hex(), want.witness)
                assert got.ok == (op is d)


def test_dirac_values_without_points_or_sections():
    d = dirac(wedge_module())
    assert dirac_values(d, [], [("a", 1)]) == []
    assert dirac_values(d, [{"a": ["x", "1"], "b": ["1", "x"]}], []) == [[]]


@pytest.mark.parametrize("sections, points, message, index", [
    # section 1 fails at 1/5, before section 0 fails at 2/5
    ([{"a": ["1/(x-2/5)", "1"], "b": ["1", "x"]},
      {"a": ["1/(x-1/5)", "1"], "b": ["x", "1"]}],
     [("a", 0), ("a", Fraction(1, 5)), ("a", Fraction(2, 5))],
     "division by zero at x=2/5", 2),
    # a glue point comes after the failing chart point in point order
    ([{"a": ["x", "1/(x-1)"], "b": ["1", "x"]},
      {"a": ["1/x", "1"], "b": ["x", "1"]}],
     [("a", 1), ("b", 0)], "division by zero at x=1", 0),
    # ... and before it: the glue point fails first
    ([{"a": ["x", "1"], "b": ["1", "x"]},
      {"a": ["1/x", "1"], "b": ["x", "1/(x-2)"]}],
     [("a", 0), ("b", 2)], "division by zero at x=0", 0),
    # a float overflow in one section, a zero divisor in the next
    ([{"a": ["exp(x^3)", "1"], "b": ["1", "x"]},
      {"a": ["1/(x-3)", "1"], "b": ["x", "1"]}],
     [("a", 3), ("a", 10)], "math range error at x=10", 1),
])
def test_dirac_values_raise_the_first_error_in_section_order(sections, points,
                                                             message, index):
    d = dirac(wedge_module("1", "1"))
    with pytest.raises(ArithmeticError) as info:
        dirac_values(d, sections, points)
    assert (str(info.value), info.value.index) == (message, index)
    assert _per_point(dirac(wedge_module("1", "1")), sections, points) == (
        type(info.value), message, index)


def test_dirac_values_compile_one_tape_per_chart(monkeypatch):
    from diffwedge import dirac as dirac_module
    calls = []
    batch, at = dirac_module.evaluate_all, dirac_module.dirac_value_at
    monkeypatch.setattr(dirac_module, "evaluate_all", lambda exprs, xs:
                        calls.append((len(exprs), list(xs))) or batch(exprs, xs))
    monkeypatch.setattr(dirac_module, "dirac_value_at", lambda d, s, p:
                        calls.append(p) or at(d, s, p))
    sections = [{"a": [f"x^2+{k}", "x"], "b": ["1", f"{k}*x"]} for k in range(4)]
    points = [("a", 1), ("b", 0), ("a", 2), ("b", 5)]
    dirac_values(dirac(wedge_module()), sections, points)
    assert calls == [("b", 0)] * 4 + [(8, [1, 2]), (8, [5])]

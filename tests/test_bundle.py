import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from diffwedge import bundle, symexpr
from diffwedge.bundle import (Section, direct_sum, dual_bundle, emat_block_sum,
                              emat_inverse,
                              eval_matrix, expr_matrix, glue_bundles,
                              glue_sections, phi_dual, phi_sum,
                              split_section, tensor_product, trivial_bundle)
from diffwedge.dvspace import DvsModel, standard_model
from diffwedge.linalg import frac_matrix, identity, inverse, mat_mul, \
    mat_vec, rref, transpose
from diffwedge.wedge import line, switch_map


def two_planes(h2="x^2+1", scale=1):
    b1 = trivial_bundle(line("a"), {"a": standard_model(1)},
                        {"a": [["exp(x)"]]})
    b2 = trivial_bundle(line("b"), {"b": standard_model(1)},
                        {"b": [[h2]]})
    return glue_bundles(b1, b2, [(("a", 0), ("b", 0))], [[scale]])


def test_glue_two_planes():
    g = two_planes()
    assert g.rep_point(0) == ("b", Fraction(0))
    assert g.metric_at(("a", 0)) == [[Fraction(1)]]
    assert g.metric_at(("b", 2)) == [[Fraction(5)]]


def test_glue_rejects_scale_two():
    with pytest.raises(ValueError, match="incompatible"):
        two_planes(scale=2)


def test_glue_rejects_singular_map():
    with pytest.raises(ValueError, match="invertible"):
        two_planes(scale=0)


def test_trivial_bundle_needs_an_unglued_base():
    base = two_planes().base
    with pytest.raises(ValueError, match="no glue classes"):
        trivial_bundle(base, {c: standard_model(1) for c in base.charts},
                       {c: [["1"]] for c in base.charts})


def test_empty_glue_locus():
    b1 = trivial_bundle(line("a"), {"a": standard_model(1)}, {"a": [["1"]]})
    b2 = trivial_bundle(line("b"), {"b": standard_model(1)}, {"b": [["1"]]})
    g = glue_bundles(b1, b2, [], [[1]])
    assert g.base.glue_classes == ()


def test_glue_sections_value_and_error():
    g = two_planes()
    s = glue_sections(g, {"a": ["x^2+1"]}, {"b": ["cos(x)"]})
    assert s.value_at(("a", 0)) == [1.0]
    with pytest.raises(ValueError, match="incompatible"):
        glue_sections(g, {"a": ["x"]}, {"b": ["x+1"]})


def test_section_split_round_trip():
    g = two_planes()
    rng = random.Random(3)
    for _ in range(5):
        c = [Fraction(rng.randint(-5, 5)) for _ in range(3)]
        s1 = {"a": [f"{c[0]}+{c[1]}*x+{c[2]}*x^2"]}
        s2 = {"b": [f"{c[0]}+x"]}
        s = glue_sections(g, s1, s2)
        back1, back2 = split_section(s)
        assert set(back1) == {"a"} and set(back2) == {"b"}
        for x in [Fraction(k, 2) for k in range(-4, 5)]:
            leg = Section(g, {"a": [symexpr.parse_expr(s1["a"][0])]})
            assert s.chart_value("a", x) == leg.chart_value("a", x)


def test_glued_function_times_glued_section():
    # (h1 u h2)(s1 u s2) = (h1 s1) u (h2 s2) pointwise
    g = two_planes()
    s = glue_sections(g, {"a": ["x^2+2"]}, {"b": ["3*x+2"]})
    h = {"a": "x+1", "b": "cos(x)"}
    prod = Section(g, {cid: [symexpr.parse_expr(h[cid]) * e for e in v]
                       for cid, v in s.components.items()})
    legs1, legs2 = split_section(prod)
    again = glue_sections(g, legs1, legs2)
    for cid in ("a", "b"):
        for x in [Fraction(k, 2) for k in range(-5, 6)]:
            assert abs(prod.chart_value(cid, x)[0]
                       - again.chart_value(cid, x)[0]) <= 1e-12


def test_direct_sum_nonsmooth_block():
    base = line("a")
    v = trivial_bundle(base, {"a": DvsModel(2, ((0, 1),))},
                       {"a": [["1", "0"], ["0", "0"]]})
    w = trivial_bundle(base, {"a": standard_model(1)}, {"a": [["1"]]})
    s = direct_sum(v, w)
    assert s.fibres["a"].dim == 3
    assert s.fibres["a"].k_basis == [[0, 1, 0]]
    assert eval_matrix(s.metrics["a"], 0) == frac_matrix(
        [[1, 0, 0], [0, 0, 0], [0, 0, 1]])


def test_tensor_nonsmooth_rule():
    base = line("a")
    v = trivial_bundle(base, {"a": DvsModel(2, ((0, 1),))},
                       {"a": [["1", "0"], ["0", "0"]]})
    w = trivial_bundle(base, {"a": standard_model(2)},
                       {"a": [["1", "0"], ["0", "1"]]})
    t = tensor_product(v, w)
    assert t.fibres["a"].dim == 4
    # K tensor R^2: spanned by e2 x e1, e2 x e2
    assert t.fibres["a"].k_dim == 2


def test_dual_of_trivial_standard_bundle():
    base = line("a")
    v = trivial_bundle(base, {"a": standard_model(2)},
                       {"a": [["1", "0"], ["0", "1"]]})
    d = dual_bundle(v)
    assert d.fibres["a"].dim == 2
    assert eval_matrix(d.metrics["a"], 1) == identity(2)


def test_dual_of_a_non_standard_fibre_needs_a_constant_metric():
    base = line("a")
    k = DvsModel(2, ((0, 1),))
    d = dual_bundle(trivial_bundle(base, {"a": k},
                                   {"a": [["2*2", "0"], ["0", "0"]]}))
    assert eval_matrix(d.metrics["a"], 3) == [[Fraction(1, 4)]]
    # x^2+1 reads 1 at x = 0, but its dual is 1/(x^2+1), not 1
    v = trivial_bundle(base, {"a": k}, {"a": [["x^2+1", "0"], ["0", "0"]]})
    with pytest.raises(ValueError, match="constant rational metric"):
        dual_bundle(v)


def test_dual_metric_is_inverse():
    g = two_planes()
    d = dual_bundle(g)
    for cid, x in [("a", Fraction(1)), ("b", Fraction(2))]:
        gm = g.metric_at((cid, x))
        dm = eval_matrix(d.metrics[cid], x)
        assert abs(gm[0][0] * dm[0][0] - 1) <= 1e-12


def test_emat_inverse_round_trip():
    m = expr_matrix([["x^2+1", "x"], ["0", "2"]])
    inv = emat_inverse(m)
    for x in [Fraction(0), Fraction(1), Fraction(-2)]:
        got = mat_mul(eval_matrix(m, x), eval_matrix(inv, x))
        assert got == identity(2)


def _inverse_by_laplace(m):
    """The O(n!) emat_inverse that the memoized expansion replaced: every
    determinant and cofactor expands its minors afresh, zero entries
    included.  Same term order and signs, so it must give the same tree
    entry for entry; None when the determinant simplifies to 0, or is a
    polynomial tree that sympy finds identically 0."""
    def minor(m, i, j):
        return [[m[r][c] for c in range(len(m)) if c != j]
                for r in range(len(m)) if r != i]

    def det(m):
        if not m:
            return symexpr.ONE
        if len(m) == 1:
            return m[0][0]
        out = symexpr.ZERO
        for j in range(len(m)):
            term = m[0][j] * det(minor(m, 0, j))
            out = out + term if j % 2 == 0 else out - term
        return symexpr.simplify(out)

    n = len(m)
    d = det(m)
    if symexpr.simplify(d) == symexpr.ZERO or _polynomial(d) and \
            sympy.expand(sympy.sympify(symexpr.to_str(d))) == 0:
        return None
    adj = [[det(minor(m, j, i)) * symexpr.Const(Fraction((-1) ** (i + j)))
            for j in range(n)] for i in range(n)]
    return [[symexpr.simplify(adj[i][j] / d) for j in range(n)]
            for i in range(n)]


def _polynomial(e):
    """Whether the tree ``e`` holds no Div, Exp, Sin, Cos or negative Pow."""
    ok = (type(e) in (symexpr.Const, symexpr.Var, symexpr.Neg, symexpr.Add,
                      symexpr.Mul)
          or type(e) is symexpr.Pow and e.exponent >= 0)
    return ok and all(map(_polynomial, e.children))


def _tridiagonal(n):
    return [[f"x^2+{i + 2}" if i == j else "x" if abs(i - j) == 1 else "0"
             for j in range(n)] for i in range(n)]


_ENTRIES = ["0", "0", "1", "-2", "1/3", "x", "x^2+1", "2*x-1", "1/(x+2)",
            "exp(x)", "cos(x)", "x*exp(x)"]


@st.composite
def _entry_matrices(draw):
    """Square matrices of entry strings, n <= 5, some rows constant."""
    n = draw(st.integers(1, 5))
    entry = st.sampled_from(_ENTRIES)
    constant = st.sampled_from(["0", "1", "-2", "1/3"]).map(lambda c: [c] * n)
    return [draw(st.one_of(st.lists(entry, min_size=n, max_size=n), constant))
            for _ in range(n)]


def _block_tridiagonal(*sizes):
    out = []
    for n in sizes:
        out = emat_block_sum(out, expr_matrix(_tridiagonal(n)))
    return [[symexpr.to_str(e) for e in row] for row in out]


@given(_entry_matrices())
@example([["0"]])
@example([["x^2+1", "x"], ["0", "2"]])
@example([["1", "1", "1"], ["x", "exp(x)", "0"], ["cos(x)", "0", "x^2+1"]])
@example([["x", "0", "1/(x+2)", "0"], ["0", "cos(x)", "0", "1"],
          ["-2", "0", "x*exp(x)", "x"], ["1/3", "1/3", "1/3", "1/3"]])
@example(_tridiagonal(5))
@example(_block_tridiagonal(2, 3))
@example([["0", "0", "0"], ["x", "1", "2"], ["1", "x", "x^2+1"]])
@example([["0*exp(x)", "x", "1"], ["x", "2", "0"], ["1", "0*exp(x)", "x"]])
@example([["x-x", "x", "1"], ["x", "2", "0"], ["1", "x-x", "x"]])
@example([["x", "x"], ["x", "x"]])
@example([["exp(x)", "x", "x"], ["x", "1", "1"], ["1", "1", "1"]])
def test_emat_inverse_matches_the_laplace_oracle(strings):
    want = _inverse_by_laplace(expr_matrix(strings))
    if want is None:
        with pytest.raises(ValueError, match="singular"):
            emat_inverse(expr_matrix(strings))
        return
    inv = emat_inverse(expr_matrix(strings))
    assert [[repr(e) for e in row] for row in inv] == \
        [[repr(e) for e in row] for row in want]
    if any(f in s for row in strings for s in row for f in ("exp", "cos")):
        return
    m, n = expr_matrix(strings), len(strings)
    for x in [Fraction(1, 3), Fraction(-5, 7), Fraction(2)]:
        try:
            got = mat_mul(eval_matrix(m, x), eval_matrix(inv, x))
        except ZeroDivisionError:       # M(x) is singular
            continue
        assert got == identity(n)
        assert all(type(v) is Fraction for row in got for v in row)


def test_emat_inverse_expands_each_minor_once(monkeypatch):
    # one simplify per entry, one per distinct submatrix of size >= 2 that
    # first-row expansion reaches through nonzero entries from the
    # determinant and the n^2 cofactors, and one per inverse entry;
    # re-expanding every cofactor took 3649 calls on the 6x6 tridiagonal,
    # and expanding the minors of zero entries too took 273
    calls = []
    simplify = bundle.simplify
    monkeypatch.setattr(bundle, "simplify",
                        lambda e: calls.append(e) or simplify(e))
    for strings, total in [(_tridiagonal(6), 236),           # 36 + 164 + 36
                           (_block_tridiagonal(3, 3), 215)]:  # 36 + 143 + 36
        n = len(strings)
        calls.clear()
        emat_inverse(expr_matrix(strings))
        idx = tuple(range(n))
        todo = [(idx, idx)] + [(idx[:j] + idx[j + 1:], idx[:i] + idx[i + 1:])
                               for i in range(n) for j in range(n)]
        reached = set()
        while todo:
            rows, cols = todo.pop()
            if len(rows) >= 2 and (rows, cols) not in reached:
                reached.add((rows, cols))
                todo += [(rows[1:], cols[:j] + cols[j + 1:])
                         for j, c in enumerate(cols)
                         if strings[rows[0]][c] != "0"]
        assert len(calls) == len(reached) + 2 * n * n == total


def test_a_singular_metric_has_no_dual():
    base = line("a")
    for metric in ([["1", "1"], ["1", "1"]], [["0"]], [["x", "x"], ["x", "x"]]):
        v = trivial_bundle(base, {"a": standard_model(len(metric))},
                           {"a": metric})
        with pytest.raises(ValueError, match="singular metric"):
            dual_bundle(v)
    # a tensor product with a singular factor is singular, though its
    # factors are inverted one by one
    w = trivial_bundle(base, {"a": standard_model(2)},
                       {"a": [["x^2+1", "0"], ["0", "2"]]})
    with pytest.raises(ValueError, match="singular metric"):
        dual_bundle(tensor_product(w, v))


def test_dual_of_a_three_by_three_tensor_product():
    # the dual metric of a 3 (x) 3 fibre is a 9x9 symbolic inverse
    base = line("a")
    v = trivial_bundle(base, {"a": standard_model(3)},
                       {"a": [["x^2+2", "x", "0"], ["x", "x^2+3", "1"],
                              ["0", "1", "2"]]})
    w = trivial_bundle(base, {"a": standard_model(3)},
                       {"a": [["3", "x-1", "0"], ["x-1", "x^2+4", "x"],
                              ["0", "x", "1"]]})
    t = tensor_product(v, w)
    d = dual_bundle(t)
    assert d.fibres["a"].dim == 9
    x = Fraction(1, 3)
    g = eval_matrix(t.metrics["a"], x)
    assert mat_mul(eval_matrix(d.metrics["a"], x), g) == identity(9)
    # the dual bundle inverts the two 3x3 factors; the 9x9 adjugate of the
    # Kronecker product itself is still exact, and a first evaluation
    # computes each shared subtree object once: its 81 entries are 10272
    # distinct nodes, 3.7M as trees
    inv = emat_inverse(t.metrics["a"])
    assert mat_mul(eval_matrix(inv, x), g) == identity(9)
    assert eval_matrix(inv, x) == eval_matrix(d.metrics["a"], x)


_POINTS = [Fraction(1, 3), Fraction(-5, 7), Fraction(2)]


@st.composite
def _nested_bundles(draw, depth=2):
    """Sums and tensor products, nested to ``depth``, of 1- to 3-dim
    trivial bundles.  A metric has monic quadratic diagonal entries and
    off-diagonal entries of degree at most 1, so its determinant has the
    leading term x^(2n) and is never identically 0."""
    if depth == 0 or draw(st.booleans()):
        n = draw(st.integers(1, 3))
        off = st.sampled_from(["0", "1", "-1", "1/2", "x", "2*x-1", "-x"])
        m = [[None] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = f"x^2{draw(st.sampled_from(['', '+x', '-x']))}" \
                      f"+{draw(st.sampled_from(['0', '1', '2', '1/3']))}"
            for j in range(i):
                m[i][j] = m[j][i] = draw(off)
        return trivial_bundle(line("a"), {"a": standard_model(n)}, {"a": m})
    op = draw(st.sampled_from([direct_sum, tensor_product]))
    return op(draw(_nested_bundles(depth - 1)),
              draw(_nested_bundles(depth - 1)))


@settings(deadline=None)
@given(_nested_bundles())
def test_dual_of_nested_sums_and_tensors_is_the_inverse(b):
    d = dual_bundle(b)
    for x in _POINTS:
        g = eval_matrix(b.metrics["a"], x)
        try:
            want = inverse(g)
        except ValueError:      # M(x) is singular, so a factor's is
            with pytest.raises(ZeroDivisionError):
                eval_matrix(d.metrics["a"], x)
            continue
        assert eval_matrix(d.metrics["a"], x) == want


def test_dual_of_a_glued_direct_sum():
    # a rotation glues the plane bundle, so its transpose differs from it
    rot = [[0, -1], [1, 0]]
    v = glue_bundles(
        trivial_bundle(line("a"), {"a": standard_model(2)},
                       {"a": [["x^2+1", "x"], ["x", "x^2+1"]]}),
        trivial_bundle(line("b"), {"b": standard_model(2)},
                       {"b": [["1", "0"], ["0", "1"]]}),
        [(("a", 0), ("b", 0))], rot)
    w = glue_bundles(
        trivial_bundle(line("a"), {"a": standard_model(1)}, {"a": [["x+1"]]}),
        trivial_bundle(line("b"), {"b": standard_model(1)},
                       {"b": [["x^2+1"]]}),
        [(("a", 0), ("b", 0))], [[-1]])
    s = direct_sum(v, w)
    d = dual_bundle(s)
    assert d.gluing == switch_map(s.gluing)
    assert d.base == switch_map(s.gluing).result
    assert d.rep_point(0) == ("a", Fraction(0))
    p = ("a", Fraction(0))
    assert d.glue_map(0, ("b", Fraction(0))) == transpose(s.glue_map(0, p)) \
        == frac_matrix([[0, 1, 0], [-1, 0, 0], [0, 0, -1]])
    for cid, x in [("a", Fraction(1, 2)), ("b", Fraction(-3))]:
        assert eval_matrix(d.metrics[cid], x) == \
            inverse(eval_matrix(s.metrics[cid], x))


def test_dual_of_a_tensor_inverts_only_its_factors(monkeypatch):
    sizes = []
    inv = bundle.emat_inverse
    monkeypatch.setattr(bundle, "emat_inverse",
                        lambda m: sizes.append(len(m)) or inv(m))
    base = line("a")
    v = trivial_bundle(base, {"a": standard_model(3)},
                       {"a": _tridiagonal(3)})
    w = trivial_bundle(base, {"a": standard_model(2)},
                       {"a": _tridiagonal(2)})
    t = tensor_product(v, w)
    d = dual_bundle(t)
    assert sizes == [3, 2]
    x = Fraction(1, 3)
    assert mat_mul(eval_matrix(d.metrics["a"], x),
                   eval_matrix(t.metrics["a"], x)) == identity(6)


def test_dual_of_a_tensor_with_a_non_standard_factor(monkeypatch):
    monkeypatch.setattr(bundle, "emat_inverse", None)   # never reached
    base = line("a")
    k = trivial_bundle(base, {"a": DvsModel(2, ((0, 1),))},
                       {"a": [["2", "0"], ["0", "0"]]})
    w = trivial_bundle(base, {"a": standard_model(1)}, {"a": [["3"]]})
    d = dual_bundle(tensor_product(k, w))
    assert d.fibres["a"] == standard_model(1)
    assert eval_matrix(d.metrics["a"], 0) == [[Fraction(1, 6)]]
    # a polynomial standard factor makes the product's metric
    # non-constant, which the non-standard dual refuses
    w = trivial_bundle(base, {"a": standard_model(1)}, {"a": [["x^2+1"]]})
    with pytest.raises(ValueError, match="constant rational metric"):
        dual_bundle(tensor_product(k, w))


def test_induced_metric_two_case_and_rank():
    g = two_planes()
    # off the glue locus: the leg's own metric
    assert abs(g.metric_at(("a", 1))[0][0] - 2.718281828459045) < 1e-12
    assert g.metric_at(("b", 1)) == [[Fraction(2)]]
    # at the glue class: the representative's value, same rank as the legs
    wedge_metric = g.metric_at(("a", 0))
    assert len(rref(frac_matrix(wedge_metric))[1]) == 1


def phi_identity_data():
    g = two_planes()
    gg = two_planes()
    vsum = direct_sum(g, gg)
    vtens = tensor_product(g, gg)
    return g, gg, vsum, vtens


def test_phi_sum_defining_identity():
    g, gg, vsum, _ = phi_identity_data()
    # over the glue class: Phi composed with the blockwise leg inclusions
    # equals the sum bundle's own inclusion, on the full fibre basis
    cls = 0
    p = ("a", Fraction(0))
    j1 = g.glue_map(cls, p)
    j1p = gg.glue_map(cls, p)
    jsum = vsum.glue_map(cls, p)
    phi = phi_sum(vsum, None, p)
    n, m = len(j1), len(j1p)
    for t in range(n + m):
        v = [Fraction(int(i == t)) for i in range(n + m)]
        lhs = mat_vec(phi, mat_vec(_blockdiag(j1, j1p), v))
        rhs = mat_vec(jsum, v)
        assert lhs == rhs
    # away from the gluing the inclusions are identities
    assert phi_sum(vsum, None, ("a", 1)) == identity(2)


def test_phi_tensor_defining_identity():
    g, gg, _, vtens = phi_identity_data()
    cls = 0
    p = ("a", Fraction(0))
    j1 = g.glue_map(cls, p)
    j1p = gg.glue_map(cls, p)
    jt = vtens.glue_map(cls, p)
    phi = phi_sum(vtens, None, p)
    kron = [[j1[0][0] * j1p[0][0]]]
    assert mat_mul(phi, kron) == jt


def test_phi_dual_three_cases():
    g, _, _, _ = phi_identity_data()
    d = dual_bundle(g)
    # off either leg's glue locus: identity
    assert phi_dual(g, ("a", 1)) == identity(1)
    assert phi_dual(g, ("b", -2)) == identity(1)
    # over the glue: the transpose of the fibre glue map, and it carries
    # the source dual metric to the target dual metric
    p = ("a", Fraction(0))
    phi = phi_dual(g, p)
    assert phi == transpose(g.glue_map(0, p))
    b_src = [[1 / g.metric_at(("b", 0))[0][0]]]
    b_dst = [[1 / eval_matrix(g.metrics["a"], 0)[0][0]]]
    pulled = mat_mul(transpose(phi), mat_mul(b_dst, phi))
    assert pulled == b_src
    # and it matches the glue map the dual bundle actually stores
    rev_cls = 0
    assert d.glue_map(rev_cls, ("b", Fraction(0))) == phi


def _blockdiag(a, b):
    n, m = len(a), len(b)
    out = [[Fraction(0)] * (n + m) for _ in range(n + m)]
    for i in range(n):
        for j in range(n):
            out[i][j] = a[i][j]
    for i in range(m):
        for j in range(m):
            out[n + i][n + j] = b[i][j]
    return out


def test_emat_block_sum_fill_follows_entries():
    exprs = emat_block_sum(expr_matrix([["x"]]), expr_matrix([["1", "x"],
                                                              ["0", "2"]]))
    assert exprs[0][1] == symexpr.ZERO and exprs[2][0] == symexpr.ZERO
    assert all(isinstance(v, symexpr.Expr) for row in exprs for v in row)
    fracs = emat_block_sum(identity(1), frac_matrix([[2, 1], [0, 3]]))
    assert fracs == frac_matrix([[1, 0, 0], [0, 2, 1], [0, 0, 3]])
    assert all(type(v) is Fraction for row in fracs for v in row)

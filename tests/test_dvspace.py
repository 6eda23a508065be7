import math
import os
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, strategies as st

from diffwedge.cli import load_config, run
from diffwedge import cli, dvspace
from diffwedge.dvspace import (DvsModel, apply_form, characteristic_subspace,
                               check_dual_compatibility,
                               check_map_compatibility, dual_map, dual_metric,
                               dual_space, is_pseudo_metric, pairing_map,
                               smooth_form_basis, standard_model)
from diffwedge.linalg import (congruent_diagonal, frac_matrix, identity,
                              inverse, is_symmetric, mat_mul, mat_vec,
                              nullspace, rref, solve, transpose)
from diffwedge.symexpr import Verdict

M3 = DvsModel(3, ((0, 1, 1),))
A3 = frac_matrix([[2, 1, -1], [1, 2, -2], [-1, -2, 2]])
K3 = DvsModel(3, ((0, 0, 1),))


def test_dual_basis_worked_example():
    assert dual_space(M3) == frac_matrix([[1, 0, 0], [0, 1, -1]])


def test_dual_full_when_no_nonsmooth():
    assert dual_space(standard_model(4)) == frac_matrix(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


def test_dual_annihilator_2d():
    assert dual_space(DvsModel(2, ((0, 1),))) == frac_matrix([[1, 0]])


def test_smooth_form_shape():
    basis = smooth_form_basis(M3)
    assert len(basis) == 3
    for m in basis:
        c, a = m[0][0], m[0][1]
        b = m[1][1]
        assert m == frac_matrix([[c, a, -a], [a, b, -b], [-a, -b, b]])


def test_smooth_forms_standard_and_line():
    assert len(smooth_form_basis(standard_model(2))) == 3
    basis = smooth_form_basis(DvsModel(2, ((0, 1),)))
    assert basis == [frac_matrix([[1, 0], [0, 0]])]


def test_smooth_form_basis_annihilates_k_oracle():
    # independent check with sympy nullspaces
    for gens in [((0, 1, 1),), ((1, 0, 0), (0, 1, 0)), ()]:
        m = DvsModel(3, gens)
        for a in smooth_form_basis(m):
            sym = sympy.Matrix([[float(x) for x in row] for row in a])
            assert sym.is_symmetric()
            for k in m.k_basis:
                assert all(v == 0 for v in mat_vec(a, k))


def test_is_pseudo_metric_worked_example():
    assert is_pseudo_metric(M3, A3).ok
    # the rank is reported with the verdict: the worked example's
    # dual-metric report, two_planes.json carrying M3 and A3
    cfg = load_config(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "configs", "two_planes.json"))
    assert cfg["fibre"]["model"] == M3 and cfg["fibre"]["metric"] == A3
    entry = run("dual-metric", cfg)[0]["verdicts"][0]
    assert entry == {"name": "pseudo-metric", "pass": True, "reason": "",
                     "rank": 2}


def test_is_pseudo_metric_failures():
    assert is_pseudo_metric(standard_model(3),
                            [[1, 0, 0], [0, 1, 0], [0, 0, 1]]).ok
    v = is_pseudo_metric(M3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert not v.ok and "small" in v.witness
    v = is_pseudo_metric(standard_model(2), [[1, 2], [3, 4]])
    assert not v.ok and v.witness == "not symmetric"
    v = is_pseudo_metric(standard_model(2), [[1, 0], [0, -1]])
    assert not v.ok and "semidefinite" in v.witness
    with pytest.raises(ValueError):
        is_pseudo_metric(M3, [[1, 0], [0, 1]])


def test_is_pseudo_metric_kernel_other_than_k():
    v = is_pseudo_metric(K3, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert not v.ok and v.witness == "kernel too large (degenerate beyond K)"
    v = is_pseudo_metric(K3, [[1, 0, 0], [0, 0, 0], [0, 0, 1]])
    assert not v.ok and v.witness == "kernel differs from K"


def _rank(m):
    return len(rref(m)[1]) if m else 0


def _span_equal(basis_a, basis_b):
    """The span test is_pseudo_metric used before it read the kernel off
    the congruent diagonal."""
    if not basis_a and not basis_b:
        return True
    if not basis_a or not basis_b:
        return all(all(v == 0 for v in vec) for vec in basis_a + basis_b)
    ra = _rank(basis_a)
    rb = _rank(basis_b)
    return ra == rb == _rank(basis_a + basis_b)


def _is_pseudo_metric_by_nullspace(model, a):
    """The is_pseudo_metric that compared nullspace(a) with K by rank."""
    a = frac_matrix(a)
    if not is_symmetric(a):
        return Verdict(False, witness="not symmetric")
    if any(d < 0 for d in congruent_diagonal(a)[1]):
        return Verdict(False, witness="not positive semidefinite")
    ker = nullspace(a)
    if not _span_equal(ker, model.k_basis):
        if len(ker) < model.k_dim:
            return Verdict(False, witness="kernel too small (does not contain K)")
        if len(ker) > model.k_dim:
            return Verdict(False, witness="kernel too large (degenerate beyond K)")
        return Verdict(False, witness="kernel differs from K")
    return Verdict(True)


@st.composite
def _model_and_form(draw):
    """A fibre of dim <= 4 and a matrix on it: a Gram matrix B^T B, whose
    kernel may be smaller than, larger than, or other than K, or a
    symmetric matrix, PSD or not, or one that is not symmetric."""
    n = draw(st.integers(1, 4))
    small = st.integers(-2, 2)
    gens = draw(st.lists(st.lists(small, min_size=n, max_size=n), max_size=n))
    model = DvsModel(n, tuple(map(tuple, gens)))
    family = draw(st.sampled_from(["gram", "symmetric", "any"]))
    if family == "gram":
        b = [[draw(small) for _ in range(n)] for _ in range(draw(st.integers(0, n)))]
        return model, mat_mul(transpose(b), b) if b else frac_matrix([[0] * n] * n)
    a = [[Fraction(draw(small)) for _ in range(n)] for _ in range(n)]
    if family == "symmetric":
        a = [[a[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    return model, a


@given(_model_and_form())
@example((M3, A3))
@example((standard_model(2), frac_matrix([[1, 2], [3, 4]])))
@example((standard_model(2), frac_matrix([[1, 0], [0, -1]])))
@example((M3, identity(3)))
@example((K3, frac_matrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]])))
@example((K3, frac_matrix([[1, 0, 0], [0, 0, 0], [0, 0, 1]])))
def test_is_pseudo_metric_matches_the_nullspace_oracle(case):
    model, a = case
    assert is_pseudo_metric(model, a) == _is_pseudo_metric_by_nullspace(model, a)


def test_model_rejects_bad_shapes():
    with pytest.raises(ValueError, match="^dimension must be positive$"):
        DvsModel(0)
    # a zero generator of the wrong length is refused, not dropped
    for dim, gens in ((2, ((1, 0, 0),)), (3, ((0, 0),)),
                      (3, ((0, 1, 1), (0, 0, 0, 0)))):
        with pytest.raises(ValueError, match="^generator length does not "
                                             "match dimension$"):
            DvsModel(dim, gens)


def test_characteristic_subspace():
    v0 = characteristic_subspace(M3, A3)
    assert len(v0) == 2
    # complements K: together they span everything
    assert len(rref(v0 + M3.k_basis)[1]) == 3
    assert characteristic_subspace(
        DvsModel(2, ((0, 1),)), [[4, 0], [0, 0]]) == [frac_matrix([[1, 0]])[0]]


def test_pairing_map_worked_example():
    assert pairing_map(M3, A3, [[1, 0, 0], [0, 1, 1]]) == [
        [Fraction(2), Fraction(1)], [Fraction(0), Fraction(0)]]
    std = standard_model(2)
    assert pairing_map(std, [[1, 0], [0, 1]], [[3, 5]]) == [[3, 5]]


def test_pairing_map_refuses_a_vector_of_the_wrong_length():
    # refused, not truncated or padded to the answer for (1, 0, 0)
    for v in ([1, 0], [1, 0, 0, 5]):
        with pytest.raises(ValueError, match="^vector length does not match "
                                             "the fibre dimension$"):
            pairing_map(M3, A3, [[0, 1, 1], v])


def test_dual_metric_worked_example():
    b = dual_metric(M3, A3)
    assert b == frac_matrix([[Fraction(6, 9), Fraction(-3, 9)],
                             [Fraction(-3, 9), Fraction(6, 9)]])


def test_dual_metric_defining_identity():
    # the oracle: B(phi(u), phi(v)) = g(u, v) on all basis pairs
    for model, g in [(M3, A3),
                     (standard_model(2), frac_matrix([[2, 1], [1, 3]])),
                     (DvsModel(2, ((0, 1),)), frac_matrix([[4, 0], [0, 0]]))]:
        b = dual_metric(model, g)
        n = model.dim
        phi = pairing_map(model, g, identity(n))
        for i in range(n):
            for j in range(n):
                assert apply_form(b, phi[i], phi[j]) == g[i][j]


def _dual_metric_by_pairing(model, a):
    """The dual_metric the closed form replaced: push the characteristic
    subspace V0 through the pairing map P and solve P^T B P = V0 a V0^T."""
    v0 = characteristic_subspace(model, a)
    if not v0:
        return []
    p = transpose(pairing_map(model, a, v0))
    g = mat_mul(v0, mat_mul(a, transpose(v0)))
    p_inv = inverse(p)
    return mat_mul(transpose(p_inv), mat_mul(g, p_inv))


@st.composite
def _fibre_metric(draw):
    """A fibre of dim <= 5 with a pseudo-metric D^T (C^T C + I) D on it, D
    its dual basis as rows: positive definite on the dual, kernel K."""
    n = draw(st.integers(1, 5))
    small = st.integers(-2, 2)
    gens = draw(st.lists(st.lists(small, min_size=n, max_size=n), max_size=n))
    model = DvsModel(n, tuple(map(tuple, gens)))
    d = dual_space(model)
    c = [[Fraction(draw(small)) for _ in d] for _ in d]
    s = mat_mul(transpose(c), c) if d else []
    for i in range(len(d)):
        s[i][i] += 1
    a = mat_mul(transpose(d), mat_mul(s, d)) if d else frac_matrix([[0] * n] * n)
    return model, a


@given(_fibre_metric())
@example((M3, A3))
def test_dual_metric_matches_the_pairing_oracle(case):
    model, a = case
    assert dual_metric(model, a) == _dual_metric_by_pairing(model, a)


def _pairing_by_solve(model, a, v):
    """phi(v) as pairing_map found it before it took many vectors: one
    solve of D^T x = a v per vector; None when a v is outside the smooth
    dual, which a 0-dimensional dual leaves only to a v = 0."""
    cov = mat_vec(frac_matrix(a), frac_matrix([v])[0])
    dual = dual_space(model)
    if not dual:
        return None if any(cov) else []
    return solve(transpose(dual), cov)


@st.composite
def _pairing_case(draw):
    """A fibre, a pseudo-metric or any matrix on it, and vectors to pair."""
    model, a = draw(st.one_of(_fibre_metric(), _model_and_form()))
    entry = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2)])
    vs = draw(st.lists(st.lists(entry, min_size=model.dim,
                                max_size=model.dim),
                       min_size=1, max_size=model.dim + 1))
    return model, a, vs


@given(_pairing_case())
@example((M3, A3, identity(3)))
@example((M3, identity(3), [[0, 1, 1]]))
@example((DvsModel(2, ((1, 0), (0, 1))), frac_matrix([[0, 0], [0, 1]]),
          [[1, 0], [0, 1]]))
def test_pairing_map_matches_per_vector_solve(case):
    model, a, vs = case
    want = [_pairing_by_solve(model, a, v) for v in vs]
    if None in want:
        with pytest.raises(ValueError, match="^pairing image is outside "
                                             "the smooth dual$"):
            pairing_map(model, a, vs)
    else:
        assert pairing_map(model, a, vs) == want


def test_defining_identity_fails_on_a_wrong_pairing_map(monkeypatch):
    # B no longer comes from pairing_map, so a pairing map off by 2 breaks
    # B(phi(u), phi(v)) = g(u, v) instead of cancelling out of it
    def doubled(model, a, vs, _pair=pairing_map):
        return [[2 * c for c in row] for row in _pair(model, a, vs)]

    monkeypatch.setattr(dvspace, "pairing_map", doubled)
    monkeypatch.setattr(cli, "pairing_map", doubled)
    cfg = load_config(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "configs", "two_planes.json"))
    report, code = run("dual-metric", cfg)
    assert code == 1
    assert report["failed"] == ["dual-metric-defining-identity"]


def test_dual_metric_small_cases():
    assert dual_metric(standard_model(2), [[1, 0], [0, 1]]) == frac_matrix(
        [[1, 0], [0, 1]])
    assert dual_metric(DvsModel(2, ((0, 1),)), [[4, 0], [0, 0]]) == [
        [Fraction(1, 4)]]


def test_map_compatibility_one_dim_scaling():
    m = standard_model(1)
    # g1 = f1(0), g2 = f2(0), F = (.a): compatible iff f1(0) = a^2 f2(0)
    assert check_map_compatibility(m, [[4]], m, [[1]], [[2]]).ok
    v = check_map_compatibility(m, [[1]], m, [[1]], [[2]])
    assert not v.ok and "4" in v.witness


def test_map_compatibility_identity_and_conditions():
    m = standard_model(2)
    g = frac_matrix([[1, 0], [0, 2]])
    assert check_map_compatibility(m, g, m, g, [[1, 0], [0, 1]]).ok
    # rank-deficient map kills part of the characteristic subspace
    assert not check_map_compatibility(m, g, m, g, [[1, 0], [0, 0]]).ok


def test_dual_map_one_dim():
    m = standard_model(1)
    assert dual_map(m, m, [[2]]) == frac_matrix([[2]])
    assert check_dual_compatibility(m, [[4]], m, [[1]], [[2]])


def test_dual_map_identity():
    m = standard_model(2)
    g = frac_matrix([[1, 0], [0, 1]])
    assert check_dual_compatibility(m, g, m, g, [[1, 0], [0, 1]])


def test_dual_incompatible_for_proper_embedding():
    # standard embedding of the line into the plane, scalar products
    m1, m2 = standard_model(1), standard_model(2)
    f = [[1], [0]]
    assert not check_dual_compatibility(m1, [[1]], m2,
                                        [[1, 0], [0, 1]], f)


@given(st.integers(1, 4), st.lists(
    st.lists(st.integers(-3, 3), min_size=4, max_size=4), max_size=2))
def test_dual_dim_plus_k_dim(n, gens):
    gens = tuple(tuple(g[:n]) for g in gens)
    m = DvsModel(n, gens)
    assert len(dual_space(m)) + m.k_dim == n


def test_pairing_kernel_is_k():
    assert pairing_map(M3, A3, M3.k_basis) == [[0, 0]]


def test_characteristic_decomposition():
    v0 = characteristic_subspace(M3, A3)
    k = M3.k_basis[0]
    for u in v0:
        for w in v0:
            shifted = apply_form(A3, [a + b for a, b in zip(u, k)],
                                 [a + 2 * b for a, b in zip(w, k)])
            assert shifted == apply_form(A3, u, w)


# exact linear algebra backing, checked against sympy

def test_nullspace_against_sympy():
    mats = [[[0, 1, 1]], [[1, 2, 3], [4, 5, 6]], [[1, 1], [1, 1]]]
    for m in mats:
        ours = nullspace(frac_matrix(m))
        theirs = sympy.Matrix(m).nullspace()
        assert len(ours) == len(theirs)
        sp = [[Fraction(str(v)) for v in vec] for vec in
              (list(t) for t in theirs)]
        # equally many vectors span one space when their RREFs agree
        assert rref(ours) == rref(sp)


def test_congruent_diagonal_property():
    mats = [A3, frac_matrix([[0, 1], [1, 0]]), frac_matrix([[2, 1], [1, 2]]),
            frac_matrix([[0, 0], [0, 0]])]
    for a in mats:
        p, d = congruent_diagonal(a)
        lhs = mat_mul(transpose(p), mat_mul(a, p))
        n = len(a)
        assert lhs == [[d[i] if i == j else Fraction(0) for j in range(n)]
                       for i in range(n)]


def _congruent_diagonal_by_forms(a):
    """The O(n^4) congruent_diagonal the Gram elimination replaced: it
    re-evaluates the form on every pair of remaining vectors.  Same pivot
    rule, so it must give the same (p, diag) entry for entry."""
    n = len(a)
    diag = []
    done = []
    remaining = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    a_form = lambda u, v: sum(u[i] * a[i][j] * v[j] for i in range(n) for j in range(n))
    while remaining:
        idx = next((k for k, v in enumerate(remaining) if a_form(v, v) != 0), None)
        if idx is None:
            pair = None
            for i in range(len(remaining)):
                for j in range(i + 1, len(remaining)):
                    if a_form(remaining[i], remaining[j]) != 0:
                        pair = (i, j)
                        break
                if pair:
                    break
            if pair is None:
                for v in remaining:
                    done.append(v)
                    diag.append(Fraction(0))
                break
            i, j = pair
            remaining[i] = [x + y for x, y in zip(remaining[i], remaining[j])]
            idx = i
        v = remaining.pop(idx)
        d = a_form(v, v)
        done.append(v)
        diag.append(d)
        remaining = [
            [wi - (a_form(v, w) / d) * vi for wi, vi in zip(w, v)]
            for w in remaining
        ]
    return transpose(done), diag


@st.composite
def _symmetric(draw):
    """Symmetric rational matrices, n <= 7: of low-rank Gram form B^T B
    (pivots that skip kernel directions), or with a zero or mostly-zero
    diagonal (the pair and all-kernel branches)."""
    n = draw(st.integers(1, 7))
    small = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4)])
    family = draw(st.sampled_from(["gram", "zero-diagonal", "sparse-diagonal"]))
    if family == "gram":
        b = [[draw(small) for _ in range(n)] for _ in range(draw(st.integers(0, n)))]
        return mat_mul(transpose(b), b) if b else frac_matrix([[0] * n] * n)
    diagonal = st.sampled_from([0] if family == "zero-diagonal"
                               else [0, 0, 0, 0, 1, -2])
    a = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = Fraction(draw(diagonal))
        for j in range(i + 1, n):
            a[i][j] = a[j][i] = Fraction(draw(small))
    return a


@given(_symmetric())
@example(frac_matrix([[0, 1], [1, 0]]))
@example(frac_matrix([[0, 0, 1], [0, 0, 0], [1, 0, 0]]))
def test_congruent_diagonal_matches_the_form_oracle(a):
    p, d = congruent_diagonal(a)
    assert (p, d) == _congruent_diagonal_by_forms(a)
    n = len(a)
    assert mat_mul(transpose(p), mat_mul(a, p)) == [
        [d[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def test_congruent_diagonal_signs_against_sympy():
    # PSD exactly when no entry of the congruent diagonal is negative
    mats = [([[2, 1], [1, 2]], True), ([[1, 2], [2, 1]], False),
            ([[0, 0], [0, 0]], True), ([[0, 1], [1, 0]], False)]
    for m, want in mats:
        _, d = congruent_diagonal(frac_matrix(m))
        assert all(x >= 0 for x in d) is want
        assert sympy.Matrix(m).is_positive_semidefinite is want


def test_map_compatibility_exact_on_rationals_tolerant_on_floats():
    m = standard_model(1)
    # a float metric value within TOL, relative to its size, of its rational
    # counterpart; 1e-9 is not
    assert check_map_compatibility(m, [[5 / 3]], m, [[Fraction(5, 3)]],
                                   [[1]]).ok
    assert not check_map_compatibility(m, [[5 / 3 + 1e-9]], m,
                                       [[Fraction(5, 3)]], [[1]]).ok
    # rational input stays exact, however small the difference
    near = Fraction(5, 3) + Fraction(1, 10**20)
    assert not check_map_compatibility(m, [[near]], m, [[Fraction(5, 3)]],
                                       [[1]]).ok
    # floats are compared relative to their size, and must be finite
    assert check_map_compatibility(m, [[1e20]], m, [[1e20 + 2**20]], [[1]])
    with pytest.raises(OverflowError):
        check_map_compatibility(m, [[math.inf]], m, [[1]], [[1]])
    with pytest.raises(ValueError):
        check_map_compatibility(m, [[1]], m, [[math.nan]], [[1]])


def test_dual_metric_of_all_nonsmooth_fibre_is_empty():
    m = DvsModel(2, ((1, 0), (0, 1)))
    assert dual_space(m) == []
    assert dual_metric(m, [[0, 0], [0, 0]]) == []

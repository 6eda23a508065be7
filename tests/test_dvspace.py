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
from diffwedge.linalg import (congruent_diagonal, frac_matrix, inverse, is_psd,
                              mat_mul, mat_vec, nullspace, rank, span_equal,
                              transpose)

M3 = DvsModel(3, ((0, 1, 1),))
A3 = frac_matrix([[2, 1, -1], [1, 2, -2], [-1, -2, 2]])


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
    k3 = DvsModel(3, ((0, 0, 1),))
    v = is_pseudo_metric(k3, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert not v.ok and v.witness == "kernel too large (degenerate beyond K)"
    v = is_pseudo_metric(k3, [[1, 0, 0], [0, 0, 0], [0, 0, 1]])
    assert not v.ok and v.witness == "kernel differs from K"


def test_model_rejects_bad_shapes():
    with pytest.raises(ValueError, match="^dimension must be positive$"):
        DvsModel(0)
    with pytest.raises(ValueError, match="^generator length does not match "
                                         "dimension$"):
        DvsModel(2, ((1, 0, 0),))


def test_characteristic_subspace():
    v0 = characteristic_subspace(M3, A3)
    assert len(v0) == 2
    # complements K: together they span everything
    assert rank(v0 + M3.k_basis) == 3
    assert characteristic_subspace(
        DvsModel(2, ((0, 1),)), [[4, 0], [0, 0]]) == [frac_matrix([[1, 0]])[0]]


def test_pairing_map_worked_example():
    assert pairing_map(M3, A3, [1, 0, 0]) == [Fraction(2), Fraction(1)]
    assert pairing_map(M3, A3, [0, 1, 1]) == [Fraction(0), Fraction(0)]
    std = standard_model(2)
    assert pairing_map(std, [[1, 0], [0, 1]], [3, 5]) == [3, 5]


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
        for i in range(n):
            for j in range(n):
                ei = [Fraction(int(i == t)) for t in range(n)]
                ej = [Fraction(int(j == t)) for t in range(n)]
                lhs = apply_form(b, pairing_map(model, g, ei),
                                 pairing_map(model, g, ej))
                assert lhs == g[i][j]


def _dual_metric_by_pairing(model, a):
    """The dual_metric the closed form replaced: push the characteristic
    subspace V0 through the pairing map P and solve P^T B P = V0 a V0^T."""
    v0 = characteristic_subspace(model, a)
    if not v0:
        return []
    p = transpose([pairing_map(model, a, v) for v in v0])
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


def test_defining_identity_fails_on_a_wrong_pairing_map(monkeypatch):
    # B no longer comes from pairing_map, so a pairing map off by 2 breaks
    # B(phi(u), phi(v)) = g(u, v) instead of cancelling out of it
    def doubled(model, a, v, _pair=pairing_map):
        return [2 * c for c in _pair(model, a, v)]

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
    ker = [v for v in M3.k_basis]
    for k in ker:
        assert pairing_map(M3, A3, k) == [0, 0]


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
        assert span_equal(ours, sp)


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


def test_is_psd_against_sympy():
    mats = [([[2, 1], [1, 2]], True), ([[1, 2], [2, 1]], False),
            ([[0, 0], [0, 0]], True), ([[0, 1], [1, 0]], False)]
    for m, want in mats:
        assert is_psd(frac_matrix(m)) is want
        assert sympy.Matrix(m).is_positive_semidefinite is want


def test_map_compatibility_exact_on_rationals_tolerant_on_floats():
    m = standard_model(1)
    # a float metric value within 1e-12 of its rational counterpart
    assert check_map_compatibility(m, [[5 / 3]], m, [[Fraction(5, 3)]],
                                   [[1]]).ok
    assert not check_map_compatibility(m, [[5 / 3 + 1e-9]], m,
                                       [[Fraction(5, 3)]], [[1]]).ok
    # rational input stays exact, however small the difference
    near = Fraction(5, 3) + Fraction(1, 10**20)
    assert not check_map_compatibility(m, [[near]], m, [[Fraction(5, 3)]],
                                       [[1]]).ok


def test_dual_metric_of_all_nonsmooth_fibre_is_empty():
    m = DvsModel(2, ((1, 0), (0, 1)))
    assert dual_space(m) == []
    assert dual_metric(m, [[0, 0], [0, 0]]) == []

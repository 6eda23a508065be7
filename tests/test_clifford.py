from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, strategies as st

from diffwedge.clifford import (CliffordAlgebra, _blade_factors, blade_mul,
                                build_algebra, cl_action, cl_mul, contract,
                                exterior_algebra, filtration_degree, mv_add,
                                mv_scale, multiplication_table, parity,
                                quantize, scalar, symbol, to_frame_coords,
                                vector_mv, wedge)
from diffwedge.dvspace import standard_model
from diffwedge.linalg import frac_matrix


def diag_algebra(diag):
    n = len(diag)
    g = [[Fraction(diag[i]) if i == j else Fraction(0) for j in range(n)]
         for i in range(n)]
    if all(d == 0 for d in diag):
        return exterior_algebra(n)
    gens = tuple(tuple(Fraction(int(t == i)) for t in range(n))
                 for i, d in enumerate(diag) if d == 0)
    from diffwedge.dvspace import DvsModel
    return build_algebra(DvsModel(n, gens), g)


def blades(alg):
    return [{m: Fraction(1)} for m in range(alg.dim)]


def mv_eq(a, b):
    return a == b


def test_dimension_is_2_to_n():
    for n in range(1, 6):
        alg = diag_algebra([1] * n)
        assert alg.dim == 2 ** n


def test_one_dim_table():
    alg = diag_algebra([1])
    table = {(a, b): {c: v} for a, b, c, v in multiplication_table(alg)}
    assert table[("1", "1")] == {"1": 1}
    assert table[("1", "e1")] == {"e1": 1}
    assert table[("e1", "e1")] == {"1": -1}


def test_exterior_case():
    alg = exterior_algebra(2)
    e1, e2 = {1: Fraction(1)}, {2: Fraction(1)}
    assert cl_mul(alg, e1, e1) == {}
    assert cl_mul(alg, e1, e2) == {3: Fraction(1)}
    assert cl_mul(alg, e2, e1) == {3: Fraction(-1)}


def test_volume_element_squares_to_minus_one():
    alg = diag_algebra([1, 1])
    e12 = {3: Fraction(1)}
    assert cl_mul(alg, e12, e12) == {0: Fraction(-1)}


def test_mixed_product_frozen_value():
    # (e1+e2)(e1-e2) with g = diag(1,4) equals 3 - 2 e1^e2
    alg = diag_algebra([1, 4])
    a = {1: Fraction(1), 2: Fraction(1)}
    b = {1: Fraction(1), 2: Fraction(-1)}
    assert cl_mul(alg, a, b) == {0: Fraction(3), 3: Fraction(-2)}


def test_generator_relations():
    alg = diag_algebra([2, 3, 5])
    for i in range(3):
        ei = {1 << i: Fraction(1)}
        assert cl_mul(alg, ei, ei) == {0: -alg.diag[i]}
        for j in range(3):
            if i != j:
                ej = {1 << j: Fraction(1)}
                anti = mv_add(cl_mul(alg, ei, ej), cl_mul(alg, ej, ei))
                assert anti == {}


@pytest.mark.parametrize("diag", [[1, 1, 1, 1], [1, 2, 0, 3], [0, 0, 0, 0]])
def test_associativity_exhaustive_n4(diag):
    alg = diag_algebra(diag)
    bs = blades(alg)
    for a, b, c in product(bs, bs, bs):
        assert cl_mul(alg, cl_mul(alg, a, b), c) == \
            cl_mul(alg, a, cl_mul(alg, b, c))


def test_product_respects_parity():
    alg = diag_algebra([1, 2, 3])
    for sa in range(alg.dim):
        for sb in range(alg.dim):
            prod = cl_mul(alg, {sa: Fraction(1)}, {sb: Fraction(1)})
            for m in prod:
                assert parity(m) == (parity(sa) + parity(sb)) % 2


def test_filtration_degree_subadditive():
    alg = diag_algebra([1, 1, 1])
    for sa in range(alg.dim):
        for sb in range(alg.dim):
            prod = cl_mul(alg, {sa: Fraction(1)}, {sb: Fraction(1)})
            assert filtration_degree(prod) <= \
                sa.bit_count() + sb.bit_count()


def test_action_representation_oracle():
    # independent check of the table: the operator c is an algebra action,
    # so multiplying blades and acting must agree with composing actions
    alg = diag_algebra([1, 2])

    def act_blade(mask, target):
        out = dict(target)
        for i in reversed(range(alg.n)):
            if mask >> i & 1:
                coords = [Fraction(0)] * alg.n
                coords[i] = Fraction(1)
                out = cl_action(alg, coords, out)
        return out

    for sa in range(alg.dim):
        for sb in range(alg.dim):
            prod = cl_mul(alg, {sa: Fraction(1)}, {sb: Fraction(1)})
            via_product = {}
            for m, c in prod.items():
                via_product = mv_add(via_product,
                                     mv_scale(c, act_blade(m, scalar(Fraction(1)))))
            via_composition = act_blade(sa, act_blade(sb, scalar(Fraction(1))))
            assert via_product == via_composition


def test_wedge_basics():
    alg = exterior_algebra(3)
    e1, e2 = {1: Fraction(1)}, {2: Fraction(1)}
    assert wedge(alg, e1, e2) == {3: Fraction(1)}
    assert wedge(alg, e1, e1) == {}
    # graded anticommutativity on blades
    for sa in range(alg.dim):
        for sb in range(alg.dim):
            ab = wedge(alg, {sa: Fraction(1)}, {sb: Fraction(1)})
            ba = wedge(alg, {sb: Fraction(1)}, {sa: Fraction(1)})
            sign = (-1) ** (sa.bit_count() * sb.bit_count())
            assert ab == mv_scale(Fraction(sign), ba)


def test_contract_examples():
    alg = diag_algebra([1, 1])
    e1 = [Fraction(1), Fraction(0)]
    assert contract(alg, e1, {3: Fraction(1)}) == {2: Fraction(1)}
    assert contract(alg, e1, scalar(Fraction(1))) == {}


def test_contract_graded_derivation():
    alg = diag_algebra([1, 2, 3])
    v = [Fraction(1), Fraction(-2), Fraction(1)]
    for sa in range(alg.dim):
        for sb in range(alg.dim):
            a, b = {sa: Fraction(1)}, {sb: Fraction(1)}
            lhs = contract(alg, v, wedge(alg, a, b))
            sign = Fraction((-1) ** sa.bit_count())
            rhs = mv_add(wedge(alg, contract(alg, v, a), b),
                         mv_scale(sign, wedge(alg, a, contract(alg, v, b))))
            assert lhs == rhs


def test_action_examples():
    alg = diag_algebra([1, 1])
    e1 = [Fraction(1), Fraction(0)]
    assert cl_action(alg, e1, scalar(Fraction(1))) == {1: Fraction(1)}
    assert cl_action(alg, e1, {1: Fraction(1)}) == {0: Fraction(-1)}
    ext = exterior_algebra(2)
    assert cl_action(ext, e1, {2: Fraction(1)}) == {3: Fraction(1)}


def test_action_squares_to_minus_q():
    alg = diag_algebra([2, 3])
    v = [Fraction(1), Fraction(2)]
    q = 2 * 1 + 3 * 4
    for s in range(alg.dim):
        twice = cl_action(alg, v, cl_action(alg, v, {s: Fraction(1)}))
        assert twice == {s: Fraction(-q)}


def test_epsilon_i_anticommutation():
    # wedge by v and contraction by w anticommute to q(v, w) id
    alg = diag_algebra([1, 2, 5])
    for i in range(3):
        for j in range(3):
            v = [Fraction(int(t == i)) for t in range(3)]
            w = [Fraction(int(t == j)) for t in range(3)]
            q = alg.diag[i] if i == j else Fraction(0)
            for s in range(alg.dim):
                blade = {s: Fraction(1)}
                vmv = {1 << i: Fraction(1)}
                lhs = mv_add(wedge(alg, vmv, contract(alg, w, blade)),
                             contract(alg, w, wedge(alg, vmv, blade)))
                assert lhs == mv_scale(q, blade)


def test_contraction_adjoint_of_wedge():
    # for g = identity, on the induced scalar product of the exterior algebra
    for n in range(1, 4):
        alg = diag_algebra([1] * n)
        for i in range(n):
            v = [Fraction(int(t == i)) for t in range(n)]
            vmv = {1 << i: Fraction(1)}
            for sa in range(alg.dim):
                for sb in range(alg.dim):
                    lhs = wedge(alg, vmv, {sa: Fraction(1)}).get(sb, 0)
                    rhs = contract(alg, v, {sb: Fraction(1)}).get(sa, 0)
                    assert lhs == rhs


def test_symbol_quantize_round_trip():
    for n in range(1, 5):
        alg = diag_algebra(list(range(1, n + 1)))
        for s in range(alg.dim):
            blade = {s: Fraction(1)}
            assert symbol(alg, quantize(alg, blade)) == blade


def test_symbol_of_unit():
    alg = diag_algebra([1, 1])
    assert symbol(alg, scalar(Fraction(1))) == {0: Fraction(1)}


def test_build_algebra_nonorthogonal_metric():
    # frame columns must diagonalize the form
    g = frac_matrix([[2, 1], [1, 2]])
    alg = build_algebra(standard_model(2), g)
    coords = to_frame_coords(alg, [Fraction(1), Fraction(0)])
    v = vector_mv(alg, [Fraction(1), Fraction(0)])
    assert cl_mul(alg, v, v) == {0: Fraction(-2)}


def test_rejects_invalid_metric():
    with pytest.raises(ValueError):
        build_algebra(standard_model(2), [[1, 0], [0, -1]])


def _blade_mul_by_bits(mask_a, mask_b, diag):
    """The bit-by-bit blade product that the popcount sign and the factor
    table replaced: each generator of b moves past the higher generators
    of a, then squares against a shared one or is inserted."""
    coeff = 1
    out = mask_a
    for i in range(len(diag)):
        if not mask_b >> i & 1:
            continue
        if (out >> (i + 1)).bit_count() % 2:
            coeff = -coeff
        if out >> i & 1:
            out &= ~(1 << i)
            coeff = coeff * -diag[i]
        else:
            out |= 1 << i
    return out, coeff


# Fraction diagonals, as build_algebra makes, or float ones.  A Fraction 0
# has no sign, so a diagonal mixing it with floats may give 0.0 where the
# bit loop's sign flips, lost in that 0, gave -0.0.
DIAGONALS = st.one_of(
    st.lists(st.sampled_from([0, 0, 1, 2, -3, Fraction(1, 2), Fraction(-7, 3)])
             .map(Fraction), max_size=5),
    st.lists(st.floats(-4, 4, allow_nan=False, allow_infinity=False)
             | st.sampled_from([0.0, -0.0]), max_size=5))


@given(DIAGONALS)
@example([0.1, -0.0, 0.0, 3.0000000000000004])
@example([Fraction(0), Fraction(2), Fraction(0)])
def test_multiplication_table_matches_the_bit_loop(diag):
    # repr tells 1 from Fraction(1) and 0.0 from -0.0, which render apart
    alg = CliffordAlgebra(len(diag), (), tuple(diag))
    names = [alg.blade_name(m) for m in range(alg.dim)]
    want = {}
    for sa, sb in product(range(alg.dim), repeat=2):
        mask, coeff = _blade_mul_by_bits(sa, sb, alg.diag)
        want[(names[sa], names[sb])] = {names[mask]: repr(coeff)}
    rows = multiplication_table(alg)
    got = {(a, b): {c: repr(v)} for a, b, c, v in rows}
    assert got == want and len(rows) == len(want)
    # the rows come in the sorted order of the report keys "a . b"
    keys = [f"{a} . {b}" for a, b, _, _ in rows]
    assert keys == sorted(keys)


def test_flips_give_the_popcount_sign_exhaustively():
    flips, _ = _blade_factors([1] * 8)
    for a in range(1 << 8):
        for b in range(1 << 8):
            swaps = sum(((a >> k) & b).bit_count() for k in range(1, 8))
            assert (b & flips[a]).bit_count() % 2 == swaps % 2, (a, b)


def _combine_by_bits(a, b, diag):
    """cl_mul's accumulation, on the bit loop's blade products."""
    out = {}
    for sa, ca in a.items():
        for sb, cb in b.items():
            mask, coeff = _blade_mul_by_bits(sa, sb, diag)
            val = out.get(mask, 0) + ca * cb * coeff
            if val == 0:
                out.pop(mask, None)
            else:
                out[mask] = val
    return out


def _multivectors(n):
    return st.dictionaries(
        st.integers(0, (1 << n) - 1),
        st.integers(-3, 3) | st.fractions(max_denominator=5)
        | st.floats(-4, 4, allow_nan=False, allow_infinity=False),
        max_size=6)


@given(st.data(), DIAGONALS)
def test_products_match_the_bit_loop(data, diag):
    # cl_mul, wedge and cl_action against the bit loop, repr for repr
    n = len(diag)
    a = data.draw(_multivectors(n))
    b = data.draw(_multivectors(n))
    coords = data.draw(st.lists(st.integers(-2, 2) | st.fractions(
        max_denominator=3), min_size=n, max_size=n))
    alg = CliffordAlgebra(n, (), tuple(diag))
    assert repr(cl_mul(alg, a, b)) == repr(_combine_by_bits(a, b, alg.diag))
    zero = (0,) * n
    assert repr(wedge(alg, a, b)) == repr(_combine_by_bits(a, b, zero))
    v = {1 << i: c for i, c in enumerate(coords) if c != 0}
    want = mv_add(_combine_by_bits(v, b, zero),
                  mv_scale(-1, contract(alg, coords, b)))
    assert repr(cl_action(alg, coords, b)) == repr(want)


@pytest.mark.parametrize("diag", [
    (2.0, -0.5, 0.0, 3.0, -1 / 3, -0.0, 1.0, 0.1),
    tuple(map(Fraction, (2, -1, 0, 3, Fraction(-1, 3), 0, 1, Fraction(7, 2))))])
def test_blade_mul_matches_the_bit_loop_at_n8(diag):
    rule = _blade_factors(diag)
    for sa in range(1 << 8):
        for sb in range(1 << 8):
            got = blade_mul(sa, sb, rule)
            assert repr(got) == repr(_blade_mul_by_bits(sa, sb, diag))

"""The integer kernels of linalg against the Fraction loops they replaced."""

from fractions import Fraction

from hypothesis import example, given, strategies as st

import pytest

from diffwedge.linalg import frac_matrix, mat_mul, nullspace, rref, zeros


def _rref_by_fractions(m):
    """The Gauss-Jordan elimination on Fractions that the fraction-free
    rref replaced.  The RREF of a matrix is unique, so both must give the
    same matrix and pivots."""
    m = [row[:] for row in m]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [v - f * w for v, w in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def _mat_mul_by_loop(a, b):
    """The triple loop that mat_mul keeps for non-rational entries, and
    that it used for every input before."""
    n, k, m = len(a), len(b), len(b[0])
    out = zeros(n, m)
    for i in range(n):
        for t in range(k):
            if a[i][t] == 0:
                continue
            for j in range(m):
                out[i][j] += a[i][t] * b[t][j]
    return out


SMALL = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4)])
FINITE = st.floats(-8, 8, allow_nan=False, allow_infinity=False)
# exact images of doubles: denominators up to 2^52 and beyond
RATIONAL = st.one_of(SMALL.map(Fraction), FINITE.map(Fraction))


@st.composite
def _matrices(draw):
    """Wide, tall and empty matrices, some with a zero row and a row that
    is the sum of two others, some with a zero column."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(1, 7))
    m = [[draw(RATIONAL) for _ in range(cols)] for _ in range(rows)]
    if m and draw(st.booleans()):
        m.append([x + y for x, y in zip(m[0], m[-1])])
        m.insert(draw(st.integers(0, len(m))), [Fraction(0)] * cols)
    if draw(st.booleans()):
        c = draw(st.integers(0, cols - 1))
        for row in m:
            row[c] = Fraction(0)
    return m


@given(_matrices())
@example([])
@example([[Fraction(0)] * 3] * 2)
@example([[Fraction(1 + 2 ** -52), Fraction(2 ** -52)],
          [Fraction(3), Fraction(1, 3)]])
def test_rref_matches_the_fraction_oracle(m):
    red, pivots = rref(m)
    assert (red, pivots) == _rref_by_fractions(m)
    assert all(type(v) is Fraction for row in red for v in row)


def _nullspace_by_fractions(m):
    """The nullspace built on the Fraction RREF, which the one on the
    integer rows of the elimination replaced."""
    if not m:
        return []
    cols = len(m[0])
    red, pivots = _rref_by_fractions(m)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        lead = next(x for x in v if x != 0)
        if lead != 1:
            v = [x / lead if x else x for x in v]
        basis.append(v)
    return basis


@given(_matrices())
@example([])
@example([[Fraction(0)] * 3] * 2)
@example([[Fraction(0), Fraction(2), Fraction(-3, 4)],
          [Fraction(0), Fraction(1, 2), Fraction(5)]])
@example([[Fraction(1), Fraction(-1, 3), Fraction(2), Fraction(0)],
          [Fraction(2), Fraction(-2, 3), Fraction(7), Fraction(1)]])
def test_nullspace_matches_the_fraction_oracle(m):
    got = nullspace(m)
    assert repr(got) == repr(_nullspace_by_fractions(m))
    assert all(type(v) is Fraction for vec in got for v in vec)


@st.composite
def _products(draw):
    """(a, b) of compatible shapes with Fraction, int, float or mixed
    entries."""
    n, k, m = (draw(st.integers(1, 5)) for _ in range(3))
    entry = draw(st.sampled_from([
        RATIONAL, SMALL, SMALL.map(int), FINITE,
        st.one_of(RATIONAL, FINITE), st.one_of(SMALL.map(int), RATIONAL)]))
    return ([[draw(entry) for _ in range(k)] for _ in range(n)],
            [[draw(entry) for _ in range(m)] for _ in range(k)])


@given(_products())
@example(([[1, 0]], [[Fraction(1, 2)], [0.25]]))
@example(([[0, 0], [1, 2]], [[3, 4], [5, 6]]))
def test_mat_mul_matches_the_loop(ab):
    a, b = ab
    got, want = mat_mul(a, b), _mat_mul_by_loop(a, b)
    assert got == want
    assert [[type(v) for v in row] for row in got] == \
        [[type(v) for v in row] for row in want]


@pytest.mark.parametrize("a,b", [([[1, 2], [3, 4]], [[1]]),
                                 ([[1.5, 2], [3, 4]], [[1]]),
                                 ([[1]], [[1, 2], [3, 4]]),
                                 ([[1, 2], [3]], [[1], [2]])])
def test_mat_mul_refuses_inner_dimensions_that_differ(a, b):
    # both paths used to truncate to the shorter inner dimension
    with pytest.raises(ValueError, match="^inner dimensions of the "
                                         "product differ$"):
        mat_mul(a, b)


def test_frac_matrix_keeps_fractions_and_copies_rows():
    third = Fraction(1, 3)
    rows = [[1, 0.5, "-3/4", True], [third, Fraction(2), False, "7"]]
    out = frac_matrix(rows)
    assert out == [[1, Fraction(1, 2), Fraction(-3, 4), 1],
                   [third, 2, 0, 7]]
    assert all(type(v) is Fraction for row in out for v in row)
    assert out[1][0] is third and out[1][1] is rows[1][1]
    out[0][0] = Fraction(9)
    out[1].append(Fraction(5))
    assert rows == [[1, 0.5, "-3/4", True], [third, Fraction(2), False, "7"]]
    assert all(a is not b for a, b in zip(out, rows))

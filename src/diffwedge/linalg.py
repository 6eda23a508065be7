"""Exact linear algebra over the rationals.

Matrices are lists of lists of ``Fraction``.  Everything here is plain
row reduction; no floating point, so rank/kernel verdicts are exact.
Elimination and products run on Python ints scaled by common
denominators, and build one ``Fraction`` per entry of the result.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul


def frac_matrix(rows):
    """Fresh rows of ``rows`` with every entry a Fraction; an entry that is
    one already is kept, not rebuilt."""
    return [[v if type(v) is Fraction else Fraction(v) for v in row]
            for row in rows]


def identity(n):
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def zeros(n, m):
    return [[Fraction(0)] * m for _ in range(n)]


def _den(row):
    """The lcm of the denominators of a row of Fractions and ints."""
    return lcm(*(v.denominator for v in row))


def _over(row, den):
    """The integers n_j with row[j] = n_j / den; den is a multiple of _den(row)."""
    return [v.numerator * (den // v.denominator) for v in row]


def _primitive(row):
    """An integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def mat_mul(a, b):
    """The product a b.

    When every entry of a and b is a ``Fraction`` or an int, the integer
    numerators are multiplied over one common denominator per matrix, and
    each entry of the product is one ``Fraction``.  Any other entries, e.g.
    floats, are multiplied and summed in the plain loop.
    """
    n, k, m = len(a), len(b), len(b[0])
    if any(len(row) != k for row in a):
        raise ValueError("inner dimensions of the product differ")
    if all(isinstance(v, (Fraction, int)) for x in (a, b) for row in x
           for v in row):
        den_a = lcm(*map(_den, a))
        den_b = lcm(*map(_den, b))
        cols = list(zip(*(_over(row, den_b) for row in b)))
        den = den_a * den_b
        return [[Fraction(sum(map(mul, row, col)), den) for col in cols]
                for row in (_over(row, den_a) for row in a)]
    out = zeros(n, m)
    for i in range(n):
        for t in range(k):
            if a[i][t] == 0:
                continue
            for j in range(m):
                out[i][j] += a[i][t] * b[t][j]
    return out


def mat_vec(a, v):
    return [sum(a[i][j] * v[j] for j in range(len(v))) for i in range(len(a))]


def transpose(a):
    return [list(col) for col in zip(*a)]


def _eliminate(m):
    """Fraction-free Gauss-Jordan elimination; returns (rows, pivots).

    Each row is scaled to integers by the lcm of its denominators, which
    leaves the row space, and so the unique RREF and its pivots, unchanged.
    Row r eliminates column c from every other row i by
    row_i <- p row_i - f row_r, with p = row_r[c] and f = row_i[c], and
    each updated row is divided by the gcd of its entries.  The result is
    integer rows whose first len(pivots) rows, each divided by its entry
    in its pivot column, are the RREF; the rows past the rank are zero.
    Entries must be Fractions or ints.
    """
    rows = [_primitive(_over(row, _den(row))) for row in m]
    n = len(rows)
    cols = len(rows[0]) if n else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, n) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r]
        p = top[c]
        for i in range(n):
            f = rows[i][c]
            if f and i != r:
                rows[i] = _primitive([p * v - f * w
                                      for v, w in zip(rows[i], top)])
        pivots.append(c)
        r += 1
        if r == n:
            break
    return rows, pivots


def rref(m):
    """Reduced row echelon form; returns (rref matrix, pivot columns).

    One ``Fraction`` per entry of the ``_eliminate`` rows, each row
    divided by its pivot entry.
    """
    rows, pivots = _eliminate(m)
    cols = len(rows[0]) if rows else 0
    out = [[Fraction(v, rows[i][c]) for v in rows[i]]
           for i, c in enumerate(pivots)]
    zero = Fraction(0)
    out += [[zero] * cols for _ in range(len(rows) - len(pivots))]
    return out, pivots


def nullspace(m):
    """Basis of {v : m v = 0}, scaled so the first nonzero entry is 1.

    One vector per free column fc of the ``_eliminate`` rows: entry fc is
    1 and entry pc of pivot row r is -row_r[fc] / row_r[pc].  The first
    nonzero entry, ln / ld, is the one of the first pivot row with
    row_r[fc] != 0, or the 1 at fc when there is none; dividing by it
    gives each nonzero entry as one ``Fraction``.
    """
    if not m:
        return []
    cols = len(m[0])
    rows, pivots = _eliminate(m)
    zero = Fraction(0)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        hits = [(row, pc) for row, pc in zip(rows, pivots) if row[fc]]
        if hits:
            row, pc = hits[0]
            ln, ld = -row[fc], row[pc]
        else:
            ln = ld = 1
        v = [zero] * cols
        v[fc] = Fraction(ld, ln)
        for row, pc in hits:
            v[pc] = Fraction(-row[fc] * ld, row[pc] * ln)
        basis.append(v)
    return basis


def row_space_basis(m):
    red, pivots = rref(m)
    return [red[i] for i in range(len(pivots))]


def solve(a, b):
    """One solution of a x = b, or None if inconsistent."""
    n = len(a)
    cols = len(a[0])
    aug = [a[i][:] + [Fraction(b[i])] for i in range(n)]
    red, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x


def inverse(a):
    n = len(a)
    aug = [row + unit for row, unit in zip(a, identity(n))]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def is_symmetric(a):
    n = len(a)
    return all(a[i][j] == a[j][i] for i in range(n) for j in range(n))


def congruent_diagonal(a):
    """Diagonalize the symmetric matrix ``a`` by congruence.

    Returns (p, d) with p a basis-change matrix whose columns are
    q-orthogonal, i.e. p^T a p = diag(d).  Zero directions are kept
    (their diagonal entry is 0), so this works for degenerate forms.

    Symmetric elimination on the Gram matrix G = P^T a P of the basis
    vectors not yet taken, O(n^3).  The pivot is the first remaining
    vector v with G[v][v] != 0.  If every G[v][v] is 0, the first pair
    i < j with G[i][j] != 0 becomes one by replacing vector i with the
    sum of the two; if there is no such pair, the remaining vectors are
    in the kernel and are appended with diagonal 0.  Taking pivot v with
    d = G[v][v] makes each remaining w q-orthogonal to v, by
    w -= (G[v][w] / d) v, and leaves G as the Schur complement of d.
    """
    n = len(a)
    remaining = identity(n)         # the basis vectors, columns of p
    g = [[Fraction(x) for x in row] for row in a]
    done = []
    diag = []
    while remaining:
        m = len(remaining)
        idx = next((k for k in range(m) if g[k][k] != 0), None)
        if idx is None:
            pair = next(((i, j) for i in range(m) for j in range(i + 1, m)
                         if g[i][j] != 0), None)
            if pair is None:
                done += remaining
                diag += [Fraction(0)] * m
                break
            i, j = pair
            remaining[i] = [x + y for x, y in zip(remaining[i], remaining[j])]
            # only row i is read again: vector i is the pivot taken next
            row = [x + y for x, y in zip(g[i], g[j])]
            row[i] = g[i][i] + 2 * g[i][j] + g[j][j]
            g[i] = row
            idx = i
        v = remaining.pop(idx)
        row = g.pop(idx)
        d = row.pop(idx)
        done.append(v)
        diag.append(d)
        for gk in g:
            gk.pop(idx)
        # zero entries of v and of row leave the updates below unchanged
        support = [t for t, x in enumerate(v) if x != 0]
        cols = [k for k, x in enumerate(row) if x != 0]
        for at, k in enumerate(cols):
            f = row[k] / d
            w = remaining[k]
            for t in support:
                w[t] -= f * v[t]
            gk = g[k]
            for t in cols[at:]:
                gk[t] -= f * row[t]
                g[t][k] = gk[t]
    p = transpose(done)
    return p, diag

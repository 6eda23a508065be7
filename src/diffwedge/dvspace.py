"""Finite-dimensional vector spaces with a marked non-smooth subspace.

A fibre is R^n together with a subspace K of "non-smooth directions";
the smooth structure is the one generated by the curves x |-> |x| k for
k in K.  Consequences used throughout:

* the smooth dual is the annihilator of K;
* smooth symmetric bilinear forms are the symmetric A with A K = 0;
* a pseudo-metric is such an A that is moreover positive semidefinite
  with kernel exactly K (so its rank is the dual dimension).

All verdicts here are exact on rational input (rational arithmetic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .linalg import (
    congruent_diagonal,
    frac_matrix,
    identity,
    inverse,
    is_symmetric,
    mat_mul,
    mat_vec,
    nullspace,
    rref,
    row_space_basis,
    solve,
    transpose,
    zeros,
)
from .symexpr import TOL, Verdict, compare


@dataclass(frozen=True)
class DvsModel:
    """R^dim with non-smooth directions spanned by ``nonsmooth_generators``."""

    dim: int
    nonsmooth_generators: tuple = ()

    def __post_init__(self):
        if self.dim <= 0:
            raise ValueError("dimension must be positive")
        gens = frac_matrix(self.nonsmooth_generators)
        if any(len(g) != self.dim for g in gens):
            raise ValueError("generator length does not match dimension")
        basis = row_space_basis(gens) if gens else []  # drops zero rows
        object.__setattr__(self, "nonsmooth_generators",
                           tuple(tuple(v) for v in basis))

    @property
    def k_basis(self):
        return [list(g) for g in self.nonsmooth_generators]

    @property
    def k_dim(self):
        return len(self.nonsmooth_generators)

    @cached_property
    def _dual(self):
        """dual_space(self), computed once; callers must not mutate it."""
        return dual_space(self)


def standard_model(n):
    return DvsModel(n, ())


def dual_space(model):
    """Basis of the smooth dual: covectors vanishing on K."""
    k = model.k_basis
    if not k:
        return [row for row in identity(model.dim)]
    return nullspace(k)


def smooth_form_basis(model):
    """Basis of the symmetric bilinear forms A with A K = 0.

    Unknowns are the upper-triangle entries; each generator k imposes
    A k = 0.
    """
    n = model.dim
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    index = {p: t for t, p in enumerate(pairs)}
    constraints = []
    for k in model.k_basis:
        for i in range(n):
            row = [Fraction(0)] * len(pairs)
            for j in range(n):
                p = (i, j) if i <= j else (j, i)
                row[index[p]] += Fraction(k[j])
            constraints.append(row)
    if constraints:
        sols = nullspace(constraints)
    else:
        sols = [row for row in identity(len(pairs))]
    basis = []
    for s in sols:
        a = zeros(n, n)
        for (i, j), t in index.items():
            a[i][j] = s[t]
            a[j][i] = s[t]
        basis.append(a)
    return basis


def is_pseudo_metric(model, a):
    """Symmetric, PSD, kernel exactly K; the witness names the first failure.

    All of it is read off one congruent diagonal P^T a P = diag(d), P
    invertible: a is PSD when no d_i is negative, and then its kernel has
    dimension z, the number of d_i that are 0.  The kernel is K when
    z = dim K and a k = 0 for each basis vector k of K.
    """
    a = frac_matrix(a)
    if len(a) != model.dim or any(len(r) != model.dim for r in a):
        raise ValueError("matrix size does not match the fibre dimension")
    if not is_symmetric(a):
        return Verdict(False, witness="not symmetric")
    _, diag = congruent_diagonal(a)
    if any(d < 0 for d in diag):
        return Verdict(False, witness="not positive semidefinite")
    z = diag.count(0)
    if z < model.k_dim:
        return Verdict(False, witness="kernel too small (does not contain K)")
    if z > model.k_dim:
        return Verdict(False, witness="kernel too large (degenerate beyond K)")
    if model.k_dim and any(any(row) for row in
                           mat_mul(a, transpose(model.k_basis))):
        return Verdict(False, witness="kernel differs from K")
    return Verdict(True)


def characteristic_subspace(model, a):
    """Basis of the span of the non-degenerate directions of ``a``."""
    a = frac_matrix(a)
    verdict = is_pseudo_metric(model, a)
    if not verdict:
        raise ValueError(f"invalid pseudo-metric: {verdict.witness}")
    return row_space_basis(a)


def pairing_map(model, a, vs):
    """Rows phi(v), one per vector v of ``vs``: the coordinates of a(v, .)
    with respect to the dual_space basis.

    With D the dual basis as rows, phi(v) solves D^T x = a v.  D has
    independent rows, so one elimination of [D^T | a V^T], V the vectors
    as rows, puts the pivots on the columns of D^T and the solutions, one
    per column of a V^T, beside them.  A pivot in that right-hand block
    is an a v outside the smooth dual.
    """
    if any(len(v) != model.dim for v in vs):
        raise ValueError("vector length does not match the fibre dimension")
    images = mat_mul(frac_matrix(a), transpose(frac_matrix(vs)))
    dual = model._dual
    d = len(dual)
    red, pivots = rref([[b[i] for b in dual] + images[i]
                        for i in range(model.dim)])
    if pivots and pivots[-1] >= d:
        raise ValueError("pairing image is outside the smooth dual")
    return [[red[i][d + j] for i in range(d)] for j in range(len(vs))]


def dual_metric(model, a):
    """Matrix B on the dual basis with B(phi(u), phi(v)) = a(u, v).

    ``phi`` is the pairing map.  With D the dual basis as rows and
    M = D D^T, a pseudo-metric is a = D^T S D for one invertible S, so
    phi(v) = S D v and B = S^-1 = M (D a D^T)^-1 M.  B is computed
    without ``pairing_map``, so the defining identity, which callers
    should check, is an independent test of both.
    """
    a = frac_matrix(a)
    verdict = is_pseudo_metric(model, a)
    if not verdict:
        raise ValueError(f"invalid pseudo-metric: {verdict.witness}")
    d = model._dual
    if not d:
        return []       # K is everything: the dual is 0-dimensional
    dt = transpose(d)
    m = mat_mul(d, dt)
    return mat_mul(m, mat_mul(inverse(mat_mul(d, mat_mul(a, dt))), m))


def apply_form(a, u, v):
    """Evaluate the bilinear form with matrix ``a`` on vectors u, v."""
    return sum(u[i] * a[i][j] * v[j] for i in range(len(u)) for j in range(len(v)))


def check_map_compatibility(model1, g1, model2, g2, f):
    """Is g1(u, v) = g2(F u, F v)?  The witness names the first entry off.

    Entries compare by ``symexpr.compare`` within ``TOL``; a float entry
    stays a float, and one that is not finite raises as ``Fraction(v)`` does.
    """
    g1, g2, f = ([[v if type(v) is float and math.isfinite(v) else Fraction(v)
                   for v in row] for row in m] for m in (g1, g2, f))
    if len(f) != model2.dim or len(f[0]) != model1.dim:
        raise ValueError("map shape does not match the fibre dimensions")
    pulled = mat_mul(transpose(f), mat_mul(g2, f))
    n = model1.dim
    bad = [(i, j) for i in range(n) for j in range(n)
           if not compare(pulled[i][j], g1[i][j], TOL)[1]]
    if not bad:
        return Verdict(True)
    i, j = bad[0]
    return Verdict(False, witness=f"g1[e{i + 1},e{j + 1}]={g1[i][j]} but "
                                  f"g2[Fe{i + 1},Fe{j + 1}]={pulled[i][j]}")


def dual_map(model1, model2, f):
    """Matrix of F^* between the smooth duals (dual_space bases).

    F^*(beta) = beta o F; requires F to map K_1 into K_2 so that the
    pullback of a smooth covector is again smooth.
    """
    f = frac_matrix(f)
    dual1 = dual_space(model1)
    dual2 = dual_space(model2)
    cols = []
    for beta in dual2:
        pulled = mat_vec(transpose(f), beta)
        coords = solve(transpose(dual1), pulled) if dual1 else ([] if all(x == 0 for x in pulled) else None)
        if coords is None:
            raise ValueError("map does not send non-smooth directions into K; "
                             "its dual does not preserve smooth covectors")
        cols.append(coords)
    return transpose(cols) if cols else []


def check_dual_compatibility(model1, g1, model2, g2, f):
    """Are the induced dual metrics compatible with F^*?

    The check is the isometry identity g1^*(F^* b1, F^* b2) = g2^*(b1, b2)
    on the dual bases; it holds exactly when F^* is an isomorphism of
    the duals.
    """
    b1 = dual_metric(model1, frac_matrix(g1))
    b2 = dual_metric(model2, frac_matrix(g2))
    fs = dual_map(model1, model2, f)
    pulled = mat_mul(transpose(fs), mat_mul(b1, fs)) if fs else []
    return Verdict(pulled == b2)

"""Clifford and exterior algebras of a fibre with a (possibly degenerate)
symmetric form.

Basis blades are indexed by bitmasks over a q-orthogonal frame; the sign
convention is v.v = -q(v,v).  With q = 0 the construction degenerates to
the exterior algebra, so wedge products and contractions reuse the same
blade arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .linalg import congruent_diagonal, frac_matrix, inverse, mat_vec
from .dvspace import is_pseudo_metric


@dataclass(frozen=True)
class CliffordAlgebra:
    """2^n-dimensional algebra over a q-orthogonal frame.

    frame: columns are the orthogonal basis vectors b_i (standard coords);
    diag:  d_i = q(b_i, b_i), zero on degenerate directions.
    """

    n: int
    frame: tuple
    diag: tuple

    @property
    def dim(self):
        return 1 << self.n

    @cached_property
    def _factors(self):
        """_blade_factors(self.diag), the product rule, computed once."""
        return _blade_factors(self.diag)

    @cached_property
    def _wedge_rule(self):
        """The product rule of the q = 0 case, for wedge products."""
        return _blade_factors((0,) * self.n)

    def blade_name(self, mask):
        if mask == 0:
            return "1"
        return "^".join(f"e{i + 1}" for i in range(self.n) if mask >> i & 1)


def build_algebra(model, g):
    """Clifford algebra of the fibre with form ``g`` (zero matrix allowed)."""
    g = frac_matrix(g)
    if any(any(v != 0 for v in row) for row in g):
        verdict = is_pseudo_metric(model, g)
        if not verdict:
            raise ValueError(f"invalid metric: {verdict.witness}")
    p, diag = congruent_diagonal(g)
    frame = tuple(tuple(row) for row in p)
    return CliffordAlgebra(model.dim, frame, tuple(diag))


def exterior_algebra(n):
    """The q = 0 case on a standard fibre."""
    zero = [[Fraction(0)] * n for _ in range(n)]
    p, diag = congruent_diagonal(zero)
    return CliffordAlgebra(n, tuple(tuple(r) for r in p), tuple(diag))


def _blade_factors(diag):
    """The product rule of the blades: ``(flips, (factors, negated))``.

    ``factors[m]`` is the product of -diag[i] over the bits i of m,
    multiplied in increasing i starting from the int 1 (so factors[m] =
    factors[m without its top bit] * -diag[top], and float diagonals round
    as a left-to-right product); ``negated[m]`` is -factors[m].
    ``flips[a]`` is the xor of a >> k over k >= 1, so that the parity of
    sum_k>=1 popcount((a >> k) & b) is that of popcount(b & flips[a]).
    """
    factors = [1]
    for d in diag:
        factors += [f * -d for f in factors]
    flips = [0]
    for a in range(1, len(factors)):
        flips.append(flips[a >> 1] ^ (a >> 1))
    return flips, (factors, [-f for f in factors])


def blade_mul(mask_a, mask_b, rule):
    """Product of two basis blades: (result mask, signed coefficient).

    ``rule`` is ``_blade_factors`` of the diagonal.  Each generator of b
    passes the generators of a above it, so the sign is the parity of
    sum_k>=1 popcount((a >> k) & b), that of popcount(b & flips[a]); each
    generator the two share squares to -diag[i], giving the factor
    ``factors[a & b]``.  With nothing shared the coefficient is the int 1
    or -1.
    """
    flips, signed = rule
    return (mask_a ^ mask_b,
            signed[(mask_b & flips[mask_a]).bit_count() & 1][mask_a & mask_b])


def _combine(alg, a, b, rule):
    out = {}
    for sa, ca in a.items():
        for sb, cb in b.items():
            mask, coeff = blade_mul(sa, sb, rule)
            val = out.get(mask, 0) + ca * cb * coeff
            if val == 0:
                out.pop(mask, None)
            else:
                out[mask] = val
    return out


def cl_mul(alg, a, b):
    """Clifford product of multivectors (sparse mask -> coefficient maps)."""
    return _combine(alg, a, b, alg._factors)


def wedge(alg, a, b):
    """Exterior product: the q = 0 specialization of the same blade rule."""
    return _combine(alg, a, b, alg._wedge_rule)


def mv_add(a, b):
    out = dict(a)
    for mask, c in b.items():
        val = out.get(mask, 0) + c
        if val == 0:
            out.pop(mask, None)
        else:
            out[mask] = val
    return out


def mv_scale(c, a):
    if c == 0:
        return {}
    return {mask: c * v for mask, v in a.items()}


def scalar(c):
    return {0: c} if c != 0 else {}


def to_frame_coords(alg, v):
    """Coordinates of a standard-basis vector in the orthogonal frame."""
    return mat_vec(inverse([list(r) for r in alg.frame]), [Fraction(x) for x in v])


def vector_mv(alg, v):
    coords = to_frame_coords(alg, v)
    return {1 << i: c for i, c in enumerate(coords) if c != 0}


def contract(alg, coords, a):
    """Interior product i(v) with v given in frame coordinates.

    i(v)(b_{i_1}^...^b_{i_l}) = sum_j (-1)^{j+1} q(v,b_{i_j}) drop j.
    """
    out = {}
    for mask, c in a.items():
        pos = 0
        for i in range(alg.n):
            if not mask >> i & 1:
                continue
            q = coords[i] * alg.diag[i]
            if q != 0:
                sub = mask & ~(1 << i)
                sign = -1 if pos % 2 else 1
                val = out.get(sub, 0) + sign * q * c
                if val == 0:
                    out.pop(sub, None)
                else:
                    out[sub] = val
            pos += 1
    return out


def cl_action(alg, coords, a):
    """c(v) = wedge by v minus contraction by v, v in frame coordinates."""
    v = {1 << i: c for i, c in enumerate(coords) if c != 0}
    ext = _combine(alg, v, a, alg._wedge_rule)
    return mv_add(ext, mv_scale(-1, contract(alg, coords, a)))


def quantize(alg, a):
    """Exterior blade (in the frame) reread as a Clifford element.

    In an orthogonal frame the Clifford product of distinct generators
    equals their wedge, so this is a relabelling.
    """
    return dict(a)


def symbol(alg, a):
    """sigma(a) = c(a)(1): apply the quantized action to the unit."""
    out = {}
    for mask, c in a.items():
        term = scalar(c)
        for i in reversed(range(alg.n)):
            if mask >> i & 1:
                coords = [Fraction(0)] * alg.n
                coords[i] = Fraction(1)
                term = cl_action(alg, coords, term)
        out = mv_add(out, term)
    return out


def parity(mask):
    return mask.bit_count() % 2


def filtration_degree(a):
    return max((m.bit_count() for m in a), default=0)


def multiplication_table(alg):
    """Every product of two basis blades as a row (name_a, name_b,
    name_of_ab, coeff), one ``blade_mul`` per row.

    The rows come in the sorted order of the keys "name_a . name_b": a
    runs over the sorted names, and for each a, b does.  The separator's
    space sorts below every character of a name, so a name that is a
    prefix of another still sorts first.
    """
    names = [alg.blade_name(mask) for mask in range(alg.dim)]
    order = sorted(range(alg.dim), key=names.__getitem__)
    rule = alg._factors
    rows = []
    for sa in order:
        name_a = names[sa]
        for sb in order:
            mask, coeff = blade_mul(sa, sb, rule)
            rows.append((name_a, names[sb], names[mask], coeff))
    return rows

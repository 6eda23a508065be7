"""The bundle of one-form values over a wedge complex.

On each chart this is the trivial line bundle spanned by dx; at a glue
point the fibre is one copy of R per incident branch.  The fibre metric
weights the branch contributions equally (1/2 at a two-branch point,
1/k in general) so that the weights sum to one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import symexpr
from .symexpr import TOL, Verdict, compare, simplify
from .bundle import as_expr
from .wedge import Gluing, WedgeComplex, branches_at


@dataclass(frozen=True)
class OneFormBundle:
    base: WedgeComplex
    h: dict                 # chart id -> Expr metric coefficient

    def h_at(self, cid, x):
        return symexpr.evaluate(self.h[cid], x)

    def fibre_branches(self, p):
        """Branch labels (chart, coordinate) spanning the fibre at p."""
        return branches_at(self.base, p)

    def fibre_dim(self, p):
        return len(self.fibre_branches(p))


def lambda1(base, h):
    """Build the one-form bundle; ``h`` maps chart ids to expressions.

    ``base`` is a wedge complex, or a ``Gluing`` whose result is the base.
    The coefficients must be positive where sampled: on a fixed grid of 9
    points on [-2, 2] per chart plus the glue coordinates.
    """
    if isinstance(base, Gluing):
        base = base.result
    hs = {c: as_expr(e) for c, e in h.items()}
    for c in base.charts:
        pts = [Fraction(i, 2) for i in range(-4, 5)]
        for cls in base.glue_classes:
            for cid, x in cls:
                if cid == c:
                    pts.append(x)
        for x in pts:
            if symexpr.evaluate(hs[c], x) <= 0:
                raise ValueError(
                    f"metric coefficient on chart {c!r} is not positive "
                    f"at {x}")
    return OneFormBundle(base, hs)


def differential(base, funcs):
    """Chartwise derivative of a glued function.

    ``funcs`` maps chart ids to expressions; values must agree on every
    glue class.  The glue-fibre value of the result is the tuple of
    branch derivatives.
    """
    fs = {c: as_expr(e) for c, e in funcs.items()}
    for cls in base.glue_classes:
        vals = [symexpr.evaluate(fs[cid], x) for cid, x in cls]
        if not all(compare(v, vals[0], TOL)[1] for v in vals[1:]):
            raise ValueError(f"function values disagree on glue class {cls}")
    return {c: simplify(symexpr.differentiate(e)) for c, e in fs.items()}


def g_lambda(bundle, p):
    """Fibre metric at p: diagonal, entry w * h_i per branch, w = 1/k."""
    branches = bundle.fibre_branches(p)
    k = len(branches)
    w = Fraction(1, k)
    n = len(branches)
    out = [[0] * n for _ in range(n)]
    for i, (cid, x) in enumerate(branches):
        out[i][i] = w * bundle.h_at(cid, x)
    return out


def g_lambda_dual(bundle, p):
    """Inverse of the diagonal fibre metric: entries k / h_i."""
    g = g_lambda(bundle, p)
    n = len(g)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        out[i][i] = 1 / g[i][i]
    return out


def dual_metric_sum(bundle, p):
    """The weighted sum of the legs' dual metrics, pulled to the glue fibre.

    Each branch contributes w * (own dual metric) composed with the maps
    chi_i = (pair with own metric) o (project to branch i) o (unpair
    with the glue metric); with equal weights this coincides with the
    inverse of the glue metric, and the coincidence is what tests check.
    """
    branches = bundle.fibre_branches(p)
    k = len(branches)
    w = Fraction(1, k)
    n = len(branches)
    out = [[0] * n for _ in range(n)]
    for i, (cid, x) in enumerate(branches):
        h = bundle.h_at(cid, x)
        # chi_i scales coordinate i by h / (w h) = 1/w; branch dual metric 1/h
        out[i][i] = w * (1 / h) * (1 / w) * (1 / w)
    return out


def dual_metric_identity_check(bundle):
    """Does the branch-sum dual metric equal the glue dual metric, fibrewise?"""
    for idx, cls in enumerate(bundle.base.glue_classes):
        p = cls[0]
        lhs = dual_metric_sum(bundle, p)
        rhs = g_lambda_dual(bundle, p)
        if lhs != rhs:
            return Verdict(False, witness=f"mismatch at glue class {idx}: "
                                          f"{lhs} != {rhs}")
    return Verdict(True)

"""Pseudo-bundles over wedge complexes.

A bundle stores, per chart, a fibre model and a metric matrix with
expression entries in the chart coordinate; per glue class it stores a
representative fibre (the second leg's, by convention) and linear glue
maps from every other incident fibre into it.  Fibre operations (sum,
tensor, dual) act chartwise; the commutativity maps between "operate
then glue" and "glue then operate" are produced explicitly so their
defining identities can be checked on bases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import symexpr
from .symexpr import TOL, Add, Const, Expr, Mul, Neg, Pow, ZERO, ONE, \
    compare, simplify
from .dvspace import DvsModel, check_map_compatibility, dual_metric, standard_model
from .linalg import frac_matrix, identity, inverse, mat_vec, transpose
from .wedge import Gluing, WedgeComplex, _as_point, glue_complexes, \
    switch_map


def as_expr(v):
    if isinstance(v, Expr):
        return v
    if isinstance(v, str):
        return symexpr.parse_expr(v)
    return Const(Fraction(v))


def expr_matrix(rows):
    return [[as_expr(v) for v in row] for row in rows]


def eval_matrix(m, x):
    return [[symexpr.evaluate(v, x) for v in row] for row in m]


def eval_vector(v, x):
    return [symexpr.evaluate(e, x) for e in v]


def emat_block_sum(a, b):
    """Block-diagonal [[a, 0], [0, b]]; the off-diagonal blocks hold ZERO
    for expression matrices and Fraction(0) for rational glue maps."""
    exprs = any(isinstance(v, Expr) for row in a + b for v in row)
    zero = ZERO if exprs else Fraction(0)
    return ([list(row) + [zero] * len(b) for row in a]
            + [[zero] * len(a) + list(row) for row in b])


def emat_kron(a, b):
    n, m = len(a), len(b)
    return [[a[i][j] * b[k][l] for j in range(len(a[0])) for l in range(len(b[0]))]
            for i in range(n) for k in range(m)]


def _det(m, rows, cols, memo):
    """Determinant of the submatrix of ``m`` on the index tuples ``rows``
    and ``cols``, expanded along its first row.  ``memo`` maps (rows, cols)
    to the expansion, so a submatrix reached again is not expanded again.
    The entries of ``m`` are simplified; a zero one contributes no term,
    so its minor is not expanded."""
    if not rows:
        return ONE
    if len(rows) == 1:
        return m[rows[0]][cols[0]]
    key = (rows, cols)
    if key not in memo:
        out = ZERO
        for j, c in enumerate(cols):
            a = m[rows[0]][c]
            if type(a) is Const and a.value == 0:
                continue
            term = a * _det(m, rows[1:], cols[:j] + cols[j + 1:], memo)
            out = out + term if j % 2 == 0 else out - term
        memo[key] = simplify(out)
    return memo[key]


def _degree(e, memo):
    """A bound on the degree of ``e`` as a polynomial in x, None when ``e``
    holds a Div, a negative Pow, Exp, Sin or Cos; ``memo`` maps id(node) to
    its bound, so a shared subtree is read once."""
    kids = e.children
    if not kids:
        return 0 if type(e) is Const else 1
    if id(e) not in memo:
        t = type(e)
        ds = ([_degree(a, memo) for a in kids] if t in (Add, Neg, Mul, Pow)
              else [None])
        memo[id(e)] = (None if None in ds or t is Pow and e.exponent < 0
                       else ds[0] * e.exponent if t is Pow
                       else sum(ds) if t is Mul else max(ds))
    return memo[id(e)]


def emat_inverse(m):
    """Inverse by adjugate over expression entries.

    The n² entries are simplified once, and the determinant and all n²
    cofactors share one memo, so each minor is expanded once; the minor
    of an entry that simplifies to 0 is never expanded, since its term
    would simplify away.  Raises ValueError when the determinant is a
    polynomial of degree at most D, by ``_degree``, whose exact values at
    0, 1, ..., D are all 0, as ``x*x - x*x`` is.  A determinant that is
    not a polynomial is never refused, so a singular ``exp(x) - exp(x)``
    is not detected: the entries divide by it.
    """
    n = len(m)
    m = [[simplify(e) for e in row] for row in m]
    idx = tuple(range(n))
    memo = {}
    det = _det(m, idx, idx, memo)
    d = _degree(det, {})
    if d is not None and not any(symexpr.evaluate(det, k)
                                 for k in range(d + 1)):
        raise ValueError("singular metric: its determinant is 0")
    adj = [[_det(m, idx[:j] + idx[j + 1:], idx[:i] + idx[i + 1:], memo)
            * Const(Fraction((-1) ** (i + j)))
            for j in range(n)] for i in range(n)]
    return [[simplify(adj[i][j] / det) for j in range(n)] for i in range(n)]


@dataclass(frozen=True)
class PseudoBundle:
    base: WedgeComplex
    fibres: dict            # chart id -> DvsModel
    metrics: dict           # chart id -> Expr matrix
    gluing: Gluing | None = None
    glue_maps: tuple = ()   # per glue class: (rep point, {point: matrix})
    # (matrix_op, v, w) of a bundle that _fibrewise combined from v and w
    parts: tuple | None = field(default=None, compare=False, repr=False)

    def rep_point(self, class_index):
        return self.glue_maps[class_index][0]

    def glue_map(self, class_index, point):
        """Linear map from the fibre at ``point`` into the representative."""
        point = _as_point(point)
        rep, maps = self.glue_maps[class_index]
        if point == rep:
            return identity(self.fibres[rep[0]].dim)
        return maps[point]

    def metric_at(self, p):
        """Fibre metric value: the representative's at glue classes."""
        p = _as_point(p)
        i = self.base.class_of(p)
        if i is not None:
            p = self.rep_point(i)
        return eval_matrix(self.metrics[p[0]], p[1])


def trivial_bundle(base, fibres, metrics):
    """The bundle with the given fibre and metric on each chart of an
    unglued base; a glued bundle comes from ``glue_bundles``."""
    if base.glue_classes:
        raise ValueError("a trivial bundle needs a base with no glue "
                         "classes; glue bundles with glue_bundles")
    metrics = {c: expr_matrix(m) for c, m in metrics.items()}
    return PseudoBundle(base, dict(fibres), metrics)


def _rep(gluing, cls):
    """Representative of the glue class ``cls``: its last point on the
    second leg of ``gluing``."""
    return [p for p in cls if gluing.leg_of_chart(p[0]) == 2][-1]


def glue_bundles(b1, b2, f, ftilde):
    """Glue two bundles along a point bijection ``f`` and fibre maps.

    ``ftilde`` maps each glue point of the first base to an invertible
    matrix into the corresponding fibre of the second bundle (a single
    matrix is broadcast).  Metric compatibility through each map is
    checked exactly at the glue coordinates.
    """
    gluing = glue_complexes(b1.base, b2.base, f)
    pairs = gluing.pairs
    if not isinstance(ftilde, dict):
        ftilde = {a: ftilde for a, _ in pairs}
    fibres = {**b1.fibres, **b2.fibres}
    metrics = {**b1.metrics, **b2.metrics}
    glue = []
    for cls in gluing.result.glue_classes:
        rep = _rep(gluing, cls)
        maps = {}
        for p in cls:
            if p == rep:
                continue
            fm = frac_matrix(ftilde[p]) if p in ftilde else identity(fibres[p[0]].dim)
            try:
                inverse([row[:] for row in fm])
            except ValueError:
                raise ValueError(f"glue map at {p} is not invertible")
            g1 = eval_matrix(metrics[p[0]], p[1])
            g2 = eval_matrix(metrics[rep[0]], rep[1])
            verdict = check_map_compatibility(fibres[p[0]], g1,
                                              fibres[rep[0]], g2, fm)
            if not verdict:
                raise ValueError(
                    f"incompatible metrics at glue point {p} -> {rep}: "
                    f"{verdict.witness}")
            maps[p] = fm
        glue.append((rep, maps))
    return PseudoBundle(gluing.result, fibres, metrics, gluing, tuple(glue))


# ---------------------------------------------------------------------------
# sections

@dataclass(frozen=True)
class Section:
    """Per-chart expression vectors; glue compatibility held by construction."""

    bundle: PseudoBundle
    components: dict  # chart id -> list of Expr

    def chart_value(self, cid, x):
        return eval_vector(self.components[cid], x)

    def value_at(self, p):
        """Representative fibre value (glue maps applied at glue classes)."""
        p = _as_point(p)
        i = self.bundle.base.class_of(p)
        if i is None:
            return self.chart_value(p[0], p[1])
        rep = self.bundle.rep_point(i)
        return self.chart_value(rep[0], rep[1])


def make_section(bundle, components):
    comps = {c: [as_expr(e) for e in v] for c, v in components.items()}
    s = Section(bundle, comps)
    _check_section(s)
    return s


def _check_section(s):
    b = s.bundle
    for i, cls in enumerate(b.base.glue_classes):
        rep = b.rep_point(i)
        target = s.chart_value(rep[0], rep[1])
        for p in cls:
            if p == rep:
                continue
            pushed = mat_vec(b.glue_map(i, p), s.chart_value(p[0], p[1]))
            if not all(compare(u, v, TOL)[1] for u, v in zip(pushed, target)):
                raise ValueError(
                    f"section incompatible at glue point {p}: "
                    f"{pushed} != {target}")


def glue_sections(bundle, s1_components, s2_components):
    """Join per-leg component maps into one section of the glued bundle."""
    comps = {**s1_components, **s2_components}
    return make_section(bundle, comps)


def split_section(s):
    """Per-leg components; a two-sided inverse of glue_sections here."""
    g = s.bundle.gluing
    if g is None:
        raise ValueError("bundle was not built by gluing")
    s1 = {c: v for c, v in s.components.items() if c in g.x1.charts}
    s2 = {c: v for c, v in s.components.items() if c not in g.x1.charts}
    return s1, s2


# ---------------------------------------------------------------------------
# fibrewise operations

def _sum_model(m1, m2):
    gens = [list(g) + [0] * m2.dim for g in m1.nonsmooth_generators]
    gens += [[0] * m1.dim + list(g) for g in m2.nonsmooth_generators]
    return DvsModel(m1.dim + m2.dim, tuple(tuple(g) for g in gens))


def _tensor_model(m1, m2):
    k1, k2 = m1.nonsmooth_generators, m2.nonsmooth_generators
    gens = [emat_kron([k], [e])[0] for k in k1 for e in identity(m2.dim)]
    gens += [emat_kron([e], [k])[0] for k in k2 for e in identity(m1.dim)]
    return DvsModel(m1.dim * m2.dim, tuple(tuple(g) for g in gens))


def _fibrewise(v, w, model_op, matrix_op):
    """The bundle with fibres model_op(V_c, W_c); metrics and glue maps
    combine by matrix_op."""
    if v.base is not w.base and v.base != w.base:
        raise ValueError("bundles live over different bases")
    fibres = {c: model_op(v.fibres[c], w.fibres[c]) for c in v.fibres}
    metrics = {c: matrix_op(v.metrics[c], w.metrics[c]) for c in v.metrics}
    glue = []
    for i, (rep, _) in enumerate(v.glue_maps):
        maps = {p: matrix_op(v.glue_map(i, p), w.glue_map(i, p))
                for p in v.base.glue_classes[i] if p != rep}
        glue.append((rep, maps))
    return PseudoBundle(v.base, fibres, metrics, v.gluing, tuple(glue),
                        (matrix_op, v, w))


def direct_sum(v, w):
    return _fibrewise(v, w, _sum_model, emat_block_sum)


def tensor_product(v, w):
    return _fibrewise(v, w, _tensor_model, emat_kron)


def _dual_chart_metric(v, c):
    """Inverse of the metric of ``v`` on chart ``c``, whose fibre is
    standard: the dual metric of V ⊕ W is g_V⁻¹ ⊕ g_W⁻¹, and of V ⊗ W it
    is g_V⁻¹ ⊗ g_W⁻¹, each entry simplified; any other metric is inverted
    by ``emat_inverse``."""
    if v.parts is None:
        return emat_inverse(v.metrics[c])
    op, a, b = v.parts
    return [[simplify(e) for e in row]
            for row in op(_dual_chart_metric(a, c), _dual_chart_metric(b, c))]


def dual_bundle(v):
    """Fibrewise dual; the glued dual is glued in the opposite order.

    For standard fibres the dual metric is the inverse matrix: the block
    sum or Kronecker product of the factors' duals for a sum or tensor
    product, else the symbolic adjugate; for a marked non-smooth subspace
    the metric must be constant and is dualized exactly on the
    annihilator basis.
    """
    fibres = {}
    metrics = {}
    for c, m in v.fibres.items():
        fibres[c] = standard_model(m.dim - m.k_dim)
        if m.k_dim == 0:
            metrics[c] = _dual_chart_metric(v, c)
        else:
            g = [[simplify(e) for e in row] for row in v.metrics[c]]
            if not all(isinstance(e, Const) for row in g for e in row):
                raise ValueError("dual of a non-standard fibre needs a "
                                 "constant rational metric")
            metrics[c] = expr_matrix(dual_metric(
                m, [[e.value for e in row] for row in g]))
    if v.gluing is not None:
        rev = switch_map(v.gluing)
        glue = []
        for cls in rev.result.glue_classes:
            # representative of the reversed gluing is the original leg 1
            rep = _rep(rev, cls)
            maps = {}
            i_orig = v.base.class_of(rep)
            for p in cls:
                if p != rep:
                    # the original map sent the (now representative) first-leg
                    # fibre into the second leg's; its transpose goes back
                    # between the duals
                    maps[p] = transpose(v.glue_map(i_orig, rep))
            glue.append((rep, maps))
        return PseudoBundle(rev.result, fibres, metrics, rev, tuple(glue))
    return PseudoBundle(v.base, fibres, metrics)


# ---------------------------------------------------------------------------
# commutativity maps between "operate then glue" and "glue then operate"

def phi_sum(glued_of_sums, sum_of_glued, point):
    """Fibrewise map with Phi o (j1 + j1') = j1 of the sum, and same for j2.

    Under the shared labelling conventions both sides present a fibre
    vector in identical block coordinates, so this map, and the tensor
    product's too, is the identity of the correct size; the defining
    identities are what tests verify.
    """
    p = _as_point(point)
    i = glued_of_sums.base.class_of(p)
    cid = glued_of_sums.rep_point(i)[0] if i is not None else p[0]
    return identity(glued_of_sums.fibres[cid].dim)


def phi_dual(glued, point):
    """Map from the dual of a glued bundle to the oppositely-glued duals.

    Two cases: identity away from the glue locus, on either leg; the
    transpose of the fibre glue map over a glue class (source fibre is
    the second leg's dual, target representative the first leg's dual).
    """
    p = _as_point(point)
    i = glued.base.class_of(p)
    if i is None:
        cid = p[0]
        return identity(glued.fibres[cid].dim - glued.fibres[cid].k_dim)
    rep, maps = glued.glue_maps[i]
    (src, fm), = maps.items()
    return transpose(fm)

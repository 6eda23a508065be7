"""Clifford modules and Dirac operators over wedges of lines.

On a single chart the module is the exterior algebra of the one-form
line, with basis (1, dx) and action c(a dx) = a dx wedge . minus a h
contraction.  The Dirac operator of a connection nabla is D = c o nabla.
Gluing two such modules uses the multiplicative extension of the
one-form glue map dx -> a dy, an isometry exactly when h1 = a^2 h2 at
the glue point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .symexpr import TOL, ZERO, ONE, Verdict, compare, evaluate_all, simplify
from .bundle import PseudoBundle, as_expr, eval_vector, glue_bundles, \
    trivial_bundle
from .clifford import build_algebra, cl_mul
from .connection import Connection, _chartwise, _nabla, \
    connection_value_at, glue_connections, levi_civita
from .dvspace import apply_form, standard_model
from .forms import OneFormBundle, g_lambda
from .linalg import mat_mul, mat_vec
from .wedge import _as_point


@dataclass(frozen=True)
class CliffordModule:
    """Exterior module of a one-form bundle: per-chart fibre (1, dx)."""

    bundle: PseudoBundle     # total module bundle, metric diag(1, h)
    lam: OneFormBundle       # the one-form bundle it is built over
    scales: dict             # glue point -> scalar of the one-form glue map

    def action_matrix(self, cid, x, alpha):
        """c(alpha dx) on the fibre over x of one chart, on basis (1, dx)."""
        h = self.lam.h_at(cid, x)
        return [[0, -alpha * h], [alpha, 0]]


def exterior_module(lam1, lam2, glue_points, scale=1):
    """Glue the exterior modules of two one-form bundles.

    ``glue_points`` pairs points of the first base with points of the
    second; ``scale`` is the coefficient a of the one-form glue map
    dx -> a dy (its multiplicative extension glues the modules).  The
    metric gate h1 = a^2 h2 at each glue point is enforced by the bundle
    gluing itself.
    """
    a = Fraction(scale)
    if a == 0:
        raise ValueError("one-form glue map must be invertible")
    b1 = _leg_module(lam1)
    b2 = _leg_module(lam2)
    fprime = [[Fraction(1), Fraction(0)], [Fraction(0), a]]
    glued = glue_bundles(b1, b2, glue_points, fprime)
    h = {**lam1.h, **lam2.h}
    lam = OneFormBundle(glued.base, h)
    scales = {_as_point(p): a for p, _ in glue_points}
    return CliffordModule(glued, lam, scales)


def single_chart_module(lam):
    """Exterior module of a one-chart one-form bundle (no gluing)."""
    return CliffordModule(_leg_module(lam), lam, {})


def _leg_module(lam):
    fibres = {}
    metrics = {}
    for c in lam.base.charts:
        fibres[c] = standard_model(2)
        metrics[c] = [[ONE, ZERO], [ZERO, lam.h[c]]]
    return trivial_bundle(lam.base, fibres, metrics)


def check_action_compatibility(module, tol=TOL):
    """Equivariance of the leg actions through the paired glue maps.

    For each glue class and each paired one-form (dx, a dy) the identity
    c2(a dy) o f' = f' o c1(dx) must hold on the module basis within
    ``tol``; a failed verdict's witness shows both sides at the first
    failing glue point.
    """
    bundle = module.bundle
    for i, cls in enumerate(bundle.base.glue_classes):
        rep = bundle.rep_point(i)
        for p in cls:
            if p == rep:
                continue
            fpr = bundle.glue_map(i, p)
            a = module.scales.get(p, Fraction(1))
            c1 = module.action_matrix(p[0], p[1], 1)
            c2 = module.action_matrix(rep[0], rep[1], a)
            lhs = mat_mul(c2, fpr)
            rhs = mat_mul(fpr, c1)
            if not all(compare(u, v, tol)[1] for ru, rv in zip(lhs, rhs)
                       for u, v in zip(ru, rv)):
                return Verdict(False, witness=f"glue point {p}: c2(a dy) f' "
                                              f"= {lhs} but f' c1(dx) = {rhs}")
    return Verdict(True)


def induced_action(module, class_index, lam_value, e):
    """Action of a glue-fibre one-form on the representative module fibre.

    ``lam_value`` maps branches to coefficients; only the representative
    branch acts (the projection to the second leg), which is what makes
    the glued action well defined.
    """
    rep = module.bundle.rep_point(class_index)
    alpha = lam_value[rep]
    return mat_vec(module.action_matrix(rep[0], rep[1], alpha), e)


def _rank1_mul(h, u, v):
    """(z1, w1)(z2, w2) as (z1 + w1 e)(z2 + w2 e) with e^2 = -h."""
    return (u[0] * v[0] - h * u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def check_algebra_morphism(module, glue_point, tol=TOL):
    """Does the extended map preserve Clifford products of the glue fibres?

    Products are taken by ``_rank1_mul`` in the rank-1 algebras with forms
    h1 and h2 at the glue coordinates, and compared within ``tol``.
    """
    p = _as_point(glue_point)
    i = module.bundle.base.class_of(p)
    rep = module.bundle.rep_point(i)
    a = module.scales[p]
    h1 = module.lam.h_at(p[0], p[1])
    h2 = module.lam.h_at(rep[0], rep[1])

    basis = [(1, 0), (0, 1), (1, 1), (2, -3)]
    for u in basis:
        for v in basis:
            fu = (u[0], a * u[1])
            fv = (v[0], a * v[1])
            lhs = _rank1_mul(h2, fu, fv)
            prod = _rank1_mul(h1, u, v)
            rhs = (prod[0], a * prod[1])
            if not all(compare(l, r, tol)[1] for l, r in zip(lhs, rhs)):
                return Verdict(False, witness="products differ on %s, %s: "
                               "(%s, %s) != (%s, %s)" % (u, v, *lhs, *rhs))
    return Verdict(True)


def check_clifford_product(module, cid, tol=TOL):
    """``cl_mul`` of the rank-1 Clifford algebra of h (a float h rounded to
    a denominator <= 10^15) against ``_rank1_mul`` at four points of chart
    ``cid``; an ``ArithmeticError`` names x and carries ``cid`` as ``key``."""
    samples = []
    for x in (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(2)):
        h = module.lam.h_at(cid, x)
        try:
            q = h if type(h) is Fraction else Fraction(h).limit_denominator(10**15)
            alg = build_algebra(standard_model(1), [[q]])
            for u, v in [((2, 1), (-1, 3)), ((1, 0), (1, 0)), ((0, 2), (3, 0))]:
                prod = cl_mul(alg, dict(enumerate(u)), dict(enumerate(v)))
                want = _rank1_mul(h, u, v)     # masks 0 and 1 of cl_mul
                samples += [(compare(prod.get(k, 0), want[k], tol), f"x = {x}")
                            for k in (0, 1)]
        except ArithmeticError as exc:
            err = type(exc)(f"{exc} at x={x}")
            err.key = cid
            raise err from None
    return Verdict.fold(samples)


def check_unitarity(module, points_per_chart, tol=TOL):
    """g_E(c(alpha)e, c(alpha)e') = g_E(e, e') for unit one-forms alpha.

    On charts alpha = dx / sqrt(h); at glue fibres alpha is the paired
    unit form (components related by the glue scale, normalized in the
    weighted glue metric).  The sides are floats, compared within ``tol``.
    A chart's h that has no float, or whose float is 0.0, raises an
    ``ArithmeticError`` that names x and carries the chart id as ``key``.
    """
    basis = [[1, 0], [0, 1], [1, 1]]

    samples = []       # ((residual, agree), where)

    def gram(act, h, at):
        # g_E(c e1, c e2) against g_E(e1, e2) over the basis pairs
        g_e = [[1, 0], [0, h]]
        samples.extend((compare(apply_form(g_e, act(e1), act(e2)),
                                apply_form(g_e, e1, e2), tol), at)
                       for e1 in basis for e2 in basis)

    for cid, pts in points_per_chart.items():
        for x in pts:
            h = module.lam.h_at(cid, x)
            try:    # an exact h may lie beyond the floats, or round to 0.0
                alpha = 1 / float(h) ** 0.5
                c = module.action_matrix(cid, x, alpha)
                gram(lambda e: mat_vec(c, e), h, f"chart {cid}, x = {x}")
            except ArithmeticError as exc:  # as symexpr.max_residuals names it
                err = type(exc)(f"{exc} at x={x}")
                err.key = cid
                raise err from None
    for i, cls in enumerate(module.bundle.base.glue_classes):
        rep = module.bundle.rep_point(i)
        g = g_lambda(module.lam, rep)
        branches = module.lam.fibre_branches(rep)
        # paired form: source components scaled so each maps onto the
        # representative's, then normalized in the weighted glue metric
        comp = {br: 1 / float(module.scales.get(br, Fraction(1)))
                for br in branches}
        norm = sum(g[k][k] * comp[br] ** 2
                   for k, br in enumerate(branches)) ** 0.5
        value = {br: comp[br] / norm for br in branches}
        gram(lambda e: induced_action(module, i, value, e),
             module.lam.h_at(rep[0], rep[1]), f"glue class {i}")
    return Verdict.fold(samples)


def clifford_connection(module):
    """Connection on the module induced by the one-form connection.

    For the exterior module the Christoffel matrix is diag(0, Gamma),
    where Gamma is the Christoffel symbol h'/(2h) of the metric
    connection on the one-form bundle.
    """
    gamma = {cid: [[ZERO, ZERO], [ZERO, g[0][0]]]
             for cid, g in levi_civita(module.lam).gamma.items()}
    return Connection(module.bundle, gamma)


def _act(h, u, w, al=None):
    """c(al dx)(u + w dx) = -h al w + al u dx as components; None is dx."""
    if al is not None:
        h, u = h * al, al * u
    return [ZERO - h * w, u]


def check_clifford_connection(module, conn_e, lam_conn, batteries, points,
                              tol=TOL):
    """The derivation identity of the module connection against the action.

    For each (t, alpha, r) in ``batteries`` (vector field coefficient,
    one-form coefficient, module section components, all chartwise
    expressions) check
        nabla^E_t(c(alpha dx) r)
          = c((nabla^Lambda_t alpha) dx) r + c(alpha dx) nabla^E_t r
    at the sampled points.
    """
    groups = []
    for t, alpha, r in batteries:
        for cid in t:
            al = as_expr(alpha[cid])
            u, w = as_expr(r[cid][0]), as_expr(r[cid][1])
            h = module.lam.h[cid]
            b = as_expr(t[cid])

            def nabla_t(gamma, s):
                return [b * v for v in _nabla(gamma, s)]

            (nal,) = nabla_t(lam_conn.gamma[cid], [al])
            nr = nabla_t(conn_e.gamma[cid], [u, w])
            lhs = nabla_t(conn_e.gamma[cid],
                          [simplify(v) for v in _act(h, u, w, al)])
            rhs = [p + q for p, q in zip(_act(h, u, w, nal),
                                         _act(h, nr[0], nr[1], al))]
            groups.append((cid, [(simplify(l), simplify(rr))
                                 for l, rr in zip(lhs, rhs)]))
    return _chartwise(groups, points, tol)


@dataclass(frozen=True)
class DiracOperator:
    module: CliffordModule
    connection: Connection


def dirac(module):
    """D = c o nabla for the module's Clifford connection."""
    return DiracOperator(module, clifford_connection(module))


def apply_dirac_chart(d, comps, cid):
    """D s on one chart, as expression components (u, w) of u + w dx.

    D s = c(dx)(s' + Gamma s): the one-form slot of the connection value
    fed back through the action.
    """
    s = [as_expr(e) for e in comps[cid]]
    du, dw = _nabla(d.connection.gamma[cid], s)
    return [simplify(v) for v in _act(d.module.lam.h[cid], du, dw)]


def dirac_value_at(d, comps, p):
    """Value of D s at a point, through the glue-fibre assembly.

    At a glue class the connection value is the branch sum of pushed
    one-form slots; the induced action projects to the representative
    branch, so the result lives in the representative module fibre.
    """
    p = _as_point(p)
    base = d.module.bundle.base
    i = base.class_of(p)
    if i is None:
        return eval_vector(apply_dirac_chart(d, comps, p[0]), p[1])
    nabla = connection_value_at(d.connection, comps, p)
    rep = d.module.bundle.rep_point(i)
    # c~ = action of the representative branch on its slot of the value
    return mat_vec(d.module.action_matrix(rep[0], rep[1], 1), nabla[rep])


def dirac_values(d, sections, points):
    """``[[dirac_value_at(d, s, p) for p in points] for s in sections]``.

    Glue points go through ``dirac_value_at``.  The other points are taken
    chart by chart: the D s components of every section on one chart are
    compiled into one tape, run once per point, so what the sections share
    there (h, Gamma, common terms) is computed once per point.

    On an ``ArithmeticError`` the values are computed again in the order
    above, by ``dirac_value_at`` alone, and the first error raised there is
    raised, carrying the index of its point as ``index``.
    """
    pts = [_as_point(p) for p in points]
    class_of = d.module.bundle.base.class_of
    out = [[None] * len(pts) for _ in sections]
    charts = {}         # chart id -> indices of its points off the glue
    try:
        for k, p in enumerate(pts):
            if class_of(p) is None:
                charts.setdefault(p[0], []).append(k)
            else:
                for row, s in zip(out, sections):
                    row[k] = dirac_value_at(d, s, p)
        for cid, ks in charts.items():
            roots = [e for s in sections for e in apply_dirac_chart(d, s, cid)]
            for k, v in zip(ks, evaluate_all(roots, [pts[k][1] for k in ks])):
                for j, row in enumerate(out):     # D s has two components
                    row[k] = v[2 * j:2 * j + 2]
        return out
    except ArithmeticError:
        pass
    out = []
    for s in sections:
        row = []
        for k, p in enumerate(pts):
            try:
                row.append(dirac_value_at(d, s, p))
            except ArithmeticError as exc:
                exc.index = k
                raise
        out.append(row)
    return out


def glue_dirac(d1, d2, module):
    """Dirac operator of the glued module from the leg operators.

    Preconditions (metric gate, action equivariance) are enforced or
    checkable via the module constructor and check_action_compatibility;
    the glued connection is the chart union of the leg connections.
    """
    v = check_action_compatibility(module)
    if not v:
        raise ValueError(f"leg actions not compatible: {v.witness}")
    conn = glue_connections(d1.connection, d2.connection, module.bundle)
    return DiracOperator(module, conn)


def verify_splitting(d, s1_comps, s2_comps, tol=TOL):
    """Glued-operator value versus the representative leg's D s at the
    glue points, within ``tol``.

    At each point of a glue class other than its representative, the left
    side is ``dirac_value_at``, the full glue-fibre assembly, and the right
    side is the representative leg's D s at the representative.  Off the
    glue both sides would be the same chart value, so none is compared.
    """
    bundle = d.module.bundle
    comps = {**s1_comps, **s2_comps}
    samples = []
    for i, cls in enumerate(bundle.base.glue_classes):
        rep = bundle.rep_point(i)
        want = eval_vector(apply_dirac_chart(d, comps, rep[0]), rep[1])
        samples += [(l, r, f"chart {p[0]}, x = {p[1]}") for p in cls
                    if p != rep
                    for l, r in zip(dirac_value_at(d, comps, p), want)]
    return Verdict.within(tol, samples)

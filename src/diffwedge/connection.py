"""Connections on pseudo-bundles over wedge complexes.

A connection is stored as one Christoffel matrix of expressions per
chart; applying it to a section gives (s' + Gamma s) dx tensor frame
chartwise.  At a glue fibre each branch contributes its one-form slot,
pushed into the representative fibre on a pseudo-bundle and kept on its
branch on the one-form bundle itself.

Vector fields are sections of the dual of the one-form bundle; their
covariant derivative uses the dual Christoffel symbol -Gamma, the one
the dual metric 1/h is parallel for.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import symexpr
from .symexpr import TOL, ZERO, Verdict, max_residuals, simplify
from .bundle import PseudoBundle, as_expr, emat_block_sum, emat_kron, \
    eval_vector
from .forms import OneFormBundle
from .linalg import identity, mat_vec
from .wedge import _as_point


@dataclass(frozen=True)
class Connection:
    bundle: object          # PseudoBundle or OneFormBundle
    gamma: dict             # chart id -> Expr matrix


def _d(e):
    return simplify(symexpr.differentiate(e))


def _nabla(g, s):
    """s' + Gamma s for an Expr vector s, entries left unsimplified."""
    out = []
    for i in range(len(s)):
        acc = _d(s[i])
        for j in range(len(s)):
            acc = acc + g[i][j] * s[j]
        out.append(acc)
    return out


def _bracket(b1, b2):
    """[b1 d/dx, b2 d/dx] as its d/dx coefficient, unsimplified."""
    return b1 * _d(b2) - b2 * _d(b1)


def apply_connection(conn, comps):
    """Chartwise one-form part of the connection value, per chart."""
    return {cid: [simplify(v) for v in
                  _nabla(conn.gamma[cid], [as_expr(e) for e in comps[cid]])]
            for cid in comps}


def connection_value_at(conn, comps, p):
    """Glue-fibre value: {branch: fibre vector}.

    On a pseudo-bundle the vectors live in the representative fibre
    (glue maps applied); on the one-form bundle each branch carries its
    own one-form slot.  At a regular point both give the single chart
    value.
    """
    p = _as_point(p)
    base = conn.bundle.base
    i = base.class_of(p)
    nabla = apply_connection(conn, comps)
    if i is None:
        return {p: eval_vector(nabla[p[0]], p[1])}
    push = isinstance(conn.bundle, PseudoBundle)
    out = {}
    for br in base.glue_classes[i]:
        val = eval_vector(nabla[br[0]], br[1])
        out[br] = mat_vec(conn.bundle.glue_map(i, br), val) if push else val
    return out


def covariant_derivative(conn, t, comps):
    """Contract the one-form slot with the vector field ``t``.

    ``t`` maps chart ids to the coefficient of d/dx.  Result is a
    chartwise component map of the connection's bundle.
    """
    nabla = apply_connection(conn, comps)
    return {cid: [simplify(as_expr(t[cid]) * e) for e in v]
            for cid, v in nabla.items()}


def levi_civita(lam):
    """The symmetric metric connection on a one-form bundle: h'/(2h)."""
    gamma = {cid: [[simplify(_d(h) / (as_expr(2) * h))]]
             for cid, h in lam.h.items()}
    return Connection(lam, gamma)


def dual_connection(conn):
    """Christoffel sign flip: the connection the dual metric is parallel for."""
    gamma = {cid: [[simplify(ZERO - g[j][i]) for j in range(len(g))]
                   for i in range(len(g))]
             for cid, g in conn.gamma.items()}
    return Connection(conn.bundle, gamma)


def torsion(conn_fields, t1, t2):
    """nabla_{t1} t2 - nabla_{t2} t1 - [t1, t2], chartwise coefficients.

    ``conn_fields`` acts on vector fields (1x1 Christoffel per chart).
    """
    out = {}
    for cid in t1:
        g = conn_fields.gamma[cid]
        b1, b2 = as_expr(t1[cid]), as_expr(t2[cid])
        a = b1 * _nabla(g, [b2])[0] - b2 * _nabla(g, [b1])[0]
        out[cid] = simplify(a - _bracket(b1, b2))
    return out


def _chartwise(groups, points, tol):
    """Verdict on (chart id, [(lhs, rhs), ...]) ``groups`` sampled at their
    chart's points, each chart's sides in one pass per point; the witness
    is the chart and point of the worst."""
    worst = max_residuals(groups, points, tol)
    return Verdict.fold(((r, ok), f"chart {cid}, x = {x}")
                        for (cid, _), (r, x, ok) in zip(groups, worst))


def is_symmetric_connection(conn_fields, fields, points, tol=TOL):
    """All sampled torsion values below tolerance, for all field pairs."""
    return _chartwise([(cid, [(e, ZERO)]) for t1 in fields for t2 in fields
                       for cid, e in torsion(conn_fields, t1, t2).items()],
                      points, tol)


def glue_connections(c1, c2, bundle):
    """Connection on a glued bundle from connections on the legs.

    At one-point gluings of lines the compatibility condition between
    the leg connections is empty: the Christoffel data is the union.
    """
    return Connection(bundle, {**c1.gamma, **c2.gamma})


def sum_connection(c1, c2):
    gamma = {cid: emat_block_sum(c1.gamma[cid], c2.gamma[cid])
             for cid in c1.gamma}
    return Connection(c1.bundle, gamma)


def tensor_connection(c1, c2):
    """Gamma1 kron Id + Id kron Gamma2 chartwise."""
    gamma = {}
    for cid, g1 in c1.gamma.items():
        g2 = c2.gamma[cid]
        rows = zip(emat_kron(g1, identity(len(g2))),
                   emat_kron(identity(len(g1)), g2))
        gamma[cid] = [[simplify(u + v) for u, v in zip(r1, r2)]
                      for r1, r2 in rows]
    return Connection(c1.bundle, gamma)


def _chart_metric(conn, cid):
    b = conn.bundle
    if isinstance(b, OneFormBundle):
        return [[b.h[cid]]]
    return b.metrics[cid]


def check_metric_compatibility(conn, pairs, points, tol=TOL):
    """d(g(s,t)) = g(nabla s, t) + g(s, nabla t) at the sampled points.

    ``pairs`` is a list of (s_components, t_components); the verdict's
    witness names the chart and point of the worst residual.
    """
    groups = []
    for s, t in pairs:
        ns = apply_connection(conn, s)
        nt = apply_connection(conn, t)
        for cid in s:
            g = _chart_metric(conn, cid)
            sv = [as_expr(e) for e in s[cid]]
            tv = [as_expr(e) for e in t[cid]]
            pair = ZERO
            for i in range(len(sv)):
                for j in range(len(tv)):
                    pair = pair + sv[i] * g[i][j] * tv[j]
            lhs = _d(simplify(pair))
            rhs = ZERO
            for i in range(len(sv)):
                for j in range(len(tv)):
                    rhs = rhs + ns[cid][i] * g[i][j] * tv[j]
                    rhs = rhs + sv[i] * g[i][j] * nt[cid][j]
            groups.append((cid, [(lhs, rhs)]))
    return _chartwise(groups, points, tol)


def check_leibniz(conn, trials, points, tol=TOL):
    """nabla(f s) = df tensor s + f nabla s for the given (f, s) trials."""
    groups = []
    for f, s in trials:
        fs = {cid: [simplify(as_expr(f[cid]) * as_expr(e)) for e in v]
              for cid, v in s.items()}
        lhs = apply_connection(conn, fs)
        ns = apply_connection(conn, s)
        for cid in s:
            df = _d(as_expr(f[cid]))
            groups.append((cid, [(lhs[cid][i], df * as_expr(s[cid][i])
                                  + as_expr(f[cid]) * ns[cid][i])
                                 for i in range(len(s[cid]))]))
    return _chartwise(groups, points, tol)


def koszul_check(lam, triples, points, tol=TOL):
    """Both sides of the six-term formula for the metric connection.

    Vector fields with the dual metric 1/h; the left side is twice the
    dual-metric pairing of nabla_{t1} t2 with t3.
    """
    conn = dual_connection(levi_civita(lam))
    groups = []
    for t1, t2, t3 in triples:
        nab = covariant_derivative(conn, t1, {cid: [t2[cid]] for cid in t2})
        for cid in t1:
            gstar = simplify(as_expr(1) / lam.h[cid])
            b1, b2, b3 = (as_expr(t1[cid]), as_expr(t2[cid]), as_expr(t3[cid]))
            lhs = as_expr(2) * gstar * nab[cid][0] * b3

            def pair(u, v):
                return gstar * u * v

            def act(b, f):
                return b * _d(simplify(f))

            rhs = (act(b1, pair(b2, b3)) + act(b2, pair(b1, b3))
                   - act(b3, pair(b1, b2)) + pair(_bracket(b1, b2), b3)
                   - pair(_bracket(b2, b3), b1) + pair(_bracket(b3, b1), b2))
            groups.append((cid, [(simplify(lhs), simplify(rhs))]))
    return _chartwise(groups, points, tol)

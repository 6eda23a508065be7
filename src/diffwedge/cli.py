"""Command line front end: JSON configs in, deterministic JSON reports out.

Commands: check, dual-metric, clifford-table, dirac, report.  Exit code
0 means every verdict passed, 1 means some named invariant failed, 2
means the configuration itself was unusable.  Reports are byte-stable
for a fixed config and seed: keys are sorted, rationals print as "p/q",
floats with 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from types import SimpleNamespace

from . import symexpr
from .symexpr import Const, Div, Expr, ExprSyntaxError, Mul, Pow, Verdict
from .bundle import as_expr
from .clifford import build_algebra, multiplication_table
from .connection import check_leibniz, check_metric_compatibility, \
    dual_connection, is_symmetric_connection, koszul_check, levi_civita
from .dirac import check_action_compatibility, check_algebra_morphism, \
    check_clifford_connection, check_clifford_product, check_unitarity, \
    clifford_connection, dirac, dirac_values, exterior_module, verify_splitting
from .dvspace import DvsModel, check_map_compatibility, dual_space, \
    dual_metric, is_pseudo_metric, pairing_map, smooth_form_basis, \
    standard_model
from .forms import dual_metric_identity_check, lambda1
from .linalg import identity, mat_mul, transpose, zeros
from .wedge import line


class ConfigError(ValueError):
    pass


def _frac(v, where):
    """``v``, an int or a string such as "-3/4" or "1e-3", as a Fraction;
    anything else, a bool too, is a config error at ``where``.

    ``Fraction`` expands an exponent into 10**exp, so an exponent beyond
    the interpreter's int digit limit, which already bounds the digits
    written out, is a config error instead of a hang."""
    try:
        if isinstance(v, str):
            _, e, exp = v.lower().partition("e")
            limit = sys.get_int_max_str_digits()
            if e and limit and abs(int(exp)) > limit:
                raise ConfigError(f"{where}: more than {limit} digits: {v!r}")
            return Fraction(v)
        if isinstance(v, int) and not isinstance(v, bool):
            return Fraction(v)
    except ConfigError:
        raise
    except (ValueError, ZeroDivisionError):
        pass
    raise ConfigError(f"{where}: not a rational number: {v!r}")


def _tol(v):
    """``v`` as a tolerance: a finite float >= 0, or a config error."""
    if not isinstance(v, bool):
        try:
            tol = float(v)
        except OverflowError:       # an int beyond the floats
            tol = math.inf
        except (TypeError, ValueError):
            raise ConfigError(f"/tol: not a number: {v!r}")
        if math.isfinite(tol) and tol >= 0:
            return tol
    raise ConfigError(f"/tol: must be a finite number >= 0, not {v!r}")


_MAX_DEGREE = 4096


def _degree(e):
    """Degree bound of ``e`` as a polynomial; exp, sin and cos keep their
    argument's, and a power of a constant counts as a power of x, so that
    its exact value stays as small as the bound allows."""
    if not e.children:
        return 0 if isinstance(e, Const) else 1
    if isinstance(e, Pow):
        return abs(e.exponent) * max(1, _degree(e.children[0]))
    kids = [_degree(c) for c in e.children]
    return sum(kids) if isinstance(e, (Mul, Div)) else max(kids)


def _expr(v, where):
    """``v``, an expression string or a finite number, as an expression
    whose degree bound is at most ``_MAX_DEGREE``."""
    if isinstance(v, bool) or not isinstance(v, (str, int, float)):
        raise ConfigError(f"{where}: must be an expression string or a "
                          f"number, not {v!r}")
    try:
        e = as_expr(v)
    except ExprSyntaxError as exc:
        raise ConfigError(f"bad expression at {where}: {exc}")
    except (ValueError, OverflowError):     # a float nan or inf
        raise ConfigError(f"{where}: not a finite number: {v!r}")
    if (d := _degree(e)) > _MAX_DEGREE:
        raise ConfigError(f"{where}: degree bound {d} above {_MAX_DEGREE}")
    return e


def _array(obj, key, where):
    """``obj[key]`` as a list (absent: empty), or a config error."""
    v = obj.get(key, [])
    if not isinstance(v, list):
        raise ConfigError(f"{where}: must be a list")
    return v


def _object(v, where):
    """``v`` if it is a JSON object, else a config error."""
    if not isinstance(v, dict):
        raise ConfigError(f"{where}: must be an object")
    return v


def _matrix(obj, key, where):
    """``obj[key]``, a list of lists of rationals (absent: empty), as rows
    of Fractions, or a config error."""
    out = []
    for r, row in enumerate(_array(obj, key, where)):
        if not isinstance(row, list):
            raise ConfigError(f"{where}/{r}: must be a list")
        out.append([_frac(v, f"{where}/{r}/{c}") for c, v in enumerate(row)])
    return out


def load_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except ValueError as exc:   # bad JSON, or an int beyond the digit limit
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    cfg = {"name": raw.get("name", ""), "tol": _tol(raw.get("tol", symexpr.TOL))}
    charts = []
    for i, c in enumerate(_array(raw, "charts", "/charts")):
        if "id" not in _object(c, f"/charts/{i}"):
            raise ConfigError(f"/charts/{i}: missing id")
        if not isinstance(c["id"], str):
            raise ConfigError(f"/charts/{i}/id: must be a string")
        charts.append({"id": c["id"],
                       "h": _expr(c.get("h", "1"), f"/charts/{i}/h")})
    cfg["charts"] = charts
    ids = [c["id"] for c in charts]
    if len(set(ids)) != len(ids):
        raise ConfigError("duplicate chart ids")
    gluings = []
    for i, g in enumerate(_array(raw, "gluings", "/gluings")):
        pts = _object(g, f"/gluings/{i}").get("points")
        if not isinstance(pts, list) or len(pts) != 2:
            raise ConfigError(f"/gluings/{i}: needs [from, to] points")
        for j, p in enumerate(pts):
            if not isinstance(p, list) or len(p) != 2:
                raise ConfigError(f"/gluings/{i}/points/{j}: "
                                  "needs a [chart id, coordinate] pair")
        (c1, x1), (c2, x2) = pts
        if c1 not in ids or c2 not in ids:
            raise ConfigError(f"/gluings/{i}: unknown chart id")
        where = f"/gluings/{i}"
        gluings.append({"from": (c1, _frac(x1, f"{where}/points/0/1")),
                        "to": (c2, _frac(x2, f"{where}/points/1/1")),
                        "scale": _frac(g.get("scale", 1), f"{where}/scale")})
    cfg["gluings"] = gluings
    fibre = raw.get("fibre")
    if fibre is not None:
        dim = _object(fibre, "/fibre").get("dim")
        if isinstance(dim, bool) or not isinstance(dim, int) or dim <= 0:
            raise ConfigError("/fibre/dim: must be a positive integer")
        gens = _matrix(fibre, "nonsmooth", "/fibre/nonsmooth")
        for g in gens:
            if len(g) != dim:
                raise ConfigError("/fibre/nonsmooth: wrong vector length")
        metric = fibre.get("metric")
        if metric is not None:
            metric = _matrix(fibre, "metric", "/fibre/metric")
            if len(metric) != dim or any(len(r) != dim for r in metric):
                raise ConfigError("/fibre/metric: wrong shape")
        cfg["fibre"] = {"model": DvsModel(dim, tuple(tuple(g) for g in gens)),
                        "metric": metric}
    else:
        cfg["fibre"] = None
    dd = raw.get("dirac")
    if dd is not None:
        sections = []
        for j, s in enumerate(_array(_object(dd, "/dirac"), "sections",
                                     "/dirac/sections")):
            comp = {}
            for cid, vec in _object(s, f"/dirac/sections/{j}").items():
                where = f"/dirac/sections/{j}/{cid}"
                if cid not in ids:
                    raise ConfigError(f"/dirac/sections/{j}: unknown chart {cid}")
                if not isinstance(vec, list) or len(vec) != 2:
                    raise ConfigError(f"{where}: needs components [u, w]")
                comp[cid] = [_expr(e, where) for e in vec]
            sections.append(comp)
        points = []
        for k, p in enumerate(_array(dd, "points", "/dirac/points")):
            if not isinstance(p, list) or len(p) != 2 or p[0] not in ids:
                raise ConfigError(f"/dirac/points/{k}: needs a [chart id, "
                                  "coordinate] pair on a configured chart")
            p = (p[0], _frac(p[1], f"/dirac/points/{k}/1"))
            # the value at a glue point reads every branch of the point
            need = {q[0] for g in gluings if p in (g["from"], g["to"])
                    for q in (g["from"], g["to"])} | {p[0]}
            if any(need - comp.keys() for comp in sections):
                raise ConfigError(f"/dirac/points/{k}: a section lacks one "
                                  f"of the charts {sorted(map(str, need))}")
            points.append(p)
        cfg["dirac"] = {"sections": sections, "points": points}
    else:
        cfg["dirac"] = None
    return cfg


# ---------------------------------------------------------------------------
# report assembly

def _scalar(v):
    """The JSON text of a report leaf: str, bool, None and int as JSON
    values; a Fraction as "p/q" or "n", a float at 17 significant digits,
    an expression as its text and anything else as str(v), all as
    strings."""
    if isinstance(v, str):
        return _quote(v)
    if isinstance(v, Fraction):
        return _quote(str(v))
    if v is True:
        return "true"
    if v is False:
        return "false"
    if v is None:
        return "null"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        return _quote(format(v, ".17g"))
    if isinstance(v, Expr):
        return _quote(symexpr.to_str(v))
    return _quote(str(v))


class _Table(tuple):
    """``(rows,)``, the rows of ``multiplication_table``: the report object
    {"a . b": {"c": coeff}} of every blade product, its keys in row order."""
    __slots__ = ()


def _emit(v, out, nl):
    """Append the JSON text of ``v`` to ``out``; ``nl`` is a newline and the
    indent of the line v starts on.  A leaf member is written with its
    separator in one piece, and so is a member of a ``_Table``, whose
    coefficients are few objects shared by many rows: each object's text is
    made once, keyed by identity, since 1, 1.0 and Fraction(1) are equal
    but render apart."""
    inner = nl + "  "
    if isinstance(v, _Table):
        (rows,) = v                 # never empty: 1 . 1 is a row
        leaf = inner + "  "
        texts = {}
        sep = "{"
        for a, b, c, x in rows:     # blade names need no escapes
            text = texts.get(id(x))
            if text is None:
                text = texts[id(x)] = _scalar(x)
            out.append(f'{sep}{inner}"{a} . {b}": {{{leaf}"{c}": '
                       f'{text}{inner}}}')
            sep = ","
        out.append(nl + "}")
    elif isinstance(v, dict):
        if not v:
            out.append("{}")
            return
        sep = "{" + inner
        # str keys, sorted; of two keys with one str, the later value wins
        for k, x in sorted({str(k): x for k, x in v.items()}.items()):
            head = f"{sep}{_quote(k)}: "
            if isinstance(x, (dict, list, tuple)):
                out.append(head)
                _emit(x, out, inner)
            else:
                out.append(head + _scalar(x))
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(v, (list, tuple)):
        if not v:
            out.append("[]")
            return
        sep = "[" + inner
        for x in v:
            if isinstance(x, (dict, list, tuple)):
                out.append(sep)
                _emit(x, out, inner)
            else:
                out.append(sep + _scalar(x))
            sep = "," + inner
        out.append(nl + "]")
    else:
        out.append(_scalar(v))


def render_report(report):
    """The report as ``json.dumps(sort_keys=True, indent=2)`` writes it, and
    a newline, in one walk; str keys, tuples as lists and every leaf
    through ``_scalar``."""
    out = []
    _emit(report, out, "\n")
    out.append("\n")
    return "".join(out)


def _verdict(name, v, *fields):
    """Report entry of the ``Verdict`` v, with the record's ``fields``."""
    return {"name": name, "pass": v.ok, **{f: getattr(v, f) for f in fields}}


def _metric_verdict(v, model):
    """Report entry of ``is_pseudo_metric``: a pseudo-metric has kernel K,
    so its rank is the dimension of the smooth dual."""
    return {**_verdict("pseudo-metric", v), "reason": v.witness,
            "rank": model.dim - model.k_dim if v else 0}


# ---------------------------------------------------------------------------
# geometry assembly from a config

def _grid():
    return [Fraction(i, 5) for i in range(-10, 11)]


def _points_per_chart(cfg):
    pts = {c["id"]: list(_grid()) for c in cfg["charts"]}
    for g in cfg["gluings"]:
        for cid, x in (g["from"], g["to"]):
            if x not in pts[cid]:
                pts[cid].append(x)
    return pts


def _chart_index(cfg, cid):
    return [c["id"] for c in cfg["charts"]].index(cid)


def _h_at(cfg, cid, x):
    """h of chart ``cid`` at x; a zero divisor or a float overflow there is
    a config error."""
    i = _chart_index(cfg, cid)
    try:
        return symexpr.evaluate(cfg["charts"][i]["h"], x)
    except ArithmeticError as exc:        # its message names the point
        raise ConfigError(f"/charts/{i}/h: {exc}")


def _check_h_on(cfg, points):
    """h is defined and positive at each (chart id, x) of ``points``; a
    zero divisor or a value <= 0 or NaN is a config error."""
    for cid, x in dict.fromkeys(points):
        if not _h_at(cfg, cid, x) > 0:
            raise ConfigError(f"/charts/{_chart_index(cfg, cid)}/h: metric "
                              f"coefficient on chart {cid!r} is not positive "
                              f"at {x}")


def _build_module(cfg):
    """(metric-glue gate h1 = scale^2 h2, exterior module or None when the
    gate fails); an unusable wedge, e.g. with more than one gluing, is a
    config error before the gate is tried.  The gate is the bundle
    gluing's own check, so a module is built exactly when it passes."""
    if len(cfg["gluings"]) != 1:
        raise ConfigError("/gluings: exactly one gluing is supported for the "
                          "glued suites")
    g = cfg["gluings"][0]
    glued = {g["from"][0], g["to"][0]}
    if len(glued) == 1:
        raise ConfigError("/gluings/0: glues chart "
                          f"{g['from'][0]!r} to itself; the two legs need "
                          "distinct charts")
    for i, c in enumerate(cfg["charts"]):
        if c["id"] not in glued:
            raise ConfigError(f"/charts/{i}: not in the gluing")
    lams = []
    for cid, _ in (g["from"], g["to"]):
        i = _chart_index(cfg, cid)
        try:
            lams.append(lambda1(line(cid), {cid: cfg["charts"][i]["h"]}))
        except (ValueError, ArithmeticError) as exc:
            raise ConfigError(f"/charts/{i}/h: {exc}")
    (c1, x1), (c2, x2) = g["from"], g["to"]
    a = g["scale"]
    h1 = _h_at(cfg, c1, x1)
    h2 = _h_at(cfg, c2, x2)
    fibre = standard_model(1)
    try:    # an h of inf or nan is no Fraction, a huge one no float
        ok = check_map_compatibility(fibre, [[h1]], fibre, [[h2]], [[a]]).ok
        gate = Verdict(ok, witness=f"h[{c1}]({x1}) = {float(h1):.6g}, "
                                   f"scale^2 h[{c2}]({x2}) = "
                                   f"{float(a * a * h2):.6g}")
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"/gluings/0: metric-glue gate: {exc}")
    return gate, (exterior_module(*lams, [(g["from"], g["to"])], a)
                  if gate else None)


def _random_poly(rng):
    coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
    e = Const(coeffs[0])
    x = symexpr.X
    e = e + Const(coeffs[1]) * x + Const(coeffs[2]) * x * x
    return e


def _field(c):
    """A random polynomial on each chart, in chart order."""
    return {cid: _random_poly(c.rng) for cid in c.pts}


def _section(c, rank):
    """``rank`` random polynomials on each chart, in chart order."""
    return {cid: [_random_poly(c.rng) for _ in range(rank)] for cid in c.pts}


def _splitting(c):
    """``verify_splitting`` on five random section pairs that match through
    the glue map; the first failing verdict, else the last."""
    d = dirac(c.module)
    (c1, x1), (c2, x2) = c.glue["from"], c.glue["to"]
    for _ in range(5):
        u1, w1, u2, w2 = (_random_poly(c.rng) for _ in range(4))
        # shift the second leg's constants so values pair at the glue point
        du = symexpr.evaluate(u1, x1) - symexpr.evaluate(u2, x2)
        dw = c.glue["scale"] * symexpr.evaluate(w1, x1) \
            - symexpr.evaluate(w2, x2)
        v = verify_splitting(d, {c1: [u1, w1]},
                             {c2: [symexpr.simplify(u2 + Const(du)),
                                   symexpr.simplify(w2 + Const(dw))]}, c.tol)
        if not v:
            break
    return v


# The glued checks after the metric-glue gate, as (name, report fields,
# check(ctx) -> Verdict), in report order, which is also the order in which
# they draw from the suite's one rng.  Fields given as a dict are keyed by
# whether the check passed.
_GLUED_CHECKS = (
    ("action-equivariance", ("witness",),
     lambda c: check_action_compatibility(c.module, c.tol)),
    ("algebra-morphism", ("witness",),
     lambda c: check_algebra_morphism(c.module, c.glue["from"], c.tol)),
    ("glued-clifford-product", ("residual",),
     lambda c: check_clifford_product(c.module, c.glue["from"][0], c.tol)),
    ("one-form-fibre-dimensions", (), lambda c: Verdict(all(
        c.lam.fibre_dim(cls[0]) == len(cls)
        for cls in c.lam.base.glue_classes))),
    ("dual-metric-coincidence", ("witness",),
     lambda c: dual_metric_identity_check(c.lam)),
    ("leibniz", ("residual",), lambda c: check_leibniz(
        c.lc, [(_field(c), _section(c, 1)) for _ in range(5)], c.pts, c.tol)),
    ("metric-compatibility", ("residual", "witness"),
     lambda c: check_metric_compatibility(
         c.lc, [(_section(c, 1), _section(c, 1)) for _ in range(3)], c.pts,
         c.tol)),
    ("torsion-free", (), lambda c: is_symmetric_connection(
        dual_connection(c.lc), [_field(c) for _ in range(3)], c.pts, c.tol)),
    ("koszul", ("residual",), lambda c: koszul_check(
        c.lam, [tuple(_field(c) for _ in range(3)) for _ in range(4)], c.pts,
        c.tol)),
    ("clifford-connection", ("residual",), lambda c: check_clifford_connection(
        c.module, clifford_connection(c.module), c.lc,
        [(_field(c), _field(c), _section(c, 2)) for _ in range(3)], c.pts,
        c.tol)),
    ("unitarity", ("residual",),
     lambda c: check_unitarity(c.module, c.pts, c.tol)),
    ("dirac-splitting", {True: (), False: ("residual",)}, _splitting),
)


def _glued_suite(cfg, seed, tol):
    gate, module = _build_module(cfg)
    verdicts = [_verdict("metric-glue-compatibility", gate, "witness")]
    if not gate:
        return verdicts, None
    g = cfg["gluings"][0]
    pts = _points_per_chart(cfg)
    # h must be defined and positive where the checks sample it, and at the
    # nonzero thirds of [-2, 2] on the first leg and of (0, 2] on the second
    _check_h_on(cfg, [(cid, x) for cid, xs in pts.items() for x in xs]
                + [(g["from"][0], Fraction(i, 3)) for i in range(-6, 7) if i]
                + [(g["to"][0], Fraction(i, 3)) for i in range(1, 7)])
    try:    # a sampled side, or h itself, may overflow a float
        ctx = SimpleNamespace(module=module, lam=module.lam,
                              lc=levi_civita(module.lam), pts=pts, glue=g,
                              tol=tol, rng=random.Random(seed))
        for name, fields, check in _GLUED_CHECKS:
            v = check(ctx)
            if isinstance(fields, dict):
                fields = fields[v.ok]
            verdicts.append(_verdict(name, v, *fields))
    except ArithmeticError as exc:
        raise ConfigError(f"/charts/{_chart_index(cfg, exc.key)}/h: {exc}")
    return verdicts, module


def _fibre_suite(cfg):
    verdicts = []
    values = {}
    model = cfg["fibre"]["model"]
    values["dual_basis"] = dual_space(model)
    values["smooth_form_basis"] = smooth_form_basis(model)
    metric = cfg["fibre"]["metric"]
    if metric is not None:
        try:    # dual_metric validates the metric first
            b = dual_metric(model, metric)
        except ValueError:      # not a pseudo-metric: its verdict says why
            verdicts.append(_metric_verdict(is_pseudo_metric(model, metric),
                                            model))
        else:
            verdicts.append(_metric_verdict(Verdict(True), model))
            values["dual_metric"] = b
            # the defining identity B(phi(e_i), phi(e_j)) = g(e_i, e_j) on
            # basis pairs, as Phi B Phi^T = g with rows phi(e_i) of Phi
            n = model.dim
            phi = pairing_map(model, metric, identity(n))
            pulled = (mat_mul(phi, mat_mul(b, transpose(phi))) if b
                      else zeros(n, n))     # a 0-dimensional dual
            verdicts.append(_verdict("dual-metric-defining-identity",
                                     Verdict(pulled == metric)))
            values["note"] = (
                "the dual matrix is forced by the identity "
                "B(phi(u), phi(v)) = g(u, v); for the 3-dimensional example "
                "with one non-smooth direction this gives (1/9)[[6,-3],[-3,6]], "
                "not the sometimes-quoted (1/9)[[6,5],[5,6]], which fails "
                "the identity")
    return verdicts, values


# ---------------------------------------------------------------------------
# commands

# The Clifford table has 4^dim rows: at dim 10, 90 MB of report.
_MAX_TABLE_DIM = 10


def run(command, cfg, seed=0, tol=None):
    tol = cfg["tol"] if tol is None else tol
    fibre = cfg["fibre"]
    metric = fibre and fibre["metric"]     # dim x dim, or None
    if command in ("clifford-table", "report") and metric is not None \
            and len(metric) > _MAX_TABLE_DIM:
        raise ConfigError(f"/fibre/dim: {len(metric)} above {_MAX_TABLE_DIM}, "
                          "too large for a Clifford table of 4^dim rows")
    report = {"command": command, "name": cfg["name"], "seed": seed,
              "verdicts": [], "values": {}}
    # report runs every block the config has, each once
    glued = command in ("check", "report") and bool(cfg["gluings"])
    if glued:
        verdicts, module = _glued_suite(cfg, seed, tol)
        report["verdicts"] += verdicts
    if command in ("check", "dual-metric", "report"):
        if cfg["fibre"] is not None:
            verdicts, values = _fibre_suite(cfg)
            report["verdicts"] += verdicts
            report["values"].update(values)
        elif command == "dual-metric":
            raise ConfigError("dual-metric needs a fibre block")
    if command in ("clifford-table", "report"):
        if metric is not None:
            try:
                alg = build_algebra(fibre["model"], metric)
            except ValueError:      # not a pseudo-metric: no table
                if command == "clifford-table":     # report's fibre suite says so
                    report["verdicts"].append(_metric_verdict(
                        is_pseudo_metric(fibre["model"], metric),
                        fibre["model"]))
            else:
                report["values"]["clifford_table"] = _Table(
                    (multiplication_table(alg),))
        elif command == "clifford-table":
            raise ConfigError("clifford-table needs a fibre block with a metric")
    if command in ("dirac", "report"):
        if cfg["dirac"] is not None:
            if not glued:   # else the glued suite built it or failed its gate
                gate, module = _build_module(cfg)
            if module is None:
                if command == "dirac":      # report's glued suite says so
                    report["verdicts"].append(_verdict(
                        "metric-glue-compatibility", gate, "witness"))
            else:
                points = cfg["dirac"]["points"]
                try:    # h may divide by zero where no checker looks
                    values = dirac_values(dirac(module),
                                          cfg["dirac"]["sections"], points)
                except ArithmeticError as exc:
                    raise ConfigError(f"/dirac/points/{exc.index}: {exc}")
                report["values"]["dirac"] = [
                    {f"{p[0]}@{p[1]}": v for p, v in zip(points, row)}
                    for row in values]
        elif command == "dirac":
            raise ConfigError("dirac command needs a dirac block")
    failed = [v["name"] for v in report["verdicts"] if not v["pass"]]
    report["failed"] = failed
    return report, (1 if failed else 0)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="diffeo",
        description="exact checks and computations for glued line geometries")
    parser.add_argument("command", choices=["check", "dual-metric",
                                            "clifford-table", "dirac",
                                            "report"])
    parser.add_argument("config")
    parser.add_argument("--json", dest="out", help="write the report here")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tol", type=float, default=None)
    args = parser.parse_args(argv)
    try:
        tol = None if args.tol is None else _tol(args.tol)
        cfg = load_config(args.config)
        report, code = run(args.command, cfg, args.seed, tol)
    except (ConfigError, ExprSyntaxError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    text = render_report(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Deterministic request streams for the benchmark workloads.

Every request is derived from ``(workload, seed, index)`` alone, so one
seed always yields the same stream and no two requests of a run share
their (config, run seed) pair.  The generators use plain ``Fraction``
arithmetic and never call into ``diffwedge``: inputs are built without
the code under test, and tracing sees only the requests themselves.

Request kinds:

* ``cli``: ``{"kind": "cli", "command", "config", "run_seed"}``;
  ``config`` is the JSON object a user would write to a file.
* ``bundle``: ``{"kind": "bundle", "v", "w"}``; ``v`` and ``w``
  are metric matrices of expression strings on a one-chart base.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent / "configs"
SHIPPED = ("two_planes.json", "wedge_dirac.json")

WORKLOADS = ("glued-check", "dirac-eval", "fibre-algebra", "bundle-dual")


def _rng(workload, seed, index):
    return random.Random(f"{workload}:{seed}:{index}")


def _q(v):
    """Rational as config text: "p" or "p/q"."""
    v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


# ---------------------------------------------------------------------------
# chart metrics h: positive shapes with an exact value at the glue point

def _poly_h(rng):
    a, b, c = rng.choice((1, 2)), rng.choice((-1, 0, 1)), rng.choice((1, 2, 3))
    text = f"{a}*x^2+{b}*x+{c}" if b else f"{a}*x^2+{c}"
    return text, lambda x: a * x * x + b * x + c, True


def _rational_h(rng):
    a, c, d = rng.choice((1, 2, 3)), rng.choice((1, 2, 3)), rng.choice((1, 2, 3))
    return (f"({a}*x^2+{c})/(x^2+{d})",
            lambda x: (a * x * x + c) / (x * x + d), True)


def _exp_h(rng):
    k = rng.choice(("x", "-x", "x/2"))
    return f"exp({k})", lambda x: Fraction(1), False


def _cos_h(rng):
    return "cos(x)+2", lambda x: Fraction(3), False


H_POOL = (_poly_h, _rational_h, _exp_h, _cos_h)
GLUE_COORDS = tuple(Fraction(v) for v in ("-1", "-1/2", "0", "1/2", "1"))
SCALES = tuple(Fraction(v) for v in ("1", "2", "1/2", "3/2"))


def _is_dyadic(v):
    return v.denominator & (v.denominator - 1) == 0 and abs(v.numerator) < 1 << 50


def _wedge(rng, shapes):
    """Two charts glued at one point; the scale passes the metric gate.

    ``shapes`` picks the pool entries of the two charts.  ``h2`` is the
    second shape and ``h1`` the first times the constant that makes
    ``h1(x1) = scale^2 h2(x2)`` hold exactly.  Shapes with exp or cos are
    glued at 0, where their value is exactly rational.
    """
    while True:
        text1, f1, free1 = H_POOL[shapes[0]](rng)
        text2, f2, free2 = H_POOL[shapes[1]](rng)
        x1 = rng.choice(GLUE_COORDS) if free1 else Fraction(0)
        x2 = rng.choice(GLUE_COORDS) if free2 else Fraction(0)
        scale = rng.choice(SCALES)
        c = scale * scale * Fraction(f2(x2)) / Fraction(f1(x1))
        # exterior_module compares the glue metrics exactly, and a float
        # h value equals its rational counterpart only when c is dyadic
        if (free1 and free2) or _is_dyadic(c):
            break
    h1 = text1 if c == 1 else f"{_q(c)}*({text1})"
    return {
        "charts": [{"id": "c1", "h": h1}, {"id": "c2", "h": text2}],
        "gluings": [{"points": [["c1", _q(x1)], ["c2", _q(x2)]],
                     "scale": _q(scale)}],
        "tol": 1e-10,
    }, (x1, x2, scale)


# every ordered pair of pool shapes; each half holds every shape twice as
# the first chart and twice as the second
SHAPE_PAIRS = tuple((i, j) for i in range(len(H_POOL)) for j in range(len(H_POOL)))
SHAPE_HALVES = tuple(tuple(p for p in SHAPE_PAIRS if sum(p) % 2 == h) for h in (0, 1))


# ---------------------------------------------------------------------------
# glued-check

def _shipped(name):
    return json.loads((CONFIG_DIR / name).read_text())


GLUED_CYCLE = len(SHAPE_PAIRS) + len(SHIPPED)


def glued_check(seed, index):
    """A cycle is two halves: their shape pairs, then one shipped config."""
    rng = _rng("glued-check", seed, index)
    run_seed = rng.randrange(1 << 30)
    half, slot = divmod(index % GLUED_CYCLE, GLUED_CYCLE // 2)
    if slot == len(SHAPE_HALVES[half]):
        name = SHIPPED[half]
        return {"kind": "cli", "command": "check", "config": _shipped(name),
                "run_seed": run_seed}
    cfg, _ = _wedge(rng, SHAPE_HALVES[half][slot])
    cfg["name"] = f"gen-{seed}-{index}"
    return {"kind": "cli", "command": "check", "config": cfg,
            "run_seed": run_seed}


# ---------------------------------------------------------------------------
# dirac-eval

def _poly_text(coeffs):
    c0, c1, c2 = (_q(c) for c in coeffs)
    return f"{c0}+({c1})*x+({c2})*x^2"


def _poly_at(coeffs, x):
    return coeffs[0] + coeffs[1] * x + coeffs[2] * x * x


def _rand_coeffs(rng):
    return [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]


DIRAC_SECTIONS = 10
DIRAC_POINTS_PER_CHART = 20


def dirac_eval(seed, index):
    """``dirac`` with glue-compatible polynomial sections on many points.

    A cycle holds every shape pair once; the glue point is always sampled.
    """
    rng = _rng("dirac-eval", seed, index)
    cfg, (x1, x2, scale) = _wedge(rng, SHAPE_PAIRS[index % len(SHAPE_PAIRS)])
    cfg["name"] = f"gen-{seed}-{index}"
    secs = []
    for _ in range(DIRAC_SECTIONS):
        u1, w1, u2, w2 = (_rand_coeffs(rng) for _ in range(4))
        # shift the second leg's constants so the values pair at the glue
        u2[0] += _poly_at(u1, x1) - _poly_at(u2, x2)
        w2[0] += scale * _poly_at(w1, x1) - _poly_at(w2, x2)
        secs.append({"c1": [_poly_text(u1), _poly_text(w1)],
                     "c2": [_poly_text(u2), _poly_text(w2)]})
    grid = [Fraction(i, 5) for i in range(-10, 11)]
    points = [["c1", _q(x1)]]
    for cid, glue_x in (("c1", x1), ("c2", x2)):
        pool = [x for x in grid if x != glue_x]
        chosen = sorted(rng.sample(pool, DIRAC_POINTS_PER_CHART - (cid == "c1")))
        points += [[cid, _q(x)] for x in chosen]
    cfg["dirac"] = {"sections": secs, "points": points}
    return {"kind": "cli", "command": "dirac", "config": cfg,
            "run_seed": rng.randrange(1 << 30)}


# ---------------------------------------------------------------------------
# fibre-algebra

def _unimodular_pair(rng, n, steps):
    """Integer matrices U and V = U^-1, built from elementary row operations."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [row[:] for row in u]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]   # row_i += c row_j
        for row in v:                                      # col_j -= c col_i
            row[j] -= c * row[i]
    return u, v


def fibre_config(rng, dim, k):
    """Fibre with a k-dimensional K and the integer pseudo-metric Q^T D Q.

    With U unimodular and V = U^-1, the first dim-k rows of U (Q) annihilate
    the last k columns of V (K), so Q^T D Q is PSD with kernel exactly K.
    """
    u, v = _unimodular_pair(rng, dim, 2 * dim)
    q = u[:dim - k]
    d = [rng.randint(1, 3) for _ in q]
    metric = [[sum(q[r][i] * d[r] * q[r][j] for r in range(len(q)))
               for j in range(dim)] for i in range(dim)]
    nonsmooth = [[v[i][c] for i in range(dim)] for c in range(dim - k, dim)]
    return {"dim": dim, "nonsmooth": nonsmooth, "metric": metric}


# (command, fibre dim, dim K).  One cycle holds every size, and dual-metric
# at dim 8 three times: the median latency of whole cycles then falls inside
# that block rather than between two size classes.
FIBRE_CYCLE = (("dual-metric", 6, 1), ("clifford-table", 5, 2),
               ("dual-metric", 7, 2), ("clifford-table", 6, 1),
               ("dual-metric", 8, 1), ("clifford-table", 7, 2),
               ("dual-metric", 8, 2), ("dual-metric", 9, 2),
               ("dual-metric", 8, 1), ("dual-metric", 10, 1))


def fibre_algebra(seed, index):
    rng = _rng("fibre-algebra", seed, index)
    command, dim, k = FIBRE_CYCLE[index % len(FIBRE_CYCLE)]
    cfg = {"name": f"gen-{seed}-{index}", "fibre": fibre_config(rng, dim, k)}
    return {"kind": "cli", "command": command, "config": cfg,
            "run_seed": rng.randrange(1 << 30)}


# ---------------------------------------------------------------------------
# bundle-dual

def _tridiagonal(rng, n):
    """Polynomial diagonal, constant off-diagonal: dominant, so invertible."""
    m = [["0"] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = f"x^2+{rng.randint(3, 6)}"
    for i in range(n - 1):
        m[i][i + 1] = m[i + 1][i] = rng.choice(("1", "-1", "1/2"))
    return m


# (dim V, dim W): tensor and sum fibres of total dimension 4 to 6
BUNDLE_CYCLE = ((2, 2), (3, 2), (2, 3))


def bundle_dual(seed, index):
    rng = _rng("bundle-dual", seed, index)
    n1, n2 = BUNDLE_CYCLE[index % len(BUNDLE_CYCLE)]
    return {"kind": "bundle", "v": _tridiagonal(rng, n1),
            "w": _tridiagonal(rng, n2)}


GENERATORS = {"glued-check": glued_check, "dirac-eval": dirac_eval,
              "fibre-algebra": fibre_algebra, "bundle-dual": bundle_dual}
# a run is whole cycles, so every run holds the same mix of request kinds
# and sizes
CYCLE = {"glued-check": GLUED_CYCLE, "dirac-eval": len(SHAPE_PAIRS),
         "fibre-algebra": len(FIBRE_CYCLE),
         "bundle-dual": len(BUNDLE_CYCLE)}


def request(workload, seed, index):
    return GENERATORS[workload](seed, index)

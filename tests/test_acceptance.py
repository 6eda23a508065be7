"""End-to-end acceptance battery: one printed pass/fail line per criterion.

Run with -s to see the lines; each criterion is a separate test so a
failure pinpoints the broken guarantee without hiding the others.
"""

import functools
import os
import random
from fractions import Fraction
from itertools import product

import pytest

from diffwedge.bundle import (direct_sum, dual_bundle, eval_matrix,
                              glue_bundles, phi_dual, phi_sum,
                              tensor_product, trivial_bundle)
from diffwedge.clifford import (build_algebra, cl_mul, contract,
                                exterior_algebra, quantize, symbol,
                                wedge as cl_wedge)
from diffwedge.cli import load_config, main as cli_main, run
from diffwedge.connection import (Connection, check_leibniz,
                                  check_metric_compatibility,
                                  dual_connection, glue_connections,
                                  is_symmetric_connection, koszul_check,
                                  levi_civita)
from diffwedge.dirac import (check_clifford_connection, check_unitarity,
                             clifford_connection, dirac, exterior_module,
                             glue_dirac, single_chart_module,
                             verify_splitting)
from diffwedge.dvspace import (DvsModel, dual_metric, dual_space,
                               is_pseudo_metric, pairing_map,
                               smooth_form_basis, standard_model)
from diffwedge.linalg import frac_matrix, identity, mat_mul, mat_vec, \
    transpose
from diffwedge.forms import dual_metric_identity_check, lambda1
from diffwedge.symexpr import ZERO, evaluate, parse_expr
from diffwedge.wedge import glue_complexes, line

HERE = os.path.dirname(__file__)
CONFIGS = os.path.join(HERE, os.pardir, "configs")
GRID = [Fraction(i, 5) for i in range(-10, 11)]


def reported(label):
    def deco(fn):
        @functools.wraps(fn)
        def inner(*a, **k):
            try:
                fn(*a, **k)
            except BaseException:
                print(f"{label}: FAIL")
                raise
            print(f"{label}: PASS")
        return inner
    return deco


def rnd_poly(rng):
    c = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
    return parse_expr(f"({c[0]})+({c[1]})*x+({c[2]})*x^2")


def glued_lambda(h1="exp(x)", h2="exp(-x)"):
    g = glue_complexes(line("a"), line("b"), [(("a", 0), ("b", 0))])
    return lambda1(g, {"a": h1, "b": h2})


THREE_DIM = DvsModel(3, ((0, 1, 1),))
EXAMPLE_METRIC = frac_matrix([[2, 1, -1], [1, 2, -2], [-1, -2, 2]])


@reported("criterion 01 fibre worked example (exact)")
def test_criterion_01_fibre_example():
    assert dual_space(THREE_DIM) == [[1, 0, 0], [0, 1, -1]]
    basis = smooth_form_basis(THREE_DIM)
    assert len(basis) == 3
    for m in basis:
        # shape [[c, a, -a], [a, b, -b], [-a, -b, b]]
        assert m == transpose(m)
        assert m[0][2] == -m[0][1]
        assert m[1][2] == -m[1][1]
        assert m[2][2] == m[1][1]
    assert is_pseudo_metric(THREE_DIM, EXAMPLE_METRIC).ok
    # its rank is reported with the verdict; two_planes.json carries it
    cfg = load_config(os.path.join(CONFIGS, "two_planes.json"))
    entry = run("dual-metric", cfg)[0]["verdicts"][0]
    assert entry == {"name": "pseudo-metric", "pass": True, "reason": "",
                     "rank": 2}


@reported("criterion 02 dual metric oracle and documented discrepancy")
def test_criterion_02_dual_metric():
    b = dual_metric(THREE_DIM, EXAMPLE_METRIC)
    assert b == [[Fraction(2, 3), Fraction(-1, 3)],
                 [Fraction(-1, 3), Fraction(2, 3)]]
    # defining identity on all basis pairs, exact; phi[i] = phi(e_i)
    phi = pairing_map(THREE_DIM, EXAMPLE_METRIC, identity(3))
    for i in range(3):
        for j in range(3):
            lhs = sum(phi[i][s] * b[s][t] * phi[j][t]
                      for s in range(2) for t in range(2))
            assert lhs == EXAMPLE_METRIC[i][j]
    # and the commonly quoted alternative fails that identity
    alt = [[Fraction(6, 9), Fraction(5, 9)], [Fraction(5, 9), Fraction(6, 9)]]
    p1 = phi[0]
    bad = sum(p1[s] * alt[s][t] * p1[t] for s in range(2) for t in range(2))
    assert bad != EXAMPLE_METRIC[0][0]
    # the shipped report spells the discrepancy out
    cfg = load_config(os.path.join(CONFIGS, "two_planes.json"))
    report, code = run("dual-metric", cfg)
    assert code == 0
    assert "(1/9)[[6,5],[5,6]]" in report["values"]["note"]


@reported("criterion 03 clifford property suite (exact)")
def test_criterion_03_clifford():
    def diag_alg(diag):
        n = len(diag)
        g = [[Fraction(diag[i]) if i == j else Fraction(0)
              for j in range(n)] for i in range(n)]
        gens = tuple(tuple(Fraction(int(t == i)) for t in range(n))
                     for i, d in enumerate(diag) if d == 0)
        if len(gens) == n:
            return exterior_algebra(n)
        return build_algebra(DvsModel(n, gens), g)

    for n in range(1, 6):
        assert diag_alg([1] * n).dim == 2 ** n
    for n in range(1, 5):
        alg = diag_alg(list(range(1, n + 1)))
        bs = [{m: Fraction(1)} for m in range(alg.dim)]
        for a, b, c in product(bs, bs, bs):
            assert cl_mul(alg, cl_mul(alg, a, b), c) == \
                cl_mul(alg, a, cl_mul(alg, b, c))
        for s in range(alg.dim):
            blade = {s: Fraction(1)}
            assert symbol(alg, quantize(alg, blade)) == blade
    alg = diag_alg([1, 2, 5])
    for i in range(3):
        for j in range(3):
            w = [Fraction(int(t == j)) for t in range(3)]
            q = alg.diag[i] if i == j else Fraction(0)
            vmv = {1 << i: Fraction(1)}
            for s in range(alg.dim):
                blade = {s: Fraction(1)}
                anti = cl_wedge(alg, vmv, contract(alg, w, blade))
                for m, c in contract(alg, w,
                                     cl_wedge(alg, vmv, blade)).items():
                    anti[m] = anti.get(m, Fraction(0)) + c
                anti = {m: c for m, c in anti.items() if c}
                want = {s: q} if q else {}
                assert anti == want
    for n in range(1, 4):
        alg = diag_alg([1] * n)
        for i in range(n):
            v = [Fraction(int(t == i)) for t in range(n)]
            vmv = {1 << i: Fraction(1)}
            for sa in range(alg.dim):
                for sb in range(alg.dim):
                    lhs = cl_wedge(alg, vmv, {sa: Fraction(1)}).get(sb, 0)
                    rhs = contract(alg, v, {sb: Fraction(1)}).get(sa, 0)
                    assert lhs == rhs


@reported("criterion 04 two-planes glued product and gate")
def test_criterion_04_two_planes_product():
    h1 = parse_expr("exp(x)")
    worst = 0.0
    for x in (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(2)):
        hv = evaluate(h1, x)
        alg = build_algebra(DvsModel(1),
                            [[Fraction(hv).limit_denominator(10 ** 15)]])
        for (z1, w1), (z2, w2) in [((1, 2), (3, -1)), ((0, 1), (0, 1)),
                                   ((2, 0), (0, 3)), ((1, 1), (1, 1))]:
            prod = cl_mul(alg, {1: Fraction(z1), 0: Fraction(w1)},
                          {1: Fraction(z2), 0: Fraction(w2)})
            worst = max(worst,
                        abs(float(prod.get(1, 0)) - (z1 * w2 + z2 * w1)),
                        abs(float(prod.get(0, 0))
                            - (-hv * z1 * z2 + w1 * w2)))
    assert worst <= 1e-12, worst
    # compatibility gate: scale 2 against h1(0) = h2(0) = 1 must be refused
    lam1 = lambda1(line("a"), {"a": "exp(x)"})
    lam2 = lambda1(line("b"), {"b": "x^2+1"})
    exterior_module(lam1, lam2, [(("a", 0), ("b", 0))], 1)
    with pytest.raises(ValueError, match="incompatible"):
        exterior_module(lam1, lam2, [(("a", 0), ("b", 0))], 2)


@reported("criterion 05 connection property suite")
def test_criterion_05_connections():
    lam = glued_lambda()
    lc = levi_civita(lam)
    pts = {c: GRID for c in ("a", "b")}
    for x in GRID:
        assert abs(evaluate(lc.gamma["a"][0][0], x) - 0.5) < 1e-12
    rng = random.Random(0)
    trials = [({c: rnd_poly(rng) for c in ("a", "b")},
               {c: [rnd_poly(rng)] for c in ("a", "b")}) for _ in range(5)]
    v = check_leibniz(lc, trials, pts, 1e-10)
    assert v.ok, v.residual
    pairs = [({c: [rnd_poly(rng)] for c in ("a", "b")},
              {c: [rnd_poly(rng)] for c in ("a", "b")}) for _ in range(3)]
    v = check_metric_compatibility(lc, pairs, pts, 1e-10)
    assert v.ok, v.residual
    flat = Connection(lam, {"a": [[ZERO]], "b": [[ZERO]]})
    v = check_metric_compatibility(flat, pairs, pts, 1e-10)
    assert not v.ok
    fields = [{c: rnd_poly(rng) for c in ("a", "b")} for _ in range(3)]
    assert is_symmetric_connection(dual_connection(lc), fields, pts, 1e-10)
    triples = [tuple({c: rnd_poly(rng) for c in ("a", "b")}
                     for _ in range(3)) for _ in range(10)]
    v = koszul_check(lam, triples, pts, 1e-9)
    assert v.ok, v.residual


@reported("criterion 06 glued connection restricts, symmetric, compatible")
def test_criterion_06_glued_connection():
    lam = glued_lambda()
    lam1 = lambda1(line("a"), {"a": "exp(x)"})
    lam2 = lambda1(line("b"), {"b": "exp(-x)"})
    glued = glue_connections(levi_civita(lam1), levi_civita(lam2), lam)
    lc = levi_civita(lam)
    pts = {c: GRID for c in ("a", "b")}
    for c in ("a", "b"):
        for x in GRID:
            if x == 0:
                continue
            assert abs(evaluate(glued.gamma[c][0][0], x)
                       - evaluate(lc.gamma[c][0][0], x)) < 1e-12
    rng = random.Random(1)
    fields = [{c: rnd_poly(rng) for c in ("a", "b")} for _ in range(3)]
    assert is_symmetric_connection(dual_connection(glued), fields, pts,
                                   1e-10)
    pairs = [({c: [rnd_poly(rng)] for c in ("a", "b")},
              {c: [rnd_poly(rng)] for c in ("a", "b")}) for _ in range(3)]
    v = check_metric_compatibility(glued, pairs, pts, 1e-10)
    assert v.ok, v.residual


@reported("criterion 07 structure-map identities on full fibre bases")
def test_criterion_07_structure_maps():
    def two_planes():
        b1 = trivial_bundle(line("a"), {"a": standard_model(1)},
                            {"a": [["exp(x)"]]})
        b2 = trivial_bundle(line("b"), {"b": standard_model(1)},
                            {"b": [["x^2+1"]]})
        return glue_bundles(b1, b2, [(("a", 0), ("b", 0))], [[1]])

    g, gg = two_planes(), two_planes()
    vsum = direct_sum(g, gg)
    vtens = tensor_product(g, gg)
    p = ("a", Fraction(0))
    j1, j1p = g.glue_map(0, p), gg.glue_map(0, p)
    # direct sum: Phi after the blockwise inclusion equals the sum inclusion
    phi = phi_sum(vsum, None, p)
    n, m = len(j1), len(j1p)
    for t in range(n + m):
        v = [Fraction(int(i == t)) for i in range(n + m)]
        block = [j1[i][t] if t < n and i < n else Fraction(0)
                 for i in range(n)] + \
                [j1p[i][t - n] if t >= n else Fraction(0) for i in range(m)]
        assert mat_vec(phi, block) == mat_vec(vsum.glue_map(0, p), v)
    # tensor: Phi after the Kronecker map equals the tensor inclusion
    phit = phi_sum(vtens, None, p)
    kron = [[j1[0][0] * j1p[0][0]]]
    assert mat_mul(phit, kron) == vtens.glue_map(0, p)
    # dual: identity off the glue, transpose over it, and an isometry
    assert phi_dual(g, ("a", 1)) == identity(1)
    phid = phi_dual(g, p)
    assert phid == transpose(g.glue_map(0, p))
    b_src = [[1 / g.metric_at(("b", 0))[0][0]]]
    b_dst = [[1 / eval_matrix(g.metrics["a"], 0)[0][0]]]
    assert mat_mul(transpose(phid), mat_mul(b_dst, phid)) == b_src
    d = dual_bundle(g)
    assert d.glue_map(0, ("b", Fraction(0))) == phid


@reported("criterion 08 one-form fibre dims and dual-metric coincidence")
def test_criterion_08_one_forms():
    lam2 = glued_lambda("x^2+1", "3-x")
    assert lam2.fibre_dim(("a", 0)) == 2
    g1 = glue_complexes(line("a"), line("b"), [(("a", 0), ("b", 0))])
    g2 = glue_complexes(g1.result, line("c"), [(("a", 0), ("c", 0))])
    lam3 = lambda1(g2, {"a": "1", "b": "2", "c": "x^2+1"})
    assert lam3.fibre_dim(("c", 0)) == 3
    v = dual_metric_identity_check(lam2)
    assert v.ok, v.witness
    v = dual_metric_identity_check(lam3)
    assert v.ok, v.witness


@reported("criterion 09 glued dirac operator splits over the legs")
def test_criterion_09_dirac_flagship():
    lam1 = lambda1(line("a"), {"a": "exp(x)"})
    lam2 = lambda1(line("b"), {"b": "exp(-x)"})
    module = exterior_module(lam1, lam2, [(("a", 0), ("b", 0))], 1)
    m1, m2 = single_chart_module(lam1), single_chart_module(lam2)
    d1 = dirac(m1)
    d2 = dirac(m2)
    d = glue_dirac(d1, d2, module)
    rng = random.Random(2)
    for _ in range(5):
        u1, w1, u2, w2 = (rnd_poly(rng) for _ in range(4))
        du = evaluate(u1, 0) - evaluate(u2, 0)
        dw = evaluate(w1, 0) - evaluate(w2, 0)
        s1 = {"a": [u1, w1]}
        s2 = {"b": [u2 + parse_expr(str(Fraction(du))),
                    w2 + parse_expr(str(Fraction(dw)))]}
        v = verify_splitting(d, s1, s2, 1e-10)
        assert v.ok, v.residual
    lam = module.lam
    lc = levi_civita(lam)
    conn_e = clifford_connection(module)
    pts = {c: GRID for c in ("a", "b")}
    batteries = [({c: rnd_poly(rng) for c in ("a", "b")},
                  {c: rnd_poly(rng) for c in ("a", "b")},
                  {c: [rnd_poly(rng), rnd_poly(rng)] for c in ("a", "b")})
                 for _ in range(3)]
    v = check_clifford_connection(module, conn_e, lc, batteries, pts, 1e-9)
    assert v.ok, v.residual
    v = check_unitarity(module, pts, tol=1e-9)
    assert v.ok, v.residual


@reported("criterion 10 cli check passes and reports are byte-stable")
def test_criterion_10_cli(tmp_path, capsys):
    for name in ("two_planes.json", "wedge_dirac.json"):
        path = os.path.join(CONFIGS, name)
        assert cli_main(["check", path]) == 0
        capsys.readouterr()
        o1, o2 = str(tmp_path / f"1{name}"), str(tmp_path / f"2{name}")
        assert cli_main(["check", path, "--json", o1, "--seed", "3"]) == 0
        assert cli_main(["check", path, "--json", o2, "--seed", "3"]) == 0
        with open(o1, "rb") as f1, open(o2, "rb") as f2:
            assert f1.read() == f2.read()

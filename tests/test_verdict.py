"""Every public checker returns the one ``Verdict`` record."""

from fractions import Fraction

import pytest

from diffwedge.connection import (check_leibniz, check_metric_compatibility,
                                  dual_connection, is_symmetric_connection,
                                  koszul_check, levi_civita)
from diffwedge.dirac import (check_action_compatibility,
                             check_algebra_morphism, check_clifford_connection,
                             check_clifford_product, check_unitarity, clifford_connection, dirac,
                             exterior_module, verify_splitting)
from diffwedge.dvspace import (DvsModel, check_dual_compatibility,
                               check_map_compatibility, is_pseudo_metric,
                               standard_model)
from diffwedge.forms import dual_metric_identity_check, lambda1
from diffwedge.symexpr import Verdict
from diffwedge.wedge import glue_complexes, line

PTS = {"a": [Fraction(0), Fraction(1)], "b": [Fraction(0), Fraction(1)]}
T = {"a": "x", "b": "1"}


def wedge():
    g = glue_complexes(line("a"), line("b"), [(("a", 0), ("b", 0))])
    return lambda1(g, {"a": "exp(x)", "b": "exp(-x)"})


def module():
    legs = [lambda1(line(c), {c: h}) for c, h in (("a", "x^2+1"), ("b", "1"))]
    return exterior_module(*legs, [(("a", 0), ("b", 0))], 1)


def clifford_battery():
    m = module()
    return check_clifford_connection(m, clifford_connection(m),
                                     levi_civita(m.lam),
                                     [(T, T, {"a": ["x", "1"],
                                              "b": ["1", "x"]})], PTS)


M1 = standard_model(1)
CHECKERS = {
    "is_symmetric_connection": lambda: is_symmetric_connection(
        dual_connection(levi_civita(wedge())), [T], PTS),
    "check_leibniz": lambda: check_leibniz(
        levi_civita(wedge()), [(T, {"a": ["x"], "b": ["1"]})], PTS),
    "check_metric_compatibility": lambda: check_metric_compatibility(
        levi_civita(wedge()), [({"a": ["x"], "b": ["1"]},
                                {"a": ["1"], "b": ["x"]})], PTS),
    "koszul_check": lambda: koszul_check(wedge(), [(T, T, T)], PTS),
    "dual_metric_identity_check": lambda: dual_metric_identity_check(wedge()),
    "check_action_compatibility": lambda: check_action_compatibility(module()),
    "check_algebra_morphism": lambda: check_algebra_morphism(module(),
                                                             ("a", 0)),
    "check_unitarity": lambda: check_unitarity(module(), PTS),
    "check_clifford_product": lambda: check_clifford_product(module(), "a"),
    "check_clifford_connection": clifford_battery,
    "verify_splitting": lambda: verify_splitting(
        dirac(module()), {"a": ["1", "x"]}, {"b": ["1", "x"]}),
    "is_pseudo_metric": lambda: is_pseudo_metric(
        DvsModel(2, ((0, 1),)), [[1, 0], [0, 0]]),
    "check_map_compatibility": lambda: check_map_compatibility(
        M1, [[4]], M1, [[1]], [[2]]),
    "check_dual_compatibility": lambda: check_dual_compatibility(
        M1, [[4]], M1, [[1]], [[2]]),
}


@pytest.mark.parametrize("name", CHECKERS)
def test_each_checker_returns_a_verdict(name):
    v = CHECKERS[name]()
    assert type(v) is Verdict
    assert v.ok is True and bool(v) is True

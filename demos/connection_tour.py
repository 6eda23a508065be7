"""Connections on a wedge of two metric lines, end to end.

Shows the metric connection of each chart, the glued connection, and
the identities it satisfies: Leibniz, metric compatibility, vanishing
torsion, and the six-term bracket formula.
"""

import random
from fractions import Fraction

from diffwedge.connection import (check_leibniz, check_metric_compatibility,
                                  dual_connection, is_symmetric_connection,
                                  koszul_check, levi_civita)
from diffwedge.forms import lambda1
from diffwedge.symexpr import parse_expr, to_str
from diffwedge.wedge import glue_complexes, line

g = glue_complexes(line("a"), line("b"), [(("a", 0), ("b", 0))])
lam = lambda1(g, {"a": "exp(x)", "b": "exp(-x)"})
lc = levi_civita(lam)
print("metric connection coefficients:")
for cid in ("a", "b"):
    print(f"  chart {cid}: Gamma =", to_str(lc.gamma[cid][0][0]))

rng = random.Random(0)


def poly():
    c = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
    return parse_expr(f"({c[0]})+({c[1]})*x+({c[2]})*x^2")


grid = [Fraction(i, 5) for i in range(-10, 11)]
pts = {"a": grid, "b": grid}

trials = [({c: poly() for c in ("a", "b")},
           {c: [poly()] for c in ("a", "b")}) for _ in range(5)]
v = check_leibniz(lc, trials, pts)
print(f"Leibniz rule: {'ok' if v.ok else 'FAILED'} (worst {v.residual:.3g})")

pairs = [({c: [poly()] for c in ("a", "b")},
          {c: [poly()] for c in ("a", "b")}) for _ in range(3)]
v = check_metric_compatibility(lc, pairs, pts)
print(f"metric compatibility: {'ok' if v.ok else 'FAILED'} "
      f"(worst {v.residual:.3g})")

fields = [{c: poly() for c in ("a", "b")} for _ in range(3)]
v = is_symmetric_connection(dual_connection(lc), fields, pts)
print("torsion-free:", "ok" if v.ok else "FAILED")

triples = [tuple({c: poly() for c in ("a", "b")} for _ in range(3))
           for _ in range(10)]
v = koszul_check(lam, triples, pts)
print(f"six-term bracket formula: {'ok' if v.ok else 'FAILED'} "
      f"(worst {v.residual:.3g})")

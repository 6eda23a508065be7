"""Glue two metric lines at the origin and split the Dirac operator.

Builds the exterior modules of h1 = exp(x) and h2 = exp(-x), glues them
with the unit one-form map, and checks that the glued operator agrees
with the leg operators on a compatible section pair, including at the
wedge point itself.
"""

from fractions import Fraction

from diffwedge.dirac import (check_action_compatibility, check_unitarity,
                             dirac, dirac_value_at, exterior_module,
                             glue_dirac, single_chart_module,
                             verify_splitting)
from diffwedge.forms import lambda1
from diffwedge.wedge import line

lam1 = lambda1(line("a"), {"a": "exp(x)"})
lam2 = lambda1(line("b"), {"b": "exp(-x)"})
module = exterior_module(lam1, lam2, [(("a", 0), ("b", 0))], 1)

v = check_action_compatibility(module)
print("leg actions compatible through the glue map:", v.ok)

m1, m2 = single_chart_module(lam1), single_chart_module(lam2)
d1 = dirac(m1)
d2 = dirac(m2)
d = glue_dirac(d1, d2, module)

# sections matching at the wedge: u1(0) = u2(0), w1(0) = w2(0)
s1 = {"a": ["x+3", "x+1"]}
s2 = {"b": ["x+3", "exp(x)"]}
print("\nsections: a ->", s1["a"], " b ->", s2["b"])

for p in [("a", Fraction(-1)), ("a", Fraction(0)), ("b", Fraction(1))]:
    print(f"D~ s at {p}:", dirac_value_at(d, {**s1, **s2}, p))

points = [("a", Fraction(i, 3)) for i in range(-6, 7) if i != 0]
points += [("b", Fraction(i, 3)) for i in range(1, 7)]
points.append(("a", Fraction(0)))
v = verify_splitting(d, s1, s2, points)
print(f"\nsplitting over the legs at {len(points)} points:",
      "ok" if v.ok else "FAILED", f"(worst residual {v.residual:.3g})")

grid = [Fraction(i, 5) for i in range(-10, 11)]
v = check_unitarity(module, {"a": grid, "b": grid})
print("unit one-forms act by isometries:",
      "ok" if v.ok else "FAILED", f"(worst residual {v.residual:.3g})")

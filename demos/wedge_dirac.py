"""Glue two metric lines at the origin and split the Dirac operator.

Builds the exterior modules of h1 = exp(x) and h2 = exp(-x), glues them
with the unit one-form map, and checks that the glued operator agrees
with the leg operator on a compatible section pair at the wedge point,
where the glued value is assembled from both legs.
"""

from fractions import Fraction

from diffwedge.bundle import eval_vector
from diffwedge.dirac import (apply_dirac_chart, check_action_compatibility,
                             check_unitarity, dirac, dirac_value_at,
                             exterior_module, glue_dirac, single_chart_module,
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

for p in [("a", Fraction(-1)), ("b", Fraction(1))]:
    print(f"D~ s at {p}:", dirac_value_at(d, {**s1, **s2}, p))

# at the wedge the glued value takes the second leg's fibre: compare it with
# the second leg's own D s at its end of the glue point
glued = dirac_value_at(d, {**s1, **s2}, ("a", 0))
leg = eval_vector(apply_dirac_chart(d, s2, "b"), 0)
print("\nglued D~ s at ('a', 0):", glued, " leg D s at ('b', 0):", leg)
v = verify_splitting(d, s1, s2)
print("splitting at the glue point:", "ok" if v.ok else "FAILED",
      f"(residual {v.residual:.3g})")

grid = [Fraction(i, 5) for i in range(-10, 11)]
v = check_unitarity(module, {"a": grid, "b": grid})
print("unit one-forms act by isometries:",
      "ok" if v.ok else "FAILED", f"(worst residual {v.residual:.3g})")

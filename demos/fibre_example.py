"""Walk through the 3-dimensional fibre with one non-smooth direction.

Computes the dual space, the smooth symmetric forms, a pseudo-metric
verdict, the pairing map and the dual metric, and shows why the dual
metric is what it is: it is pinned down by B(phi(u), phi(v)) = g(u, v).
"""

from fractions import Fraction

from diffwedge.dvspace import (DvsModel, dual_metric, dual_space,
                               is_pseudo_metric, pairing_map,
                               smooth_form_basis)

def show(m):
    return [[str(v) for v in row] for row in m]


model = DvsModel(3, ((0, 1, 1),))
print("fibre: R^3 with non-smooth direction (0, 1, 1)")
print("dual space basis:", show(dual_space(model)))

print("\nsmooth symmetric forms (a basis):")
for m in smooth_form_basis(model):
    print(" ", show(m))

A = [[Fraction(v) for v in row]
     for row in ([2, 1, -1], [1, 2, -2], [-1, -2, 2])]
v = is_pseudo_metric(model, A)
print("\nA =", show(A))
# kernel exactly K: the rank is the dimension of the smooth dual
print("pseudo-metric verdict:", v.ok, "| rank", model.dim - model.k_dim)

B = dual_metric(model, A)
print("dual metric B =", show(B))

print("\ndefining identity B(phi(e_i), phi(e_j)) = A[i][j]:")
# phi[i] = phi(e_i), all three from one call
phi = pairing_map(model, A, [[int(t == i) for t in range(3)] for i in range(3)])
for i in range(3):
    for j in range(3):
        lhs = sum(phi[i][s] * B[s][t] * phi[j][t]
                  for s in range(2) for t in range(2))
        mark = "ok" if lhs == A[i][j] else "MISMATCH"
        print(f"  ({i}, {j}): {lhs} vs {A[i][j]}  {mark}")

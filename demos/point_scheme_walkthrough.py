"""Walk through the point scheme of A(gamma), step by step.

The family A(gamma) is presented by six quadratic relations on four
generators.  Writing the relations as M x = 0 for a 6x4 matrix M of
linear forms, the point scheme is the vanishing locus of the fifteen
4x4 minors of M.  This script builds everything at gamma = 1 and at the
degenerate value gamma = 2, and prints what the exact engine certifies.
"""

from qp3.gaussian import gr
from qp3.multipoly import print_poly
from qp3.quadratic_algebra import make_A, relation_matrix
from qp3.point_scheme import (E1, E2, count_points, point_ideal, rho_system,
                              sigma, verify_vanishing_pairs)

gamma = gr(1)
A = make_A(gamma)

print("=== the relation matrix M (rows in presentation order) ===")
M = relation_matrix(A)
for r in range(M.rows):
    print("  [" + ", ".join(print_poly(e) for e in M.row(r)) + "]")

print()
print("=== the fifteen minors cutting out the point scheme ===")
for k, m in enumerate(point_ideal(A).generators, start=1):
    print(f"  {k:2d}. {print_poly(m)}")

print()
print("=== the triangular system on the x1 = 1 chart ===")
for name, rho in zip(("rho1", "rho2", "rho3"), rho_system(gamma)):
    print(f"  {name} = {print_poly(rho)}")

print()
print("=== counting points, with multiplicity and distinctly ===")
for gv in (1, 2):
    report = count_points(make_A(gr(gv)))
    print(f"--- gamma = {gv} ---")
    print(report.to_text())
    print()

print("=== the automorphism sigma on closed points ===")
print(f"  sigma(e1) = {sigma(E1, A)}   sigma(e2) = {sigma(E2, A)}")
print(f"  relations vanish exactly on the pairs (p, sigma p): "
      f"{verify_vanishing_pairs(A)}")

"""Build the line scheme of A(gamma) from scratch and verify its
decomposition into seven (or eight) curves.

Pipeline: the Koszul dual of A(gamma) has ten relations, giving a 10x4
matrix of linear forms; doubling it in u and v gives a 10x8 matrix whose
forty-five 8x8 minors are quartics in the N_ij = u_i v_j - u_j v_i.  The
minors are taken directly in the Pluecker coordinates M_ij, with
u = (M34, 0, -M14, M13) and v = (0, M34, -M24, M23): every N_ij is then
M34 times its coordinate modulo the Pluecker quadric P, so each minor is
M34^4 times a quartic modulo P.  The lead M14*M23 of P is free of M34, so
the minor's normal form modulo P divided by M34^4 is that quartic's normal
form, and with P the 46 polynomials cut out the line scheme in P5.
"""

from qp3 import gr, print_poly
from qp3.quadratic_algebra import koszul_dual_relations, m_hat, make_A
from qp3.groebner import hilbert_dimension_degree
from qp3.line_scheme import (build_big_matrix, component_catalog,
                             gamma4_factorization, line_scheme_ideal,
                             match_displayed_big_matrix, verify_decomposition)

gamma = gr(1)
A = make_A(gamma)

print("=== the Koszul dual has ten relations; its matrix is 10 x 4 ===")
mh = m_hat(A)
for r in range(mh.rows):
    print("  [" + ", ".join(print_poly(e) for e in mh.row(r)) + "]")
print(f"  ({len(koszul_dual_relations(A))} dual relations)")

print()
print("=== doubled in u and v: 10 x 8, matching the reference display ===")
perm = match_displayed_big_matrix(A)
big = build_big_matrix(A)
print(f"  shape {big.rows} x {big.cols}; row correspondence with the "
      f"displayed form (computed row, scalar):")
print("  " + ", ".join(f"{idx}:{s}" for idx, s in perm))

print()
print("=== the 46 polynomials of the line scheme ===")
L = line_scheme_ideal(gamma)
for k, p in enumerate(L.polys):
    print(f"  [{k:2d}] {print_poly(p)}")

print()
print("=== the component catalog and the decomposition verification ===")
for gv in (1, 4):
    g = gr(gv)
    cat = component_catalog(g)
    print(f"--- gamma = {gv}: {len(cat)} components ---")
    for c in cat:
        gens = ", ".join(print_poly(p) for p in c.ideal.generators)
        print(f"  {c.name} ({c.kind}, degree {c.degree}): {gens}")
    rep = verify_decomposition(line_scheme_ideal(g), cat)
    print(f"  every polynomial vanishes on every component: "
          f"{rep.poly_in_components}")
    print(f"  intersection of components inside the scheme: "
          f"{rep.intersection_in_radical}")
    print(f"  dimension and degree of the scheme: {rep.hilbert}")
    print(f"  component degrees sum: {rep.degrees_sum}")
    if gv == 4:
        print(f"  quadric factorization at gamma^2 = 16: "
              f"{gamma4_factorization(g)}")
    print()

print("=== Hilbert data of single components at gamma = 1 ===")
cat = component_catalog(gamma)
for c in cat:
    print(f"  {c.name}: {hilbert_dimension_degree(c.ideal)}")

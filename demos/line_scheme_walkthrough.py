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

from math import comb

from qp3.gaussian import gr
from qp3.multipoly import DEGREVLEX, Polynomial, VarSet, parse_poly, print_poly
from qp3.polylinalg import PolyMatrix, all_minors
from qp3.quadratic_algebra import M_VARS, koszul_dual_relations, m_hat, make_A
from qp3.fixtures import load_fixtures
from qp3.groebner import (Ideal, buchberger, eliminate,
                          hilbert_dimension_degree, hilbert_numerator,
                          intersect, normal_form)
from qp3.line_scheme import (build_big_matrix, component_catalog,
                             components_intersection, line_scheme_ideal,
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
    print()

print("=== gamma^2 = 16: L1 splits into the conics L1a and L1b ===")
# the pencil member q2 - (gamma/2) q1 of L1 is f^2 - h^2 there, and the
# catalog replaces q2 by f + h and by f - h
for gv in (4, -4):
    q1, q2 = (parse_poly(t, M_VARS, gamma=gr(gv))
              for t in load_fixtures().component_generators["L1"][2:])
    f1, f2 = (component_catalog(gr(gv)).get(n).ideal.generators[-1]
              for n in ("L1a", "L1b"))
    print(f"  gamma = {gv}: q2 - (gamma/2) q1 = ({print_poly(f1)}) * "
          f"({print_poly(f2)}): {f1 * f2 == q2 - gr(gv) / 2 * q1}")

print()
print("=== for every gamma at once: where is a component singular? ===")
# over Q(i)[g], a component plus the 4x4 minors of its Jacobian in the M_ij,
# one chart M_ij = 1 at a time with the M_ij eliminated, leaves the gammas
# where it is singular; away from them the printed kinds hold
MG = VarSet([*M_VARS.names, "g"])
for name, gens in load_fixtures().parse_components(None).items():
    jac = PolyMatrix([[f.derivative(n) for n in M_VARS.names] for f in gens])
    sing = gens + [d for d in all_minors(jac, 4) if not d.is_zero()]
    union = None
    for n in M_VARS.names:
        chart = eliminate(Ideal(sing + [Polynomial.variable(MG, n) - 1]), ["g"])
        union = chart if union is None else intersect(union, chart)
    where = ", ".join(print_poly(p) for p in buchberger(union))
    print(f"  {name}: " + ("smooth for every gamma" if where == "1"
                          else f"singular where {where} = 0"))

print()

print("=== the scheme, not just the set: L^sat is the intersection ===")
# I_cap, the intersection of the component ideals, is saturated, and it
# holds L.  Each of its generators lies in L or has all six M_ij * f in L,
# so I_cap lies in (L : m) and L^sat = I_cap: the line scheme is reduced,
# and L differs from I_cap in degree 3 alone.
inter = components_intersection(component_catalog(gamma))
gb = buchberger(L.ideal)
variables = [Polynomial.variable(L.ideal.varset, v) for v in L.ideal.varset.names]
in_L = [normal_form(f, gb).is_zero() for f in inter.generators]
times_m_in_L = [all(normal_form(m * f, gb).is_zero() for m in variables)
                for f, inside in zip(inter.generators, in_L) if not inside]
print(f"  I_cap has {len(in_L)} generators: {sum(in_L)} lie in L, and "
      f"{sum(times_m_in_L)} of the other {len(times_m_in_L)} have every "
      f"M_ij * f in L")
n = len(L.ideal.varset)
for name, ideal in (("S/L", L.ideal), ("S/I_cap", inter)):
    num = hilbert_numerator(
        buchberger(ideal.with_order(DEGREVLEX)).leading_monomials(), n)
    values = [sum(c * comb(d - k + n - 1, n - 1)
                  for k, c in enumerate(num[:d + 1])) for d in range(10)]
    print(f"  Hilbert function of {name} in degrees 0-9: {values}")

print()
print("=== Hilbert data of single components at gamma = 1 ===")
cat = component_catalog(gamma)
for c in cat:
    print(f"  {c.name}: {hilbert_dimension_degree(c.ideal)}")

"""Reference implementations that the tests check the engine against.

Each computes what an engine routine computes by another method, and no
command needs it: Bareiss elimination for the determinant and the minors
of `polylinalg.all_minors`, the exact long division it rests on, and a
plain float evaluator for the compiled residuals of `numeric`.
"""

from typing import Mapping

from qp3.multipoly import Polynomial, VarSetMismatchError
from qp3.polylinalg import PolyMatrix


def det_bareiss(m: PolyMatrix) -> Polynomial:
    """Fraction-free Gaussian elimination determinant (cross-check oracle)."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    order = m.entries[0][0].order
    one = Polynomial.constant(m.varset, 1, order)
    a = [[m.entries[r][c] for c in range(n)] for r in range(n)]
    prev = one
    sign = 1
    for k in range(n - 1):
        if a[k][k].is_zero():
            for r in range(k + 1, n):
                if not a[r][k].is_zero():
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return Polynomial.zero(m.varset, order)
        for r in range(k + 1, n):
            for c in range(k + 1, n):
                num = a[r][c] * a[k][k] - a[r][k] * a[k][c]
                a[r][c] = poly_exact_div(num, prev)
            a[r][k] = Polynomial.zero(m.varset, order)
        prev = a[k][k]
    d = a[n - 1][n - 1]
    return d if sign > 0 else -d


def poly_exact_div(f: Polynomial, g: Polynomial) -> Polynomial:
    """Exact quotient f/g by long division on leading terms, in f's order;
    raises ValueError if g does not divide f."""
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if f.varset != g.varset:
        raise VarSetMismatchError("polynomials live on different VarSets")
    g = g.with_order(f.order)
    lm, inv = g.leading_monomial(), g.leading_coefficient().inverse()
    q = Polynomial.zero(f.varset, f.order)
    while not f.is_zero():
        u = tuple(a - b for a, b in zip(f.leading_monomial(), lm))
        if min(u) < 0:
            raise ValueError("not an exact polynomial division")
        t = Polynomial(f.varset, {u: f.leading_coefficient() * inv}, f.order)
        q, f = q + t, f - t * g
    return q


def evaluate(f: Polynomial, values: Mapping[str, complex]) -> complex:
    """Numeric evaluation with complex values for every variable."""
    vs = [values[n] for n in f.varset.names]
    total = 0j
    for m, c in f.terms.items():
        t = c.to_complex()
        for v, e in zip(vs, m):
            if e:
                t *= v ** e
        total += t
    return total

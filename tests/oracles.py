"""Reference implementations that the tests check the engine against.

Each computes what an engine routine computes by another method, and no
command needs it: Bareiss elimination for the determinant and the minors
of `polylinalg.all_minors`, the exact long division it rests on, a plain
float evaluator for the compiled residuals of `numeric`, a count of
standard monomials for the Hilbert numerators of `groebner`, and
Rabinowitsch's rule for its `radical_member`.
"""

from itertools import combinations_with_replacement
from operator import le
from typing import List, Mapping, Sequence, Tuple

from qp3.groebner import Ideal, buchberger
from qp3.multipoly import DEGREVLEX, Polynomial, VarSetMismatchError, substitute
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


def staircase_counts(gens: Sequence[Tuple[int, ...]], nvars: int,
                     top: int) -> List[int]:
    """For d = 0..top, the number of monomials of degree d in nvars
    variables that no generator divides: the Hilbert function of the
    quotient by the monomial ideal, one monomial at a time."""
    counts = []
    for d in range(top + 1):
        count = 0
        for vs in combinations_with_replacement(range(nvars), d):
            m = tuple(vs.count(k) for k in range(nvars))
            count += not any(all(map(le, g, m)) for g in gens)
        counts.append(count)
    return counts


def radical_member_rabinowitsch(f: Polynomial, I: Ideal) -> bool:
    """Whether f lies in the radical of I, by Rabinowitsch's rule: iff 1
    lies in I + <1 - t f>, t a new variable (Cox, Little, O'Shea, Ideals,
    Varieties, and Algorithms, 4.2).  The basis is computed under
    DEGREVLEX from I's generators, each lifted by `substitute`."""
    vs = f.varset
    name = "t" + "_" * max(map(len, vs.names))    # longer than every name
    big = vs.extend([name])
    t = Polynomial.variable(big, name)
    gens = [substitute(g, {}, target=big, order=DEGREVLEX)
            for g in (*I.generators, f)]
    return buchberger(Ideal(gens[:-1] + [1 - t * gens[-1]], DEGREVLEX)).contains_one()

"""Independent oracle for the Groebner engine: a deliberately naive
Buchberger (every pair processed, no selection strategy, no pair pruning,
rational arithmetic throughout) must produce the same reduced basis.

Reduced Groebner bases are canonical for a given ideal and order, so any
unsound pair-elimination criterion in the production engine would show up
here as a basis mismatch."""

import random

import pytest

from qp3 import groebner
from qp3.gaussian import gr
from qp3.multipoly import MonomialOrder, Polynomial, VarSet, print_poly
from qp3.groebner import Ideal, buchberger
from qp3.point_scheme import rho_system
from qp3.line_scheme import component_catalog


def _lcm(m1, m2):
    return tuple(max(a, b) for a, b in zip(m1, m2))


def _naive_reduce(f, basis, order):
    vs = f.varset
    changed = True
    r = Polynomial.zero(vs, order)
    work = f
    while not work.is_zero():
        lm = work.leading_monomial()
        lc = work.leading_coefficient()
        hit = None
        for g in basis:
            lg = g.leading_monomial()
            if all(a >= b for a, b in zip(lm, lg)):
                hit = g
                break
        if hit is None:
            head = Polynomial(vs, {lm: lc}, order)
            r = r + head
            work = work - head
        else:
            u = tuple(a - b for a, b in zip(lm, hit.leading_monomial()))
            factor = Polynomial(vs, {u: lc / hit.leading_coefficient()}, order)
            work = work - factor * hit
    return r


def naive_buchberger(I):
    order = I.order
    vs = I.varset
    basis = [g.monic().with_order(order) for g in I.generators]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        i, j = pairs.pop(0)
        f, g = basis[i], basis[j]
        lcm = _lcm(f.leading_monomial(), g.leading_monomial())
        uf = Polynomial(vs, {tuple(a - b for a, b in
                                   zip(lcm, f.leading_monomial())): gr(1)}, order)
        ug = Polynomial(vs, {tuple(a - b for a, b in
                                   zip(lcm, g.leading_monomial())): gr(1)}, order)
        s = uf * f - ug * g
        h = _naive_reduce(s, basis, order)
        if not h.is_zero():
            h = h.monic()
            pairs.extend((k, len(basis)) for k in range(len(basis)))
            basis.append(h)
    # minimalize and tail-reduce
    minimal = []
    for g in sorted(basis, key=lambda p: order.key(p.leading_monomial())):
        lg = g.leading_monomial()
        if not any(all(a >= b for a, b in zip(lg, m.leading_monomial()))
                   for m in minimal):
            minimal.append(g)
    reduced = []
    for k, g in enumerate(minimal):
        others = [m for t, m in enumerate(minimal) if t != k]
        reduced.append(_naive_reduce(g, others, order).monic())
    reduced.sort(key=lambda p: order.key(p.leading_monomial()), reverse=True)
    return reduced


@pytest.fixture(autouse=True)
def fresh_basis_cache(monkeypatch):
    # the engine must compute every basis compared here, not look it up
    monkeypatch.setattr(groebner, "_GB_CACHE", {})


def _same_basis(I):
    groebner._GB_CACHE.clear()
    fast = buchberger(I)
    slow = naive_buchberger(I)
    return [print_poly(p) for p in fast] == [print_poly(p) for p in slow]


def test_oracle_on_rho_ideal():
    assert _same_basis(Ideal(list(rho_system(gr(1)))))
    assert _same_basis(Ideal(list(rho_system(gr(2)))))


def test_oracle_on_component_ideals():
    for name in ("L1", "L2", "L6a"):
        comp = component_catalog(gr(1)).get(name)
        assert _same_basis(comp.ideal)


def test_oracle_on_lex_order():
    lex = MonomialOrder.lex()
    I = Ideal([p.with_order(lex) for p in rho_system(gr(5))], lex)
    assert _same_basis(I)


def test_oracle_on_random_ideals():
    rng = random.Random(57)
    vs = VarSet(["x", "y", "z"])
    for _ in range(40):
        gens = []
        for _ in range(rng.randint(2, 3)):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                m = tuple(rng.randint(0, 2) for _ in range(3))
                terms[m] = gr(rng.randint(-3, 3), rng.randint(-2, 2))
            p = Polynomial(vs, terms)
            if not p.is_zero():
                gens.append(p)
        if gens:
            assert _same_basis(Ideal(gens))

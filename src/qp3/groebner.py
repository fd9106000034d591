"""Buchberger's algorithm and the ideal-theoretic toolkit.

The engine works internally on term lists with Gaussian-integer
coefficients (pairs of ints) and an additive order key per term; all
reductions are fraction-free with periodic content stripping, so no
rational arithmetic happens in the hot loop.  Public results come back
as monic polynomials over Q(i).

Pair handling follows the Gebauer-Moeller installation of Buchberger's
two criteria, with the sugar selection strategy and fully deterministic
tie-breaking so that repeated runs produce identical bases.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from math import gcd
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from .gaussian import GaussianRational, ONE, ZERO
from .multipoly import (DEGREVLEX, MonomialOrder, Monomial, Polynomial, VarSet,
                        VarSetMismatchError)


class ResourceLimitError(RuntimeError):
    """A configured Buchberger resource bound was exceeded."""


class NonHomogeneousError(ValueError):
    pass


class NotAUnitError(ValueError):
    pass


@dataclass(frozen=True)
class GroebnerLimits:
    max_pairs: int = 500_000
    max_basis: int = 5_000
    max_degree: int = 200


DEFAULT_LIMITS = GroebnerLimits()

_LIMITS: ContextVar[GroebnerLimits] = ContextVar("qp3_groebner_limits",
                                                 default=DEFAULT_LIMITS)


@contextmanager
def limits_scope(limits: GroebnerLimits) -> Iterator[None]:
    """Run every Groebner computation in the block under `limits`.

    The limits live in a context variable, so they hold for this thread
    (or asyncio task) only, and the previous limits come back when the
    block exits, also by an exception.
    """
    token = _LIMITS.set(limits)
    try:
        yield
    finally:
        _LIMITS.reset(token)


class Ideal:
    """A polynomial ideal given by generators plus a working order."""

    __slots__ = ("generators", "order", "varset")

    def __init__(self, generators: Sequence[Polynomial],
                 order: Optional[MonomialOrder] = None,
                 varset: Optional[VarSet] = None):
        gens = tuple(g for g in generators if not g.is_zero())
        if gens:
            vs = gens[0].varset
            for g in gens:
                if g.varset != vs:
                    raise VarSetMismatchError("ideal generators on different VarSets")
        elif varset is not None:
            vs = varset
        else:
            raise ValueError("zero ideal needs an explicit VarSet")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "varset", vs)
        object.__setattr__(self, "order",
                           order if order is not None
                           else (gens[0].order if gens else DEGREVLEX))

    def __setattr__(self, name, value):
        raise AttributeError("Ideal is immutable")

    def __eq__(self, other):
        return (isinstance(other, Ideal)
                and self.generators == other.generators
                and self.order == other.order
                and self.varset == other.varset)

    def __hash__(self):
        return hash((self.generators, self.order, self.varset))

    def __repr__(self):
        return f"Ideal({len(self.generators)} generators on {self.varset!r})"

    def is_zero(self) -> bool:
        return not self.generators

    def with_order(self, order: MonomialOrder) -> "Ideal":
        if order == self.order:
            return self
        return Ideal(self.generators, order, varset=self.varset)


# ---------------------------------------------------------------------------
# internal fraction-free term lists
# ---------------------------------------------------------------------------
# A term is (key, monomial, (a, b)) with key the additive order key and
# (a, b) the Gaussian integer a + b*i.  Lists are descending in key.

_IPoly = List[Tuple[tuple, Monomial, Tuple[int, int]]]


def _cmul(x, y):
    a, b = x
    c, d = y
    return (a * c - b * d, a * d + b * c)


def _content_strip(*polys: _IPoly) -> int:
    g = 0
    for p in polys:
        for _, _, (a, b) in p:
            g = gcd(g, a, b)
            if g == 1:
                return 1
    if g > 1:
        for p in polys:
            for k in range(len(p)):
                key, m, (a, b) = p[k]
                p[k] = (key, m, (a // g, b // g))
    return g


def _unit_normalize(p: _IPoly) -> None:
    if not p:
        return
    a, b = p[0][2]
    if a < 0 or (a == 0 and b < 0):
        for k in range(len(p)):
            key, m, (x, y) = p[k]
            p[k] = (key, m, (-x, -y))


def _to_internal(f: Polynomial, keyfn) -> _IPoly:
    out, _ = _to_internal_tracked(f, keyfn)
    _unit_normalize(out)
    return out


def _to_internal_tracked(f: Polynomial, keyfn):
    """Integer form plus the exact positive rational q with internal = q*f."""
    from fractions import Fraction
    from math import lcm

    if f.is_zero():
        return [], Fraction(1)
    denom = 1
    for c in f.terms.values():
        denom = lcm(denom, c.d)
    out = []
    for m, c in f.terms.items():
        s = denom // c.d
        out.append((keyfn(m), m, (c.a * s, c.b * s)))
    out.sort(key=lambda t: t[0], reverse=True)
    content = _content_strip(out)
    return out, Fraction(denom, content)


def _to_polynomial(p: _IPoly, varset: VarSet, order: MonomialOrder,
                   monic: bool = True) -> Polynomial:
    if not p:
        return Polynomial.zero(varset, order)
    terms: Dict[Monomial, GaussianRational] = {}
    if monic:
        lc = GaussianRational(p[0][2][0], p[0][2][1])
        inv = lc.inverse()
        for _, m, (a, b) in p:
            terms[m] = GaussianRational(a, b) * inv
    else:
        for _, m, (a, b) in p:
            terms[m] = GaussianRational(a, b)
    return Polynomial(varset, terms, order)


def _iadd(p: _IPoly, q: _IPoly) -> _IPoly:
    out: _IPoly = []
    i = j = 0
    np_, nq = len(p), len(q)
    while i < np_ and j < nq:
        kp, kq = p[i][0], q[j][0]
        if kp > kq:
            out.append(p[i])
            i += 1
        elif kp < kq:
            out.append(q[j])
            j += 1
        else:
            a1, b1 = p[i][2]
            a2, b2 = q[j][2]
            a, b = a1 + a2, b1 + b2
            if a or b:
                out.append((kp, p[i][1], (a, b)))
            i += 1
            j += 1
    out.extend(p[i:])
    out.extend(q[j:])
    return out


def _ishift(p: _IPoly, key_u: tuple, u: Monomial, c: Tuple[int, int]) -> _IPoly:
    """c * x^u * p; key addition keeps the list sorted."""
    out = []
    for key, m, cf in p:
        out.append((tuple(x + y for x, y in zip(key, key_u)),
                    tuple(x + y for x, y in zip(m, u)),
                    _cmul(cf, c)))
    return out


def _iscale(p: _IPoly, c: Tuple[int, int]) -> _IPoly:
    return [(key, m, _cmul(cf, c)) for key, m, cf in p]


def _divides(m: Monomial, n: Monomial) -> bool:
    for a, b in zip(m, n):
        if a > b:
            return False
    return True


def _mono_lcm(m: Monomial, n: Monomial) -> Monomial:
    return tuple(a if a > b else b for a, b in zip(m, n))


def _mono_div(m: Monomial, n: Monomial) -> Monomial:
    return tuple(a - b for a, b in zip(m, n))


class _Engine:
    """Shared machinery: a key function plus reduction over a basis list."""

    def __init__(self, varset: VarSet, order: MonomialOrder):
        self.varset = varset
        self.order = order
        self.keyfn = order.key

    def nf(self, f: _IPoly, basis: List[_IPoly]):
        """Fully reduced normal form.

        Returns (r, s) with s a Gaussian integer scalar such that
        s * f = r modulo the ideal generated by the basis.
        """
        entries = [(g[0][1], g[0][2], g) for g in basis if g]
        r: _IPoly = []
        work = list(f)
        pos = 0
        s = (1, 0)
        keyfn = self.keyfn
        while pos < len(work):
            key0, m0, c0 = work[pos]
            hit = None
            for lm, lc, g in entries:
                if _divides(lm, m0):
                    hit = (lm, lc, g)
                    break
            if hit is None:
                r.append(work[pos])
                pos += 1
                continue
            lm, lc, g = hit
            u = _mono_div(m0, lm)
            key_u = tuple(x - y for x, y in zip(key0, keyfn(lm)))
            work = _iadd(_iscale(work[pos + 1:], lc),
                         _ishift(g[1:], key_u, u, (-c0[0], -c0[1])))
            pos = 0
            if r:
                r = _iscale(r, lc)
            s = _cmul(s, lc)
            g0 = 0
            for _, _, (a, b) in work:
                g0 = gcd(g0, a, b)
                if g0 == 1:
                    break
            if g0 > 1:
                for _, _, (a, b) in r:
                    g0 = gcd(g0, a, b)
                    if g0 == 1:
                        break
                g0 = gcd(g0, s[0], s[1])
            if g0 > 1:
                work = [(k, m, (a // g0, b // g0)) for k, m, (a, b) in work]
                r = [(k, m, (a // g0, b // g0)) for k, m, (a, b) in r]
                s = (s[0] // g0, s[1] // g0)
        return r, s

    def spoly(self, f: _IPoly, g: _IPoly) -> _IPoly:
        lm_f, lc_f = f[0][1], f[0][2]
        lm_g, lc_g = g[0][1], g[0][2]
        l = _mono_lcm(lm_f, lm_g)
        uf = _mono_div(l, lm_f)
        ug = _mono_div(l, lm_g)
        kf = self.keyfn(uf)
        kg = self.keyfn(ug)
        s = _iadd(_ishift(f, kf, uf, lc_g),
                  _ishift(g, kg, ug, (-lc_f[0], -lc_f[1])))
        _content_strip(s)
        _unit_normalize(s)
        return s


class GroebnerBasis:
    """A reduced Groebner basis: monic, no element's term divisible by
    another element's leading term; every S-polynomial reduces to zero."""

    __slots__ = ("basis", "order", "reduced", "varset", "_internal", "_engine")

    def __init__(self, basis: Sequence[Polynomial], order: MonomialOrder,
                 reduced: bool = True, varset: Optional[VarSet] = None):
        self.basis = tuple(basis)
        self.order = order
        self.reduced = reduced
        self.varset = basis[0].varset if basis else varset
        self._internal = None
        self._engine = None

    def __iter__(self):
        return iter(self.basis)

    def __len__(self):
        return len(self.basis)

    def engine_parts(self):
        if self._internal is None:
            eng = _Engine(self.varset, self.order)
            internal = [_to_internal(g, eng.keyfn) for g in self.basis]
            internal.sort(key=lambda p: p[0][0])
            self._engine = eng
            self._internal = internal
        return self._engine, self._internal

    def contains_one(self) -> bool:
        return any(len(g.terms) == 1 and sum(g.leading_monomial()) == 0
                   for g in self.basis)

    def leading_monomials(self) -> List[Monomial]:
        return [g.leading_monomial() for g in self.basis]


_GB_CACHE: Dict[Tuple, GroebnerBasis] = {}


def buchberger(I: Ideal, check: bool = True) -> GroebnerBasis:
    """Reduced Groebner basis of I under I.order.

    Deterministic: identical input yields an identical basis.  Raises
    ResourceLimitError when a bound of the current `limits_scope` is hit.
    """
    return _buchberger(I, check, 0)


def _buchberger(I: Ideal, check: bool, reduced_prefix: int) -> GroebnerBasis:
    """The Buchberger core behind `buchberger`.

    The first `reduced_prefix` generators of I must be a reduced Groebner
    basis under I.order of the ideal they generate.  They enter the basis
    as a finished prefix: no pairs are formed among them, since all of
    those reduce to zero, and only pairs that involve a later element are
    queued.  The prefix counts toward `max_basis`, and the post-hoc check
    reduces it like every other generator.  The reduced basis of I does
    not depend on the prefix, so the cache key ignores it.  The key holds
    the limits, so a narrower bound recomputes, and raises if it is hit.
    """
    limits = _LIMITS.get()
    cache_key = (I.generators, I.order, I.varset, limits)
    hit = _GB_CACHE.get(cache_key)
    if hit is not None:
        return hit

    if I.is_zero():
        return GroebnerBasis([], I.order, varset=I.varset)

    eng = _Engine(I.varset, I.order)
    keyfn = eng.keyfn

    prefix = [_to_internal(g, keyfn) for g in I.generators[:reduced_prefix]]
    seeds = [_to_internal(g, keyfn) for g in I.generators[reduced_prefix:]]
    seeds = [s for s in seeds if s]
    seeds.sort(key=lambda p: (p[0][0], len(p)))

    entries: List[_IPoly] = []       # by id; never shrinks
    sugars: List[int] = []
    alive: List[bool] = []
    heap: List[Tuple] = []
    pair_alive: set = set()
    pairs_done = 0

    def lm(i):
        return entries[i][0][1]

    def add_pair_candidates(h: int):
        """Gebauer-Moeller update for new element h against current basis."""
        others = [i for i in range(h) if alive[i]]
        lmh = lm(h)
        cand = []
        for g in others:
            l = _mono_lcm(lmh, lm(g))
            cand.append((keyfn(l), g, l))
        cand.sort()
        kept: List[Tuple[tuple, int, Monomial]] = []
        for key_l, g, l in cand:
            coprime = all(a == 0 or b == 0 for a, b in zip(lmh, lm(g)))
            dominated = False
            if not coprime:
                for key2, g2, l2 in cand:
                    if g2 != g and _divides(l2, l) and l2 != l:
                        dominated = True
                        break
            if coprime:
                kept.append((key_l, g, l))  # usable as a dropper, never queued
            elif not dominated:
                kept.append((key_l, g, l))
                deg_u1 = sum(l) - sum(lmh)
                deg_u2 = sum(l) - sum(lm(g))
                sugar = max(sugars[h] + deg_u1, sugars[g] + deg_u2)
                pair = (g, h)
                pair_alive.add(pair)
                heapq.heappush(heap, (sugar, key_l, g, h))
        # prune old pairs made redundant by lm(h)
        stale = []
        for (a, b) in pair_alive:
            if a == h or b == h:
                continue
            l = _mono_lcm(lm(a), lm(b))
            if (_divides(lmh, l)
                    and _mono_lcm(lm(a), lmh) != l
                    and _mono_lcm(lm(b), lmh) != l):
                stale.append((a, b))
        for p in stale:
            pair_alive.discard(p)
        # drop basis elements whose leading monomial became redundant
        for g in others:
            if _divides(lmh, lm(g)) and lm(g) != lmh:
                alive[g] = False

    def insert(p: _IPoly, pairs: bool = True) -> int:
        idx = len(entries)
        entries.append(p)
        sugars.append(sum(p[0][1]))
        alive.append(True)
        if len(entries) > limits.max_basis:
            raise ResourceLimitError(f"basis size exceeded {limits.max_basis}")
        if pairs:
            add_pair_candidates(idx)
        return idx

    for p in prefix:
        insert(p, pairs=False)
    for s in seeds:
        r, _ = eng.nf(s, [entries[i] for i in range(len(entries)) if alive[i]])
        if r:
            _unit_normalize(r)
            insert(r)

    while heap:
        sugar, key_l, i, j = heapq.heappop(heap)
        if (i, j) not in pair_alive:
            continue
        pair_alive.discard((i, j))
        pairs_done += 1
        if pairs_done > limits.max_pairs:
            raise ResourceLimitError(f"pair count exceeded {limits.max_pairs}")
        if sugar > limits.max_degree:
            raise ResourceLimitError(f"degree bound exceeded {limits.max_degree}")
        s = eng.spoly(entries[i], entries[j])
        if not s:
            continue
        reducers = [entries[k] for k in range(len(entries)) if alive[k]]
        reducers.sort(key=lambda p: p[0][0])
        r, _ = eng.nf(s, reducers)
        if r:
            _unit_normalize(r)
            insert(r)

    # minimal basis
    final = [k for k in range(len(entries)) if alive[k]]
    final.sort(key=lambda k: keyfn(lm(k)))
    minimal: List[int] = []
    for k in final:
        if not any(_divides(lm(j), lm(k)) for j in minimal):
            minimal.append(k)
    # tail reduction against the other elements
    reduced: List[_IPoly] = []
    for k in minimal:
        others = [entries[j] for j in minimal if j != k]
        r, _ = eng.nf(entries[k], others)
        _unit_normalize(r)
        reduced.append(r)

    polys = [_to_polynomial(p, I.varset, I.order, monic=True) for p in reduced]
    polys.sort(key=lambda g: keyfn(g.leading_monomial()), reverse=True)
    gb = GroebnerBasis(polys, I.order, reduced=True)

    if check:
        _, internal = gb.engine_parts()
        for g in I.generators:
            r, _ = eng.nf(_to_internal(g, keyfn), internal)
            if r:
                raise AssertionError("generator does not reduce to zero "
                                     "modulo the computed basis")

    _GB_CACHE[cache_key] = gb
    return gb


def normal_form(f: Polynomial, G: GroebnerBasis) -> Polynomial:
    """Remainder of f modulo G; zero iff f lies in the ideal of G.

    The result is the exact remainder: f minus a combination of basis
    elements, with no term divisible by any leading term of G.
    """
    if f.varset != G.varset:
        raise VarSetMismatchError("polynomial and basis on different VarSets")
    eng, internal = G.engine_parts()
    lifted, q = _to_internal_tracked(f, eng.keyfn)
    r, s = eng.nf(lifted, internal)
    if not r:
        return Polynomial.zero(f.varset, G.order)
    # s * (q * f) = r mod <G>, so the true remainder is r / (s * q)
    scale = (GaussianRational(s[0], s[1]) * GaussianRational(q)).inverse()
    terms = {m: GaussianRational(a, b) * scale for _, m, (a, b) in r}
    return Polynomial(f.varset, terms, G.order)


def ideal_member(f: Polynomial, I) -> bool:
    G = I if isinstance(I, GroebnerBasis) else buchberger(I)
    return normal_form(f, G).is_zero()


def _fresh_name(varset: VarSet, stem: str) -> str:
    name = stem
    k = 0
    while name in varset:
        k += 1
        name = f"{stem}{k}"
    return name


def extend_ring(polys: Sequence[Polynomial], extra: str):
    """Lift polynomials to a VarSet with one fresh variable appended."""
    vs = polys[0].varset
    name = _fresh_name(vs, extra)
    big = vs.extend([name])
    lifted = [Polynomial(big, {m + (0,): c for m, c in p.terms.items()}, DEGREVLEX)
              for p in polys]
    return big, name, lifted


def _rabinowitsch(polys: Sequence[Polynomial], f: Polynomial,
                  stem: str) -> List[Polynomial]:
    """lift(polys) + [1 - t f], with t a fresh variable appended last."""
    big, name, lifted = extend_ring(list(polys) + [f], stem)
    t = Polynomial.variable(big, name)
    return lifted[:-1] + [Polynomial.constant(big, 1) - t * lifted[-1]]


def radical_member(f: Polynomial, I: Ideal) -> bool:
    """True iff f vanishes on V(I): Rabinowitsch's trick, 1 in I + <1 - t f>.

    G is the reduced DEGREVLEX basis of I, which `buchberger` caches.
    Plain membership, f reducing to zero modulo G, is tried first since
    it is both common and cheap.  Otherwise the Rabinowitsch basis is
    computed from lift(G) + [1 - t f] with lift(G) as a finished prefix.
    This is sound because t is appended last: DEGREVLEX on the extended
    ring restricts to DEGREVLEX on the old one, so lift(G) is still a
    reduced basis there, and only pairs that involve 1 - t f or an
    element derived from it need to be formed.
    """
    if f.is_zero():
        return True
    G = buchberger(I.with_order(DEGREVLEX))
    if normal_form(f, G).is_zero():
        return True
    gens = _rabinowitsch(G.basis, f, "t_rad")
    return _buchberger(Ideal(gens, DEGREVLEX), True, len(G)).contains_one()


def is_unit_mod(u: Polynomial, I: Ideal) -> bool:
    """True iff u is invertible modulo I, i.e. 1 in I + <u>."""
    if u.is_zero():
        return False
    G = buchberger(Ideal(list(I.generators) + [u], I.order))
    return G.contains_one()


def eliminate(I: Ideal, keep: Sequence[str]) -> Ideal:
    """Generators of I intersected with the subring on the kept variables."""
    vs = I.varset
    drop = [n for n in vs.names if n not in keep]
    if not drop:
        return I
    G = buchberger(Ideal(I.generators, MonomialOrder.elimination(vs, drop)))
    drop_idx = [vs.index(n) for n in drop]
    small = VarSet([n for n in vs.names if n in keep])
    keep_pos = [vs.index(n) for n in small.names]
    out = []
    for g in G:
        if any(m[k] for m in g.terms for k in drop_idx):
            continue
        terms = {tuple(m[k] for k in keep_pos): c for m, c in g.terms.items()}
        out.append(Polynomial(small, terms, DEGREVLEX))
    return Ideal(out, DEGREVLEX, varset=small)


def _eliminate_t(gens: List[Polynomial], I: Ideal) -> Ideal:
    """Eliminate the appended variable t from gens, back on I's ring and order."""
    E = eliminate(Ideal(gens), I.varset.names)
    return Ideal([g.with_order(I.order) for g in E.generators], I.order,
                 varset=I.varset)


def intersect(I: Ideal, J: Ideal) -> Ideal:
    """Ideal intersection via t*I + (1-t)*J and elimination of t."""
    if I.varset != J.varset:
        raise VarSetMismatchError("ideals on different VarSets")
    polys = list(I.generators) + list(J.generators)
    big, name, lifted = extend_ring(polys, "t_int")
    t = Polynomial.variable(big, name)
    one_minus_t = Polynomial.constant(big, 1) - t
    n_i = len(I.generators)
    gens = [t * p for p in lifted[:n_i]] + [one_minus_t * p for p in lifted[n_i:]]
    return _eliminate_t(gens, I)


def saturate(I: Ideal, f: Polynomial) -> Ideal:
    """I : f^infinity, computed as (I + <1 - t f>) intersect the base ring."""
    return _eliminate_t(_rabinowitsch(I.generators, f, "t_sat"), I)


def ideals_equal(I: Ideal, J: Ideal) -> bool:
    """Ideal equality by double membership of generators."""
    GI = buchberger(I.with_order(DEGREVLEX))
    GJ = buchberger(J.with_order(DEGREVLEX))
    return (all(normal_form(g, GI).is_zero() for g in J.generators)
            and all(normal_form(g, GJ).is_zero() for g in I.generators))


# ---------------------------------------------------------------------------
# staircase combinatorics: quotient dimension, Hilbert series
# ---------------------------------------------------------------------------


def _minimalize(gens: List[Monomial]) -> List[Monomial]:
    gens = sorted(set(gens), key=lambda m: (sum(m), m))
    out: List[Monomial] = []
    for m in gens:
        if not any(_divides(g, m) for g in out):
            out.append(m)
    return out


def standard_monomials(G: GroebnerBasis) -> Optional[List[Monomial]]:
    """Monomials outside the leading-term ideal, or None if infinite."""
    lt = _minimalize(G.leading_monomials())
    if any(sum(m) == 0 for m in lt):
        return []
    n = len(G.varset)
    bounds = [None] * n
    for m in lt:
        nz = [k for k, e in enumerate(m) if e]
        if len(nz) == 1:
            k = nz[0]
            if bounds[k] is None or m[k] < bounds[k]:
                bounds[k] = m[k]
    if any(b is None for b in bounds):
        return None
    out: List[Monomial] = []

    def rec(prefix: List[int], k: int):
        if k == n:
            m = tuple(prefix)
            if not any(_divides(g, m) for g in lt):
                out.append(m)
            return
        for e in range(bounds[k]):
            prefix.append(e)
            rec(prefix, k + 1)
            prefix.pop()

    rec([], 0)
    return sorted(out, key=lambda m: (sum(m), m))


def quotient_dimension(I: Ideal) -> Optional[int]:
    """dim over Q(i) of the ring modulo I; None when infinite."""
    G = buchberger(I.with_order(DEGREVLEX))
    sm = standard_monomials(G)
    return None if sm is None else len(sm)


_HILBERT_MEMO: Dict[Tuple[int, FrozenSet[Monomial]], Tuple[int, ...]] = {}


def _poly_add(p: Tuple[int, ...], q: Tuple[int, ...]) -> Tuple[int, ...]:
    n = max(len(p), len(q))
    return tuple((p[k] if k < len(p) else 0) + (q[k] if k < len(q) else 0)
                 for k in range(n))


def _poly_mul(p: Tuple[int, ...], q: Tuple[int, ...]) -> Tuple[int, ...]:
    out = [0] * (len(p) + len(q) - 1)
    for a, pa in enumerate(p):
        if pa:
            for b, qb in enumerate(q):
                if qb:
                    out[a + b] += pa * qb
    return tuple(out)


def _poly_shift(p: Tuple[int, ...], k: int) -> Tuple[int, ...]:
    return (0,) * k + p


def hilbert_numerator(gens: Sequence[Monomial], nvars: int) -> Tuple[int, ...]:
    """Numerator of the Hilbert series of R/<gens> over (1-t)^nvars."""
    gens = _minimalize(list(gens))
    key = (nvars, frozenset(gens))
    hit = _HILBERT_MEMO.get(key)
    if hit is not None:
        return hit
    if not gens:
        result: Tuple[int, ...] = (1,)
    elif any(sum(m) == 0 for m in gens):
        result = (0,)
    else:
        supports = [frozenset(k for k, e in enumerate(m) if e) for m in gens]
        disjoint = True
        seen: set = set()
        for s in supports:
            if seen & s:
                disjoint = False
                break
            seen |= s
        if disjoint:
            result = (1,)
            for m in gens:
                factor = [0] * (sum(m) + 1)
                factor[0] = 1
                factor[sum(m)] = -1
                result = _poly_mul(result, tuple(factor))
        else:
            counts = [0] * nvars
            for m in gens:
                for k, e in enumerate(m):
                    if e:
                        counts[k] += 1
            v = max(range(nvars), key=lambda k: (counts[k], -k))
            pivot = tuple(1 if k == v else 0 for k in range(nvars))
            plus = [m for m in gens if m[v] == 0] + [pivot]
            colon = [tuple(max(e - 1, 0) if k == v else e for k, e in enumerate(m))
                     for m in gens]
            result = _poly_add(hilbert_numerator(plus, nvars),
                               _poly_shift(hilbert_numerator(colon, nvars), 1))
    _HILBERT_MEMO[key] = result
    return result


def hilbert_dimension_degree(I: Ideal) -> Tuple[int, int]:
    """(projective dimension, degree) of a homogeneous ideal.

    Extracted from the Hilbert series of the leading-term ideal: strip
    factors of (1 - t) from the numerator; the remaining pole order is
    the affine cone dimension and the numerator at t = 1 is the degree.
    """
    for g in I.generators:
        if not g.is_homogeneous():
            raise NonHomogeneousError("hilbert_dimension_degree needs a "
                                      "homogeneous ideal")
    G = buchberger(I.with_order(DEGREVLEX))
    if G.contains_one():
        return (-1, 0)
    n = len(I.varset)
    num = list(hilbert_numerator(G.leading_monomials(), n))
    stripped = 0
    while any(num) and sum(num) == 0:
        # synthetic division by (1 - t)
        out = [0] * (len(num) - 1)
        acc = 0
        for k in range(len(num) - 1):
            acc = num[k] + acc
            out[k] = acc
        num = out
        stripped += 1
    # series = num / (1-t)^(n - stripped) after cancellation, so the affine
    # cone has Krull dimension n - stripped and degree num(1)
    return (n - stripped - 1, sum(num))


def invert_mod(u: Polynomial, G: GroebnerBasis) -> Polynomial:
    """Inverse of u in the finite-dimensional quotient ring R/<G>.

    Solves the linear system given by the multiplication matrix of u on
    the standard monomial basis; raises NotAUnitError when u is not
    invertible (or the quotient is not finite-dimensional).
    """
    from .polylinalg import ScalarMatrix

    sm = standard_monomials(G)
    if sm is None:
        raise NotAUnitError("quotient ring is not finite-dimensional")
    if not sm:
        raise NotAUnitError("quotient ring is zero")
    vs = G.varset
    index = {m: k for k, m in enumerate(sm)}
    cols = []
    for m in sm:
        b = Polynomial(vs, {m: ONE}, G.order)
        image = normal_form(u * b, G)
        col = [ZERO] * len(sm)
        for mm, c in image.terms.items():
            col[index[mm]] = c
        cols.append(col)
    mat = ScalarMatrix([[cols[c][r] for c in range(len(sm))]
                        for r in range(len(sm))])
    rhs = [ZERO] * len(sm)
    one_mono = vs.unit_monomial()
    if one_mono not in index:
        raise NotAUnitError("1 is not a standard monomial")
    rhs[index[one_mono]] = ONE
    x = mat.solve(rhs)
    if x is None:
        raise NotAUnitError("element is not a unit modulo the ideal")
    terms = {m: c for m, c in zip(sm, x) if not c.is_zero()}
    inv = Polynomial(vs, terms, G.order)
    if not normal_form(u * inv - Polynomial.constant(vs, 1, G.order), G).is_zero():
        raise NotAUnitError("element is not a unit modulo the ideal")
    return inv

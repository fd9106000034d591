"""Buchberger's algorithm and the ideal-theoretic toolkit.

The engine reduces the term lists that Polynomials store (`multipoly`):
Gaussian-integer coefficients, so no rational arithmetic happens in the
hot loop, and each monomial and order key one int (`_Packing`), so a
divisibility test is one subtraction and a mask test, and a shift two
int additions.  The fields are fixed: a computation whose exponents
would outgrow them raises `ExponentOverflowError`, a `ResourceLimitError`,
so no exponent wraps.

Every list the engine keeps is primitive (`_primitive`): its lead is a
positive integer and no Gaussian content such as (1+i)^k survives.  A
`GroebnerBasis` keeps the lists its computation produced, `normal_form`
reduces against them directly, and its `basis` is their monic view.

Pairs are handled by the Gebauer-Moeller UPDATE (Becker-Weispfenning,
Groebner Bases, 1993, 5.5): new pairs pass the chain and equal-lcm
criteria, coprime pairs only serve to drop others, and the B_k test
prunes queued pairs.  Pairs are selected by sugar with deterministic
tie-breaking, so repeated runs produce identical bases.  A run keeps,
for each element it inserts, the leading monomial and the reducer head
(`_head`: the lead and the list itself), and the list of heads of
its current basis, rebuilt only when the basis changes.  It tests
divisibility and takes lcms on the packed ints inline, and computes the
order key of an lcm only for a pair it queues.
"""

from __future__ import annotations

import bisect
import heapq
from contextlib import contextmanager
from contextvars import ContextVar
from functools import lru_cache, wraps
from itertools import chain, zip_longest
from math import gcd
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .gaussian import _Frozen
from .multipoly import (DEGREVLEX, ExponentOverflowError, MonomialOrder, Monomial,
                        Polynomial, ResourceLimitError, VarSet, VarSetMismatchError,
                        _BITS, _Packing, _TermList, _ishift, _packing,
                        _primitive, _poly, _times, _wrap, substitute)


class NonHomogeneousError(ValueError):
    pass


class NotAUnitError(ValueError):
    pass


class GroebnerLimits(NamedTuple):
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


def current_limits() -> GroebnerLimits:
    """The limits of the innermost `limits_scope`, or DEFAULT_LIMITS."""
    return _LIMITS.get()


# entries each memo of a CLI answer or per-gamma object keeps: a `session`
# benchmark run (8 commands at 8 gammas) fills exactly 64 of `cli.answer`
# and 64 of `cli._parsed`
MEMO_SIZE = 64
# entries each memo of the Groebner layer keeps: bases, unit answers,
# inverses and Hilbert numerators.  A `session` benchmark run over eight
# gammas makes 346 bases and 233 unit answers
GB_CACHE_SIZE = 1024


def cached_under_limits(fn=None, *, maxsize: int = MEMO_SIZE):
    """Cache fn on its hashable arguments and the current Groebner limits:
    under a narrower bound the result is recomputed, and raises if the
    bound is hit.  An exception is not cached.  The cache keeps the
    `maxsize` most recently used results, which callers must treat as
    immutable values; `__wrapped__` is fn.  Used bare, or as
    `@cached_under_limits(maxsize=...)`.
    """
    if fn is None:
        return lambda fn: cached_under_limits(fn, maxsize=maxsize)
    cached = lru_cache(maxsize=maxsize)(
        lambda limits, args, kwargs: fn(*args, **dict(kwargs)))

    @wraps(fn)
    def wrapper(*args, **kwargs):
        return cached(current_limits(), args, tuple(sorted(kwargs.items())))
    wrapper.cache_clear = cached.cache_clear
    wrapper.cache_info = cached.cache_info
    return wrapper


class Ideal(_Frozen):
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

    def __eq__(self, other):
        return (isinstance(other, Ideal)
                and self.generators == other.generators
                and self.order == other.order
                and self.varset == other.varset)

    def __hash__(self):
        return hash((self.generators, self.order, self.varset))

    def __repr__(self):
        return f"Ideal({len(self.generators)} generators on {self.varset!r})"

    def with_order(self, order: MonomialOrder) -> "Ideal":
        if order == self.order:
            return self
        return Ideal(self.generators, order, varset=self.varset)


# ---------------------------------------------------------------------------
# reduction of term lists
# ---------------------------------------------------------------------------


_Head = Tuple[int, int, int, _TermList]


def _head(g: _TermList) -> _Head:
    """What `_nf` reduces against for a primitive list g: the key, monomial
    and integer coefficient of its lead, and g itself."""
    return g[0][0], g[0][1], g[0][2][0], g


def _merge(p: _TermList, pos: int, g: _TermList, key_u: int, u: int,
           c: Tuple[int, int]) -> _TermList:
    """p[pos:] + c * x^u * (g without its lead), in one pass: each term of
    g's tail is shifted and scaled as it is read and merged into p."""
    x, y = c
    out: _TermList = []
    n = len(p)
    for k, m, (a, b) in g[1:]:
        k += key_u
        while pos < n and p[pos][0] > k:
            out.append(p[pos])
            pos += 1
        a, b = a * x - b * y, a * y + b * x
        if pos < n and p[pos][0] == k:
            _, _, (a1, b1) = p[pos]
            pos += 1
            a += a1
            b += b1
            if not (a or b):
                continue
        out.append((k, m + u, (a, b)))
    out += p[pos:]
    return out


def _nf(f: _TermList, heads: Sequence[_Head],
        pk: _Packing) -> Tuple[_TermList, int]:
    """Fully reduced normal form of f modulo primitive term lists, given
    by their `_head`s.

    Returns (r, s) with s a positive integer and s*f = r modulo the ideal
    of the lists.  A step cancels the first reducible term c x^m of the
    work list against the first list g whose lead d x^l divides it: work
    becomes (d/h)*work - (c/h)*x^(m/l)*g, with h = gcd(d, c) in Z.  The
    step is one pass: each term of g's tail is shifted, scaled and merged
    into the work list after c x^m as it is read, and only when d/h > 1
    are that rest and r rescaled first.  Whenever s > 1, the common
    integer factor of r, work and s goes.  A g of one term, a monomial,
    lies in the ideal with every multiple of it, so its step just drops
    c x^m from the work list: the read position moves on and nothing is
    rebuilt.  f itself is never changed.  The lists must pass `pk.check`;
    a multiplier x^(m/l) that would not keep the product inside its
    fields raises ExponentOverflowError.
    """
    guard, high = pk.guard, pk.high
    r: _TermList = []
    work = f
    pos = 0
    s = 1
    while pos < len(work):
        key0, m0, (a0, b0) = work[pos]
        top = m0 | guard    # _Packing.divides(l, m0), inlined
        for key_l, l, d, g in heads:
            if (top - l) & guard == guard:
                break
        else:
            r.append(work[pos])
            pos += 1
            continue
        pos += 1
        if len(g) == 1:
            continue
        u = m0 - l
        if u & high:
            raise ExponentOverflowError(f"multiplier exponent above {pk.mask >> 1}")
        h = gcd(d, a0, b0)
        d //= h
        if d > 1:
            work = [(k, m, (a * d, b * d)) for k, m, (a, b) in work[pos:]]
            r = [(k, m, (a * d, b * d)) for k, m, (a, b) in r]
            s *= d
            pos = 0
        work = _merge(work, pos, g, key0 - key_l, u, (-a0 // h, -b0 // h))
        pos = 0
        if s > 1:
            g0 = s
            for _, _, (a, b) in chain(work, r):
                g0 = gcd(g0, a, b)
                if g0 == 1:
                    break
            else:
                work = [(k, m, (a // g0, b // g0)) for k, m, (a, b) in work]
                r = [(k, m, (a // g0, b // g0)) for k, m, (a, b) in r]
                s //= g0
    return r, s


def _spoly(f: _TermList, g: _TermList, key_l: int, l: int) -> _TermList:
    """The primitive S-polynomial of two primitive lists with lead lcm l.

    One merge: g's tail, shifted to l and scaled, goes into f shifted to l
    and scaled, past its lead.  l is the lcm of two leads that pass
    `_Packing.check`, so neither multiplier takes a term out of its fields."""
    kf, mf, (df, _) = f[0]
    kg, mg, (dg, _) = g[0]
    h = gcd(df, dg)
    s = _merge(_ishift(f, key_l - kf, l - mf, (dg // h, 0)), 1,
               g, key_l - kg, l - mg, (-df // h, 0))
    return _primitive(s)[0] if s else s


class GroebnerBasis(_Frozen):
    """A reduced Groebner basis: no element's term divisible by another
    element's leading term; every S-polynomial reduces to zero.

    The engine reduces against the elements as primitive term lists,
    kept in ascending order of leading monomial, by their `_head`s.
    `basis` is the monic view of the same lists, in descending order.
    """

    __slots__ = ("basis", "order", "varset", "_lists", "_heads", "_packing")

    def __init__(self, lists: List[_TermList], order: MonomialOrder,
                 varset: VarSet, packing: _Packing):
        """The basis of primitive lists, packed by `packing`, sorted by
        ascending leading key."""
        object.__setattr__(self, "basis", tuple(
            _wrap(varset, packing, p, (1, 0, p[0][2][0])) for p in reversed(lists)))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "varset", varset)
        object.__setattr__(self, "_lists", lists)
        object.__setattr__(self, "_heads", list(map(_head, lists)))
        object.__setattr__(self, "_packing", packing)

    def __iter__(self):
        return iter(self.basis)

    def __len__(self):
        return len(self.basis)

    def contains_one(self) -> bool:
        return any(len(p) == 1 and p[0][1] == 0 for p in self._lists)

    def leading_monomials(self) -> List[Monomial]:
        unpack = self._packing.unpack
        return [unpack(p[0][1]) for p in reversed(self._lists)]


@cached_under_limits(maxsize=GB_CACHE_SIZE)
def buchberger(I: Ideal, numerator: Optional[Tuple[int, ...]] = None) -> GroebnerBasis:
    """Reduced Groebner basis of I under I.order.

    Deterministic: identical input yields an identical basis.  Raises
    ResourceLimitError when a bound of the current `limits_scope` is hit.
    Every generator of I is checked to reduce to zero modulo the result.
    `numerator` is a known Hilbert numerator that lets the run stop early
    (`_buchberger`); it never changes the basis.
    """
    return _buchberger(I, 0, numerator)


def _buchberger(I: Ideal, reduced_prefix: int,
                numerator: Optional[Tuple[int, ...]] = None) -> GroebnerBasis:
    """The Buchberger core behind `buchberger`, uncached.

    The first `reduced_prefix` generators of I must be a reduced Groebner
    basis under I.order of the ideal they generate.  They enter the basis
    as a finished prefix: no pairs are formed among them, since all of
    those reduce to zero, and only pairs that involve a later element are
    queued.  The prefix counts toward `max_basis`, and the post-hoc check
    reduces it like every other generator.

    The generators are interreduced and inserted before any pair is
    formed.  `numerator`, if given, must be the Hilbert numerator over
    (1 - t)^n (`hilbert_numerator`) of some R/J with HF(R/J) <= HF(R/I) in
    every degree, I homogeneous.  The leads of the inserted elements lie
    in LT(I), so HF(R/<leads>) >= HF(R/I) >= HF(R/J); when their numerator
    equals `numerator`, all three are equal, the leads generate LT(I), and
    the elements are already a Groebner basis: no pair is formed
    (Traverso, Hilbert functions and the Buchberger algorithm, JSC 1996).
    Otherwise each inserted element, in insertion order, forms its pairs
    against the G it met when it was inserted, so the queue, and every
    pair after it, is exactly that of a run without `numerator`.

    An element's sugar is the degree of its lead, so the sugar of a pair
    is the degree of its lcm.  Pairs are selected by (sugar, key of the
    lcm, indices); key ints compare as the key tuples do.
    """
    limits = current_limits()
    pk = _packing(len(I.varset), I.order)
    gens = [g._packed(pk)[0] for g in I.generators]
    guard, bits = pk.guard, _BITS

    entries: List[_TermList] = []    # every element ever inserted, by index
    lms: List[int] = []    # their leading monomials
    heads: List[_Head] = []    # and their `_head`s
    live: List[int] = []    # G, ascending by leading key; an antichain
    reducers: List[_Head] = []    # the heads of G, in its order
    queued: Dict[Tuple[int, int], int] = {}   # B: pair -> lcm
    heap: List[Tuple] = []

    def insert(p: _TermList) -> Tuple[int, List[int]]:
        """p joins G as element h, and the elements whose leads lm(h)
        divides leave: (h, met), met the G that h met.  G is bound anew, so
        met is never changed."""
        nonlocal live, reducers
        pk.check(p)
        entries.append(p)
        lms.append(p[0][1])
        heads.append(_head(p))
        if len(entries) > limits.max_basis:
            raise ResourceLimitError(f"basis size exceeded {limits.max_basis}")
        h, mh, met = len(entries) - 1, p[0][1], live
        live = [g for g in met if ((lms[g] | guard) - mh) & guard != guard]
        bisect.insort(live, h, key=lambda g: heads[g][0])
        reducers = [heads[g] for g in live]
        return h, met

    def pairs(h: int, met: List[int]) -> None:
        """The pairs of the Gebauer-Moeller UPDATE of (G, B) by h, G the
        elements h met (Becker-Weispfenning, Groebner Bases, 1993, 5.5).
        `_Packing.divides` and `.lcm` are inlined: n divides m iff
        ((m | guard) - n) & guard == guard."""
        mh = lms[h]
        top_h = mh | guard
        # new pairs by ascending lcm, coprime ones first among equals: a
        # pair is needed unless lcm(lm(h), lm(g)) = lm(h) * lm(g).  A
        # divisor of a packed monomial is no larger an int, so int order
        # extends divisibility, and which pairs survive below does not
        # depend on the extension
        cands = []
        for g in met:
            m = lms[g]
            ge = (top_h - m) & guard
            l = m ^ ((mh ^ m) & (ge - (ge >> bits)))
            cands.append((l, l != mh + m, g))
        cands.sort()
        # chain and equal-lcm criteria: drop a pair when an earlier kept
        # pair's lcm divides its lcm; coprime pairs only serve as droppers
        droppers: List[int] = []
        new: List[Tuple[int, int]] = []
        for l, needed, g in cands:
            top = l | guard
            for c in droppers:
                if (top - c) & guard == guard:
                    break
            else:
                droppers.append(l)
                if needed:
                    new.append((g, l))
        # the B_k test on queued pairs: drop (a, b) when lm(h) divides its
        # lcm and differs from it in lcm with each of lm(a) and lm(b)
        dead = []
        for pair, l in queued.items():
            if ((l | guard) - mh) & guard == guard:
                ma, mb = lms[pair[0]], lms[pair[1]]
                ga, gb = (top_h - ma) & guard, (top_h - mb) & guard
                if (ma ^ ((mh ^ ma) & (ga - (ga >> bits))) != l
                        and mb ^ ((mh ^ mb) & (gb - (gb >> bits))) != l):
                    dead.append(pair)
        for pair in dead:
            del queued[pair]
        for g, l in new:
            queued[(g, h)] = l
            heapq.heappush(heap, (pk.degree(l), pk.key(l), g, h))

    for p in gens[:reduced_prefix]:
        insert(p)
    inputs = []    # (h, met) of each input element, as `insert` returned it
    for p in sorted(gens[reduced_prefix:], key=lambda p: (p[0][0], len(p))):
        r, _ = _nf(p, reducers, pk)
        if r:
            inputs.append(insert(_primitive(r)[0]))
    if numerator is None or _staircase(
            tuple(sorted(lms[g] for g in live)), len(I.varset)) != numerator:
        for h, met in inputs:
            pairs(h, met)

    pairs_done = 0
    while heap:
        sugar, key_l, i, j = heapq.heappop(heap)
        l = queued.pop((i, j), None)
        if l is None:
            continue
        pairs_done += 1
        if pairs_done > limits.max_pairs:
            raise ResourceLimitError(f"pair count exceeded {limits.max_pairs}")
        if sugar > limits.max_degree:
            raise ResourceLimitError(f"degree bound exceeded {limits.max_degree}")
        s = _spoly(entries[i], entries[j], key_l, l)
        if not s:
            continue
        r, _ = _nf(s, reducers, pk)
        if r:
            pairs(*insert(_primitive(r)[0]))

    # tail reduction: each element against the others
    lists = [_primitive(_nf(entries[g], reducers[:k] + reducers[k + 1:], pk)[0])[0]
             for k, g in enumerate(live)]
    for p in lists:
        pk.check(p)
    G = GroebnerBasis(lists, I.order, I.varset, pk)
    for p in gens:
        if _nf(p, G._heads, pk)[0]:
            raise AssertionError("generator does not reduce to zero "
                                 "modulo the computed basis")
    return G


def normal_form(f: Polynomial, G: GroebnerBasis) -> Polynomial:
    """Remainder of f modulo G; zero iff f lies in the ideal of G.

    The result is the exact remainder: f minus a combination of basis
    elements, with no term divisible by any leading term of G.
    """
    if f.varset != G.varset:
        raise VarSetMismatchError("polynomial and basis on different VarSets")
    pk = G._packing
    p, (a, b, d) = f._packed(pk)
    r, s = _nf(p, G._heads, pk)
    # f = scale * p and s * p = r modulo <G>, so the remainder is scale/s * r
    return _poly(f.varset, pk, r, a, b, d * s)


def _append(vs: VarSet, polys: Sequence[Polynomial],
            stem: str) -> Tuple[Polynomial, List[Polynomial]]:
    """(t, lifts): a fresh variable t appended last to vs, and polys lifted
    there, under the order that eliminates t.

    A packed monomial on n variables is the same int on n + 1, since the
    first n fields keep their shifts, so no exponent is packed anew.  The
    order restricts to DEGREVLEX on the t-free monomials with the same
    weights, so a DEGREVLEX list keeps its order, lead and keys.
    """
    name, k = stem, 0
    while name in vs:
        k += 1
        name = f"{stem}{k}"
    big = vs.extend([name])
    t = Polynomial.variable(big, name, MonomialOrder.elimination(big, [name]))
    small = _packing(len(vs), DEGREVLEX)
    return t, [_wrap(big, t._pk, *f._packed(small)) for f in polys]


def _drop(G: GroebnerBasis, keep: Sequence[str]) -> Ideal:
    """The elements of G free of the variables not in `keep`, on the ring of
    the kept ones under DEGREVLEX.  G's order is the block order that
    eliminates the others, so an element whose lead is free of them is free
    of them and keeps its lead and sort order; where the kept variables
    come first and the weights agree, as with t appended, its list stays."""
    vs, big = G.varset, G._packing
    idx = [k for k, name in enumerate(vs.names) if name in keep]
    small = VarSet([vs.names[k] for k in idx])
    pk = _packing(len(small), DEGREVLEX)
    gone = sum(big.mask << s for k, s in enumerate(big.shifts) if k not in idx)
    same = idx == list(range(len(idx))) and pk.weights == big.weights[:len(idx)]
    out = []
    for p in reversed(G._lists):
        if not p[0][1] & gone:
            if not same:
                p = [(*pk.pack(tuple(map(big.unpack(m).__getitem__, idx))), c)
                     for _, m, c in p]
            out.append(_wrap(small, pk, p, (1, 0, p[0][2][0])))
    return Ideal(out, DEGREVLEX, varset=small)


def _rabinowitsch(polys: Sequence[Polynomial], f: Polynomial,
                  stem: str) -> List[Polynomial]:
    """polys + [1 - t f], lifted by `_append` with t appended last."""
    t, lifts = _append(f.varset, list(polys) + [f], stem)
    return lifts[:-1] + [1 - t * lifts[-1]]


def radical_member(f: Polynomial, I: Ideal) -> bool:
    """True iff f lies in the radical of I, that is vanishes on V(I); f must
    lie in I, or I be zero-dimensional, else ValueError.

    G is the reduced DEGREVLEX basis of I that `buchberger` caches: f is in
    I iff NF(f, G) = 0.  Else the ring A modulo I must have finite dimension
    D (`quotient_dimension`), where a nilpotent f has f^D = 0, since the
    ideals f^k A shrink strictly until they vanish.
    """
    G = buchberger(I.with_order(DEGREVLEX))
    r = normal_form(f, G)
    D = 1 if r.is_zero() else quotient_dimension(I)
    if D is None:
        raise ValueError("a non-member of an ideal that is not zero-dimensional")
    while D > 1 and not r.is_zero():    # r = NF(f^(2^j), G) until 2^j >= D
        r, D = normal_form(r * r, G), (D + 1) // 2
    return r.is_zero()


@cached_under_limits(maxsize=GB_CACHE_SIZE)
def is_unit_mod(u: Polynomial, I: Ideal) -> bool:
    """True iff u is invertible modulo I, i.e. 1 in I + <u>.

    The basis of I + <u> is computed from G + [u], G the reduced basis of
    I under I.order that `buchberger` caches, with G as a finished prefix:
    it is a reduced basis of the ideal it generates in that order, so only
    pairs that involve u or an element derived from it are formed.  That
    basis is dropped; the answer is cached.  u = 0 is a unit iff 1 in I.
    """
    G = buchberger(I)
    if u.is_zero():
        return G.contains_one()
    return _buchberger(Ideal(list(G.basis) + [u], I.order), len(G)).contains_one()


def eliminate(I: Ideal, keep: Sequence[str]) -> Ideal:
    """Generators of I intersected with the subring on the kept variables,
    each of which must be a variable of I: the reduced basis of I under the
    order that eliminates the others, its elements free of them (`_drop`)."""
    vs = I.varset
    unknown = [n for n in keep if n not in vs]
    if unknown:
        raise VarSetMismatchError(f"kept names not in the VarSet: {unknown}")
    drop = [n for n in vs.names if n not in keep]
    if not drop:
        return I
    return _drop(buchberger(Ideal(I.generators, MonomialOrder.elimination(vs, drop),
                                  varset=vs)), keep)


def _eliminate_t(E: Ideal, I: Ideal) -> Ideal:
    """Eliminate the appended variable t from E, back on I's ring and order."""
    return Ideal([g.with_order(I.order) for g in eliminate(E, I.varset.names).generators],
                 I.order, varset=I.varset)


def intersect(I: Ideal, J: Ideal) -> Ideal:
    """I intersect J, as t*I + (1 - t)*J intersected with the base ring (Cox,
    Little, O'Shea, Ideals, Varieties, and Algorithms, 4.3).

    The generators are lifted by `_append` under the order that eliminates
    t, which puts every term of t*g above every term of g: t*g is g's list
    shifted by t, (1 - t)*g is -(t*g followed by -g), and nothing is sorted.
    """
    if I.varset != J.varset:
        raise VarSetMismatchError("ideals on different VarSets")
    t, lifts = _append(I.varset, I.generators + J.generators, "t_int")
    (kt, mt, _), = t._list
    gens = []
    for k, g in enumerate(lifts):
        p, (a, b, d) = _ishift(g._list, kt, mt, (1, 0)), g._scale
        gens.append(_wrap(t.varset, t._pk, p, (a, b, d)) if k < len(I.generators)
                    else _wrap(t.varset, t._pk, p + _times(g._list, -1, 0), (-a, -b, d)))
    return _eliminate_t(Ideal(gens, t.order, varset=t.varset), I)


def saturate(I: Ideal, f: Polynomial) -> Ideal:
    """I : f^infinity, computed as (I + <1 - t f>) intersect the base ring,
    with t appended by `_append` under the order that eliminates it."""
    return _eliminate_t(Ideal(_rabinowitsch(I.generators, f, "t_sat")), I)


def ideals_equal(I: Ideal, J: Ideal) -> bool:
    """Ideal equality by double membership of generators."""
    GI = buchberger(I.with_order(DEGREVLEX))
    GJ = buchberger(J.with_order(DEGREVLEX))
    return (all(normal_form(g, GI).is_zero() for g in J.generators)
            and all(normal_form(g, GJ).is_zero() for g in I.generators))


# ---------------------------------------------------------------------------
# staircase combinatorics: quotient dimension, Hilbert series
# ---------------------------------------------------------------------------


def _minimal(monos: Sequence[int], guard: int) -> Tuple[int, ...]:
    """The minimal generators, ascending, of packed monomials with guard bits
    `guard`: int order extends divisibility, so none before a minimal one divides it."""
    out: List[int] = []
    for m in sorted(set(monos)):
        if all(((m | guard) - g) & guard != guard for g in out):
            out.append(m)
    return tuple(out)


def hilbert_numerator(gens: Sequence[Monomial], nvars: int) -> Tuple[int, ...]:
    """Numerator of the Hilbert series of R/<gens> over (1-t)^nvars.  Each of
    the nvars exponents of a generator must lie in [0, 2**15), else ValueError
    (ExponentOverflowError if too large): `_packing(nvars, DEGREVLEX)` packs them."""
    pk = _packing(nvars, DEGREVLEX)
    if any(len(m) != nvars for m in gens):
        raise ValueError(f"a monomial without {nvars} exponents")
    return _staircase(_minimal([pk.pack(m)[1] for m in gens], pk.guard), nvars)


@lru_cache(maxsize=GB_CACHE_SIZE)
def _staircase(gens: Tuple[int, ...], n: int) -> Tuple[int, ...]:
    """`hilbert_numerator` of the minimal generators `gens`, ascending and packed on n
    variables, of I: HN(I + <x_v>) + t * HN(I : x_v), x_v the first dividing most."""
    if not gens or gens[0] == 0:
        return (0,) if gens else (1,)
    pk, w = _packing(n, DEGREVLEX), _BITS + 1
    guard, ones = pk.guard, pk.guard >> _BITS
    if len(gens) >> w:
        raise ResourceLimitError(f"{len(gens)} generators overflow a pivot count")
    # field k: how many generators x_k divides (the guard bits of nonzero fields)
    counts = sum(((m | guard) - ones) & guard for m in gens) >> _BITS
    if not counts & ~ones:
        # pairwise coprime: HN is the product of the factors 1 - t^deg(m)
        result: Tuple[int, ...] = (1,)
        for m in gens:
            pad = (0,) * pk.degree(m)
            result = tuple(a - b for a, b in zip(result + pad, pad + result))
        return result
    v = max(range(n), key=lambda k: ((counts >> k * w) & ((1 << w) - 1), -k))
    unit, field = 1 << v * w, pk.mask << v * w
    # the generators free of x_v and x_v itself are minimal; the colon is not
    plus = tuple(sorted([m for m in gens if not m & field] + [unit]))
    colon = _minimal([m - unit if m & field else m for m in gens], guard)
    return tuple(map(sum, zip_longest(_staircase(plus, n),
                                      (0,) + _staircase(colon, n), fillvalue=0)))


def _hilbert_data(G: GroebnerBasis) -> Tuple[int, int, List[int]]:
    """(projective dimension, degree, numerator) of the ring modulo G's
    leading-term ideal, whose minimal generators G's leads are.

    Its Hilbert series is a numerator over (1 - t)^n; with d factors
    (1 - t) divided out of it, as often as they go, the series is
    num / (1 - t)^(n - d), so the affine cone has Krull dimension n - d and
    degree num(1).  The unit ideal, series 0, gives (-1, 0, []).
    """
    n = len(G.varset)
    num = list(_staircase(tuple(sorted(p[0][1] for p in G._lists)), n))
    if not any(num):
        return -1, 0, []
    stripped = 0
    while sum(num) == 0:
        # synthetic division by (1 - t)
        out = [0] * (len(num) - 1)
        acc = 0
        for k in range(len(num) - 1):
            acc = num[k] + acc
            out[k] = acc
        num = out
        stripped += 1
    return n - stripped - 1, sum(num), num


def quotient_dimension(I: Ideal) -> Optional[int]:
    """dim over Q(i) of the ring modulo I; None when infinite.

    The standard monomials of I are finite in number exactly when all n
    factors (1 - t) strip from the Hilbert numerator, projective dimension
    -1; their number is then the degree.
    """
    dimension, degree, _ = _hilbert_data(buchberger(I.with_order(DEGREVLEX)))
    return degree if dimension < 0 else None


def _homogeneous_basis(I: Ideal) -> GroebnerBasis:
    """The DEGREVLEX basis of I, whose generators must be homogeneous."""
    if not all(g.is_homogeneous() for g in I.generators):
        raise NonHomogeneousError("hilbert_dimension_degree needs a homogeneous ideal")
    return buchberger(I.with_order(DEGREVLEX))


def hilbert_dimension_degree(I: Ideal) -> Tuple[int, int]:
    """(projective dimension, degree) of a homogeneous ideal, read off the
    Hilbert series of its leading-term ideal (`_hilbert_data`)."""
    return _hilbert_data(_homogeneous_basis(I))[:2]


@cached_under_limits(maxsize=GB_CACHE_SIZE)
def invert_mod(u: Polynomial, G: GroebnerBasis) -> Polynomial:
    """Inverse of u modulo the ideal I of G, as a normal form modulo G.

    If u is a unit modulo I : u^infinity, with u v = 1 there, the basis of
    I + <1 - t u> that eliminates t holds t - v.  v inverts u modulo I
    only if u v - 1 reduces to zero modulo G (x modulo <x^2 - x> gives
    t - 1), so this is checked; else NotAUnitError.  G + [1 - t u] is
    lifted by `_append` under the order that eliminates t, which restricts
    to DEGREVLEX, so a DEGREVLEX G is a finished prefix (`_buchberger`).
    That basis is dropped; the inverse is cached.
    """
    gens = _rabinowitsch(G.basis, u, "t_inv")
    big = gens[-1].varset
    t = big.names[-1]
    E = _buchberger(Ideal(gens), len(G) if G.order == DEGREVLEX else 0)
    for p, m in zip(E.basis, E.leading_monomials()):
        if m == big.var_monomial(t):    # p = t - v, so -p at t = 0 is v
            inv = normal_form(substitute(-p, {t: 0}, target=G.varset,
                                         order=G.order), G)
            if normal_form(u * inv - Polynomial.constant(G.varset, 1, G.order),
                           G).is_zero():
                return inv
    raise NotAUnitError("element is not a unit modulo the ideal")

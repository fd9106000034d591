"""Reference implementations that the tests check the engine against.

Each computes what an engine routine computes by another method, and no
command needs it: Bareiss elimination for the determinant and the minors
of `polylinalg.all_minors`, the exact long division it rests on, Gaussian
elimination for the rank that `polylinalg.row_echelon` reads off a
Groebner basis, a plain float evaluator for the compiled residuals of
`numeric`, a count of standard monomials for the Hilbert numerators of
`groebner`, Rabinowitsch's rule for its `radical_member`, the two-pass
reduction step for its one-pass `_nf` and `_spoly`, saturation by an
appended variable for the membership facts that certify rho in
`point_scheme`, argparse for the
command-line parser `cli._parsed`, a walk of the polynomial grammar in
Polynomial arithmetic for `multipoly.parse_poly`, which gathers each
term as ints, sigma as the paper types it for `point_scheme`, which
reads sigma off the relations, the psi1-first fold of a catalog's
components (`components_intersection`), at one gamma and over Q(i)[g],
which certifies the table of the intersection that the verify
specialises in its place, and psi1 as a `substitute` ring map for the
signed permutation of table rows (`fixtures.parse_components`).  What
the paper prints is in `printed.py`; the tables' text is in
`table_texts.py`.
"""

import argparse
import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations_with_replacement
from operator import le
from typing import List, Mapping, Sequence, Tuple

from qp3 import cli
from qp3.gaussian import gr
from qp3.fixtures import load_fixtures
from qp3.groebner import (GroebnerBasis, Ideal, _eliminate_t, _rabinowitsch, buchberger,
                          intersect)
from qp3.line_scheme import ComponentCatalog
from qp3.multipoly import (DEGREVLEX, MAX_NESTING, ExponentOverflowError,
                           MonomialOrder, PolyParseError, Polynomial,
                           UnknownVariableError, VarSet, VarSetMismatchError,
                           _iadd, _ishift, _primitive, substitute)
from qp3.polylinalg import PolyMatrix
from qp3.quadratic_algebra import _PSI1_TABLE, M_VARS, MG_VARS, _substitution_images


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


def rank(rows: Sequence[Sequence]) -> int:
    """The rank of a matrix over Q(i), by Gaussian elimination with the
    first nonzero entry of each column as pivot."""
    rows = [[gr(c) for c in row] for row in rows]
    done = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(done, len(rows)) if not rows[r][col].is_zero()), None)
        if pivot is None:
            continue
        rows[done], rows[pivot] = rows[pivot], rows[done]
        inv = rows[done][col].inverse()
        for r in range(done + 1, len(rows)):
            f = rows[r][col] * inv
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[done])]
        done += 1
    return done


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


# sigma on the basis points, by index: e1 <-> e2, e3 <-> e4
SIGMA_SWAPS = {0: 1, 1: 0, 2: 3, 3: 2}


def sigma_chart_map(x1, x2, x3, x4, i):
    """sigma's x1 = 1 chart map (1, i*a2/a3^2, 1/a3, -i*a4) times x1*x3^2:
    at x1 = 1 the projective form (x3^2, i*x2, x3, -i*x4*x3^2).  The
    coordinates and i may be numbers or polynomials."""
    return (x1 * x3 * x3, i * x1 * x1 * x2, x1 * x1 * x3, -i * x3 * x3 * x4)


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


def nf_two_pass(f, heads, pk):
    """`groebner._nf` with a step in two passes: the rest of the work list
    is copied, the reducer's tail shifted and scaled into a second list,
    and `_iadd` merges the two into a third.  Same heads, same (r, s)."""
    guard, high = pk.guard, pk.high
    r = []
    work = f
    pos = 0
    s = 1
    while pos < len(work):
        key0, m0, (a0, b0) = work[pos]
        top = m0 | guard
        for key_l, l, d, g in heads:
            if (top - l) & guard == guard:
                break
        else:
            r.append(work[pos])
            pos += 1
            continue
        tail = g[1:]
        if not tail:
            pos += 1
            continue
        u = m0 - l
        if u & high:
            raise ExponentOverflowError(f"multiplier exponent above {pk.mask >> 1}")
        h = math.gcd(d, a0, b0)
        d //= h
        rest = work[pos + 1:]
        pos = 0
        if d > 1:
            rest = [(k, m, (a * d, b * d)) for k, m, (a, b) in rest]
            r = [(k, m, (a * d, b * d)) for k, m, (a, b) in r]
            s *= d
        work = _iadd(rest, _ishift(tail, key0 - key_l, u, (-a0 // h, -b0 // h)))
        if s > 1:
            g0 = s
            for _, _, (a, b) in chain(work, r):
                g0 = math.gcd(g0, a, b)
                if g0 == 1:
                    break
            else:
                work = [(k, m, (a // g0, b // g0)) for k, m, (a, b) in work]
                r = [(k, m, (a // g0, b // g0)) for k, m, (a, b) in r]
                s //= g0
    return r, s


def spoly_two_pass(f, g, key_l, l):
    """`groebner._spoly` from two shifted, scaled tails and an `_iadd`."""
    kf, mf, (df, _) = f[0]
    kg, mg, (dg, _) = g[0]
    h = math.gcd(df, dg)
    s = _iadd(_ishift(f[1:], key_l - kf, l - mf, (dg // h, 0)),
              _ishift(g[1:], key_l - kg, l - mg, (-df // h, 0)))
    return _primitive(s)[0] if s else s


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


def saturate(I: Ideal, f: Polynomial) -> Ideal:
    """I : f^infinity, computed as (I + <1 - t f>) intersect the base ring
    (Cox, Little, O'Shea, Ideals, Varieties, and Algorithms, 4.4), with t
    appended by the engine's `_rabinowitsch` under the order that
    eliminates it.  The reference for the three membership facts of
    `point_scheme.verify_rho_derivation`."""
    return _eliminate_t(Ideal(_rabinowitsch(I.generators, f, "t_sat")), I)


def _psi1_fold(level: List, meet):
    """`level` folded by `meet` ψ1 partners first (the pairs
    `psi1_on_pluecker` swaps): adjacent pairs counted from the end, an odd
    first one carried up, so the catalog's level one is L1, L2∩L3, L4∩L5,
    L6a∩L6b (L1a∩L1b at γ² = 16)."""
    while len(level) > 1:
        odd = len(level) % 2
        level = level[:odd] + [meet(*level[k:k + 2]) for k in range(odd, len(level), 2)]
    return level[0]


def components_intersection(C: ComponentCatalog) -> Ideal:
    """The intersection of the component ideals, folded by `_psi1_fold`.
    Its generators are the reduced basis that `intersect` returns, which
    does not depend on the bracketing."""
    return _psi1_fold([comp.ideal for comp in C], intersect)


# the M_ij, g and t, ordered with the block (M_ij, t), degrevlex, above g
MGT_VARS = MG_VARS.extend(["t"])
MGT_ORDER = MonomialOrder.elimination(MGT_VARS, [*M_VARS.names, "t"])


@lru_cache(maxsize=1)
def intersection_over_q_i_g() -> Tuple[Tuple[GroebnerBasis, ...], Tuple[Polynomial, ...]]:
    """(bases, generators): the `_psi1_fold` of the seven generic components
    over Q(i)[g] (`parse_components(None)`), as `components_intersection`
    folds them at one gamma, each meet of I and J the t-free elements of
    the basis of t*I + (1 - t)*J under MGT_ORDER.  `bases` holds those six
    bases in fold order, `generators` the t-free elements of the last."""
    t = Polynomial.variable(MGT_VARS, "t", MGT_ORDER)
    bases = []

    def meet(I, J):
        G = buchberger(Ideal([t * f for f in I] + [(1 - t) * f for f in J]))
        bases.append(G)
        return [f for f in G if f.degree_in("t") == 0]

    level = [[substitute(f, {}, target=MGT_VARS, order=MGT_ORDER) for f in gens]
             for gens in load_fixtures().parse_components(None).values()]
    generators = tuple(_psi1_fold(level, meet))
    return tuple(bases), generators


def specialises_everywhere(f: Polynomial) -> bool:
    """Whether f, on MGT_VARS, is homogeneous in the M_ij and its leading
    coefficient as a polynomial in g, the sum of the terms whose other
    exponents are its lead's, is c*g^k, c a nonzero element of Q(i): the
    lead's term alone.  That coefficient vanishes at no gamma != 0."""
    k, n = MGT_VARS.index("g"), len(M_VARS)
    lead = f.leading_monomial()
    return (len({sum(m[:n]) for m in f.monomials()}) == 1
            and [m for m in f.monomials()
                 if m[:k] + m[k + 1:] == lead[:k] + lead[k + 1:]] == [lead])


def certifies_intersection_table(table: Sequence[Polynomial]) -> bool:
    """Whether every element of every basis of `intersection_over_q_i_g`
    `specialises_everywhere` and `table`, on MG_VARS, is its generators, in
    order.  Then, by Kalkbrener (On the stability of Groebner bases under
    specializations, JSC 1997), each basis at g = gamma != 0 is a basis of
    the specialised t*I + (1 - t)*J, whose elements with a t-free lead
    are t-free, being homogeneous in the M_ij: the table at gamma generates
    the intersection of the seven components at gamma."""
    bases, generators = intersection_over_q_i_g()
    return (all(specialises_everywhere(f) for G in bases for f in G)
            and list(generators) == [substitute(f, {}, target=MGT_VARS, order=MGT_ORDER)
                                     for f in table])


# psi1 on the Pluecker coordinates as the ring map of its signed table,
# built once for each VarSet it acts on
_PSI1_IMAGES = {vs: _substitution_images(_PSI1_TABLE, vs) for vs in (M_VARS, MG_VARS)}


def psi1_on_pluecker(f: Polynomial) -> Polynomial:
    """Action of the antiautomorphism x1 <-> x3, x2 <-> x4 on the Pluecker
    coordinates, of f on M_VARS or MG_VARS (g kept); an involution."""
    if f.varset not in _PSI1_IMAGES:
        raise ValueError("psi1_on_pluecker expects a polynomial in the M variables")
    return substitute(f, _PSI1_IMAGES[f.varset])


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise cli.UsageError(message)


# the options that one command alone takes: (option, command, choices)
_COMMAND_FLAGS = (("verify", "line-scheme", None), ("symbolic", "lines-through", None),
                  ("numeric", "lines-through", None),
                  ("point", "lines-through", ("e1", "e2", "e3", "e4", "generic")))


def argparse_parsed(argv: Sequence[str]) -> tuple:
    """What `cli._parsed` returns for argv, (question, limit flags), read
    by one flat argparse parser; a usage error raises `cli.UsageError`,
    and `-h` exits.  `--gamma <value>` is joined to `--gamma=<value>`
    first, since argparse takes no separate value such as `-1/2` or `-i`
    for an option; a prefix of `--gamma` is not joined."""
    p = _ArgumentParser(prog="qp3")
    p.add_argument("command", choices=cli.COMMANDS)
    p.add_argument("--gamma")
    p.add_argument("--format", choices=("text", "json"), default="text")
    for field in cli.LIMIT_ENV:
        p.add_argument("--" + field.replace("_", "-"), type=int)
    p.add_argument("--tolerance", type=float, default=1e-8)
    for flag, _, choices in _COMMAND_FLAGS:
        p.add_argument("--" + flag, **({"choices": choices} if choices
                                       else {"action": "store_true"}))
    joined: List[str] = []
    for arg in argv:
        if joined and joined[-1] == "--gamma":
            joined[-1] = f"--gamma={arg}"
        else:
            joined.append(arg)
    args = p.parse_args(joined)
    for flag, command, _ in _COMMAND_FLAGS:
        if getattr(args, flag) not in (None, False) and args.command != command:
            raise cli.UsageError(f"unrecognized arguments: --{flag}")
    if args.gamma is None:
        raise cli.UsageError("--gamma is required")
    if not isinstance(args.gamma, str):
        # argparse before 3.13 drops a `--` value and leaves an empty list
        raise cli.UsageError("--gamma needs a value, such as 4 or 1/2+3/2*i")
    gamma = cli.parse_gamma(args.gamma)
    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        raise cli.UsageError("--tolerance must be a finite positive number")
    if args.command == "point-scheme":
        question = cli.cmd_point_scheme, gamma, args.format
    elif args.command == "line-scheme":
        question = cli.cmd_line_scheme, gamma, args.format, args.verify
    elif not args.numeric:
        question = cli.cmd_lines_through, gamma, args.format, args.point or "generic"
    elif args.symbolic or args.point:
        raise cli.UsageError("--numeric cannot be combined with --symbolic or --point")
    else:
        question = cli.cmd_lines_through_numeric, gamma, args.format, args.tolerance
    return question, tuple(getattr(args, f) for f in cli.LIMIT_ENV)


def _arithmetic_tokens(text: str) -> List[Tuple[str, str, int]]:
    """The tokens of `text`, one character at a time."""
    tokens, i, n = [], 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^()/":
            tokens.append((ch, ch, i))
            i += 1
            continue
        j = i
        if ch.isdigit():
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("nat", text[i:j], i))
        elif ch.isalpha() or ch == "_":
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
        else:
            raise PolyParseError(f"unexpected character {ch!r}", i)
        i = j
    tokens.append(("end", "", n))
    return tokens


class _ArithmeticParser:
    """The grammar of `multipoly` walked with a Polynomial for every value,
    built by `Polynomial.constant` and `Polynomial.variable` and the
    arithmetic operators, with the errors `parse_poly` raises."""

    def __init__(self, text, varset, gamma, order):
        self.tokens, self.k = _arithmetic_tokens(text), 0
        self.varset, self.gamma, self.order = varset, gamma, order
        self.depth = 0

    def peek(self):
        return self.tokens[self.k]

    def next(self):
        tok = self.tokens[self.k]
        if tok[0] != "end":
            self.k += 1
        return tok

    def parse(self) -> Polynomial:
        p = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise PolyParseError(f"unexpected token {tok[1]!r}", tok[2])
        return p

    def expr(self) -> Polynomial:
        negate = self.peek()[0] == "-"
        if negate:
            self.next()
        p = self.term()
        if negate:
            p = -p
        while True:
            tok = self.peek()
            if tok[0] == "+":
                self.next()
                p = p + self.term()
            elif tok[0] == "-":
                self.next()
                p = p - self.term()
            else:
                return p

    def term(self) -> Polynomial:
        p = self.factor()
        while self.peek()[0] == "*":
            self.next()
            p = p * self.factor()
        return p

    def factor(self) -> Polynomial:
        p = self.atom()
        if self.peek()[0] == "^":
            self.next()
            tok = self.next()
            if tok[0] != "nat":
                raise PolyParseError("exponent must be a natural number", tok[2])
            p = p ** int(tok[1])
        return p

    def atom(self) -> Polynomial:
        kind, value, pos = self.next()
        if kind == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise PolyParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            p = self.expr()
            self.depth -= 1
            closing = self.next()
            if closing[0] != ")":
                raise PolyParseError("expected ')'", closing[2])
            return p
        if kind == "nat":
            c = gr(int(value))
            if self.peek()[0] == "/":
                self.next()
                den_kind, den, den_pos = self.next()
                if den_kind != "nat":
                    raise PolyParseError("expected denominator", den_pos)
                if not int(den):
                    raise PolyParseError("division by zero", den_pos)
                c = gr(Fraction(int(value), int(den)))
            return Polynomial.constant(self.varset, c, self.order)
        if kind == "name":
            if value == "i":
                return Polynomial.constant(self.varset, gr(0, 1), self.order)
            if value in self.varset:
                return Polynomial.variable(self.varset, value, self.order)
            if value == "g":
                if self.gamma is None:
                    raise PolyParseError("placeholder 'g' used but no gamma bound", pos)
                return Polynomial.constant(self.varset, self.gamma, self.order)
            raise UnknownVariableError(f"unknown variable {value!r}", pos)
        raise PolyParseError(f"unexpected token {value!r}", pos)


def arithmetic_parse(text: str, varset: VarSet, gamma=None,
                     order: MonomialOrder = DEGREVLEX) -> Polynomial:
    """What `parse_poly` returns for the same arguments, or raises."""
    return _ArithmeticParser(text, varset, gamma, order).parse()

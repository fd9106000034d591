"""Reference implementations that the tests check the engine against.

Each computes what an engine routine computes by another method, and no
command needs it: Bareiss elimination for the determinant and the minors
of `polylinalg.all_minors`, the exact long division it rests on, a plain
float evaluator for the compiled residuals of `numeric`, a count of
standard monomials for the Hilbert numerators of `groebner`,
Rabinowitsch's rule for its `radical_member`, the two-pass reduction
step for its one-pass `_nf` and `_spoly`, and argparse for the
command-line parser `cli._parsed`.
"""

import argparse
import math
from itertools import chain, combinations_with_replacement
from operator import le
from typing import List, Mapping, Sequence, Tuple

from qp3 import cli
from qp3.groebner import Ideal, buchberger
from qp3.multipoly import (DEGREVLEX, ExponentOverflowError, Polynomial,
                           VarSetMismatchError, _iadd, _ishift, _primitive,
                           substitute)
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

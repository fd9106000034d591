"""Matrices over the polynomial ring and over Q(i): determinants, minors,
and the rank, nullspace and solutions of a scalar matrix, read off the
reduced Groebner basis of its rows as linear forms."""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import lcm, prod
from typing import Dict, List, Optional, Sequence, Tuple

from .gaussian import GaussianRational, ONE, ZERO
from .groebner import GroebnerLimits, Ideal, buchberger, limits_scope
from .multipoly import (Monomial, Polynomial, VarSet, VarSetMismatchError,
                        _TermList, _iadd, _packing, _poly, _product, _times)


class PolyMatrix:
    """Dense rectangular matrix whose entries are Polynomials on one VarSet."""

    __slots__ = ("rows", "cols", "entries", "varset")

    def __init__(self, entries: Sequence[Sequence[Polynomial]]):
        entries = tuple(tuple(row) for row in entries)
        if not entries or not entries[0]:
            raise ValueError("matrix must be non-empty")
        cols = len(entries[0])
        varset = entries[0][0].varset
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged matrix")
            for e in row:
                if e.varset != varset:
                    raise VarSetMismatchError("matrix entries on different VarSets")
        object.__setattr__(self, "rows", len(entries))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "varset", varset)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    def row(self, k: int) -> List[Polynomial]:
        return list(self.entries[k])

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "PolyMatrix":
        return PolyMatrix([[self.entries[r][c] for c in col_idx] for r in row_idx])

    def det(self) -> Polynomial:
        """Determinant: `all_minors`'s dynamic program at full size."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        return all_minors(self, self.rows)[0]

    def det_bareiss(self) -> Polynomial:
        """Fraction-free Gaussian elimination determinant (cross-check oracle)."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        order = self.entries[0][0].order
        one = Polynomial.constant(self.varset, 1, order)
        a = [[self.entries[r][c] for c in range(n)] for r in range(n)]
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
                    return Polynomial.zero(self.varset, order)
            for r in range(k + 1, n):
                for c in range(k + 1, n):
                    num = a[r][c] * a[k][k] - a[r][k] * a[k][c]
                    a[r][c] = poly_exact_div(num, prev)
                a[r][k] = Polynomial.zero(self.varset, order)
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


def minor(m: PolyMatrix, row_idx: Sequence[int], col_idx: Sequence[int]) -> Polynomial:
    """Determinant of the selected square submatrix."""
    if len(row_idx) != len(col_idx):
        raise ValueError("minor needs equally many rows and columns")
    for r in row_idx:
        if not 0 <= r < m.rows:
            raise IndexError(f"row index {r} out of range")
    for c in col_idx:
        if not 0 <= c < m.cols:
            raise IndexError(f"column index {c} out of range")
    return m.submatrix(row_idx, col_idx).det()


def all_minors(m: PolyMatrix, k: int) -> List[Polynomial]:
    """All k x k minors, row sets and column sets in lexicographic order.

    The minors are computed on the term lists over Z[i] that Polynomials
    store.  Row r is multiplied by D_r, the lcm of its entries'
    denominators, so each entry is one list, and the minor on the rows R
    is wrapped once, with scale 1/prod(D_r for r in R).

    One dynamic program per column set serves every row set: it takes the
    chosen columns one at a time, and its state is the bitmask of rows
    used so far.  Placing row r crosses the used rows above it, which
    gives the sign (-1)^popcount(mask >> (r + 1)).  A state whose value
    cancels is dropped.  After k columns, the value at a mask with k bits
    set is the minor on those rows with the columns in the order taken.
    That order is greedy: next comes the column with the fewest nonzero
    rows outside the rows of the columns already taken, which keeps the
    states few on a sparse matrix.  The set's minors are then multiplied
    by the sign of that permutation.
    """
    if k > min(m.rows, m.cols):
        raise IndexError("minor size exceeds matrix dimensions")
    denoms = [lcm(*(e._scale[2] for e in row)) for row in m.entries]
    pk = _packing(len(m.varset), m.entries[0][0].order)
    # per column, (r, D_r * entry, -D_r * entry) for each nonzero entry
    cols: List[List[Tuple[int, _TermList, _TermList]]] = [[] for _ in range(m.cols)]
    for r, row in enumerate(m.entries):
        for c, e in enumerate(row):
            if not e.is_zero():
                p, (a, b, d) = e._packed(pk)
                f = denoms[r] // d
                p = _times(p, a * f, b * f)
                cols[c].append((r, p, _times(p, -1, 0)))
    support = [sum(1 << r for r, _, _ in col) for col in cols]
    by_cols = []
    for chosen in combinations(range(m.cols), k):
        left, used, taken = list(chosen), 0, []
        while left:
            c = min(left, key=lambda j: (support[j] & ~used).bit_count())
            left.remove(c)
            taken.append(c)
            used |= support[c]
        inversions = sum(a > b for a, b in combinations(taken, 2))
        level: Dict[int, _TermList] = {0: [(0, 0, (1, 0))]}
        for c in taken:
            nxt: Dict[int, _TermList] = {}
            for mask, val in level.items():
                for r, p, neg in cols[c]:
                    bit = 1 << r
                    if mask & bit:
                        continue
                    contrib = _product(
                        neg if (mask >> (r + 1)).bit_count() % 2 else p, val, pk)
                    acc = nxt.get(mask | bit)
                    nxt[mask | bit] = contrib if acc is None else _iadd(acc, contrib)
            level = {mask: val for mask, val in nxt.items() if val}
        by_cols.append((-1 if inversions % 2 else 1, level))
    out = []
    for rows in combinations(range(m.rows), k):
        mask = sum(1 << r for r in rows)
        d = prod(denoms[r] for r in rows)
        out.extend(_poly(m.varset, pk, level.get(mask, []), sign, 0, d)
                   for sign, level in by_cols)
    return out


@lru_cache(maxsize=8)
def _unit_forms(width: int) -> Tuple[VarSet, Tuple[Monomial, ...]]:
    """Variables c0, c1, ... for the columns, and their monomials."""
    return (VarSet(f"c{j}" for j in range(width)),
            tuple(tuple(int(j == k) for j in range(width)) for k in range(width)))


def row_echelon(rows: Sequence[Sequence[GaussianRational]]
                ) -> Tuple[List[List[GaussianRational]], List[int]]:
    """The nonzero rows of the reduced row echelon form of a matrix over
    Q(i), and their pivot columns.

    Row k is read as the linear form sum_j rows[k][j] * c_j, and the
    result is the reduced Groebner basis of those forms: under DEGREVLEX
    c0 > c1 > ..., so each lead is a row's first nonzero column, and a
    reduced basis of linear forms, monic, is the reduced echelon form.
    """
    if not rows:
        raise ValueError("matrix must have at least one row")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValueError("ragged matrix")
    varset, units = _unit_forms(width)
    # forms with distinct leads make no S-pairs, and the basis keeps one per
    # pivot: bounds that always hold, so no caller's narrower limits apply
    with limits_scope(GroebnerLimits(max_pairs=0, max_basis=width, max_degree=1)):
        G = buchberger(Ideal([Polynomial(varset, dict(zip(units, row))) for row in rows],
                             varset=varset))
    echelon = [[terms.get(m, ZERO) for m in units] for terms in (g.terms for g in G)]
    return echelon, [m.index(1) for m in G.leading_monomials()]


def rank(rows: Sequence[Sequence[GaussianRational]]) -> int:
    return len(row_echelon(rows)[1])


def nullspace(rows: Sequence[Sequence[GaussianRational]]) -> List[List[GaussianRational]]:
    """Canonical basis of the right nullspace.

    One vector per free column, in increasing column order, with a 1 in
    its free coordinate; this makes downstream fixtures deterministic.
    """
    echelon, pivots = row_echelon(rows)
    width = len(rows[0])
    basis = []
    for fc in sorted(set(range(width)) - set(pivots)):
        v = [ZERO] * width
        v[fc] = ONE
        for row, pc in zip(echelon, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def solve(rows: Sequence[Sequence[GaussianRational]],
          rhs: Sequence[GaussianRational]) -> Optional[List[GaussianRational]]:
    """One exact solution x of rows . x = rhs, or None if inconsistent."""
    echelon, pivots = row_echelon([[*row, b] for row, b in zip(rows, rhs, strict=True)])
    width = len(rows[0])
    if width in pivots:
        return None
    x = [ZERO] * width
    for row, pc in zip(echelon, pivots):
        x[pc] = row[width]
    return x

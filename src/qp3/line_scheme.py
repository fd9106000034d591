"""The line scheme of A(gamma) in Pluecker coordinates on P5.

Pipeline: Koszul dual -> 10x8 matrix over u, v -> forty-five 8x8 minors
(bidegree (4,4)) -> rewrite in the N_ij = u_i v_j - u_j v_i -> signed
substitution to the M_ij -> the 46-polynomial ideal (with the Pluecker
quadric P), plus the reference component catalog and its verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .gaussian import GaussianRational, ONE, ZERO, gr
from .multipoly import (DEGREVLEX, Polynomial, VarSet, parse_poly, print_poly,
                        rename_variables, substitute)
from .polylinalg import PolyMatrix, all_minors
from .groebner import (GroebnerBasis, Ideal, buchberger, hilbert_dimension_degree,
                       intersect, normal_form, radical_member)
from .quadratic_algebra import (M_VARS, N_VARS, PLUECKER_MAP, UV_VARS,
                                QuadraticAlgebra, ZeroGammaError, m_hat,
                                make_A)
from .fixtures import load_fixtures


class NotInSubringError(ValueError):
    """A bidegree (4,4) polynomial failed to rewrite in the N_ij; this
    signals a pipeline bug, not bad user input."""


PLUECKER_POLY_STRING = "M12*M34 - M13*M24 + M14*M23"


def pluecker_polynomial() -> Polynomial:
    return parse_poly(PLUECKER_POLY_STRING, M_VARS)


@lru_cache(maxsize=1)
def _pluecker_gb_M() -> GroebnerBasis:
    return buchberger(Ideal([pluecker_polynomial()]))


@lru_cache(maxsize=1)
def _pluecker_gb_N() -> GroebnerBasis:
    p = parse_poly("N12*N34 - N13*N24 + N14*N23", N_VARS)
    return buchberger(Ideal([p]))


def build_big_matrix(A: QuadraticAlgebra, tensor_order: str = "left") -> PolyMatrix:
    """10x8 matrix: the Koszul dual matrix with z -> u on the left block
    and z -> v on the right block."""
    mh = m_hat(A, tensor_order)
    rows = []
    for r in range(mh.rows):
        left = [rename_variables(e, {f"z{k}": f"u{k}" for k in range(1, 5)},
                                 UV_VARS) for e in mh.row(r)]
        right = [rename_variables(e, {f"z{k}": f"v{k}" for k in range(1, 5)},
                                  UV_VARS) for e in mh.row(r)]
        rows.append(left + right)
    return PolyMatrix(rows)


ROW_SUBSETS: Tuple[Tuple[int, ...], ...] = tuple(combinations(range(10), 8))


def big_matrix_minors(A: QuadraticAlgebra,
                      tensor_order: str = "left") -> List[Polynomial]:
    """The forty-five 8x8 minors, row subsets in lexicographic order."""
    return all_minors(build_big_matrix(A, tensor_order), 8)


# ---------------------------------------------------------------------------
# rewriting bidegree (4,4) polynomials in the N_ij
# ---------------------------------------------------------------------------

U_NAMES = ("u1", "u2", "u3", "u4")


class _NRewriter:
    """Exact linear solver expressing bidegree (4,4) polynomials in u, v as
    degree-4 polynomials in the six N_ij.

    Columns are the 126 quartic N-monomials expanded into u, v; a greedy
    triangular pivot structure (by leading u,v-monomial) solves each right
    hand side and records the combination over the original monomials.
    """

    def __init__(self):
        n_polys = {}
        for (i, j) in ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)):
            n_polys[f"N{i}{j}"] = parse_poly(f"u{i}*v{j} - u{j}*v{i}", UV_VARS)
        self.key = DEGREVLEX.key
        monos = self._quartic_monomials()
        self.monomials = monos
        self.pivots_by_row: Dict[tuple, Tuple[tuple, Dict, Dict]] = {}
        for mono in monos:
            expansion = Polynomial.constant(UV_VARS, 1)
            for name, e in zip(N_VARS.names, mono):
                if e:
                    expansion = expansion * n_polys[name] ** e
            col = {m: c for m, c in expansion.terms.items()}
            combo = {mono: ONE}
            self._reduce(col, combo)
            if col:
                pivot_row = max(col, key=self.key)
                inv = col[pivot_row].inverse()
                col = {m: c * inv for m, c in col.items()}
                combo = {m: c * inv for m, c in combo.items()}
                self.pivots_by_row[pivot_row] = (pivot_row, col, combo)

    @staticmethod
    def _quartic_monomials() -> List[tuple]:
        out = []

        def rec(prefix, remaining, slots):
            if slots == 1:
                out.append(tuple(prefix + [remaining]))
                return
            for e in range(remaining + 1):
                rec(prefix + [e], remaining - e, slots - 1)

        rec([], 4, 6)
        key = DEGREVLEX.key
        out.sort(key=lambda m: key(m), reverse=True)
        return out

    def _reduce(self, col: Dict, combo: Dict) -> None:
        while col:
            row = max(col, key=self.key)
            hit = self.pivots_by_row.get(row)
            if hit is None:
                return
            c = col[row]
            _, pcol, pcombo = hit
            for m, v in pcol.items():
                acc = col.get(m, ZERO) - c * v
                if acc.is_zero():
                    col.pop(m, None)
                else:
                    col[m] = acc
            for m, v in pcombo.items():
                acc = combo.get(m, ZERO) - c * v
                if acc.is_zero():
                    combo.pop(m, None)
                else:
                    combo[m] = acc

    def rewrite(self, f: Polynomial) -> Polynomial:
        """A degree-4 polynomial g in the N_ij with g(N(u,v)) = f, reduced
        to normal form modulo the Pluecker relation so it is unique."""
        if f.varset != UV_VARS:
            raise ValueError("rewrite expects a polynomial over u1..u4, v1..v4")
        if f.is_zero():
            return Polynomial.zero(N_VARS)
        if f.bidegree(U_NAMES) != (4, 4):
            raise NotInSubringError("input is not bihomogeneous of bidegree (4,4)")
        col = dict(f.terms)
        combo: Dict[tuple, GaussianRational] = {}
        while col:
            row = max(col, key=self.key)
            hit = self.pivots_by_row.get(row)
            if hit is None:
                raise NotInSubringError(
                    "polynomial is not a combination of products of the N_ij")
            c = col[row]
            _, pcol, pcombo = hit
            for m, v in pcol.items():
                acc = col.get(m, ZERO) - c * v
                if acc.is_zero():
                    col.pop(m, None)
                else:
                    col[m] = acc
            for m, v in pcombo.items():
                acc = combo.get(m, ZERO) + c * v
                if acc.is_zero():
                    combo.pop(m, None)
                else:
                    combo[m] = acc
        g = Polynomial(N_VARS, combo)
        return normal_form(g, _pluecker_gb_N())

    def expand(self, g: Polynomial) -> Polynomial:
        """Back-substitute N_ij = u_i v_j - u_j v_i."""
        n_polys = {}
        for (i, j) in ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)):
            n_polys[f"N{i}{j}"] = parse_poly(f"u{i}*v{j} - u{j}*v{i}", UV_VARS)
        return substitute(g, n_polys, target=UV_VARS)


@lru_cache(maxsize=1)
def _rewriter() -> _NRewriter:
    return _NRewriter()


def rewrite_in_N(f: Polynomial) -> Polynomial:
    return _rewriter().rewrite(f)


def apply_pluecker_map(g: Polynomial) -> Polynomial:
    """The signed substitution N12 -> M34, N13 -> -M24, N14 -> M23,
    N23 -> M14, N24 -> -M13, N34 -> M12."""
    if g.varset != N_VARS:
        raise ValueError("apply_pluecker_map expects a polynomial in the N variables")
    images = {}
    for n, (s, m) in PLUECKER_MAP.items():
        images[n] = Polynomial(M_VARS, {M_VARS.var_monomial(m): gr(s)})
    return substitute(g, images, target=M_VARS)


# ---------------------------------------------------------------------------
# the 46-polynomial line scheme ideal
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LineSchemeIdeal:
    gamma: GaussianRational
    polys: Tuple[Polynomial, ...]          # P first, then the 45 minor images
    minor_row_sets: Tuple[Tuple[int, ...], ...]
    ideal: Ideal

    def to_json_dict(self) -> dict:
        return {
            "gamma": str(self.gamma),
            "pluecker_polynomial": print_poly(self.polys[0]),
            "polynomials": [print_poly(p) for p in self.polys],
        }


def line_scheme_ideal(gamma: GaussianRational,
                      tensor_order: str = "left") -> LineSchemeIdeal:
    """The 46 polynomials in the M_ij cutting out the line scheme, each
    minor image normalized modulo the Pluecker quadric."""
    return _line_scheme_ideal(gamma, tensor_order)


@lru_cache(maxsize=None)
def _line_scheme_ideal(gamma: GaussianRational,
                       tensor_order: str) -> LineSchemeIdeal:
    A = make_A(gamma)
    minors = big_matrix_minors(A, tensor_order)
    gbP = _pluecker_gb_M()
    rew = _rewriter()
    images = []
    for f in minors:
        g = rew.rewrite(f)
        h = normal_form(apply_pluecker_map(g), gbP)
        if h.is_zero():
            raise NotInSubringError("a minor image vanished; pipeline bug")
        images.append(h)
    polys = (pluecker_polynomial(),) + tuple(images)
    return LineSchemeIdeal(gamma=gamma, polys=polys,
                           minor_row_sets=ROW_SUBSETS,
                           ideal=Ideal(list(polys)))


UNITS = (gr(1), gr(-1), gr(0, 1), gr(0, -1))


def match_fixture_polys(L: LineSchemeIdeal) -> Dict[int, int]:
    """Bijection from the reference list to the computed polynomials, each
    matching up to a unit scalar after Pluecker normal form.

    The reference list is matched with its errata applied
    (`FixtureSet.line_scheme_errata`): entry 31 as printed is a unit
    multiple of no minor.  The list was computed from the "right" tensor
    enumeration, so only `line_scheme_ideal(gamma, "right")` matches in
    full; the "left" minors match 30 of the 45 quartics.

    Raises ValueError when no perfect matching exists.
    """
    gbP = _pluecker_gb_M()
    fixture = load_fixtures().parse_line_polys(L.gamma, corrected=True)
    mine: Dict[str, List[Tuple[int, GaussianRational]]] = {}
    for k, p in enumerate(L.polys):
        nf = normal_form(p, gbP) if k else p
        mine.setdefault(print_poly(nf.monic()), []).append((k, nf.leading_coefficient()))
    matching: Dict[int, int] = {}
    for j, f in enumerate(fixture):
        nf = normal_form(f, gbP) if j else f
        bucket = mine.get(print_poly(nf.monic()))
        if not bucket:
            raise ValueError(f"fixture {j} has no computed counterpart: {print_poly(f)}")
        k, lc = bucket.pop(0)
        if nf.leading_coefficient() / lc not in UNITS:
            raise ValueError(f"fixture {j} matches computed polynomial {k} only "
                             "up to a non-unit scalar")
        matching[j] = k
    unmatched = [ks for ks in mine.values() if ks]
    if unmatched:
        raise ValueError(f"computed polynomials left unmatched: {unmatched}")
    return matching


@dataclass
class FixtureForensics:
    """How the reference 46-entry list relates to the computed minors.

    The reference representatives do not all equal unit multiples of the
    minors of the displayed dual matrix; this report certifies exactly
    how each entry arises.
    """

    gamma: GaussianRational
    direct_matches: Dict[int, int]            # fixture idx -> minor idx ("left")
    combination_certificates: Dict[int, List[Tuple[int, GaussianRational]]]
    right_order_matches: Dict[int, int]       # fixture idx -> minor idx ("right")
    right_order_discrepancies: Dict[int, Polynomial]  # fixture - unit*minor


def _fixture_combination(f: Polynomial, images: Sequence[Polynomial]):
    """Exact scalar combination of the images equal to f, or None."""
    from .polylinalg import ScalarMatrix

    monos = sorted({m for p in images for m in p.terms} | set(f.terms))
    idx = {m: r for r, m in enumerate(monos)}
    cols = []
    for p in images:
        v = [ZERO] * len(monos)
        for m, c in p.terms.items():
            v[idx[m]] = c
        cols.append(v)
    mat = ScalarMatrix([[cols[c][r] for c in range(len(images))]
                        for r in range(len(monos))])
    rhs = [ZERO] * len(monos)
    for m, c in f.terms.items():
        rhs[idx[m]] = c
    sol = mat.solve(rhs)
    if sol is None:
        return None
    return [(k, c) for k, c in enumerate(sol) if not c.is_zero()]


def fixture_forensics(gamma: GaussianRational) -> FixtureForensics:
    """Certify, entry by entry, how the reference list arises from the
    computed minors: direct unit-scalar matches, exact linear-combination
    certificates (a change of dual basis mixes minors by Cauchy-Binet),
    and the residual single-term discrepancies under the other tensor
    enumeration."""
    gbP = _pluecker_gb_M()
    fixture = load_fixtures().parse_line_polys(gamma)
    fix_nf = [normal_form(f, gbP) for f in fixture[1:]]

    left = [normal_form(p, gbP) for p in line_scheme_ideal(gamma, "left").polys[1:]]
    right = [normal_form(p, gbP) for p in line_scheme_ideal(gamma, "right").polys[1:]]

    def key(p):
        return print_poly(p.monic())

    def buckets(polys):
        out: Dict[str, List[Tuple[int, GaussianRational]]] = {}
        for k, p in enumerate(polys):
            out.setdefault(key(p), []).append((k, p.leading_coefficient()))
        return out

    def unit_match(f, bucket):
        """First computed index whose polynomial is a unit multiple of f."""
        for k, lc in bucket.get(key(f), ()):
            if f.leading_coefficient() / lc in UNITS:
                return k
        return None

    left_keys = buckets(left)
    right_keys = buckets(right)

    direct: Dict[int, int] = {}
    combos: Dict[int, List[Tuple[int, GaussianRational]]] = {}
    right_matches: Dict[int, int] = {}
    right_disc: Dict[int, Polynomial] = {}
    for j, f in enumerate(fix_nf, start=1):
        k = unit_match(f, left_keys)
        if k is not None:
            direct[j] = k
            continue
        combo = _fixture_combination(f, left)
        if combo is not None:
            combos[j] = combo
        k = unit_match(f, right_keys)
        if k is not None:
            right_matches[j] = k
        else:
            # smallest single-minor discrepancy over unit scalings
            best = None
            for p in right:
                for u in UNITS:
                    diff = f - p * u
                    if best is None or len(diff.terms) < len(best.terms):
                        best = diff
            if best is not None:
                right_disc[j] = best
    return FixtureForensics(
        gamma=gamma,
        direct_matches=direct,
        combination_certificates=combos,
        right_order_matches=right_matches,
        right_order_discrepancies=right_disc,
    )


def displayed_big_matrix(gamma: GaussianRational) -> PolyMatrix:
    rows = load_fixtures().displayed_big_matrix
    return PolyMatrix([[parse_poly(t, UV_VARS, gamma=gamma) for t in row]
                       for row in rows])


def match_displayed_big_matrix(A: QuadraticAlgebra) -> List[Tuple[int, GaussianRational]]:
    """For each displayed row, the (computed row index, scalar) with
    computed = scalar * displayed; raises ValueError if no bijection."""
    mine = build_big_matrix(A)
    shown = displayed_big_matrix(A.gamma)
    used = set()
    out = []
    for r in range(shown.rows):
        found = None
        for s in range(mine.rows):
            if s in used:
                continue
            scalar = None
            ok = True
            for c in range(8):
                a, b = mine.entries[s][c], shown.entries[r][c]
                if a.is_zero() != b.is_zero():
                    ok = False
                    break
                if a.is_zero():
                    continue
                if set(a.terms) != set(b.terms):
                    ok = False
                    break
                for mono, cb in b.terms.items():
                    ratio = a.terms[mono] / cb
                    if scalar is None:
                        scalar = ratio
                    elif scalar != ratio:
                        ok = False
                        break
                if not ok:
                    break
            if ok and scalar is not None:
                found = (s, scalar)
                break
        if found is None:
            raise ValueError(f"displayed row {r} has no computed counterpart")
        used.add(found[0])
        out.append(found)
    return out


# ---------------------------------------------------------------------------
# the component catalog of the closed-point decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Component:
    name: str
    ideal: Ideal
    dimension: int
    degree: int
    kind: str


@dataclass(frozen=True)
class ComponentCatalog:
    gamma: GaussianRational
    components: Tuple[Component, ...]

    def __iter__(self):
        return iter(self.components)

    def __len__(self):
        return len(self.components)

    def names(self) -> List[str]:
        return [c.name for c in self.components]

    def get(self, name: str) -> Component:
        for c in self.components:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return {
            "gamma": str(self.gamma),
            "components": [
                {
                    "name": c.name,
                    "generators": [print_poly(g) for g in c.ideal.generators],
                    "dimension": c.dimension,
                    "degree": c.degree,
                    "kind": c.kind,
                }
                for c in self.components
            ],
        }


@lru_cache(maxsize=None)
def component_catalog(gamma: GaussianRational) -> ComponentCatalog:
    """The reference components: seven when gamma^2 != 16, eight (L1 split
    into two conics) when gamma^2 = 16."""
    if not isinstance(gamma, GaussianRational):
        gamma = gr(gamma)
    if gamma.is_zero():
        raise ZeroGammaError("gamma must be nonzero")
    fx = load_fixtures()
    names: List[Tuple[str, dict]] = []
    if gamma * gamma == gr(16):
        split = (fx.component_generators_gamma4 if gamma == gr(4)
                 else fx.component_generators_gamma_minus4)
        names.extend(sorted(split.items()))
        names.extend((n, d) for n, d in fx.component_generators.items() if n != "L1")
    else:
        names.extend(fx.component_generators.items())
    comps = []
    for name, data in names:
        gens = [parse_poly(t, M_VARS, gamma=gamma) for t in data["generators"]]
        comps.append(Component(name=name, ideal=Ideal(gens),
                               dimension=data["dimension"],
                               degree=data["degree"], kind=data["kind"]))
    return ComponentCatalog(gamma=gamma, components=tuple(comps))


def gamma4_factorization(gamma: GaussianRational) -> bool:
    """At gamma^2 = 16 the L1 quadric combination factors into the two
    displayed linear forms; verified by expansion."""
    if gamma * gamma != gr(16):
        return False
    q1 = parse_poly("M14*M23 + M12*M34", M_VARS)
    q2 = parse_poly("M12^2 + M34^2 + g*M14*M23 - M14^2 - M23^2", M_VARS,
                    gamma=gamma)
    alpha = gr(-1) if gamma == gr(4) else gr(1)
    Q = q2 + (gr(2) * alpha) * q1
    if gamma == gr(4):
        f1 = parse_poly("M12 - M34 + M14 - M23", M_VARS)
        f2 = parse_poly("M12 - M34 - M14 + M23", M_VARS)
    else:
        f1 = parse_poly("M12 + M34 + M14 + M23", M_VARS)
        f2 = parse_poly("M12 + M34 - M14 - M23", M_VARS)
    return f1 * f2 == Q


# ---------------------------------------------------------------------------
# decomposition verification
# ---------------------------------------------------------------------------


@dataclass
class DecompositionReport:
    gamma: GaussianRational
    poly_in_components: bool       # V(L_k) inside V(L) for every k
    intersection_in_radical: bool  # V(L) inside the union of the V(L_k)
    hilbert: Tuple[int, int]
    component_hilbert: Dict[str, Tuple[int, int]]
    degrees_sum: int

    @property
    def ok(self) -> bool:
        return (self.poly_in_components and self.intersection_in_radical
                and self.hilbert == (1, 20) and self.degrees_sum == 20
                and all(v[0] == 1 for v in self.component_hilbert.values()))

    def to_json_dict(self) -> dict:
        return {
            "gamma": str(self.gamma),
            "polynomials_vanish_on_components": self.poly_in_components,
            "scheme_covered_by_components": self.intersection_in_radical,
            "hilbert_dimension_degree": list(self.hilbert),
            "component_hilbert": {k: list(v)
                                  for k, v in sorted(self.component_hilbert.items())},
            "component_degree_sum": self.degrees_sum,
            "verified": self.ok,
        }


def components_intersection(C: ComponentCatalog) -> Ideal:
    inter: Optional[Ideal] = None
    for comp in C:
        inter = comp.ideal if inter is None else intersect(inter, comp.ideal)
    return inter


def verify_decomposition(L: LineSchemeIdeal, C: ComponentCatalog) -> DecompositionReport:
    """Both inclusions of the decomposition plus the dimension and degree
    bookkeeping; every clause is reported separately."""
    if L.gamma != C.gamma:
        raise ValueError("line scheme and catalog built at different gamma")
    poly_in_components = True
    for comp in C:
        gb = buchberger(comp.ideal)
        for p in L.polys:
            if not normal_form(p, gb).is_zero():
                poly_in_components = False
                break
        if not poly_in_components:
            break

    inter = components_intersection(C)
    intersection_in_radical = all(radical_member(g, L.ideal)
                                  for g in inter.generators)

    hd = hilbert_dimension_degree(L.ideal)
    comp_h = {c.name: hilbert_dimension_degree(c.ideal) for c in C}
    degrees_sum = sum(d for _, d in comp_h.values())
    return DecompositionReport(
        gamma=L.gamma,
        poly_in_components=poly_in_components,
        intersection_in_radical=intersection_in_radical,
        hilbert=hd,
        component_hilbert=comp_h,
        degrees_sum=degrees_sum,
    )


def jacobian_smoothness_check(component: Ideal, ambient: Sequence[str]) -> bool:
    """No singular points in projective coordinates `ambient`: the system
    plus all maximal Jacobian minors has empty projective zero locus,
    checked as every ambient coordinate lying in the radical."""
    ambient_vs = VarSet(ambient)
    drop = [n for n in component.varset.names if n not in ambient]
    system = []
    for g in component.generators:
        if any(g.degree_in(n) > 0 for n in drop):
            continue  # a coordinate cut defining the ambient projective space
        if g.degree() >= 2:
            terms = {tuple(e for name, e in zip(component.varset.names, m)
                           if name in ambient): c for m, c in g.terms.items()}
            system.append(Polynomial(ambient_vs, terms))
    if not system:
        raise ValueError("component has no defining equations in the ambient space")
    jac = [[f.derivative(n) for n in ambient_vs.names] for f in system]
    k = len(system)
    minors_ = []
    for cols in combinations(range(len(ambient_vs)), k):
        sub = PolyMatrix([[jac[r][c] for c in cols] for r in range(k)])
        d = sub.det()
        if not d.is_zero():
            minors_.append(d)
    S = Ideal(system + minors_)
    return all(radical_member(Polynomial.variable(ambient_vs, n), S)
               for n in ambient_vs.names)


COMPONENT_AMBIENT = {
    "L1": ("M12", "M14", "M23", "M34"),
    "L2": ("M12", "M23", "M24"),
    "L3": ("M14", "M24", "M34"),
    "L4": ("M13", "M23", "M34"),
    "L5": ("M12", "M13", "M14"),
    "L6a": ("M12", "M13", "M24", "M34"),
    "L6b": ("M12", "M13", "M24", "M34"),
    "L1a": ("M12", "M14", "M23", "M34"),
    "L1b": ("M12", "M14", "M23", "M34"),
}

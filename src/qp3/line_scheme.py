"""The line scheme of A(gamma) in Pluecker coordinates on P5.

Pipeline: Koszul dual -> the 10x8 matrix [M^(u) | M^(v)] with u, v
spanning the line of Pluecker coordinates M_ij -> forty-five 8x8 minors,
octics in the M_ij -> each reduced modulo the Pluecker quadric P and
divided by M34^4 -> the 46-polynomial ideal (P and the 45 quartics), plus
the reference component catalog and its verification.

Every minor of [M^(u) | M^(v)] is a quartic Q in the brackets
N_ij = u_i v_j - u_j v_i (first fundamental theorem for SL2), read in the
M_ij through the signed identification N12 = M34, N13 = -M24, N14 = M23,
N23 = M14, N24 = -M13, N34 = M12.  With u = (M34, 0, -M14, M13) and
v = (0, M34, -M24, M23), that is M34 times the chart point (1, 0, a, b),
(0, 1, c, d) of Gr(2,4), no chart is needed: each bracket is M34 times
its coordinate, except N34 = M13*M24 - M14*M23, which is M34*M12 modulo
P.  So each minor is M34^4 * Q modulo P.  The lead of P under degrevlex
is M14*M23, free of M34, so a normal form times M34^4 is still one:
NF(minor) = M34^4 * NF(Q), and dividing NF(minor) by M34^4 gives NF(Q)
exactly.  A term with M34 to a power below 4 would show that the minor
is no such quartic; the division then raises ValueError
(`_quartic_of_minor`).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .gaussian import GaussianRational, ZERO, gr
from .multipoly import (Polynomial, VarSet, _wrap, parse_poly, print_poly,
                        substitute)
from .polylinalg import PolyMatrix, all_minors, solve
from .groebner import (MEMO_SIZE, GroebnerBasis, Ideal, _homogeneous_basis,
                       _stripped_numerator, buchberger, cached_under_limits,
                       hilbert_dimension_degree, intersect, normal_form,
                       quotient_dimension)
from .quadratic_algebra import (M_VARS, UV_VARS, Z_VARS, QuadraticAlgebra,
                                m_hat, make_A, nonzero_gamma)
from .fixtures import load_fixtures


PLUECKER_POLY_STRING = "M12*M34 - M13*M24 + M14*M23"


def pluecker_polynomial() -> Polynomial:
    return parse_poly(PLUECKER_POLY_STRING, M_VARS)


@lru_cache(maxsize=1)
def _pluecker_gb_M() -> GroebnerBasis:
    return buchberger(Ideal([pluecker_polynomial()]))


def _doubled_matrix(A: QuadraticAlgebra, tensor_order: str, u: Sequence,
                    v: Sequence, varset: VarSet) -> PolyMatrix:
    """[M^(u) | M^(v)]: the Koszul dual matrix with z -> u on the left
    block and z -> v on the right block, u and v given as images on
    `varset` (polynomials or scalars)."""
    mh = m_hat(A, tensor_order)
    to_u, to_v = (dict(zip(Z_VARS.names, w)) for w in (u, v))
    return PolyMatrix([[substitute(e, z_to, target=varset)
                        for z_to in (to_u, to_v) for e in mh.row(r)]
                       for r in range(mh.rows)])


def build_big_matrix(A: QuadraticAlgebra, tensor_order: str = "left") -> PolyMatrix:
    """10x8 matrix over u1..u4, v1..v4: [M^(u) | M^(v)]."""
    u, v = ([Polynomial.variable(UV_VARS, f"{w}{k}") for k in range(1, 5)]
            for w in "uv")
    return _doubled_matrix(A, tensor_order, u, v, UV_VARS)


# u and v of the module docstring: each bracket of u, v is M34 times its
# signed Pluecker coordinate modulo P
_PLUECKER_U, _PLUECKER_V = ([parse_poly(t, M_VARS) for t in w] for w in (
    ("M34", "0", "-M14", "M13"), ("0", "M34", "-M24", "M23")))
_M34_4 = tuple(4 * e for e in M_VARS.var_monomial("M34"))


def _quartic_of_minor(f: Polynomial) -> Polynomial:
    """NF(f) modulo P divided by M34^4: the quartic that f is M34^4 times
    modulo P.  The division shifts the keys and monomials of the normal
    form's term list, which stays primitive.  Raises ValueError when
    M34^4 does not divide a term, that is when f is no such multiple."""
    nf = normal_form(f, _pluecker_gb_M())
    pk = nf._pk
    key_u, u = pk.pack(_M34_4)
    out = []
    for key, m, c in nf._list:
        if not pk.divides(u, m):
            raise ValueError("M34^4 does not divide the normal form modulo P")
        out.append((key - key_u, m - u, c))
    return _wrap(M_VARS, pk, out, nf._scale)


# ---------------------------------------------------------------------------
# the 46-polynomial line scheme ideal
# ---------------------------------------------------------------------------


class LineSchemeIdeal(NamedTuple):
    gamma: GaussianRational
    polys: Tuple[Polynomial, ...]          # P, then the 45 quartics (NF mod P)
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


@lru_cache(maxsize=MEMO_SIZE)
def _line_scheme_ideal(gamma: GaussianRational,
                       tensor_order: str) -> LineSchemeIdeal:
    big = _doubled_matrix(make_A(gamma), tensor_order, _PLUECKER_U, _PLUECKER_V,
                          M_VARS)
    images = []
    for f in all_minors(big, 8):
        h = _quartic_of_minor(f)
        if h.is_zero():
            raise ValueError("a minor image vanished; pipeline bug")
        images.append(h)
    polys = (pluecker_polynomial(),) + tuple(images)
    return LineSchemeIdeal(gamma=gamma, polys=polys, ideal=Ideal(list(polys)))


UNITS = (gr(1), gr(-1), gr(0, 1), gr(0, -1))


def _ratio(f: Polynomial, g: Polynomial) -> Optional[GaussianRational]:
    """The scalar c with f = c*g, or None; None also when f is zero."""
    if f.is_zero() or g.is_zero() or f.monic() != g.monic():
        return None
    return f.leading_coefficient() / g.leading_coefficient()


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
    free = dict(enumerate(L.polys))    # the 45 are normal forms already
    matching: Dict[int, int] = {}
    for j, f in enumerate(fixture):
        nf = normal_form(f, gbP) if j else f
        k = next((k for k, p in free.items() if _ratio(nf, p) is not None), None)
        if k is None:
            raise ValueError(f"fixture {j} has no computed counterpart: {print_poly(f)}")
        if _ratio(nf, free.pop(k)) not in UNITS:
            raise ValueError(f"fixture {j} matches computed polynomial {k} only "
                             "up to a non-unit scalar")
        matching[j] = k
    if free:
        raise ValueError(f"computed polynomials left unmatched: {sorted(free)}")
    return matching


class FixtureForensics(NamedTuple):
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
    monos = sorted({m for p in images for m in p.terms} | set(f.terms))
    sol = solve([[p.terms.get(m, ZERO) for p in images] for m in monos],
                [f.terms.get(m, ZERO) for m in monos])
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

    left = line_scheme_ideal(gamma, "left").polys[1:]     # normal forms already
    right = line_scheme_ideal(gamma, "right").polys[1:]

    def unit_match(f, polys):
        """First computed index whose polynomial is a unit multiple of f."""
        return next((k for k, p in enumerate(polys) if _ratio(f, p) in UNITS), None)

    direct: Dict[int, int] = {}
    combos: Dict[int, List[Tuple[int, GaussianRational]]] = {}
    right_matches: Dict[int, int] = {}
    right_disc: Dict[int, Polynomial] = {}
    for j, f in enumerate(fix_nf, start=1):
        k = unit_match(f, left)
        if k is not None:
            direct[j] = k
            continue
        combo = _fixture_combination(f, left)
        if combo is not None:
            combos[j] = combo
        k = unit_match(f, right)
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

    def row_ratio(s: int, r: int) -> Optional[GaussianRational]:
        """The scalar c with computed row s = c * displayed row r, or None."""
        ratios = {_ratio(a, b) for a, b in zip(mine.entries[s], shown.entries[r])
                  if not (a.is_zero() and b.is_zero())}
        return ratios.pop() if len(ratios) == 1 else None

    free = list(range(mine.rows))
    out = []
    for r in range(shown.rows):
        s = next((s for s in free if row_ratio(s, r) is not None), None)
        if s is None:
            raise ValueError(f"displayed row {r} has no computed counterpart")
        free.remove(s)
        out.append((s, row_ratio(s, r)))
    return out


# ---------------------------------------------------------------------------
# the component catalog of the closed-point decomposition
# ---------------------------------------------------------------------------


# (degree, arithmetic genus, span P^k) of a smooth curve -> its kind
_KINDS = {(4, 1, 3): "spatial_elliptic", (3, 1, 2): "planar_elliptic",
          (2, 0, 2): "conic"}


@cached_under_limits
def curve_invariants(ideal: Ideal) -> Tuple[int, int, str]:
    """(dimension, degree, kind) of V(ideal) in P5.  With h the Hilbert
    numerator of its DEGREVLEX basis, a curve has arithmetic genus
    1 - h(1) + h'(1) (Hartshorne, Algebraic Geometry, I.7), and it spans
    P^(5 - k), k the number of linear leading monomials.  The kinds
    presume smoothness, which tests/test_line_scheme.py proves for every
    gamma.  Any other shape is a pipeline bug: ValueError."""
    G = _homogeneous_basis(ideal)
    h, stripped = _stripped_numerator(G)
    dimension, degree = len(ideal.varset) - stripped - 1, sum(h)
    genus = 1 - sum(h) + sum(k * c for k, c in enumerate(h))
    span = len(ideal.varset) - 1 - sum(G._packing.degree(p[0][1]) == 1 for p in G._lists)
    kind = _KINDS.get((degree, genus, span)) if dimension == 1 else None
    if kind is None:
        raise ValueError(f"no kind for {dimension=}, {degree=}, {genus=}, {span=}")
    return dimension, degree, kind


class Component(NamedTuple):
    name: str
    ideal: Ideal
    dimension = property(lambda self: curve_invariants(self.ideal)[0])
    degree = property(lambda self: curve_invariants(self.ideal)[1])
    kind = property(lambda self: curve_invariants(self.ideal)[2])


class ComponentCatalog:
    __slots__ = ("gamma", "components")

    def __init__(self, gamma: GaussianRational, components: Tuple[Component, ...]):
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "components", components)

    def __setattr__(self, name, value):
        raise AttributeError("ComponentCatalog is immutable")

    def __eq__(self, other):
        return (isinstance(other, ComponentCatalog) and self.gamma == other.gamma
                and self.components == other.components)

    def __hash__(self):
        return hash((self.gamma, self.components))

    def __repr__(self):
        return f"ComponentCatalog(gamma={self.gamma!r}, components={self.components!r})"

    def __iter__(self):
        return iter(self.components)

    def __len__(self):
        return len(self.components)

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


def _split_l1(gamma: GaussianRational, l1: List[Polynomial]):
    """L1a and L1b, the conics of gamma^2 = 16: L1 with q2 replaced by f + h
    (M12, M14 coefficients equal) and by f - h, where f = M12 - s M34,
    h = M14 - s M23, s = gamma/4.  Both Gram blocks of q2 - (gamma/2) q1
    have rank one, so it is f^2 - h^2, or else ValueError."""
    *lines, q1, q2 = l1
    f, h = (parse_poly(t, M_VARS, gamma=gamma / 4)
            for t in ("M12 - g*M34", "M14 - g*M23"))
    if f * f - h * h != q2 - (gamma / 2) * q1:
        raise ValueError(f"the L1 pencil does not split at gamma = {gamma}")
    return {"L1a": lines + [q1, f + h], "L1b": lines + [q1, f - h]}


@lru_cache(maxsize=MEMO_SIZE)
def component_catalog(gamma: GaussianRational) -> ComponentCatalog:
    """The components: the seven generic ones, where gamma^2 != 16, and
    eight, with L1 split into two conics, where gamma^2 = 16."""
    gamma = nonzero_gamma(gamma)
    gens = load_fixtures().parse_components(gamma)
    if gamma * gamma == gr(16):
        gens = {**_split_l1(gamma, gens.pop("L1")), **gens}
    return ComponentCatalog(gamma=gamma, components=tuple(
        Component(name=name, ideal=Ideal(g)) for name, g in gens.items()))


# ---------------------------------------------------------------------------
# decomposition verification
# ---------------------------------------------------------------------------


class DecompositionReport(NamedTuple):
    gamma: GaussianRational
    poly_in_components: bool       # V(L_k) inside V(L) for every k
    intersection_in_radical: bool  # each L_k complete, their intersection in L^sat
    hilbert: Tuple[int, int]
    component_hilbert: Mapping[str, Tuple[int, int]]
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
    """The intersection of the component ideals, folded ψ1 partners first
    (the pairs `psi1_on_pluecker` swaps): adjacent pairs counted from the end
    of the catalog, an odd first one carried up, so level one is L1, L2∩L3,
    L4∩L5, L6a∩L6b (L1a∩L1b at γ² = 16).  Its generators are the reduced
    basis that `intersect` returns, which does not depend on the bracketing."""
    level = [comp.ideal for comp in C]
    while len(level) > 1:
        odd = len(level) % 2
        level = level[:odd] + [intersect(*level[k:k + 2]) for k in range(odd, len(level), 2)]
    return level[0]


def scheme_in_ideal(L: LineSchemeIdeal, ideal: Ideal) -> bool:
    """Whether every one of the 46 lies in `ideal`, that is reduces to zero
    modulo its reduced basis; then V(ideal) lies in V(L)."""
    gb = buchberger(ideal)
    return all(normal_form(p, gb).is_zero() for p in L.polys)


def verify_decomposition(L: LineSchemeIdeal, C: ComponentCatalog) -> DecompositionReport:
    """Both inclusions of the decomposition as schemes, L^sat = I for I the
    intersection of the component ideals L_k, plus the dimension and degree
    bookkeeping; every clause is reported separately.  L lies in each L_k.
    Each L_k has as many generators as its codimension, so it is unmixed,
    hence saturated, and so is I; and each generator f of I has f, or else
    every M_ij * NF(f), in L.  Then I lies in L^sat, which lies in I^sat = I
    (Cox, Little, O'Shea, Ideals, Varieties, and Algorithms, 4.4; Eisenbud,
    Commutative Algebra, ch. 18)."""
    if L.gamma != C.gamma:
        raise ValueError("line scheme and catalog built at different gamma")
    poly_in_components = all(scheme_in_ideal(L, comp.ideal) for comp in C)

    hd = hilbert_dimension_degree(L.ideal)
    comp_h = {c.name: hilbert_dimension_degree(c.ideal) for c in C}
    degrees_sum = sum(d for _, d in comp_h.values())

    vs, gb = L.ideal.varset, buchberger(L.ideal)
    ms = [Polynomial.variable(vs, n) for n in vs.names]
    remainders = (normal_form(f, gb) for f in components_intersection(C).generators)
    intersection_in_radical = (
        all(len(c.ideal.generators) == len(vs) - 1 - comp_h[c.name][0] for c in C)
        and all(r.is_zero() or all(normal_form(m * r, gb).is_zero() for m in ms)
                for r in remainders))
    return DecompositionReport(
        gamma=L.gamma,
        poly_in_components=poly_in_components,
        intersection_in_radical=intersection_in_radical,
        hilbert=hd,
        component_hilbert=comp_h,
        degrees_sum=degrees_sum,
    )


def jacobian_smoothness_check(component: Ideal) -> bool:
    """Whether V(component) in P5 is smooth, for a homogeneous ideal with
    as many generators as its codimension, a complete intersection; any
    other ideal raises ValueError.  Such an ideal is unmixed, so the
    Jacobian criterion decides: the scheme is singular exactly where the
    maximal minors of the full Jacobian vanish on it.  That locus is
    empty iff the quotient by the generators and the minors has finite
    dimension (Hartshorne, Algebraic Geometry, I.7 and II.8; Eisenbud,
    Commutative Algebra, ch. 16)."""
    vs = component.varset
    gens = list(component.generators)
    codim = len(vs) - 1 - hilbert_dimension_degree(component)[0]
    if len(gens) != codim:
        raise ValueError(f"{len(gens)} generators in codimension {codim}: "
                         "not a complete intersection")
    jac = PolyMatrix([[f.derivative(n) for n in vs.names] for f in gens])
    minors_ = [d for d in all_minors(jac, codim) if not d.is_zero()]
    return quotient_dimension(Ideal(gens + minors_)) is not None

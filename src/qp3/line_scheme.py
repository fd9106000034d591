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
(`_quartic_of_minor`).  With gamma None, g stays the last variable
(MG_VARS) and every step runs over Q(i)[g]: P and its lead are free of g.

That pipeline, `minors_modulo_P`, derives the 46 once, over Q(i)[g]: they
ship as integer rows in `data/components.json`, and `line_scheme_ideal`,
which every command calls, builds them from the rows at gamma
(`fixtures.table_polys`); so does `verify_decomposition` with the 14
generators of the components' intersection.  No command parses a table's
text.  Tests prove that the table is the pipeline's output and that it
specialises to the pipeline's output at gamma; the pipeline still builds
the "right" tensor order, which only the reference list needs.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .gaussian import GaussianRational, _Frozen, gr
from .multipoly import (Polynomial, VarSet, _wrap, parse_poly, print_poly,
                        substitute)
from .polylinalg import PolyMatrix, all_minors
from .groebner import (MEMO_SIZE, GroebnerBasis, Ideal, _hilbert_data,
                       _homogeneous_basis, buchberger, cached_under_limits,
                       hilbert_dimension_degree, normal_form,
                       quotient_dimension, reduces_to_zero)
from .quadratic_algebra import (M_VARS, UV_VARS, Z_VARS, QuadraticAlgebra,
                                m_hat, make_A, nonzero_gamma, with_g)
from .fixtures import load_fixtures, table_polys


PLUECKER_POLY_STRING = "M12*M34 - M13*M24 + M14*M23"


def pluecker_polynomial(varset: VarSet = M_VARS) -> Polynomial:
    return parse_poly(PLUECKER_POLY_STRING, varset)


def _pluecker_gb_M(varset: VarSet) -> GroebnerBasis:
    return buchberger(Ideal([pluecker_polynomial(varset)]))


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


def _pluecker_uv(vs: VarSet) -> List[List[Polynomial]]:
    """u and v of the module docstring on vs: each bracket of u, v is M34
    times its signed Pluecker coordinate modulo P."""
    return [[parse_poly(t, vs) for t in w] for w in (
        ("M34", "0", "-M14", "M13"), ("0", "M34", "-M24", "M23"))]


def _quartic_of_minor(f: Polynomial) -> Polynomial:
    """NF(f) modulo P divided by M34^4: the quartic that f is M34^4 times
    modulo P, on f's VarSet.  The division shifts the keys and monomials
    of the normal form's term list, which stays primitive.  Raises
    ValueError when M34^4 does not divide a term, that is when f is no
    such multiple."""
    vs = f.varset
    nf = normal_form(f, _pluecker_gb_M(vs))
    pk = nf._pk
    key_u, u = pk.pack(tuple(4 * e for e in vs.var_monomial("M34")))
    out = []
    for key, m, c in nf._list:
        if not pk.divides(u, m):
            raise ValueError("M34^4 does not divide the normal form modulo P")
        out.append((key - key_u, m - u, c))
    return _wrap(vs, pk, out, nf._scale)


# ---------------------------------------------------------------------------
# the 46-polynomial line scheme ideal
# ---------------------------------------------------------------------------


class LineSchemeIdeal(NamedTuple):
    gamma: Optional[GaussianRational]
    polys: Tuple[Polynomial, ...]          # P, then the 45 quartics (NF mod P)
    ideal: Ideal

    def to_json_dict(self) -> dict:
        return {
            "gamma": str(self.gamma),
            "pluecker_polynomial": print_poly(self.polys[0]),
            "polynomials": [print_poly(p) for p in self.polys],
        }


def minors_modulo_P(gamma: Optional[GaussianRational],
                    tensor_order: str = "left") -> LineSchemeIdeal:
    """The 46 polynomials in the M_ij cutting out the line scheme, built
    from the minors: each minor image normalized modulo the Pluecker
    quadric and divided by M34^4 (module docstring); with gamma None, on
    MG_VARS over Q(i)[g].  The derivation of `line_scheme_ideal`'s table,
    and the one source of the "right" tensor order's 46."""
    vs = with_g(M_VARS, gamma)
    big = _doubled_matrix(make_A(gamma), tensor_order, *_pluecker_uv(vs), vs)
    images = []
    for f in all_minors(big, 8):
        h = _quartic_of_minor(f)
        if h.is_zero():
            raise ValueError("a minor image vanished; pipeline bug")
        images.append(h)
    polys = (pluecker_polynomial(vs),) + tuple(images)
    return LineSchemeIdeal(gamma=gamma, polys=polys, ideal=Ideal(list(polys)))


def line_scheme_ideal(gamma: Optional[GaussianRational]) -> LineSchemeIdeal:
    """The 46 of `minors_modulo_P(gamma)`, P first, built from the rows of
    the table of the 46 over Q(i)[g] (`FixtureSet.line_scheme`) at
    g = gamma; with gamma None, on MG_VARS."""
    return _line_scheme_ideal(gamma)


# The table is `minors_modulo_P(None)`, which tests/test_line_scheme.py
# checks, and its rows at g = gamma are `minors_modulo_P(gamma)` at every
# gamma != 0, polynomial for polynomial:
# - the pivot minor of `_dual_forms` over Q(i)[g] is a nonzero constant (the
#   function raises otherwise), so `_PIVOTS` are the echelon pivots at every
#   gamma, and `nullspace` at gamma is the image of the forms over Q(i)[g];
# - a minor is a polynomial identity, so it commutes with g -> gamma;
# - P is free of g and its lead M14*M23 has coefficient 1, so the normal
#   form modulo P, and the division by M34^4, commute with g -> gamma term
#   by term.
# The tests compare the two, as polynomials and as printed text, at the 8
# gammas of tests/line_verify_digests.json, +-2 and +-4 among them, and as
# polynomials at 1/7 - 2/3*i and 2^40*i too.
@lru_cache(maxsize=MEMO_SIZE)
def _line_scheme_ideal(gamma: Optional[GaussianRational]) -> LineSchemeIdeal:
    polys = tuple(table_polys(load_fixtures().line_scheme, gamma))
    return LineSchemeIdeal(gamma=gamma, polys=polys, ideal=Ideal(list(polys)))


# The Hilbert numerator of R/L over (1 - t)^6 for the 46 over Q(i)(g),
# which tests/test_line_scheme.py computes from `line_scheme_ideal(None)`.
# It bounds each L(gamma)'s series from below: dim L(gamma)_d is the rank at
# g = gamma of a matrix over Q(i)[g], at most its rank over Q(i)(g), so
# HF(R/L(gamma)) >= HF(R/L) in every degree.  `buchberger` takes it as the
# numerator that certifies a basis with no S-pair.
LINE_SCHEME_NUMERATOR = (1, 0, -1, 0, -45, 154, -215, 156, -60, 10)

# The table of the intersection of the seven generic components
# (`FixtureSet.components_intersection`) holds 14 generators over Q(i)[g],
# which tests/test_line_scheme.py computes: the psi1-first fold of
# `parse_components(None)` (`_psi1_fold` in tests/oracles.py), each meet the
# t-free part of a basis under the order that puts the block (M_ij, t),
# degrevlex, above g.  Every element of each of the six bases is homogeneous
# in the M_ij, so it is t-free when its lead is, and has a leading
# coefficient c*g^k, c in Q(i) nonzero.  So each basis stays one at every
# gamma != 0 (Kalkbrener, On the stability of Groebner bases under
# specializations, JSC 1997), and at g = gamma the table generates the
# intersection of the seven components at gamma; at gamma^2 = 16 that of
# the eight too, L1a cap L1b being L1 (tested at +-4).

# ---------------------------------------------------------------------------
# the component catalog of the closed-point decomposition
# ---------------------------------------------------------------------------


# (degree, arithmetic genus, span P^k) of a smooth curve -> its kind
_KINDS = {(4, 1, 3): "spatial_elliptic", (3, 1, 2): "planar_elliptic",
          (2, 0, 2): "conic"}


@cached_under_limits(maxsize=MEMO_SIZE)
def curve_invariants(ideal: Ideal) -> Tuple[int, int, str]:
    """(dimension, degree, kind) of V(ideal) in P5.  With h the Hilbert
    numerator of its DEGREVLEX basis, a curve has arithmetic genus
    1 - h(1) + h'(1) (Hartshorne, Algebraic Geometry, I.7), and it spans
    P^(5 - k), k the number of linear leading monomials.  The kinds
    presume smoothness, which tests/test_line_scheme.py proves for every
    gamma.  Any other shape is a pipeline bug: ValueError."""
    G = _homogeneous_basis(ideal)
    dimension, degree, h = _hilbert_data(G)
    genus = 1 - degree + sum(k * c for k, c in enumerate(h))
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


class ComponentCatalog(_Frozen):
    __slots__ = ("gamma", "components")

    def __init__(self, gamma: GaussianRational, components: Tuple[Component, ...]):
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "components", components)

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


def scheme_in_ideal(L: LineSchemeIdeal, ideal: Ideal) -> bool:
    """Whether every one of the 46 lies in `ideal`, that is reduces to zero
    modulo its reduced basis; then V(ideal) lies in V(L)."""
    gb = buchberger(ideal)
    return all(reduces_to_zero(p, gb) for p in L.polys)


def verify_decomposition(gamma: GaussianRational) -> DecompositionReport:
    """Both inclusions of the decomposition as schemes, L^sat = I for L
    `line_scheme_ideal(gamma)` and I the intersection of the component
    ideals L_k of `component_catalog(gamma)`, plus the dimension and degree
    bookkeeping; every clause is reported separately.  L lies in each L_k
    when every element of G, the reduced basis of the 46, reduces to zero
    modulo the basis of L_k: G generates L, so this says what the 46 would
    say, with fewer terms to reduce.
    Each L_k has as many generators as its codimension, so it is unmixed,
    hence saturated, and so is I; and each generator f of I has f, or else
    every M_ij * NF(f), in L.  Then I lies in L^sat, which lies in I^sat = I
    (Cox, Little, O'Shea, Ideals, Varieties, and Algorithms, 4.4; Eisenbud,
    Commutative Algebra, ch. 18).  The basis of L is certified by
    `LINE_SCHEME_NUMERATOR`, and the generators of I are the table of the
    intersection (`FixtureSet.components_intersection`) at gamma."""
    L, C = line_scheme_ideal(gamma), component_catalog(gamma)
    gb = buchberger(L.ideal, LINE_SCHEME_NUMERATOR)
    poly_in_components = all(reduces_to_zero(g, comp_gb) for comp_gb in
                             (buchberger(c.ideal) for c in C) for g in gb)
    vs, hd = L.ideal.varset, _hilbert_data(gb)[:2]
    comp_h = {c.name: hilbert_dimension_degree(c.ideal) for c in C}
    degrees_sum = sum(d for _, d in comp_h.values())

    inter = table_polys(load_fixtures().components_intersection, C.gamma)
    ms = [Polynomial.variable(vs, n) for n in vs.names]
    remainders = (normal_form(f, gb) for f in inter)
    intersection_in_radical = (
        all(len(c.ideal.generators) == len(vs) - 1 - comp_h[c.name][0] for c in C)
        and all(r.is_zero() or all(reduces_to_zero(m * r, gb) for m in ms)
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

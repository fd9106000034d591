"""The point scheme of A(gamma): the fifteen minors, chart-by-chart point
counts with multiplicity, the triangular system rho1, rho2, rho3, the
automorphism sigma and the vanishing pairs in P3 x P3."""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .gaussian import GaussianRational, ZERO, _Frozen, gr
from .multipoly import DEGREVLEX, Polynomial, VarSet, parse_poly, substitute
from .polylinalg import PolyMatrix, all_minors, cross_minors, kernel_vector, nullspace
from .groebner import (MEMO_SIZE, GroebnerBasis, Ideal, buchberger, is_unit_mod,
                       normal_form, quotient_dimension, reduces_to_zero)
from .quadratic_algebra import (CHART_VARS, QuadraticAlgebra, X_VARS, bilinear_value,
                                make_A, nonzero_gamma, relation_matrix)


class NotOnSchemeError(ValueError):
    pass


class ProjectivePoint(_Frozen):
    """A point of P3 over Q(i), or of P(LENGTH - 1) in a subclass; equality
    up to a global nonzero scalar, and only between points of one class."""

    __slots__ = ("coords",)
    LENGTH = 4

    def __init__(self, coords: Sequence):
        coords = tuple(gr(c) for c in coords)
        if len(coords) != self.LENGTH:
            raise ValueError(f"{type(self).__name__} needs {self.LENGTH} coordinates")
        if all(c.is_zero() for c in coords):
            raise ValueError("projective point cannot be all zero")
        object.__setattr__(self, "coords", coords)

    def normalized(self) -> Tuple[GaussianRational, ...]:
        """First nonzero coordinate scaled to 1."""
        pivot = next(c for c in self.coords if not c.is_zero())
        inv = pivot.inverse()
        return tuple(c * inv for c in self.coords)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.normalized() == other.normalized()

    def __hash__(self):
        return hash(self.normalized())

    def __getitem__(self, k: int) -> GaussianRational:
        return self.coords[k]

    def __repr__(self):
        return "(" + ", ".join(str(c) for c in self.normalized()) + ")"


E1 = ProjectivePoint((1, 0, 0, 0))
E2 = ProjectivePoint((0, 1, 0, 0))
E3 = ProjectivePoint((0, 0, 1, 0))
E4 = ProjectivePoint((0, 0, 0, 1))
BASIS_POINTS = {"e1": E1, "e2": E2, "e3": E3, "e4": E4}


@lru_cache(maxsize=MEMO_SIZE)
def point_ideal(A: QuadraticAlgebra) -> Ideal:
    """Ideal of the 4x4 minors of the relation matrix: cuts out the point
    scheme inside P3.  Built once per algebra: the chart ideals, sigma and
    both certificates all start from it."""
    minors = all_minors(relation_matrix(A), 4)
    return Ideal(minors)


CHART_SPECS = (
    ("x1=1", {"x1": 1}, ("x2", "x3", "x4")),
    ("x1=0,x2=1", {"x1": 0, "x2": 1}, ("x3", "x4")),
    ("x1=x2=0,x3=1", {"x1": 0, "x2": 0, "x3": 1}, ("x4",)),
    ("x1=x2=x3=0,x4=1", {"x1": 0, "x2": 0, "x3": 0, "x4": 1}, ()),
)


@lru_cache(maxsize=MEMO_SIZE)
def chart_ideal(A: QuadraticAlgebra, spec_index: int) -> Ideal:
    """The point minors on one chart of CHART_SPECS.  Built once per
    algebra and chart: `count_points` counts the chart x1 = 1, and
    `verify_rho_derivation` certifies rho against it."""
    name, assign, rest = CHART_SPECS[spec_index]
    target = VarSet(rest)
    gens = []
    for m in point_ideal(A).generators:
        img = substitute(m, assign, target=target)
        if not img.is_zero():
            gens.append(img)
    return Ideal(gens, DEGREVLEX, varset=target)


# ---------------------------------------------------------------------------
# root multiplicities of a univariate polynomial
# ---------------------------------------------------------------------------


def root_multiplicities(f: Polynomial, name: str) -> Dict[int, int]:
    """{m: number of distinct roots of multiplicity m} of a nonzero f in
    the one variable `name`, over the algebraic closure of Q(i).

    On Q(i)[name], <f, f', ..., f^(k-1)> is generated by the product of
    (name - r)^(m - k + 1) over the roots r of multiplicity m >= k, so
    its quotient dimension d_k is the sum of max(m - k + 1, 0).  Hence
    d_k - d_(k+1) roots have multiplicity at least k, and
    d_k - 2 d_(k+1) + d_(k+2) exactly k.
    """
    others = [n for n in f.varset.names if n != name]
    if f.is_zero() or any(f.degree_in(n) for n in others):
        raise ValueError(f"need a nonzero polynomial in {name} alone")
    gens = [substitute(f, dict.fromkeys(others, 0), target=VarSet([name]))]
    dims = [quotient_dimension(Ideal(gens))]
    while dims[-1]:
        gens.append(gens[-1].derivative(name))
        dims.append(quotient_dimension(Ideal(gens)))
    dims.append(0)
    out = {k: dims[k - 1] - 2 * dims[k] + dims[k + 1]
           for k in range(1, len(dims) - 1)}
    return {k: c for k, c in out.items() if c}


# ---------------------------------------------------------------------------
# the triangular system rho1, rho2, rho3
# ---------------------------------------------------------------------------

RHO_STRINGS = (
    "x4^8 - 4*x4^4 + g^2",
    "x3^2 - i*x3*x4^2 - 1",
    "g*x2 - 2*i*x4^3 + x3*x4^5",
)


@lru_cache(maxsize=MEMO_SIZE)
def rho_system(gamma: GaussianRational):
    """The three polynomials cutting out Z_gamma on the chart x1 = 1;
    `verify_rho_derivation` certifies them against the minors.  Parsed
    once per gamma: the certificates, the orbits and the lines read them."""
    gamma = nonzero_gamma(gamma)
    return tuple(parse_poly(s, CHART_VARS, gamma=gamma) for s in RHO_STRINGS)


def zgamma_ideal(gamma: GaussianRational) -> Ideal:
    return Ideal(list(rho_system(gamma)))


def zgamma_gb(gamma: GaussianRational) -> GroebnerBasis:
    return buchberger(zgamma_ideal(gamma))


def verify_rho_derivation(gamma: GaussianRational) -> Dict[str, bool]:
    """rho generates J : x4^infinity, J the ideal of the chart x1 = 1, by
    three membership facts (Cox, Little & O'Shea, Ideals, Varieties, and
    Algorithms, 4.4):
    (i) each generator of J reduces to zero modulo rho's basis, so
        J lies in <rho>;
    (ii) x4 is a unit modulo <rho>, so J : x4^infinity lies in
        <rho> : x4^infinity = <rho>;
    (iii) each x4 * rho_k reduces to zero modulo J's basis, the one
        `quotient_dimension` caches, so each rho_k lies in J : x4^infinity.
    rho's lex leads x4^8, x3^2 and x2 are pairwise coprime, so rho is a lex
    basis (Buchberger's first criterion), and monic it is the reduced lex
    basis of J : x4^infinity."""
    chart, x4 = chart_ideal(make_A(gamma), 0), symbolic_point()[3]
    gb, J = zgamma_gb(gamma), buchberger(chart)
    return {
        "minors_vanish_on_Z": all(reduces_to_zero(m, gb) for m in chart.generators),
        "saturated_lex_basis_is_rho": is_unit_mod(x4, zgamma_ideal(gamma)),
        "x4_rho_vanish_on_chart": all(reduces_to_zero(x4 * r, J)
                                      for r in rho_system(gamma)),
    }


# ---------------------------------------------------------------------------
# sigma and the orbit structure
# ---------------------------------------------------------------------------

# the rows of R whose signed 3x3 minors, i*(x1*x3^2, i*x1^2*x2, x1^2*x3,
# -i*x3^2*x4), are sigma's forms; the first is a unit on Z_gamma
SIGMA_ROWS = (0, 1, 3)


def _kernel(A: QuadraticAlgebra, p: ProjectivePoint) -> List[List[GaussianRational]]:
    """The canonical nullspace basis of R(p), the relation matrix at x = p."""
    return nullspace([[sum((c * p[m.index(1)] for m, c in e.terms.items()), ZERO)
                       for e in row] for row in relation_matrix(A).entries])


def sigma(p: ProjectivePoint, A: QuadraticAlgebra) -> ProjectivePoint:
    """The automorphism of the point scheme on closed points: p lies on it
    iff R(p) has rank below 4, and sigma(p) is the kernel of R(p)."""
    kernel = _kernel(A, p)
    if not kernel:
        raise NotOnSchemeError("point does not lie on the point scheme")
    if len(kernel) > 1:
        raise ValueError("R(p) has rank below 3: sigma(p) is not one point")
    return ProjectivePoint(kernel[0])


@lru_cache(maxsize=MEMO_SIZE)
def sigma_forms(A: QuadraticAlgebra) -> Tuple[Polynomial, ...]:
    """sigma as cubic forms on X_VARS: the signed 3x3 minors of the rows
    SIGMA_ROWS of R, a vector that those rows annihilate."""
    R = relation_matrix(A)
    return tuple(kernel_vector(PolyMatrix([R.row(r) for r in SIGMA_ROWS])))


def symbolic_point() -> Tuple[Polynomial, ...]:
    """The generic chart point (1, x2, x3, x4) as chart polynomials."""
    return (Polynomial.constant(CHART_VARS, 1),
            *(Polynomial.variable(CHART_VARS, n) for n in CHART_VARS.names))


def sigma_symbolic(coords: Sequence[Polynomial], A: QuadraticAlgebra):
    """Apply sigma to a point with coordinates modulo <rho1, rho2, rho3>:
    each form of `sigma_forms` at `coords`, reduced modulo rho.  The image
    is a point up to a unit factor; `cross_minors` compares two."""
    gb = zgamma_gb(A.gamma)
    at = dict(zip(X_VARS.names, coords))
    return tuple(normal_form(substitute(f, at, CHART_VARS), gb) for f in sigma_forms(A))


def sigma_orbit_certificates(A: QuadraticAlgebra) -> Dict[str, bool]:
    """Symbolic proofs that sigma keeps Z_gamma in the chart x1 = 1 and in
    the point scheme, has order four and no fixed points of sigma or sigma^2.
    Images are compared with p by cross-minors: none vanishes on Z_gamma,
    where the first form, i*x1*x3^2, is a unit and which sigma keeps."""
    gb, rho = zgamma_gb(A.gamma), zgamma_ideal(A.gamma)
    p = symbolic_point()
    s1 = sigma_symbolic(p, A)
    s2 = sigma_symbolic(s1, A)
    s4 = sigma_symbolic(sigma_symbolic(s2, A), A)
    checks = {"x3_is_unit_on_Z": is_unit_mod(s1[0], rho),
              "sigma4_is_identity": all(reduces_to_zero(m, gb)
                                        for m in cross_minors(s4, p))}
    for name, s in (("sigma2_fixed_point_free", s2), ("sigma_fixed_point_free", s1)):
        fixed = Ideal([*rho.generators, *cross_minors(s, p)])
        checks[name] = buchberger(fixed).contains_one()
    # sigma(Z) lies in the point scheme: each minor pulled back through sigma
    at = dict(zip(X_VARS.names, s1))
    checks["sigma_preserves_point_ideal"] = all(
        reduces_to_zero(substitute(m, at, target=CHART_VARS), gb)
        for m in point_ideal(A).generators)
    return checks


# ---------------------------------------------------------------------------
# the full report
# ---------------------------------------------------------------------------


class PointSchemeReport(NamedTuple):
    gamma: GaussianRational
    chart_counts: Mapping[str, int]
    total_with_multiplicity: int
    distinct_count: int
    multiplicity_profile: Mapping[int, int]
    sigma_orbits: Tuple[int, ...]
    rho1_squarefree: bool
    checks: Mapping[str, bool]

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def to_json_dict(self) -> dict:
        return {
            "gamma": str(self.gamma),
            "chart_counts": dict(self.chart_counts),
            "total_with_multiplicity": self.total_with_multiplicity,
            "distinct_count": self.distinct_count,
            "multiplicity_profile": {str(k): v
                                     for k, v in sorted(self.multiplicity_profile.items())},
            "sigma_orbits": list(self.sigma_orbits),
            "rho1_squarefree": self.rho1_squarefree,
            "checks": {k: bool(v) for k, v in sorted(self.checks.items())},
            "verified": self.ok,
        }

    def to_text(self) -> str:
        lines = [f"point scheme of A({self.gamma})"]
        for name, d in self.chart_counts.items():
            lines.append(f"  chart {name}: quotient dimension {d}")
        lines.append(f"  points with multiplicity: {self.total_with_multiplicity}")
        lines.append(f"  distinct points: {self.distinct_count}")
        prof = ", ".join(f"{c} of multiplicity {m}"
                         for m, c in sorted(self.multiplicity_profile.items()))
        lines.append(f"  multiplicity profile: {prof}")
        lines.append(f"  rho1 squarefree: {'yes' if self.rho1_squarefree else 'no'}")
        lines.append(f"  sigma orbit sizes: {list(self.sigma_orbits)}")
        for k, v in sorted(self.checks.items()):
            lines.append(f"  check {k}: {'pass' if v else 'FAIL'}")
        lines.append(f"  verified: {'yes' if self.ok else 'NO'}")
        return "\n".join(lines)


def count_points(A: QuadraticAlgebra) -> PointSchemeReport:
    """Chart-by-chart counting of the point scheme with multiplicity,
    distinct-point count via the triangular system, and sigma orbits."""
    gamma = A.gamma
    checks: Dict[str, bool] = {}

    chart_counts: Dict[str, int] = {}
    ideals = []
    for k, (name, _, rest) in enumerate(CHART_SPECS):
        I = chart_ideal(A, k)
        ideals.append(I)
        chart_counts[name] = quotient_dimension(I)
    total = sum(chart_counts.values())

    # e1..e4 are the slices x4 = 0 of the chart x1 = 1 and the three charts
    # x1 = 0: each is its ring's origin, once.  Quotient dimension 1 makes
    # the quotient the field Q(i), so I is its own radical and every
    # variable lies in I
    slices = (Ideal([*ideals[0].generators, symbolic_point()[3]]), *ideals[1:])
    for name, I in zip(("x4_zero_slice_is_e1", "chart_x2_is_e2", "chart_x3_is_e3",
                        "chart_x4_is_e4"), slices):
        G = buchberger(I)
        checks[name] = quotient_dimension(I) == 1 and all(
            reduces_to_zero(Polynomial.variable(I.varset, n), G) for n in I.varset.names)

    checks.update({f"rho_{k}": v for k, v in verify_rho_derivation(gamma).items()})

    rho1 = rho_system(gamma)[0]
    mults = root_multiplicities(rho1, "x4")
    rho1_squarefree = set(mults) == {1}
    checks["rho1_squarefree_iff_gamma2_ne_4"] = (
        rho1_squarefree == (gamma * gamma != gr(4)))
    # rho2 stays separable at every root of rho1: its x3-discriminant
    # 4 - x4^4 shares no root with rho1
    disc = parse_poly("4 - x4^4", CHART_VARS)
    checks["rho2_separable_on_rho1_roots"] = is_unit_mod(disc, Ideal([rho1]))

    # each root of rho1 carries the two roots of rho2, and rho3 fixes x2
    profile = {mult: 2 * c for mult, c in mults.items()}
    distinct_z = sum(profile.values())
    profile[1] = profile.get(1, 0) + 4  # e1..e4, multiplicity one each
    distinct = distinct_z + 4
    checks["multiplicities_sum_to_20"] = (
        sum(m * c for m, c in profile.items()) == 20)
    checks["chart_counts_sum_to_20"] = total == 20

    checks.update({f"sigma_{k}": v for k, v in sigma_orbit_certificates(A).items()})
    basis_cycles = _basis_cycles(A)
    checks["sigma_basis_swaps"] = basis_cycles == (2, 2)

    return PointSchemeReport(
        gamma=gamma,
        chart_counts=chart_counts,
        total_with_multiplicity=total,
        distinct_count=distinct,
        multiplicity_profile=profile,
        sigma_orbits=(basis_cycles or ()) + (4,) * (distinct_z // 4),
        rho1_squarefree=rho1_squarefree,
        checks=checks,
    )


def _basis_cycles(A: QuadraticAlgebra) -> Optional[Tuple[int, ...]]:
    """The cycle lengths of sigma on e1..e4, sorted; None unless each
    R(e_k) has rank 3 and sigma permutes e1..e4."""
    units = [list(e.coords) for e in BASIS_POINTS.values()]
    kernels = [_kernel(A, e) for e in BASIS_POINTS.values()]
    perm = [units.index(k[0]) if len(k) == 1 and k[0] in units else None for k in kernels]
    if set(perm) != set(range(4)):
        return None
    # the cycle through k: k and its first three images
    cycles = {frozenset((k, perm[k], perm[perm[k]], perm[perm[perm[k]]])) for k in range(4)}
    return tuple(sorted(map(len, cycles)))


def verify_vanishing_pairs(A: QuadraticAlgebra) -> bool:
    """The relations vanish exactly on the pairs (p, sigma(p)): R(p) has
    rank 3 at e1..e4 and on Z_gamma, where sigma's first form, the minor
    i*x3^2, is a unit, and there the six vanish on (p, sigma(p)) modulo
    rho.  They are bilinear, so sigma(p) up to a unit factor serves."""
    if any(len(_kernel(A, e)) != 1 for e in BASIS_POINTS.values()):
        return False
    p, gb = symbolic_point(), zgamma_gb(A.gamma)
    q = sigma_symbolic(p, A)
    return is_unit_mod(q[0], zgamma_ideal(A.gamma)) and all(
        reduces_to_zero(bilinear_value(f, p, q), gb) for f in A.relations)

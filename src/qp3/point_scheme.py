"""The point scheme of A(gamma): the fifteen minors, chart-by-chart point
counts with multiplicity, the triangular system rho1, rho2, rho3, the
automorphism sigma and the vanishing pairs in P3 x P3."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from .gaussian import GaussianRational, ONE, ZERO, gr
from .multipoly import (DEGREVLEX, MonomialOrder, Polynomial, VarSet,
                        parse_poly, substitute)
from .polylinalg import all_minors, poly_exact_div
from .groebner import (GroebnerBasis, Ideal, buchberger, invert_mod,
                       is_unit_mod, normal_form, quotient_dimension,
                       radical_member, saturate)
from .quadratic_algebra import (CHART_VARS, QuadraticAlgebra, X_VARS,
                                ZeroGammaError, make_A, relation_matrix,
                                tensor_bilinear)


class UndefinedAtPointError(ValueError):
    pass


class NotOnSchemeError(ValueError):
    pass


class ProjectivePoint:
    """A point of P3 over Q(i); equality up to a global nonzero scalar."""

    __slots__ = ("coords",)

    def __init__(self, coords: Sequence):
        coords = tuple(c if isinstance(c, GaussianRational) else gr(c)
                       for c in coords)
        if len(coords) != 4:
            raise ValueError("a point of P3 needs four coordinates")
        if all(c.is_zero() for c in coords):
            raise ValueError("projective point cannot be all zero")
        self.coords = coords

    def normalized(self) -> Tuple[GaussianRational, ...]:
        """First nonzero coordinate scaled to 1."""
        pivot = next(c for c in self.coords if not c.is_zero())
        inv = pivot.inverse()
        return tuple(c * inv for c in self.coords)

    def __eq__(self, other):
        if not isinstance(other, ProjectivePoint):
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


def point_ideal(A: QuadraticAlgebra) -> Ideal:
    """Ideal of the 4x4 minors of the relation matrix: cuts out the point
    scheme inside P3."""
    minors = all_minors(relation_matrix(A), 4)
    return Ideal(minors)


CHART_SPECS = (
    ("x1=1", {"x1": 1}, ("x2", "x3", "x4")),
    ("x1=0,x2=1", {"x1": 0, "x2": 1}, ("x3", "x4")),
    ("x1=x2=0,x3=1", {"x1": 0, "x2": 0, "x3": 1}, ("x4",)),
    ("x1=x2=x3=0,x4=1", {"x1": 0, "x2": 0, "x3": 0, "x4": 1}, ()),
)


def chart_ideal(A: QuadraticAlgebra, spec_index: int) -> Ideal:
    name, assign, rest = CHART_SPECS[spec_index]
    target = VarSet(rest)
    gens = []
    for m in point_ideal(A).generators:
        img = substitute(
            m, {v: Polynomial.constant(target, c) for v, c in assign.items()},
            target=target)
        if not img.is_zero():
            gens.append(img)
    return Ideal(gens, DEGREVLEX, varset=target)


# ---------------------------------------------------------------------------
# univariate helpers over Q(i)
# ---------------------------------------------------------------------------


def _only_var(f: Polynomial) -> int:
    active = {k for m in f.terms for k, e in enumerate(m) if e}
    if len(active) > 1:
        raise ValueError("polynomial is not univariate")
    return next(iter(active)) if active else 0


def uni_divmod(f: Polynomial, g: Polynomial) -> Tuple[Polynomial, Polynomial]:
    var_idx = _only_var(g if g.degree() > 0 else f)
    name = f.varset.names[var_idx]
    q = Polynomial.zero(f.varset, f.order)
    r = f
    dg = g.degree_in(name)
    lc = g.coefficient(tuple(dg if k == var_idx else 0
                             for k in range(len(f.varset))))
    lc_inv = lc.inverse()
    while not r.is_zero() and r.degree_in(name) >= dg:
        dr = r.degree_in(name)
        cr = r.coefficient(tuple(dr if k == var_idx else 0
                                 for k in range(len(f.varset))))
        shift = Polynomial(f.varset,
                           {tuple(dr - dg if k == var_idx else 0
                                  for k in range(len(f.varset))): cr * lc_inv},
                           f.order)
        q = q + shift
        r = r - shift * g
    return q, r


def uni_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    a, b = f, g
    while not b.is_zero():
        a, b = b, uni_divmod(a, b)[1]
    return a.monic() if not a.is_zero() else a


def squarefree_decomposition(f: Polynomial, name: str) -> List[Tuple[int, Polynomial]]:
    """Yun's algorithm (characteristic zero): returns [(k, p_k)] with the
    p_k squarefree, pairwise coprime, and f = lc * prod p_k^k."""
    out: List[Tuple[int, Polynomial]] = []
    f = f.monic()
    df = f.derivative(name)
    a = uni_gcd(f, df)
    b = poly_exact_div(f, a)
    c = poly_exact_div(df, a)
    d = c - b.derivative(name)
    k = 1
    while b.degree() > 0:
        p = uni_gcd(b, d)
        if p.degree() > 0:
            out.append((k, p))
        b = poly_exact_div(b, p)
        c = poly_exact_div(d, p)
        d = c - b.derivative(name)
        k += 1
    return out


# ---------------------------------------------------------------------------
# the triangular system rho1, rho2, rho3
# ---------------------------------------------------------------------------

RHO_STRINGS = (
    "x4^8 - 4*x4^4 + g^2",
    "x3^2 - i*x3*x4^2 - 1",
    "g*x2 - 2*i*x4^3 + x3*x4^5",
)


def rho_system(gamma: GaussianRational, verify: bool = False):
    """The three polynomials cutting out Z_gamma on the chart x1 = 1.

    With verify=True the derivation from the minors is certified as well:
    saturating the chart ideal at x4 and taking a lex basis must reproduce
    exactly the monic triangular system, every dehomogenized minor must
    vanish on Z_gamma, and x4 * rho_k must vanish on the chart variety.
    """
    if not isinstance(gamma, GaussianRational):
        gamma = gr(gamma)
    if gamma.is_zero():
        raise ZeroGammaError("gamma must be nonzero")
    rhos = tuple(parse_poly(s, CHART_VARS, gamma=gamma) for s in RHO_STRINGS)
    if verify and not verify_rho_derivation(gamma)["all"]:
        raise AssertionError("rho system derivation failed verification")
    return rhos


def zgamma_ideal(gamma: GaussianRational) -> Ideal:
    return Ideal(list(rho_system(gamma)))


@lru_cache(maxsize=None)
def zgamma_gb(gamma: GaussianRational) -> GroebnerBasis:
    return buchberger(zgamma_ideal(gamma))


@lru_cache(maxsize=None)
def verify_rho_derivation(gamma: GaussianRational) -> Dict[str, bool]:
    rho1, rho2, rho3 = rho_system(gamma)
    A = make_A(gamma)
    chart = chart_ideal(A, 0)
    x4 = Polynomial.variable(CHART_VARS, "x4")
    sat = saturate(chart, x4)
    lex = MonomialOrder.lex()
    lex_gb = buchberger(sat.with_order(lex))
    triangular = {g.with_order(lex).monic() for g in (rho1, rho2, rho3)}
    checks: Dict[str, bool] = {}
    checks["saturated_lex_basis_is_rho"] = set(lex_gb.basis) == triangular
    rho = zgamma_ideal(gamma)
    checks["minors_vanish_on_Z"] = all(radical_member(m, rho)
                                       for m in chart.generators)
    checks["x4_rho_vanish_on_chart"] = all(radical_member(x4 * r, chart)
                                           for r in (rho1, rho2, rho3))
    checks["all"] = all(checks.values())
    return checks


# ---------------------------------------------------------------------------
# sigma and the orbit structure
# ---------------------------------------------------------------------------


def sigma(p: ProjectivePoint, gamma: GaussianRational,
          check_on_scheme: bool = True) -> ProjectivePoint:
    """The automorphism of the point scheme on closed points."""
    if not isinstance(gamma, GaussianRational):
        gamma = gr(gamma)
    if gamma.is_zero():
        raise ZeroGammaError("gamma must be nonzero")
    if check_on_scheme:
        A = make_A(gamma)
        vals = {n: None for n in X_VARS.names}
        for m in point_ideal(A).generators:
            acc = ZERO
            for mono, c in m.terms.items():
                term = c
                for coord, e in zip(p.coords, mono):
                    term = term * coord ** e
                acc = acc + term
            if not acc.is_zero():
                raise NotOnSchemeError("point does not lie on the point scheme")
    swaps = {E1: E2, E2: E1, E3: E4, E4: E3}
    for src, dst in swaps.items():
        if p == src:
            return dst
    c = p.normalized()
    if c[0].is_zero():
        raise UndefinedAtPointError("sigma formula needs the x1 != 0 chart")
    a2, a3, a4 = c[1], c[2], c[3]
    if a3.is_zero():
        raise UndefinedAtPointError("sigma is undefined where x3 = 0 off the basis points")
    i = gr(0, 1)
    inv3 = a3.inverse()
    return ProjectivePoint((ONE, i * a2 * inv3 * inv3, inv3, -i * a4))


def symbolic_point() -> Tuple[Polynomial, ...]:
    """The generic chart point (1, x2, x3, x4) as chart polynomials."""
    one = Polynomial.constant(CHART_VARS, 1)
    return (one,
            Polynomial.variable(CHART_VARS, "x2"),
            Polynomial.variable(CHART_VARS, "x3"),
            Polynomial.variable(CHART_VARS, "x4"))


def sigma_symbolic(coords: Sequence[Polynomial], gamma: GaussianRational):
    """Apply sigma to residue classes modulo <rho1, rho2, rho3>."""
    gb = zgamma_gb(gamma)
    one, a2, a3, a4 = (normal_form(c, gb) for c in coords)
    if not (one - Polynomial.constant(CHART_VARS, 1)).is_zero():
        raise UndefinedAtPointError("first coordinate must reduce to 1")
    inv3 = invert_mod(a3, gb)
    i = gr(0, 1)
    return (one,
            normal_form(a2 * inv3 * inv3 * i, gb),
            normal_form(inv3, gb),
            normal_form(a4 * (-i), gb))


@lru_cache(maxsize=None)
def sigma_orbit_certificates(gamma: GaussianRational) -> Dict[str, bool]:
    """Symbolic proofs about sigma on Z_gamma: order four, no fixed points
    of sigma or sigma^2, and sigma maps Z_gamma into the point scheme."""
    gb = zgamma_gb(gamma)
    rho = zgamma_ideal(gamma)
    p = symbolic_point()
    s1 = sigma_symbolic(p, gamma)
    s2 = sigma_symbolic(s1, gamma)
    s3 = sigma_symbolic(s2, gamma)
    s4 = sigma_symbolic(s3, gamma)
    checks: Dict[str, bool] = {}
    checks["sigma4_is_identity"] = all(
        normal_form(a - b, gb).is_zero() for a, b in zip(s4, p))
    fix2 = Ideal(list(rho.generators)
                 + [a - b for a, b in zip(s2, p) if not (a - b).is_zero()])
    checks["sigma2_fixed_point_free"] = buchberger(fix2).contains_one()
    fix1_gens = [a - b for a, b in zip(s1, p) if not (a - b).is_zero()]
    fix1 = Ideal(list(rho.generators) + fix1_gens)
    checks["sigma_fixed_point_free"] = buchberger(fix1).contains_one()
    # sigma(Z) stays inside the point scheme: pull every chart minor back
    # through the projective form (x3^2, i*x2, x3, -i*x4*x3^2)
    A = make_A(gamma)
    x2 = Polynomial.variable(CHART_VARS, "x2")
    x3 = Polynomial.variable(CHART_VARS, "x3")
    x4 = Polynomial.variable(CHART_VARS, "x4")
    i = gr(0, 1)
    images = {"x1": x3 * x3, "x2": i * x2, "x3": x3, "x4": -i * x4 * x3 * x3}
    chart = chart_ideal(A, 0)
    ok = True
    for m in point_ideal(A).generators:
        pulled = substitute(m, images, target=CHART_VARS)
        if not radical_member(pulled, chart):
            ok = False
            break
    checks["sigma_preserves_point_ideal"] = ok
    checks["x3_is_unit_on_Z"] = is_unit_mod(x3, rho)
    checks["all"] = all(checks.values())
    return checks


# ---------------------------------------------------------------------------
# the full report
# ---------------------------------------------------------------------------


@dataclass
class PointSchemeReport:
    gamma: GaussianRational
    chart_counts: Dict[str, int]
    total_with_multiplicity: int
    distinct_count: int
    multiplicity_profile: Dict[int, int]
    sigma_orbits: Tuple[int, ...]
    rho1_squarefree: bool
    checks: Dict[str, bool]

    @property
    def ok(self) -> bool:
        return (self.total_with_multiplicity == 20
                and sum(m * c for m, c in self.multiplicity_profile.items()) == 20
                and all(self.checks.values()))

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


def count_points(A: QuadraticAlgebra, verify_sigma: bool = True) -> PointSchemeReport:
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

    # the three sub-charts with x1 = 0 hold exactly e2, e3, e4
    I2 = ideals[1]
    checks["chart_x2_is_e2"] = (
        chart_counts[CHART_SPECS[1][0]] == 1
        and radical_member(Polynomial.variable(I2.varset, "x3"), I2)
        and radical_member(Polynomial.variable(I2.varset, "x4"), I2))
    I3 = ideals[2]
    checks["chart_x3_is_e3"] = (
        chart_counts[CHART_SPECS[2][0]] == 1
        and radical_member(Polynomial.variable(I3.varset, "x4"), I3))
    checks["chart_x4_is_e4"] = ideals[3].is_zero()
    # on the x1 = 1 chart, x4 = 0 pins down e1
    I1 = ideals[0]
    e1_ideal = Ideal(list(I1.generators) + [Polynomial.variable(CHART_VARS, "x4")])
    checks["x4_zero_slice_is_e1"] = (
        quotient_dimension(e1_ideal) == 1
        and radical_member(Polynomial.variable(CHART_VARS, "x2"), e1_ideal)
        and radical_member(Polynomial.variable(CHART_VARS, "x3"), e1_ideal))

    checks.update({f"rho_{k}": v
                   for k, v in verify_rho_derivation(gamma).items() if k != "all"})

    rho1, rho2, rho3 = rho_system(gamma)
    decomp = squarefree_decomposition(rho1, "x4")
    rho1_squarefree = len(decomp) == 1 and decomp[0][0] == 1
    checks["rho1_squarefree_iff_gamma2_ne_4"] = (
        rho1_squarefree == (gamma * gamma != gr(4)))
    # rho2 stays separable at every root of rho1: its x3-discriminant
    # 4 - x4^4 shares no root with rho1
    disc = parse_poly("4 - x4^4", CHART_VARS)
    checks["rho2_separable_on_rho1_roots"] = uni_gcd(rho1, disc).degree() == 0

    distinct_z = 2 * sum(p.degree() for _, p in decomp)
    profile: Dict[int, int] = {}
    for mult, p in decomp:
        profile[mult] = profile.get(mult, 0) + 2 * p.degree()
    profile[1] = profile.get(1, 0) + 4  # e1..e4, multiplicity one each
    distinct = distinct_z + 4
    checks["multiplicities_sum_to_20"] = (
        sum(m * c for m, c in profile.items()) == 20)
    checks["chart_counts_sum_to_20"] = total == 20

    if verify_sigma:
        cert = sigma_orbit_certificates(gamma)
        checks.update({f"sigma_{k}": v for k, v in cert.items() if k != "all"})
        checks["sigma_basis_swaps"] = (
            sigma(E1, gamma) == E2 and sigma(E2, gamma) == E1
            and sigma(E3, gamma) == E4 and sigma(E4, gamma) == E3)
        orbits = (2, 2) + (4,) * (distinct_z // 4)
    else:
        orbits = ()

    return PointSchemeReport(
        gamma=gamma,
        chart_counts=chart_counts,
        total_with_multiplicity=total,
        distinct_count=distinct,
        multiplicity_profile=profile,
        sigma_orbits=orbits,
        rho1_squarefree=rho1_squarefree,
        checks=checks,
    )


def verify_vanishing_pairs(A: QuadraticAlgebra) -> bool:
    """The relations vanish exactly on the pairs (p, sigma(p)): the four
    basis pairs directly, the Z_gamma pairs symbolically mod the rho ideal."""
    pairs = ((E1, E2), (E2, E1), (E3, E4), (E4, E3))
    for p, q in pairs:
        for t in A.relations:
            if not tensor_bilinear(t, p.coords, q.coords).is_zero():
                return False
    gb = zgamma_gb(A.gamma)
    p_sym = symbolic_point()
    q_sym = sigma_symbolic(p_sym, A.gamma)
    for t in A.relations:
        val = tensor_bilinear(t, p_sym, q_sym)
        if not normal_form(val, gb).is_zero():
            return False
    return True

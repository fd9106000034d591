"""Lines in P3 via Pluecker coordinates: incidence, the component line
families with their surface containments and rulings, and the symbolic
verification that six distinct lines of the line scheme pass through every
generic point of the point scheme."""

from __future__ import annotations

from itertools import combinations, product
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from .gaussian import GaussianRational, gr
from .multipoly import MonomialOrder, Polynomial, VarSet, print_poly, substitute
from .groebner import (GroebnerBasis, Ideal, buchberger,
                       hilbert_dimension_degree, is_unit_mod,
                       quotient_dimension, reduces_to_zero)
from .quadratic_algebra import CHART_VARS, M_VARS, X_VARS
from .polylinalg import cross_minors
from .point_scheme import (BASIS_POINTS, ProjectivePoint, symbolic_point,
                           zgamma_ideal)
from .line_scheme import (Component, component_catalog, line_scheme_ideal,
                          scheme_in_ideal)

class DependentPointsError(ValueError):
    pass


class ZeroParameterError(ValueError):
    pass


class PluckerLine(ProjectivePoint):
    """A line of P3 as a point of P5: Pluecker coordinates (M12, M13, M14,
    M23, M24, M34) on the Pluecker quadric."""

    __slots__ = ()
    LENGTH = 6

    def __init__(self, coords: Sequence):
        super().__init__(coords)
        m12, m13, m14, m23, m24, m34 = self.coords
        if not (m12 * m34 - m13 * m24 + m14 * m23).is_zero():
            raise ValueError("coordinates do not satisfy the Pluecker identity")

    def __repr__(self):
        return "PluckerLine" + super().__repr__()


def pluecker_join(a: Sequence, b: Sequence) -> List:
    """M_ij = a_i b_j - a_j b_i, for exact or float coordinates alike."""
    return list(cross_minors(a, b))


def line_from_points(a: ProjectivePoint, b: ProjectivePoint) -> PluckerLine:
    """The join of two linearly independent points."""
    coords = pluecker_join(a.coords, b.coords)
    if all(c.is_zero() for c in coords):
        raise DependentPointsError("points are projectively equal")
    return PluckerLine(coords)


def dual_coordinates(m: Sequence) -> Tuple:
    """Hodge-dual coordinates (M34, -M24, M23, M14, -M13, M12); a point p
    lies on the line iff the dual antisymmetric matrix kills p."""
    m12, m13, m14, m23, m24, m34 = m
    return (m34, -m24, m23, m14, -m13, m12)


def incidence_contractions(m: Sequence, p: Sequence) -> List:
    """The four contractions of the dual matrix with p; all zero iff p is
    on the line.  Works for scalars and for polynomial entries alike."""
    d12, d13, d14, d23, d24, d34 = dual_coordinates(m)
    return [
        d12 * p[1] + d13 * p[2] + d14 * p[3],
        -(d12 * p[0]) + d23 * p[2] + d24 * p[3],
        -(d13 * p[0]) - d23 * p[1] + d34 * p[3],
        -(d14 * p[0]) - d24 * p[1] - d34 * p[2],
    ]


def point_on_line(p: ProjectivePoint, l: PluckerLine) -> bool:
    return all(gr(c).is_zero()
               for c in incidence_contractions(l.coords, p.coords))


def incidence_ideal_forms(p: ProjectivePoint) -> List[Polynomial]:
    """Linear forms in the M_ij vanishing exactly on lines through p."""
    coord_polys = [Polynomial.variable(M_VARS, n) for n in M_VARS.names]
    consts = [Polynomial.constant(M_VARS, c) for c in p.coords]
    return [f for f in incidence_contractions(coord_polys, consts)
            if not f.is_zero()]


def evaluate_in_M(f: Polynomial, coords: Sequence[Polynomial],
                  target: VarSet) -> Polynomial:
    """Substitute polynomial Pluecker coordinates into a polynomial on the
    M variables."""
    return substitute(f, dict(zip(M_VARS.names, coords)), target=target)


# ---------------------------------------------------------------------------
# line families of the components and the surfaces they sweep
# ---------------------------------------------------------------------------


def generic_line_points(x1, x2, x3, x4, i) -> Dict[str, Tuple[Tuple, Tuple]]:
    """Each component's line through the point (x1:x2:x3:x4) of the point
    scheme, as two points it joins; i is a square root of -1 of the
    coordinates' kind (gr(0, 1) for polynomials, 1j for floats).  The
    split conics L1a and L1b of gamma^2 = 16 are met on the line of L1."""
    l1 = ((x1, 0, x3, 0), (0, x2, 0, x4))
    return {
        "L1": l1, "L1a": l1, "L1b": l1,
        "L2": ((0, 1, 0, 0), (x1, 0, x3, x4)),
        "L3": ((x1, x2, x3, 0), (0, 0, 0, 1)),
        "L4": ((x1, x2, 0, x4), (0, 0, 1, 0)),
        "L5": ((1, 0, 0, 0), (0, x2, x3, x4)),
        "L6a": ((x1, 0, 0, x4), (0, i * x4, x1, 0)),
        "L6b": ((x1, 0, 0, x4), (0, -i * x4, x1, 0)),
    }


def _on(varset: VarSet, coords: Sequence) -> Tuple[Polynomial, ...]:
    """The entries as polynomials on varset, scalars as constants."""
    return tuple(c if isinstance(c, Polynomial) else Polynomial.constant(varset, c)
                 for c in coords)


class LineFamily(NamedTuple):
    """A parametrized 2x4 matrix of row polynomials plus the parameter
    constraints cutting out the family."""

    name: str
    params: VarSet
    row1: Tuple[Polynomial, ...]
    row2: Tuple[Polynomial, ...]
    constraints: Tuple[Polynomial, ...]


def line_family(name: str, gamma: GaussianRational) -> LineFamily:
    """The lines of the component `name`: the join of its two points in
    `generic_line_points` over x1..x4, cut out by the catalog's generators
    pulled back to the join, those that do not vanish identically."""
    a, b = generic_line_points(
        *(Polynomial.variable(X_VARS, n) for n in X_VARS.names), gr(0, 1))[name]
    row1, row2 = _on(X_VARS, a), _on(X_VARS, b)
    join = pluecker_join(row1, row2)
    pulled = (evaluate_in_M(g, join, X_VARS)
              for g in component_catalog(gamma).get(name).ideal.generators)
    return LineFamily(name, X_VARS, row1, row2,
                      tuple(c for c in pulled if not c.is_zero()))


def surface_containment(family: LineFamily, surface: Polynomial) -> bool:
    """True iff every point of every line of the family lies on the
    surface: the substituted polynomial vanishes modulo the family's
    constraints, identically in the line parameters."""
    big = family.params.extend(["s_", "t_"])
    s = Polynomial.variable(big, "s_")
    t = Polynomial.variable(big, "t_")

    def lift(p: Polynomial) -> Polynomial:
        return substitute(p, {}, target=big)

    point = [s * lift(r1) + t * lift(r2)
             for r1, r2 in zip(family.row1, family.row2)]
    image = substitute(surface, {n: c for n, c in zip(X_VARS.names, point)},
                       target=big)
    if image.is_zero():
        return True
    constraints = [lift(c) for c in family.constraints]
    gb = buchberger(Ideal(constraints, varset=big))
    return reduces_to_zero(image, gb)


def ruling_lines(quadric: str, param) -> PluckerLine:
    """One line of the named quadric's reference ruling: the line of the
    component sweeping the quadric through one point of it.

    Q6a and Q6b take a parameter pair (delta, eps) != (0, 0); Qa and Qb
    (the gamma^2 = 16 split) take a single scalar, or None for the ruling
    member at infinity.
    """
    i = gr(0, 1)
    if quadric in ("Q6a", "Q6b"):
        delta, eps = gr(param[0]), gr(param[1])
        if delta.is_zero() and eps.is_zero():
            raise ZeroParameterError("(delta, eps) must be nonzero")
        name, point = (("L6a", (eps, 0, 0, delta)) if quadric == "Q6a"
                       else ("L6b", (-i * eps, 0, 0, delta)))
    elif quadric in ("Qa", "Qb"):
        name = "L1"
        if param is None:
            point = (1, 1, 0, -1) if quadric == "Qa" else (0, 1, 1, -1)
        else:
            a = gr(param)
            point = ((a, 1 - a, 1, 1 + a) if quadric == "Qa"
                     else (1, 1 + a, a, 1 - a))
    else:
        raise KeyError(f"no ruling data for quadric {quadric!r}")
    return line_from_points(
        *map(ProjectivePoint, generic_line_points(*point, i)[name]))


def line_in_component(l: PluckerLine, comp_ideal: Ideal) -> bool:
    """Exact evaluation of every component generator at the line."""
    at_l = dict(zip(M_VARS.names, l.coords))
    return all(substitute(g, at_l).is_zero() for g in comp_ideal.generators)


# ---------------------------------------------------------------------------
# the six lines through a generic point of the point scheme
# ---------------------------------------------------------------------------


# the Pluecker coordinates of the table's lines at the chart point (1, x2, x3, x4),
# as polynomials in x2, x3, x4
GENERIC_LINES = {
    name: _on(CHART_VARS, pluecker_join(a, b))
    for name, (a, b) in generic_line_points(*symbolic_point(), gr(0, 1)).items()}


def _branch_factors(gamma: GaussianRational) -> Dict[str, Polynomial]:
    one, x2, x3, x4 = symbolic_point()
    i = gr(0, 1)
    out = {
        "L6a": x2 - i * (x3 * x4),
        "L6b": x2 + i * (x3 * x4),
    }
    if gamma * gamma == gr(16):
        if gamma == gr(4):
            out["L1a"] = (one + x3) * x2 + (one - x3) * x4
            out["L1b"] = (one - x3) * x2 - (one + x3) * x4
        else:
            # gamma = -4: the quartic factors with the opposite signs
            out["L1a"] = (one + x3) * x2 - (one - x3) * x4
            out["L1b"] = (one - x3) * x2 + (one + x3) * x4
    return out


class LineCheck(NamedTuple):
    component: str
    through_point: bool
    in_component: bool
    in_line_scheme: bool
    well_defined: bool

    @property
    def ok(self) -> bool:
        return (self.through_point and self.in_component
                and self.in_line_scheme and self.well_defined)


class BranchReport(NamedTuple):
    name: str
    proper: bool
    quotient_dim: Optional[int]
    lines: Tuple[LineCheck, ...]
    distinct: bool

    @property
    def ok(self) -> bool:
        return (self.proper and len(self.lines) == 6 and self.distinct
                and all(l.ok for l in self.lines))


class SixLinesReport(NamedTuple):
    gamma: GaussianRational
    point: str
    branches: Tuple[BranchReport, ...] = ()
    component_dimensions: Mapping[str, Tuple[int, int]] = MappingProxyType({})
    infinite: bool = False
    branch_dims_consistent: bool = True
    total: Union[int, str] = 0

    @property
    def ok(self) -> bool:
        if self.point in BASIS_POINTS:
            return self.infinite
        return (bool(self.branches) and self.branch_dims_consistent
                and all(b.ok for b in self.branches))

    def to_json_dict(self) -> dict:
        out = {
            "gamma": str(self.gamma),
            "point": self.point,
            "total": self.total,
            "verified": self.ok,
        }
        if self.point in BASIS_POINTS:
            out["infinite"] = self.infinite
            out["component_dimensions"] = {
                k: list(v) for k, v in sorted(self.component_dimensions.items())}
        else:
            out["branches"] = [{**b._asdict(), "lines": [l._asdict() for l in b.lines]}
                               for b in self.branches]
        return out

    def to_text(self) -> str:
        lines = [f"lines of the line scheme through {self.point} at gamma = {self.gamma}"]
        if self.point in BASIS_POINTS:
            lines.append(f"  infinitely many: {'yes' if self.infinite else 'no'}")
            for name, (d, deg) in sorted(self.component_dimensions.items()):
                tag = "pencil (infinitely many)" if d >= 1 else (
                    "finitely many" if d == 0 else "none")
                lines.append(f"  component {name}: dimension {d} -> {tag}")
        else:
            for b in self.branches:
                lines.append(f"  branch {b.name}: proper={b.proper} "
                             f"dim={b.quotient_dim} distinct={b.distinct}")
                for l in b.lines:
                    lines.append(
                        f"    {l.component}: through={l.through_point} "
                        f"component={l.in_component} scheme={l.in_line_scheme}")
            lines.append(f"  lines per point: {self.total}")
        lines.append(f"  verified: {'yes' if self.ok else 'NO'}")
        return "\n".join(lines)


_Images = Tuple[List[Polynomial], List[Polynomial]]


def _line_images(comp: Component) -> _Images:
    """What a branch reduces of the component's line through the generic
    point: its incidence contractions with the point, and the component's
    generators evaluated on it.  Both are polynomials in x2, x3, x4 alone,
    so every branch that has the line shares them."""
    coords = GENERIC_LINES[comp.name]
    return (incidence_contractions(coords, symbolic_point()),
            [evaluate_in_M(g, coords, CHART_VARS) for g in comp.ideal.generators])


def _check_line_on_branch(comp: Component, images: _Images,
                          scheme_comps: Dict[str, Component],
                          branch_gb: GroebnerBasis, branch_ideal: Ideal) -> LineCheck:
    """The component's line through the generic point against the branch,
    from its `_line_images`.  `scheme_comps` are the components whose ideal
    holds the 46: for those, f = sum h_j g_j, and substitution is a ring
    map, so a line on which every g_j vanishes modulo the branch lies in
    the line scheme there too."""
    name, coords = comp.name, GENERIC_LINES[comp.name]

    def on_branch(polys: Iterable[Polynomial]) -> bool:
        return all(reduces_to_zero(f, branch_gb) for f in polys)

    contractions, on_line = images
    through = on_branch(contractions)
    in_comp = on_branch(on_line)
    in_scheme = (in_comp and name in scheme_comps) or any(
        on_branch(evaluate_in_M(g, coords, CHART_VARS) for g in c.ideal.generators)
        for n, c in scheme_comps.items() if n != name)
    well = any(is_unit_mod(c, branch_ideal) for c in coords if not c.is_zero())
    return LineCheck(component=name, through_point=through,
                     in_component=in_comp, in_line_scheme=in_scheme,
                     well_defined=well)


def _pairwise_distinct(lines: List[Tuple[Polynomial, ...]],
                       branch_ideal: Ideal) -> bool:
    """Every pair of the six lines differs at every point of the branch:
    some 2x2 cross-minor of their coordinate vectors is a unit."""
    return all(
        any(is_unit_mod(m, branch_ideal) for m in cross_minors(c1, c2) if not m.is_zero())
        for c1, c2 in combinations(lines, 2))


def lines_through_point(point: str, gamma: GaussianRational) -> SixLinesReport:
    """Count and verify the lines of the line scheme through a point.

    point: 'e1'..'e4' for the basis points, or 'generic' for the symbolic
    generic point of Z_gamma.
    """
    if point not in ("generic", *BASIS_POINTS):
        raise ValueError("point must be a basis point or 'generic'")
    catalog = component_catalog(gamma)
    L46 = line_scheme_ideal(gamma)
    if point in BASIS_POINTS:
        forms = incidence_ideal_forms(BASIS_POINTS[point])
        dims: Dict[str, Tuple[int, int]] = {}
        for comp in catalog:
            slice_ideal = Ideal(list(comp.ideal.generators) + forms)
            dims[comp.name] = hilbert_dimension_degree(slice_ideal)
        full = Ideal(list(L46.ideal.generators) + forms)
        full_dim = hilbert_dimension_degree(full)
        infinite = full_dim[0] >= 1
        return SixLinesReport(gamma=gamma, point=point,
                              component_dimensions=dims,
                              infinite=infinite,
                              total="infinite" if infinite else 0)

    rho = zgamma_ideal(gamma)
    scheme_comps = {c.name: c for c in catalog if scheme_in_ideal(L46, c.ideal)}
    factors = _branch_factors(gamma)
    # Z_gamma splits by the conic its point lies on: L6a or L6b, and at
    # gamma^2 = 16 also L1a or L1b; a branch takes one conic of each split
    splits = [s for s in (("L6a", "L6b"), ("L1a", "L1b")) if s[0] in factors]
    # exclusivity: no point of Z_gamma lies on both conics of a split
    dims_consistent = all(
        buchberger(Ideal([*rho.generators, factors[a], factors[b]])).contains_one()
        for a, b in splits)
    # each line's images, built once and reduced by every branch that has it
    images = {c.name: _line_images(c) for c in catalog}
    branches: List[BranchReport] = []
    for branch in product(*splits):
        # the six lines: the branch's conics and the components outside the splits
        comps = [c for c in catalog
                 if c.name in branch or all(c.name not in s for s in splits)]
        branch_ideal = Ideal([*rho.generators,
                              *(factors[c.name] for c in comps if c.name in factors)])
        gb = buchberger(branch_ideal)
        branches.append(BranchReport(
            name=" & ".join(f"{print_poly(factors[n])} = 0" for n in branch),
            proper=not gb.contains_one(),
            quotient_dim=quotient_dimension(branch_ideal),
            lines=tuple(_check_line_on_branch(c, images[c.name], scheme_comps,
                                              gb, branch_ideal)
                        for c in comps),
            distinct=_pairwise_distinct([GENERIC_LINES[c.name] for c in comps],
                                        branch_ideal)))
    # rho is its own lex basis (its lex leads x4^8, x3^2, x2 are coprime), so
    # its quotient dimension is counted in lex, where no S-pair is formed
    dims_consistent = dims_consistent and (
        sum(b.quotient_dim or 0 for b in branches)
        == quotient_dimension(rho.with_order(MonomialOrder.lex())))
    # every branch takes one conic of each split, so all count alike
    return SixLinesReport(gamma=gamma, point="generic", branches=tuple(branches),
                          branch_dims_consistent=dims_consistent,
                          total=len(branches[0].lines))

"""The paper's printed lists and tables, as transcribed, and the code that
compares the engine with them; no command reads any of it.  The lists keep
the parameter symbolic as 'g'.  The line list is kept as printed; its
errata record (`line_scheme_errata.json`) holds certified corrections of
single entries, applied by `parse_line_polys(gamma, corrected=True)`."""

import json
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from qp3.gaussian import ZERO, GaussianRational, gr
from qp3.groebner import normal_form
from qp3.line_scheme import (LineSchemeIdeal, _pluecker_gb_M, build_big_matrix,
                             minors_modulo_P)
from qp3.multipoly import Polynomial, parse_poly, print_poly
from qp3.polylinalg import PolyMatrix, row_echelon
from qp3.quadratic_algebra import (M_VARS, MG_VARS, UV_VARS, X_VARS,
                                   QuadraticAlgebra, with_g)

HERE = Path(__file__).resolve().parent
TABLES = json.loads((HERE / "displayed_tables.json").read_text())


def _read_poly_list(name: str) -> Tuple[str, ...]:
    text = (HERE / name).read_text()
    return tuple(ln.strip() for ln in text.splitlines()
                 if ln.strip() and not ln.strip().startswith("#"))


POINT_SCHEME_POLYS = _read_poly_list("point_scheme_minors.txt")  # 15 quartics in x1..x4
LINE_SCHEME_POLYS = _read_poly_list("line_scheme_polys.txt")     # P, then 45 quartics
LINE_SCHEME_ERRATA = {                                           # entry index -> corrected text
    int(k): v for k, v in json.loads((HERE / "line_scheme_errata.json").read_text())[
        "line_scheme_polys"].items()}


def _is_form(p: Polynomial, degree: int) -> bool:
    """Whether p is nonzero and each of its terms has the given degree in
    the variables other than g."""
    g = p.varset.index("g") if "g" in p.varset else None
    return not p.is_zero() and all(
        sum(m) - (m[g] if g is not None else 0) == degree for m in p.monomials())


def parse_point_polys(gamma: Optional[GaussianRational]) -> List[Polynomial]:
    """The 15 point-scheme entries, with g bound to gamma, or kept as a
    last variable when gamma is None.  ValueError unless each entry is
    a quartic."""
    vs = with_g(X_VARS, gamma)
    polys = [parse_poly(t, vs, gamma=gamma) for t in POINT_SCHEME_POLYS]
    for t, p in zip(POINT_SCHEME_POLYS, polys):
        if not _is_form(p, 4):
            raise ValueError(f"point-scheme fixture not a quartic: {t}")
    return polys


def parse_line_polys(gamma: Optional[GaussianRational],
                     corrected: bool = False) -> List[Polynomial]:
    """The 46 line-scheme entries as printed, or with the errata
    applied when `corrected` is set; g is bound to gamma, or kept as a
    last variable when gamma is None.

    Raises ValueError unless entry 0 is a quadric and every other
    entry a quartic, and, when `corrected` is set, unless every
    erratum replaces a quartic entry by a quartic that changes the
    coefficient of exactly one monomial.
    """
    vs = with_g(M_VARS, gamma)
    fixed: Dict[int, Polynomial] = {}
    for k, t in sorted(LINE_SCHEME_ERRATA.items() if corrected else ()):
        if not 1 <= k <= 45:
            raise ValueError(f"line-scheme erratum index {k} is not a quartic entry (1..45)")
        fixed[k] = parse_poly(t, vs, gamma=gamma)
        if not _is_form(fixed[k], 4):
            raise ValueError(f"line-scheme erratum {k} is not a quartic: {t}")
        diff = parse_poly(LINE_SCHEME_POLYS[k], MG_VARS) - parse_poly(t, MG_VARS)
        changed = {m[:-1] for m in diff.monomials()}   # g exponent dropped
        if len(changed) != 1:
            raise ValueError(f"line-scheme erratum {k} must change the coefficient of "
                             f"exactly one monomial, changes {len(changed)}")
    polys = []
    for k, t in enumerate(LINE_SCHEME_POLYS):
        if k in fixed:
            polys.append(fixed[k])
            continue
        p = parse_poly(t, vs, gamma=gamma)
        if not _is_form(p, 2 if k == 0 else 4):
            raise ValueError(f"line-scheme fixture {k} has wrong degree: {t}")
        polys.append(p)
    return polys


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
    (`LINE_SCHEME_ERRATA`): entry 31 as printed is a unit multiple of no
    minor.  The list was computed from the "right" tensor enumeration, so
    only `minors_modulo_P(gamma, "right")` matches in full; the "left"
    minors match 30 of the 45 quartics.

    Raises ValueError when no perfect matching exists.
    """
    gbP = _pluecker_gb_M(L.ideal.varset)
    fixture = parse_line_polys(L.gamma, corrected=True)
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
    gbP = _pluecker_gb_M(M_VARS)
    fixture = parse_line_polys(gamma)
    fix_nf = [normal_form(f, gbP) for f in fixture[1:]]

    left = minors_modulo_P(gamma, "left").polys[1:]     # normal forms already
    right = minors_modulo_P(gamma, "right").polys[1:]

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
    return PolyMatrix([[parse_poly(t, UV_VARS, gamma=gamma) for t in row]
                       for row in TABLES["displayed_big_matrix"]])


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

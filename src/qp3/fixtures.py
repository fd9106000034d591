"""Golden data: the reference polynomial lists for the point scheme and
line scheme, the generators of L1, L2, L4 and L6a (psi1 derives the other
three generic components from them), and the named surfaces and rulings.

Fixture text keeps the parameter symbolic as 'g'; callers bind a concrete
gamma when they parse.  The line-scheme list is shipped as printed; the
errata record (`line_scheme_errata.json`) holds certified corrections of
single entries, applied on request by `parse_line_polys(corrected=True)`.
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple

from .gaussian import GaussianRational
from .multipoly import Polynomial, parse_poly
from .quadratic_algebra import M_VARS, MG_VARS, X_VARS, psi1_on_pluecker, with_g

_PSI1_PARTNERS = {"L2": "L3", "L4": "L5", "L6a": "L6b"}   # shipped -> derived


class FixtureSet(NamedTuple):
    point_scheme_polys: Tuple[str, ...]     # 15 quartics in x1..x4
    line_scheme_polys: Tuple[str, ...]      # P followed by 45 quartics in M12..M34
    line_scheme_errata: Mapping[int, str]   # entry index -> corrected text
    component_generators: Mapping[str, Tuple[str, ...]]   # L1, L2, L4, L6a -> generators
    surfaces: Mapping[str, str]
    displayed_big_matrix: Tuple[Tuple[str, ...], ...]

    def parse_point_polys(self, gamma: Optional[GaussianRational]) -> List[Polynomial]:
        """The 15 point-scheme entries, with g bound to gamma, or kept as a
        last variable when gamma is None.  ValueError unless each entry is
        a quartic."""
        vs = with_g(X_VARS, gamma)
        polys = [parse_poly(t, vs, gamma=gamma) for t in self.point_scheme_polys]
        for t, p in zip(self.point_scheme_polys, polys):
            if not _is_form(p, 4):
                raise ValueError(f"point-scheme fixture not a quartic: {t}")
        return polys

    def parse_line_polys(self, gamma: Optional[GaussianRational],
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
        for k, t in sorted(self.line_scheme_errata.items() if corrected else ()):
            if not 1 <= k <= 45:
                raise ValueError(f"line-scheme erratum index {k} is not a quartic entry (1..45)")
            fixed[k] = parse_poly(t, vs, gamma=gamma)
            if not _is_form(fixed[k], 4):
                raise ValueError(f"line-scheme erratum {k} is not a quartic: {t}")
            diff = parse_poly(self.line_scheme_polys[k], MG_VARS) - parse_poly(t, MG_VARS)
            changed = {m[:-1] for m in diff.monomials()}   # g exponent dropped
            if len(changed) != 1:
                raise ValueError(f"line-scheme erratum {k} must change the coefficient of "
                                 f"exactly one monomial, changes {len(changed)}")
        polys = []
        for k, t in enumerate(self.line_scheme_polys):
            if k in fixed:
                polys.append(fixed[k])
                continue
            p = parse_poly(t, vs, gamma=gamma)
            if not _is_form(p, 2 if k == 0 else 4):
                raise ValueError(f"line-scheme fixture {k} has wrong degree: {t}")
            polys.append(p)
        return polys

    def parse_components(self, gamma: Optional[GaussianRational]) -> Dict[str, List[Polynomial]]:
        """The seven generic components' generators in catalog order, g bound
        to gamma or kept as a last variable when gamma is None; L3, L5 and
        L6b are the psi1 images of L2, L4 and L6a, in `_catalog_form`."""
        vs = with_g(M_VARS, gamma)
        gens = {}
        for name, texts in self.component_generators.items():
            gens[name] = [parse_poly(t, vs, gamma=gamma) for t in texts]
            if name in _PSI1_PARTNERS:
                gens[_PSI1_PARTNERS[name]] = _catalog_form(map(psi1_on_pluecker, gens[name]))
        return gens


def _catalog_form(gens: Iterable[Polynomial]) -> List[Polynomial]:
    """The form of the shipped generator lists: linear forms monic, single
    variables first, in variable order, then the rest in the order given."""
    gens = [p.monic() if p.degree() == 1 else p for p in gens]
    return sorted(gens, key=lambda p: p.leading_monomial().index(1) if (
        p.degree() == 1 and len(p.monomials()) == 1) else len(p.varset))


def _is_form(p: Polynomial, degree: int) -> bool:
    """Whether p is nonzero and each of its terms has the given degree in
    the variables other than g."""
    g = p.varset.index("g") if "g" in p.varset else None
    return not p.is_zero() and all(
        sum(m) - (m[g] if g is not None else 0) == degree for m in p.monomials())


def _data_file(name: str):
    return resources.files("qp3").joinpath("data", name)


def _frozen(value):
    """Parsed JSON with every object a read-only mapping and every array
    a tuple, so the memo of `load_fixtures` cannot be changed."""
    if isinstance(value, dict):
        return MappingProxyType({k: _frozen(v) for k, v in value.items()})
    if isinstance(value, list):
        return tuple(_frozen(v) for v in value)
    return value


def _read_poly_list(name: str) -> Tuple[str, ...]:
    text = _data_file(name).read_text()
    return tuple(ln.strip() for ln in text.splitlines()
                 if ln.strip() and not ln.strip().startswith("#"))


@lru_cache(maxsize=1)
def load_fixtures() -> FixtureSet:
    """Load the shipped fixture lists and check their lengths.

    No text is parsed here: the degree of each entry, and each erratum,
    is checked where the text is parsed (`FixtureSet.parse_point_polys`,
    `FixtureSet.parse_line_polys`), so a command that reads only
    components.json parses none of them.
    """
    point = _read_poly_list("point_scheme_minors.txt")
    line = _read_poly_list("line_scheme_polys.txt")
    if len(point) != 15:
        raise ValueError(f"expected 15 point-scheme fixtures, got {len(point)}")
    if len(line) != 46:
        raise ValueError(f"expected 46 line-scheme fixtures, got {len(line)}")
    comp = _frozen(json.loads(_data_file("components.json").read_text()))
    errata = json.loads(_data_file("line_scheme_errata.json").read_text())
    return FixtureSet(
        point_scheme_polys=point,
        line_scheme_polys=line,
        line_scheme_errata=MappingProxyType(
            {int(k): v for k, v in errata["line_scheme_polys"].items()}),
        component_generators=comp["components"],
        surfaces=comp["surfaces"],
        displayed_big_matrix=comp["displayed_big_matrix"],
    )

"""Golden data (`data/components.json`): the generators of the generic
line-scheme components L1, L2, L4 and L6a, from which psi1 derives the
other three, and the 46 polynomials of the line scheme over Q(i)[g],
which `line_scheme.minors_modulo_P` derives and `line_scheme_ideal`
reads.

Fixture text keeps the parameter symbolic as 'g'; callers bind a concrete
gamma when they parse.  The lists the paper prints (the 15 point minors,
the 46 line-scheme polynomials with their errata, the surfaces and the
displayed matrices) are the tests' oracles (`tests/printed.py`): no
command reads them, since qp3 builds those lists itself.
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple

from .gaussian import GaussianRational
from .multipoly import Polynomial, parse_poly
from .quadratic_algebra import M_VARS, psi1_on_pluecker, with_g

_PSI1_PARTNERS = {"L2": "L3", "L4": "L5", "L6a": "L6b"}   # shipped -> derived


class FixtureSet(NamedTuple):
    component_generators: Mapping[str, Tuple[str, ...]]   # L1, L2, L4, L6a -> generators
    line_scheme: Tuple[str, ...]    # the 46 over Q(i)[g] on MG_VARS, P first

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


def _frozen(value):
    """Parsed JSON with every object a read-only mapping and every array
    a tuple, so the memo of `load_fixtures` cannot be changed."""
    if isinstance(value, dict):
        return MappingProxyType({k: _frozen(v) for k, v in value.items()})
    if isinstance(value, list):
        return tuple(_frozen(v) for v in value)
    return value


@lru_cache(maxsize=1)
def load_fixtures() -> FixtureSet:
    """Load the shipped lists.  No text is parsed here: a generator is
    parsed where `FixtureSet.parse_components` reads it, and the 46 where
    `line_scheme.line_scheme_ideal` does."""
    text = resources.files("qp3").joinpath("data", "components.json").read_text()
    data = _frozen(json.loads(text))
    return FixtureSet(component_generators=data["components"],
                      line_scheme=data["line_scheme"])

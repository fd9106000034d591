"""Golden data (`data/components.json`): three tables over Q(i)[g], each
polynomial a flat list of integer rows that `multipoly.from_rows` alone
reads.  They are the generators of the generic line-scheme components
L1, L2, L4 and L6a, from which psi1 derives the other three; the 46
polynomials of the line scheme, which `line_scheme.minors_modulo_P`
derives and `line_scheme_ideal` reads; and 14 generators of the seven
components' intersection, which `line_scheme.verify_decomposition` reads.

A table is specialised at a concrete gamma, or kept over Q(i)[g] with g
the last variable (gamma None), by `table_polys`; no text is parsed.
The tables' text forms, and the lists the paper prints (the 15 point
minors, the 46 line-scheme polynomials with their errata, the surfaces
and the displayed matrices), are the tests' oracles (`tests/table_texts.py`,
`tests/printed.py`).
"""

from __future__ import annotations

import json
import os
from functools import lru_cache
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple

from .gaussian import GaussianRational
from .multipoly import Polynomial, from_rows
from .quadratic_algebra import M_VARS, _PSI1_TABLE, with_g

Rows = Tuple[int, ...]    # one polynomial's integer rows (`from_rows`)

_PSI1_PARTNERS = {"L2": "L3", "L4": "L5", "L6a": "L6b"}   # shipped -> derived
# psi1 as the signed permutation of the M_ij that `from_rows` applies
_PSI1_PERM = tuple((M_VARS.index(dst), c.a) for c, dst in map(_PSI1_TABLE.get, M_VARS.names))


def table_polys(table: Iterable[Rows], gamma: Optional[GaussianRational],
                perm: Optional[Tuple[Tuple[int, int], ...]] = None) -> List[Polynomial]:
    """The polynomials of a table, g bound to gamma on M_VARS, or kept as
    the last variable of MG_VARS when gamma is None."""
    return from_rows(table, with_g(M_VARS, gamma), gamma, perm)


class FixtureSet(NamedTuple):
    component_generators: Mapping[str, Tuple[Rows, ...]]   # L1, L2, L4, L6a -> generators
    line_scheme: Tuple[Rows, ...]    # the 46, P first
    components_intersection: Tuple[Rows, ...]    # the 14

    def parse_components(self, gamma: Optional[GaussianRational]) -> Dict[str, List[Polynomial]]:
        """The seven generic components' generators in catalog order, g bound
        to gamma or kept as a last variable when gamma is None; L3, L5 and
        L6b are the psi1 images of L2, L4 and L6a, in `_catalog_form`."""
        gens = {}
        for name, table in self.component_generators.items():
            gens[name] = table_polys(table, gamma)
            if name in _PSI1_PARTNERS:
                gens[_PSI1_PARTNERS[name]] = _catalog_form(table_polys(table, gamma, _PSI1_PERM))
        return gens


def _catalog_form(gens: Iterable[Polynomial]) -> List[Polynomial]:
    """The form of the shipped generator lists: linear forms monic, single
    variables first, in variable order, then the rest in the order given."""
    gens = [p.monic() if p.degree() == 1 else p for p in gens]
    return sorted(gens, key=lambda p: p.leading_monomial().index(1) if (
        p.degree() == 1 and len(p.monomials()) == 1) else len(p.varset))


@lru_cache(maxsize=1)
def load_fixtures() -> FixtureSet:
    """Load the shipped tables, each polynomial's rows one tuple and the
    components a read-only mapping, so the memo cannot be changed.  No
    polynomial is built here: `table_polys` builds them at a gamma."""
    with open(os.path.join(os.path.dirname(__file__), "data", "components.json"),
              encoding="utf-8") as f:
        data = json.load(f)
    return FixtureSet(
        component_generators=MappingProxyType({name: tuple(map(tuple, table)) for name, table
                                               in data["components"].items()}),
        line_scheme=tuple(map(tuple, data["line_scheme"])),
        components_intersection=tuple(map(tuple, data["intersection"])))

"""The three tables of `src/qp3/data/components.json` as text over
Q(i)[g], the oracles of the integer rows that ship there, and the writer
of that file.

Each text is parsed with g kept as the last variable of MG_VARS, and its
primitive term list and scale are written as `multipoly.from_rows` reads
them.  Tests check that the rows specialise to the text at every gamma
and that the file is exactly what `components_json` writes from these
texts; after a table changes here, rewrite the file with

    python tests/table_texts.py
"""

import json
from pathlib import Path
from typing import Dict, List

from qp3.multipoly import Polynomial, parse_poly
from qp3.quadratic_algebra import MG_VARS

COMPONENTS_JSON = Path(__file__).resolve().parents[1] / "src" / "qp3" / "data" / "components.json"

# the generators of L1, L2, L4 and L6a, each list in `fixtures._catalog_form`;
# psi1 derives L3, L5 and L6b from the last three
COMPONENTS = {
    "L1": ("M13", "M24", "M14*M23 + M12*M34",
           "M12^2 + M34^2 + g*M14*M23 - M14^2 - M23^2"),
    "L2": ("M13", "M14", "M34", "M12^3 - M12*M23^2 - i*M23*M24^2"),
    "L4": ("M12", "M14", "M24", "M23^2*M34 + i*g*M13^2*M23 - M34^3"),
    "L6a": ("M14", "M23", "M12*M34 - M13*M24", "M12 + i*M34"),
}

# the 46 polynomials of the line scheme, P first: `minors_modulo_P(None)`
# printed, which tests/test_line_scheme.py checks
LINE_SCHEME = (
    "M14*M23 - M13*M24 + M12*M34",
    "i*M13^2*M24*M34*g - i*M12*M13*M34^2*g - 2*M13*M14*M24^2 + M12*M14*M24*M34"
    " + M23*M24*M34^2",
    "-M13^2*M24^2*g + M12*M13*M24*M34*g + i*M12*M14*M24^2 + i*M23*M24^2*M34",
    "i*M13*M14*M34^2*g + M12*M13*M24^2 + i*M14*M24^3 - M14^2*M24*M34 + M24*M34^3",
    "-i*M13^2*M14*M24*g + i*M12*M13*M14*M34*g + M12*M14^2*M24 + M13*M24^2*M34"
    " - M12*M24*M34^2",
    "-i*M13*M14*M24*M34*g + i*M12*M14*M34^2*g + i*M12*M13*M14*M24 + M14^2*M24^2"
    " - i*M12^2*M14*M34 + i*M14^3*M34 - i*M12*M23*M34^2 - i*M14*M34^3",
    "M13*M14*M24^2*g + i*M13*M14^2*M34*g - M12*M14*M24*M34*g + M12^2*M14*M24"
    " + M12*M23*M24*M34",
    "M13^2*M24*M34*g - M12*M13*M34^2*g + i*M12*M14*M24*M34 + i*M23*M24*M34^2",
    "-i*M13^2*M23*M34*g + M13*M24*M34^2*g - M12*M34^3*g + 2*M13^2*M24^2"
    " - 2*M12*M13*M24*M34 + i*M14*M24^2*M34 + M12^2*M34^2 - M14^2*M34^2 - M23^2*M34^2"
    " + M34^4",
    "M13^2*M23*M24*g + i*M13*M24^2*M34*g - M13*M14*M34^2*g - i*M12*M24*M34^2*g"
    " - i*M12*M13*M24^2 + i*M12^2*M24*M34 - i*M23^2*M24*M34",
    "i*M13^3*M24*g - i*M12*M13^2*M34*g - M12*M13*M14*M24 - M13*M23*M24*M34",
    "-2*M13^2*M24^2 + 2*M12*M13*M24*M34",
    "i*M12*M13*M23*M34 - M13*M24^2*M34 + i*M13*M14*M34^2 + M12*M24*M34^2",
    "-M12*M13*M23*M24 - i*M13*M24^3 + M13*M14*M24*M34 + i*M12*M24^2*M34",
    "-i*M12*M13^2*M24 - M13*M14*M24^2 + i*M12^2*M13*M34 - i*M13*M14^2*M34"
    " + M12*M14*M24*M34",
    "-2*M13^2*M23*M24 + M12*M13*M23*M34 - i*M13*M24^2*M34 + M13*M14*M34^2"
    " + i*M12*M24*M34^2",
    "-M13^2*M23*M24*g + M12*M13*M23*M34*g + i*M12*M13*M24^2 - i*M12^2*M24*M34"
    " + i*M23^2*M24*M34",
    "M12*M13*M23*M24 + i*M13*M24^3 + M13*M14*M24*M34 - i*M12*M24^2*M34",
    "M13^2*M24*M34*g - M12*M13*M34^2*g - i*M12*M14*M24*M34 - i*M23*M24*M34^2",
    "-M13^2*M24^2*g + 2*M12*M13*M24*M34*g - M12^2*M34^2*g - M12^2*M13*M24 + M12^3*M34"
    " - M12*M14^2*M34 - M12*M23^2*M34 - M13*M24*M34^2 + M12*M34^3",
    "-M13^2*M23^2*g - i*M13*M23*M24*M34*g + i*M12*M23*M34^2*g + i*M12*M13*M23*M24"
    " - i*M12^2*M23*M34 + i*M23^3*M34 - i*M12*M14*M34^2 - i*M23*M34^3",
    "M12*M13*M23^2 + i*M13*M23*M24^2 + M13^2*M24*M34 - i*M12*M23*M24*M34"
    " - M12*M13*M34^2",
    "-i*M13^3*M24*g + i*M12*M13^2*M34*g + M12*M13*M14*M24 - M13*M23*M24*M34",
    "-i*M13^2*M24*M34*g + i*M12*M13*M34^2*g + i*M12*M13^2*M24 + M13*M14*M24^2"
    " - i*M12^2*M13*M34 + i*M13*M14^2*M34 - M23*M24*M34^2",
    "M13^2*M24^2*g + i*M13^2*M14*M34*g - M12*M13*M24*M34*g + M12^2*M13*M24"
    " - i*M23*M24^2*M34 + M13*M24*M34^2",
    "-i*M12*M13*M23*M34 - M13*M24^2*M34 - i*M13*M14*M34^2 + M12*M24*M34^2",
    "-i*M13^3*M23*g + M12*M13^2*M24 - M13*M23^2*M34 - i*M23*M24*M34^2 + M13*M34^3",
    "i*M12*M13^2*M23 + M13^2*M24^2 + i*M13^2*M14*M34 - M12*M13*M24*M34",
    "M13^2*M23*M24*g - M12*M13*M23*M34*g + M12^2*M13*M23 + M12*M13*M14*M34"
    " - i*M23^2*M24*M34",
    "i*M12*M13^2*M24*g - i*M12^2*M13*M34*g - M12^2*M14*M24 + 2*M13*M23*M24^2"
    " - M12*M23*M24*M34",
    "i*M12*M13*M24*M34*g - i*M12^2*M34^2*g - i*M12^2*M13*M24 - M12*M14*M24^2"
    " + i*M12^3*M34 - i*M12*M14^2*M34 - i*M12*M23^2*M34 + M23*M24^2*M34"
    " - i*M13*M24*M34^2 + i*M12*M34^3",
    "-M12*M13*M24^2*g - i*M12*M13*M14*M34*g + M12^2*M24*M34*g - M12^3*M24"
    " + M12*M23^2*M24 + i*M23*M24^3 - M13*M24^2*M34",
    "i*M12*M13*M23*M24 + M13*M24^3 + i*M13*M14*M24*M34 - M12*M24^2*M34",
    "i*M12*M13^2*M23*g - M12^2*M13*M24 + 2*M13*M23^2*M24 + i*M23*M24^2*M34"
    " - M13*M24*M34^2",
    "-i*M12^2*M13*M23 - M12*M13*M24^2 - i*M12*M13*M14*M34 + M12^2*M24*M34",
    "-M12*M13*M23*M24*g + M12^2*M23*M34*g - M12^3*M23 + M12*M23^3 + i*M23^2*M24^2"
    " - M12^2*M14*M34 + M13*M23*M24*M34 - M12*M23*M34^2",
    "i*M12*M13*M23^2 + M13*M23*M24^2 + i*M13^2*M24*M34 - M12*M23*M24*M34"
    " - i*M12*M13*M34^2",
    "-M12*M13^2*M24*g + M12^2*M13*M34*g + i*M12^2*M14*M24 + i*M12*M23*M24*M34",
    "i*M13^2*M14*M34*g + M12^2*M13*M24 - 2*M13*M14^2*M24 + i*M12*M14*M24^2"
    " + M13*M24*M34^2",
    "-M13^2*M14*M24*g + M12*M13*M14*M34*g + i*M12*M14^2*M24 + i*M13*M24^2*M34"
    " - i*M12*M24*M34^2",
    "-i*M13^2*M14^2*g - M12*M13*M14*M24*g + M12^2*M14*M34*g - M12^3*M14 + M12*M14^3"
    " - M12^2*M23*M34 + M13*M14*M24*M34 - M12*M14*M34^2",
    "-M12*M13^2*M23*g + M13^2*M14*M34*g - i*M12*M13*M24*M34*g + i*M12^2*M34^2*g"
    " + i*M12^2*M13*M24 - i*M12^3*M34 + i*M12*M14^2*M34 + i*M12*M23^2*M34"
    " + i*M13*M24*M34^2 - i*M12*M34^3",
    "M12^2*M13*M23 - 2*M13^2*M14*M24 + i*M12*M13*M24^2 + M12*M13*M14*M34"
    " - i*M12^2*M24*M34",
    "-M13^3*M24*g + M12*M13^2*M34*g + i*M12*M13*M14*M24 + i*M13*M23*M24*M34",
    "-i*M13^3*M14*g - M12*M13^2*M24*g + M12^2*M13*M34*g - M12^3*M13 + M12*M13*M14^2"
    " - M13^2*M24*M34 + i*M12*M23*M24*M34",
    "i*M12*M13^2*M14*g + M12^2*M13*M24*g - M12^3*M34*g + M12^4 - M12^2*M14^2"
    " - M12^2*M23^2 + 2*M13^2*M24^2 - i*M12*M23*M24^2 - 2*M12*M13*M24*M34"
    " + M12^2*M34^2",
)


# Generators over Q(i)[g] of the intersection of the seven generic
# components: the `_psi1_fold` of `parse_components(None)`, each meet the
# t-free part of a basis under the order that puts the block (M_ij, t),
# degrevlex, above g, printed in that order (`oracles.certifies_intersection_table`)
COMPONENTS_INTERSECTION = (
    "M12^2*M13*M24 + M13*M24*M34^2",
    "M14^2*M24^2 - i*M12^2*M14*M34 + i*M14^3*M34 + i*M12*M14*M34^2*g"
    " - i*M12*M23*M34^2 - i*M14*M34^3",
    "M14*M24^3 - i*M12^2*M24*M34 + i*M14^2*M24*M34 - i*M24*M34^3",
    "M12^3 + i*M13^2*M14*g - M12*M14^2 - M12*M23^2 + M12*M13*M24*g"
    " - i*M23*M24^2 - M12^2*M34*g + M12*M34^2",
    "M12*M13*M23",
    "M13^2*M23*g - M14*M24^2 + i*M12^2*M34 - i*M14^2*M34 - i*M23^2*M34"
    " + i*M13*M24*M34*g - i*M12*M34^2*g + i*M34^3",
    "M13^2*M24 - M12*M13*M34",
    "M12*M14*M24",
    "M13*M14*M24",
    "M13*M23*M24",
    "M13*M24^2 - M12*M24*M34",
    "M13*M14*M34",
    "M23*M24*M34",
    "M14*M23 - M13*M24 + M12*M34",
)


def rows(f: Polynomial) -> List[int]:
    """The flat rows of f on MG_VARS: its scale, then per term the
    exponents of the M_ij and g and the Gaussian-integer coefficient."""
    out = list(f._scale)
    for _, m, (x, y) in f._list:
        out += [*f._pk.unpack(m), x, y]
    return out


def _table(texts) -> List[List[int]]:
    return [rows(parse_poly(t, MG_VARS)) for t in texts]


NOTE = ("Each polynomial is a flat list of ints: a scale a, b, d, then per term the "
        "exponents of M12, M13, M14, M23, M24, M34 and g and a Gaussian integer x, y; "
        "it is (a + b*i)/d times the sum of the terms (x + y*i)*monomial. Written by "
        "tests/table_texts.py from the text there.")


def components_json() -> str:
    """The text of components.json, one polynomial's rows a line."""
    def block(table: List[List[int]], indent: str) -> str:
        return ("[\n" + ",\n".join(indent + "  " + json.dumps(r) for r in table)
                + "\n" + indent + "]")

    tables: Dict[str, List[List[int]]] = {n: _table(t) for n, t in COMPONENTS.items()}
    comps = ",\n".join(f'    "{n}": {block(t, "    ")}' for n, t in tables.items())
    return ("{\n"
            f'  "note": {json.dumps(NOTE)},\n'
            f'  "components": {{\n{comps}\n  }},\n'
            f'  "line_scheme": {block(_table(LINE_SCHEME), "  ")},\n'
            f'  "intersection": {block(_table(COMPONENTS_INTERSECTION), "  ")}\n'
            "}\n")


if __name__ == "__main__":
    COMPONENTS_JSON.write_text(components_json())

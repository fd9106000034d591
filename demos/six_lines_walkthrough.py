"""The lines in P3 behind the line scheme: rulings, surface containments,
and the six lines through every generic point of the point scheme.

All verification here is symbolic: the generic point of Z_gamma is the
residue class of (1, x2, x3, x4) modulo the triangular ideal, so one
computation covers all sixteen points at once.  The surfaces are the
paper's, read from the tests' transcription (tests/printed.py).
"""

import sys
from pathlib import Path

from qp3.gaussian import gr
from qp3.multipoly import parse_poly, print_poly
from qp3.quadratic_algebra import X_VARS
from qp3.line_scheme import component_catalog
from qp3.plucker import (line_family, line_in_component, lines_through_point,
                         ruling_lines, surface_containment)

sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))
from printed import TABLES  # noqa: E402

surfaces = TABLES["surfaces"]

print("=== surfaces swept by the line families ===")
quartic = parse_poly(surfaces["quartic"], X_VARS, gamma=gr(1))
print(f"  quartic: {print_poly(quartic)}")
print(f"  L1 family lies on it: "
      f"{surface_containment(line_family('L1', gr(1)), quartic)}")
q6a = parse_poly(surfaces["Q6a"], X_VARS)
q6b = parse_poly(surfaces["Q6b"], X_VARS)
print(f"  L6a family on V({print_poly(q6a)}): "
      f"{surface_containment(line_family('L6a', gr(1)), q6a)}")
print(f"  L6a family on V({print_poly(q6b)}) (the other quadric): "
      f"{surface_containment(line_family('L6a', gr(1)), q6b)}")

print()
print("=== rulings ===")
cat = component_catalog(gr(1))
for d, e in ((1, 0), (0, 1), (1, 1), (3, -2)):
    l = ruling_lines("Q6a", (d, e))
    print(f"  Q6a ruling at ({d},{e}): {l!r}  "
          f"in L6a: {line_in_component(l, cat.get('L6a').ideal)}")
cat4 = component_catalog(gr(4))
for a in (None, 0, 1, -3):
    l = ruling_lines("Qa", a)
    print(f"  Qa ruling at alpha={a}: {l!r}  "
          f"in L1a: {line_in_component(l, cat4.get('L1a').ideal)}")

print()
print("=== six lines through the generic point ===")
for gv in (1, 4):
    rep = lines_through_point("generic", gr(gv))
    print(f"--- gamma = {gv} ---")
    print(rep.to_text())
    print()

print("=== basis points lie on infinitely many lines ===")
for name in ("e1", "e2", "e3", "e4"):
    rep = lines_through_point(name, gr(1))
    pencil = [n for n, (d, _) in rep.component_dimensions.items() if d >= 1]
    print(f"  {name}: infinite = {rep.infinite}; pencil component(s): {pencil}")

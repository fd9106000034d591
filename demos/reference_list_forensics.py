"""How the reference 46-polynomial list relates to the computed minors.

The Koszul dual relations have two canonical tensor enumerations, "left"
(which reproduces the displayed dual matrix) and "right".  Both give
minors that generate exactly the ideal of the reference list, but the list
itself was computed from the "right" basis.  This script prints:

  * against the "left" minors, 30 of 45 quartics agree up to a unit scalar
    and 15 are exact linear combinations of minors (a change of dual basis
    mixes minors by Cauchy-Binet);
  * against the "right" minors, 44 of 45 agree directly; the holdout,
    entry 31, differs from i times a minor in the single term
    (1 - i) * M12^2 * M14 * M24;
  * with the recorded erratum for entry 31 applied, all 45 quartics match
    distinct "right" minors.

The reference list, its errata and the forensic code are test oracles,
in tests/printed.py.
"""

import sys
from pathlib import Path

from qp3.gaussian import gr
from qp3.multipoly import print_poly
from qp3.groebner import Ideal, ideals_equal
from qp3.line_scheme import line_scheme_ideal, minors_modulo_P

sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))
from printed import (LINE_SCHEME_ERRATA, LINE_SCHEME_POLYS, fixture_forensics,  # noqa: E402
                     match_fixture_polys, parse_line_polys)

gamma = gr(5)

L = line_scheme_ideal(gamma)
reference = Ideal(parse_line_polys(gamma))
print(f"ideals equal at gamma = {gamma}: {ideals_equal(L.ideal, reference)}")

fr = fixture_forensics(gamma)
print(f"'left' minors, direct unit-scalar matches: {len(fr.direct_matches)} / 45")
print(f"entries that are linear combinations of 'left' minors: "
      f"{len(fr.combination_certificates)}")
for j, combo in sorted(fr.combination_certificates.items()):
    terms = " + ".join(f"({c}) * minor[{k}]" for k, c in combo)
    print(f"  entry {j:2d} = {terms}")

print()
print(f"'right' minors, entries as printed: "
      f"{len(fr.direct_matches) + len(fr.right_order_matches)} / 45 direct")
for j, disc in fr.right_order_discrepancies.items():
    print(f"  entry {j}: residual single-term discrepancy {print_poly(disc)}")

print()
for j, text in sorted(LINE_SCHEME_ERRATA.items()):
    print(f"erratum, entry {j}, printed:   {LINE_SCHEME_POLYS[j]}")
    print(f"erratum, entry {j}, corrected: {text}")
matching = match_fixture_polys(minors_modulo_P(gamma, "right"))
print(f"'right' minors, errata applied: {len(matching) - 1} / 45 direct")

"""Floating-point shadow of the exact computations: enumerate the twenty
points, check residuals against the exact polynomial lists, follow the
sigma orbits, and lay six lines through each generic point.
"""

import numpy as np

from qp3.gaussian import gr
from qp3.numeric import (distinct_count, enumerate_points, line_residual,
                         minor_residual, proj_distance, sigma_numeric,
                         six_lines_numeric)

for gv in (1, 2, 4, 5):
    pts = enumerate_points(gr(gv))
    worst = max(minor_residual(p.coords, float(gv)) for p in pts)
    print(f"gamma = {gv}: {len(pts)} points enumerated, "
          f"{distinct_count(pts)} distinct, worst minor residual {worst:.2e}")

print()
print("=== sigma orbits at gamma = 1 (numeric) ===")
pts = enumerate_points(gr(1))
perm = []
for p in pts:
    q = sigma_numeric(p, gr(1))
    dists = [proj_distance(q.coords, r.coords) for r in pts]
    perm.append(int(np.argmin(dists)))
seen, sizes = set(), []
for start in range(len(pts)):
    if start in seen:
        continue
    size, k = 0, start
    while k not in seen:
        seen.add(k)
        k = perm[k]
        size += 1
    sizes.append(size)
print(f"  orbit sizes: {sorted(sizes)}")

print()
print("=== six lines through each generic point ===")
worst_line = 0.0
for p in pts[4:]:
    for m in six_lines_numeric(p, gr(1)):
        worst_line = max(worst_line, line_residual(m, 1.0))
print(f"  16 points x 6 lines, worst 46-polynomial residual {worst_line:.2e}")

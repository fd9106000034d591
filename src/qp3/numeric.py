"""Floating-point cross-check of the exact machinery: enumerate the twenty
points of the point scheme and the six lines through each generic point
numerically, with residual and separation tolerances.

All of this is strictly a sanity net for the exact modules; on any
disagreement the tolerances here are suspected first.
"""

from __future__ import annotations

import cmath
from functools import lru_cache
from itertools import combinations
from typing import TYPE_CHECKING, List, Sequence, Tuple

from .gaussian import GaussianRational
from .multipoly import Polynomial
from .fixtures import load_fixtures
from .plucker import generic_line_points, incidence_contractions, pluecker_join

if TYPE_CHECKING:
    import numpy as np

DEFAULT_TOL = 1e-8
# a pair of points whose largest minor residual exceeds this is also
# computed by `_points_without_cancellation`, and the pair with the smaller
# residual is kept.  At gamma = 1, 2, -4, 3/2+i, 1/7-2/3*i, 2^25, 5,
# -3+2i, 2^40 and 2^79 no pair exceeds 1.2e-14, three orders under it.
# At +-2^-10*i and +-2^-23*i the quadratic formula's pairs reach 7.4e-9
# and 6.2e-9, under DEFAULT_TOL but with lines that fail it; with the
# closed forms kept, no point there exceeds 4.5e-16.
RECOMPUTE_ABOVE = 1e-11
DISTINCT_TOL = 1e-6
LINE_DISTINCT_FLOOR = 1e-12


class ConvergenceError(RuntimeError):
    pass


class DegeneratePointError(ValueError):
    pass


def _to_complex(x) -> complex:
    if isinstance(x, GaussianRational):
        return x.to_complex()
    return complex(x)


def _float_gamma(gamma) -> complex:
    """gamma as a complex float.  Raises ConvergenceError unless gamma and
    gamma^2 are finite and nonzero in complex floating point, since the
    point equations carry gamma^2 and the lines divide by gamma."""
    if gamma == 0:
        raise ValueError("gamma must be nonzero")
    try:
        g = _to_complex(gamma)
    except OverflowError:
        g = complex("inf")
    square = g * g
    if not (cmath.isfinite(square) and square != 0):
        raise ConvergenceError("gamma is outside the range of complex "
                               "floats: gamma^2 is not a finite nonzero float")
    return g


class ComplexPoint:
    """A numeric point of P3, max-modulus coordinate scaled to 1."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        import numpy as np

        c = np.asarray([_to_complex(x) for x in coords], dtype=complex)
        if not np.all(np.isfinite(c)):
            raise DegeneratePointError("point coordinates must be finite")
        k = int(np.argmax(np.abs(c)))
        if abs(c[k]) == 0:
            raise ValueError("zero vector is not a projective point")
        object.__setattr__(self, "coords", c / c[k])

    def __setattr__(self, name, value):
        raise AttributeError("ComplexPoint is immutable")

    def __repr__(self):
        return f"ComplexPoint(coords={self.coords!r})"

    def __getitem__(self, k: int) -> complex:
        return self.coords[k]


def proj_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Chordal distance between projective points / Pluecker vectors,
    |a ^ b| / (|a| |b|).  By Lagrange's identity it equals
    sqrt(1 - |<a, b>|^2 / (|a| |b|)^2), but it takes no difference of
    nearly equal numbers, so a gap of 1e-12 reads as 1e-12, not as 0."""
    import numpy as np

    a, b = np.asarray(a), np.asarray(b)
    w = np.outer(a, b)
    # the Frobenius norm counts each a_i b_j - a_j b_i, i < j, twice
    return float(np.linalg.norm(w - w.T)
                 / (np.sqrt(2.0) * np.linalg.norm(a) * np.linalg.norm(b)))


class _TermTable:
    """Polynomials on one VarSet compiled for repeated float evaluation.

    Each term holds its complex coefficient and the slots of its nonzero
    (variable, exponent) pairs, in `terms` order; `slots` lists those
    pairs.  `max_abs` fills one table of powers per call and then does
    the multiplications and additions of `Polynomial.evaluate` in the
    same order, so its value is the same float, bit for bit.
    """

    def __init__(self, polys: Sequence[Polynomial]):
        slot_of: dict = {}
        self.polys = tuple(
            tuple((c.to_complex(),
                   tuple(slot_of.setdefault((k, e), len(slot_of))
                         for k, e in enumerate(m) if e))
                  for m, c in p.terms.items())
            for p in polys)
        self.slots = tuple(slot_of)

    def max_abs(self, values: Sequence[complex]) -> float:
        """max |p(values)| over the polynomials, values in VarSet order."""
        powers = [values[k] ** e for k, e in self.slots]
        sizes = []
        for terms in self.polys:
            total = 0j
            for t, factors in terms:
                for s in factors:
                    t *= powers[s]
                total += t
            sizes.append(abs(total))
        return max(sizes)


@lru_cache(maxsize=1)
def _minor_polys_symbolic() -> _TermTable:
    """The fifteen minors with g carried as an honest variable, compiled
    once, so they evaluate at arbitrary complex gamma."""
    return _TermTable(load_fixtures().parse_point_polys(None))


def minor_residual(point: Sequence[complex], gamma: complex) -> float:
    return _minor_polys_symbolic().max_abs(
        (point[0], point[1], point[2], point[3], gamma))


def _newton(coeffs: np.ndarray, x: complex, scale: float) -> complex:
    """x polished by Newton steps on the polynomial with `coeffs` (highest
    first) until |f(x)| < 1e-14 * scale, scale its largest coefficient."""
    import numpy as np

    dcoeffs = coeffs[:-1] * np.arange(len(coeffs) - 1, 0, -1)
    for _ in range(60):
        fx = np.polyval(coeffs, x)
        if abs(fx) < 1e-14 * scale:
            break
        x = x - fx / np.polyval(dcoeffs, x)
    return x


def enumerate_points(gamma, tol: float = DEFAULT_TOL) -> List[ComplexPoint]:
    """e1..e4 plus the sixteen solutions of the triangular system, polished
    until every one of the fifteen minors has residual below tol."""
    import numpy as np

    g = _float_gamma(gamma)
    pts = [ComplexPoint(v) for v in np.eye(4)]
    rho1 = np.array([1, 0, 0, 0, -4, 0, 0, 0, g * g], dtype=complex)
    for x4 in np.roots(rho1):
        x4 = _newton(rho1, x4, max(1.0, abs(g * g)))
        # rho2 = x3^2 - i x3 x4^2 - 1 = 0; the quadratic formula loses the
        # digits of the smaller root to cancellation once |x4|^4 >> 4
        rho2 = np.array([1.0, -1j * x4 * x4, -1.0])
        disc = np.sqrt(-(x4 ** 4) + 4.0 + 0j)
        x3_formula = [(1j * x4 * x4 + s * disc) / 2.0 for s in (1.0, -1.0)]
        pair = []
        for start in x3_formula:
            x3 = _newton(rho2, start, max(1.0, abs(x4) ** 2))
            x2 = (2j * x4 ** 3 - x3 * x4 ** 5) / g
            pair.append(ComplexPoint((1.0, x2, x3, x4)))
        res = max(minor_residual(p.coords, g) for p in pair)
        if res > min(RECOMPUTE_ABOVE, tol):
            other = _points_without_cancellation(x4, g, x3_formula[0])
            other_res = max(minor_residual(p.coords, g) for p in other)
            if other_res < res:
                pair, res = other, other_res
        if res > tol:
            raise ConvergenceError("enumerated point exceeds residual tolerance")
        pts.extend(pair)
    return pts


def _points_without_cancellation(x4: complex, g: complex,
                                 x3_first: complex) -> List[ComplexPoint]:
    """The two points over the root x4 of rho1, from formulas that take no
    difference of nearly equal numbers.

    At the four roots with x4^4 near 4 (small |gamma|), both 4 - x4^4 in
    the discriminant of rho2 and 2i x4^3 - x3 x4^5 in x2 cancel, and the
    latter is then divided by gamma.  y = x4^4 solves y^2 - 4y + gamma^2
    = 0, so 4 - x4^4 = gamma^2 / x4^4, which gives
    x3 = (i x4^2 + sigma gamma / x4^2) / 2 and
    x2 = (i gamma / x4 - sigma x4^3) / 2 for sigma = 1 and -1.  The point
    whose x3 is nearer x3_first, the first quadratic-formula root, comes
    first, so the order follows the quadratic formula's; the two points
    always take opposite sigma, even where the discriminant is all noise.
    """
    h = g / (x4 * x4)
    near = 2.0 * x3_first - 1j * x4 * x4
    first = 1.0 if abs(h - near) <= abs(h + near) else -1.0
    return [ComplexPoint((1.0, (1j * g / x4 - sigma * x4 ** 3) / 2.0,
                          (1j * x4 * x4 + sigma * h) / 2.0, x4))
            for sigma in (first, -first)]


def distinct_count(points: List[ComplexPoint],
                   threshold: float = DISTINCT_TOL) -> int:
    reps: List[ComplexPoint] = []
    for p in points:
        if all(proj_distance(p.coords, q.coords) > threshold for q in reps):
            reps.append(p)
    return len(reps)


def sigma_numeric(p: ComplexPoint) -> ComplexPoint:
    import numpy as np

    if np.count_nonzero(p.coords) == 1:    # a basis point: e1 <-> e2, e3 <-> e4
        return ComplexPoint(p.coords[[1, 0, 3, 2]])
    if p.coords[0] == 0 or p.coords[2] == 0:
        raise DegeneratePointError(
            "sigma is undefined where x1 = 0 or x3 = 0 off the basis points")
    # the chart map (1, i*a2/a3^2, 1/a3, -i*a4) times x1*x3^2, with x1 and
    # x3 scaled by their larger modulus: nothing divides or underflows
    x1, x2, x3, x4 = p.coords
    s = max(abs(x1), abs(x3))
    y1, y3 = x1 / s, x3 / s
    return ComplexPoint((s * y1 * y3 * y3, 1j * y1 * y1 * x2, s * y1 * y1 * y3,
                         -1j * y3 * y3 * x4))


@lru_cache(maxsize=1)
def _line_polys_symbolic() -> _TermTable:
    """The 46 line-scheme polynomials on M12..M34, g, compiled once."""
    return _TermTable(load_fixtures().parse_line_polys(None))


def line_residual(m: Sequence[complex], gamma: complex) -> float:
    """max |f(m)| over the 46, m the six coordinates M12..M34."""
    return _line_polys_symbolic().max_abs(tuple(m[:6]) + (gamma,))


def _pluecker_join(a: Sequence[complex], b: Sequence[complex]) -> np.ndarray:
    """The join of two points, scaled to largest modulus 1."""
    import numpy as np

    v = np.asarray(pluecker_join(a, b), dtype=complex)
    return v / np.max(np.abs(v))


def _line_separation(g: complex) -> float:
    """The least gap allowed between two of a point's six lines, and between
    the point and a coordinate hyperplane.  The smallest coordinate of a
    generic point, and with it the least chordal distance between its
    lines, falls like |gamma|^(-1/2) (about 1e-6 at gamma = 2^40), so the
    gap is DISTINCT_TOL * min(1, |gamma|^(-1/2)), floored at
    LINE_DISTINCT_FLOOR.  The least true gap reaches that floor near
    gamma = 2^80 (2^-40, about 9.1e-13), so from there on two lines read
    as coincident and the check refuses."""
    return max(LINE_DISTINCT_FLOOR, DISTINCT_TOL * min(1.0, abs(g) ** -0.5))


def six_lines_numeric(p: ComplexPoint, gamma, tol: float = DEFAULT_TOL
                      ) -> List[np.ndarray]:
    """The six lines through a generic point, via the closed formulas; each
    line is checked against all 46 scheme polynomials and the lines are
    pairwise separated."""
    g = _float_gamma(gamma)
    c = p.coords / p.coords[0]
    x2, x3, x4 = c[1], c[2], c[3]
    sep = _line_separation(g)
    if min(abs(x2), abs(x3), abs(x4)) < sep:
        raise DegeneratePointError("point too close to a coordinate hyperplane")
    joins = generic_line_points(1, x2, x3, x4, 1j)
    l6 = min(("L6a", "L6b"), key=lambda name: max(   # the conic line p is on
        abs(d) for d in incidence_contractions(pluecker_join(*joins[name]), c)))
    lines = [_pluecker_join(*joins[name])
             for name in ("L1", "L2", "L3", "L4", "L5", l6)]
    for m in lines:
        if line_residual(m, g) > tol:
            raise ConvergenceError("line exceeds residual tolerance")
    for a, b in combinations(lines, 2):
        if proj_distance(a, b) < sep:
            raise ConvergenceError("two of the six lines coincide numerically")
    return lines


NumericRow = Tuple[Tuple[complex, ...], Tuple[Tuple[complex, ...], ...]]


def numeric_table(gamma, tol: float) -> Tuple[NumericRow, ...]:
    """The sixteen generic points of `enumerate_points`, each with the six
    lines of `six_lines_numeric` through it, as tuples of complex numbers.
    Raises as those two do."""
    rows = []
    for p in enumerate_points(gamma, tol=tol)[4:]:
        lines = six_lines_numeric(p, gamma, tol=tol)
        rows.append((tuple(map(complex, p.coords)),
                     tuple(tuple(map(complex, m)) for m in lines)))
    return tuple(rows)


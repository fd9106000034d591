"""What the paper states about A(gamma), as checks on qp3's JSON output.

The table below is written by hand from PAPER.md; nothing in it is taken
from qp3 output.  `check` returns the list of facts an output contradicts.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from gammas import parse_parts

# job name -> qp3 arguments after --gamma
COMMANDS: Dict[str, Tuple[str, ...]] = {
    "point-scheme": ("point-scheme",),
    "line-verify": ("line-scheme", "--verify"),
    "six-lines": ("lines-through", "--symbolic"),
    "e1": ("lines-through", "--point", "e1"),
    "e2": ("lines-through", "--point", "e2"),
    "e3": ("lines-through", "--point", "e3"),
    "e4": ("lines-through", "--point", "e4"),
    "numeric": ("lines-through", "--numeric"),
}

# the eight commands of one session visit, in order
SESSION = tuple(COMMANDS)

POINTS_WITH_MULTIPLICITY = 20
DISTINCT_POINTS = 20
DISTINCT_POINTS_GAMMA2_4 = 12          # eight of multiplicity two
MULTIPLICITY_PROFILE = {"1": 20}
MULTIPLICITY_PROFILE_GAMMA2_4 = {"1": 4, "2": 8}
SIGMA_ORBITS = [2, 2, 4, 4, 4, 4]      # stated for gamma^2 != 4
LINE_SCHEME_POLYNOMIALS = 46
COMPONENTS = 7
COMPONENTS_GAMMA2_16 = 8
# a spatial elliptic curve (degree 4), four planar elliptic curves
# (degree 3) and two conics (degree 2)
COMPONENT_KINDS = {"spatial_elliptic": 1, "planar_elliptic": 4, "conic": 2}
KIND_DEGREE = {"spatial_elliptic": 4, "planar_elliptic": 3, "conic": 2}
LINE_SCHEME_HILBERT = [1, 20]          # a curve of degree twenty
LINES_THROUGH_GENERIC_POINT = 6
GENERIC_POINTS = 16                    # the twenty points minus e1..e4


def argv(job: str, gamma: str) -> List[str]:
    return [f"--gamma={gamma}", *COMMANDS[job], "--format", "json"]


def gamma_squared(gamma: str) -> Tuple[Fraction, Fraction]:
    re, im = parse_parts(gamma)
    return re * re - im * im, 2 * re * im


def _expect(problems: List[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, paper says {want!r}")


def check(job: str, gamma: str, rc: Optional[int], stdout: str) -> List[str]:
    """Facts of PAPER.md that this output (and exit code) contradicts."""
    problems: List[str] = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    try:
        doc = json.loads(stdout)
    except ValueError:
        return problems + ["stdout is not one JSON document"]
    if not isinstance(doc, dict):
        return problems + ["stdout is not a JSON object"]
    try:
        _CHECKS[COMMANDS[job][0]](job, gamma, doc, problems)
    except (KeyError, TypeError, AttributeError) as exc:
        problems.append(f"malformed report: {exc!r}")
    return problems


def _point_scheme(job, gamma, doc, problems):
    sq = gamma_squared(gamma)
    _expect(problems, "verified", doc["verified"], True)
    _expect(problems, "points with multiplicity",
            doc["total_with_multiplicity"], POINTS_WITH_MULTIPLICITY)
    if sq == (4, 0):
        _expect(problems, "distinct points", doc["distinct_count"],
                DISTINCT_POINTS_GAMMA2_4)
        _expect(problems, "multiplicity profile", doc["multiplicity_profile"],
                MULTIPLICITY_PROFILE_GAMMA2_4)
    else:
        _expect(problems, "distinct points", doc["distinct_count"],
                DISTINCT_POINTS)
        _expect(problems, "multiplicity profile", doc["multiplicity_profile"],
                MULTIPLICITY_PROFILE)
        _expect(problems, "sigma orbit profile", sorted(doc["sigma_orbits"]),
                SIGMA_ORBITS)


def _line_scheme(job, gamma, doc, problems):
    comps = doc["components"]
    _expect(problems, "polynomials", len(doc["polynomials"]),
            LINE_SCHEME_POLYNOMIALS)
    if gamma_squared(gamma) == (16, 0):
        _expect(problems, "components", len(comps), COMPONENTS_GAMMA2_16)
    else:
        _expect(problems, "components", len(comps), COMPONENTS)
        _expect(problems, "component kinds",
                dict(Counter(c["kind"] for c in comps)), COMPONENT_KINDS)
    for c in comps:
        if c["kind"] in KIND_DEGREE:
            _expect(problems, f"degree of {c['name']}", c["degree"],
                    KIND_DEGREE[c["kind"]])
    _expect(problems, "component degree sum",
            sum(c["degree"] for c in comps), LINE_SCHEME_HILBERT[1])
    dec = doc["decomposition"]
    _expect(problems, "verified", dec["verified"], True)
    _expect(problems, "Hilbert (dimension, degree)",
            list(dec["hilbert_dimension_degree"]), LINE_SCHEME_HILBERT)
    _expect(problems, "reported degree sum", dec["component_degree_sum"],
            LINE_SCHEME_HILBERT[1])


def _lines_through(job, gamma, doc, problems):
    _expect(problems, "verified", doc["verified"], True)
    if job == "numeric":
        pts = doc["points"]
        _expect(problems, "generic points", len(pts), GENERIC_POINTS)
        _expect(problems, "lines per point", sorted({len(p["lines"]) for p in pts}),
                [LINES_THROUGH_GENERIC_POINT])
    elif job == "six-lines":
        _expect(problems, "lines through a generic point", doc["total"],
                LINES_THROUGH_GENERIC_POINT)
        for b in doc["branches"]:
            _expect(problems, f"lines on branch {b['name']}", len(b["lines"]),
                    LINES_THROUGH_GENERIC_POINT)
            _expect(problems, f"distinct lines on branch {b['name']}",
                    b["distinct"], True)
            for ln in b["lines"]:
                flags = [ln[k] for k in ("through_point", "in_component",
                                         "in_line_scheme", "well_defined")]
                _expect(problems, f"line {ln['component']} on {b['name']}",
                        flags, [True] * 4)
    else:
        _expect(problems, f"lines through {job}", doc["total"], "infinite")
        _expect(problems, "infinitely many", doc["infinite"], True)


_CHECKS = {"point-scheme": _point_scheme, "line-scheme": _line_scheme,
           "lines-through": _lines_through}

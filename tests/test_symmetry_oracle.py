"""The algebra's symmetries as an oracle for `point-scheme`.

x2 -> -x2 maps A(gamma) onto A(-gamma), and complex conjugation with a
reversal of words maps A(gamma) onto A(conj gamma)
(tests/test_quadratic_algebra.py checks both on the relations).  So the
point scheme of A(gamma) must carry the same counts, profile, sigma
orbits and verdicts as those of A(-gamma) and A(conj gamma), and sigma
read off the relations must commute with x2 -> -x2.
"""

import random
from fractions import Fraction

import pytest

from qp3.gaussian import gr
from qp3.point_scheme import BASIS_POINTS, ProjectivePoint, count_points, sigma
from qp3.quadratic_algebra import make_A


def _seeded_gammas(seed=7, n=3):
    """n Gaussian rationals of small height, nonzero."""
    rng = random.Random(seed)
    return [gr(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
               Fraction(rng.randint(1, 9), rng.randint(1, 5))) for _ in range(n)]


GAMMAS = [*_seeded_gammas(), gr(2), gr(-2), gr(0, 2), gr(0, -2), gr(4), gr(-4)]


def _conjugate(g):
    return gr(Fraction(g.a, g.d), Fraction(-g.b, g.d))


def _summary(gamma):
    r = count_points(make_A(gamma))
    return (dict(r.checks), dict(r.chart_counts), r.total_with_multiplicity,
            r.distinct_count, dict(r.multiplicity_profile), r.sigma_orbits)


@pytest.mark.parametrize("gamma", GAMMAS, ids=str)
def test_point_scheme_agrees_at_minus_gamma_and_conjugate_gamma(gamma):
    here = _summary(gamma)
    assert here[0]["chart_counts_sum_to_20"]
    assert _summary(-gamma) == here
    assert _summary(_conjugate(gamma)) == here


def _flip_x2(p):
    return ProjectivePoint((p[0], -p[1], p[2], p[3]))


@pytest.mark.parametrize("gamma", GAMMAS, ids=str)
def test_sigma_commutes_with_the_sign_of_x2(gamma):
    A, B = make_A(gamma), make_A(-gamma)
    for e in BASIS_POINTS.values():
        assert sigma(_flip_x2(e), B) == _flip_x2(sigma(e, A))

"""qp3: exact point-scheme and line-scheme computations for the family of
quadratic algebras A(gamma) on four generators, over Q(i)."""

from .gaussian import GaussianRational, gr
from .multipoly import (MonomialOrder, Polynomial, VarSet, parse_poly,
                        print_poly, substitute)
from .polylinalg import PolyMatrix, ScalarMatrix, all_minors, minor
from .groebner import (GroebnerBasis, GroebnerLimits, Ideal,
                       ResourceLimitError, buchberger, eliminate,
                       hilbert_dimension_degree, ideal_member, intersect,
                       invert_mod, is_unit_mod, limits_scope, normal_form,
                       quotient_dimension, radical_member, saturate)
from .quadratic_algebra import (QuadraticAlgebra, koszul_dual_relations,
                                m_hat, make_A, psi1_on_pluecker,
                                psi2_on_pluecker, relation_matrix)
from .point_scheme import (PointSchemeReport, ProjectivePoint, count_points,
                           point_ideal, rho_system, sigma,
                           verify_vanishing_pairs)
from .line_scheme import (ComponentCatalog, LineSchemeIdeal, build_big_matrix,
                          component_catalog, fixture_forensics,
                          jacobian_smoothness_check, line_scheme_ideal,
                          verify_decomposition)
from .plucker import (PluckerLine, line_from_points, lines_through_point,
                      point_on_line, ruling_lines, surface_containment)
from .numeric import enumerate_points, six_lines_numeric
from .fixtures import FixtureSet, load_fixtures

__version__ = "0.1.0"

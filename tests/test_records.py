"""The record and value types of qp3: NamedTuples and slotted classes that
refuse assignment and deletion, compare by value (a Groebner basis and a
matrix by identity) and hash where their fields hash."""

from types import MappingProxyType

import numpy as np
import pytest

from qp3.fixtures import FixtureSet, load_fixtures
from qp3.gaussian import gr
from qp3.groebner import GroebnerLimits, Ideal, buchberger
from qp3.line_scheme import (Component, ComponentCatalog, DecompositionReport,
                             LineSchemeIdeal)
from qp3.multipoly import MonomialOrder, VarSet, parse_poly
from qp3.numeric import ComplexPoint
from qp3.plucker import (BranchReport, LineCheck, LineFamily, PluckerLine,
                         SixLinesReport)
from qp3.point_scheme import PointSchemeReport, ProjectivePoint
from qp3.polylinalg import PolyMatrix
from qp3.quadratic_algebra import M_VARS, X_VARS, QuadraticAlgebra, make_A
from printed import FixtureForensics

P = parse_poly("M12*M34 - M13*M24 + M14*M23", M_VARS)
X1 = parse_poly("x1", X_VARS)


def _component():
    return Component("L2", Ideal([P]))


# each factory builds a new record with the same field values every call
RECORDS = {
    "FixtureSet": lambda: FixtureSet(*load_fixtures()),
    "GroebnerLimits": lambda: GroebnerLimits(max_pairs=7),
    "LineSchemeIdeal": lambda: LineSchemeIdeal(gr(1), (P,), Ideal([P])),
    "FixtureForensics": lambda: FixtureForensics(gr(1), {0: 0}, {1: [(2, gr(3))]},
                                                 {0: 0}, {1: P}),
    "Component": _component,
    "ComponentCatalog": lambda: ComponentCatalog(gr(1), (_component(),)),
    "DecompositionReport": lambda: DecompositionReport(
        gr(1), True, True, (1, 20), MappingProxyType({"L2": (1, 2)}), 20),
    "LineFamily": lambda: LineFamily("L2", X_VARS, (X1,), (X1,), (X1,)),
    "LineCheck": lambda: LineCheck("L2", True, True, True, True),
    "BranchReport": lambda: BranchReport(
        "x2", True, 6, (LineCheck("L2", True, True, True, True),), True),
    "SixLinesReport": lambda: SixLinesReport(gr(1), "e1", infinite=True),
    "PointSchemeReport": lambda: PointSchemeReport(
        gr(1), MappingProxyType({"x1": 20}), 20, 20, MappingProxyType({1: 20}),
        (4, 4), True, MappingProxyType({"rho": True})),
    "QuadraticAlgebra": lambda: QuadraticAlgebra(gr(1), make_A(gr(1)).relations),
    "ComplexPoint": lambda: ComplexPoint((1, 2, 3, 4)),
    "ProjectivePoint": lambda: ProjectivePoint((1, 2, 3, 4)),
    "PluckerLine": lambda: PluckerLine((1, 0, 0, 0, 0, 0)),
    "MonomialOrder": MonomialOrder.lex,
    "GroebnerBasis": lambda: buchberger(Ideal([X1])),
    "PolyMatrix": lambda: PolyMatrix([[X1]]),
    "GaussianRational": lambda: gr(1, 2),
    "VarSet": lambda: VarSet(["x", "y"]),
    "Polynomial": lambda: X1 + 1,
    "Ideal": lambda: Ideal([X1]),
}
# compared by identity, not by their fields
IDENTITY = {"ComplexPoint", "GroebnerBasis", "PolyMatrix"}


def _hashable(value):
    try:
        hash(value)
    except TypeError:
        return False
    return True


def _first_field(record):
    return (type(record)._fields if isinstance(record, tuple)
            else [f for c in type(record).__mro__
                  for f in getattr(c, "__slots__", ())])[0]


@pytest.mark.parametrize("name", RECORDS)
def test_record_refuses_assignment(name):
    record = RECORDS[name]()
    field = _first_field(record)
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) is before


@pytest.mark.parametrize("name", RECORDS)
def test_record_refuses_deletion(name):
    record = RECORDS[name]()
    field = _first_field(record)
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before


@pytest.mark.parametrize("name", sorted(set(RECORDS) - IDENTITY))
def test_equal_fields_make_equal_records(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert a is not b and a == b and not a != b
    if _hashable(a):
        assert hash(a) == hash(b)


def test_hash_where_the_fields_hash():
    hashable = {n for n in RECORDS if _hashable(RECORDS[n]())}
    assert hashable == {"GroebnerLimits", "LineSchemeIdeal", "Component",
                        "ComponentCatalog", "LineFamily", "LineCheck",
                        "BranchReport", "QuadraticAlgebra", "ComplexPoint",
                        "ProjectivePoint", "PluckerLine", "MonomialOrder",
                        "GroebnerBasis", "PolyMatrix", "GaussianRational",
                        "VarSet", "Polynomial", "Ideal"}


def test_complex_points_compare_by_identity():
    a, b = ComplexPoint((1, 2, 3, 4)), ComplexPoint((1, 2, 3, 4))
    assert a == a and a != b and np.array_equal(a.coords, b.coords)
    assert len({a, b}) == 2
    assert repr(a) == f"ComplexPoint(coords={a.coords!r})"


def test_slotted_records_repr_their_fields():
    C = RECORDS["ComponentCatalog"]()
    assert repr(C) == f"ComponentCatalog(gamma={gr(1)!r}, components={C.components!r})"
    A = make_A(gr(1))
    assert repr(A) == f"QuadraticAlgebra(gamma={gr(1)!r}, relations={A.relations!r})"


def test_algebras_hash_by_gamma_and_differ_by_relations():
    A = make_A(gr(1))
    swapped = QuadraticAlgebra(gr(1), A.relations[::-1])
    assert hash(swapped) == hash(A) and swapped != A
    assert A != make_A(gr(2))


def test_catalog_iterates_its_components():
    C = RECORDS["ComponentCatalog"]()
    assert list(C) == [_component()] and len(C) == 1
    assert C.get("L2") is C.components[0]
    assert C != ComponentCatalog(gr(2), C.components)


def test_record_properties_and_replace():
    line = RECORDS["LineCheck"]()
    assert line.ok and not line._replace(well_defined=False).ok
    assert GroebnerLimits()._replace(max_pairs=7) == RECORDS["GroebnerLimits"]()


def test_six_lines_report_default_is_shared_and_read_only():
    a, b = SixLinesReport(gr(1), "e1"), SixLinesReport(gr(2), "e2")
    assert a.component_dimensions is b.component_dimensions
    with pytest.raises(TypeError):
        a.component_dimensions["L1"] = (1, 1)
    assert dict(b.component_dimensions) == {}

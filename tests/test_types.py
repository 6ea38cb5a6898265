"""Value types and result records: immutability, equality, hashing and
field order."""

import pytest

from impsolve import (COMPONENTWISE, FLOAT, INSIDE, ITERATIVE, ComparisonEquation,
                      EquationSpec, GraphPoint, HillePoint, IterationTrace,
                      LatticeVec, MajorantSampleReport, MajorantViolation,
                      Membership, RadiusEstimate, RayRadius, RegionSample, Series,
                      SeriesMap, SolutionSeries)

SERIES = Series(2, 3, {(1, 0): 1.0, (0, 2): 1.0}, FLOAT)
PSI = SeriesMap((SERIES,))
PHI = SeriesMap((Series(1, 3, {(1,): 1.0}, FLOAT),))

GRAPH_POINT = GraphPoint(0.1, 0.2, 0.4)
# one instance of each result record besides GRAPH_POINT, and its repr
RECORDS = [
    (Membership(INSIDE, LatticeVec((0.5,)), 3),
     "Membership(verdict='inside', principal_Y=LatticeVec(entries=(0.5,)), "
     "iterations_used=3, witness=None)"),
    (IterationTrace((LatticeVec((0.0,)),), None, INSIDE, None),
     "IterationTrace(iterates_Y=(LatticeVec(entries=(0.0,)),), iterates_y=None, "
     "verdict='inside', error_bounds=None)"),
    (HillePoint(0.25, 0.5, 0.0, 1e-17, "found"),
     "HillePoint(X_star=0.25, Y_star=0.5, residual_fixed=0.0, "
     "residual_derivative=1e-17, status='found')"),
    (RegionSample((GRAPH_POINT,), 0, (1.0,)),
     "RegionSample(points=(GraphPoint(X=0.1, Y=0.2, dPsi_dY=0.4),), "
     "turning_index=0, omitted=(1.0,))"),
    (RayRadius(0.2, 0.3, False),
     "RayRadius(t_inside=0.2, t_outside=0.3, unbounded=False)"),
    (MajorantViolation("value", 0, (0.1,), None, 1.0, 0.5),
     "MajorantViolation(kind='value', component=0, point=(0.1,), increment=None, "
     "lhs=1.0, rhs=0.5)"),
    (MajorantSampleReport(4, 2, ()),
     "MajorantSampleReport(points_checked=4, increments_checked=2, violations=())"),
    (RadiusEstimate(0.25, 40), "RadiusEstimate(estimate=0.25, degree=40)"),
]

VALUES = [
    (SERIES, ("num_vars", "degree_cap", "terms", "mode")),
    (PSI, ("components",)),
    (LatticeVec((1.0, 2.0)), ("entries",)),
    (EquationSpec(PSI, COMPONENTWISE, COMPONENTWISE), ("psi", "profile_x", "profile_y")),
    (ComparisonEquation(PSI), ("psi", "profile_x", "profile_y")),
    (SolutionSeries(PHI, ITERATIVE), ("phi", "source")),
    (GRAPH_POINT, GRAPH_POINT._fields),
] + [(record, record._fields) for record, _ in RECORDS]


@pytest.mark.parametrize("value, fields", VALUES,
                         ids=[type(v).__name__ for v, _ in VALUES])
def test_a_field_cannot_be_assigned(value, fields):
    for name in fields:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        assert getattr(value, name) is before
    # nor a new name: a record subclass without __slots__ = () takes it into a __dict__
    with pytest.raises(AttributeError):
        value.not_a_field = None


def test_a_comparison_is_not_equal_to_its_equation():
    # the same psi and profiles, but a ComparisonEquation vouches for more
    assert EquationSpec(PSI, COMPONENTWISE, COMPONENTWISE) != ComparisonEquation(PSI)
    assert ComparisonEquation(PSI) == ComparisonEquation(PSI)
    assert EquationSpec(PSI, COMPONENTWISE, COMPONENTWISE) == \
        EquationSpec(PSI, COMPONENTWISE, COMPONENTWISE)


def test_equal_vectors_hash_equal():
    a, b = LatticeVec([1.0, 2.0]), LatticeVec((1.0, 2.0))
    assert a == b and hash(a) == hash(b)
    assert len({a, b, LatticeVec((2.0, 1.0))}) == 2


def test_value_repr_names_every_field():
    assert repr(LatticeVec([1, 2])) == "LatticeVec(entries=(1, 2))"
    assert repr(SolutionSeries(PHI, ITERATIVE)) == (
        "SolutionSeries(phi=SeriesMap(components=(Series(num_vars=1, degree_cap=3, "
        "terms=mappingproxy({(1,): 1.0}), mode='float'),)), source='iterative')")


@pytest.mark.parametrize("record, text", RECORDS,
                         ids=[type(r).__name__ for r, _ in RECORDS])
def test_a_record_keeps_its_field_order(record, text):
    # positional construction and the repr both follow the declaration
    # order, which is also the key order of the CLI's JSON documents
    assert repr(record) == text

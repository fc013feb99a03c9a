"""The seven result records are named tuples: their repr, construction, immutability and hash."""

from fractions import Fraction

import pytest

from spiraldet.closed_forms import ReductionData
from spiraldet.determinant_engine import VerificationReport, WedgeFactorization, Witness
from spiraldet.exponent_algebra import LaurentPoly
from spiraldet.funceq import FamilyKind, FamilySpec, ResidualReport
from spiraldet.spiral_builder import LinearForm

X = LaurentPoly.variable("x")
TWO = LaurentPoly.constant(2)


def _records():
    """(positional instance, keyword instance, repr) of each record.

    Each repr is the text the frozen-dataclass records printed, so a record
    reads the same in a failure message or a log as it did before.
    """
    witness = Witness((1, -2, 3, 4, 5), Fraction(1, 3), 7)
    witness_repr = "Witness(point=(1, -2, 3, 4, 5), lhs=Fraction(1, 3), rhs=7)"
    return [
        (LinearForm(1, 0, -2, 3), LinearForm(e_b=1, e_c=0, e_x=-2, e_y=3),
         "LinearForm(e_b=1, e_c=0, e_x=-2, e_y=3)"),
        (witness, Witness(point=(1, -2, 3, 4, 5), lhs=Fraction(1, 3), rhs=7), witness_repr),
        (VerificationReport(5, 20, (witness,)),
         VerificationReport(seed=5, trials=20, witnesses=(witness,)),
         f"VerificationReport(seed=5, trials=20, witnesses=({witness_repr},))"),
        (WedgeFactorization(-1, X, (X, TWO)),
         WedgeFactorization(sign=-1, corner_factor=X, antidiagonal_factors=(X, TWO)),
         "WedgeFactorization(sign=-1, corner_factor=LaurentPoly(x), "
         "antidiagonal_factors=(LaurentPoly(x), LaurentPoly(2)))"),
        (ReductionData(3, X, X, X, X, X, X, X),
         ReductionData(size=3, centre_numerator=X, pivot=X, up_increment=X, down_increment=X,
                       scalar_factor=X, row_difference=X, border=X),
         "ReductionData(size=3, centre_numerator=LaurentPoly(x), pivot=LaurentPoly(x), "
         "up_increment=LaurentPoly(x), down_increment=LaurentPoly(x), "
         "scalar_factor=LaurentPoly(x), row_difference=LaurentPoly(x), "
         "border=LaurentPoly(x))"),
        (FamilySpec(FamilyKind.POWER_SYMMETRIC, 1.5, True),
         FamilySpec(kind=FamilyKind.POWER_SYMMETRIC, alpha=1.5, imaginary=True),
         "FamilySpec(kind=<FamilyKind.POWER_SYMMETRIC: 'power_symmetric'>, alpha=1.5, "
         "imaginary=True, c1=1.0, c2=1.0)"),
        (ResidualReport("6.1", 10, 1.5e-12, (0.5, 2.0)),
         ResidualReport(relation="6.1", samples=10, max_residual=1.5e-12, argmax=(0.5, 2.0)),
         "ResidualReport(relation='6.1', samples=10, max_residual=1.5e-12, argmax=(0.5, 2.0))"),
    ]


RECORDS = _records()
IDS = [type(positional).__name__ for positional, _, _ in RECORDS]


@pytest.mark.parametrize("positional, keyword, text", RECORDS, ids=IDS)
def test_repr_is_the_dataclass_text(positional, keyword, text):
    assert repr(positional) == text
    assert repr(keyword) == text


@pytest.mark.parametrize("positional, keyword, text", RECORDS, ids=IDS)
def test_keyword_construction_equals_positional(positional, keyword, text):
    assert type(keyword) is type(positional)
    assert keyword == positional


def test_family_spec_defaults():
    spec = FamilySpec(FamilyKind.ZERO)
    assert (spec.kind, spec.alpha, spec.imaginary, spec.c1, spec.c2) == (
        FamilyKind.ZERO, 0.0, False, 1.0, 1.0)
    assert repr(spec) == ("FamilySpec(kind=<FamilyKind.ZERO: 'zero'>, alpha=0.0, "
                          "imaginary=False, c1=1.0, c2=1.0)")


@pytest.mark.parametrize("positional, keyword, text", RECORDS, ids=IDS)
def test_assignment_raises_attribute_error(positional, keyword, text):
    field = positional._fields[0]
    with pytest.raises(AttributeError):
        setattr(positional, field, getattr(positional, field))
    with pytest.raises(AttributeError):
        positional.extra = 1  # no __dict__: __slots__ is empty


@pytest.mark.parametrize("positional, keyword, text", RECORDS, ids=IDS)
def test_equal_records_hash_equal(positional, keyword, text):
    rebuilt = _records()[IDS.index(type(positional).__name__)][0]
    assert rebuilt is not positional and rebuilt == positional
    if any(isinstance(value, LaurentPoly) for value in positional):
        # a LaurentPoly is unhashable, so a record holding one is too, as before
        for record in (positional, rebuilt):
            with pytest.raises(TypeError, match="unhashable type: 'LaurentPoly'"):
                hash(record)
    else:
        assert hash(rebuilt) == hash(positional) == hash(keyword)

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from borderbasis import parse_field
from borderbasis.fields import (
    DEFAULT_EPS,
    FieldDivisionError,
    FloatField,
    PrimeField,
    RationalField,
)


def test_rational_arith():
    f = RationalField()
    assert f.add(Fraction(1, 3), Fraction(1, 6)) == Fraction(1, 2)
    assert f.is_zero(f.sub(f.one, f.one))
    assert f.to_str(Fraction(-3, 4)) == "-3/4"
    assert f.to_str(Fraction(5)) == "5"


def test_prime_field_arith():
    f = PrimeField(7)
    assert f.mul(3, 5) == 1
    assert f.inv(3) == 5
    assert f.add(6, 6) == 5
    with pytest.raises(FieldDivisionError):
        f.inv(0)


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(91)
    PrimeField(65537)
    PrimeField(1000003)


def test_float_eps_zero_test():
    f = FloatField(1e-10)
    assert f.is_zero(5e-11)
    assert not f.is_zero(2e-10)
    with pytest.raises(FieldDivisionError):
        f.div(1.0, 1e-12)


def test_float_eps_zero_means_exact():
    f = FloatField(0.0)
    assert not f.is_zero(1e-300)
    assert f.is_zero(0.0)


def test_default_eps():
    assert DEFAULT_EPS == 1e-10
    assert FloatField().eps == 1e-10


def test_is_zero_monotone_in_eps():
    for a in (0.0, 1e-12, 5e-11, 2e-10, 1.0):
        for e1, e2 in ((1e-12, 1e-10), (1e-10, 1e-6)):
            if FloatField(e1).is_zero(a):
                assert FloatField(e2).is_zero(a)


def test_parse_field_strings():
    assert parse_field("qq").name == "qq"
    assert parse_field("fp:65537").p == 65537
    assert parse_field("f64:1e-10").eps == 1e-10
    with pytest.raises(ValueError):
        parse_field("gf:4")


@pytest.mark.parametrize("spec", ["f64:nan", "f64:inf", "f64:-inf"])
def test_parse_field_rejects_non_finite_eps(spec):
    # nan passed every zero test and inf zeroed every coefficient
    with pytest.raises(ValueError):
        parse_field(spec)


@given(
    st.fractions(max_denominator=50),
    st.fractions(max_denominator=50).filter(lambda q: q != 0),
)
def test_rational_div_roundtrip(a, b):
    f = RationalField()
    assert f.mul(f.div(a, b), b) == a


@given(st.integers(0, 65536), st.integers(1, 65536))
def test_prime_div_roundtrip(a, b):
    f = PrimeField(65537)
    assert f.mul(f.div(a, b), b) == a % 65537


@given(st.integers(1, 65536), st.integers(1, 65536))
def test_prime_product_nonzero(a, b):
    f = PrimeField(65537)
    assert not f.is_zero(f.mul(a, b))

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from borderbasis import parse_field
from borderbasis.fields import (
    DEFAULT_EPS,
    FieldDivisionError,
    FloatField,
    NumericError,
    PrimeField,
    RationalField,
    float64_sums_fit,
    int64_sums_fit,
    is_prime,
    residue_product,
)


def test_rational_arith():
    f = RationalField()
    assert f.normalize(Fraction(1, 3) + Fraction(1, 6)) == Fraction(1, 2)
    assert f.is_zero(f.normalize(f.one - f.one))
    assert f.to_str(Fraction(-3, 4)) == "-3/4"
    assert f.to_str(Fraction(5)) == "5"


def test_prime_field_arith():
    f = PrimeField(7)
    assert f.normalize(3 * 5) == 1
    assert f.inv(3) == 5
    assert f.normalize(6 + 6) == 5
    with pytest.raises(FieldDivisionError):
        f.inv(0)


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(91)
    PrimeField(65537)
    PrimeField(1000003)


# Carmichael numbers, a strong pseudoprime to bases 2, 3, 5, 7, the two
# largest primes below 2^31, the Fermat number 2^32 + 1 = 641 * 6700417, a
# strong pseudoprime to every prime base up to 37, and 2^61 - 1
@pytest.mark.parametrize(
    "p",
    [561, 1105, 25326001, 2147483629, 2147483647, 4294967297, 318665857834031151167461, 2**61 - 1],
)
def test_prime_field_primality_near_the_trust_bound(p):
    prime = p in (2147483629, 2147483647, 2**61 - 1)
    assert is_prime(p) == prime
    if prime:
        assert PrimeField(p).p == p
    else:
        with pytest.raises(ValueError):
            PrimeField(p)


def test_float_eps_zero_test():
    f = FloatField(1e-10)
    assert f.is_zero(5e-11)
    assert not f.is_zero(2e-10)
    with pytest.raises(FieldDivisionError):
        f.inv(1e-12)


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


@pytest.mark.parametrize("eps", [0.0, 1e-10, 1.234567891e-10, 5e-324])
def test_float_field_name_gives_its_eps_back(eps):
    # six significant digits where they round-trip ("f64:1e-10", "f64:0"),
    # every digit otherwise, so a report names the field the run used
    assert parse_field(FloatField(eps).name).eps == eps


def test_float_field_names_that_round_trip_are_unchanged():
    assert [FloatField(e).name for e in (0.0, 1e-10, 1e-06, 0.5)] == ["f64:0", "f64:1e-10", "f64:1e-06", "f64:0.5"]
    assert FloatField(1.234567891e-10).name == "f64:1.234567891e-10"


@pytest.mark.parametrize(
    "field, values",
    [
        (RationalField(), [Fraction(2**70 + 1, 3), Fraction(-5, 2**66), Fraction(0), Fraction(7)]),
        (RationalField(), []),
        (PrimeField(1000003), [0, 5, -1, 1000003, 3 * 1000003 + 2, -(2**70), 2**64 + 9]),
        (PrimeField(2147483647), [2147483646, -2147483647, 2**40, -3, 2**90]),
        (PrimeField(2**61 - 1), [2**61 - 2, 2**61, -(2**61) - 5, 2**200 + 1, 0]),
        (FloatField(), [0.0, -1.5, 1e300, 5e-324]),
    ],
    ids=["qq", "qq-empty", "fp:1000003", "fp:2147483647", "fp:2305843009213693951", "f64"],
)
def test_decode_inverts_encode(field, values):
    # decode(*encode(v)) is v, reduced to least residues on a prime; qq
    # numerators may pass 2^64, and a prime's values may be negative or
    # unreduced, beyond int64 too
    array, scale = field.encode(values)
    assert field.decode(array, scale) == [field.normalize(c) for c in values]
    if isinstance(field, PrimeField):
        assert scale == 1 and array.dtype == field.dtype
    if isinstance(field, RationalField):
        assert array.dtype == object and all(Fraction(a, scale) == c for a, c in zip(array.tolist(), values))


def test_encode_keeps_the_shape_of_nested_lists():
    qq = RationalField()
    array, scale = qq.encode([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1), Fraction(0)]])
    assert scale == 6 and array.shape == (2, 2) and array.tolist() == [[3, 2], [6, 0]]
    array, scale = PrimeField(7).encode([[8, -1], [3, 14]])
    assert scale == 1 and array.tolist() == [[1, 6], [3, 0]]


@pytest.mark.parametrize("values", [[1.0, float("inf")], [1e308 * 10], [float("nan")]])
def test_f64_encode_of_an_overflow_raises_numeric_error(values):
    with pytest.raises(NumericError, match="float overflow"):
        FloatField().encode(values)


def test_products_of_encodings_decode_to_the_products_of_the_elements():
    # (u over s) @ (M over t) decodes over s*t to the field's sum of products
    rows = [[Fraction(1, 3), Fraction(-2, 5)], [Fraction(7, 2), Fraction(0)]]
    vec = [Fraction(3, 4), Fraction(-1, 6)]
    for field, conv in [(RationalField(), lambda c: c), (PrimeField(1000003), PrimeField(1000003).from_fraction)]:
        m = [[conv(c) for c in row] for row in rows]
        v = [conv(c) for c in vec]
        (a, s), (b, t) = field.encode(v), field.encode(m)
        expected = [field.normalize(sum(v[k] * m[k][j] for k in range(2))) for j in range(2)]
        assert field.decode(field.product(a, b), s * t) == expected


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
    assert f.normalize(f.normalize(a * f.inv(b)) * b) == a


@given(st.integers(0, 65536), st.integers(1, 65536))
def test_prime_div_roundtrip(a, b):
    f = PrimeField(65537)
    assert f.normalize(f.normalize(a * f.inv(b)) * b) == a % 65537


@given(st.integers(1, 65536), st.integers(1, 65536))
def test_prime_product_nonzero(a, b):
    f = PrimeField(65537)
    assert not f.is_zero(f.normalize(a * b))


def test_int64_range_of_the_prime_fields():
    # k*(p-1)^2 < 2^63: the benchmark prime takes the int64 kernel at any
    # realistic size, 2^31 - 1 only for sums of at most two products
    assert int64_sums_fit(PrimeField(1000003), 10**4)
    assert int64_sums_fit(PrimeField(2147483647), 2)
    assert not int64_sums_fit(PrimeField(2147483647), 3)
    assert not int64_sums_fit(RationalField(), 1)
    assert not int64_sums_fit(FloatField(), 1)


def test_float64_range_of_the_benchmark_prime():
    # k*(p-1)^2 < 2^53: the sums of 1000003 are exact in float64 up to 9,007
    # products, more than the |B+| of Katsura 6; none over qq or f64
    f = PrimeField(1000003)
    assert float64_sums_fit(f, 9007)
    assert not float64_sums_fit(f, 9008)
    assert not float64_sums_fit(RationalField(), 1)
    assert not float64_sums_fit(FloatField(), 1)


def test_residue_product_exact_at_each_route_bound():
    # sums of k products of p - 1 with itself at the bound of each route and
    # one term past it: float64 up to 9,007 terms over 1000003; int64 in
    # chunks of floor((2^63-1)/(p-1)^2) terms beyond, 922 over 100000007, 2
    # over 2147483647 (5 terms: a chunk that is not full) and 1 over
    # 3037000493, the largest prime whose residues fit int64; no term, and
    # a 1-D left operand; Python ints over 2^61 - 1.  Each equals the
    # Python-int product mod p, as int64 wherever (p-1)^2 < 2^63
    cases = [(1000003, 9007), (1000003, 9008), (100000007, 922), (100000007, 923), (2147483647, 3)]
    cases += [(2147483647, 5), (3037000493, 1), (3037000493, 2), (3037000493, 3), (2147483647, 0)]
    assert is_prime(3037000493) and not int64_sums_fit(PrimeField(3037000493), 2)
    assert not any(map(is_prime, range(3037000494, 3037000507)))
    assert not int64_sums_fit(PrimeField(3037000507), 1)
    for p, k in cases:
        a, b = np.full((2, k), p - 1, np.int64), np.full((k, 3), p - 1, np.int64)
        a[1] = np.arange(k) % p
        expected = [[sum(x * y for x, y in zip(row, col)) % p for col in b.T.tolist()] for row in a.tolist()]
        for left, want in [(a, expected), (a[0], expected[0])]:
            out = residue_product(left, b, PrimeField(p))
            assert out.dtype == np.int64
            assert out.tolist() == want
    p = 2**61 - 1
    a, b = np.full((2, 2), p - 1, object), np.full((2, 1), p - 2, object)
    out = residue_product(a, b, PrimeField(p))
    assert out.dtype == object and out.tolist() == [[2 * (p - 1) * (p - 2) % p]] * 2

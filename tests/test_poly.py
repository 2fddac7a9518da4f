import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borderbasis import (
    ParseError,
    Polynomial,
    format_poly,
    format_system,
    parse_polynomial,
    parse_system,
)
from borderbasis.fields import PrimeField, RationalField
from borderbasis.poly import (
    b_index,
    border,
    connected_component_of_one,
    divisor_closure,
    mono_div,
    mono_divides,
    mono_key,
    mono_lcm,
    mono_mul,
    mono_size,
    monomials_of_degree_at_most,
    prolong,
    stable_by_division,
)

from conftest import poly_of, seeded


def test_mono_ops():
    assert mono_lcm((2, 0), (0, 2)) == (2, 2)
    assert mono_mul((1, 2), (3, 0)) == (4, 2)
    assert mono_divides((1, 0), (1, 1))
    assert not mono_divides((2, 0), (1, 1))
    assert mono_div((2, 1), (1, 0)) == (1, 1)
    assert mono_size((2, 1)) == 3
    with pytest.raises(ValueError):
        mono_div((1, 0), (0, 1))


def test_prolong_border():
    one, x0, x1 = (0, 0), (1, 0), (0, 1)
    assert prolong({one}) == {one, x0, x1}
    assert border({(0, 0, 0)}) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    B = {one, x0, x1, (1, 1)}
    assert border(B) == {(2, 0), (0, 2), (2, 1), (1, 2)}
    assert border(B) | B == prolong(B)
    assert not border(B) & B


def test_b_index():
    B = {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert b_index((1, 1), B) == 0
    assert b_index((2, 1), B) == 1
    assert b_index((2, 2), B) == 2


def test_connectivity_and_stability():
    assert connected_component_of_one({(0, 0), (1, 1)}) != {(0, 0), (1, 1)}
    assert connected_component_of_one({(0, 0), (1, 0), (1, 1)}) == {(0, 0), (1, 0), (1, 1)}
    assert not stable_by_division({(0, 0), (1, 0), (1, 1)})
    assert stable_by_division({(0, 0), (1, 0), (0, 1), (1, 1)})


def test_stable_implies_connected_random():
    rng = seeded(7)
    for _ in range(100):
        n = rng.randint(1, 3)
        monos = monomials_of_degree_at_most(n, 4)
        sample = {m for m in monos if rng.random() < 0.3} | {(0,) * n}
        B = divisor_closure(sample)
        assert stable_by_division(B)
        assert connected_component_of_one(B) == B


def test_parse_basic(qq):
    p = poly_of("x0^2 - 1", qq)
    assert p.terms == {(2, 0): 1, (0, 0): -1}
    p = poly_of("2*x0*x1 + 1/3", qq)
    assert p.coeff((1, 1)) == 2
    assert p.coeff((0, 0)) == qq.from_fraction(__import__("fractions").Fraction(1, 3))


def test_parse_unknown_variable(qq):
    with pytest.raises(ParseError):
        parse_polynomial("x0^2 + x9", ["x0", "x1"], qq)


def test_parse_error_has_position(qq):
    with pytest.raises(ParseError) as err:
        parse_polynomial("x0 * * x1", ["x0", "x1"], qq, lineno=3)
    assert err.value.line == 3
    assert err.value.col > 0


def test_parse_float_coeffs():
    f64 = __import__("borderbasis").parse_field("f64:1e-10")
    p = poly_of("0.5*x0 - 1e-3", f64)
    assert p.coeff((1, 0)) == 0.5
    assert p.coeff((0, 0)) == -1e-3


def test_system_parse_and_format(qq):
    text = "ring x0 x1 over qq\n# a comment\nx0^2 - 1\n\nx1^2 - x1\n"
    varnames, field, polys = parse_system(text)
    assert varnames == ["x0", "x1"]
    assert field.name == "qq"
    assert len(polys) == 2
    rendered = format_system(varnames, field, polys)
    assert parse_system(rendered)[2] == polys


def test_parse_system_field_override():
    text = "ring x0 x1 over qq\nx0^2 - 5\n"
    _, field, polys = parse_system(text, field_override=PrimeField(3))
    assert field.p == 3
    assert polys[0].coeff((0, 0)) == 1  # -5 mod 3


def test_format_ordering(qq):
    p = poly_of("x1 + x0^2 + 1", qq)
    assert format_poly(p) == "x0^2 + x1 + 1"


def test_header_errors():
    with pytest.raises(ParseError):
        parse_system("x0^2 - 1\n")
    with pytest.raises(ParseError):
        parse_system("ring x0 x0 over qq\n")


@st.composite
def rational_polys(draw, n=2, deg=3):
    field = RationalField()
    monos = monomials_of_degree_at_most(n, deg)
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(monos), st.fractions(max_denominator=20)),
            max_size=6,
        )
    )
    return Polynomial.from_terms(field, n, pairs)


@given(rational_polys(), rational_polys(), rational_polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert p.add(q).terms == q.add(p).terms
    assert p.mul(q).terms == q.mul(p).terms
    assert p.mul(q.add(r)).terms == p.mul(q).add(p.mul(r)).terms
    assert p.add(q).add(r).terms == p.add(q.add(r)).terms
    assert p.mul(q).mul(r).terms == p.mul(q.mul(r)).terms


@given(rational_polys())
@settings(max_examples=60, deadline=None)
def test_print_parse_roundtrip(p):
    back = parse_polynomial(format_poly(p), ["x0", "x1"], RationalField())
    assert back == p


def test_reducing_grading_law():
    # strict divisors have strictly smaller degree, up to degree 6
    for n in (1, 2, 3):
        monos = monomials_of_degree_at_most(n, 6)
        for m in monos:
            for d in monos:
                if d != m and mono_divides(d, m):
                    assert mono_key(d) < mono_key(m)
                    assert mono_size(d) < mono_size(m)


def test_b_index_bounded_by_size():
    B = divisor_closure({(2, 1), (0, 3)})
    for m in monomials_of_degree_at_most(2, 5):
        assert b_index(m, B) <= mono_size(m)

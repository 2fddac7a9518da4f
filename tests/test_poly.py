import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borderbasis import (
    ParseError,
    Polynomial,
    format_poly,
    format_system,
    parse_field,
    parse_polynomial,
    parse_system,
)
from borderbasis.fields import FloatField, PrimeField, RationalField
from borderbasis.poly import (
    axpy,
    b_index,
    divisor_closure,
    mono_div,
    mono_divides,
    mono_key,
    mono_mul,
    mono_size,
)

from conftest import (
    b_index_by_scan,
    border,
    compute,
    connected_component_of_one,
    mono_lcm,
    monomials_of_degree_at_most,
    poly_of,
    prolong,
    seeded,
    stable_by_division,
)


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


def test_b_index_requires_one():
    with pytest.raises(ValueError, match="requires 1 in B"):
        b_index((1, 1), {(1, 0), (1, 1)})


def _b_index_sets():
    """Monomial sets containing 1 in two variables: divisor-closed ones, the
    non-order-ideal basis of test_syzygy, and seeded random ones."""
    from test_syzygy import NON_ORDER_IDEAL

    yield divisor_closure({(2, 1), (0, 3)})
    yield divisor_closure({(4, 0), (1, 2), (0, 1)})
    yield compute(NON_ORDER_IDEAL, parse_field("qq"), choice="drvl").basis_set
    rng = seeded(11)
    monos = monomials_of_degree_at_most(2, 4)
    for _ in range(20):
        yield {(0, 0)} | set(rng.sample(monos, rng.randint(1, 8)))


def test_b_index_matches_the_scan():
    for B in _b_index_sets():
        memo = {}
        for m in monomials_of_degree_at_most(2, 7):
            assert b_index(m, B) == b_index_by_scan(m, B)
            # a memo shared between calls gives the same indices
            assert b_index(m, B, memo) == b_index_by_scan(m, B)


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


@pytest.mark.parametrize(
    "text,field,message",
    [
        ("x0 + $", "qq", "unexpected character '$' at line 2, column 6"),
        ("2^3", "qq", "trailing input '^' at line 2, column 2"),
        ("x0 )", "qq", "trailing input ')' at line 2, column 4"),
        ("x0 + x9", "qq", "unknown variable 'x9' at line 2, column 6"),
        ("x0^x1", "qq", "expected integer exponent at line 2, column 4"),
        ("x0^1/2", "qq", "expected integer exponent at line 2, column 4"),
        ("x0 * * x1", "qq", "expected coefficient or variable at line 2, column 6"),
        ("x0 -", "qq", "expected coefficient or variable at line 2, column 5"),
        ("x0 - 1/7", "fp:7", "division by zero mod 7 at line 2, column 6"),
        ("x0 - 1e400", "f64:1e-10", "coefficient out of the float range at line 2, column 6"),
        # the exponent is capped before Fraction builds the power of ten
        ("x0 - 1e100001", "qq", "exponent out of range at line 2, column 6"),
        ("x0 + 2.5E+0010001*x1", "fp:65537", "exponent out of range at line 2, column 6"),
        ("x0 - 1e-100001", "f64:1e-10", "exponent out of range at line 2, column 6"),
        pytest.param(
            "x0 - 1e" + "9" * 5000, "qq", "exponent out of range at line 2, column 6",
            id="exponent-too-long-for-int",
        ),
    ],
)
def test_parse_error_messages(text, field, message):
    with pytest.raises(ParseError) as err:
        parse_polynomial(text, ["x0", "x1"], parse_field(field), lineno=2)
    assert str(err.value) == message
    assert (err.value.line, err.value.col) == (2, int(message.rsplit(" ", 1)[1]))


def test_parse_float_coeffs():
    f64 = __import__("borderbasis").parse_field("f64:1e-10")
    p = poly_of("0.5*x0 - 1e-3", f64)
    assert p.coeff((1, 0)) == 0.5
    assert p.coeff((0, 0)) == -1e-3


def test_parse_collects_like_terms_in_order(qq, f64):
    # a term that cancels leaves its place; one that returns goes to the end
    p = poly_of("x1 + x0 - x1 + 3 + x1", qq)
    assert list(p.terms.items()) == [((1, 0), 1), ((0, 0), 3), ((0, 1), 1)]
    assert poly_of("x0 - x0", qq).is_zero()
    # the f64 zero filter applies to each term before it is added
    assert poly_of("x0 + 1e-11*x0", f64).terms == {(1, 0): 1.0}


def test_parse_exponent_at_the_cap(qq):
    assert poly_of("x0 - 1e10000", qq).coeff((0, 0)) == -(10**10000)
    assert poly_of("x0 - 1e-10000", qq).coeff((0, 0)) * 10**10000 == -1


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
    with pytest.raises(ParseError, match="expected a single field after 'over' at line 1"):
        parse_system("ring x y over qq fp:5\nx^2 - 1\n")
    with pytest.raises(ParseError, match="modulus 4 is not prime at line 1"):
        parse_system("ring x over fp:4\n")
    with pytest.raises(ParseError, match="empty input: missing ring header"):
        parse_system("# a comment\n\n")


def rational_terms(n=2, deg=3):
    monos = monomials_of_degree_at_most(n, deg)
    return st.lists(
        st.tuples(st.sampled_from(monos), st.fractions(max_denominator=20)),
        max_size=6,
    )


@st.composite
def rational_polys(draw, n=2, deg=3):
    return Polynomial.from_terms(RationalField(), n, draw(rational_terms(n, deg)))


@given(rational_polys(), rational_polys(), rational_polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert p.add(q).terms == q.add(p).terms
    assert p.add(q).add(r).terms == p.add(q.add(r)).terms


@pytest.mark.parametrize(
    "field", [RationalField(), PrimeField(65537), FloatField(1e-10)], ids=lambda f: f.name
)
@given(pairs=rational_terms())
@settings(max_examples=60, deadline=None)
def test_print_parse_roundtrip(field, pairs):
    p = Polynomial.from_terms(field, 2, [(m, field.from_fraction(q)) for m, q in pairs])
    back = parse_polynomial(format_poly(p), ["x0", "x1"], field)
    assert back == p


@pytest.mark.parametrize(
    "field", [RationalField(), PrimeField(65537), FloatField(1e-10)], ids=lambda f: f.name
)
def test_axpy_updates_in_place(field):
    k = field.from_int
    # integer keys, as in the echelon's rows, next to monomial keys
    acc = {(2, 0): k(1), 3: k(2), (0, 1): k(1)}
    terms = {3: k(2), (1, 0): k(1), (0, 1): k(5)}
    assert axpy(field, acc, field.normalize(-field.one), terms) is acc
    # the zero sum at 3 is deleted, the other keys keep their order, new keys follow
    assert list(acc.items()) == [((2, 0), k(1)), ((0, 1), k(-4)), ((1, 0), k(-1))]
    assert axpy(field, acc, field.zero, {(5, 5): k(1)}) == {
        (2, 0): k(1), (0, 1): k(-4), (1, 0): k(-1)
    }


def test_products_sums_and_scales_below_eps_are_zero():
    f = FloatField(1e-10)
    acc = {0: 1.0, 1: 2.0}
    axpy(f, acc, 1e-6, {2: 1e-5, 1: 1.0})  # 1e-11 is skipped, 1e-6 is added
    assert list(acc.items()) == [(0, 1.0), (1, 2.000001)]
    axpy(f, acc, 1.0, {0: -1.0 + 1e-11})  # a sum of about 1e-11 deletes its key
    assert list(acc) == [1]


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

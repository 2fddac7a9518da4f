import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borderbasis import Polynomial, parse_choice
from borderbasis.choice import NoChoosableMonomial, deglex_key, grevlex_key
from borderbasis.fields import FloatField, RationalField
from borderbasis.poly import mono_divides, mono_size

from conftest import monomials_of_degree_at_most, poly_of, seeded


def test_mac_prefers_high_single_variable_degree(qq, mac):
    p = poly_of("x0^2*x1 + x1^3", qq)
    assert mac.gamma(p) == (0, 3)


def test_mac_lex_tie_break(qq, mac):
    # equal degree, equal max variable degree: lexicographically greatest wins
    names = ["x0", "x1", "x2"]
    from borderbasis import parse_polynomial

    p = parse_polynomial("x1^2 + x2^2", names, qq)
    assert parse_choice("mac").gamma(p) == (0, 2, 0)


def test_drvl(qq):
    p = poly_of("x0^2 + x0*x1", qq)
    assert parse_choice("drvl").gamma(p) == (2, 0)


def test_dlex(qq):
    p = poly_of("x0*x1^2 + x0^2", qq)
    assert parse_choice("dlex").gamma(p) == (1, 2)


def test_kappa(qq, mac):
    p = poly_of("5*x0^2 + x1", qq)
    assert p.terms[mac.gamma(p)] == 5


def test_gamma_of_zero_errors(qq, mac):
    with pytest.raises(NoChoosableMonomial):
        mac.gamma(Polynomial.zero(qq, 2))


def test_gamma_eps_filters(mac):
    f = FloatField(0.0)
    p = Polynomial(f, 2, {(2, 0): 1.0, (0, 3): 1e-12})
    assert parse_choice("mac", eps=1e-10).gamma(p) == (2, 0)
    assert mac.gamma(p) == (0, 3)


def test_gamma_eps_all_filtered():
    f = FloatField(0.0)
    p = Polynomial(f, 2, {(1, 0): 1e-12, (0, 1): 1e-13})
    with pytest.raises(NoChoosableMonomial):
        parse_choice("mac", eps=1e-10).gamma(p)


def test_gamma_eps_zero_is_gamma(qq, mac):
    rng = seeded(3)
    monos = monomials_of_degree_at_most(2, 4)
    for _ in range(100):
        terms = {m: qq.from_int(rng.randint(1, 9)) for m in monos if rng.random() < 0.4}
        if not terms:
            continue
        p = Polynomial(qq, 2, terms)
        assert parse_choice("mac", eps=0.0).gamma(p) == mac.gamma(p)


def test_minsz_picks_small_coefficient(qq):
    cf = parse_choice("minsz")
    p = Polynomial(qq, 2, {(2, 0): qq.from_fraction(__import__("fractions").Fraction(12345, 977)), (1, 1): qq.from_int(2)})
    assert cf.gamma(p) == (1, 1)


def test_mix_deterministic_per_seed(qq):
    rng = seeded(11)
    monos = monomials_of_degree_at_most(2, 3)
    polys = []
    for _ in range(50):
        terms = {m: qq.from_int(rng.randint(1, 99)) for m in monos if rng.random() < 0.5}
        if terms:
            polys.append(Polynomial(qq, 2, terms))
    a = [parse_choice("mix:5").gamma(p) for p in polys]
    b = [parse_choice("mix:5").gamma(p) for p in polys]
    assert a == b
    # a fresh clone restarts the PRNG stream
    cf = parse_choice("mix:5")
    first = [cf.gamma(p) for p in polys]
    fresh = cf.clone()
    assert [fresh.gamma(p) for p in polys] == first


def test_mix_outputs_valid_choices(qq):
    cf = parse_choice("mix:0")
    rng = seeded(2)
    monos = monomials_of_degree_at_most(2, 3)
    for _ in range(50):
        terms = {m: qq.from_int(rng.randint(1, 9)) for m in monos if rng.random() < 0.5}
        if not terms:
            continue
        p = Polynomial(qq, 2, terms)
        g = cf.gamma(p)
        assert g in p.terms
        assert mono_size(g) == p.degree()


@st.composite
def support_polys(draw, n=3, deg=4):
    field = RationalField()
    monos = monomials_of_degree_at_most(n, deg)
    supp = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=6, unique=True))
    coeffs = draw(
        st.lists(
            st.integers(1, 99), min_size=len(supp), max_size=len(supp)
        )
    )
    return Polynomial(field, n, {m: field.from_int(c) for m, c in zip(supp, coeffs)})


@given(support_polys(), st.sampled_from(["drvl", "dlex", "mac"]))
@settings(max_examples=80, deadline=None)
def test_choice_invariants(p, kind):
    cf = parse_choice(kind)
    g = cf.gamma(p)
    assert g in p.terms
    assert mono_size(g) == p.degree()
    for m in p.terms:
        if m != g:
            assert not mono_divides(g, m)


@given(support_polys(), st.integers(1, 99), st.sampled_from(["drvl", "dlex", "mac"]))
@settings(max_examples=80, deadline=None)
def test_support_only_dependence(p, c, kind):
    # redraw all coefficients: the pick must not move
    field = p.field
    q = Polynomial(field, p.nvars, {m: field.from_int(c) for m in p.terms})
    cf = parse_choice(kind)
    assert cf.key is not None
    assert cf.gamma(p) == cf.gamma(q)


def test_order_agreement_with_bruteforce():
    # drvl/dlex agree with the classical orders on equal-degree pairs
    def lex_cmp(a, b):
        return a > b

    monos = monomials_of_degree_at_most(3, 5)
    for a in monos:
        for b in monos:
            if a == b or mono_size(a) != mono_size(b):
                continue
            # grevlex: compare last nonzero of the difference
            diff = [x - y for x, y in zip(a, b)]
            last = next(d for d in reversed(diff) if d != 0)
            assert (grevlex_key(a) > grevlex_key(b)) == (last < 0)
            assert (deglex_key(a) > deglex_key(b)) == lex_cmp(a, b)


def test_parse_choice_strings():
    assert parse_choice("mix:42").seed == 42
    assert parse_choice("mac").kind == "mac"
    # only mix draws from its PRNG, so only its picks may differ when repeated
    assert [parse_choice(k, eps=1e-3).randomized for k in ("drvl", "dlex", "mac", "minsz", "mix:1")] == [
        False, False, False, False, True
    ]
    with pytest.raises(ValueError):
        parse_choice("mystery")
    for eps in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError):
            parse_choice("mac", eps=eps)

"""Stability of border bases under perturbed coefficients.

Katsura n over qq with each coefficient c replaced by c + delta*r, r drawn
per term in `gen_katsura`'s term order from ``random.Random(1)``: under
`mac` the basis B stays the same, and each rule tail moves by at most a
bounded multiple of delta, the behaviour the paper's abstract claims for
border bases (a Groebner basis's leading terms may jump instead).  Over
f64:1e-10 the same perturbed system has the qq tails to within rounding.
"""

import random
from fractions import Fraction

import pytest

from borderbasis import Polynomial, compute_border_basis, gen_katsura, parse_choice, parse_field

DELTAS = [Fraction(1, 10**k) for k in (2, 4, 6, 8)]


def perturbed_katsura(n, delta, field):
    qq = parse_field("qq")
    rng = random.Random(1)
    return [
        Polynomial(field, p.nvars, {m: field.from_fraction(c + delta * rng.randint(-9, 9)) for m, c in p.terms.items()})
        for p in gen_katsura(qq, n)
    ]


def tail_shift(bb, base):
    """max |tail coefficient of bb - that of base| over the rules of both."""
    assert bb.rules.keys() == base.rules.keys()
    return max(
        (
            abs(bb.rules[m].tail.terms.get(t, 0) - rule.tail.terms.get(t, 0))
            for m, rule in base.rules.items()
            for t in rule.tail.terms.keys() | bb.rules[m].tail.terms.keys()
        ),
        default=0,
    )


@pytest.mark.parametrize(
    "n, choice, bound",
    [(3, "mac", 20), (3, "drvl", 50), (4, "mac", 300)],  # measured: 16.0-17.0, 45.6-46.3, 173-237
)
def test_small_perturbations_keep_the_basis_and_move_the_tails_by_order_delta(n, choice, bound):
    qq = parse_field("qq")
    base = compute_border_basis(gen_katsura(qq, n), parse_choice(choice))
    for delta in DELTAS:
        bb = compute_border_basis(perturbed_katsura(n, delta, qq), parse_choice(choice))
        assert bb.basis == base.basis, delta
        assert 0 < tail_shift(bb, base) <= bound * delta, delta


def test_drvl_may_change_the_basis_of_a_perturbed_katsura4_but_not_its_dimension():
    qq = parse_field("qq")
    base = compute_border_basis(gen_katsura(qq, 4), parse_choice("drvl"))
    assert base.dimension == 16
    for delta in DELTAS:
        bb = compute_border_basis(perturbed_katsura(4, delta, qq), parse_choice("drvl"))
        assert bb.basis != base.basis and bb.dimension == 16, delta


@pytest.mark.parametrize("n, delta", [(4, Fraction(1, 10**4)), (3, Fraction(1, 10**8))])  # measured: 3.6e-14, 6.7e-16
def test_f64_tails_of_a_perturbed_katsura_are_the_qq_tails(n, delta):
    exact = compute_border_basis(perturbed_katsura(n, delta, parse_field("qq")), parse_choice("mac"))
    floats = compute_border_basis(perturbed_katsura(n, delta, parse_field("f64:1e-10")), parse_choice("mac"))
    assert floats.basis == exact.basis
    assert tail_shift(floats, exact) <= 1e-12

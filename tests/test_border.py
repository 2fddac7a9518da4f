import pytest

from borderbasis import (
    InconsistentSystemError,
    NotZeroDimensionalError,
    Polynomial,
    check_commutation,
    compute_border_basis,
    build_mult_system,
    parse_choice,
)
from borderbasis.border import (
    NotReducibleError,
    RewritingRule,
    c_polynomial,
    check_reducing_family,
    interreduce,
    reduce_by_rules,
)
from borderbasis.poly import mono_key, mono_lcm, mono_size

from conftest import (
    compute,
    exhaustive_rewrite,
    poly_of,
    random_regular_system,
    seeded,
)

REFERENCE_B = {(0, 0), (1, 0), (0, 1), (1, 1)}
REFERENCE_FAMILY = ["x0^2 - 1", "x1^2 - x1", "x0^2*x1 - x1", "x1^2*x0 - x1"]


def reference_rules(qq):
    """The printed degree-3 reducing family on B = {1, x0, x1, x0*x1}."""
    rules = {}
    for src in REFERENCE_FAMILY:
        p = poly_of(src, qq)
        lead = max(p.terms, key=mono_key)
        rules[lead] = RewritingRule.from_poly(p, lead)
    return rules


def test_reduce_reference_family(qq):
    rules = reference_rules(qq)
    one = poly_of("1", qq)
    assert reduce_by_rules(poly_of("x0^2", qq), rules, REFERENCE_B) == one
    assert reduce_by_rules(poly_of("x0^2*x1", qq), rules, REFERENCE_B) == poly_of("x1", qq)
    for src in ("1", "x0", "x1", "x0*x1"):
        p = poly_of(src, qq)
        assert reduce_by_rules(p, rules, REFERENCE_B) == p


def test_reduce_missing_rule(qq):
    rules = reference_rules(qq)
    del rules[(2, 1)]
    with pytest.raises(NotReducibleError) as err:
        reduce_by_rules(poly_of("x0^2*x1", qq), rules, REFERENCE_B)
    assert err.value.monomial == (2, 1)


def test_reduce_is_linear(qq):
    rules = reference_rules(qq)
    rng = seeded(5)
    from borderbasis.poly import border

    Bplus = sorted(REFERENCE_B | border(REFERENCE_B), key=mono_key)
    for _ in range(20):
        p = Polynomial(qq, 2, {m: qq.from_int(rng.randint(-5, 5)) for m in Bplus})
        q = Polynomial(qq, 2, {m: qq.from_int(rng.randint(-5, 5)) for m in Bplus})
        lhs = reduce_by_rules(p.add(q), rules, REFERENCE_B)
        rhs = reduce_by_rules(p, rules, REFERENCE_B).add(reduce_by_rules(q, rules, REFERENCE_B))
        assert lhs == rhs


def test_check_reducing_family(qq):
    rules = reference_rules(qq)
    assert check_reducing_family(rules, REFERENCE_B, 3)
    incomplete = dict(rules)
    del incomplete[(2, 1)]
    assert not check_reducing_family(incomplete, REFERENCE_B, 3)
    assert check_reducing_family({}, {(0, 0)}, 0)


def test_c_polynomial(qq, mac):
    f = poly_of("x0^2 - 1", qq)
    g = poly_of("x1^2 - x1", qq)
    assert c_polynomial(f, f, mac).is_zero()
    assert c_polynomial(f, g, mac) == poly_of("x0^2*x1 - x1^2", qq)
    assert mono_size(mono_lcm(mac.gamma(f), mac.gamma(g))) == 4


def test_interreduce(qq, mac):
    B = {(0,), (1,)}
    P = [poly_of("x0^2 - 1", qq, 1), poly_of("x0^2 - x0", qq, 1)]
    rules, witnesses, pending = interreduce(P, B, mac)
    assert len(rules) == 1 and rules[0].lead == (2,)
    assert len(witnesses) == 1
    assert witnesses[0].support() <= B
    assert not pending


def test_interreduce_dependent(qq, mac):
    B = {(0, 0), (1, 0)}
    p = poly_of("x0^2 - x0", qq)
    rules, witnesses, pending = interreduce([p, p.scale(qq.from_int(2))], B, mac)
    assert len(rules) == 1 and not witnesses and not pending


def test_univariate_basis(qq, mac):
    bb = compute(["x0^2 - 3*x0 + 2"], qq, nvars=1)
    assert bb.basis == [(0,), (1,)]
    assert bb.rules[(2,)].tail == poly_of("3*x0 - 2", qq, 1)


def test_reference_system_basis(qq, mac):
    bb = compute(["x0^2 - 1", "x1^2 - x1"], qq)
    assert set(bb.basis) == REFERENCE_B
    assert set(bb.rules) == {(2, 0), (0, 2), (2, 1), (1, 2)}
    assert bb.rules[(2, 0)].tail == poly_of("1", qq)
    assert bb.rules[(0, 2)].tail == poly_of("x1", qq)
    assert bb.rules[(2, 1)].tail == poly_of("x1", qq)
    # the corrected rule: x0*x1^2 -> x0*x1, not the printed x0*x1^2 -> x1
    assert bb.rules[(1, 2)].tail == poly_of("x0*x1", qq)


def test_inconsistent_system(qq, mac):
    with pytest.raises(InconsistentSystemError) as err:
        compute(["x0", "x0 - 1"], qq)
    assert not err.value.witness.is_zero()


def test_not_zero_dimensional(qq, mac):
    with pytest.raises(NotZeroDimensionalError):
        compute(["x0*x1"], qq)


def test_zero_ideal_rejected(qq, mac):
    with pytest.raises(NotZeroDimensionalError):
        compute_border_basis([Polynomial.zero(qq, 2)], mac)


def test_grow_beyond_input_support(qq, mac):
    # the quotient basis needs x0*x1 although no input monomial divides into it
    bb = compute(["x0^2 - x1", "x1^2 - x0"], qq)
    assert (1, 1) in bb.basis_set
    assert bb.dimension == 4


def test_monomial_ideal_high_socle(qq, mac):
    bb = compute(["x0^3", "x1^3"], qq)
    assert bb.dimension == 9
    assert (2, 2) in bb.basis_set


def test_extended_project_reference(qq, mac):
    bb = compute(["x0^2 - 1", "x1^2 - x1"], qq)
    assert bb.extended_project_monomial((2, 2)) == poly_of("x1", qq)
    assert bb.extended_project_monomial((3, 0)) == poly_of("x0", qq)
    for b in bb.basis:
        assert bb.extended_project_monomial(b) == Polynomial.monomial(qq, 2, b)


def test_extended_project_matches_rewriting_oracle(qq, mac):
    rng = seeded(17)
    bb = compute(["x0^2 - 1", "x1^2 - x1"], qq)
    from conftest import random_poly

    for _ in range(25):
        p = random_poly(rng, qq, 2, 5)
        assert bb.extended_project(p) == exhaustive_rewrite(p, bb)


def test_generators_reduce_to_zero(fp, mac):
    rng = seeded(23)
    for _ in range(15):
        polys, _ = random_regular_system(rng, fp, rng.randint(1, 3), 3)
        bb = compute_border_basis(polys, mac.clone())
        for p in polys:
            assert bb.extended_project(p).is_zero()


def test_determinism(fp):
    rng = seeded(29)
    for _ in range(10):
        polys, _ = random_regular_system(rng, fp, 2, 3)
        a = compute_border_basis(polys, parse_choice("mix:7"))
        b = compute_border_basis(polys, parse_choice("mix:7"))
        assert a.basis == b.basis
        assert {m: r.tail for m, r in a.rules.items()} == {m: r.tail for m, r in b.rules.items()}


def test_direct_sum_rank(qq, mac):
    # columns of B_lam plus all rule multiples up to lam span K[x]_lam exactly
    from borderbasis.poly import monomials_of_degree_at_most
    from conftest import echelonize

    bb = compute(["x0^2 - 1", "x1^2 - x1"], qq)
    lam = 4
    monos = sorted(monomials_of_degree_at_most(2, lam), key=mono_key)
    col = {m: j for j, m in enumerate(monos)}
    rows = []
    for b in bb.basis:
        row = [qq.zero] * len(monos)
        row[col[b]] = qq.one
        rows.append(row)
    for w, rule in bb.rules.items():
        fpoly = rule.poly()
        d = fpoly.degree()
        for m in monomials_of_degree_at_most(2, lam - d):
            row = [qq.zero] * len(monos)
            for t, c in fpoly.mul_monomial(m).terms.items():
                row[col[t]] = c
            rows.append(row)
    pivots = echelonize(rows, qq)
    assert len(pivots) == len(monos)


def test_loops_counted(qq, mac):
    bb = compute(["x0^2 - 1", "x1^2 - x1"], qq)
    assert bb.loops >= 1


def test_float_field_basis(f64, mac):
    bb = compute(["x0^2 - 1.0", "x1^2 - x1"], f64)
    assert set(bb.basis) == REFERENCE_B
    ms = build_mult_system(bb)
    ok, _ = check_commutation(ms)
    assert ok

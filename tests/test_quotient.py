import pytest

from borderbasis import (
    NotABorderBasisError,
    build_mult_system,
    check_commutation,
    compute_border_basis,
    gen_katsura,
    normal_form,
    parse_choice,
)
from borderbasis.border import BorderBasis, RewritingRule
from borderbasis.fields import int64_sums_fit
from borderbasis.poly import mono_key
from borderbasis.quotient import commutators

from conftest import (
    compute,
    non_commuting_basis,
    oracle_normal_form,
    poly_of,
    random_poly,
    random_regular_system,
    reference_commutators,
    seeded,
)


def test_univariate_matrix(qq, mac):
    bb = compute(["x0^2 - 3*x0 + 2"], qq, nvars=1)
    ms = build_mult_system(bb)
    assert ms.basis == [(0,), (1,)]
    assert ms.matrices[0][0] == [0, 1]
    assert ms.matrices[0][1] == [-2, 3]
    ok, witness = check_commutation(ms)
    assert ok and witness is None


def test_reference_matrix_columns(qq, mac):
    bb = compute(["x0^2 - 1", "x1^2 - x1"], qq)
    ms = build_mult_system(bb)
    # M_0: 1 -> x0, x0 -> 1, x1 -> x0*x1, x0*x1 -> x1 (rule x0^2*x1 -> x1)
    j = {m: k for k, m in enumerate(ms.basis)}
    assert ms.matrices[0][j[(0, 0)]][j[(1, 0)]] == 1
    assert ms.matrices[0][j[(1, 0)]][j[(0, 0)]] == 1
    assert ms.matrices[0][j[(0, 1)]][j[(1, 1)]] == 1
    assert ms.matrices[0][j[(1, 1)]][j[(0, 1)]] == 1


def test_dimension_one(qq, mac):
    bb = compute(["x0 - 2", "x1 - 3"], qq)
    ms = build_mult_system(bb)
    assert ms.dimension == 1
    assert ms.matrices[0][0][0] == 2
    assert ms.matrices[1][0][0] == 3


def test_missing_rule_rejected(qq, mac):
    bb = compute(["x0^2 - 1", "x1^2 - x1"], qq)
    broken = BorderBasis(bb.basis, dict(bb.rules), bb.loops, qq, 2)
    del broken.rules[(2, 1)]
    with pytest.raises(NotABorderBasisError):
        build_mult_system(broken)


def test_printed_family_fails_commutation(qq, mac):
    # the printed degree-3 reducing family is not a border basis
    from test_border import REFERENCE_B, reference_rules

    fake = BorderBasis(REFERENCE_B, reference_rules(qq), 0, qq, 2)
    ms = build_mult_system(fake)
    ok, witness = check_commutation(ms)
    assert not ok
    assert witness is not None
    # the paper's witness, which the C-polynomial of the two degree-3 rules
    # also reaches (acceptance 1)
    expected = poly_of("x0*x1 - x1", qq)
    columns = [ms.poly_of(col) for _, _, _, col in commutators(ms)]
    assert any(c.scale(qq.inv(c.terms[(1, 1)])) == expected for c in columns)


def _katsura3_with_a_wrong_tail(field):
    bb = compute_border_basis(gen_katsura(field, 3), parse_choice("mac"))
    rules = dict(bb.rules)
    lead = min(rules, key=mono_key)
    rules[lead] = RewritingRule(lead, rules[lead].tail.add(poly_of("1", field, bb.nvars)))
    return BorderBasis(bb.basis, rules, bb.loops, field, bb.nvars)


@pytest.mark.parametrize("build", [non_commuting_basis, _katsura3_with_a_wrong_tail])
def test_int64_commutators_match_the_reference(fp, build):
    # one wrong rule tail: the int64 products mod p must yield the columns
    # the column-by-column path yields, in its order, as Python ints
    bb = build(fp)
    assert int64_sums_fit(fp, bb.dimension)
    found = list(commutators(bb.ms))
    assert found and found == reference_commutators(bb.ms)
    assert all(type(c) is int for *_, col in found for c in col)


def test_normal_form_basics(qq, mac):
    bb = compute(["x0^2 - 1", "x1^2 - x1"], qq)
    ms = build_mult_system(bb)
    for src in ("1", "x0", "x1", "x0*x1"):
        p = poly_of(src, qq)
        assert normal_form(p, ms, bb) == p
    for src in ("x0^2 - 1", "x1^2 - x1"):
        assert normal_form(poly_of(src, qq), ms, bb).is_zero()
    # x0^2*x1^2 -> 1 * x1 (cross-checked against the rewriting oracle below)
    nf = normal_form(poly_of("x0^2*x1^2", qq), ms, bb)
    assert nf == poly_of("x1", qq)
    from conftest import exhaustive_rewrite

    assert nf == exhaustive_rewrite(poly_of("x0^2*x1^2", qq), bb)


def test_ideal_member(qq, mac):
    bb = compute(["x0^2 - 1", "x1^2 - x1"], qq)
    ms = build_mult_system(bb)
    f1, f2 = poly_of("x0^2 - 1", qq), poly_of("x1^2 - x1", qq)
    combo = f1.mul_monomial((1, 0)).add(f2)
    assert normal_form(combo, ms, bb).is_zero()
    assert not normal_form(poly_of("1", qq), ms, bb).is_zero()
    assert not normal_form(poly_of("x0*x1 - x1", qq), ms, bb).is_zero()


def test_normal_form_operator_consistency(fp, mac):
    rng = seeded(31)
    polys, _ = random_regular_system(rng, fp, 2, 3)
    bb = compute_border_basis(polys, mac.clone())
    ms = build_mult_system(bb)
    for _ in range(10):
        p = random_poly(rng, fp, 2, 4)
        nf = normal_form(p, ms, bb)
        shifted = normal_form(p.mul_monomial((1, 0)), ms, bb)
        assert ms.vector_of(shifted) == ms.apply(0, ms.vector_of(nf))


@pytest.mark.parametrize("field_name", ["qq", "fp", "f64"])
def test_apply_is_the_dense_product(request, mac, field_name):
    # apply walks nonzero column entries and reduces once per coordinate;
    # it must give, exactly, the product over every entry with field ops
    field = request.getfixturevalue(field_name)
    rng = seeded(43)
    polys, _ = random_regular_system(rng, field, 2, 3)
    bb = compute_border_basis(polys, mac.clone())
    ms = build_mult_system(bb)
    D = ms.dimension
    for _ in range(5):
        vec = ms.vector_of(normal_form(random_poly(rng, field, 2, 4), ms, bb))
        for i in range(ms.nvars):
            dense = [field.zero] * D
            for j, c in enumerate(vec):
                if not field.is_zero(c):
                    for k in range(D):
                        dense[k] = field.normalize(dense[k] + c * ms.matrices[i][j][k])
            assert ms.apply(i, vec) == dense


def test_normal_form_idempotent(fp, mac):
    rng = seeded(37)
    polys, _ = random_regular_system(rng, fp, 3, 2)
    bb = compute_border_basis(polys, mac.clone())
    ms = build_mult_system(bb)
    for _ in range(10):
        p = random_poly(rng, fp, 3, 4)
        nf = normal_form(p, ms, bb)
        assert normal_form(nf, ms, bb) == nf


def test_normal_form_matches_oracle_small(qq, mac):
    bb = compute(["x0^2 - 1", "x1^2 - x1"], qq)
    ms = build_mult_system(bb)
    rng = seeded(41)
    for _ in range(10):
        p = random_poly(rng, qq, 2, 4)
        assert normal_form(p, ms, bb) == oracle_normal_form(p, bb)


@pytest.mark.parametrize("field_name", ["qq", "fp"])
def test_normal_form_history_independent(request, mac, field_name):
    # many queries against one ms: each answer must be the one a fresh ms
    # gives, whatever was asked before and in whatever order
    field = request.getfixturevalue(field_name)
    rng = seeded(53)
    polys, _ = random_regular_system(rng, field, 2, 3)
    bb = compute_border_basis(polys, mac.clone())
    queries = [random_poly(rng, field, 2, 5) for _ in range(20)]
    shared = build_mult_system(bb)
    for p in queries + queries[::-1]:
        nf = normal_form(p, shared, bb)
        assert nf == normal_form(p, build_mult_system(bb), bb)
        if field_name == "qq":
            assert nf == oracle_normal_form(p, bb)


def test_matrix_json_round(qq, mac):
    bb = compute(["x0^2 - 1", "x1^2 - x1"], qq)
    ms = build_mult_system(bb)
    d = ms.to_json_dict(["x0", "x1"])
    assert d["basis"] == ["1", "x0", "x1", "x0*x1"]
    assert len(d["matrices"]["x0"]) == 4

import pytest

from borderbasis import (
    NotABorderBasisError,
    build_mult_system,
    check_commutation,
    compute_border_basis,
    normal_form,
)
from borderbasis.border import BorderBasis
from borderbasis.quotient import ideal_member

from conftest import (
    compute,
    oracle_normal_form,
    poly_of,
    random_poly,
    random_regular_system,
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
    assert ideal_member(combo, ms, bb)
    assert not ideal_member(poly_of("1", qq), ms, bb)
    assert not ideal_member(poly_of("x0*x1 - x1", qq), ms, bb)


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


def test_matrix_json_round(qq, mac):
    bb = compute(["x0^2 - 1", "x1^2 - x1"], qq)
    ms = build_mult_system(bb)
    d = ms.to_json_dict(["x0", "x1"])
    assert d["basis"] == ["1", "x0", "x1", "x0*x1"]
    assert len(d["matrices"]["x0"]) == 4

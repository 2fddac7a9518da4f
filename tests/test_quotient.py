import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from borderbasis import (
    MultiplicationSystem,
    NotABorderBasisError,
    NumericError,
    Polynomial,
    build_mult_system,
    check_commutation,
    compute_border_basis,
    gen_katsura,
    normal_form,
    parse_choice,
    parse_field,
)
from borderbasis.border import BorderBasis, RewritingRule
from borderbasis.fields import FloatField, RationalField, int64_sums_fit
from borderbasis.poly import mono_key, mono_mul, mono_one, mono_var
from borderbasis.quotient import commutators, neighbours

from conftest import (
    OracleProjector,
    compute,
    neighbours_by_products,
    non_commuting_basis,
    oracle_normal_form,
    poly_of,
    random_poly,
    random_regular_system,
    reference_apply,
    reference_commutators,
    reference_normal_form,
    seeded,
)

# float64 results against the per-entry reference, which sums in another
# order and skips coordinates below eps: on the Katsura 3 and 4 bases (D <= 16,
# four peels) they differ by under 1e-15 of the largest magnitude involved
F64_RTOL = 1e-12


def _assert_f64_close(found, reference, scale):
    """Entry by entry within F64_RTOL of scale, or of 1 if that is larger."""
    bound = F64_RTOL * max(1.0, scale)
    assert len(found) == len(reference)
    assert all(abs(x - y) <= bound for x, y in zip(found, reference)), (found, reference)


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
    with pytest.raises(NotABorderBasisError, match=r"x0\^2\*x1;"):
        build_mult_system(broken)


def test_rule_tail_outside_the_basis_rejected(qq, mac):
    # x0^3 has no coordinate in B: the same error as a missing rule, naming it
    bb = compute(["x0^2 - 1", "x1^2 - x1"], qq)
    rules = dict(bb.rules)
    rules[(2, 0)] = RewritingRule((2, 0), poly_of("x0^3", qq))
    with pytest.raises(NotABorderBasisError, match=r"x0\^3 outside"):
        BorderBasis(bb.basis, rules, bb.loops, qq, 2)


def test_rule_off_the_border_rejected(qq, mac):
    # x0 lies in B and x0^5*x1^5 far outside it: the matrices read neither
    # rule, so bb.rules would hold rules the certificate never saw
    bb = compute(["x0^2 - 1", "x1^2 - x1"], qq)
    rules = dict(bb.rules)
    rules[1, 0] = RewritingRule((1, 0), poly_of("5", qq))
    rules[5, 5] = RewritingRule((5, 5), poly_of("7", qq))
    with pytest.raises(NotABorderBasisError, match=r"rule for x0, which is not a border monomial"):
        BorderBasis(bb.basis, rules, bb.loops, qq, 2)
    del rules[1, 0]
    with pytest.raises(NotABorderBasisError, match=r"rule for x0\^5\*x1\^5, which"):
        BorderBasis(bb.basis, rules, bb.loops, qq, 2)


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
    assert any(c.mul_monomial(mono_one(2), qq.inv(c.terms[(1, 1)])) == expected for c in columns)


def _katsura3_with_a_wrong_tail(field):
    bb = compute_border_basis(gen_katsura(field, 3), parse_choice("mac"))
    rules = dict(bb.rules)
    lead = min(rules, key=mono_key)
    rules[lead] = RewritingRule(lead, rules[lead].tail.add(poly_of("1", field, bb.nvars)))
    return BorderBasis(bb.basis, rules, bb.loops, field, bb.nvars)


@pytest.mark.parametrize(
    "spec, dtype",
    [
        pytest.param("fp:1000003", np.int64, id="fp:1000003"),
        pytest.param("fp:2147483647", np.int64, id="fp:2147483647"),
        pytest.param("fp:2305843009213693951", object, id="fp:2305843009213693951"),
        pytest.param("f64:1e-10", np.float64, id="f64:1e-10"),
    ],
)
@pytest.mark.parametrize("build", [non_commuting_basis, _katsura3_with_a_wrong_tail])
def test_int64_commutators_match_the_reference(build, spec, dtype):
    # one wrong rule tail: the products on ms.array mod p, on int64 residues
    # or, where one product of two residues leaves int64, Python ints, must
    # yield the columns the column-by-column reference yields, in its order,
    # as Python ints; on float64 the same positions, as floats, each column
    # within F64_RTOL of |M_i| |M_j|
    bb = build(parse_field(spec))
    ms = bb.ms
    assert ms.array.dtype == dtype
    found, reference = list(commutators(ms)), reference_commutators(ms)
    assert found and [c[:3] for c in found] == [c[:3] for c in reference]
    if dtype != np.float64:
        assert found == reference
        assert all(type(c) is int for *_, col in found for c in col)
        return
    norms = np.abs(ms.array).max(axis=(1, 2))
    for (i, j, _, col), (*_, expected) in zip(found, reference):
        assert all(type(c) is float for c in col)
        _assert_f64_close(col, expected, norms[i] * norms[j])


@pytest.mark.parametrize(
    "build, denominators", [(non_commuting_basis, {1}), (_katsura3_with_a_wrong_tail, {19008, 66528, 133056})]
)
def test_qq_commutators_match_the_reference(qq, build, denominators):
    # the integer products over d^2, d the lcm of the denominators of every
    # M_i, must yield the normalized Fraction columns the column-by-column
    # path yields, in its order, whether the M_i are integral or their
    # denominators differ across the variables
    bb = build(qq)
    assert {math.lcm(*(c.denominator for col in m for c in col)) for m in bb.ms.matrices} == denominators
    assert bb.ms.denominator == math.lcm(*denominators)
    found = list(commutators(bb.ms))
    assert found and found == reference_commutators(bb.ms)
    assert all(type(c) is Fraction for *_, col in found for c in col)


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
    # apply is one product with array[i]; it must give the product over
    # every entry with field ops: exactly on the exact fields, within
    # F64_RTOL on f64, whose sums it takes in another order
    field = request.getfixturevalue(field_name)
    rng = seeded(43)
    polys, _ = random_regular_system(rng, field, 2, 3)
    bb = compute_border_basis(polys, mac.clone())
    ms = build_mult_system(bb)
    for _ in range(5):
        vec = ms.vector_of(normal_form(random_poly(rng, field, 2, 4), ms, bb))
        for i in range(ms.nvars):
            found, dense = ms.apply(i, vec), reference_apply(ms, i, vec)
            if field_name == "f64":
                _assert_f64_close(found, dense, max(map(abs, dense)))
            else:
                assert found == dense


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


@pytest.mark.parametrize(
    "spec", ["fp:1000003", "fp:2147483647", "fp:2305843009213693951", "qq", "f64:1e-10"]
)
def test_residues_are_the_matrices_mod_p(spec):
    # over a prime, row j of array[i] is column j of M_i mod p, over the
    # denominator 1: int64 only where one product of two residues fits
    # int64, Python ints otherwise; over qq the array holds numerators
    # instead, and on f64 the matrices as float64
    field = parse_field(spec)
    ms = compute_border_basis(gen_katsura(field, 3), parse_choice("mac")).ms
    if isinstance(field, RationalField):
        assert ms.denominator > 1
        return
    D = ms.dimension
    assert ms.denominator == 1 and ms.array.shape == (ms.nvars, D, D)
    if isinstance(field, FloatField):
        assert ms.array.dtype == np.float64 and ms.array.tolist() == ms.matrices
        return
    if int64_sums_fit(field, 1):
        assert ms.array.dtype == np.int64
    else:
        assert ms.array.dtype == object and all(type(a) is int for a in ms.array.flat)
    assert ms.array.tolist() == [[[c % field.p for c in col] for col in m] for m in ms.matrices]


@pytest.mark.parametrize("spec", ["qq", "fp:1000003", "fp:2147483647", "f64:1e-10"])
def test_numerators_are_the_matrices_over_one_denominator(spec):
    # row j of array[i] over ms.denominator (the lcm of every denominator
    # in the matrices) is column j of M_i; the denominator is 1 but on qq
    field = parse_field(spec)
    ms = compute_border_basis(gen_katsura(field, 3), parse_choice("mac")).ms
    if not isinstance(field, RationalField):
        assert ms.denominator == 1
        return
    D = ms.dimension
    d = ms.denominator
    assert ms.array.dtype == object and ms.array.shape == (ms.nvars, D, D)
    assert d == math.lcm(*(c.denominator for m in ms.matrices for col in m for c in col))
    for i in range(ms.nvars):
        for j in range(D):
            for k in range(D):
                a = ms.array[i][j][k]
                assert type(a) is int and Fraction(a, d) == ms.matrices[i][j][k]


@pytest.mark.parametrize("choice", ["mac", "drvl"])
def test_border_table_lists_the_shifts_leaving_the_basis(choice):
    # outside[i]: (k, x_i*B[k]) in basis order wherever x_i*B[k] is not in B,
    # the same whether the system is built by hand or by build_mult_system
    bb = compute_border_basis(gen_katsura(parse_field("qq"), 3), parse_choice(choice))
    n = bb.nvars
    shifts = [[(k, mono_mul(b, mono_var(n, i))) for k, b in enumerate(bb.basis)] for i in range(n)]
    expected = [[(k, w) for k, w in row if w not in bb.basis_set] for row in shifts]
    by_hand = MultiplicationSystem(bb.basis, bb.ms.shifts, bb.ms.matrices, bb.field, n)
    assert by_hand.outside == build_mult_system(bb).outside == bb.ms.outside == expected


def _shift_table_bases():
    """Katsura 3 over qq, the non-order-ideal basis of test_syzygy, and the
    bases of seeded random regular systems in one to three variables."""
    from test_syzygy import NON_ORDER_IDEAL

    yield compute_border_basis(gen_katsura(parse_field("qq"), 3), parse_choice("mac"))
    yield compute(NON_ORDER_IDEAL, parse_field("qq"), choice="drvl")
    rng = seeded(41)
    fp = parse_field("fp:65537")
    for _ in range(12):
        polys, _ = random_regular_system(rng, fp, rng.randint(1, 3), 3)
        yield compute_border_basis(polys, parse_choice(rng.choice(["drvl", "dlex", "mac"])))


def test_shift_table_and_neighbours_match_the_products():
    # ms.shifts[i][k] = x_i*B[k], and the neighbour columns read off
    # ms.outside are those of one monomial product each
    for bb in _shift_table_bases():
        ms, n = bb.ms, bb.nvars
        assert ms.shifts == [[mono_mul(b, mono_var(n, i)) for b in ms.basis] for i in range(n)]
        assert list(neighbours(ms)) == list(neighbours_by_products(ms.basis, bb.basis_set))


def _query_degree(bb, polys):
    # twice the largest input degree plus two: peel chains three or more deep
    return 2 * max(q.degree() for q in polys) + 2


@pytest.fixture(scope="module")
def katsura3_fp():
    """Katsura 3 over fp:1000003, its generators and a projector up to degree 6."""
    polys = gen_katsura(parse_field("fp:1000003"), 3)
    bb = compute_border_basis(polys, parse_choice("mac"))
    return bb, polys, OracleProjector(bb, _query_degree(bb, polys))


def _regular(seed, spec):
    polys, _ = random_regular_system(seeded(seed), parse_field(spec), 3, 2)
    return compute_border_basis(polys, parse_choice("mac")), polys


def _assert_int64_levels_match(bb, polys, projector, rng, count):
    deg = _query_degree(bb, polys)
    for _ in range(count):
        p = random_poly(rng, bb.field, bb.nvars, deg, density=0.3)
        nf = normal_form(p, bb.ms, bb)
        assert nf == projector.project(p) == reference_normal_form(p, bb.ms)
        assert all(type(c) is int for c in nf.terms.values())


def test_int64_normal_form_matches_the_oracle_on_katsura3(katsura3_fp):
    bb, polys, projector = katsura3_fp
    assert bb.ms.array.dtype == np.int64
    _assert_int64_levels_match(bb, polys, projector, seeded(61), 6)


@pytest.mark.parametrize("seed", [5, 6, 9, 11])  # dimensions 4, 4, 8, 8
def test_int64_normal_form_matches_the_oracle_on_regular_systems(seed):
    bb, polys = _regular(seed, "fp:65537")
    assert bb.ms.array.dtype == np.int64
    projector = OracleProjector(bb, _query_degree(bb, polys))
    _assert_int64_levels_match(bb, polys, projector, seeded(100 + seed), 6)


def test_int64_normal_form_matches_the_per_monomial_path_on_katsura4():
    # the oracle's elimination at degree 8 takes about a minute; the
    # per-monomial reference, which the oracle checks on the smaller bases,
    # stands in for it
    polys = gen_katsura(parse_field("fp:1000003"), 4)
    bb = compute_border_basis(polys, parse_choice("mac"))
    assert bb.ms.array.dtype == np.int64
    rng = seeded(67)
    for _ in range(4):
        p = random_poly(rng, bb.field, bb.nvars, _query_degree(bb, polys), density=0.3)
        assert normal_form(p, bb.ms, bb) == reference_normal_form(p, bb.ms)


@pytest.mark.parametrize("n", [3, 4])  # dimensions 8, 16
def test_f64_normal_form_matches_the_reference_on_katsura(n):
    # the float64 levels on ms.array against the per-monomial reference, which
    # sums in another order: each coordinate within F64_RTOL of the largest;
    # both commutator routes find every column commuting
    f = parse_field("f64:1e-10")
    bb = compute_border_basis(gen_katsura(f, n), parse_choice("mac"))
    ms = bb.ms
    assert bb.dimension == 2**n and ms.array.dtype == np.float64
    assert list(commutators(ms)) == reference_commutators(ms) == []
    rng = seeded(80 + n)
    for _ in range(6):
        p = random_poly(rng, f, bb.nvars, 4, density=0.3)
        nf = normal_form(p, ms, bb)
        assert all(type(c) is float for c in nf.terms.values())
        expected = ms.vector_of(reference_normal_form(p, ms))
        _assert_f64_close(ms.vector_of(nf), expected, max(map(abs, expected)))


def test_float_overflow_raises_numeric_error():
    # every rule tail scaled by 1e200: M_0 M_1 and M_0 M_0 hold products
    # 1e200 * 1e200, beyond float64, so each route on the array raises
    # NumericError, as FloatField.normalize does, and numpy warns of nothing
    f = parse_field("f64:1e-10")
    bb = compute(["x0^2 - 1", "x1^2 - 1"], f)
    rules = {w: RewritingRule(w, r.tail.mul_monomial(mono_one(2), 1e200)) for w, r in bb.rules.items()}
    ms = BorderBasis(bb.basis, rules, bb.loops, f, 2).ms
    x0 = ms.index[1, 0]
    assert ms.matrices[0][x0] == [1e200, 0.0, 0.0, 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="float overflow"):
            list(commutators(ms))
        with pytest.raises(NumericError, match="float overflow"):
            normal_form(poly_of("x0^4", f), ms, bb)
        with pytest.raises(NumericError, match="float overflow"):
            ms.apply(0, [1e200 if k == x0 else 0.0 for k in range(ms.dimension)])


@pytest.mark.parametrize("seed", [1, 9, 11])  # dimensions 2, 8, 8
def test_normal_form_beyond_int64_sums_matches_the_oracle(seed):
    # over 2^31 - 1 a sum of three products of residues overflows int64:
    # every basis holds an int64 array, and the level products of a basis of
    # dimension 8 and the final product of a query with three or more terms
    # outside B run in int64 chunks of two products, each reduced mod p
    bb, polys = _regular(seed, "fp:2147483647")
    assert bb.ms.array.dtype == np.int64
    projector = OracleProjector(bb, _query_degree(bb, polys))
    rng = seeded(200 + seed)
    for _ in range(4):
        p = random_poly(rng, bb.field, bb.nvars, _query_degree(bb, polys), density=0.3)
        assert not int64_sums_fit(bb.field, sum(m not in bb.ms.index for m in p.terms))
        nf = normal_form(p, bb.ms, bb)
        assert nf == projector.project(p) == reference_normal_form(p, bb.ms)
        assert all(type(c) is int for c in nf.terms.values())


def test_int64_normal_form_edge_cases(katsura3_fp):
    bb, _, projector = katsura3_fp
    f, n, ms = bb.field, bb.nvars, bb.ms
    zero = Polynomial.zero(f, n)
    assert normal_form(zero, ms, bb).is_zero()
    const = Polynomial.monomial(f, n, (0,) * n, 5)
    assert normal_form(const, ms, bb) == const
    inside = Polynomial(f, n, {b: k + 1 for k, b in enumerate(bb.basis)})
    assert normal_form(inside, ms, bb) == inside
    # u1*u3^3, u2*u3^3 and u0*u3^3 peel to u3^3; u0*u1*u3^3 peels to u1*u3^3
    shared = [(1, 0, 0, 3), (0, 1, 0, 3), (0, 0, 1, 3), (1, 1, 0, 3)]
    assert all(m not in ms.index for m in shared)
    p = Polynomial(f, n, {m: k + 1 for k, m in enumerate(shared)})
    singles = [normal_form(Polynomial.monomial(f, n, m, k + 1), ms, bb) for k, m in enumerate(shared)]
    total = Polynomial.zero(f, n)
    for q in singles:
        total = total.add(q)
    assert normal_form(p, ms, bb) == total == projector.project(p)
    # coefficients outside [0, p), in B and outside it, even beyond int64
    P = f.p
    offsets = [-3 * P, 2**70 * P, -(2**64) * P, 7 * P]
    raw = Polynomial(
        f, n, {m: c + offsets[k % 4] for k, (m, c) in enumerate({**inside.terms, **p.terms}.items())}
    )
    reduced = Polynomial(f, n, {m: c % P for m, c in raw.terms.items()})
    nf = normal_form(raw, ms, bb)
    assert nf == normal_form(reduced, ms, bb) == reference_normal_form(raw, bb.ms)
    assert all(type(c) is int and 0 <= c < P for c in nf.terms.values())


def _fractional_query(rng, bb, deg):
    """A random query whose coefficients c/q, 0 < |c| <= 9 and q a prime
    above 9, are none of them integers."""
    p = random_poly(rng, bb.field, bb.nvars, deg, density=0.3)
    return Polynomial(bb.field, bb.nvars, {m: c / rng.choice([11, 13, 17, 19]) for m, c in p.terms.items()})


def _assert_qq_levels_match(bb, p):
    nf = normal_form(p, bb.ms, bb)
    assert nf == reference_normal_form(p, bb.ms)
    assert all(type(c) is Fraction for c in nf.terms.values())
    return nf


def test_qq_normal_form_matches_the_oracles_on_katsura3(katsura3_fp):
    # at degree 6 the exact elimination oracle takes about 14 s on Katsura 3
    # over qq: the per-monomial reference is exact, and the
    # elimination mod 1000003 on the same B checks every answer mod p
    fp_bb, _, projector = katsura3_fp
    qq, fp = parse_field("qq"), fp_bb.field
    polys = gen_katsura(qq, 3)
    bb = compute_border_basis(polys, parse_choice("mac"))
    assert bb.basis == fp_bb.basis and bb.ms.denominator % fp.p

    def mod_p(q):
        return Polynomial(fp, q.nvars, {m: fp.from_fraction(c) for m, c in q.terms.items()})

    rng = seeded(71)
    for _ in range(6):
        p = _fractional_query(rng, bb, _query_degree(bb, polys))
        assert mod_p(_assert_qq_levels_match(bb, p)) == projector.project(mod_p(p))


def test_qq_normal_form_matches_the_exact_oracle_on_katsura3():
    # the oracle's elimination on integer rows up to degree 4, about a second
    qq = parse_field("qq")
    bb = compute_border_basis(gen_katsura(qq, 3), parse_choice("mac"))
    projector = OracleProjector(bb, 4)
    rng = seeded(73)
    for _ in range(6):
        p = _fractional_query(rng, bb, 4)
        assert p.degree() == 4
        assert _assert_qq_levels_match(bb, p) == projector.project(p)


@pytest.mark.parametrize("seed", [5, 9])  # dimensions 4, 8
def test_qq_normal_form_matches_the_oracle_on_regular_systems(seed):
    # the oracle's elimination on integer rows up to degree 4; deeper queries
    # against the per-monomial reference
    bb, polys = _regular(seed, "qq")
    assert bb.ms.array.dtype == object
    projector = OracleProjector(bb, 4)
    rng = seeded(300 + seed)
    for _ in range(6):
        p = _fractional_query(rng, bb, 4)
        assert _assert_qq_levels_match(bb, p) == projector.project(p)
    for _ in range(4):
        _assert_qq_levels_match(bb, _fractional_query(rng, bb, _query_degree(bb, polys)))


def test_qq_normal_form_edge_cases(qq):
    bb = compute_border_basis(gen_katsura(qq, 3), parse_choice("mac"))
    f, n, ms = bb.field, bb.nvars, bb.ms
    assert normal_form(Polynomial.zero(f, n), ms, bb).is_zero()
    inside = Polynomial(f, n, {b: Fraction(k + 1, 3) for k, b in enumerate(bb.basis)})
    assert normal_form(inside, ms, bb) == inside
    # terms in B and outside it whose sum cancels in some coordinates
    member = bb.rules[min(bb.rules, key=mono_key)].poly().mul_monomial(mono_one(n), Fraction(-5, 7))
    assert normal_form(member, ms, bb).is_zero()
    p = member.add(inside)
    assert _assert_qq_levels_match(bb, p) == inside


@pytest.mark.parametrize("spec", ["qq", "fp:65537", "f64:1e-10"])
def test_normal_form_walks_any_depth(spec):
    # thousands of peels above B, each walked in one loop
    field = parse_field(spec)
    bb = compute(["x0^2 - 1", "x1^2 - 1"], field)
    for query, expected in (("x0^1200", "1"), ("x0^5001*x1^2", "x0")):
        assert normal_form(poly_of(query, field), bb.ms, bb) == poly_of(expected, field)


def test_matrix_json_round(qq, mac):
    bb = compute(["x0^2 - 1", "x1^2 - x1"], qq)
    ms = build_mult_system(bb)
    d = ms.to_json_dict(["x0", "x1"])
    assert d["basis"] == ["1", "x0", "x1", "x0*x1"]
    assert len(d["matrices"]["x0"]) == 4
    # without names the variables are x0, x1, ...
    assert ms.to_json_dict() == d

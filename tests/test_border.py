from fractions import Fraction

import pytest

from borderbasis import (
    InconsistentSystemError,
    NotZeroDimensionalError,
    Polynomial,
    check_commutation,
    compute_border_basis,
    build_mult_system,
    gen_katsura,
    normal_form,
    parse_choice,
    parse_field,
)
from borderbasis import border as border_module
from borderbasis.border import RewritingRule, _Echelon, _ModpEchelon, _RationalEchelon
from borderbasis.fields import float64_sums_fit, int64_sums_fit
from borderbasis.poly import connected_component_of_one, mono_key, monomials_of_degree_at_most

from conftest import (
    NotReducibleError,
    _rule_c_polynomial,
    border,
    check_reducing_family,
    compute,
    exhaustive_rewrite,
    poly_of,
    random_poly,
    random_regular_system,
    reduce_by_rules,
    seeded,
    shifts_by_products,
    stable_by_division,
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


def test_interreduce(qq, mac):
    B = {(0,), (1,)}
    P = [poly_of("x0^2 - 1", qq, 1), poly_of("x0^2 - x0", qq, 1)]
    ech = _Echelon(B, mac, qq, 1)
    ech.insert_batch([ech.row(p.terms) for p in P])
    assert len(ech.elements) == 2
    elements = [ech.poly(e) for e in ech.elements]
    # one rule with lead x0^2, one witness with its support in B
    assert elements[ech.pivot_of[ech.col[(2,)]]].support() - B == {(2,)}
    assert sum(e.support() <= B for e in elements) == 1


def test_interreduce_dependent(qq, mac):
    B = {(0, 0), (1, 0)}
    p = poly_of("x0^2 - x0", qq)
    ech = _Echelon(B, mac, qq, 2)
    assert len(ech.insert_batch([ech.row(p.terms), ech.row(p.mul_monomial((0, 0), qq.from_int(2)).terms)])) == 1
    assert ech.poly(ech.elements[0]).support() - B == {(2, 0)}


def test_back_reduction_keeps_inserted_rows(qq, mac):
    # the saturation frontier holds the returned rows while later inserts
    # back-reduce the elements, so those must be reduced on copies
    ech = _Echelon({(0,), (1,), (2,)}, mac, qq, 1)
    returned = ech.insert(ech.row(poly_of("x0^3 + x0^2", qq, 1).terms))
    ech.insert(ech.row(poly_of("x0^2 - 1", qq, 1).terms))
    assert ech.poly(returned) == poly_of("x0^3 + x0^2", qq, 1)
    assert ech.poly(ech.elements[0]) == poly_of("x0^3 + 1", qq, 1)


def test_pivot_with_inverse_below_eps_keeps_its_row(f64, mac):
    # 1/1e11 is below eps; scaling by it must not empty the row, or the empty
    # element's pivot column could never be reduced and the loop would hang
    ech = _Echelon({(0,)}, mac, f64, 1)
    ech.insert(ech.row(poly_of("1e11*x0 - 1", f64, 1).terms))
    assert ech.poly(ech.elements[0]).support() == {(1,)}


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
    # a nonzero constant generator is its own witness
    with pytest.raises(InconsistentSystemError) as err:
        compute(["x0^2 - 1", "3"], qq)
    assert err.value.witness == poly_of("3", qq)


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
    ms = build_mult_system(bb)
    assert normal_form(poly_of("x0^2*x1^2", qq), ms, bb) == poly_of("x1", qq)
    assert normal_form(poly_of("x0^3", qq), ms, bb) == poly_of("x0", qq)
    for b in bb.basis:
        p = Polynomial.monomial(qq, 2, b)
        assert normal_form(p, ms, bb) == p


def test_extended_project_matches_rewriting_oracle(qq, mac):
    rng = seeded(17)
    bb = compute(["x0^2 - 1", "x1^2 - x1"], qq)
    ms = build_mult_system(bb)
    for _ in range(25):
        p = random_poly(rng, qq, 2, 5)
        assert normal_form(p, ms, bb) == exhaustive_rewrite(p, bb)


def test_generators_reduce_to_zero(fp, mac):
    rng = seeded(23)
    for _ in range(15):
        polys, _ = random_regular_system(rng, fp, rng.randint(1, 3), 3)
        bb = compute_border_basis(polys, mac.clone())
        ms = build_mult_system(bb)
        for p in polys:
            assert normal_form(p, ms, bb).is_zero()


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


# Over f64 an absolute eps on C-polynomial residues once shrank B wrongly:
# A raised InconsistentSystemError, B exceeded the loop guard and C returned
# a 2-element basis that passed commutation.
FLOAT_SYSTEMS = [
    pytest.param(
        "minsz",
        18,
        [
            "1 - 2*x2^2 - 3*x1*x2 - x1^2 - x0 - x0*x1",
            "3 - 3*x2 + 2*x2^3 - x1*x2 + 3*x1^2*x2 - x1^3 - 3*x0*x1 - 2*x0*x1*x2"
            " - 3*x0*x1^2 - 3*x0^2 - x0^3",
            "x2 + 2*x1*x2 - x1*x2^2 - x1^3 - 2*x0*x2 + 3*x0*x1*x2 - 2*x0^2 - x0^2*x1 + 3*x0^3",
        ],
        id="A",
    ),
    pytest.param(
        "mix:3",
        12,
        [
            "-3 + 2*x2^2 - 2*x1 - x1*x2^2 + x1^2 + 3*x0*x2 + 3*x0^2*x2",
            "-x2^2 - 3*x1 + 2*x0^2",
            "x2^2 + 3*x1 + x1*x2 - x1^2 + x0*x1 + 2*x0^2",
        ],
        id="B",
    ),
    pytest.param(
        "mix:3",
        12,
        [
            "-3*x1 - x1*x2^2 - 2*x1^2 + x0*x2 + x0*x2^2 - 2*x0*x1 + 3*x0*x1*x2 + x0*x1^2"
            " - 2*x0^2*x2",
            "-x1^2 + 3*x0*x1 + 3*x0^2",
            "-x2^2 - 3*x1*x2 + 3*x0 - 2*x0*x2",
        ],
        id="C",
    ),
]


@pytest.mark.parametrize("choice, dim, srcs", FLOAT_SYSTEMS)
def test_float_dimension_matches_qq(qq, f64, choice, dim, srcs):
    assert compute(srcs, qq, nvars=3, choice=choice).dimension == dim
    assert compute(srcs, f64, nvars=3, choice=choice).dimension == dim


def test_non_order_ideal_bases_are_certified(fp):
    # dense random systems give some B connected to 1 that are not order
    # ideals; there the pairs of rules alone do not cover every neighbour
    rng = seeded(7)
    non_order_ideal = 0
    for _ in range(24):
        n = rng.randint(2, 3)
        polys = [random_poly(rng, fp, n, rng.randint(2, 3)) for _ in range(n + rng.randint(0, 1))]
        for choice in ("drvl", "dlex", "mac", "minsz", "mix:1"):
            try:
                bb = compute_border_basis(polys, parse_choice(choice))
            except (InconsistentSystemError, NotZeroDimensionalError):
                continue
            ok, witness = check_commutation(build_mult_system(bb))
            assert ok, witness
            Bplus = bb.basis_set | border(bb.basis_set)
            leads = sorted(bb.rules, key=mono_key)
            for a, lead in enumerate(leads):
                for other in leads[a + 1 :]:
                    c = _rule_c_polynomial(bb.rules[lead], bb.rules[other])
                    if c.support() <= Bplus:
                        assert reduce_by_rules(c, bb.rules, bb.basis_set).is_zero()
            non_order_ideal += not stable_by_division(bb.basis_set)
    assert non_order_ideal > 0


CHOICES = ["drvl", "dlex", "mac", "minsz", "mix:1"]


def _bases_connected_to_one():
    """The non-order-ideal basis of test_syzygy, then seeded random sets
    connected to 1 in one to three variables."""
    from test_syzygy import NON_ORDER_IDEAL

    yield compute(NON_ORDER_IDEAL, parse_field("qq"), choice="drvl").basis_set
    rng = seeded(37)
    for _ in range(30):
        n = rng.randint(1, 3)
        monos = monomials_of_degree_at_most(n, 4)
        sample = set(rng.sample(monos, rng.randint(1, len(monos))))
        yield connected_component_of_one(sample | {(0,) * n})


def test_universe_tables_match_the_products():
    # B+, its border flags and the shift table, formed once per monomial as
    # exponent increments, against one monomial product each; the int64
    # kernel's (src, dst, outside) triples are the same table
    field = parse_field("fp:65537")
    for B in _bases_connected_to_one():
        n = len(next(iter(B)))
        for kernel in (_Echelon, _ModpEchelon):
            ech = kernel(B, parse_choice("drvl"), field, n)
            assert ech.cols == sorted(B | border(B), key=mono_key)
            assert ech.border == [m not in B for m in ech.cols]
            assert ech.shift == shifts_by_products(ech.cols, n)
        for (src, dst, outside), row in zip(ech._shifts, ech.shift):
            assert src.tolist() == [k for k, t in enumerate(row) if t is not None]
            assert dst.tolist() == [t for t in row if t is not None]
            assert outside.tolist() == [k for k, t in enumerate(row) if t is None]


def _random_batch(rng, field, ncols, size, coeff):
    """Seeded rows over ncols columns with nonzero coefficients coeff(rng);
    every third one a combination of two earlier ones, so some rows reduce
    to zero."""
    rows = []
    for t in range(size):
        if t >= 2 and t % 3 == 0:
            a, b = rng.sample(rows, 2)
            row = {}
            for r in (a, b):
                c = coeff(rng)
                for k, v in r.items():
                    row[k] = field.normalize(row.get(k, 0) + c * v)
            row = {k: v for k, v in row.items() if v}
        else:
            keys = rng.sample(range(ncols), rng.randint(1, ncols))
            row = {k: coeff(rng) for k in keys}
        if row:
            rows.append(row)
    return rows


@pytest.mark.parametrize("spec", ["fp:65537", "fp:1000003", "fp:100000007"])
@pytest.mark.parametrize("choice", CHOICES)
def test_int64_echelon_matches_the_dict_echelon(spec, choice):
    # the same seeded batches, then their x_i-multiples, into both echelons:
    # the same rows back in order, the same pivots, the same elements and,
    # under mix, the same coin draws (the first two primes reduce by the
    # float64 product, 100000007 by the int64 one)
    field = parse_field(spec)
    rng = seeded(13)
    for _ in range(6):
        n = rng.randint(2, 3)
        B = set(monomials_of_degree_at_most(n, rng.randint(1, 3)))
        cfs = parse_choice(choice), parse_choice(choice)
        ref, kern = _Echelon(B, cfs[0], field, n), _ModpEchelon(B, cfs[1], field, n)
        assert int64_sums_fit(field, len(kern.cols))
        assert kern._in_float == (field.p < 10**8)
        for _ in range(3):
            size = rng.randint(1, 12)
            batch = _random_batch(
                rng, field, len(ref.cols), size, lambda r: field.from_int(r.randint(1, field.p - 1))
            )
            returned = kern.insert_batch(batch)
            assert returned == ref.insert_batch([dict(r) for r in batch])
            multiples = [q for e in returned for q in ref.multiples(e)]
            assert kern._dicts(kern._multiples(kern._dense(returned))) == multiples
            assert kern.insert_batch(multiples) == ref.insert_batch(multiples)
        assert list(kern.pivot_of.items()) == list(ref.pivot_of.items())
        assert kern.elements == ref.elements
        assert cfs[0]._rng is None or cfs[0]._rng.getstate() == cfs[1]._rng.getstate()


@pytest.mark.parametrize("choice", CHOICES)
def test_int64_kernel_gives_the_dict_bases(monkeypatch, choice):
    # every loop on the int64 kernel, then none: identical bases and loops
    field = parse_field("fp:65537")
    rng = seeded(17)
    systems = [random_regular_system(rng, field, rng.randint(2, 3), 3)[0] for _ in range(12)]
    runs = []
    for size in (0, 10**9):
        monkeypatch.setattr(border_module, "_KERNEL_MIN_SIZE", size)
        runs.append([compute_border_basis(F, parse_choice(choice)) for F in systems])
    for a, b in zip(*runs):
        assert a.to_json_dict() == b.to_json_dict() and a.loops == b.loops


@pytest.mark.parametrize("n, dim", [(4, 16), (5, 32)])
def test_katsura_beyond_the_float64_range(n, dim):
    # the sums of 100000007 fit int64 but not float64 at these |B+|, so its
    # blocks take the int64 product: the same basis and loops as over
    # 1000003, whose blocks take the float64 one
    big, small = parse_field("fp:100000007"), parse_field("fp:1000003")
    assert int64_sums_fit(big, (n + 1) * dim) and not float64_sums_fit(big, 1)
    a, b = (compute_border_basis(gen_katsura(f, n), parse_choice("mac")) for f in (big, small))
    assert a.basis == b.basis and len(a.basis) == dim and a.loops == b.loops


def _fraction(rng):
    """A nonzero Fraction whose numerator and denominator have up to 12 digits."""
    num, den = (rng.randint(1, 10 ** rng.randint(0, 12)) for _ in range(2))
    return Fraction(rng.choice((-1, 1)) * num, den)


@pytest.mark.parametrize("choice", CHOICES)
def test_rational_echelon_matches_the_dict_echelon(choice):
    # seeded batches with fractional coefficients of varied sizes, then their
    # x_i-multiples, into both echelons: the same rows back in order, the
    # same pivots, the same elements and, under mix, the same coin draws;
    # eps 1e-3 makes every choice read the coefficients' magnitudes
    field = parse_field("qq")
    rng = seeded(19)
    for eps in (0.0, 0.0, 1e-3):
        n = rng.randint(2, 3)
        B = set(monomials_of_degree_at_most(n, rng.randint(1, 3)))
        cfs = parse_choice(choice, eps), parse_choice(choice, eps)
        ref, kern = _Echelon(B, cfs[0], field, n), _RationalEchelon(B, cfs[1], field, n)
        for _ in range(3):
            batch = _random_batch(rng, field, len(ref.cols), rng.randint(1, 12), _fraction)
            returned = kern.insert_batch(batch)
            assert returned == ref.insert_batch([dict(r) for r in batch])
            multiples = [q for e in returned for q in ref.multiples(e)]
            assert kern.insert_batch(multiples) == ref.insert_batch(multiples)
        assert list(kern.pivot_of.items()) == list(ref.pivot_of.items())
        assert kern.elements == ref.elements
        assert all(type(c) is Fraction for e in kern.elements for c in e.values())
        assert cfs[0]._rng is None or cfs[0]._rng.getstate() == cfs[1]._rng.getstate()


class _RepickEchelon(_Echelon):
    """The reference float loop: after every insertion it reduces every
    pending row and re-picks every row's pivot."""

    def insert_batch(self, rows):
        inserted = []
        pending = [r for r in map(self.reduce, rows) if r]
        while pending:
            # pending rows are reduced and nonzero, so each one is inserted
            mags = [self.field.magnitude(r[self._select_pivot(r)]) for r in pending]
            inserted.append(self.insert(pending.pop(mags.index(max(mags)))))
            pending = [r for r in map(self.reduce, pending) if r]
        return inserted


def _items(rows):
    """Rows as lists of (column, coefficient): key order counts."""
    return [list(r.items()) for r in rows]


def _inserted(ech, rows):
    """The rows ech.insert_batch returns, or the error when the choice's eps
    filter empties a pending row's support."""
    try:
        return _items(ech.insert_batch(rows))
    except border_module.DegenerateInputError as exc:
        return str(exc)


@pytest.mark.parametrize("choice", CHOICES)
def test_float_batch_matches_the_repick_reference(choice):
    # seeded f64 batches with magnitudes 1e-8..1e8, then their x_i-multiples,
    # into the echelon and the reference: the same rows back in order and in
    # key order, the same pivots, the same elements and, under mix, the same
    # coin draws; under eps 0 a row reduced against the new element alone
    # keeps rounding residues, so this needs the full reduce
    rng = seeded(29)
    for spec in ("f64:0", "f64:1e-10", "f64:1e-3"):
        field = parse_field(spec)

        def coeff(r):
            return r.choice((-1.0, 1.0)) * 10.0 ** r.uniform(-8, 8)

        for eps in (0.0, 0.0, 1e-3, 1e-3):
            n = rng.randint(2, 3)
            B = set(monomials_of_degree_at_most(n, rng.randint(2, 3)))
            cfs = parse_choice(choice, eps), parse_choice(choice, eps)
            ref, ech = _RepickEchelon(B, cfs[0], field, n), _Echelon(B, cfs[1], field, n)
            for _ in range(3):
                # as the echelon gets them from polynomials: no zero coefficient
                batch = _random_batch(rng, field, len(ref.cols), rng.randint(1, 12), coeff)
                batch = [{k: v for k, v in r.items() if not field.is_zero(v)} for r in batch]
                batch = [r for r in batch if r]
                returned = _inserted(ech, [dict(r) for r in batch])
                assert returned == _inserted(ref, batch)
                if isinstance(returned, str):
                    break
                multiples = [q for e in returned for q in ref.multiples(dict(e))]
                returned = _inserted(ech, [dict(r) for r in multiples])
                assert returned == _inserted(ref, multiples)
                if isinstance(returned, str):
                    break
            assert list(ech.pivot_of.items()) == list(ref.pivot_of.items())
            assert _items(ech.elements) == _items(ref.elements)
            assert cfs[0]._rng is None or cfs[0]._rng.getstate() == cfs[1]._rng.getstate()


def _gamma_pivot(ech, row):
    """`_select_pivot` through the choice function's gamma on a polynomial."""
    d = max(ech.size[k] for k in row)
    top_border = [k for k in row if ech.border[k] and ech.size[k] == d]
    if len(top_border) == 1:
        return top_border[0]
    return ech.col[border_module._gamma(ech.cf, ech.poly({k: row[k] for k in top_border or row}))]


@pytest.mark.parametrize("choice", ["drvl", "dlex", "mac"])
@pytest.mark.parametrize(
    "kernel, spec",
    [
        (_Echelon, "qq"),
        (_Echelon, "fp:65537"),
        (_Echelon, "f64:1e-10"),
        (_RationalEchelon, "qq"),
        (_ModpEchelon, "fp:65537"),
    ],
)
def test_key_ordered_pick_is_gammas_pick(kernel, spec, choice):
    # the pick by cf.key equals gamma's on seeded rows, and a batch inserted
    # through either pick gets the same pivots
    field = parse_field(spec)
    rng = seeded(31)
    keyed = 0
    for _ in range(6):
        n = rng.randint(2, 3)
        B = set(monomials_of_degree_at_most(n, rng.randint(1, 3)))
        ech, ref = kernel(B, parse_choice(choice), field, n), kernel(B, parse_choice(choice), field, n)
        ref._select_pivot = lambda row, ref=ref: _gamma_pivot(ref, row)
        batch = _random_batch(
            rng, field, len(ech.cols), rng.randint(1, 12), lambda r: field.from_int(r.randint(1, 99))
        )
        for row in batch:
            assert ech._select_pivot(row) == _gamma_pivot(ech, row)
            d = max(ech.size[k] for k in row)
            keyed += sum(ech.border[k] and ech.size[k] == d for k in row) != 1
        ech.insert_batch([dict(r) for r in batch])
        ref.insert_batch(batch)
        assert list(ech.pivot_of.items()) == list(ref.pivot_of.items())
    assert keyed > 0


def test_float_basis_repicks_only_changed_rows(monkeypatch):
    # Katsura 4 over f64 under mac: re-picking every pending row after each
    # insertion made 10,175 pivot picks, re-picking only the rows an
    # insertion changes makes 1,691
    calls = []
    select = border_module._Universe._select_pivot

    def counted(self, row):
        calls.append(None)
        return select(self, row)

    monkeypatch.setattr(border_module._Universe, "_select_pivot", counted)
    bb = compute_border_basis(gen_katsura(parse_field("f64:1e-10"), 4), parse_choice("mac"))
    assert bb.dimension == 16
    assert len(calls) <= 1400


@pytest.mark.parametrize(
    "spec, n",
    [(spec, n) for spec in ("fp:1000003", "qq", "f64:1e-10") for n in (3, 4)] + [("fp:1000003", 5)],
)
@pytest.mark.parametrize("choice", CHOICES)
def test_rules_are_built_once(monkeypatch, spec, n, choice):
    # the rules are built after the uncovered-border test, so only the
    # certified loop builds any: one per returned rule (building one per
    # single-border element of every loop made 85 for 48 on Katsura 4 / mac)
    built = []
    init = RewritingRule.__init__

    def counted(self, lead, tail):
        built.append(lead)
        init(self, lead, tail)

    monkeypatch.setattr(RewritingRule, "__init__", counted)
    bb = compute_border_basis(gen_katsura(parse_field(spec), n), parse_choice(choice))
    assert bb.dimension == 2**n
    assert len(built) == len(bb.rules)


def _qq_systems(rng):
    """Seeded qq systems: regular ones whose lower terms have fractional
    coefficients, and dense random ones, which may be inconsistent or not
    zero-dimensional."""
    qq = parse_field("qq")
    for _ in range(6):
        polys, _ = random_regular_system(rng, qq, rng.randint(2, 3), 3)
        yield [
            Polynomial(qq, p.nvars, {m: c if c == 1 else c * _fraction(rng) for m, c in p.terms.items()})
            for p in polys
        ]
    for _ in range(6):
        n = rng.randint(2, 3)
        yield [random_poly(rng, qq, n, rng.randint(2, 3)) for _ in range(n + rng.randint(0, 1))]


def _outcome(F, choice):
    try:
        bb = compute_border_basis(F, parse_choice(choice))
    except NotZeroDimensionalError as exc:
        return type(exc), str(exc)
    return bb.to_json_dict(), bb.loops


@pytest.mark.parametrize("choice", CHOICES)
def test_rational_echelon_gives_the_dict_bases(monkeypatch, choice):
    # every qq loop on the integer rows, then on the dict rows: identical
    # bases, rules, loops and errors
    systems = list(_qq_systems(seeded(23)))
    fast = [_outcome(F, choice) for F in systems]
    monkeypatch.setattr(border_module, "_RationalEchelon", _Echelon)
    assert [_outcome(F, choice) for F in systems] == fast
    assert any(type(bb) is dict for bb, _ in fast)


def test_katsura3_beyond_the_int64_range():
    # 2^31 - 1 fits only sums of two products, so every loop takes the dict rows
    field = parse_field("fp:2147483647")
    assert not int64_sums_fit(field, 3)
    bb = compute_border_basis(gen_katsura(field, 3), parse_choice("mac"))
    assert bb.dimension == 8
    assert check_commutation(bb.ms) == (True, None)

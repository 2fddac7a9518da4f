from borderbasis import (
    Polynomial,
    check_commutation,
    compute_border_basis,
    gen_katsura,
    generate_syzygies,
    normal_form,
    parse_choice,
    reduce_syzygy,
)
from borderbasis import syzygy
from borderbasis.fields import parse_field
from borderbasis.poly import (
    axpy,
    mono_key,
    mono_mul,
    mono_one,
    mono_var,
)
from borderbasis.quotient import neighbours
from borderbasis.syzygy import (
    KIND_ACROSS_STREET,
    KIND_NEXT_DOOR,
    KIND_NON_STAIR,
    SyzygyError,
    _lift,
    _nested,
    expand_syzygy,
    mu,
    verify_syzygy,
)

import hashlib

import pytest

from conftest import (
    border,
    compute,
    monomials_of_degree_at_most,
    non_commuting_basis,
    oracle_syzygy_basis,
    poly_of,
    product,
    random_poly,
    random_regular_system,
    seeded,
    stable_by_division,
)


# B = {1, x0, x1, x0*x1, x1^2, x0^2*x1} under drvl: connected to 1, not an order ideal
NON_ORDER_IDEAL = ["-3*x1^2 + 8*x0*x1 + 8*x0^2 + 7*x1", "x0^2*x1 - 8*x0^3 - 2*x1^2 + 8*x0^2"]

BASES = {
    "qq": lambda: compute_border_basis(gen_katsura(parse_field("qq"), 3), parse_choice("drvl")),
    "fp": lambda: compute_border_basis(gen_katsura(parse_field("fp:1000003"), 4), parse_choice("mac")),
    "drvl": lambda: compute(NON_ORDER_IDEAL, parse_field("qq"), choice="drvl"),
    "f64": lambda: compute_border_basis(gen_katsura(parse_field("f64:1e-10"), 3), parse_choice("mac")),
}


def _mu_by_products(v, i, bb):
    """mu^i with one monomial product per basis element: the reference for
    the border table ``ms.outside``."""
    f = bb.field
    xi = mono_var(bb.nvars, i)
    one = mono_one(bb.nvars)
    out = {}
    for b, c in zip(bb.basis, v):
        if not f.is_zero(c):
            w = mono_mul(b, xi)
            if w not in bb.basis_set:
                out[one, w] = c
    return out


def _in_order(coeffs):
    return [(w, list(h.terms.items())) for w, h in coeffs.items()]


@pytest.mark.parametrize("name", sorted(BASES))
def test_mu_equals_the_product_reference(name):
    bb = BASES[name]()
    f, D = bb.field, bb.dimension
    units = [[f.one if r == k else f.zero for r in range(D)] for k in range(D)]
    columns = [col for m in bb.ms.matrices for col in m]
    for i in range(bb.nvars):
        for v in units + columns:
            assert list(mu(v, i, bb).items()) == list(_mu_by_products(v, i, bb).items())


@pytest.mark.parametrize("name", sorted(BASES))
def test_generators_equal_their_lift_definition(name):
    # the closed form over the matrix columns against the one lift, value for
    # value and key for key (floats bit for bit)
    bb = BASES[name]()
    f, n = bb.field, bb.nvars
    minus_one = f.normalize(-f.one)
    rels = generate_syzygies(bb)
    assert [r.origin for r in rels] == [
        (bb.basis[k], i, j) for k, i, j in neighbours(bb.ms)
    ]
    for r in rels:
        b, i, j = r.origin
        u1, u2 = mono_mul(b, mono_var(n, i)), mono_mul(b, mono_var(n, j))
        vec = axpy(f, _lift(mono_var(n, i), u2, bb), minus_one, _lift(mono_var(n, j), u1, bb))
        if u2 in bb.basis_set:
            vec = axpy(f, {}, minus_one, vec)
        assert _in_order(r.coeffs) == _in_order(_nested(vec, bb))


@pytest.mark.parametrize("name", sorted(BASES))
def test_generated_relations_hold_no_zero_coefficient(name):
    # SyzygyRelation stores its coefficients as given: the generators must
    # build every h_w nonzero, with no zero term in it
    bb = BASES[name]()
    f = bb.field
    rels = generate_syzygies(bb)
    assert rels
    for r in rels:
        assert r.coeffs
        for h in r.coeffs.values():
            assert not h.is_zero()
            assert not any(f.is_zero(c) for c in h.terms.values())


def test_mu_basics(qq, mac):
    bb = compute(["x0^2 - 1", "x1^2 - x1"], qq)
    vec = bb.ms.vector_of
    # x_i b inside B: all mu zero
    assert mu(vec(Polynomial.monomial(qq, 2, (0, 0))), 0, bb) == {}
    # single border monomial: mu = 1 at x0^2, the term 1*e_{x0^2}
    assert mu(vec(Polynomial.monomial(qq, 2, (1, 0))), 0, bb) == {((0, 0), (2, 0)): qq.one}


def test_mu_linearity(qq, mac):
    bb = compute(["x0^2 - 1", "x1^2 - x1"], qq)
    half = qq.from_fraction(__import__("fractions").Fraction(1, 2))
    p = Polynomial(qq, 2, {(1, 0): half, (0, 1): half})
    # x0*x1 lands in B, only x0^2 contributes
    assert mu(bb.ms.vector_of(p), 0, bb) == {((0, 0), (2, 0)): half}


def test_reference_next_door(qq, mac):
    bb = compute(["x0^2 - 1", "x1^2 - x1"], qq)
    rels = generate_syzygies(bb)
    by_origin = {r.origin: r for r in rels}
    # m = x1: x0*x1 in B, x1^2 in the border, x0*x1^2 in the border
    r = by_origin[((0, 1), 0, 1)]
    assert r.kind == KIND_NEXT_DOOR
    assert set(r.coeffs) <= {(0, 2), (1, 2), (2, 0), (2, 1)}
    assert verify_syzygy(r, bb)
    # m = x0*x1: both products in the border
    r2 = by_origin[((1, 1), 0, 1)]
    assert r2.kind == KIND_ACROSS_STREET
    assert verify_syzygy(r2, bb)


def test_one_relation_per_mixed_triple(fp, mac):
    rng = seeded(13)
    for _ in range(10):
        polys, _ = random_regular_system(rng, fp, 2, 3, max_dim=8)
        bb = compute_border_basis(polys, mac.clone())
        rels = generate_syzygies(bb)
        origins = [r.origin for r in rels]
        assert len(origins) == len(set(origins))
        n = bb.nvars
        expected = 0
        for m in bb.basis:
            for i1 in range(n):
                for i2 in range(i1 + 1, n):
                    u1 = mono_mul(m, mono_var(n, i1))
                    u2 = mono_mul(m, mono_var(n, i2))
                    if u1 not in bb.basis_set or u2 not in bb.basis_set:
                        expected += 1
        assert len(rels) == expected


def test_stable_basis_has_no_non_stair(fp, mac):
    rng = seeded(19)
    seen_stable = 0
    for _ in range(20):
        polys, _ = random_regular_system(rng, fp, 2, 3, max_dim=8)
        bb = compute_border_basis(polys, mac.clone())
        if not stable_by_division(bb.basis_set):
            continue
        seen_stable += 1
        assert all(r.kind != KIND_NON_STAIR for r in generate_syzygies(bb))
    assert seen_stable > 0


def test_verify_rejects_perturbed(qq, mac):
    bb = compute(["x0^2 - 1", "x1^2 - x1"], qq)
    rels = generate_syzygies(bb)
    r = rels[0]
    assert verify_syzygy(r, bb)
    w = next(iter(r.coeffs))
    bumped = dict(r.coeffs)
    bumped[w] = bumped[w].add(poly_of("1", qq))
    assert not verify_syzygy(bumped, bb)
    assert verify_syzygy({}, bb)


def test_generators_are_certified_by_commutation(qq):
    bb = non_commuting_basis(qq)
    ok, (i, j, k) = check_commutation(bb.ms)
    assert not ok
    with pytest.raises(SyzygyError, match=rf"\(i, j, column\) = \({i}, {j}, {k}\)"):
        generate_syzygies(bb)


def test_reduce_generators_to_zero(qq, mac):
    bb = compute(["x0^2 - 1", "x1^2 - x1"], qq)
    for r in generate_syzygies(bb):
        assert reduce_syzygy(r, bb) == {}


def test_reduce_koszul(qq, mac):
    bb = compute(["x0^2 - 1", "x1^2 - x1"], qq)
    leads = sorted(bb.rules, key=mono_key)
    for a in range(len(leads)):
        for b in range(a + 1, len(leads)):
            fa, fb = bb.rules[leads[a]].poly(), bb.rules[leads[b]].poly()
            syz = {leads[a]: fb, leads[b]: Polynomial.zero(qq, 2).sub(fa)}
            assert expand_syzygy(syz, bb).is_zero()
            assert reduce_syzygy(syz, bb) == {}


def test_reduce_rejects_non_syzygy(qq, mac):
    bb = compute(["x0^2 - 1", "x1^2 - x1"], qq)
    with pytest.raises(SyzygyError):
        reduce_syzygy({(2, 0): poly_of("1", qq)}, bb)


def test_random_ideal_combination_syzygies(fp, mac):
    # pair trick: (q_b * f_a) e_b - (q_b f_b / f_b ... ) use f_a e_b * f_b - f_b e_a * f_a style
    rng = seeded(43)
    bb = compute_border_basis(
        [poly_of("x0^2 - x1", fp), poly_of("x1^2 - 1", fp)], mac.clone()
    )
    leads = sorted(bb.rules, key=mono_key)
    for _ in range(20):
        a, b = rng.sample(range(len(leads)), 2)
        q = random_poly(rng, fp, 2, 2)
        fa, fb = bb.rules[leads[a]].poly(), bb.rules[leads[b]].poly()
        syz = {leads[a]: product(q, fb), leads[b]: Polynomial.zero(fp, 2).sub(product(q, fa))}
        syz = {w: h for w, h in syz.items() if not h.is_zero()}
        assert reduce_syzygy(syz, bb) == {}


def test_decomposition_order_independence(qq, mac):
    # Xi along two variable orders differs by something reducing to zero
    bb = compute(["x0^2 - 1", "x1^2 - x1"], qq)
    theta = (2, 0)
    # m = x0*x1 applied to theta: x0 outermost (the lift) vs x1 outermost
    m = (1, 1)
    t_left = _lift(m, theta, bb)

    # peel the other variable first by one manual step on the lift of x0
    from borderbasis.poly import mono_div

    m_prev = mono_div(m, mono_var(2, 1))
    prev = _lift(m_prev, theta, bb)
    shifted = {(mono_mul(u, mono_var(2, 1)), w): c for (u, w), c in prev.items()}
    inner = normal_form(Polynomial.monomial(qq, 2, mono_mul(m_prev, theta)), bb.ms, bb)
    t_right = axpy(qq, shifted, qq.one, mu(bb.ms.vector_of(inner), 1, bb))

    diff = _nested(axpy(qq, t_left, qq.normalize(-qq.one), t_right), bb)
    assert expand_syzygy(diff, bb).is_zero()
    assert reduce_syzygy(diff, bb) == {}


@pytest.mark.parametrize("spec", ["qq", "fp:65537"], ids=["qq", "fp"])
def test_lift_expands_to_projection(spec):
    from borderbasis.poly import connected_component_of_one

    f = parse_field(spec)
    bb = compute(NON_ORDER_IDEAL, f, choice="drvl")
    assert connected_component_of_one(bb.basis_set) == bb.basis_set
    assert not stable_by_division(bb.basis_set)
    for theta in sorted(bb.basis_set | border(bb.basis_set), key=mono_key):
        for m in monomials_of_degree_at_most(2, 2):
            u = Polynomial.monomial(f, 2, mono_mul(m, theta))
            lift = _nested(_lift(m, theta, bb), bb)
            assert expand_syzygy(lift, bb) == u.sub(normal_form(u, bb.ms, bb))


def test_oracle_syzygy_completeness_small(fp, mac):
    rng = seeded(47)
    polys, _ = random_regular_system(rng, fp, 2, 2, max_dim=4)
    bb = compute_border_basis(polys, mac.clone())
    for syz in oracle_syzygy_basis(bb):
        assert verify_syzygy(syz, bb)
        assert reduce_syzygy(syz, bb) == {}


def _combinations(bb, seed, count=5):
    """count seeded syzygies, each a combination sum c_j x^a_j r_j of three
    generated relations r_j, x^a_j a variable or 1 and c_j in 1..100."""
    rng = seeded(seed)
    rels = generate_syzygies(bb)
    out = []
    for _ in range(count):
        coeffs = {}
        for rel in rng.sample(rels, 3):
            k = rng.randrange(bb.nvars + 1)
            mono = tuple(int(i == k) for i in range(bb.nvars))
            c = bb.field.from_int(rng.randint(1, 100))
            for w, h in rel.coeffs.items():
                term = h.mul_monomial(mono, c)
                coeffs[w] = coeffs[w].add(term) if w in coeffs else term
        out.append({w: h for w, h in coeffs.items() if not h.is_zero()})
    return out


@pytest.mark.parametrize("name", ["drvl", "fp", "qq"])
def test_seeded_combinations_reduce_to_zero(name):
    # drvl: the descent on a basis that is not an order ideal
    bb = BASES[name]()
    for syz in _combinations(bb, 20):
        assert verify_syzygy(syz, bb)
        assert reduce_syzygy(syz, bb) == {}


# (number, sha256 of the repr) of the _lift(m, theta) calls that
# reduce_syzygy makes, in order, on the combinations above; recorded while
# the descent still scanned B for every b-index and sorted every step
LIFT_SEQUENCES = {
    "drvl": (56, "70b7484cd2508eb4f3507a26188ee067e3fa920f1d712ea3e59c203f0108169b"),
    "fp": (188, "265003674576217b9e46d17b2edbd5d9e8826d4380060e56042b652c56b5b5f8"),
    "qq": (108, "db2692548780bf17052ee8cc2b033aa5495176a28fc25d0c2bcf766c948cb9f8"),
}


@pytest.mark.parametrize("name", sorted(LIFT_SEQUENCES))
def test_descent_takes_the_pinned_steps(name, monkeypatch):
    bb = BASES[name]()
    combos = _combinations(bb, 20)
    calls = []

    def lift(m, theta, bb):
        calls.append((m, theta))
        return _lift(m, theta, bb)

    monkeypatch.setattr(syzygy, "_lift", lift)
    for syz in combos:
        reduce_syzygy(syz, bb)
    digest = hashlib.sha256(repr(calls).encode()).hexdigest()
    assert (len(calls), digest) == LIFT_SEQUENCES[name]

from borderbasis import Polynomial, compute_border_basis, generate_syzygies, reduce_syzygy
from borderbasis.poly import mono_key, stable_by_division
from borderbasis.syzygy import (
    KIND_ACROSS_STREET,
    KIND_NEXT_DOOR,
    KIND_NON_STAIR,
    SyzygyError,
    expand_syzygy,
    mu,
    verify_syzygy,
)

import pytest

from conftest import compute, poly_of, random_poly, random_regular_system, seeded, oracle_syzygy_basis


def test_mu_basics(qq, mac):
    bb = compute(["x0^2 - 1", "x1^2 - x1"], qq)
    # x_i b inside B: all mu zero
    assert mu(Polynomial.monomial(qq, 2, (0, 0)), 0, bb) == {}
    # single border monomial: mu = 1 at x0^2
    assert mu(Polynomial.monomial(qq, 2, (1, 0)), 0, bb) == {(2, 0): qq.one}


def test_mu_linearity(qq, mac):
    bb = compute(["x0^2 - 1", "x1^2 - x1"], qq)
    half = qq.from_fraction(__import__("fractions").Fraction(1, 2))
    p = Polynomial(qq, 2, {(1, 0): half, (0, 1): half})
    assert mu(p, 0, bb) == {(2, 0): half}  # x0*x1 lands in B, only x0^2 contributes


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
        from borderbasis.poly import mono_mul, mono_var

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
            syz = {leads[a]: fb, leads[b]: fa.scale(qq.neg(qq.one))}
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
        syz = {leads[a]: q.mul(fb), leads[b]: q.mul(fa).scale(fp.neg(fp.one))}
        syz = {w: h for w, h in syz.items() if not h.is_zero()}
        assert reduce_syzygy(syz, bb) == {}


def test_decomposition_order_independence(qq, mac):
    # Xi along two variable orders differs by something reducing to zero
    from borderbasis.syzygy import _decomposition_vector, _add_vec, _scale_vec

    bb = compute(["x0^2 - 1", "x1^2 - x1"], qq)
    theta = (2, 0)
    # m = x0*x1 applied to theta: peel x0 first vs x1 first
    m = (1, 1)
    t_left = _decomposition_vector(m, theta, bb)

    # peel the other variable first by relabeling through a manual recursion
    from borderbasis.poly import mono_div, mono_mul, mono_var
    from borderbasis.syzygy import _const_coeffs

    m_prev = mono_div(m, mono_var(2, 1))
    prev = _decomposition_vector(m_prev, theta, bb)
    shifted = {w: h.mul_monomial(mono_var(2, 1)) for w, h in prev.items()}
    inner = bb.extended_project_monomial(mono_mul(m_prev, theta))
    t_right = _add_vec(shifted, _const_coeffs(mu(inner, 1, bb), bb))

    diff = _add_vec(t_left, _scale_vec(t_right, qq.neg(qq.one), qq))
    assert expand_syzygy(diff, bb).is_zero()
    assert reduce_syzygy(diff, bb) == {}


def test_oracle_syzygy_completeness_small(fp, mac):
    rng = seeded(47)
    polys, _ = random_regular_system(rng, fp, 2, 2, max_dim=4)
    bb = compute_border_basis(polys, mac.clone())
    for syz in oracle_syzygy_basis(bb):
        assert verify_syzygy(syz, bb)
        assert reduce_syzygy(syz, bb) == {}

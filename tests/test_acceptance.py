"""End-to-end acceptance checks with their runtime budgets.

Each test prints a one-line PASS summary so a full run reads as a checklist.
"""

import json
import time

from borderbasis import (
    Polynomial,
    build_mult_system,
    check_commutation,
    compute_border_basis,
    gen_katsura,
    normal_form,
    parse_choice,
    parse_field,
)
from borderbasis.cli import main
from borderbasis.poly import mono_key
from borderbasis.syzygy import generate_syzygies, reduce_syzygy, verify_syzygy

from conftest import (
    OracleProjector,
    _rule_c_polynomial,
    border,
    check_reducing_family,
    gen_intro_family,
    oracle_syzygy_basis,
    poly_of,
    random_poly,
    random_regular_system,
    reduce_by_rules,
    seeded,
)
from test_border import REFERENCE_B, reference_rules


def _report(name, elapsed, budget, detail=""):
    assert elapsed < budget, f"{name}: {elapsed:.2f}s exceeds the {budget}s budget"
    print(f"ACCEPTANCE {name} PASS ({elapsed:.2f}s < {budget}s) {detail}")


def test_acceptance_1_reference_family_roundtrip(qq):
    t0 = time.perf_counter()
    rules = reference_rules(qq)
    assert check_reducing_family(rules, REFERENCE_B, 3)
    # the C-polynomial of the two degree-3 rules exposes the failure
    c = _rule_c_polynomial(rules[(2, 1)], rules[(1, 2)])
    witness = reduce_by_rules(c, rules, REFERENCE_B)
    expected = poly_of("x0*x1 - x1", qq)
    assert witness == expected or witness == Polynomial.zero(qq, 2).sub(expected)
    _report("1", time.perf_counter() - t0, 1, "witness x0*x1 - x1")


def test_acceptance_2_criterion_equivalence(fp):
    t0 = time.perf_counter()
    rng = seeded(101)
    cf = parse_choice("mac")
    count = 0
    for _ in range(200):
        n = rng.randint(1, 3)
        polys, _ = random_regular_system(rng, fp, n, 3)
        bb = compute_border_basis(polys, cf.clone())
        ms = build_mult_system(bb)
        ok, witness = check_commutation(ms)
        assert ok, f"commutation failed at {witness}"
        Bplus = bb.basis_set | border(bb.basis_set)
        leads = sorted(bb.rules, key=mono_key)
        for a in range(len(leads)):
            for b in range(a + 1, len(leads)):
                c = _rule_c_polynomial(bb.rules[leads[a]], bb.rules[leads[b]])
                if c.is_zero() or not c.support() <= Bplus:
                    continue
                assert reduce_by_rules(c, bb.rules, bb.basis_set).is_zero()
        count += 1
    _report("2", time.perf_counter() - t0, 60, f"{count} systems")


def test_acceptance_3_syzygy_completeness(fp):
    t0 = time.perf_counter()
    rng = seeded(103)
    cf = parse_choice("mac")
    systems = 0
    reduced = 0
    while systems < 50:
        n = rng.randint(2, 3)
        polys, dim = random_regular_system(rng, fp, n, 3, max_dim=8)
        bb = compute_border_basis(polys, cf.clone())
        for rel in generate_syzygies(bb):
            assert verify_syzygy(rel, bb)
        for syz in oracle_syzygy_basis(bb):
            assert reduce_syzygy(syz, bb) == {}, "oracle syzygy did not reduce to zero"
            reduced += 1
        systems += 1
    _report("3", time.perf_counter() - t0, 120, f"{systems} systems, {reduced} kernel vectors")


def test_acceptance_4_katsura_dimensions():
    t0 = time.perf_counter()
    field = parse_field("fp:1000003")
    for n in (2, 3, 4, 5):
        for choice in ("mac", "drvl", "dlex"):
            bb = compute_border_basis(gen_katsura(field, n), parse_choice(choice))
            assert bb.dimension == 2**n, (n, choice, bb.dimension)
    _report("4", time.perf_counter() - t0, 30, "katsura 2..5 x {mac,drvl,dlex}")


def test_acceptance_5_katsura4_solve():
    t0 = time.perf_counter()
    field = parse_field("f64:1e-10")
    polys = gen_katsura(field, 4)
    bb = compute_border_basis(polys, parse_choice("mac"))
    ms = build_mult_system(bb)
    ok, _ = check_commutation(ms)
    assert ok
    from borderbasis import eigen_roots

    rs = eigen_roots(ms, seed=0, polys=polys)
    assert len(rs.roots) == 16
    assert rs.mnacr <= 1e-8, rs.mnacr
    _report("5", time.perf_counter() - t0, 10, f"mnacr {rs.mnacr:.2e}")


def test_acceptance_6_stability(qq):
    t0 = time.perf_counter()
    cf = parse_choice("mac")
    exact = gen_intro_family(qq, qq.one, qq.one, qq.one, qq.normalize(-qq.one), qq.zero, qq.zero)
    b0 = compute_border_basis(exact, cf)
    ff = parse_field("f64:1e-6")
    for eps in (1e-8, 1e-4):
        fam = gen_intro_family(ff, 1.0, 1.0, 1.0, -1.0, eps, eps)
        bf = compute_border_basis(fam, cf)
        assert bf.basis == b0.basis, (eps, bf.basis)
    _report("6", time.perf_counter() - t0, 1, f"B stable at eps 1e-8 and 1e-4")


def test_acceptance_7_normal_form_oracle(fp):
    t0 = time.perf_counter()
    rng = seeded(107)
    cf = parse_choice("mac")
    checked = 0
    for _ in range(50):
        n = rng.randint(1, 3)
        polys, _ = random_regular_system(rng, fp, n, 3, max_dim=12)
        bb = compute_border_basis(polys, cf.clone())
        ms = build_mult_system(bb)
        oracle = OracleProjector(bb, 4)
        for _ in range(20):
            p = random_poly(rng, fp, n, 4)
            assert normal_form(p, ms, bb) == oracle.project(p)
            checked += 1
    _report("7", time.perf_counter() - t0, 60, f"{checked} polynomials")


def test_acceptance_8_cli_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    field = parse_field("qq")
    polys = gen_katsura(field, 3)
    from borderbasis import format_system

    names = [f"u{i}" for i in range(4)]
    path = tmp_path / "katsura3.txt"
    path.write_text(format_system(names, field, polys))
    invocations = [
        ["basis", "--json", str(path)],
        ["matrices", "--json", str(path)],
        ["syzygies", "--json", str(path)],
        ["solve", "--json", "--seed", "0", str(path)],
        ["normalform", "-p", "u0^2", "--json", str(path)],
        ["katsura", "-n", "3", "--json", "basis"],
    ]
    for argv in invocations:
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1], f"non-deterministic output for {argv[0]}"
        json.loads(outputs[0])  # and it is valid JSON
    _report("8", time.perf_counter() - t0, 60, f"{len(invocations)} subcommands")

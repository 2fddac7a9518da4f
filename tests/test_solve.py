import math

import pytest

from borderbasis import (
    RootSet,
    SolveError,
    build_mult_system,
    compute_border_basis,
    eigen_roots,
    parse_choice,
    parse_field,
)
from borderbasis.solve import residuals

from conftest import gen_intro_family, mnacr, rule_residual, system_of


def roots_sorted(rs):
    return sorted(
        (tuple((round(z.real, 6), round(z.imag, 6)) for z in r) for r in rs.roots)
    )


def test_quadratic_roots(qq, mac):
    polys = system_of(["x0^2 - 3*x0 + 2"], qq, 1)
    bb = compute_border_basis(polys, mac)
    ms = build_mult_system(bb)
    rs = eigen_roots(ms, seed=0, polys=polys)
    assert roots_sorted(rs) == [((1.0, 0.0),), ((2.0, 0.0),)]
    assert rs.mnacr < 1e-9


def test_decoupled_system_roots(qq, mac):
    polys = system_of(["x0^2 - 1", "x1^2 - x1"], qq)
    bb = compute_border_basis(polys, mac)
    ms = build_mult_system(bb)
    rs = eigen_roots(ms, seed=0, polys=polys)
    assert roots_sorted(rs) == [
        ((-1.0, 0.0), (0.0, 0.0)),
        ((-1.0, 0.0), (1.0, 0.0)),
        ((1.0, 0.0), (0.0, 0.0)),
        ((1.0, 0.0), (1.0, 0.0)),
    ]
    assert rs.mnacr < 1e-9
    assert rule_residual(rs.roots, bb) < 1e-9


def test_multiple_root_with_multiplicity(qq, mac):
    # x0^2 = x1^2 = 0: root (0,0) with multiplicity 4
    import warnings

    polys = gen_intro_family(qq, qq.one, qq.zero, qq.zero, qq.one, qq.zero, qq.zero)
    bb = compute_border_basis(polys, mac)
    ms = build_mult_system(bb)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # cluster diagnostic is expected here
        rs = eigen_roots(ms, seed=0, polys=polys)
    assert len(rs.roots) == 4
    # a defective eigenproblem: the cluster radius scales like eps^(1/4)
    for root in rs.roots:
        assert all(abs(z) < 1e-2 for z in root)


def test_root_count_is_dimension():
    f64 = parse_field("f64:1e-10")
    polys = system_of(["x0^2 - 2.0", "x1^3 - x0"], f64)
    bb = compute_border_basis(polys, parse_choice("mac"))
    ms = build_mult_system(bb)
    rs = eigen_roots(ms, seed=0, polys=polys)
    assert len(rs.roots) == bb.dimension == 6
    assert rs.mnacr < 1e-8


def test_prime_field_rejected(fp, mac):
    polys = system_of(["x0^2 - 1", "x1^2 - x1"], fp)
    bb = compute_border_basis(polys, mac)
    ms = build_mult_system(bb)
    with pytest.raises(SolveError):
        eigen_roots(ms, seed=0)


def test_seed_determinism(qq, mac):
    polys = system_of(["x0^2 - 1", "x1^2 - x1"], qq)
    bb = compute_border_basis(polys, mac)
    ms = build_mult_system(bb)
    a = eigen_roots(ms, seed=5, polys=polys)
    b = eigen_roots(ms, seed=5, polys=polys)
    assert a.roots == b.roots and a.mnacr == b.mnacr


def test_mnacr_direct(qq):
    polys = system_of(["x0^2 - 1", "x1^2 - x1"], qq)
    assert mnacr([], polys) == 0.0
    assert mnacr([((1 + 0j), 0j)], polys) < 1e-15
    perturbed = mnacr([((1 + 1e-6 + 0j), 0j)], polys)
    assert math.isclose(perturbed, 2e-6, rel_tol=1e-2)


@pytest.mark.parametrize("condition", [math.inf, math.nan, None])
def test_report_writes_a_condition_that_is_not_finite_as_null(condition):
    assert RootSet([], 0.0, 0, condition).to_json_dict()["condition"] is None


def test_a_nan_residual_counts_as_infinite(qq):
    polys = system_of(["x0^2 - 1", "x1^2 - x1"], qq)
    roots = [(complex(math.nan, 0), 0j), ((1 + 0j), 0j)]
    assert residuals(roots, polys) == [math.inf, 0.0]
    assert mnacr(roots, polys) == math.inf
    report = RootSet(roots, mnacr(roots, polys), 0, 1.0, residuals(roots, polys)).to_json_dict()
    assert report["residuals"] == [None, 0.0]
    assert report["mnacr"] is None
    assert report["condition"] == 1.0

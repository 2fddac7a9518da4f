import json

import pytest

from borderbasis import gen_katsura
from borderbasis.cli import main
from borderbasis.systems import gen_intro_family

SYS = "ring x0 x1 over qq\nx0^2 - 1\nx1^2 - x1\n"


@pytest.fixture
def sysfile(tmp_path):
    path = tmp_path / "sys.txt"
    path.write_text(SYS)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_katsura_values(qq):
    polys = gen_katsura(qq, 2)
    rendered = {frozenset(p.terms.items()) for p in polys}
    # u0^2 + 2u1^2 + 2u2^2 - u0; 2u0u1 + 2u1u2 - u1; u0 + 2u1 + 2u2 - 1
    expect = [
        {(2, 0, 0): 1, (0, 2, 0): 2, (0, 0, 2): 2, (1, 0, 0): -1},
        {(1, 1, 0): 2, (0, 1, 1): 2, (0, 1, 0): -1},
        {(1, 0, 0): 1, (0, 1, 0): 2, (0, 0, 1): 2, (0, 0, 0): -1},
    ]
    assert rendered == {
        frozenset((m, qq.from_int(c)) for m, c in t.items()) for t in expect
    }


def test_katsura_rejects_zero(qq):
    with pytest.raises(ValueError):
        gen_katsura(qq, 0)


def test_intro_family_values(qq):
    polys = gen_intro_family(qq, qq.one, qq.zero, qq.zero, qq.one, qq.zero, qq.zero)
    assert polys[0].terms == {(2, 0): 1}
    assert polys[1].terms == {(0, 2): 1}


def test_intro_family_warns_on_singular(qq):
    with pytest.warns(UserWarning):
        gen_intro_family(qq, qq.one, qq.one, qq.one, qq.one, qq.zero, qq.zero)


def test_cli_basis(capsys, sysfile):
    code, out = run(capsys, ["basis", "--choice", "mac", "--json", sysfile])
    assert code == 0
    report = json.loads(out)
    assert report["basis"] == ["1", "x0", "x1", "x0*x1"]
    assert report["rule_count"] == 4
    assert report["commutation"] is True


def test_cli_matrices_dump(capsys, sysfile, tmp_path):
    dump = tmp_path / "m.json"
    code, out = run(
        capsys, ["matrices", "--json", "--dump-matrices", str(dump), sysfile]
    )
    assert code == 0
    assert json.loads(out)["matrices"]["x0"]
    assert json.loads(dump.read_text())["basis"] == ["1", "x0", "x1", "x0*x1"]


def test_cli_normalform_generators(capsys, sysfile):
    code, out = run(
        capsys,
        ["normalform", "-p", "x0^2 - 1", "-p", "x1^2 - x1", "--json", sysfile],
    )
    assert code == 0
    report = json.loads(out)
    assert [r["normal_form"] for r in report["normal_forms"]] == ["0", "0"]


def test_cli_solve(capsys, sysfile):
    code, out = run(capsys, ["solve", "--json", "--seed", "0", sysfile])
    assert code == 0
    report = json.loads(out)
    assert len(report["roots"]) == 4
    assert report["mnacr"] < 1e-9


def test_cli_syzygies(capsys, sysfile):
    code, out = run(capsys, ["syzygies", "--json", sysfile])
    assert code == 0
    rels = json.loads(out)["syzygies"]
    assert {r["kind"] for r in rels} == {"next_door", "across_street"}


def test_cli_katsura_basis(capsys):
    code, out = run(
        capsys, ["katsura", "-n", "4", "--field", "fp:1000003", "--json", "basis"]
    )
    assert code == 0
    assert len(json.loads(out)["basis"]) == 16


def test_cli_katsura_show(capsys):
    code, out = run(capsys, ["katsura", "--show"])
    assert code == 0
    assert "2^n solutions" in out


def test_cli_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("ring x0 over qq\nx0 * * 1\n")
    assert main(["basis", str(bad)]) == 1


def test_cli_not_zero_dimensional(capsys, tmp_path):
    bad = tmp_path / "pos.txt"
    bad.write_text("ring x0 x1 over qq\nx0*x1\n")
    assert main(["basis", str(bad)]) == 2


def test_cli_inconsistent(capsys, tmp_path):
    bad = tmp_path / "inc.txt"
    bad.write_text("ring x0 over qq\nx0\nx0 - 1\n")
    assert main(["basis", str(bad)]) == 2


def test_cli_solve_prime_field_is_numeric_error(capsys, tmp_path):
    path = tmp_path / "fp.txt"
    path.write_text("ring x0 over fp:7\nx0^2 - 1\n")
    assert main(["solve", str(path)]) == 3


@pytest.mark.parametrize("spec", ["f64:nan", "f64:inf"])
def test_cli_rejects_non_finite_eps(capsys, spec):
    assert main(["katsura", "-n", "3", "--field", spec, "--json", "basis"]) == 1


def test_cli_usage_error_exits_1(capsys, sysfile):
    # exit 2 means "not zero-dimensional"; argparse's default code would collide
    with pytest.raises(SystemExit) as exc:
        main(["basis", "--bogus", sysfile])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["basis", "--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["basis", "--seed", "1"],
        ["matrices", "--syzygies"],
        ["syzygies", "--dump-matrices", "m.json"],
        ["solve", "--syzygies"],
        ["normalform", "-p", "x0", "--seed", "1"],
    ],
)
def test_cli_rejects_flags_the_subcommand_ignores(capsys, sysfile, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + [sysfile])
    assert exc.value.code == 1


def test_cli_katsura_takes_every_flag(capsys, tmp_path):
    dump = tmp_path / "m.json"
    argv = ["katsura", "-n", "2", "--field", "fp:101", "--seed", "1", "--syzygies"]
    code, out = run(capsys, argv + ["--dump-matrices", str(dump), "--json", "basis"])
    assert code == 0
    assert json.loads(out)["syzygies"]
    assert json.loads(dump.read_text())["basis"] == json.loads(out)["basis"]


def test_cli_field_override(capsys, sysfile):
    code, out = run(capsys, ["basis", "--field", "fp:7", "--json", sysfile])
    assert code == 0
    assert json.loads(out)["field"] == "fp:7"

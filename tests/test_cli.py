import ast
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import borderbasis
from borderbasis import (
    border,
    choice,
    cli,
    fields,
    gen_katsura,
    poly,
    quotient,
    solve,
    syzygy,
    systems,
)
from borderbasis.cli import main

from conftest import gen_intro_family, non_commuting_basis

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


def test_cli_solve_reports_the_eigen_condition(capsys):
    code, out = run(capsys, ["katsura", "-n", "3", "--field", "qq", "--json", "solve"])
    assert code == 0
    report = json.loads(out)
    assert len(report["roots"]) == 8
    assert math.isfinite(report["condition"]) and report["condition"] >= 1


def test_cli_solve_reports_per_root_residuals(capsys):
    # residuals[k] is the max |f(root k)| over the inputs, mnacr their maximum
    code, out = run(capsys, ["katsura", "-n", "3", "--field", "qq", "--json", "solve"])
    assert code == 0
    report = json.loads(out)
    roots = [tuple(complex(re, im) for re, im in root) for root in report["roots"]]
    polys = gen_katsura(fields.parse_field("qq"), 3)
    expected = [max(abs(solve.evaluate_complex(p, root)) for p in polys) for root in roots]
    assert len(report["residuals"]) == len(roots) == 8
    assert report["residuals"] == expected
    assert report["mnacr"] == max(expected) < 1e-9


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


@pytest.mark.parametrize(
    "line,col", [("x - 1/0", 5), ("x^2 - .", 7), ("x - 2e+y", 5)], ids=["1/0", "dot", "2e+"]
)
def test_cli_malformed_number_is_a_located_parse_error(capsys, tmp_path, line, col):
    bad = tmp_path / "bad.txt"
    bad.write_text(f"ring x y over qq\n{line}\ny^2 - 1\n")
    assert main(["basis", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"at line 2, column {col}" in err


def test_cli_number_before_e_at_line_end_is_a_product(capsys, tmp_path):
    # "2e" reads as 2*e at the end of a line as it does mid-line
    reports = []
    for line in ("x - 2e", "x - 2e + 0"):
        path = tmp_path / "sys.txt"
        path.write_text(f"ring x e over qq\n{line}\ne^2 - 1\n")
        code, out = run(capsys, ["basis", "--json", str(path)])
        assert code == 0
        report = json.loads(out)
        del report["input_sha256"]
        reports.append(report)
    assert reports[0] == reports[1]


def test_cli_header_variable_must_be_a_name(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("ring x 2y over qq\nx^2 - 1\n")
    assert main(["basis", str(bad)]) == 1
    assert "bad variable name '2y' in ring header at line 1" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "flags, message",
    [
        pytest.param(["--field", "f64:nan"], "eps must be finite", id="f64:nan"),
        pytest.param(["--field", "f64:inf"], "eps must be finite", id="f64:inf"),
        pytest.param(["--eps", "nan"], "eps must be finite", id="eps:nan"),
        pytest.param(["--eps", "inf"], "eps must be finite", id="eps:inf"),
        pytest.param(["--eps", "-1"], "eps must be finite", id="eps:-1"),
        # the modulus is named, not int()'s "invalid literal for int()"
        pytest.param(["--field", "fp:abc"], "invalid modulus 'abc'", id="fp:abc"),
        pytest.param(["--field", "fp:100"], "modulus 100 is not prime", id="fp:100"),
        # above 2^31 as well: 2^32 made pow fail in PrimeField.inv, and the
        # Fermat number 2^32 + 1 = 641 * 6700417 gave a "basis"
        pytest.param(["--field", "fp:4294967296"], "modulus 4294967296 is not prime", id="fp:4294967296"),
        pytest.param(["--field", "fp:4294967297"], "modulus 4294967297 is not prime", id="fp:4294967297"),
        pytest.param(["--field", "f64:abc"], "invalid eps 'abc'", id="f64:abc"),
        pytest.param(["--field", "zz"], "unknown field 'zz'", id="zz"),
        pytest.param(["--choice", "foo"], "unknown choice function 'foo'", id="choice:foo"),
        pytest.param(["--choice", "mix:abc"], "invalid seed 'abc'", id="choice:mix:abc"),
        pytest.param(["-n", "0"], "katsura requires n >= 1", id="katsura:0"),
    ],
)
def test_cli_rejects_non_finite_eps(capsys, flags, message):
    assert main(["katsura", "-n", "3", *flags, "--json", "basis"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err


def test_cli_eps_filter_failure_is_not_a_parse_error(capsys, tmp_path):
    # the choice filter drops every coefficient of a residue the stop check
    # finds: a computation failure, not a parse error
    path = tmp_path / "sys.txt"
    path.write_text("ring x0 x1 over qq\nx0^3 + x1 - 3*x1^2\nx1^3 + 1 + 4*x1 + x0*x1\n")
    for choice in ("mac", "drvl", "dlex", "minsz"):
        assert main(["basis", "--choice", choice, "--eps", "2", str(path)]) == 2


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
    [["solve", "--seed", "-1", "SYS"], ["katsura", "-n", "2", "--seed", "-1", "solve"]],
    ids=["solve", "katsura"],
)
def test_cli_rejects_a_negative_seed(capsys, monkeypatch, sysfile, argv):
    # a usage error before any computation, not numpy's ValueError after the
    # basis; the library's eigen solve rejects it as an input error
    monkeypatch.setattr(cli, "compute_border_basis", lambda *args: pytest.fail("computed a basis"))
    with pytest.raises(SystemExit) as exc:
        main([sysfile if a == "SYS" else a for a in argv])
    assert exc.value.code == 1
    assert "invalid seed '-1'" in capsys.readouterr().err
    bb = borderbasis.compute_border_basis(gen_katsura(fields.parse_field("qq"), 2), borderbasis.parse_choice("mac"))
    with pytest.raises(fields.InputError, match="seed"):
        solve.eigen_roots(bb.ms, seed=-1)


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


@pytest.mark.parametrize(
    "argv",
    [
        ["--syzygies", "matrices"],
        ["--syzygies", "syzygies"],
        ["--syzygies", "solve"],
        ["--json", "print"],
        ["--dump-matrices", "m.json", "print"],
        ["--syzygies", "print"],
        ["--syzygies"],
    ],
    ids=["syzygies-matrices", "syzygies-syzygies", "syzygies-solve", "json-print", "dump-print", "syzygies-print", "syzygies-default"],
)
def test_cli_katsura_rejects_flags_the_action_ignores(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["katsura", "-n", "2", *argv])
    assert exc.value.code == 1
    assert "does not take" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_cli_katsura_takes_every_flag(capsys, tmp_path):
    dump = tmp_path / "m.json"
    argv = ["katsura", "-n", "2", "--field", "fp:101", "--seed", "1", "--syzygies"]
    code, out = run(capsys, argv + ["--dump-matrices", str(dump), "--json", "basis"])
    assert code == 0
    assert json.loads(out)["syzygies"]
    assert json.loads(dump.read_text())["basis"] == json.loads(out)["basis"]


def test_cli_katsura_dumps_matrices_for_every_action(capsys, tmp_path):
    dumps = []
    for action in ("basis", "matrices", "syzygies", "solve"):
        dump = tmp_path / f"{action}.json"
        code, _ = run(capsys, ["katsura", "-n", "2", "--dump-matrices", str(dump), action])
        assert code == 0
        dumps.append(dump.read_text())
    assert dumps[1:] == dumps[:1] * 3


@pytest.mark.parametrize("field", ["qq", "fp:101", "f64:1e-10"])
def test_cli_katsura_equals_its_text_on_stdin(capsys, monkeypatch, field):
    # both sources go through one pipeline: same report, byte for byte
    code, text = run(capsys, ["katsura", "-n", "3", "--field", field])
    assert code == 0
    for action in ("basis", "matrices", "syzygies", "solve"):
        for mode in ([], ["--json"]):
            generated = run(capsys, ["katsura", "-n", "3", "--field", field, *mode, action])
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            assert run(capsys, [action, *mode, "-"]) == generated


@pytest.mark.parametrize("case", ["missing", "directory", "dump", "binary"])
def test_cli_file_error_exits_1(capsys, sysfile, tmp_path, case):
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"ring x over qq\n\xff\n")
    argv = {
        "missing": ["basis", str(tmp_path / "nosuch.txt")],
        "directory": ["basis", str(tmp_path)],
        "dump": ["matrices", "--dump-matrices", str(tmp_path / "no" / "m.json"), sysfile],
        "binary": ["basis", str(binary)],
    }[case]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_field_override(capsys, sysfile):
    code, out = run(capsys, ["basis", "--field", "fp:7", "--json", sysfile])
    assert code == 0
    assert json.loads(out)["field"] == "fp:7"


# B = {1, x0, x1, x0^2, x1^2, x0^2*x1} under drvl: connected to 1, not an
# order ideal (x0*x1 is missing), with all three relation kinds
NON_ORDER_IDEAL = "ring x0 x1 over qq\n-4*x0^2*x1 + 6*x0^3 - 7*x1\n7*x1^2 + 5*x0*x1 + x1 + 2\n"


@pytest.mark.parametrize(
    "source, field, choice, syzygies_sha256, basis_sha256",
    [
        pytest.param(
            "katsura", "qq", "mac",
            "db07ce0cca6be389254bb3a610d8939068e8d652ca8cb01923948f80ad870b17",
            "adffa74bca888b929a13b313024afffebee747eab262f25005c540f24595f87b",
            id="katsura3-qq-mac",
        ),
        pytest.param(
            "katsura", "fp:101", "minsz",
            "981730f4438f8eef573c2856e4ec38124bc4db72bd1090137fe8aa0c6e53ad24",
            "b00c44364e96f269edfbddaf14d6e0175d5ed5c7961932dce9a3a015ec1071db",
            id="katsura3-fp101-minsz",
        ),
        pytest.param(
            "katsura", "fp:2147483647", "mac",
            "add901ae86a4f2db83b30386c0ebf61dab57de6d7e79eb8f943d7a9b94895098",
            "121a7773ba96965e4fa28e6ddb6d24121df02361371520714984094f3fd3a5b3",
            id="katsura3-fp2147483647-mac",
        ),
        pytest.param(
            "katsura", "f64:1e-10", "mac",
            "4e06766957923aa6b63ddc02d0d457c63408f292e06a8cebe7f5bf6f45766257",
            "66dfc7455421cb43120ab861032fcf2ba1994868de67d3783f80a1a5d34fdcd8",
            id="katsura3-f64-mac",
        ),
        pytest.param(
            "katsura", "qq", "drvl",
            "ee2dc0256e5c233dfb8304d9a49dbe4612f666750e9d7b305e631a400b850981",
            "d5bfed3bda3e0885ed0e23a4ccfc21951c09b30259444a37280fbd9ddf970b8d",
            id="katsura3-qq-drvl",
        ),
        pytest.param(
            "katsura", "qq", "mix:3",
            "0522332c1ba0de8566d3b5b885cea55e62b46914e83feb6dfe56e09ea749940b",
            "be8dacf52c7b9a167c9dc14b4fbebd5bd8921cf0242ae2fe8678c96784364c54",
            id="katsura3-qq-mix3",
        ),
        pytest.param(
            "katsura", "qq", "minsz",
            "f4d46320db8140cd6038f73c96e2b2f4e29d308fafb63d03e38defea540ef81e",
            "ef04c63b81a6780355dc0c99af9740d3b5e7680d3fa68325f0a94f282969c2d0",
            id="katsura3-qq-minsz",
        ),
        pytest.param(
            "katsura", "qq", "dlex",
            "c8a1af6961808fce3de97a2da031c96ffde81c7c63c7065cfc71e4832a7f15f4",
            "016b3e0644924daf1f544cb724aa4cb2159e76ffe6633438acf2526ad797ca01",
            id="katsura3-qq-dlex",
        ),
        pytest.param(
            "non-order-ideal", None, "drvl",
            "f43e2390194c690646d4a458a3d17eb55d4ce51d6e8b5ce2eecc5ab194d7b28c",
            "2a84a3942805eabbacb481c6b0c248e5e24feadaa53fc97eac9b5725ed55142a",
            id="non-order-ideal-qq-drvl",
        ),
    ],
)
def test_cli_syzygy_reports_are_pinned(
    capsys, tmp_path, source, field, choice, syzygies_sha256, basis_sha256
):
    # the relations' kinds, origins and coefficients, byte for byte
    flags = ["--choice", choice, "--json"]
    if source == "katsura":
        base = ["katsura", "-n", "3", "--field", field, *flags]
        runs = (base + ["syzygies"], base + ["--syzygies", "basis"])
    else:
        path = tmp_path / "sys.txt"
        path.write_text(NON_ORDER_IDEAL)
        runs = (["syzygies", *flags, str(path)], ["basis", "--syzygies", *flags, str(path)])
    digests = []
    for argv in runs:
        code, out = run(capsys, argv)
        assert code == 0
        digests.append(hashlib.sha256(out.encode("utf-8")).hexdigest())
    if source != "katsura":
        assert "x0*x1" not in json.loads(out)["basis"]
    assert digests == [syzygies_sha256, basis_sha256]


@pytest.mark.parametrize(
    "katsura, choice, size, basis_sha256",
    [
        pytest.param(
            3, "mix:5", 8,
            "9f65e9f341c834971e30435e661e1b39db2859c80483ebe25565b1112a8c28bc",
            id="katsura3-f64-mix5",
        ),
        pytest.param(
            None, "mix:1", 6,
            "f57205649ab9b16c57fd81875cdb2d26513528a6de84fd76bad43c329b440af9",
            id="non-order-ideal-f64-mix1",
        ),
        pytest.param(
            4, "mac", 16,
            "6414e90b5f50a7ddaa31eed03672103c53317f7c0d8c3013027dfca122adfacc",
            id="katsura4-f64-mac",
        ),
        pytest.param(
            4, "drvl", 16,
            "d224c45ffc3380b5629c4bd72090db9117d9a4b16dcbf62bdcb5c0e48f6fed87",
            id="katsura4-f64-drvl",
        ),
        pytest.param(
            4, "minsz", 16,
            "3e02f3d1a7ea15cd216caa7dba1068d48b2eb8b7854704c258bf5b1d90f8d397",
            id="katsura4-f64-minsz",
        ),
    ],
)
def test_cli_float_pivoting_is_pinned(capsys, tmp_path, katsura, choice, size, basis_sha256):
    # partial pivoting inserts the pending row of largest pivot magnitude
    # first, so the pivot order shows in the basis and the rules, and under
    # mix so does the coin order
    flags = ["--field", "f64:1e-10", "--choice", choice, "--json"]
    if katsura is not None:
        argv = ["katsura", "-n", str(katsura), *flags, "basis"]
    else:
        path = tmp_path / "sys.txt"
        path.write_text(NON_ORDER_IDEAL)
        argv = ["basis", *flags, str(path)]
    code, out = run(capsys, argv)
    assert code == 0
    assert len(json.loads(out)["basis"]) == size
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == basis_sha256


def _katsura3_normal_forms(capsys, tmp_path, *flags):
    """The ``normalform --json`` report of Katsura 3 for three non-members of
    degree 5 and 6 with fractional coefficients."""
    code, text = run(capsys, ["katsura", "-n", "3", "print"])
    assert code == 0
    path = tmp_path / "k3.txt"
    path.write_text(text)
    queries = [
        "1/3*u0^5 + 2/7*u1*u2^4",
        "-5/11*u3^6 + 3/4*u0*u1*u2*u3^2 - 1/2",
        "7/9*u0^2*u1^3 - 4/13*u2^5*u3 + 1/6*u1",
    ]
    code, out = run(capsys, ["normalform", *flags, "--json", *(a for q in queries for a in ("-p", q)), str(path)])
    assert code == 0
    assert all(r["normal_form"] != "0" for r in json.loads(out)["normal_forms"])
    return out


def test_cli_qq_normal_forms_are_pinned(capsys, tmp_path):
    # every coordinate of the qq normal form, byte for byte
    out = _katsura3_normal_forms(capsys, tmp_path)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "4523bac95660ed6cafd98550e0cfbcf671dd66adc10c502f673bbd1a4ad41a88"
    )


def test_cli_float64_route_normal_forms_are_pinned(capsys, tmp_path):
    # under 1000003 the level products run as float64 BLAS products
    out = _katsura3_normal_forms(capsys, tmp_path, "--field", "fp:1000003")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "2919dc05240dcd60d44d0be239bd796272fe31e3cdc91fc1e876b4322618c1e1"
    )


def test_cli_int64_route_normal_forms_are_pinned(capsys, tmp_path):
    # under 100000007 a sum of products leaves float64's exact range, so the
    # level products run as numpy int64 products
    out = _katsura3_normal_forms(capsys, tmp_path, "--field", "fp:100000007")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "e76c6020a726806ec8b530a2cd2acc2a330a21ea4b90508bb8ab8176e97bab9d"
    )


def test_cli_normal_forms_beyond_int64_are_pinned(capsys, tmp_path):
    # over 2^61 - 1 one product of two residues leaves int64, so the
    # matrices are an object array of Python ints
    out = _katsura3_normal_forms(capsys, tmp_path, "--field", "fp:2305843009213693951")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "5492717228afdd9d399e9edf8cc80da17262ca6297c9525d355f6d80693f13ea"
    )


# certified over f64; an absolute-eps test of the unscaled expansions would
# reject some of its relations, though each vanishes to within rounding of
# its largest product
F64_CERTIFIED = """ring x0 x1 x2 over f64:1e-10
-1.0*x1*x2^2 + 7.0*x1^2*x2 - 3.0*x1^3 + 8.0*x0^2*x1 - 1.0*x2^2 - 8.0*x1*x2 - 6.0*x1^2 + 5.0*x0*x2 + 4.0*x0^2 + 8.0*x2 - 8.0
-2.0*x1*x2 + 7.0*x0*x1 + 8.0*x0^2 - 2.0*x2 + 3.0*x1
-7.0*x2^3 - 8.0*x1*x2^2 - 3.0*x1^2*x2 + 3.0*x1^3 + 8.0*x0*x1*x2 + 9.0*x0^2*x2 - 5.0*x1^2 - 5.0*x0*x1 - 4.0*x0^2 - 9.0*x2 - 4.0*x1 + 9.0*x0
"""


@pytest.mark.parametrize("spec", ["drvl", "mac"])
def test_cli_f64_syzygies_of_a_certified_basis(capsys, tmp_path, spec):
    path = tmp_path / "sys.txt"
    path.write_text(F64_CERTIFIED)
    flags = ["--choice", spec, "--json", str(path)]
    reports = []
    for argv in (["syzygies", *flags], ["basis", "--syzygies", *flags]):
        code, out = run(capsys, argv)
        assert code == 0
        reports.append(json.loads(out)["syzygies"])
    assert reports[0] == reports[1]
    # each relation, summed exactly, vanishes up to rounding of its products
    _, _, polys = poly.parse_system(F64_CERTIFIED)
    bb = border.compute_border_basis(polys, choice.parse_choice(spec))
    rels = syzygy.generate_syzygies(bb)
    assert len(rels) == len(reports[0])
    for rel in rels:
        sums, largest = {}, 0.0
        for w, h in rel.coeffs.items():
            for a, c in h.terms.items():
                for b, d in bb.rules[w].poly().terms.items():
                    m = poly.mono_mul(a, b)
                    sums[m] = sums.get(m, 0) + Fraction(c) * Fraction(d)
                    largest = max(largest, abs(c * d))
        assert max(abs(v) for v in sums.values()) <= 1e-12 * largest, rel


@pytest.mark.parametrize(
    "argv", [["syzygies", "--choice", "drvl", "--json"], ["basis", "--syzygies", "--choice", "drvl", "--json"]]
)
def test_cli_syzygy_error_is_numeric(capsys, monkeypatch, sysfile, qq, argv):
    # a basis whose matrices do not commute has no generators to report
    broken = non_commuting_basis(qq)
    monkeypatch.setattr("borderbasis.cli.compute_border_basis", lambda *args: broken)
    assert main(argv + [sysfile]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_eps_filter_keeps_huge_rational(capsys, tmp_path):
    # 10^400 is beyond the float range, so its magnitude passes any eps
    path = tmp_path / "sys.txt"
    path.write_text("ring x y over qq\nx - 1e400\ny^2 - 1\n")
    code, out = run(capsys, ["basis", "--eps", "1", "--json", str(path)])
    assert code == 0
    assert json.loads(out)["basis"] == ["1", "y"]


def test_cli_float_overflow_at_parse_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "sys.txt"
    path.write_text("ring x y over f64:1e-10\nx^2 - 1e400\ny^2 - 1\n")
    assert main(["basis", str(path)]) == 1
    assert "at line 2, column 7" in capsys.readouterr().err


def test_cli_float_overflow_in_the_loop_is_numeric(tmp_path):
    # products overflow to inf, then nan; an unchecked nan pivot never
    # reduces away, so run in a subprocess whose timeout fails a hang
    path = tmp_path / "sys.txt"
    path.write_text("ring x y over f64:1e-10\nx^2 - 1e300*y\ny^2 - 1e300\n")
    env = dict(os.environ, PYTHONPATH=str(Path(borderbasis.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "borderbasis.cli", "basis", str(path)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: ")


def test_cli_huge_rational_coefficient_is_reported(capsys, tmp_path):
    # 10^6000 has more digits than str(int) prints by default (4300)
    path = tmp_path / "sys.txt"
    path.write_text("ring x y over qq\nx - 1e3000\ny^2 - x^2\n")
    code, out = run(capsys, ["basis", "--json", str(path)])
    assert code == 0
    rules = {r["lead"]: r["tail"] for r in json.loads(out)["rules"]}
    assert rules["y^2"] == {"1": "1" + "0" * 6000}


def test_cli_solve_huge_rational_coefficient_is_numeric(capsys, tmp_path):
    # 10^400 is exact over qq, but the eigen solve needs it as a complex float
    path = tmp_path / "sys.txt"
    path.write_text("ring x y over qq\nx - 1e400\ny^2 - 1\n")
    assert main(["solve", str(path)]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_failed_eigen_solve_is_numeric(capsys, monkeypatch):
    import numpy as np

    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", fail)
    assert main(["katsura", "-n", "2", "solve"]) == 3
    assert "Eigenvalues did not converge" in capsys.readouterr().err


def test_cli_internal_fault_is_not_an_input_error(monkeypatch, sysfile):
    # a ValueError from inside the library is a fault, not exit 1 "error: ..."
    def fault(*args):
        raise ValueError("boom")

    monkeypatch.setattr("borderbasis.cli.compute_border_basis", fault)
    with pytest.raises(ValueError, match="boom"):
        main(["basis", sysfile])


EXIT_CODE_OF = {
    fields.InputError: 1,
    fields.FieldError: 1,
    fields.FieldDivisionError: 1,
    poly.ParseError: 1,
    choice.NoChoosableMonomial: 1,
    border.NotZeroDimensionalError: 2,
    border.InconsistentSystemError: 2,
    border.DegenerateInputError: 2,
    fields.NumericError: 3,
    quotient.NotABorderBasisError: 3,
    solve.SolveError: 3,
    syzygy.SyzygyError: 3,
}


def test_every_library_error_has_one_exit_code_base():
    modules = [border, choice, cli, fields, poly, quotient, solve, syzygy, systems]
    defined = {
        cls
        for mod in modules
        for cls in vars(mod).values()
        if isinstance(cls, type) and issubclass(cls, BaseException) and cls.__module__ == mod.__name__
    }
    assert defined == set(EXIT_CODE_OF)
    bases = {1: fields.InputError, 2: border.NotZeroDimensionalError, 3: fields.NumericError}
    for cls, code in EXIT_CODE_OF.items():
        assert [c for c, base in bases.items() if issubclass(cls, base)] == [code], cls


def test_quotient_leaves_the_array_encoding_to_the_fields():
    # each field encodes, multiplies and decodes its own arrays, so the
    # multiplication system, the commutators and the normal form name no
    # field class and none of the prime field's arithmetic
    tree = ast.parse(Path(quotient.__file__).read_text())
    imported = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}
    assert not imported & {"PrimeField", "RationalField", "FloatField", "int64_sums_fit", "residue_product", "Fraction"}
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert "isinstance" not in names


def test_cli_report_names_the_f64_field_it_ran(capsys):
    code, out = run(capsys, ["katsura", "-n", "2", "--field", "f64:1.234567891e-10", "--json", "basis"])
    assert code == 0 and json.loads(out)["field"] == "f64:1.234567891e-10"


def test_no_library_function_calls_itself():
    # Python bounds the depth of a recursion, so a walk whose depth grows
    # with the input (a monomial's peels above B) must be a loop
    for path in sorted(Path(borderbasis.__file__).parent.glob("*.py")):
        source = path.read_text()
        assert "setrecursionlimit" not in source, path.name
        for fn in ast.walk(ast.parse(source)):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func
                if isinstance(callee, ast.Attribute) and isinstance(callee.value, ast.Name):
                    name = callee.attr if callee.value.id in ("self", "cls") else None
                else:
                    name = getattr(callee, "id", None)
                assert name != fn.name, f"{path.name}:{node.lineno}: {fn.name} calls itself"

"""Command-line frontend.

Subcommands: basis, matrices, syzygies, solve, normalform, katsura.  Reports
are plain text by default and machine-readable with --json.  Exit codes:
1 parse or usage error, 2 not zero-dimensional (or inconsistent / guard
exceeded), 3 numeric failure (a failed eigen solve, a float overflow, or a
syzygy that fails its expansion check).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from .border import (
    DegenerateInputError,
    InconsistentSystemError,
    NotZeroDimensionalError,
    compute_border_basis,
)
from .choice import parse_choice
from .fields import FieldError, NumericError, parse_field
from .poly import (
    ParseError,
    format_monomial,
    format_poly,
    format_system,
    parse_polynomial,
    parse_system,
)
from .quotient import NotABorderBasisError, normal_form
from .solve import SolveError, eigen_roots
from .syzygy import SyzygyError, generate_syzygies
from .systems import KATSURA_FORMULA, gen_katsura

EXIT_PARSE = 1
EXIT_NOT_ZERO_DIM = 2
EXIT_NUMERIC = 3


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class _Timer:
    def __init__(self):
        self.phases = {}

    def measure(self, name):
        timer = self

        class _Ctx:
            def __enter__(self):
                self.t0 = time.perf_counter()

            def __exit__(self, *exc):
                timer.phases[name] = timer.phases.get(name, 0.0) + time.perf_counter() - self.t0

        return _Ctx()


def _load(args):
    text = _read_input(args.input)
    override = parse_field(args.field) if args.field else None
    varnames, field, polys = parse_system(text, field_override=override)
    return text, varnames, field, polys


def _choice(args):
    return parse_choice(args.choice, eps=args.eps)


def _compute(args, polys, timer):
    with timer.measure("basis"):
        return compute_border_basis(polys, _choice(args))


def _base_report(args, text, varnames, field, bb):
    return {
        "command": args.command,
        "input_sha256": _digest(text),
        "field": field.name,
        "choice": args.choice,
        "eps": args.eps,
        "basis": bb.to_json_dict(varnames)["basis"],
        "rule_count": len(bb.rules),
        "loops": bb.loops,
    }


def _syzygy_json(rels, varnames):
    out = []
    for rel in rels:
        m, i1, i2 = rel.origin
        out.append(
            {
                "kind": rel.kind,
                "origin": {"monomial": format_monomial(m, varnames), "i1": i1, "i2": i2},
                "coeffs": {
                    format_monomial(w, varnames): format_poly(h, varnames)
                    for w, h in sorted(rel.coeffs.items())
                },
            }
        )
    return out


def _emit(report, args, timer, human_lines):
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in human_lines:
            print(line)
    # timings are run-dependent: kept out of the JSON report
    if timer.phases and not args.json:
        spent = ", ".join(f"{k} {v * 1000:.1f} ms" for k, v in timer.phases.items())
        print(f"# timings: {spent}", file=sys.stderr)


def _dump_matrices(args, ms, varnames):
    if args.dump_matrices:
        with open(args.dump_matrices, "w", encoding="utf-8") as fh:
            json.dump(ms.to_json_dict(varnames), fh, sort_keys=True, indent=2)
            fh.write("\n")


def _run_basis(args, text, varnames, field, polys):
    timer = _Timer()
    bb = _compute(args, polys, timer)
    _dump_matrices(args, bb.ms, varnames)
    report = _base_report(args, text, varnames, field, bb)
    report["rules"] = bb.to_json_dict(varnames)["rules"]
    # compute_border_basis returns only bases whose matrices commute
    report["commutation"] = True
    if args.syzygies:
        with timer.measure("syzygies"):
            report["syzygies"] = _syzygy_json(generate_syzygies(bb), varnames)
    lines = [f"basis ({bb.dimension}): " + " ".join(report["basis"])]
    lines += [
        f"rule: {r['lead']} -> "
        + (" + ".join(f"{c}*{t}" for t, c in r["tail"].items()) or "0")
        for r in report["rules"]
    ]
    lines.append(f"loops: {bb.loops}  commutation: True")
    _emit(report, args, timer, lines)
    return 0


def _run_matrices(args, text, varnames, field, polys):
    timer = _Timer()
    bb = _compute(args, polys, timer)
    _dump_matrices(args, bb.ms, varnames)
    report = _base_report(args, text, varnames, field, bb)
    report["matrices"] = bb.ms.to_json_dict(varnames)["matrices"]
    report["commutation"] = True
    lines = [f"basis ({bb.dimension}): " + " ".join(report["basis"])]
    for v, rows in report["matrices"].items():
        lines.append(f"M[{v}]:")
        lines += ["  " + "  ".join(row) for row in rows]
    lines.append("commutation: True")
    _emit(report, args, timer, lines)
    return 0


def _run_syzygies(args, text, varnames, field, polys):
    timer = _Timer()
    bb = _compute(args, polys, timer)
    with timer.measure("syzygies"):
        rels = generate_syzygies(bb)
    report = _base_report(args, text, varnames, field, bb)
    report["syzygies"] = _syzygy_json(rels, varnames)
    lines = [f"basis ({bb.dimension}): " + " ".join(report["basis"])]
    for r in report["syzygies"]:
        o = r["origin"]
        coeffs = "; ".join(f"[{w}] {h}" for w, h in r["coeffs"].items())
        lines.append(f"{r['kind']} @ ({o['monomial']}, x{o['i1']}, x{o['i2']}): {coeffs}")
    _emit(report, args, timer, lines)
    return 0


def _run_solve(args, text, varnames, field, polys):
    timer = _Timer()
    bb = _compute(args, polys, timer)
    with timer.measure("eigen"):
        rs = eigen_roots(bb.ms, seed=args.seed, polys=polys)
    report = _base_report(args, text, varnames, field, bb)
    report.update(rs.to_json_dict())
    lines = []
    for root in rs.roots:
        coords = ", ".join(f"{z.real:.12g}{z.imag:+.12g}i" for z in root)
        lines.append(f"root: ({coords})")
    lines.append(f"mnacr: {rs.mnacr:.6g}")
    _emit(report, args, timer, lines)
    return 0


def _run_normalform(args, text, varnames, field, polys):
    timer = _Timer()
    bb = _compute(args, polys, timer)
    results = []
    for src in args.poly:
        p = parse_polynomial(src, varnames, field)
        nf = normal_form(p, bb.ms, bb)
        results.append({"input": src, "normal_form": format_poly(nf, varnames)})
    report = _base_report(args, text, varnames, field, bb)
    report["normal_forms"] = results
    lines = [f"{r['input']}  ->  {r['normal_form']}" for r in results]
    _emit(report, args, timer, lines)
    return 0


_ACTIONS = {
    "basis": _run_basis,
    "matrices": _run_matrices,
    "syzygies": _run_syzygies,
    "solve": _run_solve,
}


def _run_katsura(args):
    if args.show:
        print(KATSURA_FORMULA)
        return 0
    field = parse_field(args.field) if args.field else parse_field("qq")
    polys = gen_katsura(field, args.n)
    varnames = [f"u{i}" for i in range(args.n + 1)]
    text = format_system(varnames, field, polys)
    if args.action == "print":
        sys.stdout.write(text)
        return 0
    args.command = args.action
    return _ACTIONS[args.action](args, text, varnames, field, polys)


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_PARSE; argparse's own code 2 would read as
    "not zero-dimensional"."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="borderbasis",
        description="Border bases of zero-dimensional polynomial ideals.",
    )
    sp = ap.add_subparsers(dest="command", required=True)
    subs = {
        name: sp.add_parser(name, help=helptext)
        for name, helptext in (
            ("basis", "compute the quotient basis and rewriting rules"),
            ("matrices", "compute the multiplication matrices"),
            ("syzygies", "generate the commutation syzygies"),
            ("solve", "numerical roots via eigenvectors"),
            ("normalform", "normal form of polynomials modulo the ideal"),
            ("katsura", "generate (or process) a Katsura system"),
        )
    }
    subs["normalform"].add_argument(
        "-p", "--poly", action="append", required=True, help="polynomial (repeatable)"
    )
    ka = subs["katsura"]
    ka.add_argument("-n", type=int, required=False, default=3, help="Katsura index (>= 1)")
    ka.add_argument("--show", action="store_true", help="print the generator formula")
    ka.add_argument(
        "action",
        nargs="?",
        default="print",
        choices=["print", "basis", "matrices", "syzygies", "solve"],
    )
    # each subcommand takes only the flags its handler reads; katsura names
    # its handler positionally, so it takes them all
    for name, sub in subs.items():
        sub.add_argument("--field", help="field override: qq | fp:<p> | f64:<eps>")
        sub.add_argument("--choice", default="mac", help="drvl | dlex | mac | minsz | mix:<seed>")
        sub.add_argument("--eps", type=float, default=0.0, help="choice-function magnitude filter")
        if name in ("solve", "katsura"):
            sub.add_argument("--seed", type=int, default=0, help="seed of the eigen solve")
        sub.add_argument("--json", action="store_true", help="machine-readable report")
        if name in ("basis", "matrices", "katsura"):
            sub.add_argument(
                "--dump-matrices", metavar="PATH", help="write multiplication matrices JSON"
            )
        if name in ("basis", "katsura"):
            sub.add_argument(
                "--syzygies", action="store_true", help="include syzygies in the report"
            )
        if name != "katsura":
            sub.add_argument("input", help="system file ('-' for stdin)")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "katsura":
            return _run_katsura(args)
        text, varnames, field, polys = _load(args)
        handler = {**_ACTIONS, "normalform": _run_normalform}[args.command]
        return handler(args, text, varnames, field, polys)
    except (ParseError, FieldError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (NotZeroDimensionalError, InconsistentSystemError, DegenerateInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_ZERO_DIM
    except (SolveError, NotABorderBasisError, SyzygyError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

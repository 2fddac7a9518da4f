"""Command-line frontend.

Subcommands: basis, matrices, syzygies, solve, normalform, katsura.  Reports
are plain text by default and machine-readable with --json.  Exit codes,
one exception base each: 1 a usage error, an unreadable file (OSError) or an
InputError (parse, field, choice or Katsura index); 2 NotZeroDimensionalError
(guard exceeded, inconsistent or degenerate input); 3 NumericError (a failed
eigen solve, a float overflow, or a basis whose matrices do not commute, so
it has no syzygy generators).
Any other exception is a fault of the program and ends in a traceback.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from .border import NotZeroDimensionalError, compute_border_basis
from .choice import parse_choice
from .fields import InputError, NumericError, parse_field
from .poly import (
    ParseError,
    format_monomial,
    format_poly,
    format_system,
    parse_polynomial,
    parse_system,
)
from .quotient import normal_form
from .solve import eigen_roots
from .syzygy import generate_syzygies
from .systems import KATSURA_FORMULA, gen_katsura

EXIT_PARSE = 1
EXIT_NOT_ZERO_DIM = 2
EXIT_NUMERIC = 3


def _add_syzygies(bb, varnames, report, timings):
    t0 = time.perf_counter()
    rels = generate_syzygies(bb)
    timings["syzygies"] = time.perf_counter() - t0
    report["syzygies"] = []
    for rel in rels:
        m, i1, i2 = rel.origin
        report["syzygies"].append(
            {
                "kind": rel.kind,
                "origin": {"monomial": format_monomial(m, varnames), "i1": i1, "i2": i2},
                "coeffs": {
                    format_monomial(w, varnames): format_poly(h, varnames)
                    for w, h in sorted(rel.coeffs.items())
                },
            }
        )


# Each report function adds its command's fields to the common report and
# returns the text-mode lines.


def _basis(args, bb, varnames, polys, report, timings):
    report["rules"] = bb.to_json_dict(varnames)["rules"]
    # compute_border_basis returns only bases whose matrices commute
    report["commutation"] = True
    if args.syzygies:
        _add_syzygies(bb, varnames, report, timings)
    lines = [f"basis ({bb.dimension}): " + " ".join(report["basis"])]
    lines += [
        f"rule: {r['lead']} -> "
        + (" + ".join(f"{c}*{t}" for t, c in r["tail"].items()) or "0")
        for r in report["rules"]
    ]
    return lines + [f"loops: {bb.loops}  commutation: True"]


def _matrices(args, bb, varnames, polys, report, timings):
    report["matrices"] = bb.ms.to_json_dict(varnames)["matrices"]
    report["commutation"] = True
    lines = [f"basis ({bb.dimension}): " + " ".join(report["basis"])]
    for v, rows in report["matrices"].items():
        lines.append(f"M[{v}]:")
        lines += ["  " + "  ".join(row) for row in rows]
    return lines + ["commutation: True"]


def _syzygies(args, bb, varnames, polys, report, timings):
    _add_syzygies(bb, varnames, report, timings)
    lines = [f"basis ({bb.dimension}): " + " ".join(report["basis"])]
    for r in report["syzygies"]:
        o = r["origin"]
        coeffs = "; ".join(f"[{w}] {h}" for w, h in r["coeffs"].items())
        lines.append(f"{r['kind']} @ ({o['monomial']}, x{o['i1']}, x{o['i2']}): {coeffs}")
    return lines


def _solve(args, bb, varnames, polys, report, timings):
    t0 = time.perf_counter()
    rs = eigen_roots(bb.ms, seed=args.seed, polys=polys)
    timings["eigen"] = time.perf_counter() - t0
    report.update(rs.to_json_dict())
    lines = [
        "root: (" + ", ".join(f"{z.real:.12g}{z.imag:+.12g}i" for z in root) + ")"
        for root in rs.roots
    ]
    return lines + [f"mnacr: {rs.mnacr:.6g}"]


def _normalform(args, bb, varnames, polys, report, timings):
    report["normal_forms"] = []
    for src in args.poly:
        nf = normal_form(parse_polynomial(src, varnames, bb.field), bb.ms, bb)
        report["normal_forms"].append({"input": src, "normal_form": format_poly(nf, varnames)})
    return [f"{r['input']}  ->  {r['normal_form']}" for r in report["normal_forms"]]


_REPORTS = {
    "basis": _basis,
    "matrices": _matrices,
    "syzygies": _syzygies,
    "solve": _solve,
    "normalform": _normalform,
}


def _run(args, command, text, varnames, field, polys):
    """The one pipeline: the basis, the optional matrix dump, the common
    report, the command's own report, then the output."""
    t0 = time.perf_counter()
    bb = compute_border_basis(polys, parse_choice(args.choice, eps=args.eps))
    timings = {"basis": time.perf_counter() - t0}
    # only basis, matrices and katsura take --dump-matrices
    if getattr(args, "dump_matrices", None):
        with open(args.dump_matrices, "w", encoding="utf-8") as fh:
            json.dump(bb.ms.to_json_dict(varnames), fh, sort_keys=True, indent=2)
            fh.write("\n")
    report = {
        "command": command,
        "input_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "field": field.name,
        "choice": args.choice,
        "eps": args.eps,
        "basis": [format_monomial(m, varnames) for m in bb.basis],
        "rule_count": len(bb.rules),
        "loops": bb.loops,
    }
    lines = _REPORTS[command](args, bb, varnames, polys, report, timings)
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print("\n".join(lines))
        # timings are run-dependent: kept out of the JSON report
        spent = ", ".join(f"{k} {v * 1000:.1f} ms" for k, v in timings.items())
        print(f"# timings: {spent}", file=sys.stderr)
    return 0


def _seed(text: str) -> int:
    """The eigen solve's seed: numpy's generator takes only a nonnegative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"invalid seed {text!r}: expected a nonnegative integer")
    return int(text)


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
    # each subcommand takes only the flags its report reads; katsura names
    # its report positionally, so it takes them all
    for name, sub in subs.items():
        sub.add_argument("--field", help="field override: qq | fp:<p> | f64:<eps>")
        sub.add_argument("--choice", default="mac", help="drvl | dlex | mac | minsz | mix:<seed>")
        sub.add_argument("--eps", type=float, default=0.0, help="choice-function magnitude filter")
        if name in ("solve", "katsura"):
            sub.add_argument("--seed", type=_seed, default=0, help="seed of the eigen solve (>= 0)")
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


def _katsura_unread_flags(args):
    """The flags given to katsura that its action does not read."""
    reads = {"print": (), "basis": ("--json", "--dump-matrices", "--syzygies")}
    read = reads.get(args.action, ("--json", "--dump-matrices"))
    given = {"--json": args.json, "--dump-matrices": args.dump_matrices, "--syzygies": args.syzygies}
    return [flag for flag, value in given.items() if value and flag not in read]


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "katsura" and (unread := _katsura_unread_flags(args)):
        ap.error(f"katsura {args.action} does not take {', '.join(unread)}")
    try:
        if args.command == "katsura":
            if args.show:
                print(KATSURA_FORMULA)
                return 0
            field = parse_field(args.field or "qq")
            polys = gen_katsura(field, args.n)
            varnames = [f"u{i}" for i in range(args.n + 1)]
            text = format_system(varnames, field, polys)
            if args.action == "print":
                sys.stdout.write(text)
                return 0
            command = args.action
        else:
            try:
                if args.input == "-":
                    text = sys.stdin.read()
                else:
                    with open(args.input, "r", encoding="utf-8") as fh:
                        text = fh.read()
            except UnicodeDecodeError as exc:
                raise ParseError(f"input is not UTF-8 text: {exc}") from None
            override = parse_field(args.field) if args.field else None
            varnames, field, polys = parse_system(text, field_override=override)
            command = args.command
        return _run(args, command, text, varnames, field, polys)
    # OSError: an input or dump path that is missing or unreadable
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NotZeroDimensionalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_ZERO_DIM
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

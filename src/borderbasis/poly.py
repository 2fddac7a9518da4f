"""Monomials, sparse polynomials, monomial-set combinatorics and text I/O.

A monomial is a plain tuple of nonnegative exponents; its size |m| (the sum
of exponents) is the grading degree.  Polynomials are sparse monomial->
coefficient maps over a pluggable field; stored coefficients are normalized
and never (field-)zero.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable

from .fields import Field, FieldError, InputError, parse_field

Monomial = tuple


def mono_one(n: int) -> Monomial:
    return (0,) * n


def mono_size(m: Monomial) -> int:
    return sum(m)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True iff a divides b."""
    return all(x <= y for x, y in zip(a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    """Quotient a / b; b must divide a."""
    if not mono_divides(b, a):
        raise ValueError(f"{b} does not divide {a}")
    return tuple(x - y for x, y in zip(a, b))


def mono_var(n: int, i: int, e: int = 1) -> Monomial:
    m = [0] * n
    m[i] = e
    return tuple(m)


def mono_key(m: Monomial):
    """Canonical sort key: total degree, then lexicographic."""
    return (mono_size(m), tuple(-e for e in m))


def axpy(field: Field, acc: dict, c, terms: dict) -> dict:
    """Add c*terms to acc in place, term by term, and return acc: a zero
    product is skipped and a zero sum deletes its key, so the other keys keep
    their order.  Keys are only compared: monomials and column indices serve."""
    for k, a in terms.items():
        ca = c * a
        if not field.is_zero(ca):
            v = field.normalize(acc.get(k, field.zero) + ca)
            if field.is_zero(v):
                del acc[k]
            else:
                acc[k] = v
    return acc


class Polynomial:
    """Immutable sparse polynomial over a coefficient field, keyed by monomials."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: Field, nvars: int, terms=None):
        self.field = field
        self.nvars = nvars
        clean = {}
        if terms:
            for m, c in terms.items():
                if not field.is_zero(c):
                    clean[m] = c
        self.terms = clean

    @classmethod
    def zero(cls, field, nvars):
        return cls(field, nvars)

    @classmethod
    def from_terms(cls, field, nvars, pairs: Iterable):
        # unlike axpy, a partial sum below eps is kept and only the total is
        # filtered, so the f64 zero test of syzygy.expand_syzygy sees the whole sum
        acc = {}
        for m, c in pairs:
            acc[m] = field.normalize(acc.get(m, field.zero) + c)
        return cls(field, nvars, acc)

    @classmethod
    def monomial(cls, field, nvars, m, c=None):
        return cls(field, nvars, {m: field.one if c is None else c})

    def is_zero(self) -> bool:
        return not self.terms

    def support(self):
        return set(self.terms)

    def coeff(self, m):
        return self.terms.get(m, self.field.zero)

    def degree(self) -> int:
        """Grading degree; -1 for the zero polynomial."""
        return max((mono_size(m) for m in self.terms), default=-1)

    def _of(self, terms: dict) -> "Polynomial":
        """A polynomial of this ring over terms already nonzero (no filter)."""
        p = Polynomial.__new__(Polynomial)
        p.field, p.nvars, p.terms = self.field, self.nvars, terms
        return p

    def add(self, other: "Polynomial") -> "Polynomial":
        return self._of(axpy(self.field, dict(self.terms), self.field.one, other.terms))

    def sub(self, other: "Polynomial") -> "Polynomial":
        f = self.field
        return self._of(axpy(f, dict(self.terms), f.normalize(-f.one), other.terms))

    def mul_monomial(self, m: Monomial, c=None) -> "Polynomial":
        f = self.field
        c = f.one if c is None else c
        return Polynomial(
            f, self.nvars, {mono_mul(m, t): f.normalize(c * v) for t, v in self.terms.items()}
        )

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __repr__(self):
        return f"Polynomial({format_poly(self, None)})"


# ---------------------------------------------------------------------------
# monomial-set combinatorics


def b_index(m: Monomial, B: set, memo: dict | None = None) -> int:
    """Least k with m in B^[k]; requires 1 in B.

    Equals min{|q| : m = q * b, b in B}: 0 on B, otherwise 1 + the least
    index of the m/x_i (taking one variable off a shortest q factors m/x_i).
    ``memo`` (monomial -> index) keeps the indices found; a caller may pass
    one to share them between calls on the same B.
    """
    if mono_one(len(m)) not in B:
        raise ValueError("b_index requires 1 in B")
    if memo is None:
        memo = {}
    stack = [m]
    while stack:
        u = stack[-1]
        if u in memo:
            stack.pop()
        elif u in B:
            memo[u] = 0
        else:
            below = [u[:i] + (e - 1,) + u[i + 1 :] for i, e in enumerate(u) if e]
            todo = [v for v in below if v not in memo]
            if todo:
                stack += todo
            else:
                memo[u] = 1 + min(memo[v] for v in below)
    return memo[m]


def connected_component_of_one(B: set) -> set:
    """Largest subset of B containing 1 and connected to 1 (empty if 1 not in B).

    B is connected to 1 exactly when this returns B itself.
    """
    B = set(B)
    if not B:
        return set()
    n = len(next(iter(B)))
    one = mono_one(n)
    if one not in B:
        return set()
    reach = {one}
    frontier = [one]
    while frontier:
        m = frontier.pop()
        for i in range(n):
            m2 = mono_mul(m, mono_var(n, i))
            if m2 in B and m2 not in reach:
                reach.add(m2)
                frontier.append(m2)
    return reach


def divisor_closure(monomials: Iterable[Monomial]) -> set:
    """All divisors of the given monomials (a division-stable set)."""
    out = set()
    stack = list(monomials)
    while stack:
        m = stack.pop()
        if m in out:
            continue
        out.add(m)
        n = len(m)
        for i in range(n):
            if m[i] > 0:
                stack.append(tuple(e - (j == i) for j, e in enumerate(m)))
    return out


# ---------------------------------------------------------------------------
# parsing and printing


class ParseError(InputError):
    def __init__(self, message, line=None, col=None):
        loc = "" if line is None else f" at line {line}, column {col}"
        super().__init__(f"{message}{loc}")
        self.line = line
        self.col = col


def format_monomial(m: Monomial, varnames=None) -> str:
    if varnames is None:
        varnames = [f"x{i}" for i in range(len(m))]
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(varnames[i])
        elif e > 1:
            parts.append(f"{varnames[i]}^{e}")
    return "*".join(parts) if parts else "1"


def format_poly(p: Polynomial, varnames=None) -> str:
    if p.is_zero():
        return "0"
    f = p.field
    monos = sorted(p.terms, key=mono_key, reverse=True)
    parts = []
    for k, m in enumerate(monos):
        c = p.terms[m]
        cs = f.to_str(c)
        neg = cs.startswith("-")
        if neg:
            cs = cs[1:]
        ms = format_monomial(m, varnames)
        if ms == "1":
            body = cs
        elif cs == "1":
            body = ms
        else:
            body = f"{cs}*{ms}"
        if k == 0:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


# One token: a number (a/b, or a decimal with an optional exponent), a name,
# an operator, or any other non-space character, which is an error.  An e
# after a number starts an exponent only before a digit or a sign, so "2e"
# reads as 2*e and "2e+" is a malformed number.
_TOKEN = re.compile(
    r"(?P<num>\d+/\d+|(?:\d+\.?\d*|\.\d*)(?:[eE](?:[+-]\d*|\d+))?)"
    r"|(?P<name>[^\W\d]\w*)|(?P<op>[-+*^()])|(?P<bad>\S)"
)


# the largest |decimal exponent| a literal may carry; doubles span roughly
# 1e-324 to 1e308, so no f64 literal needs more
_MAX_EXPONENT = 10000


def parse_polynomial(text: str, varnames, field, lineno=1) -> Polynomial:
    """Read one polynomial: terms joined by + and -, each a run of signs and
    then factors (numbers and variables with an optional ^ power) joined by *
    or juxtaposition.  Any malformed input is a ParseError at its column."""
    index = {v: i for i, v in enumerate(varnames)}
    n = len(varnames)
    toks = []
    for m in _TOKEN.finditer(text):
        kind, tok, col = m.lastgroup, m.group(), m.start() + 1
        if kind == "bad":
            raise ParseError(f"unexpected character {tok!r}", lineno, col)
        if kind == "num":
            # Fraction would build the whole power of ten before any check
            digits = tok.lower().partition("e")[2].lstrip("+-").lstrip("0")
            if len(digits) > 5 or digits and int(digits) > _MAX_EXPONENT:
                raise ParseError("exponent out of range", lineno, col)
            try:  # Fraction(int) is about 3x faster than Fraction(str) on integers
                tok = Fraction(int(tok)) if tok.isdecimal() else Fraction(tok)
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"malformed number {tok!r}", lineno, col) from None
        toks.append((tok if kind == "op" else kind, tok, col))
    toks.append(("end", None, len(text) + 1))
    terms = {}
    k = 0
    while True:
        sign = 1
        while toks[k][0] in ("+", "-"):
            sign = -sign if toks[k][0] == "-" else sign
            k += 1
        coeff, exps, first = Fraction(sign), [0] * n, toks[k][2]
        while True:
            kind, tok, col = toks[k]
            if kind == "num":
                coeff *= tok
            elif kind == "name":
                if tok not in index:
                    raise ParseError(f"unknown variable {tok!r}", lineno, col)
                e = 1
                if toks[k + 1][0] == "^":
                    k += 2
                    kind, e, col = toks[k]
                    if kind != "num" or e.denominator != 1:
                        raise ParseError("expected integer exponent", lineno, col)
                exps[index[tok]] += int(e)
            else:
                raise ParseError("expected coefficient or variable", lineno, col)
            k += 1
            if toks[k][0] == "*":
                k += 1
            elif toks[k][0] not in ("num", "name"):
                break
        try:
            c = field.from_fraction(coeff)
        except FieldError as exc:
            raise ParseError(str(exc), lineno, first) from exc
        # term by term, as the f64 zero filter applies to each term on its own
        axpy(field, terms, field.one, {tuple(exps): c})
        if toks[k][0] not in ("+", "-"):
            break
    if toks[k][0] != "end":
        raise ParseError(f"trailing input {toks[k][1]!r}", lineno, toks[k][2])
    return Polynomial(field, n, terms)


def parse_system(text: str, field_override=None):
    """Parse a polynomial system file.

    Returns (varnames, field, [Polynomial]).  Grammar: a header line
    ``ring x0 x1 over qq`` followed by one polynomial per line; blank lines
    and ``#`` comments are ignored.  A field_override replaces the header
    field before any coefficient is read.
    """
    lines = text.splitlines()
    varnames = None
    field = None
    polys = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if varnames is None:
            words = line.split()
            if words[0] != "ring" or "over" not in words:
                raise ParseError("expected header 'ring <vars...> over <field>'", lineno, 1)
            k = words.index("over")
            varnames = words[1:k]
            if not varnames or len(set(varnames)) != len(varnames):
                raise ParseError("bad variable list in ring header", lineno, 1)
            for v in varnames:
                token = _TOKEN.fullmatch(v)
                if token is None or token.lastgroup != "name":
                    raise ParseError(f"bad variable name {v!r} in ring header", lineno, 1)
            if len(words) != k + 2:
                raise ParseError("expected a single field after 'over'", lineno, 1)
            try:
                field = parse_field(words[k + 1])
            except FieldError as exc:
                raise ParseError(str(exc), lineno, 1) from exc
            if field_override is not None:
                field = field_override
            continue
        polys.append(parse_polynomial(line, varnames, field, lineno))
    if varnames is None:
        raise ParseError("empty input: missing ring header")
    return varnames, field, polys


def format_system(varnames, field, polys) -> str:
    head = f"ring {' '.join(varnames)} over {field.name}"
    return "\n".join([head] + [format_poly(p, varnames) for p in polys]) + "\n"

"""Monomials, sparse polynomials, monomial-set combinatorics and text I/O.

A monomial is a plain tuple of nonnegative exponents; its size |m| (the sum
of exponents) is the grading degree.  Polynomials are sparse monomial->
coefficient maps over a pluggable field; stored coefficients are never
(field-)zero.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .fields import Field, FieldError, parse_field

Monomial = tuple


def mono_one(n: int) -> Monomial:
    return (0,) * n


def mono_size(m: Monomial) -> int:
    return sum(m)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


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


class Polynomial:
    """Immutable sparse polynomial over a coefficient field."""

    __slots__ = ("field", "nvars", "terms", "_hash")

    def __init__(self, field: Field, nvars: int, terms=None):
        self.field = field
        self.nvars = nvars
        clean = {}
        if terms:
            for m, c in terms.items():
                if not field.is_zero(c):
                    clean[m] = c
        self.terms = clean
        self._hash = None

    @classmethod
    def zero(cls, field, nvars):
        return cls(field, nvars)

    @classmethod
    def from_terms(cls, field, nvars, pairs: Iterable):
        acc = {}
        for m, c in pairs:
            acc[m] = field.add(acc.get(m, field.zero), c)
        return cls(field, nvars, acc)

    @classmethod
    def monomial(cls, field, nvars, m, c=None):
        return cls(field, nvars, {m: field.one if c is None else c})

    def is_zero(self) -> bool:
        return not self.terms

    def support(self):
        return set(self.terms)

    def sorted_monomials(self):
        return sorted(self.terms, key=mono_key)

    def coeff(self, m):
        return self.terms.get(m, self.field.zero)

    def degree(self) -> int:
        """Grading degree; -1 for the zero polynomial."""
        return max((mono_size(m) for m in self.terms), default=-1)

    def add(self, other: "Polynomial") -> "Polynomial":
        f = self.field
        acc = dict(self.terms)
        for m, c in other.terms.items():
            acc[m] = f.add(acc.get(m, f.zero), c)
        return Polynomial(f, self.nvars, acc)

    def sub(self, other: "Polynomial") -> "Polynomial":
        f = self.field
        acc = dict(self.terms)
        for m, c in other.terms.items():
            acc[m] = f.sub(acc.get(m, f.zero), c)
        return Polynomial(f, self.nvars, acc)

    def neg(self) -> "Polynomial":
        f = self.field
        return Polynomial(f, self.nvars, {m: f.neg(c) for m, c in self.terms.items()})

    def scale(self, c) -> "Polynomial":
        f = self.field
        if f.is_zero(c):
            return Polynomial(f, self.nvars)
        return Polynomial(f, self.nvars, {m: f.mul(c, v) for m, v in self.terms.items()})

    def mul_monomial(self, m: Monomial, c=None) -> "Polynomial":
        f = self.field
        c = f.one if c is None else c
        return Polynomial(
            f, self.nvars, {mono_mul(m, t): f.mul(c, v) for t, v in self.terms.items()}
        )

    def mul(self, other: "Polynomial") -> "Polynomial":
        f = self.field
        acc = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                acc[m] = f.add(acc.get(m, f.zero), f.mul(c1, c2))
        return Polynomial(f, self.nvars, acc)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __repr__(self):
        return f"Polynomial({format_poly(self, None)})"


# ---------------------------------------------------------------------------
# monomial-set combinatorics


def prolong(S: set) -> set:
    """S+ = S union x_1 S union ... union x_n S."""
    S = set(S)
    out = set(S)
    for m in S:
        n = len(m)
        for i in range(n):
            out.add(mono_mul(m, mono_var(n, i)))
    return out


def border(B: set) -> set:
    """Border of B: prolong(B) minus B."""
    return prolong(B) - set(B)


def b_index(m: Monomial, B: set) -> int:
    """Least k with m in B^[k]; requires 1 in B.

    Equals min{|q| : m = q * b, b in B}.
    """
    n = len(m)
    if mono_one(n) not in B:
        raise ValueError("b_index requires 1 in B")
    best = mono_size(m)
    for b in B:
        if mono_divides(b, m):
            best = min(best, mono_size(m) - mono_size(b))
    return best


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


def stable_by_division(B: set) -> bool:
    B = set(B)
    for m in B:
        n = len(m)
        for i in range(n):
            if m[i] > 0:
                if tuple(e - (j == i) for j, e in enumerate(m)) not in B:
                    return False
    return True


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


def monomials_of_degree_at_most(n: int, d: int):
    """All monomials in n variables of size <= d, in canonical order."""
    out = []

    def rec(prefix, rest, budget):
        if rest == 1:
            chunk.append(prefix + (budget,))
            return
        for e in range(budget + 1):
            rec(prefix + (e,), rest - 1, budget - e)

    for total in range(d + 1):
        chunk = []
        rec((), n, total)
        out.extend(sorted(chunk, key=mono_key))
    return out


# ---------------------------------------------------------------------------
# parsing and printing


class ParseError(ValueError):
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


class _Tok:
    __slots__ = ("kind", "value", "col")

    def __init__(self, kind, value, col):
        self.kind = kind
        self.value = value
        self.col = col


def _tokenize(line: str, lineno: int):
    toks = []
    i = 0
    while i < len(line):
        ch = line[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^()":
            toks.append(_Tok(ch, ch, i + 1))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            seen_dot = False
            seen_exp = False
            while j < len(line):
                c = line[j]
                if c.isdigit():
                    j += 1
                elif c == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    j += 1
                elif c in "eE" and not seen_exp and j > i:
                    nxt = line[j + 1 : j + 2]
                    if nxt.isdigit() or nxt in "+-":
                        seen_exp = True
                        j += 2 if nxt in "+-" else 1
                    else:
                        break
                else:
                    break
            text = line[i:j]
            # integer followed by '/' integer is a rational literal
            if not seen_dot and not seen_exp and line[j : j + 1] == "/":
                k = j + 1
                while k < len(line) and line[k].isdigit():
                    k += 1
                if k > j + 1:
                    toks.append(_Tok("num", Fraction(int(text), int(line[j + 1 : k])), i + 1))
                    i = k
                    continue
            if seen_dot or seen_exp:
                toks.append(_Tok("num", Fraction(text), i + 1))
            else:
                toks.append(_Tok("num", Fraction(int(text)), i + 1))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(line) and (line[j].isalnum() or line[j] == "_"):
                j += 1
            toks.append(_Tok("name", line[i:j], i + 1))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", lineno, i + 1)
    toks.append(_Tok("end", None, len(line) + 1))
    return toks


class _PolyParser:
    """Recursive-descent parser for the sum-of-terms grammar."""

    def __init__(self, toks, lineno, varindex, field, nvars):
        self.toks = toks
        self.pos = 0
        self.lineno = lineno
        self.varindex = varindex
        self.field = field
        self.nvars = nvars

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, msg, tok=None):
        tok = tok or self.peek()
        raise ParseError(msg, self.lineno, tok.col)

    def parse(self) -> Polynomial:
        p = self.parse_poly()
        if self.peek().kind != "end":
            self.fail(f"trailing input {self.peek().value!r}")
        return p

    def parse_poly(self) -> Polynomial:
        sign = 1
        while self.peek().kind in "+-":
            if self.take().kind == "-":
                sign = -sign
        p = self.parse_term(sign)
        while self.peek().kind in "+-":
            sign = 1
            while self.peek().kind in "+-":
                if self.take().kind == "-":
                    sign = -sign
            p = p.add(self.parse_term(sign))
        return p

    def parse_term(self, sign: int) -> Polynomial:
        coeff = Fraction(sign)
        exps = [0] * self.nvars
        expect_factor = True
        while True:
            tok = self.peek()
            if tok.kind == "num":
                self.take()
                coeff *= tok.value
            elif tok.kind == "name":
                self.take()
                if tok.value not in self.varindex:
                    self.fail(f"unknown variable {tok.value!r}", tok)
                i = self.varindex[tok.value]
                e = 1
                if self.peek().kind == "^":
                    self.take()
                    etok = self.peek()
                    if etok.kind != "num" or etok.value.denominator != 1:
                        self.fail("expected integer exponent")
                    self.take()
                    e = int(etok.value)
                    if e < 0:
                        self.fail("negative exponent", etok)
                exps[i] += e
            elif expect_factor:
                self.fail("expected coefficient or variable")
            else:
                break
            expect_factor = False
            if self.peek().kind == "*":
                self.take()
                expect_factor = True
        try:
            c = self.field.from_fraction(coeff)
        except FieldError as exc:
            self.fail(str(exc))
        return Polynomial(self.field, self.nvars, {tuple(exps): c})


def parse_polynomial(text: str, varnames, field, lineno=1) -> Polynomial:
    varindex = {v: i for i, v in enumerate(varnames)}
    toks = _tokenize(text, lineno)
    return _PolyParser(toks, lineno, varindex, field, len(varnames)).parse()


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
            if len(words) != k + 2:
                raise ParseError("expected a single field after 'over'", lineno, 1)
            try:
                field = parse_field(words[k + 1])
            except ValueError as exc:
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

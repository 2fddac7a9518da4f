"""Shared fixtures, independent oracles and reference helpers for the test
suite.

The oracles here deliberately avoid the library's reduction machinery:
projection and syzygy kernels are recomputed by Gaussian elimination of their
own (dense, and over qq on sparse integer rows) so agreement is meaningful.
The rule-based projection `reduce_by_rules` and the other references below
have no caller in the library.
"""

import random
import warnings

import pytest

from borderbasis import (
    Polynomial,
    compute_border_basis,
    parse_choice,
    parse_field,
    parse_polynomial,
)
from borderbasis.border import BorderBasis, RewritingRule
from borderbasis.poly import (
    axpy,
    format_monomial,
    mono_div,
    mono_divides,
    mono_key,
    mono_mul,
    mono_size,
    mono_var,
)
from borderbasis.solve import evaluate_complex, residuals


@pytest.fixture
def qq():
    return parse_field("qq")


@pytest.fixture
def fp():
    return parse_field("fp:65537")


@pytest.fixture
def f64():
    return parse_field("f64:1e-10")


@pytest.fixture
def mac():
    return parse_choice("mac")


def poly_of(src, field, nvars=2):
    names = [f"x{i}" for i in range(nvars)]
    return parse_polynomial(src, names, field)


def system_of(srcs, field, nvars=2):
    return [poly_of(s, field, nvars) for s in srcs]


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


def random_regular_system(rng, field, n, max_deg, max_dim=None):
    """Random zero-dimensional system: f_i = x_i^d_i + (lower-degree noise).

    The top-degree form of f_i is exactly x_i^d_i, so the leading forms have
    no common projective zero and the ideal is always zero-dimensional with
    dimension prod d_i.
    """
    while True:
        degs = [rng.randint(1, max_deg) for _ in range(n)]
        dim = 1
        for d in degs:
            dim *= d
        if max_dim is None or dim <= max_dim:
            break
    polys = []
    for i, d in enumerate(degs):
        terms = {tuple(d if j == i else 0 for j in range(n)): field.one}
        for m in monomials_of_degree_at_most(n, d - 1):
            if rng.random() < 0.6:
                c = field.from_int(rng.randint(-4, 4))
                if not field.is_zero(c):
                    terms[m] = c
        polys.append(Polynomial(field, n, terms))
    return polys, dim


def random_poly(rng, field, n, max_deg, density=0.5):
    terms = {}
    for m in monomials_of_degree_at_most(n, max_deg):
        if rng.random() < density:
            c = field.from_int(rng.randint(-9, 9))
            if not field.is_zero(c):
                terms[m] = c
    return Polynomial(field, n, terms)


def gen_intro_family(field, a, b, c, d, eps1, eps2):
    """{a*x0^2 + b*x1^2 + eps1*x0*x1, c*x0^2 + d*x1^2 + eps2*x0*x1}.

    Warns when a*d - b*c = 0 (the system is then not zero-dimensional in
    general).
    """
    det = field.normalize(a * d - b * c)
    if field.is_zero(det):
        warnings.warn("a*d - b*c = 0: the system may not be zero-dimensional", stacklevel=2)
    sq0, sq1, cross = (2, 0), (0, 2), (1, 1)

    def mk(ca, cb, ce):
        terms = {}
        for m, co in ((sq0, ca), (sq1, cb), (cross, ce)):
            if not field.is_zero(co):
                terms[m] = co
        return Polynomial(field, 2, terms)

    return [mk(a, b, eps1), mk(c, d, eps2)]


def mnacr(roots, polys) -> float:
    """Maximal norm of the input polynomials at the computed roots."""
    return max([0.0, *residuals(roots, polys)])


# ---------------------------------------------------------------------------
# references: the rule-based projection and predicates on monomial sets


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def b_index_by_scan(m, B):
    """min{|q| : m = q * b, b in B} by a scan over B: the reference for
    `poly.b_index`."""
    return min(mono_size(m) - mono_size(b) for b in B if mono_divides(b, m))


def product(p, q):
    """p*q, one `Polynomial.mul_monomial` of q per term of p."""
    acc = Polynomial.zero(p.field, p.nvars)
    for m, c in p.terms.items():
        acc = acc.add(q.mul_monomial(m, c))
    return acc


def prolong(S):
    """S+ = S union x_1 S union ... union x_n S, one monomial product each."""
    out = set(S)
    for m in S:
        n = len(m)
        for i in range(n):
            out.add(mono_mul(m, mono_var(n, i)))
    return out


def border(B):
    """Border of B: prolong(B) minus B."""
    return prolong(B) - set(B)


def shifts_by_products(cols, n):
    """shift[i][k] = the index in cols of x_i*cols[k] (None when it is not
    among them), one monomial product each: the reference for the shift
    tables of `border._Universe` and `MultiplicationSystem`."""
    col = {m: k for k, m in enumerate(cols)}
    return [[col.get(mono_mul(m, mono_var(n, i))) for m in cols] for i in range(n)]


def neighbours_by_products(basis, basis_set):
    """(k, i, j) with i < j for each b = basis[k] where x_i*b or x_j*b lies
    outside B, one monomial product each: the reference for
    `quotient.neighbours`."""
    for k, b in enumerate(basis):
        n = len(b)
        outside = [mono_mul(b, mono_var(n, i)) not in basis_set for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if outside[i] or outside[j]:
                    yield k, i, j


def stable_by_division(B):
    B = set(B)
    for m in B:
        n = len(m)
        for i in range(n):
            if m[i] > 0:
                if tuple(e - (j == i) for j, e in enumerate(m)) not in B:
                    return False
    return True


class NotReducibleError(Exception):
    """A support monomial in the border has no rewriting rule."""

    def __init__(self, monomial):
        super().__init__(f"no rewriting rule for border monomial {format_monomial(monomial)}")
        self.monomial = monomial


def reduce_by_rules(p, rules, B):
    """The projection pi_F of p onto <B> through the rules (the reference for
    `normal_form`); p must be supported in B+.

    Raises NotReducibleError when a border monomial has no rule.
    """
    f = p.field
    acc = {}
    for m in sorted(p.terms, key=mono_key):
        if m not in B and m not in rules:
            raise NotReducibleError(m)
        axpy(f, acc, p.terms[m], {m: f.one} if m in B else rules[m].tail.terms)
    return Polynomial(f, p.nvars, acc)


def _rule_c_polynomial(r1, r2):
    """Cross-multiplied difference of two rules."""
    lcm = mono_lcm(r1.lead, r2.lead)
    a = r1.poly().mul_monomial(mono_div(lcm, r1.lead))
    b = r2.poly().mul_monomial(mono_div(lcm, r2.lead))
    return a.sub(b)


def check_reducing_family(rules, B, lam):
    """True iff every border monomial of degree <= lam has a rule."""
    return all(m in rules for m in border(B) if mono_size(m) <= lam)


def rule_residual(roots, bb):
    """max over roots and rules of |lead(root) - tail(root)|."""
    best = 0.0
    for root in roots:
        for rule in bb.rules.values():
            best = max(best, abs(evaluate_complex(rule.poly(), root)))
    return best


# ---------------------------------------------------------------------------
# dense linear algebra over an arbitrary field (oracle machinery); prime
# fields get a vectorized numpy path so the acceptance volumes stay fast, and
# qq sparse integer rows, so Katsura 3 stays within seconds


import math
from fractions import Fraction

import numpy as np

from borderbasis.fields import FloatField, PrimeField, RationalField


def rref_fp(a, p):
    """Reduced row echelon of an int64 numpy matrix mod p; returns (a, pivots)."""
    a = a % p
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        k = r + int(nz[0])
        if k != r:
            a[[r, k]] = a[[k, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r] = (a[r] * inv) % p
        # only the rows with a nonzero entry in column c change
        rows = np.nonzero(a[:, c])[0]
        rows = rows[rows != r]
        a[rows] = (a[rows] - np.outer(a[rows, c], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def echelonize(rows, field):
    """In-place reduced row echelon; returns list of pivot column indices."""
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        sel = None
        for k in range(r, len(rows)):
            if not field.is_zero(rows[k][col]):
                sel = k
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = field.inv(rows[r][col])
        rows[r] = [field.normalize(inv * v) for v in rows[r]]
        for k in range(len(rows)):
            if k != r and not field.is_zero(rows[k][col]):
                c = rows[k][col]
                rows[k] = [field.normalize(a - c * b) for a, b in zip(rows[k], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return pivots


def nullspace(rows, field, ncols):
    """Kernel basis of the matrix given by `rows` (each row length ncols)."""
    work = [list(r) for r in rows]
    if not work:
        work = [[field.zero] * ncols]
    pivots = echelonize(work, field)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fcol in free:
        vec = [field.zero] * ncols
        vec[fcol] = field.one
        for r, pcol in enumerate(pivots):
            vec[pcol] = field.normalize(-work[r][fcol])
        basis.append(vec)
    return basis


def _cancel(r, e, c):
    """The integer row e[c]*r - r[c]*e over gcd(e[c], r[c]), which is zero
    at column c, divided by its content, and the factor e[c]/gcd applied
    to r."""
    g = math.gcd(e[c], r[c])
    a, b = e[c] // g, r[c] // g
    out = {k: a * v for k, v in r.items()}
    for k, v in e.items():
        out[k] = out.get(k, 0) - b * v
    out = {k: v for k, v in out.items() if v}
    content = math.gcd(*out.values()) or 1
    return {k: v // content for k, v in out.items()}, Fraction(a, content)


def _integer_row(terms, col):
    """(row, den): the coefficients over the lcm den of their denominators,
    as ints keyed by column."""
    den = math.lcm(1, *(c.denominator for c in terms.values()))
    return {col[m]: c.numerator * (den // c.denominator) for m, c in terms.items()}, den


def echelon_integer(rows):
    """Row echelon of sparse integer rows ``{column: int}``, fraction-free:
    returns {pivot: row}, each row primitive with its lowest column as its
    pivot, which no other kept row shares."""
    by_pivot = {}
    for r in rows:
        while r:
            c = min(r)
            if c not in by_pivot:
                g = math.gcd(*r.values())
                by_pivot[c] = {k: v // g for k, v in r.items()}
                break
            r, _ = _cancel(r, by_pivot[c], c)
    return by_pivot


class OracleProjector:
    """Projection onto <B> along the span of rule multiples, by elimination.

    Builds all monomial multiples of the rules up to a degree bound and
    eliminates every monomial outside B, never touching the library's
    reduction code.  The echelon is computed once so many polynomials can be
    projected cheaply.
    """

    def __init__(self, bb, max_deg):
        self.bb = bb
        field = bb.field
        n = bb.nvars
        lam = max(max_deg, max(mono_size(m) for m in bb.rules)) + 2
        span = []
        for w in sorted(bb.rules, key=mono_key):
            fpoly = bb.rules[w].poly()
            d = fpoly.degree()
            for m in monomials_of_degree_at_most(n, lam - d):
                span.append(fpoly.mul_monomial(m))
        monos = monomials_of_degree_at_most(n, lam)
        # order columns so non-B monomials are eliminated first
        self.order = sorted(monos, key=lambda m: (m in bb.basis_set, mono_key(m)))
        self.col = {m: j for j, m in enumerate(self.order)}
        width = len(self.order)
        if isinstance(field, PrimeField):
            mat = np.zeros((len(span), width), dtype=np.int64)
            for i, q in enumerate(span):
                for m, c in q.terms.items():
                    mat[i, self.col[m]] = c
            self.rows, _ = rref_fp(mat, field.p)
        elif isinstance(field, RationalField):
            self.rows = echelon_integer(_integer_row(q.terms, self.col)[0] for q in span)
        else:
            rows = []
            for q in span:
                row = [field.zero] * width
                for m, c in q.terms.items():
                    row[self.col[m]] = c
                rows.append(row)
            echelonize(rows, field)
            self.rows = rows

    def project(self, p):
        bb = self.bb
        field = bb.field
        if isinstance(field, RationalField):
            # target = scale * the integer row t; the pivots are eliminated
            # lowest first, so each step adds only columns above its pivot
            t, den = _integer_row(p.terms, self.col)
            scale = Fraction(1, den)
            for c in sorted(self.rows):
                if c in t and self.order[c] not in bb.basis_set:
                    t, a = _cancel(t, self.rows[c], c)
                    scale /= a
            vals = {j: scale * v for j, v in t.items()}
        elif isinstance(field, PrimeField):
            target = np.zeros(len(self.order), dtype=np.int64)
            for m, c in p.terms.items():
                target[self.col[m]] = c
            for r in self.rows:
                nz = np.nonzero(r)[0]
                if nz.size == 0 or self.order[int(nz[0])] in bb.basis_set:
                    continue
                c = int(target[int(nz[0])])
                if c:
                    target = (target - c * r) % field.p
            vals = {j: int(v) for j, v in enumerate(target) if v}
        else:
            target = [field.zero] * len(self.order)
            for m, c in p.terms.items():
                target[self.col[m]] = c
            for r in self.rows:
                piv = next((j for j, v in enumerate(r) if not field.is_zero(v)), None)
                if piv is None or self.order[piv] in bb.basis_set:
                    continue
                c = target[piv]
                if not field.is_zero(c):
                    target = [field.normalize(a - c * b) for a, b in zip(target, r)]
            vals = {j: c for j, c in enumerate(target) if not field.is_zero(c)}
        terms = {}
        for j, c in vals.items():
            assert self.order[j] in bb.basis_set, "oracle projection left a non-basis monomial"
            terms[self.order[j]] = c
        return Polynomial(field, bb.nvars, terms)


def oracle_normal_form(p, bb):
    return OracleProjector(bb, p.degree()).project(p)


def oracle_syzygy_basis(bb):
    """Kernel basis of (h_w) -> sum h_w f_w, degree bound max|b| + 3."""
    field = bb.field
    n = bb.nvars
    lam = max(mono_size(b) for b in bb.basis) + 3
    leads = sorted(bb.rules, key=mono_key)
    cols = []  # (w, m) pairs
    col_polys = []
    for w in leads:
        fpoly = bb.rules[w].poly()
        d = fpoly.degree()
        for m in monomials_of_degree_at_most(n, lam - d):
            cols.append((w, m))
            col_polys.append(fpoly.mul_monomial(m))
    monos = sorted(monomials_of_degree_at_most(n, lam), key=mono_key)
    row_of = {m: k for k, m in enumerate(monos)}
    # matrix transposed for nullspace: rows = monomials, columns = (w, m)
    if isinstance(field, PrimeField):
        mat = np.zeros((len(monos), len(cols)), dtype=np.int64)
        for j, q in enumerate(col_polys):
            for m, c in q.terms.items():
                mat[row_of[m], j] = c
        work, pivots = rref_fp(mat, field.p)
        pivot_set = set(pivots)
        kernel = []
        for fcol in range(len(cols)):
            if fcol in pivot_set:
                continue
            vec = [field.zero] * len(cols)
            vec[fcol] = field.one
            for r, pcol in enumerate(pivots):
                vec[pcol] = field.normalize(-int(work[r, fcol]))
            kernel.append(vec)
    else:
        rows = [[field.zero] * len(cols) for _ in monos]
        for j, q in enumerate(col_polys):
            for m, c in q.terms.items():
                rows[row_of[m]][j] = c
        kernel = nullspace(rows, field, len(cols))
    out = []
    for vec in kernel:
        coeffs = {}
        for j, c in enumerate(vec):
            if field.is_zero(c):
                continue
            w, m = cols[j]
            add = Polynomial.monomial(field, n, m, c)
            coeffs[w] = coeffs[w].add(add) if w in coeffs else add
        out.append(coeffs)
    return out


def exhaustive_rewrite(p, bb, max_passes=200):
    """Rewriting oracle: substitute rules anywhere until fixed point."""
    field = bb.field
    n = bb.nvars
    from borderbasis.poly import mono_div, mono_divides

    cur = p
    for _ in range(max_passes):
        hit = None
        for m in sorted(cur.terms, key=mono_key, reverse=True):
            for lead in bb.rules:
                if mono_divides(lead, m):
                    hit = (m, lead)
                    break
            if hit:
                break
        if hit is None:
            return cur
        m, lead = hit
        c = cur.terms[m]
        rest = mono_div(m, lead)
        repl = bb.rules[lead].tail.mul_monomial(rest, c)
        cur = cur.sub(Polynomial.monomial(field, n, m, c)).add(repl)
    raise AssertionError("rewriting oracle did not terminate")


def compute(srcs, field, nvars=2, choice="mac"):
    return compute_border_basis(system_of(srcs, field, nvars), parse_choice(choice))


def non_commuting_basis(field):
    """The basis of x0^2 - 1, x1^2 - x1 with one wrong rule tail, x0^2 -> 2:
    every border monomial has a rule, but M_0 and M_1 do not commute."""
    bb = compute(["x0^2 - 1", "x1^2 - x1"], field)
    rules = dict(bb.rules)
    rules[(2, 0)] = RewritingRule((2, 0), poly_of("2", field))
    return BorderBasis(bb.basis, rules, bb.loops, field, 2)


def reference_apply(ms, i, vec):
    """M_i applied to a coordinate vector entry by entry over
    ``ms.matrices``, skipping the zero coordinates and normalizing each
    result once: the reference for `MultiplicationSystem.apply`."""
    f = ms.field
    out = [f.zero] * ms.dimension
    for c, col in zip(vec, ms.matrices[i]):
        if f.is_zero(c):
            continue
        for k, a in enumerate(col):
            out[k] += c * a
    return [f.normalize(x) for x in out]


def reference_normal_form(p, ms):
    """`normal_form` one monomial at a time through `reference_apply`, each
    monomial's coordinates those of its parent (leftmost variable peeled
    off) under M_i, memoized for this call: the reference for the levels
    on ``ms.array``."""
    f = ms.field
    memo = {}

    def vec_of_monomial(m):
        v = memo.get(m)
        if v is None:
            j = ms.index.get(m)
            if j is None:
                i = next(k for k, e in enumerate(m) if e > 0)
                v = reference_apply(ms, i, vec_of_monomial(mono_div(m, mono_var(ms.nvars, i))))
            else:
                v = [f.zero] * ms.dimension
                v[j] = f.one
            memo[m] = v
        return v

    acc = [f.zero] * ms.dimension
    for m in sorted(p.terms, key=mono_key):
        c = p.terms[m]
        acc = [x + c * y for x, y in zip(acc, vec_of_monomial(m))]
    return ms.poly_of([f.normalize(x) for x in acc])


def reference_commutators(ms):
    """`commutators` column by column through `reference_apply`: the
    reference for the products on ``ms.array`` (int64 or Python ints mod p,
    the numerators over qq, float64 on f64).  Over f64 an entry counts as
    nonzero above max(eps, 1e-10 * |M_i| * |M_j|), as in `commutators`."""
    f = ms.field
    norms = [max((f.magnitude(c) for col in m for c in col), default=0.0) for m in ms.matrices]
    out = []
    for k, i, j in neighbours_by_products(ms.basis, ms.index):
        a = reference_apply(ms, i, ms.matrices[j][k])
        b = reference_apply(ms, j, ms.matrices[i][k])
        diff = [f.normalize(x - y) for x, y in zip(a, b)]
        if isinstance(f, FloatField):
            tol = max(f.eps, 1e-10 * norms[i] * norms[j])
            nonzero = any(abs(c) > tol for c in diff)
        else:
            nonzero = not all(f.is_zero(c) for c in diff)
        if nonzero:
            out.append((i, j, k, diff))
    return out


def seeded(seed):
    return random.Random(seed)

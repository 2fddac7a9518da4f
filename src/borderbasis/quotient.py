"""Multiplication operators on the quotient algebra and the global normal form.

The matrices M_i describe multiplication by x_i on <B>: column j holds the
coordinates of the reduction of x_i * B[j].  Pairwise commutation of the M_i
certifies that the rewriting rules define a border basis.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .fields import NumericError, PrimeField, RationalField, int64_sums_fit
from .poly import (
    Monomial,
    Polynomial,
    format_monomial,
    mono_div,
    mono_key,
    mono_mul,
    mono_var,
    neighbours,
)

if TYPE_CHECKING:
    from .border import BorderBasis


class NotABorderBasisError(NumericError):
    pass


class MultiplicationSystem:
    """The n multiplication-by-variable matrices on an ordered basis B.

    Matrices are dense, stored column-major: ``matrices[i][j]`` is the
    coordinate vector of the reduction of x_i * B[j].  ``apply`` walks their
    nonzero entries and normalizes each coordinate once (``Field.normalize``).

    On an exact field ``array`` holds the same matrices once more as one
    integer array of shape (n, D, D), the route of `commutators` and
    `normal_form`.  Over Z/p ``array[i][j]`` is the column j of M_i mod p:
    int64 when sums of D products of residues fit (`int64_sums_fit`), a
    numpy object array of Python ints otherwise.  Over ``qq`` it is the
    column j of d_i * M_i, with d_i = ``denominators[i]`` the lcm of the
    denominators in M_i.  Over f64 ``array`` is None, and so is
    ``denominators`` on every field but ``qq``.

    ``outside[i]`` lists, in basis order, the pairs (k, x_i*B[k]) for each
    basis position k whose x_i-multiple leaves B: the border shifts that
    `syzygy.mu` and the syzygy generators read.
    """

    def __init__(self, basis, matrices, field, nvars):
        self.basis = list(basis)
        self.index = {m: j for j, m in enumerate(self.basis)}
        self.matrices = matrices
        self.field = field
        self.nvars = nvars
        self._entries = [
            [[(k, c) for k, c in enumerate(col) if c != field.zero] for col in m] for m in matrices
        ]
        self.outside = []
        for i in range(nvars):
            shifts = ((k, mono_mul(b, mono_var(nvars, i))) for k, b in enumerate(self.basis))
            self.outside.append([(k, w) for k, w in shifts if w not in self.index])
        self.array = self.denominators = None
        if isinstance(field, PrimeField):
            dtype = np.int64 if int64_sums_fit(field, len(self.basis)) else object
            self.array = np.array(matrices, dtype=dtype) % field.p
        elif isinstance(field, RationalField):
            self.denominators = [math.lcm(*(c.denominator for col in m for c in col)) for m in matrices]
            self.array = np.array(
                [
                    [[c.numerator * (d // c.denominator) for c in col] for col in m]
                    for m, d in zip(matrices, self.denominators)
                ],
                dtype=object,
            )

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def apply(self, i: int, vec):
        """M_i applied to a coordinate vector."""
        f = self.field
        out = [f.zero] * self.dimension
        for c, col in zip(vec, self._entries[i]):
            if f.is_zero(c):
                continue
            for k, a in col:
                out[k] += c * a
        return [f.normalize(x) for x in out]

    def vector_of(self, p: Polynomial):
        """Coordinates of a polynomial supported in B."""
        f = self.field
        out = [f.zero] * self.dimension
        for m, c in p.terms.items():
            out[self.index[m]] = c
        return out

    def poly_of(self, vec) -> Polynomial:
        return Polynomial(self.field, self.nvars, dict(zip(self.basis, vec)))

    def to_json_dict(self, varnames=None):
        if varnames is None:
            varnames = [f"x{i}" for i in range(self.nvars)]
        f = self.field
        return {
            "vars": list(varnames),
            "field": f.name,
            "basis": [format_monomial(m, varnames) for m in self.basis],
            "matrices": {
                varnames[i]: [[f.to_str(c) for c in row] for row in zip(*self.matrices[i])]
                for i in range(self.nvars)
            },
        }


def build_mult_system(bb: BorderBasis) -> MultiplicationSystem:
    """Multiplication matrices from a basis and its rewriting rules."""
    f = bb.field
    n = bb.nvars
    basis = bb.basis
    index = {m: j for j, m in enumerate(basis)}
    D = len(basis)
    matrices = []
    for i in range(n):
        cols = []
        xi = mono_var(n, i)
        for b in basis:
            m = mono_mul(b, xi)
            col = [f.zero] * D
            if m in index:
                col[index[m]] = f.one
            else:
                rule = bb.rules.get(m)
                if rule is None:
                    raise NotABorderBasisError(
                        f"missing rule for border monomial {format_monomial(m)}; not a border basis"
                    )
                for t, c in rule.tail.terms.items():
                    if t not in index:
                        raise NotABorderBasisError(
                            f"rule of {format_monomial(m)} has tail term {format_monomial(t)} outside B;"
                            " not a border basis"
                        )
                    col[index[t]] = c
            cols.append(col)
        matrices.append(cols)
    return MultiplicationSystem(basis, matrices, f, n)


def commutators(ms: MultiplicationSystem):
    """The nonzero columns of M_i M_j - M_j M_i, as (i, j, column index,
    column), over the `neighbours` columns in their order.

    Exact fields compare exactly on ``ms.array`` (`_commutators_on_integers`).
    Over f64 the matrices are applied column by column, with an entrywise
    tolerance max(eps, 1e-10 * |M_i| * |M_j|) so badly scaled systems do not
    fail spuriously.
    """
    if ms.array is not None:
        yield from _commutators_on_integers(ms)
        return
    f = ms.field
    norms = [max((f.magnitude(c) for col in m for c in col), default=0.0) for m in ms.matrices]
    for k, i, j in neighbours(ms.basis, ms.index):
        a = ms.apply(i, ms.matrices[j][k])
        b = ms.apply(j, ms.matrices[i][k])
        diff = [f.normalize(x - y) for x, y in zip(a, b)]
        tol = max(f.eps, 1e-10 * norms[i] * norms[j])
        if any(f.magnitude(c) > tol for c in diff):
            yield i, j, k, diff


def _commutators_on_integers(ms: MultiplicationSystem):
    """`commutators` on ``ms.array``, one product per pair: each difference
    is formed as A_j A_i - A_i A_j = d_i d_j (M_i M_j - M_j M_i)^T, reduced
    mod p, and zero-tested on integers; a nonzero column is yielded as ints
    mod p, or as Fractions over d_i d_j."""
    n, a, d = ms.nvars, ms.array, ms.denominators
    mod = ms.field.p if d is None else None
    # a[i] holds the columns of d_i M_i as rows, so a[j] @ a[i] is d_i d_j (M_i M_j)^T
    diffs = {}
    for i in range(n):
        for j in range(i + 1, n):
            diff = a[j] @ a[i] - a[i] @ a[j]
            if mod is not None:
                diff %= mod
            if diff.any():
                diffs[i, j] = diff
    if diffs:
        for k, i, j in neighbours(ms.basis, ms.index):
            diff = diffs.get((i, j))
            if diff is not None and diff[k].any():
                col = diff[k].tolist()
                yield i, j, k, col if mod is not None else [Fraction(x, d[i] * d[j]) for x in col]


def check_commutation(ms: MultiplicationSystem):
    """(ok, first violating (i, j, column) or None), as `commutators` finds it."""
    for i, j, k, _ in commutators(ms):
        return False, (i, j, k)
    return True, None


def normal_form(p: Polynomial, ms: MultiplicationSystem, bb: BorderBasis) -> Polynomial:
    """The unique projection of K[x] onto <B> with kernel the ideal.

    A monomial's coordinates are M_i applied to those of the monomial with
    its leftmost variable x_i peeled off; commutation must have been verified
    so the variable order is irrelevant.  The coordinates are memoized for
    this call only, so a query costs the same whatever was asked before.

    On an exact field the coordinates are computed level by level on
    ``ms.array`` (`_normal_form_on_integers`).  Over f64 they are computed
    one monomial at a time with `MultiplicationSystem.apply`; so are they
    on an exact field whose ``array`` is cleared, with the same values.
    """
    if ms.array is not None:
        return _normal_form_on_integers(p, ms)
    f = ms.field
    memo: dict[Monomial, list] = {}

    def vec_of_monomial(m: Monomial):
        v = memo.get(m)
        if v is None:
            j = ms.index.get(m)
            if j is None:
                i = next(k for k, e in enumerate(m) if e > 0)
                v = ms.apply(i, vec_of_monomial(mono_div(m, mono_var(ms.nvars, i))))
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


def _normal_form_on_integers(p: Polynomial, ms: MultiplicationSystem):
    """`normal_form` on ``ms.array``.

    Each monomial needed is x_i times its parent, the monomial with its
    leftmost variable x_i peeled off, at depth one more than the parent's
    (a monomial of B has depth 0).  Its coordinates are one row of C: at
    depth 1 the row of a[i] at the parent, deeper C[parents] @ a[i] (mod p),
    for all monomials of that depth and variable at once.  Over Q a row
    stands over its own denominator, the product of the d_i along its
    peels.  A parent shared by several monomials gets one row.  The answer
    is p's coefficients times the rows of its terms outside B, plus its
    terms in B: mod p over Z/p, on Python ints when the sums of that many
    products would not fit int64; over Q as integers over one common
    denominator, each coordinate made a Fraction once.
    """
    index, a, d = ms.index, ms.array, ms.denominators
    mod = ms.field.p if d is None else None
    outside = [m for m in p.terms if m not in index]
    row: dict[Monomial, int] = {}
    depth_of: list[int] = []  # by row
    groups: dict[tuple, tuple] = {}  # (depth, i) -> (rows, their parents' columns or rows)

    def visit(m: Monomial) -> int:
        """The row of m, given to m and its ancestors outside B on first sight."""
        r = row.get(m)
        if r is not None:
            return r
        for i, e in enumerate(m):
            if e:
                break
        parent = m[:i] + (e - 1,) + m[i + 1 :]
        src = index.get(parent)
        if src is None:
            src = visit(parent)
            depth = depth_of[src] + 1
        else:
            depth = 1
        group = groups.get((depth, i))
        if group is None:
            group = groups[depth, i] = ([], [])
        r = row[m] = len(depth_of)
        depth_of.append(depth)
        group[0].append(r)
        group[1].append(src)
        return r

    terms = [visit(m) for m in outside]
    C = np.empty((len(depth_of), ms.dimension), dtype=a.dtype)
    den = [1] * len(depth_of)  # by row; over Q the product of the d_i along its peels
    for (depth, i), (rows, srcs) in sorted(groups.items()):
        if depth == 1:
            C[rows] = a[i][srcs]
        else:
            product = C[srcs] @ a[i]
            C[rows] = product if mod is None else product % mod
        if mod is None:
            for r, s in zip(rows, srcs):
                den[r] = d[i] if depth == 1 else den[s] * d[i]
    vec = [0] * ms.dimension
    if mod is not None:
        if terms:
            dtype = np.int64 if int64_sums_fit(ms.field, len(outside)) else object
            coeffs = np.array([p.terms[m] % mod for m in outside], dtype=dtype)
            vec = (coeffs @ C[terms] % mod).tolist()
        for m, c in p.terms.items():
            j = index.get(m)
            if j is not None:
                vec[j] = (vec[j] + c) % mod
        return ms.poly_of(vec)
    # over Q every term is taken over one common denominator
    coeffs = [p.terms[m] for m in outside]
    common = math.lcm(
        *(c.denominator * den[r] for c, r in zip(coeffs, terms)),
        *(c.denominator for m, c in p.terms.items() if m in index),
    )
    if terms:
        weights = [c.numerator * (common // (c.denominator * den[r])) for c, r in zip(coeffs, terms)]
        vec = (np.array(weights, dtype=object) @ C[terms]).tolist()
    for m, c in p.terms.items():
        j = index.get(m)
        if j is not None:
            vec[j] += c.numerator * (common // c.denominator)
    return ms.poly_of([Fraction(x, common) for x in vec])

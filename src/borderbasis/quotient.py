"""Multiplication operators on the quotient algebra and the global normal form.

The matrices M_i describe multiplication by x_i on <B>: column j holds the
coordinates of the reduction of x_i * B[j].  Pairwise commutation of the M_i
certifies that the rewriting rules define a border basis.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .fields import FloatField, NumericError, int64_sums_fit
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

    Over a prime field whose sums of D products fit int64
    (`int64_sums_fit`), ``residues`` holds the same matrices once more as one
    int64 array mod p of shape (n, D, D), with ``residues[i][j]`` the column j
    of M_i; `commutators` and `normal_form` multiply it.  On any other field
    it is None.

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
        self.residues = None
        if int64_sums_fit(field, len(self.basis)):
            self.residues = np.array(matrices, dtype=np.int64) % field.p

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
                        f"missing rule for border monomial; not a border basis"
                    )
                for t, c in rule.tail.terms.items():
                    col[index[t]] = c
            cols.append(col)
        matrices.append(cols)
    return MultiplicationSystem(basis, matrices, f, n)


def commutators(ms: MultiplicationSystem):
    """The nonzero columns of M_i M_j - M_j M_i, as (i, j, column index,
    column), over the `neighbours` columns in their order.

    Exact fields compare exactly: over a prime field whose sums of D
    products fit int64 each difference is formed once as an int64 matrix
    product mod p on ``ms.residues`` and its columns are yielded as lists of
    ints, other fields apply the matrices column by column.  The float field
    uses an entrywise tolerance max(eps, 1e-10 * |M_i| * |M_j|) so badly
    scaled systems do not fail spuriously.
    """
    f = ms.field
    if ms.residues is not None:
        yield from _commutators_mod_p(ms)
        return
    if isinstance(f, FloatField):
        norms = [max((f.magnitude(c) for col in m for c in col), default=0.0) for m in ms.matrices]
    for k, i, j in neighbours(ms.basis, ms.index):
        a = ms.apply(i, ms.matrices[j][k])
        b = ms.apply(j, ms.matrices[i][k])
        diff = [f.normalize(x - y) for x, y in zip(a, b)]
        if isinstance(f, FloatField):
            tol = max(f.eps, 1e-10 * norms[i] * norms[j])
            nonzero = any(f.magnitude(c) > tol for c in diff)
        else:
            nonzero = not all(f.is_zero(c) for c in diff)
        if nonzero:
            yield i, j, k, diff


def _commutators_mod_p(ms: MultiplicationSystem):
    """`commutators` over Z/p: M_i M_j - M_j M_i mod p once per pair."""
    p = ms.field.p
    n = ms.nvars
    a = ms.residues
    # a[i] holds the columns of M_i as rows, so a[j] @ a[i] is (M_i M_j)^T
    diffs = {}
    for i in range(n):
        for j in range(i + 1, n):
            d = (a[j] @ a[i] - a[i] @ a[j]) % p
            if d.any():
                diffs[i, j] = d
    if diffs:
        for k, i, j in neighbours(ms.basis, ms.index):
            d = diffs.get((i, j))
            if d is not None and d[k].any():
                yield i, j, k, d[k].tolist()


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

    When ``ms.residues`` is set and the sums of the terms of p outside B fit
    int64 too, the coordinates are computed level by level on that array
    (`_normal_form_mod_p`); otherwise one monomial at a time with
    `MultiplicationSystem.apply`.  Both give the same residues.
    """
    f = ms.field
    if ms.residues is not None:
        outside = [m for m in p.terms if m not in ms.index]
        if int64_sums_fit(f, len(outside)):
            return _normal_form_mod_p(p, outside, ms)
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


def _normal_form_mod_p(p: Polynomial, outside: list, ms: MultiplicationSystem) -> Polynomial:
    """`normal_form` over Z/p on ``ms.residues``, for the terms ``outside`` B.

    Each monomial needed is x_i times its parent, the monomial with its
    leftmost variable x_i peeled off, at depth one more than the parent's
    (a monomial of B has depth 0).  Its coordinates are one row of C: at
    depth 1 the column of M_i at the parent, deeper (C[parents] @ a[i]) mod p
    for all monomials of that depth and variable at once.  A parent shared by
    several monomials gets one row.  The answer is the coefficients mod p
    times the rows of p's terms, plus p's terms in B.
    """
    f, a, index = ms.field, ms.residues, ms.index
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
    C = np.empty((len(depth_of), ms.dimension), dtype=np.int64)
    for (depth, i), (rows, srcs) in sorted(groups.items()):
        C[rows] = a[i][srcs] if depth == 1 else C[srcs] @ a[i] % f.p
    coeffs = np.array([p.terms[m] % f.p for m in outside], dtype=np.int64)
    vec = (coeffs @ C[terms] % f.p).tolist()
    for m, c in p.terms.items():
        j = index.get(m)
        if j is not None:
            vec[j] = (vec[j] + c) % f.p
    return ms.poly_of(vec)

"""Multiplication operators on the quotient algebra and the global normal form.

The matrices M_i describe multiplication by x_i on <B>: column j holds the
coordinates of the reduction of x_i * B[j].  Pairwise commutation of the M_i
certifies that the rewriting rules define a border basis.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING

import numpy as np

from .fields import NumericError
from .poly import Monomial, Polynomial, format_monomial, mono_key

if TYPE_CHECKING:
    from .border import BorderBasis


class NotABorderBasisError(NumericError):
    pass


class MultiplicationSystem:
    """The n multiplication-by-variable matrices on an ordered basis B.

    Matrices are dense, stored column-major: ``matrices[i][j]`` is the
    coordinate vector of the reduction of x_i * B[j].

    ``array`` holds the same matrices once more as one numpy array of shape
    (n, D, D), the route of `commutators`, `normal_form` and `apply` on
    every field, as ``field.encode`` gives it: ``array[i][j]`` over
    ``denominator`` is the column j of M_i.  Over Z/p it holds residues
    (int64 when (p-1)^2 < 2^63, Python ints otherwise), over f64 float64,
    both over the denominator 1; over ``qq`` integer numerators over the
    lcm of every denominator in the matrices.

    ``shifts[i][k]`` is the monomial x_i*B[k], and ``outside[i]`` lists, in
    basis order, the pairs (k, x_i*B[k]) for each basis position k whose
    x_i-multiple leaves B: the border shifts that `neighbours`, `syzygy.mu`
    and the syzygy generators read.
    """

    def __init__(self, basis, shifts, matrices, field, nvars):
        self.basis = list(basis)
        self.index = {m: j for j, m in enumerate(self.basis)}
        self.shifts = shifts
        self.matrices = matrices
        self.field = field
        self.nvars = nvars
        self.outside = [[(k, w) for k, w in enumerate(row) if w not in self.index] for row in shifts]
        self.array, self.denominator = field.encode(matrices)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def apply(self, i: int, vec):
        """M_i applied to a coordinate vector: the vector's encoding times
        ``array[i]``, over the product of the two scales.  A float coordinate
        that overflows raises NumericError."""
        f = self.field
        x, scale = f.encode(vec)
        return f.decode(f.product(x, self.array[i]), scale * self.denominator)

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
    """Multiplication matrices from a basis and its rewriting rules, which
    must be exactly one per border monomial; ``shifts`` forms each x_i*b once."""
    f = bb.field
    n = bb.nvars
    basis = bb.basis
    index = {m: j for j, m in enumerate(basis)}
    D = len(basis)
    shifts = [[b[:i] + (b[i] + 1,) + b[i + 1 :] for b in basis] for i in range(n)]
    matrices = []
    read = set()  # the border monomials, whose rules the matrices read
    for row in shifts:
        cols = []
        for m in row:
            col = [f.zero] * D
            if m in index:
                col[index[m]] = f.one
            else:
                read.add(m)
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
    if len(bb.rules) != len(read):
        m = min(set(bb.rules) - read, key=mono_key)
        raise NotABorderBasisError(
            f"rule for {format_monomial(m)}, which is not a border monomial; not a border basis"
        )
    return MultiplicationSystem(basis, shifts, matrices, f, n)


def neighbours(ms: MultiplicationSystem):
    """(k, i, j) with i < j for each b = ms.basis[k] where x_i*b or x_j*b lies
    outside B, read off ``ms.outside``.

    These are the only columns where M_i M_j - M_j M_i can be nonzero (when
    both products lie in B, both sides are the column of x_i*x_j*b), and the
    origins of the commutation syzygies.
    """
    leaves = [{k for k, _ in pairs} for pairs in ms.outside]
    for k in range(ms.dimension):
        for i, j in combinations(range(ms.nvars), 2):
            if k in leaves[i] or k in leaves[j]:
                yield k, i, j


def commutators(ms: MultiplicationSystem):
    """The nonzero columns of M_i M_j - M_j M_i, as (i, j, column index,
    column), over the `neighbours` columns in their order.

    Each pair's difference is formed once on ``ms.array``, as
    A_j A_i - A_i A_j = d^2 (M_i M_j - M_j M_i)^T, d = ``ms.denominator``,
    with the field's product, and ``field.nonzero`` tests it: exactly on
    the exact fields (over Z/p both products are residues, so the
    difference is zero only where they agree).  Over f64 an entry is
    nonzero when it exceeds max(eps, 1e-10 * |M_i| * |M_j|), |M| the
    largest magnitude in M, so badly scaled systems do not fail spuriously,
    and an entry that overflows raises NumericError.  A nonzero column is
    yielded decoded over d^2: ints mod p, Fractions or floats.
    """
    f, n, a = ms.field, ms.nvars, ms.array
    # a[i] holds the columns of d M_i as rows, so a[j] @ a[i] is d^2 (M_i M_j)^T
    diffs = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            for j in range(i + 1, n):
                diff = f.product(a[j], a[i]) - f.product(a[i], a[j])
                nonzero = f.nonzero(diff, a[i], a[j])
                if nonzero.any():
                    diffs[i, j] = diff, nonzero
    if diffs:
        for k, i, j in neighbours(ms):
            diff, nonzero = diffs.get((i, j), (None, None))
            if diff is not None and nonzero[k].any():
                yield i, j, k, f.decode(diff[k], ms.denominator**2)


def check_commutation(ms: MultiplicationSystem):
    """(ok, first violating (i, j, column) or None), as `commutators` finds it."""
    for i, j, k, _ in commutators(ms):
        return False, (i, j, k)
    return True, None


def normal_form(p: Polynomial, ms: MultiplicationSystem, bb: BorderBasis) -> Polynomial:
    """The unique projection of K[x] onto <B> with kernel the ideal.

    A monomial's coordinates are M_i applied to those of the monomial with
    its leftmost variable x_i peeled off; commutation must have been verified
    so the variable order is irrelevant.  They are computed on ``ms.array``
    for this call only, so a query costs the same whatever was asked before.

    Each monomial needed is x_i times its parent, the monomial with its
    leftmost variable x_i peeled off, at depth one more than the parent's
    (a monomial of B has depth 0).  Its coordinates are one row of C: at
    depth 1 the row of a[i] at the parent, deeper C[parents] @ a[i] by the
    field's product, for all monomials of that depth and variable at once,
    so a row at depth t stands over d^t, d = ``ms.denominator``.  A parent
    shared by several monomials gets one row.  Each term outside B is
    walked up its parents, in one loop and to any depth, to the first that
    has a row or lies in B; the chain gets its rows from that end down.
    The answer is p's coefficients times the rows of its terms outside B,
    each coefficient taken over d^top (top the deepest row) when d is not 1,
    in one product that the field decodes, plus p's terms in B.
    """
    f, index, a, d = ms.field, ms.index, ms.array, ms.denominator
    outside = [m for m in p.terms if m not in index]
    row: dict[Monomial, int] = {}
    depth_of: list[int] = []  # by row
    groups: dict[tuple, tuple] = {}  # (depth, i) -> (rows, their parents' columns or rows)
    terms = []
    chain = []  # the monomials walked through from a term, each with the variable peeled off it
    for m in outside:
        src = row.get(m)
        while src is None:
            for i, e in enumerate(m):
                if e:
                    break
            chain.append((m, i))
            m = m[:i] + (e - 1,) + m[i + 1 :]
            src = index.get(m)
            if src is not None:
                depth = 0
                break
            src = row.get(m)
        else:  # src is the row of the term or of its first ancestor with one
            depth = depth_of[src]
        while chain:
            m, i = chain.pop()
            depth += 1
            group = groups.get((depth, i))
            if group is None:
                group = groups[depth, i] = ([], [])
            r = row[m] = len(depth_of)
            depth_of.append(depth)
            group[0].append(r)
            group[1].append(src)
            src = r
        terms.append(src)
    C = np.empty((len(depth_of), ms.dimension), dtype=a.dtype)
    for (depth, i), (rows, srcs) in sorted(groups.items()):
        C[rows] = a[i][srcs] if depth == 1 else f.product(C[srcs], a[i])
    vec = [f.zero] * ms.dimension
    if terms:
        weights, scale = f.encode([p.terms[m] for m in outside])
        if d != 1:  # the row of a term at depth t stands over d^t: take each over d^top
            top = max(groups)[0]
            powers = [d**k for k in range(top + 1)]
            weights = weights * np.array([powers[top - depth_of[r]] for r in terms], dtype=object)
            scale *= powers[top]
        vec = f.decode(f.product(weights, C[terms]), scale)
    for m, c in p.terms.items():
        j = index.get(m)
        if j is not None:
            vec[j] = f.normalize(vec[j] + c)
    return ms.poly_of(vec)

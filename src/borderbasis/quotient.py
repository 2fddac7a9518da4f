"""Multiplication operators on the quotient algebra and the global normal form.

The matrices M_i describe multiplication by x_i on <B>: column j holds the
coordinates of the reduction of x_i * B[j].  Pairwise commutation of the M_i
certifies that the rewriting rules define a border basis.
"""

from __future__ import annotations

from .border import BorderBasis
from .fields import FloatField
from .poly import Monomial, Polynomial, format_monomial, mono_key, mono_mul, mono_one, mono_var


class NotABorderBasisError(Exception):
    pass


class MultiplicationSystem:
    """The n multiplication-by-variable matrices on an ordered basis B.

    Matrices are dense, stored column-major: ``matrices[i][j]`` is the
    coordinate vector of the reduction of x_i * B[j].
    """

    def __init__(self, basis, matrices, field, nvars):
        self.basis = list(basis)
        self.index = {m: j for j, m in enumerate(self.basis)}
        self.matrices = matrices
        self.field = field
        self.nvars = nvars

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def apply(self, i: int, vec):
        """M_i applied to a coordinate vector."""
        f = self.field
        D = self.dimension
        out = [f.zero] * D
        for j in range(D):
            c = vec[j]
            if f.is_zero(c):
                continue
            col = self.matrices[i][j]
            for k in range(D):
                out[k] = f.add(out[k], f.mul(c, col[k]))
        return out

    def vector_of(self, p: Polynomial):
        """Coordinates of a polynomial supported in B."""
        f = self.field
        out = [f.zero] * self.dimension
        for m, c in p.terms.items():
            out[self.index[m]] = c
        return out

    def poly_of(self, vec) -> Polynomial:
        return Polynomial(
            self.field, self.nvars, {self.basis[j]: c for j, c in enumerate(vec)}
        )

    def row_major(self, i: int):
        D = self.dimension
        return [[self.matrices[i][j][k] for j in range(D)] for k in range(D)]

    def to_json_dict(self, varnames=None):
        if varnames is None:
            varnames = [f"x{i}" for i in range(self.nvars)]
        f = self.field
        return {
            "vars": list(varnames),
            "field": f.name,
            "basis": [format_monomial(m, varnames) for m in self.basis],
            "matrices": {
                varnames[i]: [[f.to_str(c) for c in row] for row in self.row_major(i)]
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


def _commutator_entry(ms: MultiplicationSystem, i, j, col):
    """Column `col` of M_i M_j - M_j M_i."""
    a = ms.apply(i, ms.matrices[j][col])
    b = ms.apply(j, ms.matrices[i][col])
    f = ms.field
    return [f.sub(x, y) for x, y in zip(a, b)]


def _matrix_norm(ms: MultiplicationSystem, i) -> float:
    f = ms.field
    return max(
        (f.magnitude(c) for col in ms.matrices[i] for c in col),
        default=0.0,
    )


def check_commutation(ms: MultiplicationSystem):
    """(ok, first violating (i, j, column) or None).

    Exact fields compare exactly; the float field uses an entrywise tolerance
    max(eps, 1e-10 * |M_i| * |M_j|) so badly scaled systems do not fail
    spuriously.
    """
    f = ms.field
    tol = None
    if isinstance(f, FloatField):
        norms = [_matrix_norm(ms, i) for i in range(ms.nvars)]
    for i in range(ms.nvars):
        for j in range(i + 1, ms.nvars):
            if isinstance(f, FloatField):
                tol = max(f.eps, 1e-10 * norms[i] * norms[j])
            for col in range(ms.dimension):
                diff = _commutator_entry(ms, i, j, col)
                for entry in diff:
                    bad = f.magnitude(entry) > tol if tol is not None else not f.is_zero(entry)
                    if bad:
                        return False, (i, j, col)
    return True, None


def normal_form(p: Polynomial, ms: MultiplicationSystem, bb: BorderBasis) -> Polynomial:
    """The unique projection of K[x] onto <B> with kernel the ideal.

    Computed through multiplication-matrix products; commutation must have
    been verified so the variable order is irrelevant.
    """
    f = ms.field
    D = ms.dimension
    one_vec = [f.zero] * D
    one_vec[ms.index[mono_one(ms.nvars)]] = f.one
    acc = [f.zero] * D
    cache: dict[Monomial, list] = {}

    def vec_of_monomial(m: Monomial):
        if m in cache:
            return cache[m]
        if sum(m) == 0:
            cache[m] = one_vec
            return one_vec
        i = next(k for k, e in enumerate(m) if e > 0)
        prev = vec_of_monomial(tuple(e - (k == i) for k, e in enumerate(m)))
        v = ms.apply(i, prev)
        cache[m] = v
        return v

    for m in sorted(p.terms, key=mono_key):
        c = p.terms[m]
        v = vec_of_monomial(m)
        acc = [f.add(x, f.mul(c, y)) for x, y in zip(acc, v)]
    return ms.poly_of(acc)


def ideal_member(p: Polynomial, ms: MultiplicationSystem, bb: BorderBasis) -> bool:
    return normal_form(p, ms, bb).is_zero()

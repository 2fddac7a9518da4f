"""Commutation syzygies of a border basis.

The generators are the commutation relations, lifted.  For each neighbour
column (k, i, j) of `quotient.neighbours`, with b = B[k], u1 = x_i*b and
u2 = x_j*b (read off the shift table ``ms.shifts``), let c_i and c_j be
column k of M_i and M_j (x_i*b = c_i + f_u1 and x_j*b = c_j + f_u2, a term
f_u absent when u lies in B).  The generator is, in closed form over those
columns,

    x_i*e_u2 - x_j*e_u1 - mu^j(c_i) + mu^i(c_j)

(a term e_u absent when u lies in B), where mu^i reads the border shifts
``ms.outside[i]`` of the multiplication system.  It has
Sum h_w f_w = pi(x_j c_i) - pi(x_i c_j), minus the column k of
M_i M_j - M_j M_i, so it is a syzygy exactly when that column vanishes:
`check_commutation` certifies all generators at once.  A generator is
negated when u2 lies in B, so the term x_j*e_u1 leads.  Whether u1, u2 and
x_i*x_j*b lie in B only labels the relation: next-door, non-stair or
across-the-street.  These generate the whole syzygy module; reduce_syzygy
implements the descent that rewrites any syzygy to zero modulo them.

The one lift, `_lift`, gives _lift(x_i, u2) = x_i*e_u2 + mu^i(c_j), so each
generator equals _lift(x_i, u2) - _lift(x_j, u1); `reduce_syzygy` builds its
exchange vectors with `_lift`, and the tests hold the generators to it.
Inside the lift and the reduction a vector is flat: (m, w) -> coefficient,
one key per term m*e_w, so `poly.axpy` updates it like any other sparse map.
The public functions take and return {w: Polynomial}; `_flat` and `_nested`
convert.

`reduce_syzygy` descends on the b-index of each term m*e_w, the least |q|
with m*w = q*b for b in B (`poly.b_index`).  Within one call it keeps three
memos and one map, dropped when it returns: the b-index of each monomial
met, each term's (m*w, b-index, |m|, order key), each exchange partner, and
B's monomials by size, so a partner is sought among one size only.  A step
picks its term in one pass over the residual, so it costs time in
proportion to the residual, not to the residual times |B|.
"""

from __future__ import annotations

from itertools import groupby

from .border import BorderBasis
from .fields import NumericError
from .poly import (
    Monomial,
    Polynomial,
    axpy,
    b_index,
    mono_div,
    mono_divides,
    mono_key,
    mono_mul,
    mono_one,
    mono_size,
    mono_var,
)
from .quotient import check_commutation, neighbours

KIND_NEXT_DOOR = "next_door"
KIND_NON_STAIR = "non_stair"
KIND_ACROSS_STREET = "across_street"

# reduce_syzygy gives up with a SyzygyError after this many descent steps
_REDUCE_STEP_LIMIT = 100000


class SyzygyError(NumericError):
    pass


class SyzygyRelation:
    """A coefficient vector (h_w) over the border with Sum h_w f_w = 0.

    ``coeffs`` is stored as given: every h_w in it is a nonzero polynomial
    (`generate_syzygies` builds only such), so an absent w means h_w = 0.
    """

    __slots__ = ("coeffs", "kind", "origin")

    def __init__(self, coeffs: dict, kind: str, origin):
        self.coeffs = coeffs
        self.kind = kind
        self.origin = origin

    def __repr__(self):
        return f"SyzygyRelation(kind={self.kind}, origin={self.origin})"


def mu(v, i: int, bb: BorderBasis) -> dict:
    """mu^i of the element p of <B> with coordinates v: the constant
    coefficients (1, w) -> h_w with pi(x_i p) = x_i p - Sum h_w f_w."""
    f = bb.field
    one = mono_one(bb.nvars)
    return {(one, w): v[k] for k, w in bb.ms.outside[i] if not f.is_zero(v[k])}


def _flat(coeffs: dict) -> dict:
    """{w: Polynomial} as the flat vector (m, w) -> coefficient."""
    return {(m, w): c for w, h in coeffs.items() for m, c in h.terms.items()}


def _nested(vec: dict, bb: BorderBasis) -> dict:
    """The flat vector (m, w) -> coefficient as {w: Polynomial}."""
    terms = {}
    for (m, w), c in vec.items():
        terms.setdefault(w, {})[m] = c
    return {w: Polynomial(bb.field, bb.nvars, t) for w, t in terms.items()}


def expand_syzygy(coeffs: dict, bb: BorderBasis) -> Polynomial:
    """Sum h_w f_w as a polynomial."""
    f = bb.field
    products = []
    for w, h in coeffs.items():
        rule = bb.rules.get(w)
        if rule is None:
            raise SyzygyError(f"coefficient indexed by non-border monomial {w}")
        g = rule.poly().terms.items()
        products += [(mono_mul(a, b), c * d) for a, c in h.terms.items() for b, d in g]
    return Polynomial.from_terms(f, bb.nvars, products)


def verify_syzygy(coeffs, bb: BorderBasis) -> bool:
    """Symbolic zero test of Sum h_w f_w (eps-zero coefficientwise for floats)."""
    if isinstance(coeffs, SyzygyRelation):
        coeffs = coeffs.coeffs
    return expand_syzygy(coeffs, bb).is_zero()


def generate_syzygies(bb: BorderBasis):
    """The lifted commutator columns, one per `neighbours` column (see the
    module docstring), labelled next-door / non-stair / across-the-street.

    Each is written in closed form from the columns of the matrices and
    equals _lift(x_i, x_j*b) - _lift(x_j, x_i*b).  They are syzygies exactly
    when the matrices commute, so `check_commutation` certifies them all at
    once; a failure raises SyzygyError naming (i, j, column).
    """
    f, ms = bb.field, bb.ms
    ok, where = check_commutation(ms)
    if not ok:
        raise SyzygyError(f"multiplication matrices do not commute at (i, j, column) = {where}")
    minus_one = f.normalize(-f.one)
    zero = Polynomial(f, bb.nvars)
    out = []
    for k, i, j in neighbours(ms):
        b, u1, u2 = bb.basis[k], ms.shifts[i][k], ms.shifts[j][k]
        in1, in2 = u1 in ms.index, u2 in ms.index
        coeffs = _commutator_column(bb, k, i, j, None if in1 else u1, None if in2 else u2)
        if in2:
            for h in coeffs.values():
                for m, c in h.items():
                    h[m] = f.normalize(minus_one * c)
        if not (in1 or in2):
            kind = KIND_ACROSS_STREET
        elif (ms.shifts[j][ms.index[u1]] if in1 else ms.shifts[i][ms.index[u2]]) in ms.index:
            # x_i*x_j*b, the shift of whichever of u1 and u2 lies in B, is in B
            kind = KIND_NON_STAIR
        else:
            kind = KIND_NEXT_DOOR
        out.append(SyzygyRelation({w: zero._of(h) for w, h in coeffs.items()}, kind, (b, i, j)))
    return out


def _commutator_column(bb: BorderBasis, k: int, i: int, j: int, u1, u2) -> dict:
    """x_i*e_u2 - x_j*e_u1 - mu^j(c_i) + mu^i(c_j) as {w: {m: c}}, c_i and
    c_j the columns k of M_i and M_j, u1 or u2 None when it lies in B.  Sums
    and keys come in the order of the flat _lift(x_i, u2) - _lift(x_j, u1),
    so the two agree float for float and key for key."""
    f, n = bb.field, bb.nvars
    minus_one = f.normalize(-f.one)
    mus = mu(bb.ms.matrices[j][k], i, bb)
    rest = {}  # the terms of -mu^j(c_i) that mu^i(c_j) lacks
    for key, c in mu(bb.ms.matrices[i][k], j, bb).items():
        c = f.normalize(minus_one * c)
        if key not in mus:
            rest[key] = c
        elif f.is_zero(c := f.normalize(mus[key] + c)):
            del mus[key]
        else:
            mus[key] = c
    out = {} if u2 is None else {u2: {mono_var(n, i): f.one}}
    for (one, w), c in mus.items():
        out.setdefault(w, {})[one] = c
    if u1 is not None:
        out.setdefault(u1, {})[mono_var(n, j)] = minus_one
    for (one, w), c in rest.items():
        out.setdefault(w, {})[one] = c
    return out


def _lift(m: Monomial, theta: Monomial, bb: BorderBasis) -> dict:
    """The flat T with Sum T_w f_w = m*theta - pi(m*theta), for theta in B+.

    Starts from T = e_theta (nothing when theta lies in B) and v, the
    coordinates of pi(theta); then, for each variable x_i of m from the last,
    T <- x_i*T + mu^i(v) and v <- M_i v.
    """
    f, n, ms = bb.field, bb.nvars, bb.ms
    rule = bb.rules.get(theta)
    if rule is None:
        T, v = {}, [f.one if b == theta else f.zero for b in ms.basis]
    else:
        T, v = {(mono_one(n), theta): f.one}, ms.vector_of(rule.tail)
    xs = [i for i in reversed(range(n)) for _ in range(m[i])]
    for k, i in enumerate(xs):
        if k:  # the last M_i v would go unread
            v = ms.apply(xs[k - 1], v)
        xi = mono_var(n, i)
        T = axpy(f, {(mono_mul(u, xi), w): c for (u, w), c in T.items()}, f.one, mu(v, i, bb))
    return T


# ---------------------------------------------------------------------------
# reduction of arbitrary syzygies modulo the commutation generators


def _exchange_partner(u: Monomial, delta: int, bb: BorderBasis, by_size: dict):
    """Deterministic (m', theta') with m'*theta' = u, given delta = b-index(u):
    |m'| = delta - 1 and theta' in the border, or (1, u) when u lies in B.
    ``by_size`` maps a size to the basis monomials of that size in basis
    order, so the first divisor of size |u| - delta is the first in B."""
    if delta == 0:
        return mono_one(bb.nvars), u
    # 1 in B guarantees a divisor at distance delta
    b = next(b for b in by_size[mono_size(u) - delta] if mono_divides(b, u))
    j = next(k for k, (e, d) in enumerate(zip(u, b)) if e > d)
    theta = bb.ms.shifts[j][bb.ms.index[b]]
    return mono_div(u, theta), theta


def reduce_syzygy(coeffs, bb: BorderBasis) -> dict:
    """Reduce a syzygy modulo the commutation generators; returns the residual.

    The residual is the empty dict exactly when the input lies in the module
    generated by the next-door / non-stair / across-the-street relations
    (always, for a true border basis).  Non-syzygy input is rejected.
    """
    if isinstance(coeffs, SyzygyRelation):
        coeffs = coeffs.coeffs
    if not verify_syzygy(coeffs, bb):
        raise SyzygyError("input is not a syzygy: Sum h_w f_w != 0")
    f = bb.field
    minus_one = f.normalize(-f.one)
    # memos for this call: b-indices, each term's data, exchange partners;
    # B by size, in basis order (it is sorted by size first)
    indices, terms, partners = {}, {}, {}
    by_size = {d: list(bs) for d, bs in groupby(bb.basis, mono_size)}

    def term(mw):
        """(u = m*w, b-index(u), |m|, order key) of the term m*e_w."""
        t = terms.get(mw)
        if t is None:
            m, w = mw
            u = mono_mul(m, w)
            delta = b_index(u, bb.basis_set, indices)
            t = terms[mw] = (u, delta, mono_size(m), (mono_key(w), mono_key(m)))
        return t

    residual = _flat(coeffs)
    for _ in range(_REDUCE_STEP_LIMIT):
        if not residual:
            return {}
        # phase 1: normalize so every term has b-index(m*w) == |m| + 1,
        # rewriting the largest (b-index, |m|, m) first, on a tie the least
        # order key
        best = None
        for mw in residual:
            u, delta, size, key = term(mw)
            if delta <= size:
                rank = (delta, size, mw[0])
                if best is None or rank > best[0] or (rank == best[0] and key < best[1]):
                    best = rank, key, mw, u
        if best is not None:
            (delta, _, _), _, (m, w), u = best
            if u not in partners:
                partners[u] = _exchange_partner(u, delta, bb, by_size)
            m2, w2 = partners[u]
        else:
            # phase 2: all terms normalized; on the largest (b-index, order
            # key) u that two terms share, cancel its two least terms
            groups = {}
            for mw in residual:
                groups.setdefault(term(mw)[0], []).append(mw)
            pairs = [(u, entries) for u, entries in groups.items() if len(entries) >= 2]
            if not pairs:
                # nothing cancels: impossible for a genuine syzygy
                return _nested(residual, bb)
            _, entries = max(pairs, key=lambda p: (indices[p[0]], mono_key(p[0])))
            (m, w), (m2, w2) = sorted(entries, key=lambda mw: term(mw)[3])[:2]
        # a syzygy whose leading term is m*e_w
        exchange = axpy(f, _lift(m, w, bb), minus_one, _lift(m2, w2, bb))
        axpy(f, residual, f.normalize(-residual[m, w]), exchange)
    raise SyzygyError("reduction did not terminate within the step limit")

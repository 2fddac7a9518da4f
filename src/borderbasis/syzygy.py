"""Commutation syzygies of a border basis.

The generators are the commutation relations, lifted.  For each neighbour
column (k, i, j) of `poly.neighbours`, with b = B[k], u1 = x_i*b and
u2 = x_j*b, let c_i and c_j be the polynomials of column k of M_i and M_j
(x_i*b = c_i + f_u1 and x_j*b = c_j + f_u2, a term f_u absent when u lies in
B).  Then

    x_i*e_u2 - x_j*e_u1 - mu^j(c_i) + mu^i(c_j)

has Sum h_w f_w = pi(x_j c_i) - pi(x_i c_j), minus the column k of
M_i M_j - M_j M_i, so it is a syzygy exactly when that column vanishes.  It
is negated when u2 lies in B, so the term x_j*e_u1 leads.  Whether u1, u2 and
x_i*x_j*b lie in B only labels the relation: next-door, non-stair or
across-the-street.  These generate the whole syzygy module; reduce_syzygy
implements the descent that rewrites any syzygy to zero modulo them.
"""

from __future__ import annotations

from .border import BorderBasis
from .poly import (
    Monomial,
    Polynomial,
    b_index,
    mono_div,
    mono_divides,
    mono_key,
    mono_mul,
    mono_size,
    mono_var,
    neighbours,
)
from .quotient import normal_form

KIND_NEXT_DOOR = "next_door"
KIND_NON_STAIR = "non_stair"
KIND_ACROSS_STREET = "across_street"

# reduce_syzygy gives up with a SyzygyError after this many descent steps
_REDUCE_STEP_LIMIT = 100000


class SyzygyError(Exception):
    pass


class SyzygyRelation:
    """A coefficient vector (h_w) over the border with Sum h_w f_w = 0."""

    __slots__ = ("coeffs", "kind", "origin")

    def __init__(self, coeffs: dict, kind: str, origin):
        self.coeffs = {w: h for w, h in coeffs.items() if not h.is_zero()}
        self.kind = kind
        self.origin = origin

    def __repr__(self):
        return f"SyzygyRelation(kind={self.kind}, origin={self.origin})"


def mu(p: Polynomial, i: int, bb: BorderBasis) -> dict:
    """mu^i of p in <B>: coefficients (w -> c) with pi_F(x_i p) = x_i p - sum c f_w."""
    out = {}
    f = p.field
    xi = mono_var(bb.nvars, i)
    for b, c in p.terms.items():
        w = mono_mul(b, xi)
        if w not in bb.basis_set:
            out[w] = f.normalize(out.get(w, f.zero) + c)
    return out


def _const_coeffs(coeffs: dict, bb: BorderBasis) -> dict:
    f = bb.field
    return {w: Polynomial(f, bb.nvars, {(0,) * bb.nvars: c}) for w, c in coeffs.items()}


def _add_vec(a: dict, b: dict) -> dict:
    out = dict(a)
    for w, h in b.items():
        out[w] = out[w].add(h) if w in out else h
    return {w: h for w, h in out.items() if not h.is_zero()}


def _scale_vec(a: dict, c, field) -> dict:
    return {w: h.scale(c) for w, h in a.items() if not field.is_zero(c)}


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

    Every emitted relation is re-verified symbolically (fail-fast).
    """
    f = bb.field
    n = bb.nvars
    ms = bb.ms
    minus_one = f.normalize(-f.one)
    out = []
    for k, i, j in neighbours(bb.basis, bb.basis_set):
        b = bb.basis[k]
        u1 = mono_mul(b, mono_var(n, i))
        u2 = mono_mul(b, mono_var(n, j))
        in1, in2 = u1 in bb.basis_set, u2 in bb.basis_set
        coeffs = {}
        if not in2:
            coeffs[u2] = Polynomial.monomial(f, n, mono_var(n, i))
        if not in1:
            coeffs[u1] = Polynomial.monomial(f, n, mono_var(n, j), minus_one)
        c_i = ms.poly_of(ms.matrices[i][k])
        c_j = ms.poly_of(ms.matrices[j][k])
        lifted = _add_vec(
            _const_coeffs({w: f.normalize(-c) for w, c in mu(c_i, j, bb).items()}, bb),
            _const_coeffs(mu(c_j, i, bb), bb),
        )
        coeffs = _add_vec(coeffs, lifted)
        if in2:
            coeffs = _scale_vec(coeffs, minus_one, f)
        if not (in1 or in2):
            kind = KIND_ACROSS_STREET
        elif mono_mul(u1, mono_var(n, j)) in bb.basis_set:
            kind = KIND_NON_STAIR
        else:
            kind = KIND_NEXT_DOOR
        rel = SyzygyRelation(coeffs, kind, (b, i, j))
        if not verify_syzygy(rel, bb):
            raise SyzygyError(f"generated relation fails to expand to zero: {rel!r}")
        out.append(rel)
    return out


# ---------------------------------------------------------------------------
# reduction of arbitrary syzygies modulo the commutation generators


def _decomposition_vector(m: Monomial, theta: Monomial, bb: BorderBasis) -> dict:
    """Syzygy-vector T with Sum T_w f_w = m*theta - pi^e(m*theta).

    Built by peeling the leftmost variable of m; T has the term m*e_theta
    plus lower-degree mu contributions.
    """
    n = bb.nvars
    if mono_size(m) == 0:
        return _const_coeffs({theta: bb.field.one}, bb)
    i = next(k for k, e in enumerate(m) if e > 0)
    m_prev = mono_div(m, mono_var(n, i))
    prev = _decomposition_vector(m_prev, theta, bb)
    shifted = {w: h.mul_monomial(mono_var(n, i)) for w, h in prev.items()}
    inner = normal_form(Polynomial.monomial(bb.field, n, mono_mul(m_prev, theta)), bb.ms, bb)
    return _add_vec(shifted, _const_coeffs(mu(inner, i, bb), bb))


def _exchange_partner(u: Monomial, bb: BorderBasis):
    """Deterministic (m', theta') with m'*theta' = u and b-index(u) = |m'| + 1."""
    delta = b_index(u, bb.basis_set)
    for b in bb.basis:  # bb.basis is canonically sorted
        if mono_divides(b, u) and mono_size(u) - mono_size(b) == delta:
            q = mono_div(u, b)
            j = next(k for k, e in enumerate(q) if e > 0)
            theta = mono_mul(b, mono_var(bb.nvars, j))
            return mono_div(u, theta), theta
    raise SyzygyError(f"no exchange partner for {u}")


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
    residual = {w: h for w, h in coeffs.items() if not h.is_zero()}

    def terms():
        for w in sorted(residual, key=mono_key):
            for m in sorted(residual[w].terms, key=mono_key):
                yield m, w, residual[w].terms[m]

    for _ in range(_REDUCE_STEP_LIMIT):
        if not residual:
            return {}
        # phase 1: normalize so every term has b-index(m*theta) == |m| + 1,
        # rewriting maximal-index offenders first
        offender = None
        best_key = None
        for m, w, lam in terms():
            u = mono_mul(m, w)
            delta = b_index(u, bb.basis_set)
            if delta < mono_size(m) + 1:
                key = (delta, mono_size(m), tuple(m))
                if best_key is None or key > best_key:
                    best_key = key
                    offender = (m, w, lam, u, delta)
        if offender is not None:
            m, w, lam, u, delta = offender
            exchange = _decomposition_vector(m, w, bb)
            if delta > 0:
                m2, w2 = _exchange_partner(u, bb)
                exchange = _add_vec(
                    exchange,
                    _scale_vec(_decomposition_vector(m2, w2, bb), f.normalize(-f.one), f),
                )
            # exchange is a syzygy whose leading term is m*e_w
            residual = _add_vec(residual, _scale_vec(exchange, f.normalize(-lam), f))
            continue
        # phase 2: all terms normalized; cancel the maximal-index pair
        groups = {}
        for m, w, lam in terms():
            groups.setdefault(mono_mul(m, w), []).append((m, w, lam))
        pair_u = None
        for u, entries in groups.items():
            if len(entries) >= 2:
                key = (b_index(u, bb.basis_set), mono_key(u))
                if pair_u is None or key > pair_u[0]:
                    pair_u = (key, u, entries)
        if pair_u is None:
            # nothing cancels: impossible for a genuine syzygy
            return residual
        _, u, entries = pair_u
        (m, w, lam), (m2, w2, _) = entries[0], entries[1]
        exchange = _add_vec(
            _decomposition_vector(m, w, bb),
            _scale_vec(_decomposition_vector(m2, w2, bb), f.normalize(-f.one), f),
        )
        residual = _add_vec(residual, _scale_vec(exchange, f.normalize(-lam), f))
    raise SyzygyError("reduction did not terminate within the step limit")

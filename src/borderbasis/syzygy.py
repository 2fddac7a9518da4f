"""Commutation syzygies of a border basis.

For each basis monomial m and variable pair the membership pattern of
(x_i1*m, x_i2*m, x_i1*x_i2*m) in B / border(B) yields one of three relation
kinds (next-door, non-stair, across-the-street).  These generate the whole
syzygy module; reduce_syzygy implements the descent that rewrites any syzygy
to zero modulo them.
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
)

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
            out[w] = f.add(out.get(w, f.zero), c)
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


def _mono_vec(w: Monomial, m: Monomial, field, nvars, c=None) -> dict:
    return {w: Polynomial.monomial(field, nvars, m, c)}


def expand_syzygy(coeffs: dict, bb: BorderBasis) -> Polynomial:
    """Sum h_w f_w as a polynomial."""
    acc = Polynomial.zero(bb.field, bb.nvars)
    for w, h in coeffs.items():
        rule = bb.rules.get(w)
        if rule is None:
            raise SyzygyError(f"coefficient indexed by non-border monomial {w}")
        acc = acc.add(h.mul(rule.poly()))
    return acc


def verify_syzygy(coeffs, bb: BorderBasis) -> bool:
    """Symbolic zero test of Sum h_w f_w (eps-zero coefficientwise for floats)."""
    if isinstance(coeffs, SyzygyRelation):
        coeffs = coeffs.coeffs
    return expand_syzygy(coeffs, bb).is_zero()


def generate_syzygies(bb: BorderBasis):
    """The next-door / non-stair / across-the-street generators.

    Every emitted relation is re-verified symbolically (fail-fast).
    """
    f = bb.field
    n = bb.nvars
    out = []
    for m in bb.basis:
        for i1 in range(n):
            for i2 in range(i1 + 1, n):
                u1 = mono_mul(m, mono_var(n, i1))
                u2 = mono_mul(m, mono_var(n, i2))
                in1 = u1 in bb.basis_set
                in2 = u2 in bb.basis_set
                if in1 and in2:
                    continue
                u12 = mono_mul(u1, mono_var(n, i2))
                if in1 or in2:
                    a, ub = (i1, u2) if in1 else (i2, u1)
                    rho = bb.rules[ub].tail
                    coeffs = _mono_vec(ub, mono_var(n, a), f, n)
                    coeffs = _add_vec(coeffs, _const_coeffs(mu(rho, a, bb), bb))
                    if u12 in bb.basis_set:
                        kind = KIND_NON_STAIR
                    else:
                        kind = KIND_NEXT_DOOR
                        neg_one = f.neg(f.one)
                        coeffs = _add_vec(coeffs, _mono_vec(u12, (0,) * n, f, n, neg_one))
                else:
                    kind = KIND_ACROSS_STREET
                    rho1 = bb.rules[u1].tail
                    rho2 = bb.rules[u2].tail
                    coeffs = _mono_vec(u2, mono_var(n, i1), f, n)
                    coeffs = _add_vec(
                        coeffs, _mono_vec(u1, mono_var(n, i2), f, n, f.neg(f.one))
                    )
                    diff = _add_vec(
                        _const_coeffs({w: f.neg(c) for w, c in mu(rho1, i2, bb).items()}, bb),
                        _const_coeffs(mu(rho2, i1, bb), bb),
                    )
                    coeffs = _add_vec(coeffs, diff)
                rel = SyzygyRelation(coeffs, kind, (m, i1, i2))
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
    f = bb.field
    if mono_size(m) == 0:
        return _mono_vec(theta, (0,) * n, f, n)
    i = next(k for k, e in enumerate(m) if e > 0)
    m_prev = mono_div(m, mono_var(n, i))
    prev = _decomposition_vector(m_prev, theta, bb)
    shifted = {w: h.mul_monomial(mono_var(n, i)) for w, h in prev.items()}
    inner = bb.extended_project_monomial(mono_mul(m_prev, theta))
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
            for m in residual[w].sorted_monomials():
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
                    _scale_vec(_decomposition_vector(m2, w2, bb), f.neg(f.one), f),
                )
            # exchange is a syzygy whose leading term is m*e_w
            residual = _add_vec(residual, _scale_vec(exchange, f.neg(lam), f))
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
            _scale_vec(_decomposition_vector(m2, w2, bb), f.neg(f.one), f),
        )
        residual = _add_vec(residual, _scale_vec(exchange, f.neg(lam), f))
    raise SyzygyError("reduction did not terminate within the step limit")

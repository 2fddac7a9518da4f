"""Benchmark system generators."""

from __future__ import annotations

import warnings

from .fields import Field, InputError
from .poly import Polynomial

KATSURA_FORMULA = (
    "katsura(n): n+1 unknowns u0..un;\n"
    "  for m = 0..n-1:  sum_{k=-n..n, |m-k|<=n} u_|k| * u_|m-k|  =  u_m\n"
    "  plus the linear relation  u0 + 2*(u1 + ... + un) = 1\n"
    "The system has 2^n solutions."
)


def gen_katsura(field: Field, n: int):
    """The Katsura(n) system: n+1 unknowns, 2^n solutions."""
    if n < 1:
        raise InputError("katsura requires n >= 1")
    nv = n + 1

    def u(i):
        return tuple(1 if j == i else 0 for j in range(nv))

    polys = []
    for m in range(n):
        terms = {}
        for k in range(-n, n + 1):
            if abs(m - k) > n:
                continue
            mono = tuple(a + b for a, b in zip(u(abs(k)), u(abs(m - k))))
            terms[mono] = field.normalize(terms.get(mono, field.zero) + field.one)
        terms[u(m)] = field.normalize(terms.get(u(m), field.zero) - field.one)
        polys.append(Polynomial(field, nv, terms))
    two = field.normalize(field.one + field.one)
    linear = {u(0): field.one}
    for k in range(1, nv):
        linear[u(k)] = two
    linear[(0,) * nv] = field.normalize(-field.one)
    polys.append(Polynomial(field, nv, linear))
    return polys


def gen_intro_family(field: Field, a, b, c, d, eps1, eps2):
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
